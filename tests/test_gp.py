"""Alternating functions: relation checks, derived circuits, dual pairs."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatroid import (CORPUS, KRASNER, PHASE, PHASE_PLAIN, RATIONALS,
                          SIGN, TRIANGLE, TROPICAL, GPFunction, GroundSet,
                          InputError, InvalidDualPairError, check_gp_strong,
                          check_gp_weak, circuits_from_gp,
                          cocircuit_signature_from_circuits, corpus_entries,
                          dual_pair_witness, eq, equivalent_gp, gf,
                          gp_from_dual_pair, mul, relation_terms,
                          sample_element, zero_in_sum)
from hypermatroid.corpus import gp_from_matrix

import oracles
from strategies import units


def rational_u24():
    return CORPUS["rational-u24"].build()


def test_gp_construction_rules():
    g = GroundSet((1, 2, 3))
    with pytest.raises(InputError):
        GPFunction(SIGN, g, 0, {})
    with pytest.raises(InputError):
        GPFunction(SIGN, g, 1, {})  # identically zero
    with pytest.raises(InputError):
        GPFunction(SIGN, g, 2, {(2, 1): SIGN.element(1)})  # unsorted key
    phi = GPFunction(SIGN, g, 2, {(1, 2): SIGN.element(1),
                                  (1, 3): SIGN.zero()})
    assert (1, 3) not in phi.values, "zero values are dropped"


def test_evaluate_signs():
    phi = rational_u24()
    a = phi.evaluate((1, 2))
    b = phi.evaluate((2, 1))
    assert eq(a, mul(RATIONALS.element(-1), b))
    assert phi.evaluate((1, 1)).is_zero


def test_scale_equivalence():
    phi = rational_u24()
    scaled = phi.scale(RATIONALS.element(Fraction(-7, 3)))
    assert equivalent_gp(phi, scaled)
    assert not equivalent_gp(phi, CORPUS["rational-k4"].build())


def test_relation_terms_zero_inclusion():
    phi = rational_u24()
    terms = relation_terms(phi, (1, 2, 3), (4,))
    assert len(terms) == 3
    assert zero_in_sum(terms)


def test_weak_and_strong_on_realizable():
    phi = rational_u24()
    assert check_gp_weak(phi) is None
    assert check_gp_strong(phi) is None


def test_weak_witness_on_broken_values():
    """Corrupting one minor of a realizable function breaks the relations."""
    phi = rational_u24()
    values = dict(phi.values)
    values[(1, 2)] = RATIONALS.element(Fraction(999))
    broken = GPFunction(RATIONALS, phi.ground, 2, values)
    witness = check_gp_weak(broken)
    assert witness is not None
    assert witness["axiom"] in ("GP3", "GP3'")
    assert not zero_in_sum(witness["terms"])


def test_underlying_matroid_and_bases():
    phi = CORPUS["rational-k4"].build()
    m = phi.underlying_matroid()
    assert m.rank() == 3 and len(m.bases()) == 16
    assert phi.bases_support() == frozenset(m.bases())


def test_circuits_from_gp_matches_kernel_oracle():
    """Derived rational circuits are exactly the minimal-support kernel
    vectors of the defining matrix, up to scale."""
    labels = (1, 2, 3, 4, 5)
    columns = [(Fraction(1), Fraction(0), Fraction(0)),
               (Fraction(0), Fraction(1), Fraction(0)),
               (Fraction(0), Fraction(0), Fraction(1)),
               (Fraction(1), Fraction(1), Fraction(1)),
               (Fraction(1), Fraction(2), Fraction(3))]
    phi = gp_from_matrix(labels, columns)
    sig = circuits_from_gp(phi)
    deps = oracles.minimal_dependencies(columns)
    assert len(sig.classes) == len(deps)
    for vec in sig.classes:
        indices = frozenset(labels.index(x) for x in sorted(vec.entries))
        coeffs = deps[indices]
        anchor = min(vec.entries, key=phi.ground.index)
        scale = coeffs[labels.index(anchor)] / vec.entry(anchor).value
        for label in vec.entries:
            assert vec.entry(label).value * scale == coeffs[labels.index(label)]


def test_cocircuits_are_orthogonal():
    phi = CORPUS["sign-k4"].build()
    circuits = circuits_from_gp(phi)
    cocircuits = cocircuit_signature_from_circuits(circuits)
    assert dual_pair_witness(circuits, cocircuits, max_overlap=3) is None
    assert dual_pair_witness(circuits, cocircuits, max_overlap=None) is None


def test_gp_from_dual_pair_roundtrip():
    for name in ("sign-u24", "sign-k4", "gf3-u24", "tropical-u24",
                 "rational-k4"):
        phi = CORPUS[name].build()
        circuits = circuits_from_gp(phi)
        cocircuits = cocircuit_signature_from_circuits(circuits)
        rebuilt = gp_from_dual_pair(circuits, cocircuits)
        assert equivalent_gp(rebuilt, phi), name


def test_gp_from_dual_pair_rejects_non_pair():
    sig = circuits_from_gp(CORPUS["sign-u24"].build())
    with pytest.raises(InvalidDualPairError):
        gp_from_dual_pair(sig, sig)


def test_pluecker_three_term_tropical():
    phi = CORPUS["tropical-u24"].build()
    assert zero_in_sum(relation_terms(phi, (1, 2, 3), (4,)))
    with pytest.raises(InputError):
        relation_terms(phi, (1, 2), (4,))


def test_random_realizable_always_strong():
    rng = random.Random(404)
    labels = (1, 2, 3, 4, 5)
    built = 0
    while built < 12:
        columns = [tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
                   for _ in range(5)]
        if oracles.rank([[col[i] for col in columns] for i in range(3)]) < 3:
            continue
        phi = gp_from_matrix(labels, columns)
        assert check_gp_strong(phi) is None
        built += 1


# -- the relation kernel against the direct scans ---------------------------


def _pushed(hf, det):
    """An integer minor pushed into hf: the sign map, the 2-adic absolute
    value and the modulus are homomorphisms from the rationals, and GF(p)
    reads the matrix mod p."""
    if det == 0:
        return hf.zero()
    if hf.kind in ("rational", "gf"):
        return hf.element(det)
    if hf.kind == "krasner":
        return hf.one()
    if hf.kind in ("sign", "phase"):
        return hf.element(1 if det > 0 else -1)
    if hf.kind == "tropical":
        twos = (det & -det).bit_length() - 1
        return hf.element(Fraction(1, 2 ** twos))
    return hf.element(float(abs(det)))


@st.composite
def gp_functions(draw):
    """Functions of rank 1-4 on 3 to 7 labels in shuffled ground order,
    over all seven hyperfields and both phase involutions: minors of
    [identity | random] integer matrices with shuffled columns
    (realizable), random units on every r-subset (which often fail the
    relations), and random units on a random set of r-subsets (which
    often fail basis exchange)."""
    hf = draw(st.sampled_from([KRASNER, SIGN, TROPICAL, TRIANGLE, PHASE,
                               PHASE_PLAIN, RATIONALS, gf(5)]))
    rank = draw(st.integers(1, 4))
    n = draw(st.integers(rank + 2, 7))
    mode = draw(st.sampled_from(["realizable", "values", "support"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    labels = tuple(rng.sample(range(1, n + 1), n))
    keys = list(combinations(labels, rank))
    if mode == "realizable":
        columns = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
        columns += [tuple(rng.randint(-3, 3) for _ in range(rank))
                    for _ in range(n - rank)]
        rng.shuffle(columns)
        values = {key: _pushed(hf, int(oracles.det(
            [[columns[x - 1][i] for x in key] for i in range(rank)])))
            for key in keys}
    else:
        if mode == "support":
            keys = [key for key in keys if rng.random() < 0.5] or keys[:1]
        values = {key: sample_element(hf, rng, nonzero=True) for key in keys}
    return GPFunction(hf, GroundSet(labels), rank, values)


@settings(max_examples=300, deadline=None)
@given(gp_functions())
def test_relation_checks_match_the_scans(phi):
    assert check_gp_weak(phi) == oracles.gp_witness(phi, True)
    assert check_gp_strong(phi) == oracles.gp_witness(phi, False)


@pytest.mark.parametrize("name", [e.name for e in corpus_entries()
                                  if e.kind == "gp"])
def test_corpus_relation_checks_match_the_scans(name):
    """Includes the two weak-only entries, whose GP3 witnesses the random
    functions above rarely reach."""
    phi = CORPUS[name].build()
    assert check_gp_weak(phi) == oracles.gp_witness(phi, True)
    assert check_gp_strong(phi) == oracles.gp_witness(phi, False)


# -- invariance ------------------------------------------------------------------


def verdicts(phi):
    return check_gp_weak(phi) is None, check_gp_strong(phi) is None


@st.composite
def gp_variants(draw):
    """A function from gp_functions, its multiple by a unit, and the same
    function over a permuted ground order, each value re-signed by the
    parity of its reordering."""
    phi = draw(gp_functions())
    ground = GroundSet(draw(st.permutations(phi.ground.labels)))
    permuted = GPFunction(phi.hyperfield, ground, phi.rank, {
        ground.sort(key): phi.evaluate(ground.sort(key)) for key in phi.values})
    return phi, phi.scale(draw(units(phi.hyperfield))), permuted


@settings(max_examples=200, deadline=None, derandomize=True)
@given(gp_variants())
def test_relation_verdicts_are_invariant(variants):
    phi, scaled, permuted = variants
    assert verdicts(scaled) == verdicts(phi)
    assert verdicts(permuted) == verdicts(phi)


def tied_triangle():
    """A rank-2 triangle function that is strong with the exact tie
    phi(1, 2) phi(3, 4) = phi(1, 3) phi(2, 4) = 9 in its one relation."""
    values = {(1, 2): 3.0, (1, 3): 1.0, (2, 3): 1.0, (2, 4): 9.0, (3, 4): 3.0}
    return GPFunction(TRIANGLE, GroundSet((1, 2, 3, 4)), 2,
                      {key: TRIANGLE.element(v) for key, v in values.items()})


@pytest.mark.xfail(strict=True, reason="triangle sums are decided against "
                   "the absolute tolerance HFM_EPS: scaled by 1e-6 the "
                   "failing relation of the weak-only entry falls below it, "
                   "and scaled by 682.89... the tie's two products differ "
                   "by one float step, which the rounding of sum minus top "
                   "at 8.4e6 widens past it")
@pytest.mark.parametrize("build, factor", [
    (CORPUS["triangle-weak-not-strong"].build, 1e-6),
    (tied_triangle, 682.8948664163802),  # found by gp_variants
], ids=["weak-only-by-1e-6", "tie-by-682.89"])
def test_triangle_verdicts_survive_scaling(build, factor):
    phi = build()
    assert verdicts(phi.scale(TRIANGLE.element(factor))) == verdicts(phi)
