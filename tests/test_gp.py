"""Alternating functions: relation checks, derived circuits, dual pairs."""

import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatroid import (CORPUS, KRASNER, PHASE, PHASE_PLAIN, RATIONALS,
                          SIGN, TRIANGLE, TROPICAL, CircuitSignature,
                          ClassicalMatroid, FVector, GPFunction, GroundSet,
                          InputError, InvalidDualPairError, MismatchError,
                          check_gp_strong,
                          check_gp_weak, circuits_from_gp,
                          cocircuit_signature_from_circuits, corpus_entries,
                          dual_gp, dual_pair_witness, eq,
                          gf, gp_from_dual_pair, minor_gp, mul,
                          nonorthogonal_pair, random_weak_gp, relation_terms,
                          sample_element, serialize, support, zero_in_sum)
import hypermatroid.gp
from hypermatroid.corpus import gp_from_matrix
from hypermatroid.gp import failing_relation, failing_three_term
from hypermatroid.hyperfields import Phase, PrimeField, Rationals
from hypermatroid.matroids import _labels

import oracles
from oracles import equivalent_gp, vectors_equal
from strategies import (ALL_KINDS, DOUBLY_DISTRIBUTIVE, NOT_DOUBLY_DISTRIBUTIVE,
                        every_overlap_pair, phase_minors, reordered, scale, units,
                        weak_candidate, weak_functions)


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
    scaled = scale(phi, RATIONALS.element(Fraction(-7, 3)))
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
    m = oracles.gp_matroid(phi)
    assert m.rank() == 3 and len(m.bases()) == 16
    masks, holders, failure = hypermatroid.gp._support(phi)
    assert failure is None and len(masks) == 16
    assert {frozenset(_labels(phi.ground, mask)) for mask in masks} == m.bases()
    for e in range(len(phi.ground)):
        assert [k for k in range(16) if holders[e] >> k & 1] == [
            k for k, mask in enumerate(masks) if mask >> e & 1]


def test_circuits_from_gp_matches_kernel_oracle():
    """Derived rational circuits are exactly the minimal-support kernel
    vectors of the defining matrix, up to scale."""
    labels = (1, 2, 3, 4, 5)
    columns = [(Fraction(1), Fraction(0), Fraction(0)),
               (Fraction(0), Fraction(1), Fraction(0)),
               (Fraction(0), Fraction(0), Fraction(1)),
               (Fraction(1), Fraction(1), Fraction(1)),
               (Fraction(1), Fraction(2), Fraction(3))]
    phi = gp_from_matrix(RATIONALS, labels, columns)
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
    assert dual_pair_witness(circuits, cocircuits) is None


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


def with_change(sig, change, rng):
    """sig with one class more or less: the zero vector, a class on the
    support of a random class with one entry replaced by a random unit
    (two classes on one support, or a multiple, which is dropped), a class
    on the whole ground set, or without its last class."""
    hf, ground, classes = sig.hyperfield, sig.ground, list(sig.classes)
    x = rng.choice(classes)
    if change == "zero":
        classes.append(FVector(hf, ground, {}))
    elif change == "shared":
        label = rng.choice(ground.sort(x.entries))
        classes.append(FVector(hf, ground, {
            **x.entries, label: sample_element(hf, rng, nonzero=True)}))
    elif change == "whole":
        classes.append(FVector(hf, ground, dict.fromkeys(ground.labels, hf.one())))
    elif change == "dropped":
        classes.pop()
    return CircuitSignature(hf, ground, classes)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["sign-u24", "sign-k4", "gf3-u24", "tropical-u24",
                        "rational-k4", "phase-weak-not-strong"]),
       st.sampled_from(["circuits", "cocircuits"]),
       st.sampled_from(["none", "zero", "shared", "whole", "dropped"]),
       st.integers(0, 2 ** 32))
def test_dp1_dp2_on_masks_match_the_support_axioms(name, side, change, seed):
    """DP1 and DP2 read the masks and `shared_support`; the scan of C0-C2
    and the circuit sets of the matroid and its dual give the same
    verdict (`oracles.dual_pair_supports`)."""
    circuits = circuits_from_gp(CORPUS[name].build())
    pair = {"circuits": circuits,
            "cocircuits": cocircuit_signature_from_circuits(circuits)}
    pair[side] = with_change(pair[side], change, random.Random(seed))
    witness = dual_pair_witness(pair["circuits"], pair["cocircuits"])
    axiom = None if witness is None else witness["axiom"]
    assert (None if axiom == "DP3'" else axiom) == \
        oracles.dual_pair_supports(pair["circuits"], pair["cocircuits"])


def test_cocircuits_refuse_a_shared_support():
    """The matroid keeps each support once, so two classes on one support
    would give a dual from the first alone: the derivation refuses them
    first, naming the support."""
    sig = circuits_from_gp(CORPUS["sign-u24"].build())
    x = sig.classes[0]
    label = sig.ground.sort(x.entries)[0]
    flipped = FVector(SIGN, sig.ground, {**x.entries, label: mul(
        SIGN.element(-1), x.entries[label])})
    shared = CircuitSignature(SIGN, sig.ground, sig.classes + (flipped,))
    support_text = str(list(sig.ground.sort(x.entries)))
    with pytest.raises(InputError, match="two classes share the support " +
                       re.escape(support_text)):
        cocircuit_signature_from_circuits(shared)


def test_dual_pair_witness_refuses_mismatched_signatures():
    """The pair loop pairs entries by ground position, so cocircuits over
    another ground order or hyperfield are malformed input, named by
    their field, and not a DP3' failure, nor a non-orthogonal pair: by
    position, the reversed cocircuits of sign U(2,4) are not orthogonal
    to every circuit, though by label they are."""
    circuits = circuits_from_gp(CORPUS["sign-u24"].build())
    cocircuits = cocircuit_signature_from_circuits(circuits)
    reversed_ground = GroundSet(circuits.ground.labels[::-1])
    moved = {
        "cocircuits.ground_set": CircuitSignature(SIGN, reversed_ground, [
            FVector(SIGN, reversed_ground, v.entries) for v in cocircuits.classes]),
        "cocircuits.hyperfield": CircuitSignature(TROPICAL, circuits.ground, [
            FVector(TROPICAL, circuits.ground, dict.fromkeys(v.entries, TROPICAL.one()))
            for v in cocircuits.classes]),
    }
    for field, bad in moved.items():
        with pytest.raises(MismatchError, match=field):
            dual_pair_witness(circuits, bad)
        with pytest.raises(MismatchError, match=field):
            nonorthogonal_pair(circuits, bad)


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
        phi = gp_from_matrix(RATIONALS, labels, columns)
        assert check_gp_strong(phi) is None
        built += 1


# -- the relation kernel against the direct scans ---------------------------


def _pushed(hf, det):
    """An integer minor pushed into hf: the sign map, the 2-adic absolute
    value and the modulus are homomorphisms from the rationals, and GF(p)
    reads the matrix mod p."""
    if det == 0:
        return hf.zero()
    if isinstance(hf, (Rationals, PrimeField)):
        return hf.element(det)
    if hf is KRASNER:
        return hf.one()
    if hf is SIGN or isinstance(hf, Phase):
        return hf.element(1 if det > 0 else -1)
    if hf is TROPICAL:
        twos = (det & -det).bit_length() - 1
        return hf.element(Fraction(1, 2 ** twos))
    return hf.element(float(abs(det)))


# non-dyadic denominators, a few above 2**64, for tropical and rational
# values: a kernel that rounds through float loses their exact ties
DENOMINATORS = (3, 5, 7, 9, 2 ** 64 + 13, 3 ** 41, 5 ** 28)


def reweighted(phi, rng):
    """phi times one random weight per label on every r-subset, with
    denominators from DENOMINATORS.  Over tropical and the rationals this
    keeps a valid function valid (for a realizable one, it scales the
    matrix columns)."""
    hf = phi.hyperfield
    weights = {x: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                           rng.choice(DENOMINATORS))
               for x in phi.ground.labels}
    values = {}
    for key, value in phi.values.items():
        weight = Fraction(1)
        for x in key:
            weight *= weights[x]
        values[key] = mul(hf.element(abs(weight) if hf is TROPICAL else weight),
                          value)
    return GPFunction(hf, phi.ground, phi.rank, values)


@st.composite
def gp_functions(draw, kinds=(KRASNER, SIGN, TROPICAL, TRIANGLE, PHASE,
                              PHASE_PLAIN, RATIONALS, gf(5)),
                 modes=("realizable", "values", "support"), min_rank=1):
    """Functions of rank `min_rank` to 4 on up to 7 labels in shuffled
    ground order, by default over all seven hyperfields and both phase
    involutions, by default in three modes: minors of [identity | random]
    integer matrices with shuffled columns (realizable), random units on
    every r-subset (which often fail the relations), and random units on
    a random set of r-subsets (which often fail basis exchange).  Tropical
    and rational functions are `reweighted` half of the time."""
    hf = draw(st.sampled_from(kinds))
    rank = draw(st.integers(min_rank, 4))
    n = draw(st.integers(rank + 2, 7))
    mode = draw(st.sampled_from(modes))
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
    phi = GPFunction(hf, GroundSet(labels), rank, values)
    if hf in (TROPICAL, RATIONALS) and draw(st.booleans()):
        return reweighted(phi, rng)
    return phi


@settings(max_examples=300, deadline=None)
@given(gp_functions())
def test_relation_checks_match_the_scans(phi):
    """A function that is not weak gets the weak witness from the Strong
    check as well."""
    weak = oracles.gp_witness(phi, True)
    assert check_gp_weak(phi) == weak
    assert check_gp_strong(phi) == oracles.strong_witness(phi)
    if weak is not None:
        assert check_gp_strong(phi) == weak


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(DOUBLY_DISTRIBUTIVE), st.integers(0, 2 ** 32))
def test_weak_functions_are_strong_over_doubly_distributive(hf, seed):
    """The theorem check_gp_strong relies on: over a doubly distributive
    hyperfield every relation of the full scan holds on a weak function.
    From rank 3 on, the family has pairs with |I - J| = 4 or more."""
    phi = random_weak_gp(hf, random.Random(seed), max_rank=4, max_ground=8)
    assert check_gp_weak(phi) is None
    assert oracles.gp_witness(phi, False) is None


@pytest.mark.parametrize("hf, values", [
    # phi(1, 4) phi(2, 3) = (1/3)(3/5) = 1/5 = phi(1, 3) phi(2, 4) is the
    # maximum, attained twice; through float it is 0.19999999999999998
    (TROPICAL, {(1, 2): Fraction(1, 7), (1, 3): Fraction(1, 5), (1, 4): Fraction(1, 3),
                (2, 3): Fraction(3, 5), (2, 4): Fraction(1), (3, 4): Fraction(1, 7)}),
    # 1/5 - 2/5 + (1/3)(3/5) = 0 exactly, but not through float
    (RATIONALS, {(1, 2): Fraction(1, 5), (1, 3): Fraction(1, 5), (1, 4): Fraction(1, 3),
                 (2, 3): Fraction(3, 5), (2, 4): Fraction(2), (3, 4): Fraction(1)}),
], ids=["tropical", "rational"])
def test_exact_ties_hold(hf, values):
    phi = GPFunction(hf, GroundSet((1, 2, 3, 4)), 2,
                     {key: hf.element(v) for key, v in values.items()})
    assert oracles.gp_witness(phi, True) is None
    assert check_gp_weak(phi) is None


@pytest.mark.parametrize("name", [e.name for e in corpus_entries()
                                  if e.kind == "gp"])
def test_corpus_relation_checks_match_the_scans(name):
    """Includes the two weak-only entries, whose GP3 witnesses the random
    functions above rarely reach."""
    phi = CORPUS[name].build()
    assert check_gp_weak(phi) == oracles.gp_witness(phi, True)
    assert check_gp_strong(phi) == oracles.strong_witness(phi)



# -- invariance ------------------------------------------------------------------


def verdicts(phi):
    return check_gp_weak(phi) is None, check_gp_strong(phi) is None


@st.composite
def gp_variants(draw):
    """A function from gp_functions, its multiple by a unit, and the same
    function over a permuted ground order."""
    phi = draw(gp_functions())
    return (phi, scale(phi, draw(units(phi.hyperfield))),
            reordered(phi, draw(st.permutations(phi.ground.labels))))


@settings(max_examples=200, deadline=None)
@given(gp_variants())
def test_relation_verdicts_are_invariant(variants):
    phi, scaled, permuted = variants
    assert verdicts(scaled) == verdicts(phi)
    assert verdicts(permuted) == verdicts(phi)


@st.composite
def weak_only_variants(draw):
    """A weak-only corpus function times a unit, over a permuted ground."""
    phi = CORPUS[draw(st.sampled_from(["triangle-weak-not-strong",
                                       "phase-weak-not-strong"]))].build()
    phi = scale(phi, draw(units(phi.hyperfield)))
    return reordered(phi, draw(st.permutations(phi.ground.labels)))


@settings(max_examples=100, deadline=None)
@given(weak_only_variants())
def test_weak_only_functions_fail_the_full_scan(phi):
    """Reaches the failing full scan over triangle and phase, which the
    random functions above do not."""
    assert check_gp_strong(phi) == oracles.strong_witness(phi)
    assert verdicts(phi) == (True, False)


def tied_triangle():
    """A rank-2 triangle function that is strong with the exact tie
    phi(1, 2) phi(3, 4) = phi(1, 3) phi(2, 4) = 9 in its one relation."""
    values = {(1, 2): 3.0, (1, 3): 1.0, (2, 3): 1.0, (2, 4): 9.0, (3, 4): 3.0}
    return GPFunction(TRIANGLE, GroundSet((1, 2, 3, 4)), 2,
                      {key: TRIANGLE.element(v) for key, v in values.items()})


@pytest.mark.parametrize("build, factor", [
    (CORPUS["triangle-weak-not-strong"].build, 1e-6),
    (tied_triangle, 682.8948664163802),  # found by gp_variants
], ids=["weak-only-by-1e-6", "tie-by-682.89"])
def test_triangle_verdicts_survive_scaling(build, factor):
    phi = build()
    assert verdicts(scale(phi, TRIANGLE.element(factor))) == verdicts(phi)


# -- the three-term relations, one per class, and basis exchange -------------


def three_term_classes(phi):
    """Each three-term relation as its four (I, J) pairs: S of rank - 2
    labels and four labels outside it, I being S plus three of them and J
    S plus the fourth."""
    labels, sort = phi.ground.labels, phi.ground.sort
    for S in combinations(labels, phi.rank - 2):
        rest = [x for x in labels if x not in S]
        for four in combinations(rest, 4):
            yield [(sort(S + tuple(y for y in four if y != x)), sort(S + (x,)))
                   for x in four]


@st.composite
def perturbed_functions(draw, functions=gp_functions()):
    """A function from `functions` with one value replaced by a random
    unit or, when it has others, dropped."""
    phi = draw(functions)
    key = draw(st.sampled_from(sorted(phi.values, key=phi.ground.sort)))
    values = dict(phi.values)
    if len(values) > 1 and draw(st.booleans()):
        del values[key]
    else:
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        values[key] = sample_element(phi.hyperfield, rng, nonzero=True)
    return GPFunction(phi.hyperfield, phi.ground, phi.rank, values)


@settings(max_examples=200, deadline=None)
@given(st.one_of(gp_functions(), perturbed_functions(),
                 gp_variants().map(lambda variants: variants[2])))
def test_three_term_classes_decide_as_one(phi):
    """The four pairs of a class hold or fail together, so the class scan
    names the least failing pair of the full three-term family."""
    if phi.rank >= 2:
        for members in three_term_classes(phi):
            held = {zero_in_sum(relation_terms(phi, I, J)) for I, J in members}
            assert len(held) == 1, members
    assert failing_three_term(phi) == oracles.relation_witness(phi, True)


# rank 2 on, where three-term relations exist
WEAK_FUNCTIONS = gp_functions(ALL_KINDS + [gf(5)], ("realizable",), min_rank=2)


@settings(max_examples=300, deadline=None)
@given(st.one_of(WEAK_FUNCTIONS, perturbed_functions(WEAK_FUNCTIONS)))
def test_three_term_scan_matches_the_term_lists(phi):
    """The class scan on each family's fused `zero_in_dot` names the
    witness, or None, that it names on term lists of `product`s and
    `negative`s decided by the closed forms of `oracles.zero_in`
    (`oracles.failing_class_by_terms`), over every built-in family and
    GF(5), on realizable functions and on the same functions with one
    value replaced or dropped."""
    want = failing_three_term(phi)
    with mock.patch.object(hypermatroid.gp, "_failing_class",
                           oracles.failing_class_by_terms):
        assert failing_three_term(phi) == want


@pytest.mark.parametrize("name", ["sign-u24", "phase-u24-real", "rational-u24"])
def test_uniform_support_skips_the_exchange_scan(monkeypatch, name):
    """A table holding every r-set is the basis family of U(r, n), so
    neither the weak check nor the circuits, which read the support's
    bitsets (`_matroid_support`), run an exchange scan on it; the same
    table less one basis gets one, and both verdicts are those of the
    direct scans."""
    calls, scan = [], hypermatroid.gp._first_exchange_failure
    monkeypatch.setattr(hypermatroid.gp, "_first_exchange_failure",
                        lambda *args: calls.append(args) or scan(*args))
    phi = CORPUS[name].build()
    assert len(phi._table) == comb(len(phi.ground), phi.rank)
    assert check_gp_weak(phi) == oracles.gp_witness(phi, True)
    assert calls == []
    values = dict(phi.values)
    del values[min(values, key=phi.ground.sort)]
    fewer = GPFunction(phi.hyperfield, phi.ground, phi.rank, values)
    assert check_gp_weak(fewer) == oracles.gp_witness(fewer, True)
    assert len(calls) == 1
    circuits_from_gp(phi)
    assert len(calls) == 1


def random_family(rng, rank, labels, density):
    """Random units on a random family of rank-subsets of `labels`, in
    that ground order, not filtered to the bases of a matroid."""
    hf = rng.choice(ALL_KINDS + [gf(5)])
    keys = [key for key in combinations(labels, rank) if rng.random() < density]
    keys = keys or [tuple(labels[:rank])]
    return GPFunction(hf, GroundSet(labels), rank,
                      {key: sample_element(hf, rng, nonzero=True) for key in keys})


def test_weak_check_on_random_families():
    rng = random.Random(1601)
    failing = 0
    for _ in range(300):
        rank = rng.randint(1, 4)
        labels = rng.sample(range(1, 10), rng.randint(rank + 1, 8))
        phi = random_family(rng, rank, labels, rng.choice([0.3, 0.5, 0.7]))
        want = oracles.exchange_witness(phi)
        failing += want is not None
        assert check_gp_weak(phi) == (want or oracles.relation_witness(phi, True))
    assert failing >= 90


def test_memoized_exchange_scan_matches_the_bitset_scan():
    """The exchange scan takes the AND over the cocircuit off cl(B1 - x)
    once per B1 - x; on random families of up to 8 labels, in a ground
    order that is not their label order, matroids or not, it names the
    witness of the scan that takes it once per (B1, x), on the masks and
    holders that a test per (element, basis) builds."""
    rng = random.Random(1204)
    failing = 0
    for _ in range(400):
        rank = rng.randint(1, 4)
        labels = rng.sample(range(1, 10), rng.randint(rank + 1, 8))
        phi = random_family(rng, rank, labels, rng.choice([0.3, 0.5, 0.7, 0.9]))
        want = oracles.bitset_exchange_witness(phi)
        failing += want is not None
        masks, holders, got = hypermatroid.gp._support(phi)
        assert (masks, holders) == oracles.support_bitsets(phi)
        assert got == want
    assert 100 <= failing <= 300


@pytest.mark.parametrize("rank, size", [(1, 20), (1, 24), (2, 20), (2, 24)])
def test_exchange_on_grounds_above_the_matroid_cap(rank, size):
    """Ground sets larger than a matroid may have: the weak check must not
    depend on a table over all 2^n subsets.  Rank 1 families are always
    basis families; rank 2 ones get random densities, and the pairs across
    the classes of a partition (a matroid with parallel elements)."""
    rng = random.Random(size * 10 + rank)
    labels = rng.sample(range(1, size + 1), size)
    families = [random_family(rng, rank, labels, density)
                for density in (0.1, 0.5, 0.9, 0.99)]
    if rank == 2:
        part = {x: rng.randrange(5) for x in labels}
        families.append(GPFunction(SIGN, GroundSet(labels), 2, {
            key: SIGN.element(1) for key in combinations(labels, 2)
            if part[key[0]] != part[key[1]]}))
    outcomes = set()
    for phi in families:
        want = oracles.exchange_witness(phi)
        got = check_gp_weak(phi)
        if want is None:
            assert got is None or got["axiom"] == "GP3'"
        else:
            assert got == want
        outcomes.add(want is None)
    assert outcomes == ({True} if rank == 1 else {True, False})


# -- Strong on weak functions: one relation per circuit-cocircuit pair -------


@settings(max_examples=100, deadline=None)
@given(weak_functions())
def test_strong_check_matches_the_walk_on_weak_functions(phi):
    """Parallel labels and direct sums give many (I, J) the same circuit
    and cocircuit, so the keyed scan must still name the first failing
    pair of least overlap of the full walk."""
    assert check_gp_strong(phi) == oracles.strong_witness(phi)


def test_weak_candidates_reach_weak_only_functions():
    """Over each of the three hyperfields, which `random_weak_gp` alone
    does not reach."""
    found = set()
    for seed in range(30):
        phi = weak_candidate(random.Random(seed))
        if check_gp_weak(phi) is None and check_gp_strong(phi) is not None:
            found.add(phi.hyperfield)
    assert found == set(NOT_DOUBLY_DISTRIBUTIVE)


@settings(max_examples=60, deadline=None)
@given(weak_functions())
def test_failing_relations_are_the_nonorthogonal_pairs(phi):
    """Baker-Bowler: a weak function is strong exactly when every circuit
    is orthogonal to every cocircuit, and weakness already makes the
    pairs meeting in at most 3 elements orthogonal."""
    circuits = circuits_from_gp(phi)
    cocircuits = cocircuit_signature_from_circuits(circuits)
    pair = every_overlap_pair(circuits, cocircuits)
    witness = failing_relation(phi)
    assert (witness is None) == (pair is None)
    if pair is not None:
        assert pair[0] >= 4
        assert sum(not term.is_zero for term in witness["terms"]) >= 4


def zero_in_dot_calls(monkeypatch, phi):
    """The number of shared positions of each pair that
    `check_gp_strong(phi)` hands to the family's `zero_in_dot`, after the
    weak check has run unwatched."""
    assert check_gp_weak(phi) is None
    calls = []
    family = type(phi.hyperfield)
    zero_in_dot = family.zero_in_dot

    def counted(self, left, row):
        calls.append(sum(row[i] is not None for i, _ in left))
        return zero_in_dot(self, left, row)

    monkeypatch.setattr(family, "zero_in_dot", counted)
    assert check_gp_strong(phi) is None
    return calls


# rank 4 on ten labels, with a parallel pair (1 and 5) and a column in the
# span of two others (6)
COUNT_COLUMNS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                 (2, 0, 0, 0), (1, -1, 0, 0), (1, 1, 1, 1), (1, -1, 2, 0),
                 (0, 1, -1, 3), (3, 0, 1, -2)]


def test_strong_check_tests_each_wide_pair_once(monkeypatch):
    phi = phase_minors(COUNT_COLUMNS, [0.3 * k + 0.1 for k in range(10)])
    matroid = oracles.gp_matroid(phi)
    overlaps = sorted(len(C & D) for C in matroid.circuits
                      for D in oracles.cocircuits(matroid) if len(C & D) >= 4)
    assert len(phi.values) < 210 and overlaps
    assert sorted(zero_in_dot_calls(monkeypatch, phi)) == overlaps


@pytest.mark.parametrize("corank", [False, True])
def test_strong_check_tests_nothing_at_rank_or_corank_2(monkeypatch, corank):
    """At rank 2 every circuit, and at corank 2 every cocircuit, has at
    most three elements.  The 24 labels fall into four parallel classes."""
    columns = [(1, x % 4) for x in range(24)]
    phi = phase_minors(columns, [0.1 * x + 0.05 for x in range(24)])
    if corank:
        phi = dual_gp(phi)
    assert len(phi.values) < 276
    assert zero_in_dot_calls(monkeypatch, phi) == []


# -- data derived from a weak function, re-checked ---------------------------


def assert_derived_data_agrees(phi):
    """Baker-Bowler, on what `circuits_from_gp` and `gp_from_dual_pair`
    derive without checking: every basis containing C - x0 gives the same
    circuit vector, and the dual pair of the circuits rebuilds phi up to
    a unit, weak, and strong exactly when phi is."""
    circuits = circuits_from_gp(phi)
    for vector in circuits.classes:
        for again in oracles.circuit_by_every_basis(phi, support(vector)):
            assert vectors_equal(again, vector)
    rebuilt = gp_from_dual_pair(circuits,
                                cocircuit_signature_from_circuits(circuits))
    assert equivalent_gp(rebuilt, phi)
    assert check_gp_weak(rebuilt) is None
    if not phi.hyperfield.doubly_distributive:
        assert (check_gp_strong(rebuilt) is None) == \
            (check_gp_strong(phi) is None)


@pytest.mark.parametrize("name", [e.name for e in corpus_entries()
                                  if e.kind == "gp"])
def test_circuits_from_gp_builds_no_matroid(monkeypatch, name):
    """The circuits are read off the relation table, each against its
    first basis, with every ClassicalMatroid method made to raise; so are
    the weak verdict and every minor deleting and contracting at most one
    label each (`minor_gp`), against the matroid-built oracles."""
    phi = CORPUS[name].build()
    pos = phi.ground.index
    want = [next(oracles.circuit_by_every_basis(phi, circuit)) for circuit in
            sorted(oracles.gp_matroid(phi).circuits,
                   key=lambda c: sorted(map(pos, c)))]
    weak = oracles.gp_witness(phi, True)
    labels = [()] + [(x,) for x in phi.ground.labels]
    sides = [{"deleted": a, "contracted": b}
             for a in labels for b in labels if a != b]
    minors = [minor_or_refusal(oracles.minor_by_matroid, phi, side)
              for side in sides]

    def forbidden(*args, **kwargs):
        raise AssertionError("circuits_from_gp used a ClassicalMatroid method")

    for attr, value in list(vars(ClassicalMatroid).items()):
        if callable(value) or isinstance(value, classmethod):
            monkeypatch.setattr(ClassicalMatroid, attr, forbidden)
    got = circuits_from_gp(CORPUS[name].build()).classes
    assert len(got) == len(want)
    assert all(vectors_equal(x, y) for x, y in zip(got, want))
    assert check_gp_weak(CORPUS[name].build()) == weak
    assert [minor_or_refusal(minor_gp, CORPUS[name].build(), side)
            for side in sides] == minors


def minor_or_refusal(minor, phi, sides):
    """The serialized minor, or None where it is refused (rank 0)."""
    try:
        return serialize(minor(phi, **sides))
    except InputError:
        return None


def test_circuits_from_gp_refuses_a_support_that_is_not_a_matroid():
    """{12, 34} fails basis exchange: it is no matroid's basis family."""
    phi = GPFunction(SIGN, GroundSet((1, 2, 3, 4)), 2,
                     {(1, 2): SIGN.one(), (3, 4): SIGN.one()})
    with pytest.raises(InputError):
        circuits_from_gp(phi)


@settings(max_examples=60, deadline=None)
@given(weak_functions())
def test_derived_data_agrees_on_weak_functions(phi):
    assert_derived_data_agrees(phi)


@pytest.mark.parametrize("hf", ALL_KINDS + [gf(5)], ids=str)
def test_derived_data_agrees_on_sampled_functions(hf):
    rng = random.Random(23)
    for _ in range(12):
        assert_derived_data_agrees(
            random_weak_gp(hf, rng, max_rank=4, max_ground=7))


@pytest.mark.parametrize("name", ["sign-k4", "rational-k4",
                                  "triangle-weak-not-strong",
                                  "phase-weak-not-strong", "phase-u24-real"])
def test_gp_from_dual_pair_checks_no_relation(monkeypatch, name):
    """The admission of a weak dual pair decides; the rebuilt function is
    not re-checked, on a full pair over phase either."""
    circuits = circuits_from_gp(CORPUS[name].build())
    cocircuits = cocircuit_signature_from_circuits(circuits)

    def forbidden(phi):
        raise AssertionError("gp_from_dual_pair re-checked its output")

    for checker in ("check_gp_weak", "check_gp_strong", "failing_relation"):
        monkeypatch.setattr(hypermatroid.gp, checker, forbidden)
    assert equivalent_gp(gp_from_dual_pair(circuits, cocircuits),
                         CORPUS[name].build())
