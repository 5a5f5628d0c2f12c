"""Duality, minors, and push-forwards along homomorphisms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatroid import (CORPUS, KRASNER, PHASE, RATIONALS, SIGN, TRIANGLE,
                          TROPICAL, HFElement, HyperfieldHom, InputError,
                          check_gp_strong, check_gp_weak, circuits_from_gp,
                          cocircuit_signature_from_circuits, dual_gp, gf,
                          minor_circuits, minor_gp, projectively_equal,
                          pushforward_circuits, pushforward_gp, rational_padic,
                          rational_sign, random_weak_gp, serialize, to_krasner)
from hypermatroid.hyperfields import _padic_abs

import oracles
from oracles import (equivalent_gp, gp_matroid, identity_hom, minimal_covectors,
                     minor_by_matroid, same_signature, validate_hom)
from strategies import ALL_KINDS, weak_functions

GP_NAMES = ("krasner-u24", "krasner-k4", "sign-u13", "sign-u24", "sign-k4",
            "gf3-u24", "rational-u24", "rational-k4", "tropical-u24",
            "tropical-k4-padic", "phase-u24-real", "triangle-weak-not-strong",
            "phase-weak-not-strong")


def entries():
    for name in GP_NAMES:
        yield name, CORPUS[name].build()


def test_double_dual_gp():
    for name, phi in entries():
        assert equivalent_gp(dual_gp(dual_gp(phi)), phi), name


def test_dual_underlying_matroid():
    for name, phi in entries():
        assert gp_matroid(dual_gp(phi)) == gp_matroid(phi).dual(), name


def test_dual_rank():
    phi = CORPUS["sign-k4"].build()
    assert dual_gp(phi).rank == len(phi.ground) - phi.rank


def test_dual_rejects_spanning_rank():
    from hypermatroid import GPFunction, GroundSet
    full = GPFunction(SIGN, GroundSet((1, 2)), 2, {(1, 2): SIGN.element(1)})
    with pytest.raises(InputError):
        dual_gp(full)


def test_dual_circuits_commutes_with_derivation():
    for name, phi in entries():
        left = cocircuit_signature_from_circuits(circuits_from_gp(phi))
        right = circuits_from_gp(dual_gp(phi))
        assert same_signature(left, right), name


@settings(max_examples=40, deadline=None)
@given(weak_functions())
def test_duality_theorems_on_weak_functions(phi):
    """Baker-Bowler's duality on weak and weak-only functions over
    triangle and phase: the circuits of the dual function are the
    cocircuits derived from phi's circuits, class by class up to units,
    and dualizing keeps the weak and the Strong verdict."""
    dual = dual_gp(phi)
    assert check_gp_weak(dual) is None
    assert (check_gp_strong(dual) is None) == (check_gp_strong(phi) is None)
    derived = cocircuit_signature_from_circuits(circuits_from_gp(phi))
    circuits = circuits_from_gp(dual)
    assert len(circuits.classes) == len(derived.classes)
    for x, y in zip(circuits.classes, derived.classes):
        assert projectively_equal(x, y)


@settings(max_examples=30, deadline=None)
@given(weak_functions())
def test_minor_theorems_on_weak_functions(phi):
    """Baker-Bowler's minors on weak and weak-only functions over triangle
    and phase: a single-element deletion or contraction of a weak function
    is weak, of a strong one strong, and its circuits are that minor of
    phi's circuits, class by class up to units."""
    strong = check_gp_strong(phi) is None
    circuits = circuits_from_gp(phi)
    for label in phi.ground.labels:
        for side in ("deleted", "contracted"):
            try:
                minor = minor_gp(phi, **{side: (label,)})
            except InputError:  # a coloop deleted from, or a spanning
                continue        # element contracted in, rank 1
            assert check_gp_weak(minor) is None
            assert not strong or check_gp_strong(minor) is None
            assert same_signature(circuits_from_gp(minor),
                                  minor_circuits(circuits, **{side: (label,)}))


@settings(max_examples=60, deadline=None)
@given(weak_functions(), st.randoms(use_true_random=False))
def test_minor_gp_is_delete_then_contract(phi, rng):
    """One pass on the support's bitsets serializes byte for byte as the
    deletion and then the contraction, each on its `ClassicalMatroid`,
    and refuses exactly the minors of rank 0."""
    labels = list(phi.ground.labels)
    rng.shuffle(labels)
    cut, end = sorted(rng.sample(range(len(labels) + 1), 2))
    deleted, contracted = labels[:cut], labels[cut:end]
    try:
        want = serialize(minor_by_matroid(phi, deleted, contracted))
    except InputError:
        with pytest.raises(InputError):
            minor_gp(phi, deleted, contracted)
        return
    assert serialize(minor_gp(phi, deleted, contracted)) == want


def test_double_dual_circuits():
    for name in ("sign-u24", "gf3-u24", "tropical-u24", "phase-u24-real"):
        sig = circuits_from_gp(CORPUS[name].build())
        assert same_signature(cocircuit_signature_from_circuits(
            cocircuit_signature_from_circuits(sig)), sig), name


def test_dual_circuits_against_brute_force():
    """For finite coefficients on small ground sets, the constructive
    cocircuits equal the supp-minimal nonzero orthogonal vectors found by
    enumerating the whole space."""
    for name in ("krasner-u24", "sign-u13", "sign-u24", "gf3-u24"):
        sig = circuits_from_gp(CORPUS[name].build())
        constructive = cocircuit_signature_from_circuits(sig)
        brute = minimal_covectors(sig)
        assert same_signature(constructive, brute), name


def test_minimal_covectors_rejects_infinite():
    sig = circuits_from_gp(CORPUS["rational-u24"].build())
    with pytest.raises(InputError):
        minimal_covectors(sig)


def test_contract_delete_gp():
    phi = CORPUS["sign-k4"].build()
    contracted = minor_gp(phi, contracted=("ab",))
    assert contracted.rank == 2
    assert "ab" not in contracted.ground
    deleted = minor_gp(phi, deleted=("cd",))
    assert deleted.rank == 3
    assert "cd" not in deleted.ground
    assert equivalent_gp(minor_gp(phi), phi)
    with pytest.raises(InputError):
        minor_gp(phi, deleted=tuple(phi.ground))
    with pytest.raises(InputError):
        minor_gp(phi, deleted=("ab",), contracted=("ab", "cd"))


def test_minor_underlying():
    phi = CORPUS["sign-k4"].build()
    m = gp_matroid(phi)
    c = minor_gp(phi, contracted=("ab",))
    assert gp_matroid(c).circuits == frozenset(
        s for s in minor_circuits(circuits_from_gp(phi),
                                  contracted=("ab",)).supports())
    assert m.rank() - 1 == c.rank


def test_deletion_dual_is_dual_contraction():
    """Removing labels then dualizing equals dualizing then contracting."""
    for name in ("sign-k4", "rational-k4", "tropical-u24"):
        phi = CORPUS[name].build()
        label = phi.ground.labels[0]
        left = dual_gp(minor_gp(phi, deleted=(label,)))
        right = minor_gp(dual_gp(phi), contracted=(label,))
        assert equivalent_gp(left, right), name
        sig = circuits_from_gp(phi)
        sig_left = cocircuit_signature_from_circuits(
            minor_circuits(sig, deleted=(label,)))
        sig_right = minor_circuits(cocircuit_signature_from_circuits(sig),
                                   contracted=(label,))
        assert same_signature(sig_left, sig_right), name


def test_minor_circuits_verdict_preserved():
    sig = circuits_from_gp(CORPUS["triangle-weak-not-strong"].build())
    sub = minor_circuits(sig, deleted=(6,))
    assert check_gp_weak(CORPUS["triangle-weak-not-strong"].build()) is None
    from hypermatroid import classify
    assert classify(sub).verdict in ("Strong", "WeakOnly")


def test_minor_overlap_rejected():
    sig = circuits_from_gp(CORPUS["sign-u24"].build())
    with pytest.raises(InputError):
        minor_circuits(sig, deleted=(1,), contracted=(1,))


def test_builtin_homs_validate():
    homs = [to_krasner(SIGN), to_krasner(TROPICAL), to_krasner(RATIONALS),
            to_krasner(TRIANGLE), to_krasner(gf(3)), rational_sign(),
            rational_padic(2), rational_padic(5), identity_hom(PHASE)]
    for hom in homs:
        assert validate_hom(hom) is None, hom.name


def test_archimedean_abs_is_not_a_hom_to_tropical():
    """|x| into the max-plus world breaks the sum rule: |1 + 1| = 2 is
    not in the hypersum of |1| and |1|, which is just {1}."""
    bad = HyperfieldHom("abs", RATIONALS, TROPICAL, abs)
    failure = validate_hom(bad)
    assert failure is not None and failure["rule"] == "sum"


def test_abs_into_triangle_is_a_hom():
    good = HyperfieldHom("abs", RATIONALS, TRIANGLE, lambda a: abs(float(a)))
    assert validate_hom(good) is None


def test_padic_values():
    hom = rational_padic(2)
    assert hom(RATIONALS.element(Fraction(8))).value == Fraction(1, 8)
    assert hom(RATIONALS.element(Fraction(3, 4))).value == Fraction(4)
    assert hom(RATIONALS.element(Fraction(0))).is_zero
    with pytest.raises(InputError):
        rational_padic(6)


def test_padic_values_of_one_order_share_one_fraction():
    rule = rational_padic(3).rule
    assert rule(Fraction(9, 2)) is rule(Fraction(-18, 5)) == Fraction(1, 9)


# p ** k times a cofactor; the cofactor may hold further factors of p
def _powered(p):
    return st.builds(lambda k, c: p ** k * c, st.integers(0, 300),
                     st.integers(1, 10 ** 40))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5, 7, 2 ** 31 - 1)).flatmap(
    lambda p: st.tuples(st.just(p), _powered(p), _powered(p), st.booleans())))
def test_padic_abs_is_the_fraction_loop(case):
    """The p-adic absolute value counted on the numerator and denominator
    is the one found by one `Fraction` division per factor of p, and the
    sign of a rational is read off its numerator."""
    p, n, d, negative = case
    q = Fraction(-n if negative else n, d)
    assert _padic_abs(q, p, {}) == oracles.padic_abs(q, p)
    assert rational_padic(p).rule(q) == oracles.padic_abs(q, p)
    assert rational_sign().rule(q) == (1 if q > 0 else -1)
    with pytest.raises(ValueError):
        _padic_abs(Fraction(0), p, {})
    with pytest.raises(ValueError):
        oracles.padic_abs(Fraction(0), p)


def test_pushforward_underlying():
    for name, phi in entries():
        hom = to_krasner(phi.hyperfield)
        pushed = pushforward_gp(hom, phi)
        assert gp_matroid(pushed) == gp_matroid(phi), name
        assert pushed.rank == phi.rank


def test_pushforward_circuit_gp_square():
    """Pushing circuits and pushing the function give the same signature."""
    cases = [("rational-u24", rational_sign()),
             ("rational-k4", rational_padic(2)),
             ("sign-k4", to_krasner(SIGN)),
             ("triangle-weak-not-strong", to_krasner(TRIANGLE))]
    for name, hom in cases:
        phi = CORPUS[name].build()
        left = pushforward_circuits(hom, circuits_from_gp(phi))
        right = circuits_from_gp(pushforward_gp(hom, phi))
        assert same_signature(left, right), name


def test_pushforward_commutes_with_duality():
    for name, hom in (("rational-u24", rational_sign()),
                      ("rational-k4", rational_sign()),
                      ("sign-u24", to_krasner(SIGN))):
        phi = CORPUS[name].build()
        left = pushforward_gp(hom, dual_gp(phi))
        right = dual_gp(pushforward_gp(hom, phi))
        assert equivalent_gp(left, right), name


def test_hom_source_mismatch():
    hom = rational_sign()
    with pytest.raises(InputError):
        hom(SIGN.element(1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(ALL_KINDS))
def test_pushforward_preserves_weak_validity(seed, hf):
    """Along the sign map, the p-adic absolute values and the map to
    Krasner from every hyperfield."""
    rng = random.Random(seed)
    rational = random_weak_gp(RATIONALS, rng, max_rank=3, max_ground=6)
    for hom in (rational_sign(), rational_padic(2), rational_padic(3),
                to_krasner(RATIONALS)):
        assert check_gp_weak(pushforward_gp(hom, rational)) is None
    phi = random_weak_gp(hf, rng, max_rank=3, max_ground=6)
    assert check_gp_weak(pushforward_gp(to_krasner(hf), phi)) is None
