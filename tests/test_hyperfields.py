"""Element arithmetic and the axiom suite for the built-in hyperfields."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatroid import (KRASNER, PHASE, PHASE_PLAIN, RATIONALS, SIGN,
                          TRIANGLE, TROPICAL, FVector, GroundSet, HFElement,
                          InputError, MismatchError, check_hyperfield_axioms,
                          double_distributivity_witness, eq, fold_sum, gf,
                          inv, invol, member_of_sum, mul, neg, sample_element,
                          signed, zero_in_sum)

from strategies import ALL_KINDS

ALL = (KRASNER, SIGN, TROPICAL, TRIANGLE, PHASE, PHASE_PLAIN, RATIONALS, gf(3), gf(5))


def test_identifiers():
    assert str(KRASNER) == "krasner"
    assert str(SIGN) == "sign"
    assert str(TROPICAL) == "tropical"
    assert str(TRIANGLE) == "triangle"
    assert str(PHASE) == "phase"
    assert str(PHASE_PLAIN) == "phase[identity]"
    assert str(RATIONALS) == "rational"
    assert str(gf(7)) == "gf(7)"


def test_gf_wants_primes():
    for bad in (0, 1, 4, 6, 9):
        with pytest.raises((InputError, ValueError)):
            gf(bad)


def test_zero_one_distinct():
    for hf in ALL:
        assert hf.zero().is_zero
        assert not hf.one().is_zero
        assert not eq(hf.zero(), hf.one())


def test_krasner_absorbing_sum():
    one = KRASNER.one()
    s = fold_sum([one, one])
    assert s.contains(one) and s.contains_zero()


def test_sign_sum_table():
    plus, minus, zero = SIGN.element(1), SIGN.element(-1), SIGN.zero()
    assert fold_sum([plus, plus]).contains(plus)
    assert not fold_sum([plus, plus]).contains_zero()
    mixed = fold_sum([plus, minus])
    assert mixed.contains(plus) and mixed.contains(minus) and mixed.contains_zero()
    assert fold_sum([plus, zero]).contains(plus)


def test_tropical_max_rule():
    a, b = TROPICAL.element(Fraction(4)), TROPICAL.element(Fraction(1))
    s = fold_sum([a, b])
    assert s.contains(a) and not s.contains(b)
    tie = fold_sum([a, TROPICAL.element(Fraction(4))])
    assert tie.contains(b) and tie.contains_zero()


def test_triangle_interval_rule():
    a, b = TRIANGLE.element(3.0), TRIANGLE.element(1.0)
    s = fold_sum([a, b])
    assert s.contains(TRIANGLE.element(2.0))
    assert s.contains(TRIANGLE.element(4.0))
    assert not s.contains(TRIANGLE.element(1.5))
    assert not s.contains(TRIANGLE.element(4.5))


def test_phase_arc_rule():
    x = PHASE.element(0.5)
    y = PHASE.element(1.5)
    s = fold_sum([x, y])
    assert s.contains(PHASE.element(1.0))
    assert not s.contains(x), "open arcs exclude their endpoints"
    anti = fold_sum([x, neg(x)])
    assert anti.contains_zero() and anti.contains(x) and anti.contains(neg(x))


def test_phase_element_zero_vs_unit():
    assert PHASE.element(0).is_zero
    assert not PHASE.element(1).is_zero
    assert eq(PHASE.element(1), PHASE.element(2 * math.pi))
    assert eq(PHASE.element(-1), PHASE.element(math.pi))


def test_involution():
    a = PHASE.element(1.0)
    assert eq(invol(a), PHASE.element(2 * math.pi - 1.0))
    b = PHASE_PLAIN.element(1.0)
    assert eq(invol(b), b)
    q = RATIONALS.element(Fraction(-3, 7))
    assert eq(invol(q), q)


def test_mul_inv_neg():
    rng = random.Random(11)
    for hf in ALL:
        for _ in range(60):
            x = sample_element(hf, rng, nonzero=True)
            assert eq(mul(x, inv(x)), hf.one())
            assert eq(neg(neg(x)), x)
            assert mul(x, hf.zero()).is_zero
            assert eq(signed(x, 2), x)
            assert eq(signed(x, 1), neg(x))


def test_cross_hyperfield_mismatch():
    """Hyperfields are told apart by identity, also within one family."""
    pairs = [(SIGN.element(1), KRASNER.one()),
             (gf(3).element(1), gf(5).element(1)),
             (PHASE.element(1.0), PHASE_PLAIN.element(1.0))]
    for a, b in pairs:
        with pytest.raises(MismatchError):
            mul(a, b)
        with pytest.raises(MismatchError):
            zero_in_sum([a, b])
        with pytest.raises(MismatchError):
            fold_sum([a, b])
        with pytest.raises(MismatchError):
            FVector(a.hyperfield, GroundSet((1, 2)), {1: a, 2: b})


def test_axiom_suite_all_builtin():
    for hf in ALL:
        report = check_hyperfield_axioms(hf, sample_budget=16, seed=2)
        assert report.ok, (str(hf), [c.name for c in report.checks if not c.passed])
        assert report.exhaustive == hf.is_finite


def test_double_distributivity_split():
    """The search finds a witness exactly where the family's flag says
    double distributivity fails (triangle and phase)."""
    for hf in ALL_KINDS + [gf(5)]:
        found, witness = double_distributivity_witness(hf, seed=1)
        assert found == (not hf.doubly_distributive), str(hf)
        if found:
            assert witness["separating_point"], str(hf)


def test_fold_oracle_agreement():
    """zero_in_sum and member_of_sum match the symbolic fold."""
    rng = random.Random(23)
    for hf in ALL:
        for _ in range(250):
            terms = [sample_element(hf, rng) for _ in range(rng.randint(1, 4))]
            s = fold_sum(terms)
            assert zero_in_sum(terms) == s.contains_zero()
            probe = sample_element(hf, rng)
            assert member_of_sum(probe, terms) == s.contains(probe)


def test_fold_permutation_invariance():
    rng = random.Random(29)
    for hf in ALL:
        for _ in range(40):
            terms = [sample_element(hf, rng) for _ in range(4)]
            shuffled = terms[:]
            rng.shuffle(shuffled)
            assert fold_sum(terms).equals(fold_sum(shuffled))


def test_reversibility():
    """If z sits in x + y then x sits in z + (-y), except over Phase
    where the n-ary zero rule is the coordinating semantics."""
    rng = random.Random(31)
    for hf in ALL:
        if hf.kind == "phase":
            continue
        for _ in range(80):
            x = sample_element(hf, rng)
            y = sample_element(hf, rng)
            s = fold_sum([x, y])
            for payload in s.sample():
                z = HFElement(hf, payload)
                assert member_of_sum(x, [z, neg(y)])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(ALL),
       st.lists(st.sampled_from(["zero", "new", "negated"]), min_size=1,
                max_size=6),
       st.integers(0, 2 ** 32))
def test_zero_terms_never_decide_zero_in_sum(hf, plan, seed):
    """The relation kernel drops zero terms; an all-zero list counts as
    containing 0.  "negated" repeats the last nonzero term negated, so
    sums containing 0 come up over every kind."""
    rng = random.Random(seed)
    terms, nonzero = [], []
    for step in plan:
        if step == "zero":
            terms.append(hf.zero())
            continue
        if step == "new" or not nonzero:
            term = sample_element(hf, rng, nonzero=True)
        else:
            term = neg(nonzero[-1])
        terms.append(term)
        nonzero.append(term)
    assert zero_in_sum(terms) == (not nonzero or zero_in_sum(nonzero))
