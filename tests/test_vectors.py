"""Vectors over a hyperfield: support, scaling, orthogonality."""

import math
import random

import pytest

from hypermatroid import (PHASE, PHASE_PLAIN, RATIONALS, SIGN, FVector,
                          GroundSet, InputError, MismatchError, eq, neg,
                          orthogonal, projectively_equal, sample_element,
                          scalar_mul, support)

from oracles import restrict, supp_min


def vec(hf, ground, **entries):
    return FVector(hf, ground, {k: hf.element(v) for k, v in entries.items()})


def test_ground_set_rules():
    g = GroundSet((1, 2, 3))
    assert list(g) == [1, 2, 3]
    assert g.index(2) == 1
    assert 3 in g and 9 not in g
    with pytest.raises(InputError):
        g.index(9)
    with pytest.raises(ValueError):
        GroundSet((1, 1, 2))


def test_support_and_zero_drop():
    g = GroundSet(("a", "b", "c"))
    v = FVector(SIGN, g, {"a": SIGN.element(1), "b": SIGN.zero()})
    assert support(v) == frozenset({"a"})
    assert v.entry("b").is_zero and v.entry("c").is_zero
    with pytest.raises(InputError):
        v.entry("z")


def test_projective_equality():
    g = GroundSet((1, 2, 3))
    x = FVector(RATIONALS, g, {1: RATIONALS.element(2), 2: RATIONALS.element(-4)})
    y = scalar_mul(RATIONALS.element(-3), x)
    assert projectively_equal(x, y)
    z = FVector(RATIONALS, g, {1: RATIONALS.element(2), 3: RATIONALS.element(1)})
    assert not projectively_equal(x, z)


def test_scalar_mul_by_zero_gives_zero_vector():
    g = GroundSet((1, 2))
    x = FVector(SIGN, g, {1: SIGN.element(1)})
    assert not scalar_mul(SIGN.zero(), x).entries


def test_supp_min():
    g = GroundSet((1, 2, 3))
    a = vec(SIGN, g, **{})
    b = FVector(SIGN, g, {1: SIGN.element(1)})
    c = FVector(SIGN, g, {1: SIGN.element(1), 2: SIGN.element(-1)})
    kept = supp_min([a, b, c])
    assert [support(v) for v in kept] == [frozenset({1})]


def test_orthogonality_sign():
    g = GroundSet((1, 2, 3))
    x = FVector(SIGN, g, {1: SIGN.element(1), 2: SIGN.element(-1)})
    w = FVector(SIGN, g, {1: SIGN.element(1), 2: SIGN.element(1)})
    assert orthogonal(x, w)
    bad = FVector(SIGN, g, {1: SIGN.element(1), 2: SIGN.element(-1)})
    assert not orthogonal(x, bad)
    disjoint = FVector(SIGN, g, {3: SIGN.element(1)})
    assert orthogonal(x, disjoint), "empty common support is orthogonal"


def test_orthogonality_respects_involution():
    """The pairing applies the involution to the second argument, so the
    same numeric entries can be orthogonal under conjugation and not
    under the identity."""
    def build(hf):
        g = GroundSet((1, 2))
        x = FVector(hf, g, {1: hf.element(1), 2: hf.element(0.7)})
        y = FVector(hf, g, {1: hf.element(1), 2: hf.element(0.7 + math.pi)})
        return x, y

    x, y = build(PHASE)
    # conjugated terms: angles {0 - 0, 0.7 - 0.7 - pi} are antipodal
    assert orthogonal(x, y)
    # x against itself conjugates to all-positive terms: never zero
    assert not orthogonal(x, x)

    x, y = build(PHASE_PLAIN)
    # identity terms: angles {0, 1.4 + pi} are not antipodal
    assert not orthogonal(x, y)


def test_vector_covector_predicates():
    g = GroundSet((1, 2, 3))
    circuits = [FVector(SIGN, g, {1: SIGN.element(1), 2: SIGN.element(-1)})]
    w = FVector(SIGN, g, {1: SIGN.element(1), 2: SIGN.element(1)})
    assert all(orthogonal(x, w) for x in circuits)
    bad = FVector(SIGN, g, {1: SIGN.element(1), 2: SIGN.element(-1)})
    assert not all(orthogonal(x, bad) for x in circuits)


def test_mismatch_errors():
    g = GroundSet((1, 2))
    h = GroundSet((1, 3))
    x = FVector(SIGN, g, {1: SIGN.element(1)})
    y = FVector(SIGN, h, {1: SIGN.element(1)})
    with pytest.raises(MismatchError):
        orthogonal(x, y)
    z = FVector(RATIONALS, g, {1: RATIONALS.element(1)})
    with pytest.raises(MismatchError):
        orthogonal(x, z)


def test_restrict():
    g = GroundSet((1, 2, 3, 4))
    x = FVector(RATIONALS, g,
                {1: RATIONALS.element(5), 3: RATIONALS.element(-2)})
    r = restrict(x, (1, 2, 3))
    assert list(r.ground) == [1, 2, 3]
    assert eq(r.entry(1), RATIONALS.element(5))
    assert r.entry(2).is_zero


def test_random_self_orthogonality_cancellation():
    """x paired with neg applied at one coordinate flips membership."""
    rng = random.Random(17)
    g = GroundSet((1, 2))
    for _ in range(50):
        a = sample_element(SIGN, rng, nonzero=True)
        b = sample_element(SIGN, rng, nonzero=True)
        x = FVector(SIGN, g, {1: a, 2: b})
        w = FVector(SIGN, g, {1: a, 2: neg(b)})
        assert orthogonal(x, w)
