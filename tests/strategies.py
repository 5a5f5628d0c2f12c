"""Hypothesis strategies shared by the property tests, and the function
builders behind them.  `every_overlap_pair` runs the package's
circuit/cocircuit pair loop over every overlap, where `nonorthogonal_pair`
stops at 3."""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations

from hypothesis import strategies as st

from hypermatroid import (KRASNER, PHASE, PHASE_PLAIN, RATIONALS, SIGN,
                          TRIANGLE, TROPICAL, CircuitSignature, FVector,
                          GPFunction, GroundSet, circuits_from_gp, eq, gf, mul,
                          random_weak_gp, sample_element)
from hypermatroid.corpus import gp_from_matrix, weak_only_function
from hypermatroid.gp import _first_nonorthogonal, _pack
from hypermatroid.hyperfields import Phase

import oracles

ALL_KINDS = [KRASNER, SIGN, TROPICAL, TRIANGLE, PHASE, PHASE_PLAIN, RATIONALS,
             gf(3)]

# the hyperfields over which weak and strong coincide
DOUBLY_DISTRIBUTIVE = [KRASNER, SIGN, TROPICAL, RATIONALS, gf(3), gf(5)]

# the hyperfields with weak functions that are not strong
NOT_DOUBLY_DISTRIBUTIVE = [TRIANGLE, PHASE, PHASE_PLAIN]


def units(hf):
    """Units of hf: triangle moduli in [1e-3, 1e3], since the triangle
    hypersums of the elimination scans (`IntervalSet`) still use an
    absolute float tolerance, any phase angle, and the sampler's units
    elsewhere."""
    if hf is TRIANGLE:
        return st.floats(1e-3, 1e3).map(hf.element)
    if isinstance(hf, Phase):
        return st.floats(0.01, 6.28).map(hf.element)
    return st.integers(0, 2 ** 32).map(
        lambda seed: sample_element(hf, random.Random(seed), nonzero=True))


def every_overlap_pair(C, D):
    """(overlap, X, Y) for the first X in C and Y in D, in C x D order, that
    meet in at most 3 elements and are not orthogonal; failing that, for
    the first non-orthogonal pair of least overlap; else None."""
    hf, size = C.hyperfield, len(C.ground)
    pair = _first_nonorthogonal(_pack(enumerate(C._payloads), hf),
                                _pack(enumerate(D._payloads), hf, size),
                                hf, range(1, size + 1))
    return None if pair is None else (pair[0], C.classes[pair[1]], D.classes[pair[2]])


def random_weak_signature(hf, rng, max_rank=3, max_ground=6):
    """Circuits of a random weak-valid alternating function."""
    return circuits_from_gp(random_weak_gp(hf, rng, max_rank, max_ground))


def scale(phi, alpha):
    """phi times the unit alpha."""
    return GPFunction(phi.hyperfield, phi.ground, phi.rank,
                      {key: mul(alpha, value) for key, value in phi.values.items()})


def reordered(phi, labels):
    """phi over the ground order `labels`, each value re-signed by the
    parity of its reordering."""
    ground = GroundSet(labels)
    return GPFunction(phi.hyperfield, ground, phi.rank, {
        ground.sort(key): phi.evaluate(ground.sort(key)) for key in phi.values})


def perturbed(sig, rng):
    """sig with one entry of one class replaced by a random unit that
    differs from it where the hyperfield has one (Krasner has not)."""
    hf = sig.hyperfield
    i = rng.randrange(len(sig.classes))
    x = sig.classes[i]
    label = rng.choice(sig.ground.sort(x.entries))
    for _ in range(20):
        value = sample_element(hf, rng, nonzero=True)
        if not eq(value, x.entries[label]):
            break
    classes = list(sig.classes)
    classes[i] = FVector(hf, sig.ground, {**x.entries, label: value})
    return CircuitSignature(hf, sig.ground, classes)


def parallel_extension(phi, label, new, unit):
    """phi with a last label `new` parallel to `label`: on an r-set
    holding `new` and not `label`, unit times phi on the same tuple with
    `label` in its place, and zero on one holding both.  For a
    realizable function this appends the column of `label` times unit."""
    values = dict(phi.values)
    for key in combinations(phi.ground.labels, phi.rank - 1):
        value = phi.evaluate(key + (label,))
        if not value.is_zero:
            values[key + (new,)] = mul(unit, value)
    return GPFunction(phi.hyperfield, GroundSet(phi.ground.labels + (new,)),
                      phi.rank, values)


def direct_sum(phi, psi):
    """The function of rank r + s on the labels of phi followed by those
    of psi (disjoint), phi(B1) psi(B2) on B1 + B2."""
    return GPFunction(phi.hyperfield,
                      GroundSet(phi.ground.labels + psi.ground.labels),
                      phi.rank + psi.rank,
                      {k1 + k2: mul(v1, v2) for k1, v1 in phi.values.items()
                       for k2, v2 in psi.values.items()})


def phase_minors(columns, angles):
    """The phase function on labels 1..m of the complex matrix whose
    column k is the integer column columns[k] times e^(i angles[k]): the
    phase of each nonzero minor.  Realizable over C, so strong."""
    rational = gp_from_matrix(RATIONALS, tuple(range(1, len(columns) + 1)),
                              [tuple(map(Fraction, col)) for col in columns])
    return GPFunction(PHASE, rational.ground, rational.rank, {
        key: reduce(mul, (PHASE.element(angles[x - 1]) for x in key),
                    PHASE.from_rational(value.value))
        for key, value in rational.values.items()})


def random_unit(hf, rng):
    """A triangle modulus in [1e-3, 1e3] or a phase angle, as in `units`."""
    if hf is TRIANGLE:
        return hf.element(10 ** rng.uniform(-3.0, 3.0))
    return hf.element(rng.uniform(0.01, 6.28))


# the bounds of `weak_candidate`, which keep the exhaustive relation walk
# of the oracle near 3,000 (I, J) pairs
MAX_RANK, MAX_GROUND = 4, 8


def weak_candidate(rng):
    """A function over triangle, phase or phase[identity], mostly
    non-uniform and often weak-only: the family's weak-only corpus entry
    (three times in four) or a `random_weak_gp` function, with a label
    parallel to an old one, times a unit, or a direct sum with a
    `random_weak_gp` function of rank at most 2 on fresh labels, within
    MAX_RANK and MAX_GROUND, or both, then times a unit over a permuted
    ground."""
    hf = rng.choice(NOT_DOUBLY_DISTRIBUTIVE)
    if rng.random() < 0.75:
        phi = weak_only_function(hf)
    else:
        phi = random_weak_gp(hf, rng, max_rank=3, max_ground=6)
    step = rng.choice(["parallel", "sum", "both"])
    if step != "sum":
        phi = parallel_extension(phi, rng.choice(phi.ground.labels), "p",
                                 random_unit(hf, rng))
    room = MAX_GROUND - len(phi.ground)
    if step != "parallel" and room >= 2 and phi.rank < MAX_RANK:
        psi = random_weak_gp(hf, rng, max_rank=min(2, MAX_RANK - phi.rank),
                             max_ground=room)
        phi = direct_sum(phi, GPFunction(
            hf, GroundSet(tuple(f"s{x}" for x in psi.ground.labels)), psi.rank,
            {tuple(f"s{x}" for x in key): value
             for key, value in psi.values.items()}))
    labels = list(phi.ground.labels)
    rng.shuffle(labels)
    return reordered(scale(phi, random_unit(hf, rng)), tuple(labels))


def weak_functions():
    """`weak_candidate`s the direct scans confirm weak."""
    return (st.integers(0, 2 ** 32)
            .map(lambda seed: weak_candidate(random.Random(seed)))
            .filter(lambda phi: oracles.gp_witness(phi, True) is None))
