"""Duality, minors, and push-forwards along hyperfield homomorphisms.

Duality pins one sign convention: the dual value on a subset S is the
value on the complement of S, twisted by the involution and by the
parity of the shuffle putting (S, complement) into ground order.  The
minor constructions pin the greedy (ground-order) choice wherever a
maximal independent set or a basis completion is needed; independence of
the result from that choice, up to a global unit, is covered by the test
suite rather than re-verified on every call.  A GP minor reads them off
the support's bitsets (`gp._matroid_support`), on any ground set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Optional

from .circuits import CircuitSignature
from .errors import InputError, MismatchError
from .gp import GPFunction, _matroid_support, _perm_parity
from .hyperfields import (KRASNER, RATIONALS, SIGN, TROPICAL, HFElement,
                          Hyperfield, _is_prime, _padic_abs, eq, fold_sum,
                          invol, member_of_sum, mul, sample_element, signed)
from .vectors import FVector, GroundSet, is_covector_of, supp_min, support


# -- duality -------------------------------------------------------------


def dual_gp(phi: GPFunction) -> GPFunction:
    """The dual alternating function, of complementary rank.

    The value on a sorted (m - r)-subset S is the involution of the value
    on E - S, times the sign of the shuffle (S, E - S) relative to ground
    order.  Dualising twice returns (-1)**(r * (m - r)) times the
    original function, the same projective class.
    """
    m = len(phi.ground)
    s = m - phi.rank
    if s == 0:
        raise InputError("the dual would have rank 0 (full-rank function)")
    labels = phi.ground.labels
    pos = phi.ground.index
    values = {}
    for key in combinations(labels, s):
        comp = tuple(label for label in labels if label not in key)
        val = phi.value(comp)
        if val.is_zero:
            continue
        parity = _perm_parity([pos(x) for x in key + comp])
        values[key] = signed(invol(val), parity)
    return GPFunction(phi.hyperfield, phi.ground, s, values)


def minimal_covectors(sig: CircuitSignature) -> CircuitSignature:
    """Exhaustive dual signature: the minimal-support nonzero vectors of
    F^E orthogonal to every class, one representative per projective
    class.

    Enumerates all of F^E, so the hyperfield must be finite and the
    ground set small; this is an oracle for
    `gp.cocircuit_signature_from_circuits`, not a construction to use at
    scale.
    """
    hf = sig.hyperfield
    if not hf.is_finite:
        raise InputError(f"{hf} is not finite; cannot enumerate the vectors")
    pool = hf.elements()
    found = []
    for combo in product(pool, repeat=len(sig.ground)):
        v = FVector(hf, sig.ground, dict(zip(sig.ground.labels, combo)))
        if not v.is_zero and is_covector_of(v, sig.classes):
            found.append(v)
    return CircuitSignature(hf, sig.ground, supp_min(found), dedup=True)


# -- minors --------------------------------------------------------------


def _kept(ground: GroundSet, deleted: Iterable, contracted: Iterable) -> tuple:
    """(A, B, the labels outside both) for a minor deleting A and
    contracting B; raises on unknown, shared or all labels."""
    A, B = frozenset(deleted), frozenset(contracted)
    for label in A | B:
        ground.index(label)
    overlap = A & B
    if overlap:
        raise InputError(f"delete and contract sets overlap: {list(ground.sort(overlap))}")
    keep = tuple(label for label in ground if label not in A and label not in B)
    if not keep:
        raise InputError("minor removes the whole ground set")
    return A, B, keep


def minor_gp(phi: GPFunction, deleted: Iterable = (),
             contracted: Iterable = ()) -> GPFunction:
    """The alternating function of the minor: delete A, then contract B.

    The rank is that of E - A less that of B.  Values evaluate phi with
    T, the greedy (ground-order) maximal independent subset of B, then P,
    the greedy completion inside A of the greedy basis of E - A, as
    trailing arguments; other choices give the same function up to a
    unit.  A greedy walk keeps a label while the AND of the support's
    bitsets stays nonzero.  The signs of moving P and then T are applied
    in turn, as a deletion then a contraction would, so float payloads
    match bit for bit.  Raises on a support that is no matroid's, or a
    minor of rank 0.
    """
    A, B, keep = _kept(phi.ground, deleted, contracted)
    holders = _matroid_support(phi)
    labels, pos = phi.ground.labels, phi.ground.index

    def greedy(allowed: frozenset, running: int = -1) -> tuple:
        picked = ()
        for label, bits in zip(labels, holders):
            if label in allowed and running & bits:
                picked, running = picked + (label,), running & bits
        return picked, running

    base, running = greedy(frozenset(labels) - A)
    pinned, _ = greedy(A, running)
    tail, _ = greedy(B)
    rank = len(base) - len(tail)
    if rank == 0:
        raise InputError("the minor has rank 0 (only loops remain, or the "
                         "contracted set spans)")
    values = {}
    for key in combinations(keep, rank):
        value = phi.evaluate(phi.ground.sort(key + tail) + pinned)
        if not value.is_zero:
            values[key] = signed(value, _perm_parity([pos(x) for x in key + tail]))
    return GPFunction(phi.hyperfield, GroundSet(keep), rank, values)


def minor_circuits(sig: CircuitSignature, deleted: Iterable = (),
                   contracted: Iterable = ()) -> CircuitSignature:
    """Circuit signature of the minor: delete A, then contract B.

    Deletion keeps the classes whose support avoids A; contraction
    restricts every survivor away from B and keeps the nonzero ones of
    minimal support.
    """
    A, _, keep = _kept(sig.ground, deleted, contracted)
    ground = GroundSet(keep)
    survivors = [v.restrict(keep, ground) for v in sig.classes
                 if not (support(v) & A)]
    return CircuitSignature(sig.hyperfield, ground, supp_min(survivors),
                            dedup=True)


# -- hyperfield homomorphisms ---------------------------------------------


@dataclass(frozen=True)
class HyperfieldHom:
    """A map of hyperfields: 0 to 0, 1 to 1, multiplicative, and carrying
    hypersums into hypersums.  validate_hom checks those rules."""

    name: str
    source: Hyperfield
    target: Hyperfield
    rule: Callable[[HFElement], HFElement]

    def __call__(self, el: HFElement) -> HFElement:
        if el.hyperfield is not self.source:
            raise MismatchError(
                f"{self.name} expects elements of {self.source}, got {el.hyperfield}")
        return self.rule(el)

    def __repr__(self) -> str:
        return f"HyperfieldHom({self.name}: {self.source} -> {self.target})"


def identity_hom(hf: Hyperfield) -> HyperfieldHom:
    return HyperfieldHom("identity", hf, hf, lambda el: el)


def to_krasner(source: Hyperfield) -> HyperfieldHom:
    """x -> 0 if x = 0 else 1.  Defined for every hyperfield; on
    signatures and alternating functions it extracts the underlying
    matroid."""
    return HyperfieldHom(f"{source}-to-krasner", source, KRASNER,
                         lambda el: KRASNER.zero() if el.is_zero
                         else KRASNER.one())


def rational_sign() -> HyperfieldHom:
    """The sign of a rational number."""
    def rule(el: HFElement) -> HFElement:
        if el.is_zero:
            return SIGN.zero()
        return SIGN.element(1 if el.value > 0 else -1)

    return HyperfieldHom("sign", RATIONALS, SIGN, rule)


def rational_padic(p: int) -> HyperfieldHom:
    """The p-adic absolute value of a rational number, landing in the
    multiplicative presentation of the tropical hyperfield: x maps to
    p**(-k) where p**k exactly divides x."""
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")

    def rule(el: HFElement) -> HFElement:
        if el.is_zero:
            return TROPICAL.zero()
        return TROPICAL.element(_padic_abs(el.value, p))

    return HyperfieldHom(f"padic-{p}", RATIONALS, TROPICAL, rule)


def validate_hom(hom: HyperfieldHom, sample_budget: int = 200,
                 seed: int = 0) -> Optional[dict]:
    """First violation of the homomorphism rules, or None.

    Exhaustive over finite sources, sampled (seeded) otherwise.  The sum
    rule demands f(z) in f(x) + f(y) for every z in x + y; over infinite
    sources z runs over sampled members of the exact sum set.
    """
    src = hom.source
    if not hom(src.zero()).is_zero:
        return {"rule": "zero", "value": hom(src.zero())}
    if not eq(hom(src.one()), hom.target.one()):
        return {"rule": "one", "value": hom(src.one())}
    if src.is_finite:
        pairs = [(x, y) for x in src.elements() for y in src.elements()]
    else:
        rng = random.Random(seed)
        pairs = [(sample_element(src, rng), sample_element(src, rng))
                 for _ in range(sample_budget)]
    for x, y in pairs:
        if not eq(hom(mul(x, y)), mul(hom(x), hom(y))):
            return {"rule": "multiplicative", "x": x, "y": y}
        if src.is_finite:
            members = [z for z in src.elements() if member_of_sum(z, [x, y])]
        else:
            members = [HFElement(src, payload)
                       for payload in fold_sum([x, y]).sample()]
        for z in members:
            if not member_of_sum(hom(z), [hom(x), hom(y)]):
                return {"rule": "sum", "x": x, "y": y, "z": z}
    return None


# -- push-forwards ---------------------------------------------------------


def pushforward_circuits(hom: HyperfieldHom,
                         sig: CircuitSignature) -> CircuitSignature:
    """Apply the hom to every entry.  Supports are unchanged; classes that
    become projectively equal merge."""
    if sig.hyperfield is not hom.source:
        raise MismatchError(f"{hom.name} does not apply to {sig.hyperfield}")
    vectors = [FVector(hom.target, sig.ground,
                       {label: hom(el) for label, el in v.entries.items()})
               for v in sig.classes]
    return CircuitSignature(hom.target, sig.ground, vectors, dedup=True)


def pushforward_gp(hom: HyperfieldHom, phi: GPFunction) -> GPFunction:
    """Apply the hom to every value.  Homs carry units to units, so the
    support, hence the underlying matroid, is unchanged."""
    if phi.hyperfield is not hom.source:
        raise MismatchError(f"{hom.name} does not apply to {phi.hyperfield}")
    return GPFunction(hom.target, phi.ground, phi.rank,
                      {key: hom(val) for key, val in phi.values.items()})
