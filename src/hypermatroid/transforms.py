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

from itertools import combinations
from typing import Callable, Iterable

from .circuits import CircuitSignature
from .errors import InputError, MismatchError
from .gp import GPFunction, _crossings, _matroid_support
from .hyperfields import (KRASNER, RATIONALS, SIGN, TROPICAL, HFElement,
                          Hyperfield, _is_prime, _padic_abs)
from .vectors import GroundSet


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
    hf, full, table = phi.hyperfield, (1 << m) - 1, phi._table
    values = {}
    for key in combinations(range(m), s):
        mask = sum(1 << i for i in key)
        value = table.get(full ^ mask)
        if value is not None:
            value = hf.conjugate(value)
            values[mask] = hf.negative(value) if _crossings(mask, full ^ mask) else value
    return GPFunction._from_table(hf, phi.ground, s, values)


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
        picked = 0
        for i, (label, bits) in enumerate(zip(labels, holders)):
            if label in allowed and running & bits:
                picked, running = picked | 1 << i, running & bits
        return picked, running

    base, running = greedy(frozenset(labels) - A)
    pinned, _ = greedy(A, running)
    tail, _ = greedy(B)
    rank = base.bit_count() - tail.bit_count()
    if rank == 0:
        raise InputError("the minor has rank 0 (only loops remain, or the "
                         "contracted set spans)")
    hf, table, kept = phi.hyperfield, phi._table, [pos(label) for label in keep]
    values = {}
    for key in combinations(range(len(keep)), rank):
        mask = sum(1 << kept[i] for i in key)
        value = table.get(mask | tail | pinned)
        if value is not None:
            for parity in (_crossings(mask | tail, pinned), _crossings(mask, tail)):
                value = hf.negative(value) if parity else value
            values[sum(1 << i for i in key)] = value
    return GPFunction._from_table(hf, GroundSet(keep), rank, values)


def minor_circuits(sig: CircuitSignature, deleted: Iterable = (),
                   contracted: Iterable = ()) -> CircuitSignature:
    """Circuit signature of the minor: delete A, then contract B.

    Deletion keeps the classes whose support avoids A; contraction
    restricts every survivor away from B and keeps the nonzero ones of
    minimal support.
    """
    A, _, keep = _kept(sig.ground, deleted, contracted)
    at = {sig.ground.index(label): i for i, label in enumerate(keep)}
    avoid = sum(1 << sig.ground.index(label) for label in A)
    survivors = [{at[i]: a for i, a in table.items() if i in at}
                 for mask, table in zip(sig._masks, sig._payloads) if not mask & avoid]
    masks = [sum(1 << i for i in table) for table in survivors]
    return CircuitSignature._from_tables(sig.hyperfield, GroundSet(keep), [
        table for table, mask in zip(survivors, masks)
        if mask and not any(other and other != mask and other | mask == mask
                            for other in masks)])


# -- hyperfield homomorphisms ---------------------------------------------


class HyperfieldHom:
    """A map of hyperfields: 0 to 0, 1 to 1, multiplicative, and carrying
    hypersums into hypersums.  `rule` maps the payload of a unit of the
    source to that of its image, a unit; called on an element, the hom
    also maps 0 to 0.  The tests check the rules (`tests/oracles.py`,
    `validate_hom`).  Treat as immutable: equal and hashed by name,
    source, target and rule."""

    __slots__ = ("name", "source", "target", "rule")

    def __init__(self, name: str, source: Hyperfield, target: Hyperfield,
                 rule: Callable[[object], object]):
        self.name = name
        self.source = source
        self.target = target
        self.rule = rule

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.source, self.target, self.rule) == \
            (other.name, other.source, other.target, other.rule)

    def __hash__(self) -> int:
        return hash((self.name, self.source, self.target, self.rule))

    def __call__(self, el: HFElement) -> HFElement:
        if el.hyperfield is not self.source:
            raise MismatchError(
                f"{self.name} expects elements of {self.source}, got {el.hyperfield}")
        if el.is_zero:
            return self.target.zero()
        return HFElement(self.target, self.rule(el.value))

    def __repr__(self) -> str:
        return f"HyperfieldHom({self.name}: {self.source} -> {self.target})"


def to_krasner(source: Hyperfield) -> HyperfieldHom:
    """x -> 0 if x = 0 else 1.  Defined for every hyperfield; on
    signatures and alternating functions it extracts the underlying
    matroid."""
    return HyperfieldHom(f"{source}-to-krasner", source, KRASNER, lambda a: 1)


def rational_sign() -> HyperfieldHom:
    """The sign of a rational number, read off its numerator."""
    return HyperfieldHom("sign", RATIONALS, SIGN, lambda a: 1 if a.numerator > 0 else -1)


def rational_padic(p: int) -> HyperfieldHom:
    """The p-adic absolute value of a rational number, landing in the
    multiplicative presentation of the tropical hyperfield: x maps to
    p**(-k) where p**k exactly divides x.  The hom keeps each p**(-k) it
    builds, so a push-forward builds one per order it meets."""
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")
    powers: dict = {}
    return HyperfieldHom(f"padic-{p}", RATIONALS, TROPICAL,
                         lambda a: _padic_abs(a, p, powers))


# -- push-forwards ---------------------------------------------------------


def pushforward_circuits(hom: HyperfieldHom,
                         sig: CircuitSignature) -> CircuitSignature:
    """Apply the hom to every entry.  Supports are unchanged; classes that
    become projectively equal merge."""
    if sig.hyperfield is not hom.source:
        raise MismatchError(f"{hom.name} does not apply to {sig.hyperfield}")
    rule = hom.rule
    return CircuitSignature._from_tables(hom.target, sig.ground, [
        {i: rule(a) for i, a in table.items()} for table in sig._payloads])


def pushforward_gp(hom: HyperfieldHom, phi: GPFunction) -> GPFunction:
    """Apply the hom to every value.  Homs carry units to units, so the
    support, hence the underlying matroid, is unchanged."""
    if phi.hyperfield is not hom.source:
        raise MismatchError(f"{hom.name} does not apply to {phi.hyperfield}")
    rule = hom.rule
    return GPFunction._from_table(hom.target, phi.ground, phi.rank,
                                  {m: rule(a) for m, a in phi._table.items()})
