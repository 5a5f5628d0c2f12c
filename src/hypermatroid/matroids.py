"""Classical matroids presented by their circuit sets.

Frozensets of labels at the boundary, int masks inside: every public
function and method but the constructor, which takes circuit masks,
takes and returns labels and frozensets of labels, while a matroid works
on masks whose bit i stands for the label at ground position i.  A matroid keeps a dependence table, one byte per subset of
the ground set, set exactly when the subset contains a circuit, so
independence is one lookup, rank, bases and fundamental circuits are short
loops of lookups, and the circuit axioms are decided on the table.  The
table has 2^|E| entries, so ground sets are capped
(`MAX_GROUND_SIZE`).

A circuit family is validated once, when it enters the class: circuits a
user supplies, the supports of a circuit signature, or the circuits
`from_bases` derives from a basis family.  GP functions build no
matroid: per-element bitsets over their bases (`gp._support`) answer
their support questions, on ground sets of any size.  What is derived
from a matroid afterwards -- its bases, its dual and fundamental
circuits -- is not checked again, since the dual of a matroid is a
matroid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, Iterable, List, Optional

from .errors import InputError
from .vectors import GroundSet

# Exhaustive matroid enumeration is capped to keep accidental blow-ups out.
MAX_GROUND_SIZE = 16

# bytes.translate table that swaps the entries 0 and 1 of a table
_FLIP = bytes([1, 0]) + bytes(254)


def _require_cap(ground: GroundSet) -> None:
    if len(ground) > MAX_GROUND_SIZE:
        raise InputError(f"ground set larger than the cap ({MAX_GROUND_SIZE})")


def _mask(ground: GroundSet, labels: Iterable) -> int:
    mask = 0
    for label in labels:
        mask |= 1 << ground.index(label)
    return mask


def _labels(ground: GroundSet, mask: int) -> tuple:
    """The labels of a mask, in ground order."""
    return tuple(label for i, label in enumerate(ground.labels) if mask >> i & 1)


def _bit_pattern(n: int, i: int, bit_set: bool) -> int:
    """The table (as an int, byte S for subset S) that is 1 on the subsets
    of an n-element ground set whose bit i is set, or clear."""
    step = 1 << i
    off, on = bytes(step), b"\x01" * step
    block = off + on if bit_set else on + off
    return int.from_bytes(block * ((1 << n) // (2 * step)), "little")


def _closure(n: int, masks: Iterable[int], upward: bool) -> bytes:
    """One byte per subset of an n-element ground set: 1 when the subset
    contains one of `masks` (upward) or lies inside one (downward).

    One sweep over the n bits, each step applied to all 2^n entries at
    once through big-int arithmetic on the table's bytes."""
    size = 1 << n
    seeds = bytearray(size)
    for mask in masks:
        seeds[mask] = 1
    table = int.from_bytes(seeds, "little")
    for i in range(n):
        shift = 8 << i
        if upward:
            table |= (table & _bit_pattern(n, i, False)) << shift
        else:
            table |= (table & _bit_pattern(n, i, True)) >> shift
    return table.to_bytes(size, "little")


def _minimal_sets(n: int, dep: bytes) -> List[int]:
    """The minimal members of an upward-closed table, in mask order."""
    table = int.from_bytes(dep, "little")
    # 1 on the sets that stay marked after removing some element
    shrinkable = 0
    for i in range(n):
        shrinkable |= (table & _bit_pattern(n, i, False)) << (8 << i)
    minimal = (table & ~shrinkable).to_bytes(len(dep), "little")
    return [mask for mask, flag in enumerate(minimal) if flag]


@dataclass
class CircuitViolation:
    rule: str
    detail: dict
    ground: GroundSet

    def as_json(self) -> dict:
        """The rule and detail, each set listed in ground order."""
        return {"rule": self.rule, **{k: list(self.ground.sort(v))
                                      if isinstance(v, frozenset) else v
                                      for k, v in self.detail.items()}}


def _spans_a_matroid(n: int, dep: bytes) -> bool:
    """Whether the sets a dependence table marks 0 are the independent sets
    of a matroid.

    They are exactly when their greedy (ground-order) rank g is a matroid
    rank function, which holds when g(X) <= g(X + x) <= g(X) + 1 and
    g(X + x) + g(X + y) >= g(X + x + y) + g(X) for every X and x, y outside
    it (Oxley, Matroid Theory, Lemma 1.3.3); the independent sets of that
    matroid are the sets g does not shrink.  Each inequality is checked
    on all subsets at once, one byte per subset, with 0x80 added to every
    byte so the differences stay within it."""
    size = 1 << n
    greedy = [0] * size
    for s in range(1, size):
        top = 1 << (s.bit_length() - 1)
        picked = greedy[s ^ top]
        greedy[s] = picked if dep[picked | top] else picked | top
    g = int.from_bytes(bytes(p.bit_count() for p in greedy), "little")
    # 0x01 on the subsets without bit i; times 0xFF it selects whole bytes
    clear = [_bit_pattern(n, i, False) for i in range(n)]
    for x in range(n):
        sx = 8 << x
        keep = 0xFF * clear[x]
        gap = ((g >> sx) & keep) + 0x80 * clear[x] - (g & keep)
        if gap & (0xFE * clear[x]) != 0x80 * clear[x]:
            return False
        for y in range(x + 1, n):
            sy = 8 << y
            both = clear[x] & clear[y]
            keep = 0xFF * both
            lhs = ((g >> sx) & keep) + ((g >> sy) & keep) + 0x80 * both
            rhs = ((g >> (sx + sy)) & keep) + (g & keep)
            if (lhs - rhs) & (0x80 * both) != 0x80 * both:
                return False
    return True


def validate_circuits(ground: GroundSet, circuits: Iterable[frozenset]) -> Optional[CircuitViolation]:
    """Check the circuit axioms for a finite matroid.

    Empty circuits and nested circuits are rejected, then elimination is
    verified on every pair sharing an element (a stronger pass than the
    modular pairs alone, which is what makes the construction sound).
    The first violation is reported in the order of `circuits`: pairs as
    `itertools.combinations` lists them, elements of a pair's
    intersection in ground order.  Both rules are decided on the
    dependence table (nesting by lookups, elimination by the rank test of
    `_spans_a_matroid`); the pairwise scan that names the first violation
    runs only when there is one.  Ground sets above the cap raise
    InputError.
    """
    _require_cap(ground)
    circuits = [frozenset(c) for c in circuits]
    for label in frozenset().union(*circuits):
        if label not in ground:
            raise InputError(f"circuit label {label!r} not in ground set")
    return _violation(ground, [_mask(ground, c) for c in circuits])[0]


def _violation(ground: GroundSet, masks: list) -> tuple:
    """(`validate_circuits` on circuit masks, their dependence table)."""
    if 0 in masks:
        return CircuitViolation("nonempty", {"circuit": frozenset()}, ground), None
    n = len(ground)
    dep = _closure(n, masks, upward=True)
    nested = len(set(masks)) < len(masks) or any(
        dep[m ^ (1 << i)] for m in masks for i in range(n) if m >> i & 1)
    # an antichain of nonempty sets fails elimination exactly when the
    # sets containing none of its members are not a matroid's
    if not nested and _spans_a_matroid(n, dep):
        return None, dep
    pairs = list(combinations([(frozenset(_labels(ground, m)), m) for m in masks], 2))
    for (c1, m1), (c2, m2) in pairs:
        if nested and (m1 & m2) in (m1, m2):
            return CircuitViolation("incomparable", {"first": c1, "second": c2}, ground), dep
    for (c1, m1), (c2, m2) in pairs:
        for e in _labels(ground, m1 & m2):
            if not dep[(m1 | m2) & ~(1 << ground.index(e))]:
                return CircuitViolation("elimination",
                                        {"first": c1, "second": c2, "element": e}, ground), dep
    return None, dep


class ClassicalMatroid:
    """The matroid whose circuits are the distinct `masks`, validated as
    `validate_circuits` validates circuits, on one dependence table.  The
    circuits as label sets (`circuits`) are built on first use."""

    def __init__(self, ground: GroundSet, masks: Iterable[int]):
        _require_cap(ground)
        masks = list(dict.fromkeys(masks))
        violation, dep = _violation(ground, masks)
        if violation is not None:
            raise InputError(f"not a matroid: {violation.as_json()}")
        self._setup(ground, masks, dep)

    def _setup(self, ground: GroundSet, masks: List[int], dep: bytes) -> None:
        self.ground = ground
        self._masks = masks
        self._circuits: Optional[FrozenSet[frozenset]] = None
        self._dep = dep
        self._rank_cache: dict = {}
        self._basis_masks: Optional[frozenset] = None
        self._bases: Optional[frozenset] = None
        self._dual: Optional[ClassicalMatroid] = None

    @property
    def circuits(self) -> FrozenSet[frozenset]:
        if self._circuits is None:
            self._circuits = frozenset(frozenset(_labels(self.ground, m))
                                       for m in self._masks)
        return self._circuits

    @classmethod
    def _from_basis_masks(cls, ground: GroundSet, basis_masks: frozenset) -> "ClassicalMatroid":
        """The subsets of the given bases as independent sets and the
        minimal other sets as circuits, unchecked: a matroid only when the
        masks are the bases of one."""
        n = len(ground)
        dep = _closure(n, basis_masks, upward=False).translate(_FLIP)
        m = cls.__new__(cls)
        m._setup(ground, _minimal_sets(n, dep), dep)
        m._basis_masks = basis_masks
        return m

    @classmethod
    def from_bases(cls, ground: GroundSet, bases: Iterable[frozenset]) -> "ClassicalMatroid":
        """The matroid with the given bases.

        The minimal sets outside every given basis are validated as
        circuits, and the bases of the result must be the given family:
        neither check alone rejects every non-matroid ({12, 34} passes
        the second)."""
        bases = [frozenset(b) for b in bases]
        if not bases:
            raise InputError("no bases given")
        sizes = {len(b) for b in bases}
        if len(sizes) != 1:
            raise InputError("bases of unequal size")
        _require_cap(ground)
        masks = frozenset(_mask(ground, b) for b in bases)
        m = cls(ground, cls._from_basis_masks(ground, masks)._masks)
        if m._basis_mask_set() != masks:
            raise InputError("the given family is not the basis set of a matroid")
        return m

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClassicalMatroid)
                and self.ground == other.ground and self.circuits == other.circuits)

    def __repr__(self) -> str:
        return f"ClassicalMatroid(|E|={len(self.ground)}, circuits={len(self.circuits)})"

    # -- rank machinery ---------------------------------------------------

    def _greedy(self, mask: int, picked: int = 0) -> int:
        """`picked` extended by the labels of `mask`, in ground order, that
        keep it independent."""
        dep = self._dep
        while mask:
            low = mask & -mask
            mask ^= low
            if not dep[picked | low]:
                picked |= low
        return picked

    def rank(self, subset: Optional[Iterable] = None) -> int:
        s = frozenset(subset) if subset is not None else frozenset(self.ground.labels)
        if s not in self._rank_cache:
            self._rank_cache[s] = self._greedy(_mask(self.ground, s)).bit_count()
        return self._rank_cache[s]

    def nullity(self, subset: Iterable) -> int:
        s = frozenset(subset)
        return len(s) - self.rank(s)

    def _basis_mask_set(self) -> frozenset:
        if self._basis_masks is None:
            r = self.rank()
            self._basis_masks = frozenset(
                mask for mask, flag in enumerate(self._dep) if not flag and mask.bit_count() == r)
        return self._basis_masks

    def bases(self) -> frozenset:
        if self._bases is None:
            self._bases = frozenset(frozenset(_labels(self.ground, b))
                                    for b in self._basis_mask_set())
        return self._bases

    # -- duality and fundamental circuits ----------------------------------

    def dual(self) -> "ClassicalMatroid":
        """The dual matroid, built once from the complements of the bases."""
        if self._dual is None:
            full = (1 << len(self.ground)) - 1
            dual = ClassicalMatroid._from_basis_masks(
                self.ground, frozenset(full ^ b for b in self._basis_mask_set()))
            dual._dual = self
            self._dual = dual
        return self._dual

    def fundamental_circuit(self, basis: Iterable, e) -> frozenset:
        """The unique circuit inside basis + {e}, for e outside the basis:
        e together with every f in the basis for which basis - f + e is a
        basis."""
        b = _mask(self.ground, basis)
        if b not in self._basis_mask_set():
            raise InputError("not a basis")
        bit = 1 << self.ground.index(e)
        if b & bit:
            raise InputError("element already in the basis")
        return frozenset(_labels(self.ground, self._fundamental_mask(b, bit)))

    def _fundamental_mask(self, b: int, bit: int) -> int:
        """`fundamental_circuit` on masks: basis mask b, one bit outside it."""
        bases = self._basis_mask_set()
        circuit, rest = bit, b
        while rest:
            f = rest & -rest
            rest ^= f
            if (b ^ f) | bit in bases:
                circuit |= f
        return circuit


# -- modularity -------------------------------------------------------------


def modular_family(m: ClassicalMatroid, supports: Iterable[frozenset]) -> bool:
    """Whether distinct circuits form a modular family: the nullity of their
    union equals the family size (the union's height in the lattice of
    circuit unions).  On two circuits this is a modular pair:
    rank(C1 | C2) = |C1 | C2| - 2."""
    supports = [frozenset(s) for s in supports]
    if len(set(supports)) != len(supports):
        return False
    for s in supports:
        if s not in m.circuits:
            raise InputError("modular_family needs circuits of the matroid")
    union = frozenset().union(*supports)
    return m.nullity(union) == len(supports)

