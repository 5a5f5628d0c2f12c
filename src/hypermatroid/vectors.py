"""Vectors with hyperfield entries over a fixed, ordered ground set."""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from .errors import MismatchError
from .hyperfields import HFElement, Hyperfield, eq, inv, invol, mul, zero_in_sum


class GroundSet:
    """An ordered set of labels.  The listed order fixes all sign and
    enumeration conventions downstream."""

    def __init__(self, labels: Iterable):
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate ground set labels")
        self._index = {label: i for i, label in enumerate(self.labels)}

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label) -> bool:
        return label in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet{self.labels!r}"

    def index(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise MismatchError(f"label {label!r} not in ground set") from None

    def sort(self, labels: Iterable) -> tuple:
        """Labels ordered by their ground-set position."""
        return tuple(sorted(labels, key=self.index))


class FVector:
    """A vector in F^E, stored sparsely (only nonzero entries)."""

    def __init__(self, hyperfield: Hyperfield, ground: GroundSet,
                 entries: Dict[object, HFElement]):
        self.hyperfield = hyperfield
        self.ground = ground
        clean = {}
        for label, el in entries.items():
            if label not in ground:
                raise MismatchError(f"label {label!r} not in ground set")
            if not isinstance(el, HFElement):
                el = hyperfield.element(el)
            if el.hyperfield is not hyperfield:
                raise MismatchError("entry from a different hyperfield")
            if not el.is_zero:
                clean[label] = el
        self.entries = clean

    def entry(self, label) -> HFElement:
        self.ground.index(label)
        return self.entries.get(label, self.hyperfield.zero())

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self) -> str:
        inner = ", ".join(f"{label}:{el.value}" for label, el in
                          sorted(self.entries.items(), key=lambda kv: self.ground.index(kv[0])))
        return f"FVector({inner})"

    def restrict(self, keep: Iterable, ground: Optional[GroundSet] = None) -> "FVector":
        keep = set(keep)
        new_ground = ground if ground is not None else GroundSet(
            label for label in self.ground if label in keep)
        return FVector(self.hyperfield, new_ground,
                       {label: el for label, el in self.entries.items() if label in keep})


def support(x: FVector) -> frozenset:
    return frozenset(x.entries)


def scalar_mul(alpha: HFElement, x: FVector) -> FVector:
    if alpha.hyperfield is not x.hyperfield:
        raise MismatchError("scalar from a different hyperfield")
    if alpha.is_zero:
        return FVector(x.hyperfield, x.ground, {})
    return FVector(x.hyperfield, x.ground,
                   {label: mul(alpha, el) for label, el in x.entries.items()})


def _require_compatible(x: FVector, y: FVector):
    if x.hyperfield is not y.hyperfield:
        raise MismatchError("vectors over different hyperfields")
    if x.ground != y.ground:
        raise MismatchError("vectors over different ground sets")


def vectors_equal(x: FVector, y: FVector) -> bool:
    _require_compatible(x, y)
    if set(x.entries) != set(y.entries):
        return False
    return all(eq(el, y.entries[label]) for label, el in x.entries.items())


def orthogonal(x: FVector, y: FVector) -> bool:
    """Whether 0 lies in the hypersum of x(e) * invol(y(e)) over common
    support: the element-level API, and the oracle of `nonorthogonal_pair`."""
    _require_compatible(x, y)
    common = set(x.entries) & set(y.entries)
    if not common:
        return True
    terms = [mul(x.entries[label], invol(y.entries[label]))
             for label in x.ground.sort(common)]
    return zero_in_sum(terms)


def projectively_equal(x: FVector, y: FVector) -> bool:
    """Whether x = alpha * y for some nonzero alpha."""
    _require_compatible(x, y)
    if set(x.entries) != set(y.entries):
        return False
    if not x.entries:
        return True
    anchor = next(iter(x.ground.sort(x.entries)))
    alpha = mul(x.entries[anchor], inv(y.entries[anchor]))
    return vectors_equal(x, scalar_mul(alpha, y))


def supp_min(vectors: Iterable[FVector]) -> list:
    """The members whose support is minimal among the nonzero supports."""
    items = [(v, support(v)) for v in vectors if not v.is_zero]
    out = []
    for v, s in items:
        if not any(other < s for _, other in items):
            out.append(v)
    return out


def is_vector_of(v: FVector, cocircuits: Iterable[FVector]) -> bool:
    """Whether v is orthogonal to every given cocircuit (element level)."""
    return all(orthogonal(v, w) for w in cocircuits)


def is_covector_of(v: FVector, circuits: Iterable[FVector]) -> bool:
    """Whether v is orthogonal to every given circuit (element level)."""
    return all(orthogonal(x, v) for x in circuits)
