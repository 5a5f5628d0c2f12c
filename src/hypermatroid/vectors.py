"""Vectors with hyperfield entries over a fixed, ordered ground set."""

from __future__ import annotations

from typing import Dict, Iterable

from .errors import MismatchError
from .hyperfields import HFElement, Hyperfield, mul


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

    def __repr__(self) -> str:
        inner = ", ".join(f"{label}:{el.value}" for label, el in
                          sorted(self.entries.items(), key=lambda kv: self.ground.index(kv[0])))
        return f"FVector({inner})"


def support(x: FVector) -> frozenset:
    return frozenset(x.entries)


def scalar_mul(alpha: HFElement, x: FVector) -> FVector:
    if alpha.hyperfield is not x.hyperfield:
        raise MismatchError("scalar from a different hyperfield")
    if alpha.is_zero:
        return FVector(x.hyperfield, x.ground, {})
    return FVector(x.hyperfield, x.ground,
                   {label: mul(alpha, el) for label, el in x.entries.items()})


def orthogonal(x: FVector, y: FVector) -> bool:
    """Whether 0 lies in the hypersum of x(e) * invol(y(e)) over common
    support: the element-level API, and the oracle of `nonorthogonal_pair`."""
    if x.hyperfield is not y.hyperfield or x.ground != y.ground:
        raise MismatchError("vectors over different hyperfields or ground sets")
    hf, common = x.hyperfield, set(x.entries) & set(y.entries)
    return not common or hf.zero_in([
        hf.product(x.entries[label].value, hf.conjugate(y.entries[label].value))
        for label in x.ground.sort(common)])


def projectively_equal(x: FVector, y: FVector) -> bool:
    """Whether x = alpha * y for some nonzero alpha: proportional tables
    (`_proportional`), as a signature compares its classes."""
    if x.hyperfield is not y.hyperfield or x.ground != y.ground:
        raise MismatchError("vectors over different hyperfields or ground sets")
    return set(x.entries) == set(y.entries) and _proportional(
        x.hyperfield, _table(x), _table(y))


def _table(x: FVector) -> dict:
    """{ground position: payload} of the entries, in ground order."""
    pos = x.ground.index
    return {pos(label): x.entries[label].value for label in x.ground.sort(x.entries)}


def _proportional(hf: Hyperfield, x: dict, y: dict) -> bool:
    """Whether the tables x and y, over one support in ground order,
    differ by a unit: alpha = x/y at the least position, then x = alpha y
    by the family's `equal` at every position."""
    if not x:
        return True
    product, equal = hf.product, hf.equal
    anchor = next(iter(x))
    alpha = product(x[anchor], hf.inverse(y[anchor]))
    return all(equal(a, product(alpha, y[i])) for i, a in x.items())

