"""Exact representations of iterated hypersums, and the angle geometry
they share with the phase hyperfield.

Each hyperfield family keeps its hypersums in one of four classes (the
family's `sums` attribute):

  FiniteSet     Krasner, sign and the fields: a finite set of payloads
  TropicalSet   tropical: a point {a} or a down-set {c : c <= a}
  IntervalSet   triangle: a finite union of disjoint closed intervals
  ArcSet        phase: a zero flag, isolated unit points, and open
                counterclockwise arcs (start, length)

The public methods of `SumSet` check that their operands share one
hyperfield and hand the payloads to the representation.  `fold` is the
ground-truth n-ary hypersum, kept closed inside these representations: a
left fold of the binary rule, except that for phase the zero flag of a
sum of three or more terms is decided globally from the term directions
(see `fold`).  At run time the sets serve only the elimination
witnesses (`circuits.eliminating_circuits`: `fold`, `closure`, `scale`,
`intersect`, `has_nonzero`).  The tests read the rest (`contains`,
`equals`, `mul`, `sample`): the fold is the ground truth that the
families' closed form for "0 in x1 + ... + xk" (`zero_in`) and their
`doubly_distributive` flags are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import MismatchError

if TYPE_CHECKING:
    from .hyperfields import HFElement, Hyperfield

EPS = 1e-9
"""Absolute tolerance of the float-backed families, triangle and phase."""

TAU = 2.0 * math.pi


def norm_angle(theta: float) -> float:
    """Reduce an angle to [0, 2pi), snapping values near 2pi to 0."""
    theta = math.fmod(theta, TAU)
    if theta < 0:
        theta += TAU
    if TAU - theta <= EPS:
        return 0.0
    return theta


def angle_close(x: float, y: float) -> bool:
    d = abs(x - y)
    if d > math.pi:
        d = TAU - d
    return d <= EPS


def _ccw(start: float, theta: float) -> float:
    """Counterclockwise distance from start to theta, in [0, 2pi)."""
    d = math.fmod(theta - start, TAU)
    if d < 0:
        d += TAU
    return d


@dataclass(frozen=True)
class SumSet:
    """An exact hypersum value.  `data` is shaped by the subclass."""

    hyperfield: Hyperfield
    data: object

    def _same(self, hf: Hyperfield, what: str) -> None:
        if hf is not self.hyperfield:
            raise MismatchError(what)

    def contains(self, el: HFElement) -> bool:
        self._same(el.hyperfield, "element from a different hyperfield")
        return self._contains(el.value)

    def add_term(self, el: HFElement) -> "SumSet":
        """Pointwise hypersum of this set with a single element."""
        self._same(el.hyperfield, "element from a different hyperfield")
        return self if el.is_zero else self._add(el.value)

    def scale(self, el: HFElement) -> "SumSet":
        """Multiply every member by a fixed nonzero element."""
        self._same(el.hyperfield, "element from a different hyperfield")
        if el.is_zero:
            raise ValueError("scaling a hypersum by zero")
        return self._scale(el)

    def mul(self, other: "SumSet") -> "SumSet":
        """Pointwise product of two hypersum sets."""
        self._same(other.hyperfield, "sets over different hyperfields")
        return self._mul(other)

    def intersect(self, other: "SumSet") -> Optional["SumSet"]:
        """Intersection, or None when empty."""
        self._same(other.hyperfield, "sets over different hyperfields")
        return self._intersect(other)

    def equals(self, other: "SumSet") -> bool:
        self._same(other.hyperfield, "sets over different hyperfields")
        return self._equals(other)

    def _equals(self, other: "SumSet") -> bool:
        return self.data == other.data

    def closure(self) -> "SumSet":
        """The topological closure of the set.

        Only the phase representation has non-closed pieces (open arcs);
        every other representation is already closed.
        """
        return self


class FiniteSet(SumSet):
    """A finite set of payloads; the family gives the binary rule `add`."""

    @classmethod
    def singleton(cls, el: HFElement) -> "FiniteSet":
        return cls(el.hyperfield, frozenset([el.value]))

    def _contains(self, payload) -> bool:
        return payload in self.data

    def has_nonzero(self) -> bool:
        return any(p != self.hyperfield.zero_payload for p in self.data)

    def _add(self, b) -> "FiniteSet":
        out = set()
        for payload in self.data:
            out |= self.hyperfield.add(payload, b)
        return FiniteSet(self.hyperfield, frozenset(out))

    def _scale(self, el: HFElement) -> "FiniteSet":
        hf = self.hyperfield
        return FiniteSet(hf, frozenset((hf.element(p) * el).value
                                       if p != hf.zero_payload else p
                                       for p in self.data))

    def _mul(self, other: "FiniteSet") -> "FiniteSet":
        hf = self.hyperfield
        return FiniteSet(hf, frozenset((hf.element(a) * hf.element(b)).value
                                       for a in self.data for b in other.data))

    def _intersect(self, other: "FiniteSet") -> Optional["FiniteSet"]:
        out = self.data & other.data
        return FiniteSet(self.hyperfield, out) if out else None

    def sample(self) -> list:
        """Representative payloads of this set (zero included when present)."""
        return sorted(self.data, key=repr)


def _trop(hf: Hyperfield, tag: str, value: Fraction) -> "TropicalSet":
    if value == 0:
        tag = "point"
    return TropicalSet(hf, (tag, value))


class TropicalSet(SumSet):
    """("point", a) for {a}, or ("down", a) for {c : c <= a}."""

    @classmethod
    def singleton(cls, el: HFElement) -> "TropicalSet":
        return _trop(el.hyperfield, "point", el.value)

    def _contains(self, payload) -> bool:
        tag, a = self.data
        return payload <= a if tag == "down" else payload == a

    def has_nonzero(self) -> bool:
        return self.data[1] > 0

    def _add(self, b) -> "TropicalSet":
        tag, a = self.data
        if tag == "down":
            return _trop(self.hyperfield, "down", a) if b <= a else _trop(self.hyperfield, "point", b)
        if a == b:
            return _trop(self.hyperfield, "down", a)
        return _trop(self.hyperfield, "point", max(a, b))

    def _scale(self, el: HFElement) -> "TropicalSet":
        tag, a = self.data
        return _trop(self.hyperfield, tag, a * el.value)

    def _mul(self, other: "TropicalSet") -> "TropicalSet":
        tag_a, a = self.data
        tag_b, b = other.data
        value = a * b
        if value == 0:
            return _trop(self.hyperfield, "point", Fraction(0))
        tag = "down" if "down" in (tag_a, tag_b) else "point"
        return _trop(self.hyperfield, tag, value)

    def _intersect(self, other: "TropicalSet") -> Optional["TropicalSet"]:
        tag_a, a = self.data
        tag_b, b = other.data
        if tag_a == "point" and tag_b == "point":
            return self if a == b else None
        if tag_a == "point":
            return self if a <= b else None
        if tag_b == "point":
            return other if b <= a else None
        return _trop(self.hyperfield, "down", min(a, b))

    def sample(self) -> list:
        tag, a = self.data
        if tag == "point":
            return [a]
        out = [Fraction(0), a]
        if a > 0:
            out.append(a / 2)
        return out


def _canon_intervals(pieces: list) -> tuple:
    cleaned = sorted((max(lo, 0.0), hi) for lo, hi in pieces)
    merged: list = []
    for lo, hi in cleaned:
        if merged and lo <= merged[-1][1] + EPS:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


class IntervalSet(SumSet):
    """Sorted disjoint closed intervals (lo, hi) of nonnegative reals."""

    @classmethod
    def singleton(cls, el: HFElement) -> "IntervalSet":
        return cls(el.hyperfield, ((el.value, el.value),))

    def _contains(self, payload) -> bool:
        return any(lo - EPS <= payload <= hi + EPS for lo, hi in self.data)

    def has_nonzero(self) -> bool:
        return any(hi > EPS for _, hi in self.data)

    def _add(self, b) -> "IntervalSet":
        pieces = []
        for lo, hi in self.data:
            gap = max(lo - b, b - hi, 0.0)
            pieces.append((gap, hi + b))
        return IntervalSet(self.hyperfield, _canon_intervals(pieces))

    def _scale(self, el: HFElement) -> "IntervalSet":
        c = el.value
        return IntervalSet(self.hyperfield,
                           _canon_intervals([(lo * c, hi * c) for lo, hi in self.data]))

    def _mul(self, other: "IntervalSet") -> "IntervalSet":
        pieces = [(lo1 * lo2, hi1 * hi2)
                  for lo1, hi1 in self.data for lo2, hi2 in other.data]
        return IntervalSet(self.hyperfield, _canon_intervals(pieces))

    def _intersect(self, other: "IntervalSet") -> Optional["IntervalSet"]:
        pieces = []
        for lo1, hi1 in self.data:
            for lo2, hi2 in other.data:
                lo, hi = max(lo1, lo2), min(hi1, hi2)
                if hi >= lo - EPS:
                    pieces.append((min(lo, hi), max(lo, hi)))
        if not pieces:
            return None
        return IntervalSet(self.hyperfield, _canon_intervals(pieces))

    def _equals(self, other: "IntervalSet") -> bool:
        if len(self.data) != len(other.data):
            return False
        return all(abs(lo1 - lo2) <= EPS and abs(hi1 - hi2) <= EPS
                   for (lo1, hi1), (lo2, hi2) in zip(self.data, other.data))

    def sample(self) -> list:
        out = []
        for lo, hi in self.data:
            out.append(lo)
            if hi > lo:
                out += [(lo + hi) / 2.0, hi]
        return out


class ArcSet(SumSet):
    """(has_zero, points, arcs): unit points and open counterclockwise
    arcs (start, length) of the circle, plus whether 0 belongs."""

    @classmethod
    def singleton(cls, el: HFElement) -> "ArcSet":
        if el.is_zero:
            return cls(el.hyperfield, (True, (), ()))
        return cls(el.hyperfield, (False, (el.value,), ()))

    def with_zero(self, has_zero: bool) -> "ArcSet":
        """The same nonzero part, with 0 present iff has_zero."""
        _, points, arcs = self.data
        return ArcSet(self.hyperfield, _canon_phase(has_zero, list(points), list(arcs)))

    def _contains(self, payload) -> bool:
        has_zero, points, arcs = self.data
        if payload is None:
            return has_zero
        if any(angle_close(payload, p) for p in points):
            return True
        for start, length in arcs:
            d = _ccw(start, payload)
            if EPS < d < length - EPS:
                return True
        return False

    def has_nonzero(self) -> bool:
        _, points, arcs = self.data
        return bool(points) or bool(arcs)

    def closure(self) -> "ArcSet":
        """The ends of the open arcs become points of the set."""
        if not self.data[2]:
            return self
        has_zero, points, arcs = self.data
        pts = list(points)
        for start, length in arcs:
            pts.append(start)
            pts.append(norm_angle(start + length))
        return ArcSet(self.hyperfield, _canon_phase(has_zero, pts, list(arcs)))

    def _add(self, b) -> "ArcSet":
        has_zero, points, arcs = self.data
        z, pts, acs = False, [], []
        if has_zero:
            pts.append(b)
        for p in points:
            z2, pts2, acs2 = _phase_point_plus(p, b)
            z |= z2
            pts += pts2
            acs += acs2
        for arc in arcs:
            z2, pts2, acs2 = _phase_arc_plus(arc, b)
            z |= z2
            pts += pts2
            acs += acs2
        return ArcSet(self.hyperfield, _canon_phase(z, pts, acs))

    def _scale(self, el: HFElement) -> "ArcSet":
        has_zero, points, arcs = self.data
        rot = el.value
        return ArcSet(self.hyperfield, _canon_phase(
            has_zero,
            [norm_angle(p + rot) for p in points],
            [(norm_angle(s + rot), length) for s, length in arcs]))

    def _mul(self, other: "ArcSet") -> "ArcSet":
        z1, pts1, arcs1 = self.data
        z2, pts2, arcs2 = other.data
        z = z1 or z2
        pts = [norm_angle(p + q) for p in pts1 for q in pts2]
        acs = []
        for p in pts1:
            acs += [(norm_angle(p + s), length) for s, length in arcs2]
        for q in pts2:
            acs += [(norm_angle(q + s), length) for s, length in arcs1]
        for s1, l1 in arcs1:
            for s2, l2 in arcs2:
                total = l1 + l2
                start = norm_angle(s1 + s2)
                if total > TAU + EPS:
                    acs.append((0.0, TAU))
                    pts.append(0.0)
                else:
                    acs.append((start, min(total, TAU)))
        return ArcSet(self.hyperfield, _canon_phase(z, pts, acs))

    def _intersect(self, other: "ArcSet") -> Optional["ArcSet"]:
        z1, pts1, arcs1 = self.data
        z2, pts2, arcs2 = other.data
        z = z1 and z2
        pts = [p for p in pts1 if other._contains(p)]
        pts += [q for q in pts2 if self._contains(q)]
        acs = []
        for a1 in arcs1:
            for a2 in arcs2:
                acs += _arc_intersect(a1, a2)
        if not z and not pts and not acs:
            return None
        return ArcSet(self.hyperfield, _canon_phase(z, pts, acs))

    def _equals(self, other: "ArcSet") -> bool:
        z1, pts1, arcs1 = self.data
        z2, pts2, arcs2 = other.data
        if z1 != z2 or len(pts1) != len(pts2) or len(arcs1) != len(arcs2):
            return False
        if not all(angle_close(p, q) for p, q in zip(pts1, pts2)):
            return False
        return all(angle_close(s1, s2) and abs(l1 - l2) <= EPS
                   for (s1, l1), (s2, l2) in zip(arcs1, arcs2))

    def sample(self) -> list:
        has_zero, points, arcs = self.data
        out: list = [None] if has_zero else []
        out += list(points)
        out += [norm_angle(s + length / 2.0) for s, length in arcs]
        return out


def fold(terms: list) -> SumSet:
    """The n-ary hypersum of the terms.

    For every hyperfield whose `nary_zero_is_fold` holds this is the left
    fold of the binary rule, which is associative on these
    representations.  For phase the nonzero part is still the folded arc
    set (the phases of strictly positive combinations), but whether 0
    belongs is decided globally: 0 lies in the sum iff it is a nonnegative
    combination of the terms with not all weights zero, i.e. iff the
    directions do not fit inside an open half-plane.  Folding the binary
    rule would lose 0 from sums such as x + (-x) + y, where the cancelling
    pair is killed by the third term.
    """
    if not terms:
        raise ValueError("empty term list")
    hf = terms[0].hyperfield
    for t in terms:
        if t.hyperfield is not hf:
            raise MismatchError("mixed hyperfields in a hypersum")
    acc = hf.sums.singleton(terms[0])
    for t in terms[1:]:
        acc = acc.add_term(t)
    if not hf.nary_zero_is_fold and len(terms) > 2:
        acc = acc.with_zero(hf.zero_in([t.value for t in terms]))
    return acc


# -- arc algebra -------------------------------------------------------------


def _phase_point_plus(p: float, b: float) -> tuple:
    """p + b for unit payloads: (zero?, points, arcs)."""
    d = _ccw(p, b)
    if d <= EPS or TAU - d <= EPS:
        return False, [p], []
    if abs(d - math.pi) <= EPS:
        return True, [p, b], []
    if d < math.pi:
        return False, [], [(p, d)]
    return False, [], [(b, TAU - d)]


def _phase_arc_plus(arc: tuple, b: float) -> tuple:
    """Hypersum of an open arc with a unit element b.

    Work in coordinates centered at b.  For arc directions c within the open
    half circle after b the contribution is the open arc from b to c; for
    directions in the half circle before b it runs from c to b; the
    direction b itself contributes the point b and the antipode -b
    contributes {0, b, -b}.
    """
    s, length = arc
    a0 = _ccw(b, s)
    # unrolled components of the arc in b-centered coordinates
    if a0 + length <= TAU:
        comps = [(a0, a0 + length)]
    else:
        comps = [(a0, TAU), (0.0, a0 + length - TAU)]
    zero = False
    points: list = []
    arcs: list = []
    if a0 < TAU - EPS and a0 + length > TAU + EPS:
        points.append(b)  # b lies strictly inside the arc
    for lo, hi in comps:
        # The antipode of b must lie strictly inside the open arc to give a
        # cancellation; landing on an excluded endpoint (up to tolerance)
        # does not.
        if lo + EPS < math.pi < hi - EPS:
            zero = True
            points += [b, norm_angle(b + math.pi)]
        cut_lo, cut_hi = max(lo, 0.0), min(hi, math.pi)
        if cut_hi - cut_lo > EPS:
            arcs.append((b, cut_hi))
        cut_lo, cut_hi = max(lo, math.pi), min(hi, TAU)
        if cut_hi - cut_lo > EPS:
            arcs.append((norm_angle(b + cut_lo), TAU - cut_lo))
    return zero, points, arcs


def _arc_intersect(a: tuple, b: tuple) -> list:
    """Intersection pieces of two open arcs."""
    s1, l1 = a
    s2, l2 = b
    d = _ccw(s1, s2)
    comps = [(d, d + l2)] if d + l2 <= TAU else [(d, TAU), (0.0, d + l2 - TAU)]
    out = []
    for lo, hi in comps:
        cut_lo, cut_hi = max(lo, 0.0), min(hi, l1)
        if cut_hi - cut_lo > EPS:
            out.append((norm_angle(s1 + cut_lo), cut_hi - cut_lo))
    return out


def _canon_phase(has_zero: bool, points: list, arcs: list) -> tuple:
    pts: list = []
    for p in points:
        p = norm_angle(p)
        if not any(angle_close(p, q) for q in pts):
            pts.append(p)
    acs = [(norm_angle(s), min(length, TAU)) for s, length in arcs if length > EPS]

    def inside(arc, theta):
        d = _ccw(arc[0], theta)
        return EPS < d < arc[1] - EPS

    changed = True
    while changed:
        changed = False
        # merge strictly overlapping arcs
        for i in range(len(acs)):
            for j in range(len(acs)):
                if i == j:
                    continue
                s1, l1 = acs[i]
                s2, l2 = acs[j]
                d = _ccw(s1, s2)
                if d < l1 - EPS or d <= EPS:
                    new_len = max(l1, d + l2)
                    keep = [acs[k] for k in range(len(acs)) if k not in (i, j)]
                    if new_len > TAU + EPS:
                        keep.append((0.0, TAU))
                        pts.append(0.0)
                    else:
                        keep.append((s1, min(new_len, TAU)))
                    acs = keep
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue
        # fuse arcs that touch at a point of the set
        for pi, p in enumerate(pts):
            left = right = None
            for k, (s, length) in enumerate(acs):
                if angle_close(norm_angle(s + length), p):
                    left = k
                if angle_close(s, p):
                    right = k
            if left is not None and left == right:
                # a full-length arc closed by its own start point: whole circle
                if not (acs[left] == (0.0, TAU) and p == 0.0):
                    acs[left] = (0.0, TAU)
                    pts[pi] = 0.0
                    changed = True
                    break
                continue
            if left is not None and right is not None and left != right:
                s1, l1 = acs[left]
                l2 = acs[right][1]
                keep = [acs[k] for k in range(len(acs)) if k not in (left, right)]
                total = l1 + l2
                if total > TAU + EPS:
                    keep.append((0.0, TAU))
                    pts.append(0.0)
                else:
                    keep.append((s1, min(total, TAU)))
                acs = keep
                del pts[pi]
                changed = True
                break
        if changed:
            continue
        # drop points swallowed by arc interiors
        for pi, p in enumerate(pts):
            if any(inside(arc, p) for arc in acs):
                del pts[pi]
                changed = True
                break

    dedup: list = []
    for p in pts:
        if not any(angle_close(p, q) for q in dedup):
            dedup.append(p)
    return (bool(has_zero), tuple(sorted(dedup)), tuple(sorted(acs)))
