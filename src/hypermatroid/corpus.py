"""Built-in worked instances with expected outcomes.

Every entry's expected verdict is re-derived when the entry is run (by
run_demo here, and again by the test suite); nothing is trusted from the
table itself.  Realizable instances are built from small integer
matrices through exact rational determinants and then pushed into the
target hyperfield, so their expected values have an independent origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, List, Tuple

from .circuits import CircuitSignature
from .errors import InputError
from .gp import GPFunction, check_gp_strong, check_gp_weak, circuits_from_gp, classify
from .hyperfields import KRASNER, PHASE, RATIONALS, SIGN, TRIANGLE, Hyperfield, gf
from .vectors import FVector, GroundSet
from .transforms import (pushforward_gp, rational_padic, rational_sign,
                         to_krasner)

PI = math.pi


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    kind: str  # "gp" | "signature"
    summary: str
    build: Callable[[], object]
    expect: dict


# -- exact determinants for the realizable builders ------------------------


def _minor_det(columns: List[Tuple[Fraction, ...]], picks: Tuple[int, ...]) -> Fraction:
    """The determinant of the picked columns' first len(picks) entries, by
    cofactor expansion along the last of those rows."""
    r = len(picks)
    if r == 1:
        return columns[picks[0]][0]
    if r == 2:
        a, b = columns[picks[0]], columns[picks[1]]
        return a[0] * b[1] - a[1] * b[0]
    return sum((-1) ** (k + r - 1) * columns[p][r - 1]
               * _minor_det(columns, picks[:k] + picks[k + 1:])
               for k, p in enumerate(picks))


def gp_from_matrix(hf: Hyperfield, labels: Tuple, columns) -> GPFunction:
    """The minor-determinant function of a rational matrix, one column per
    label, each nonzero minor pushed into hf by `hf.from_rational` (a
    minor whose image is zero is left out).  Raises `InputError` when every
    minor vanishes in hf."""
    rank = len(columns[0])
    if any(len(col) != rank for col in columns):
        raise InputError("need columns of equal height")
    values = {}
    for picks in combinations(range(len(labels)), rank):
        d = _minor_det(columns, picks)
        if d != 0 and (a := hf.from_rational(d).value) != hf.zero_payload:
            values[sum(1 << i for i in picks)] = a
    return GPFunction._from_table(hf, GroundSet(labels), rank, values)


# U(2,4): four points on a line in general position.
_U24_LABELS = (1, 2, 3, 4)
_U24_COLUMNS = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                (Fraction(1), Fraction(1)), (Fraction(1), Fraction(2))]

# The cycle matroid of the complete graph on vertices a, b, c, d:
# each edge column is the difference of vertex indicators (last row dropped).
_K4_LABELS = ("ab", "ac", "ad", "bc", "bd", "cd")
_K4_COLUMNS = [(Fraction(1), Fraction(-1), Fraction(0)),
               (Fraction(1), Fraction(0), Fraction(-1)),
               (Fraction(1), Fraction(0), Fraction(0)),
               (Fraction(0), Fraction(1), Fraction(-1)),
               (Fraction(0), Fraction(1), Fraction(0)),
               (Fraction(0), Fraction(0), Fraction(1))]


def _rational_u24() -> GPFunction:
    return gp_from_matrix(RATIONALS, _U24_LABELS, _U24_COLUMNS)


def _rational_k4() -> GPFunction:
    return gp_from_matrix(RATIONALS, _K4_LABELS, _K4_COLUMNS)


def _sign_u13() -> GPFunction:
    ground = GroundSet((1, 2, 3))
    return GPFunction(SIGN, ground, 1,
                      {(x,): SIGN.one() for x in (1, 2, 3)})


def _krasner_u24() -> GPFunction:
    ground = GroundSet(_U24_LABELS)
    return GPFunction(KRASNER, ground, 2,
                      {key: KRASNER.one() for key in combinations(_U24_LABELS, 2)})


def _triangle_example() -> GPFunction:
    """Rank 3 on {1..6}: 4 on {1,5,6}; 2 on sets with one element from
    each of {1}, {2,3,4}, {5,6}; 1 on every other 3-subset."""
    labels = (1, 2, 3, 4, 5, 6)

    def value(key):
        s = set(key)
        if s == {1, 5, 6}:
            return 4.0
        if 1 in s and len(s & {2, 3, 4}) == 1 and len(s & {5, 6}) == 1:
            return 2.0
        return 1.0

    values = {key: TRIANGLE.element(value(key))
              for key in combinations(labels, 3)}
    return GPFunction(TRIANGLE, GroundSet(labels), 3, values)


_PHASE_ANGLES = {
    ("x", "y", "z"): 0.0, ("x", "y", "t"): PI, ("x", "z", "t"): 0.0,
    ("y", "z", "t"): PI, ("x", "y", "l"): 0.9 + PI, ("x", "z", "l"): 2.5,
    ("y", "z", "l"): 5.5, ("x", "t", "l"): 2.7 + PI,
    ("y", "t", "l"): 5.8 - PI, ("z", "t", "l"): 0.3 + PI,
    ("x", "y", "m"): 0.5 + PI, ("x", "z", "m"): 1.2, ("y", "z", "m"): 3.8,
    ("x", "t", "m"): 3.0 + PI, ("y", "t", "m"): 5.1 - PI,
    ("z", "t", "m"): 0.4 + PI, ("x", "l", "m"): 3.1, ("y", "l", "m"): 0.1,
    ("z", "l", "m"): 0.0, ("t", "l", "m"): 3.1,
}


def _phase_example() -> GPFunction:
    """Rank 3 on {x,y,z,t,l,m} with unit values at the pinned angles."""
    ground = GroundSet(("x", "y", "z", "t", "l", "m"))
    values = {key: PHASE.element(1 if angle == 0.0 else angle)
              for key, angle in _PHASE_ANGLES.items()}
    return GPFunction(PHASE, ground, 3, values)


def _sign_flipped_u24() -> CircuitSignature:
    """Circuits of the U(2,4) chirotope with one entry's sign flipped."""
    sig = circuits_from_gp(pushforward_gp(rational_sign(), _rational_u24()))
    tables = [dict(table) for table in sig._payloads]
    victim = min(tables, key=list)  # the least support, at its least position
    first = next(iter(victim))
    victim[first] = SIGN.negative(victim[first])
    return CircuitSignature._from_tables(SIGN, sig.ground, tables, dedup=False)


def _not_a_matroid() -> CircuitSignature:
    """Incomparable supports that fail circuit elimination: {1,2,3} and
    {1,2,4} with nothing inside {2,3,4}."""
    ground = GroundSet((1, 2, 3, 4))
    ones = KRASNER.one()
    return CircuitSignature(KRASNER, ground, [
        FVector(KRASNER, ground, {1: ones, 2: ones, 3: ones}),
        FVector(KRASNER, ground, {1: ones, 2: ones, 4: ones}),
    ])


_ENTRIES = [
    CorpusEntry(
        "triangle-weak-not-strong", "gp",
        "rank-3 triangle-hyperfield function, weak but not strong",
        _triangle_example,
        {"weak_ok": True, "strong_ok": False, "classify": "WeakOnly",
         "strong_witness": {"I": [1, 2, 3, 4], "J": [5, 6]}}),
    CorpusEntry(
        "phase-weak-not-strong", "gp",
        "rank-3 phase-hyperfield function, weak but not strong",
        _phase_example,
        {"weak_ok": True, "strong_ok": False, "classify": "WeakOnly",
         "strong_witness": {"I": ["x", "y", "z", "t"], "J": ["l", "m"]}}),
    CorpusEntry(
        "krasner-u24", "gp",
        "all-ones rank-2 function on four elements (a classical matroid)",
        _krasner_u24,
        {"weak_ok": True, "strong_ok": True, "classify": "Strong"}),
    CorpusEntry(
        "krasner-k4", "gp",
        "basis indicator of the complete-graph cycle matroid",
        lambda: pushforward_gp(to_krasner(RATIONALS), _rational_k4()),
        {"weak_ok": True, "strong_ok": True, "classify": "Strong"}),
    CorpusEntry(
        "sign-u13", "gp",
        "rank-1 all-positive chirotope on three elements",
        _sign_u13,
        {"weak_ok": True, "strong_ok": True, "classify": "Strong"}),
    CorpusEntry(
        "sign-u24", "gp",
        "chirotope of four points on a line",
        lambda: pushforward_gp(rational_sign(), _rational_u24()),
        {"weak_ok": True, "strong_ok": True, "classify": "Strong"}),
    CorpusEntry(
        "sign-k4", "gp",
        "chirotope of the complete-graph cycle matroid",
        lambda: pushforward_gp(rational_sign(), _rational_k4()),
        {"weak_ok": True, "strong_ok": True, "classify": "Strong"}),
    CorpusEntry(
        "gf3-u24", "gp",
        "four points on a line over the three-element field",
        lambda: gp_from_matrix(gf(3), _U24_LABELS, _U24_COLUMNS),
        {"weak_ok": True, "strong_ok": True, "classify": "Strong"}),
    CorpusEntry(
        "rational-u24", "gp",
        "exact determinants of four points on a line",
        _rational_u24,
        {"weak_ok": True, "strong_ok": True, "classify": "Strong"}),
    CorpusEntry(
        "rational-k4", "gp",
        "exact determinants of the complete-graph cycle matroid",
        _rational_k4,
        {"weak_ok": True, "strong_ok": True, "classify": "Strong"}),
    CorpusEntry(
        "tropical-u24", "gp",
        "2-adic absolute values of the line configuration",
        lambda: pushforward_gp(rational_padic(2), _rational_u24()),
        {"weak_ok": True, "strong_ok": True, "classify": "Strong"}),
    CorpusEntry(
        "tropical-k4-padic", "gp",
        "2-adic absolute values of the complete-graph cycle matroid",
        lambda: pushforward_gp(rational_padic(2), _rational_k4()),
        {"weak_ok": True, "strong_ok": True, "classify": "Strong"}),
    CorpusEntry(
        "phase-u24-real", "gp",
        "the line-configuration chirotope embedded at angles 0 and pi",
        lambda: gp_from_matrix(PHASE, _U24_LABELS, _U24_COLUMNS),
        {"weak_ok": True, "strong_ok": True, "classify": "Strong"}),
    CorpusEntry(
        "sign-flipped-u24", "signature",
        "a valid chirotope's circuits with one sign flipped",
        _sign_flipped_u24,
        {"classify": "InvalidSignature"}),
    CorpusEntry(
        "not-a-matroid", "signature",
        "incomparable supports that fail circuit elimination",
        _not_a_matroid,
        {"classify": "UnderlyingNotMatroid"}),
]

CORPUS = {entry.name: entry for entry in _ENTRIES}


def corpus_entries() -> Tuple[CorpusEntry, ...]:
    return tuple(_ENTRIES)


def get_entry(name: str) -> CorpusEntry:
    try:
        return CORPUS[name]
    except KeyError:
        known = ", ".join(sorted(CORPUS))
        raise InputError(f"unknown demo {name!r} (known: {known})") from None


def weak_only_function(hf: Hyperfield) -> GPFunction:
    """The weak-only corpus function of hf's family (`weak_only_example`),
    with its payloads over hf itself: the relations do not involve the
    involution, so the phase entry is weak-only over phase[identity] too."""
    phi = CORPUS[hf.weak_only_example].build()
    return GPFunction._from_table(hf, phi.ground, phi.rank, phi._table)


def _expectation(check: str, expected, got, detail=None) -> dict:
    item = {"check": check, "expected": expected, "got": got,
            "ok": expected == got}
    if detail is not None and not item["ok"]:
        item["detail"] = detail
    return item


def run_demo(name: str) -> dict:
    """Build a corpus entry, re-run every check it pins, and report."""
    entry = get_entry(name)
    obj = entry.build()
    checks = []
    if entry.kind == "gp":
        weak = check_gp_weak(obj)
        strong = check_gp_strong(obj)
        checks.append(_expectation("weak_ok", entry.expect["weak_ok"],
                                   weak is None, weak))
        checks.append(_expectation("strong_ok", entry.expect["strong_ok"],
                                   strong is None, strong))
        want = entry.expect.get("strong_witness")
        if want is not None:
            got = None if strong is None else \
                {"I": list(strong["I"]), "J": list(strong["J"])}
            checks.append(_expectation("strong_witness", want, got, strong))
        if weak is None:
            verdict = classify(circuits_from_gp(obj))
            checks.append(_expectation("classify", entry.expect["classify"],
                                       verdict.verdict, verdict.witness))
    else:
        verdict = classify(obj)
        checks.append(_expectation("classify", entry.expect["classify"],
                                   verdict.verdict, verdict.witness))
    return {"name": entry.name, "kind": entry.kind, "summary": entry.summary,
            "checks": checks, "ok": all(c["ok"] for c in checks)}
