"""The benchmark's own copy of the worked instances hfm ships as its corpus.

Each GP entry is rebuilt here from its definition (a small matrix, the
triangle rule, or the pinned phase angles), in the oracle's value
representation, so that the benchmark needs nothing from `hypermatroid`
to write the input files or to know the right answers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from oracle import Matrix, circuits_of_gp, is_zero, push

PI = math.pi

U24 = Matrix((1, 2, 3, 4), [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                            (Fraction(1), Fraction(1)), (Fraction(1), Fraction(2))])

# The cycle matroid of K4: edge columns are vertex-indicator differences.
K4 = Matrix(("ab", "ac", "ad", "bc", "bd", "cd"),
            [tuple(map(Fraction, col)) for col in
             [(1, -1, 0), (1, 0, -1), (1, 0, 0), (0, 1, -1), (0, 1, 0), (0, 0, 1)]])


def _pushed(kind, matrix, p=None):
    if kind == "gf":
        values = {k: int(d) % p for k, d in matrix.gp().items()}
    else:
        values = {k: push(kind, d) for k, d in matrix.gp().items()}
    return {k: v for k, v in values.items() if not is_zero(kind, v)}


def _triangle_example():
    """Rank 3 on 1..6: 4 on {1,5,6}; 2 on sets with one element from each
    of {1}, {2,3,4}, {5,6}; 1 on every other 3-subset."""
    def value(key):
        s = set(key)
        if s == {1, 5, 6}:
            return Fraction(4)
        if 1 in s and len(s & {2, 3, 4}) == 1 and len(s & {5, 6}) == 1:
            return Fraction(2)
        return Fraction(1)
    return {k: value(k) for k in combinations(range(1, 7), 3)}


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

PHASE_LABELS = ("x", "y", "z", "t", "l", "m")


class GPEntry:
    """A GP function: hyperfield id, ground labels, rank, values."""

    def __init__(self, name, kind, labels, rank, values, p=None):
        self.name, self.kind, self.labels = name, kind, tuple(labels)
        self.rank, self.values, self.p = rank, values, p

    @property
    def hyperfield(self) -> str:
        return f"gf({self.p})" if self.kind == "gf" else self.kind

    def scaled(self, name, unit: float) -> "GPEntry":
        """A copy times a positive float unit (triangle only)."""
        values = {k: Fraction(float(v) * unit) for k, v in self.values.items()}
        return GPEntry(name, self.kind, self.labels, self.rank, values)


def gp_entries() -> list:
    """The thirteen GP corpus entries, in corpus order."""
    u24, k4 = U24.labels, K4.labels
    return [
        GPEntry("triangle-weak-not-strong", "triangle", range(1, 7), 3,
                _triangle_example()),
        GPEntry("phase-weak-not-strong", "phase", PHASE_LABELS, 3,
                {k: a % (2 * PI) for k, a in _PHASE_ANGLES.items()}),
        GPEntry("krasner-u24", "krasner", u24, 2,
                {k: 1 for k in combinations(u24, 2)}),
        GPEntry("krasner-k4", "krasner", k4, 3, _pushed("krasner", K4)),
        GPEntry("sign-u13", "sign", (1, 2, 3), 1, {(x,): 1 for x in (1, 2, 3)}),
        GPEntry("sign-u24", "sign", u24, 2, _pushed("sign", U24)),
        GPEntry("sign-k4", "sign", k4, 3, _pushed("sign", K4)),
        GPEntry("gf3-u24", "gf", u24, 2, _pushed("gf", U24, 3), p=3),
        GPEntry("rational-u24", "rational", u24, 2, _pushed("rational", U24)),
        GPEntry("rational-k4", "rational", k4, 3, _pushed("rational", K4)),
        GPEntry("tropical-u24", "tropical", u24, 2, _pushed("tropical", U24)),
        GPEntry("tropical-k4-padic", "tropical", k4, 3, _pushed("tropical", K4)),
        GPEntry("phase-u24-real", "phase", u24, 2, _pushed("phase", U24)),
    ]


WEAK_NOT_STRONG = ("triangle-weak-not-strong", "phase-weak-not-strong")


class SigEntry:
    """A circuit signature: hyperfield id, ground labels, circuit vectors."""

    def __init__(self, name, kind, labels, circuits):
        self.name, self.kind, self.labels = name, kind, tuple(labels)
        self.circuits = circuits


def signature_entries() -> list:
    """(entry, expected verdict) for the corpus signatures: one per verdict
    hfm's classify can give besides Strong, and the circuits of the sign
    K4 chirotope, which are Strong."""
    by_name = {e.name: e for e in gp_entries()}
    out = []
    for name in WEAK_NOT_STRONG:
        e = by_name[name]
        out.append((SigEntry(name.replace("weak-not-strong", "circuits"),
                             e.kind, e.labels,
                             circuits_of_gp(e.kind, e.values, e.labels)),
                    "WeakOnly"))
    pos = {x: i for i, x in enumerate(U24.labels)}
    sign_circuits = [{x: push("sign", v) for x, v in c.items()}
                     for c in U24.circuits()]
    victim = min(sign_circuits, key=lambda c: sorted(pos[x] for x in c))
    least = min(victim, key=pos.__getitem__)
    victim[least] = -victim[least]
    out.append((SigEntry("sign-flipped-u24", "sign", U24.labels, sign_circuits),
                "InvalidSignature"))
    out.append((SigEntry("not-a-matroid", "krasner", (1, 2, 3, 4),
                         [{1: 1, 2: 1, 3: 1}, {1: 1, 2: 1, 4: 1}]),
                "UnderlyingNotMatroid"))
    out.append((SigEntry("sign-k4-circuits", "sign", K4.labels,
                         [{x: push("sign", v) for x, v in c.items()}
                          for c in K4.circuits()]),
                "Strong"))
    return out
