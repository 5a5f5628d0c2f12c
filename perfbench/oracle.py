"""Reference computations for the benchmark, made without `hypermatroid`.

Matrices have Fraction entries (rational) or GaussQ entries (Gaussian
rationals).  From a matrix the oracle derives, exactly:

  * the Grassmann-Pluecker function (all maximal minors), of the matrix
    and of its deletions and contractions;
  * its circuits (minimal linear dependencies among the columns) and its
    cocircuits (minimal-support vectors of the row space).

Hyperfield values are plain Python numbers, one representation per kind:

  krasner, sign, gf   int
  tropical            Fraction (multiplicative presentation, 0 is zero)
  triangle            Fraction (the exact value of the float on file)
  phase               None for zero, else an angle (float radians)
  rational            Fraction

Relations, orthogonality and elimination are decided exactly for every
kind except phase, whose angles are floats; phase uses a geometric test
with a tolerance of PHASE_TOL radians.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

TAU = 2.0 * math.pi
PHASE_TOL = 1e-9


class GaussQ:
    """A Gaussian rational re + im * i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return GaussQ(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussQ(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussQ(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        norm = other.norm()
        return GaussQ((self.re * other.re + self.im * other.im) / norm,
                      (self.im * other.re - self.re * other.im) / norm)

    def __neg__(self):
        return GaussQ(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im


# -- linear algebra over Q and Q(i) -------------------------------------------


def _rref(rows):
    """Row-reduce a list of rows in place; return the pivot columns."""
    pivots = []
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def det(columns):
    """Exact determinant of a square matrix given by its columns."""
    n = len(columns)
    rows = [list(col) for col in columns]  # det(A^T) = det(A)
    sign = 1
    acc = None
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            return _zero_like(rows[0][0])
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            sign = -sign
        lead = rows[c][c]
        acc = lead if acc is None else acc * lead
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] / lead
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return acc if sign == 1 else -acc


def _kernel_vector(columns):
    """A kernel vector of the matrix with these columns, when the kernel
    has dimension one; else None."""
    k = len(columns)
    height = len(columns[0])
    rows = [[columns[j][i] for j in range(k)] for i in range(height)]
    pivots = _rref(rows)
    if len(pivots) != k - 1:
        return None
    free = next(j for j in range(k) if j not in pivots)
    vec = [None] * k
    vec[free] = _one_like(columns[0][0])
    for row, pc in zip(rows, pivots):
        vec[pc] = -row[free]
    return vec


def _zero_like(x):
    return GaussQ(0) if isinstance(x, GaussQ) else Fraction(0)


def _one_like(x):
    return GaussQ(1) if isinstance(x, GaussQ) else Fraction(1)


def rank(columns) -> int:
    if not columns:
        return 0
    height = len(columns[0])
    rows = [[col[i] for col in columns] for i in range(height)]
    return len(_rref(rows))


class Matrix:
    """A full-row-rank matrix with one column per ground label."""

    def __init__(self, labels, columns):
        self.labels = tuple(labels)
        self.columns = [tuple(c) for c in columns]
        self.rank = len(self.columns[0])
        self.gaussian = isinstance(self.columns[0][0], GaussQ)
        self._col = dict(zip(self.labels, self.columns))

    def col(self, label):
        return self._col[label]

    def gp(self) -> dict:
        """Maximal minors keyed by ground-ordered r-tuples (zeros omitted)."""
        out = {}
        for key in combinations(self.labels, self.rank):
            d = det([self._col[x] for x in key])
            if d:
                out[key] = d
        return out

    def circuits(self) -> list:
        """One dict label -> coefficient per minimal dependency."""
        found = []
        supports = []
        for size in range(1, self.rank + 2):
            for subset in combinations(self.labels, size):
                s = frozenset(subset)
                if any(c <= s for c in supports):
                    continue
                vec = _kernel_vector([self._col[x] for x in subset])
                if vec is None or not all(vec):
                    continue
                supports.append(s)
                found.append(dict(zip(subset, vec)))
        return found

    def cocircuits(self) -> list:
        """One dict label -> value per minimal-support row-space vector."""
        seen = set()
        out = []
        for hyper in combinations(self.labels, self.rank - 1):
            cols = [self._col[x] for x in hyper]
            if rank(cols) != self.rank - 1:
                continue
            # y with y . A_t = 0 for t in hyper: kernel of A_hyper^T
            y = _left_kernel(cols, self.rank, self.gaussian)
            values = {x: _dot(y, self._col[x]) for x in self.labels}
            vec = {x: v for x, v in values.items() if v}
            supp = frozenset(vec)
            if supp not in seen:
                seen.add(supp)
                out.append(vec)
        return out

    def minor_gp(self, deleted=(), contracted=()) -> tuple:
        """(labels, rank, values) of the minor delete D, contract C.

        Values are det(A_S | A_P) where P completes a basis of what
        remains: inside C for a contraction, inside D for a deletion.
        Any other completion changes the function by a global unit.
        """
        D, C = set(deleted), set(contracted)
        keep = [x for x in self.labels if x not in D and x not in C]
        pinned = _greedy_basis(self, [x for x in self.labels if x in C])
        span_keep = _greedy_basis(self, keep, start=pinned)
        new_rank = len(span_keep) - len(pinned)
        pinned = pinned + [x for x in _greedy_basis(
            self, [x for x in self.labels if x in D], start=span_keep)
            if x not in span_keep]
        values = {}
        for key in combinations(keep, new_rank):
            d = det([self._col[x] for x in key + tuple(pinned)])
            if d:
                values[key] = d
        return tuple(keep), new_rank, values


def _greedy_basis(mat: Matrix, labels, start=()):
    picked = list(start)
    for x in labels:
        if x in picked:
            continue
        if rank([mat.col(y) for y in picked + [x]]) == len(picked) + 1:
            picked.append(x)
    return picked


def _left_kernel(cols, height, gaussian):
    sample = GaussQ(0) if gaussian else Fraction(0)
    rows = [list(c) for c in cols]  # (r-1) x r
    pivots = _rref(rows) if rows else []
    free = next(j for j in range(height) if j not in pivots)
    y = [_zero_like(sample)] * height
    y[free] = _one_like(sample)
    for row, pc in zip(rows, pivots):
        y[pc] = -row[free]
    return y


def _dot(y, col):
    acc = y[0] * col[0]
    for a, b in zip(y[1:], col[1:]):
        acc = acc + a * b
    return acc


# -- push-forwards of exact numbers into hyperfields --------------------------


def v2(q: Fraction) -> int:
    """The 2-adic valuation of a nonzero rational."""
    n, d, k = abs(q.numerator), q.denominator, 0
    while n % 2 == 0:
        n //= 2
        k += 1
    while d % 2 == 0:
        d //= 2
        k -= 1
    return k


def push(kind: str, x):
    """The image of an exact number (Fraction or GaussQ) in a hyperfield."""
    if kind == "sign":
        return 0 if not x else (1 if x > 0 else -1)
    if kind == "tropical":
        return Fraction(0) if not x else Fraction(2) ** (-v2(x))
    if kind == "krasner":
        return 1 if x else 0
    if kind == "rational":
        return Fraction(x)
    if kind == "triangle":
        if isinstance(x, GaussQ):
            return math.sqrt(float(x.norm()))
        return abs(float(x))
    if kind == "phase":
        if not x:
            return None
        if isinstance(x, GaussQ):
            return math.atan2(float(x.im), float(x.re)) % TAU
        return 0.0 if x > 0 else math.pi
    raise ValueError(kind)


# -- scalar arithmetic in the image hyperfields -------------------------------


def is_zero(kind, a) -> bool:
    return a is None if kind == "phase" else a == 0


def mul(kind, a, b, p=None):
    if is_zero(kind, a) or is_zero(kind, b):
        return None if kind == "phase" else 0
    if kind == "phase":
        return (a + b) % TAU
    if kind == "gf":
        return a * b % p
    return a * b


def neg(kind, a, p=None):
    if is_zero(kind, a):
        return a
    if kind in ("sign", "rational"):
        return -a
    if kind == "phase":
        return (a + math.pi) % TAU
    if kind == "gf":
        return -a % p
    return a  # krasner, tropical, triangle


def inv(kind, a, p=None):
    if kind == "phase":
        return -a % TAU
    if kind == "gf":
        return pow(a, -1, p)
    if kind in ("krasner", "sign"):
        return a
    return 1 / Fraction(a)


def conj(kind, a):
    return -a % TAU if kind == "phase" and a is not None else a


def signed(kind, a, parity, p=None):
    return neg(kind, a, p) if parity % 2 else a


def _angle_gap_ok(angles) -> bool:
    """Whether unit vectors at these angles are not all inside an open
    half-plane (so 0 is a positive combination of them)."""
    ordered = sorted(a % TAU for a in angles)
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]
    gaps.append(ordered[0] + TAU - ordered[-1])
    return max(gaps) <= math.pi + PHASE_TOL


def zero_in_sum(kind, terms, p=None) -> bool:
    """Whether 0 lies in the hypersum of the terms."""
    nz = [t for t in terms if not is_zero(kind, t)]
    if not nz:
        return True
    if kind == "krasner":
        return len(nz) != 1
    if kind == "sign":
        return set(nz) == {1, -1}
    if kind == "tropical":
        top = max(nz)
        return nz.count(top) >= 2
    if kind == "triangle":
        vals = [Fraction(t) for t in nz]
        return 2 * max(vals) <= sum(vals)
    if kind == "rational":
        return sum(nz) == 0
    if kind == "gf":
        return sum(nz) % p == 0
    if kind == "phase":
        return len(nz) > 1 and _angle_gap_ok(nz)
    raise ValueError(kind)


def close(kind, a, b) -> bool:
    """Equality of two values: exact, or within tolerance for floats."""
    if is_zero(kind, a) or is_zero(kind, b):
        return is_zero(kind, a) and is_zero(kind, b)
    if kind == "phase":
        d = abs(a - b) % TAU
        return min(d, TAU - d) <= PHASE_TOL
    if kind == "triangle":
        return abs(Fraction(a) - Fraction(b)) <= Fraction(1, 10 ** 9) * \
            max(abs(Fraction(a)), abs(Fraction(b)))
    return a == b


def projectively_equal(kind, x: dict, y: dict, p=None) -> bool:
    """Whether two label -> value maps differ by one nonzero unit."""
    if set(x) != set(y):
        return False
    if not x:
        return True
    anchor = next(iter(x))
    alpha = mul(kind, x[anchor], inv(kind, y[anchor], p), p)
    return all(close(kind, v, mul(kind, alpha, y[k], p)) for k, v in x.items())


# -- Grassmann-Pluecker relations ---------------------------------------------


def _parity(seq) -> int:
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
               if seq[i] > seq[j]) % 2


def evaluate(kind, gp: dict, pos: dict, labels, p=None):
    """Alternating evaluation of a GP function stored on sorted keys."""
    zero = None if kind == "phase" else 0
    if len(set(labels)) != len(labels):
        return zero
    key = tuple(sorted(labels, key=pos.__getitem__))
    value = gp.get(key, zero)
    return signed(kind, value, _parity([pos[x] for x in labels]), p)


def relation_terms(kind, gp: dict, pos: dict, I, J, p=None) -> list:
    """Terms (-1)^k phi(I - x_k) phi(x_k, J) of the GP relation."""
    terms = []
    for k, x in enumerate(I, start=1):
        left = evaluate(kind, gp, pos, tuple(y for y in I if y != x), p)
        right = evaluate(kind, gp, pos, (x,) + tuple(J), p)
        terms.append(signed(kind, mul(kind, left, right, p), k, p))
    return terms


def relation_fails(kind, gp, pos, I, J, p=None) -> bool:
    return not zero_in_sum(kind, relation_terms(kind, gp, pos, I, J, p), p)


def exchange_fails(gp: dict, B1, B2, x) -> bool:
    """Whether B1 - x + y is outside the support for every y in B2 - B1."""
    support = {frozenset(k) for k in gp}
    s1, s2 = frozenset(B1), frozenset(B2)
    return s1 in support and s2 in support and x in s1 - s2 and not any(
        (s1 - {x}) | {y} in support for y in s2 - s1)


def first_failing_relation(kind, gp, labels, rank, weak, p=None):
    """The first failing relation (I, J) in lexicographic order, or None;
    the weak family keeps only pairs with |I - J| = 3."""
    pos = {x: i for i, x in enumerate(labels)}
    for I in combinations(labels, rank + 1):
        for J in combinations(labels, rank - 1):
            if weak and len(set(I) - set(J)) != 3:
                continue
            if relation_fails(kind, gp, pos, I, J, p):
                return I, J
    return None


def basis_exchange_holds(gp: dict) -> bool:
    keys = list(gp)
    return not any(exchange_fails(gp, b1, b2, x)
                   for b1 in keys for b2 in keys for x in b1)


# -- circuits of a GP function, and elimination -------------------------------


def matroid_circuits_from_bases(labels, bases) -> list:
    """Minimal subsets contained in no basis."""
    bases = [frozenset(b) for b in bases]
    r = len(bases[0])
    found = []
    for size in range(1, r + 2):
        for subset in combinations(labels, size):
            s = frozenset(subset)
            if any(s <= b for b in bases) or any(c <= s for c in found):
                continue
            found.append(s)
    return found


def circuits_of_gp(kind, gp: dict, labels, p=None) -> list:
    """Circuit vectors by Cramer's rule: for a circuit C with least
    element x0 and a basis B containing C - x0, X(x0) = 1 and
    X(b_i) = (-1)^i phi(x0, B - b_i) / phi(B)."""
    pos = {x: i for i, x in enumerate(labels)}
    bases = sorted(gp, key=lambda k: [pos[x] for x in k])
    out = []
    for circ in matroid_circuits_from_bases(labels, gp):
        x0 = min(circ, key=pos.__getitem__)
        basis = next(b for b in bases if circ - {x0} <= set(b))
        denom = inv(kind, gp[basis], p)
        one = 0.0 if kind == "phase" else 1
        vec = {x0: one}
        for i, b in enumerate(basis, start=1):
            if b in circ:
                rest = tuple(y for y in basis if y != b)
                val = mul(kind, evaluate(kind, gp, pos, (x0,) + rest, p),
                          denom, p)
                vec[b] = signed(kind, val, i, p)
        out.append(vec)
    return out


def rank_from_circuits(circuits, subset) -> int:
    picked = []
    for x in subset:
        trial = frozenset(picked) | {x}
        if not any(c <= trial for c in circuits):
            picked.append(x)
    return len(picked)


def _interval_of_sum(values):
    """The hypersum of nonnegative reals: [max(0, 2 max - s), s]."""
    s = sum(values)
    return max(Fraction(0), 2 * max(values) - s), s


def _arc_of_sum(angles):
    """The closed arc (start, length) of directions phi such that
    {angles} + phi direction is not inside an open half-plane after
    reversing phi; None when 0 already lies in the sum of the angles."""
    if _angle_gap_ok(angles) and len(angles) > 1:
        return None
    ordered = sorted(a % TAU for a in angles)
    gaps = [(b - a, b) for a, b in zip(ordered, ordered[1:])]
    gaps.append((ordered[0] + TAU - ordered[-1], ordered[0]))
    worst, start = max(gaps)
    return start, TAU - worst


def _in_arc(theta, arc) -> bool:
    start, length = arc
    off = (theta - start) % TAU
    return off <= length + PHASE_TOL or off >= TAU - PHASE_TOL


def eliminator_exists(kind, signature, terms, zeros_at, p=None) -> bool:
    """Whether some circuit Z of the signature, scaled by a unit, vanishes
    on zeros_at and at every coordinate f satisfies 0 in -Z(f) + (the
    hypersum of the terms at f).  Exact for sign and triangle; phase uses
    closed arcs with the phase tolerance."""
    union = set().union(*(set(t) for t in terms))
    banned = set(zeros_at)
    zero = None if kind == "phase" else 0

    def column(f):
        return [t.get(f, zero) for t in terms]

    for z in signature:
        supp = set(z)
        if not supp <= union - banned:
            continue
        if any(not zero_in_sum(kind, column(f), p) for f in union - supp):
            continue
        if kind == "sign":
            if any(all(zero_in_sum(kind, column(f) + [neg(kind, mul(
                    kind, a, z[f]))]) for f in supp) for a in (1, -1)):
                return True
        elif kind == "triangle":
            lo, hi = Fraction(0), None
            for f in supp:
                a, b = _interval_of_sum([Fraction(v) for v in column(f) if v])
                zf = Fraction(z[f])
                lo, hi = max(lo, a / zf), (b / zf if hi is None else
                                            min(hi, b / zf))
            if hi is None or (hi >= lo and hi > 0):
                return True
        elif kind == "phase":
            arcs = []
            for f in supp:
                nz = [v for v in column(f) if v is not None]
                if not nz:
                    continue
                arc = _arc_of_sum(nz)
                if arc is not None:
                    arcs.append(((arc[0] - z[f]) % TAU, arc[1]))
            if not arcs or any(all(_in_arc(a[0], b) for b in arcs)
                               for a in arcs):
                return True
        else:
            raise ValueError(f"no elimination oracle for {kind}")
    return False
