"""Grassmann-Pluecker functions over a hyperfield.

Values are stored on position-sorted r-subsets only; evaluation on
arbitrary tuples derives the alternating sign.  The relation checkers,
the circuit extraction, and the dual-pair reconstruction all pin
deterministic canonical choices (lexicographic subsets, least anchors,
greedy bases) so outputs and witnesses are reproducible.  `classify`
lives here, next to the cocircuit derivation whose orthogonality with
the circuits decides it.

Which criterion decides Strong depends on the hyperfield.  A strong
function is weak, so one that is not weak gets the weak check's witness.
Over a doubly distributive hyperfield (Krasner, sign, tropical, the
rationals, GF(p)) weak and strong matroids coincide (Baker-Bowler), so
Strong is decided by the weak criterion: the three-term relations for a
function, orthogonality of the circuit/cocircuit pairs meeting in at
most 3 elements for a signature.  Over triangle and phase every circuit
must be orthogonal to every cocircuit.

The relation checkers run on raw payloads keyed by int masks of ground
positions and build elements only for a witness (`relation_terms`).  The
weak check takes the paper's form: each three-term Pluecker relation once
(`failing_three_term`), on the family's `zero_in_dot`, and, unless the
support holds every r-set, basis exchange on one bitset per element over
the bases (`_support`), which the circuits and the minors read too: the
GP side builds no `ClassicalMatroid`.  A weak function determines its
dual pair (Baker-Bowler): each (r+1)-set I gives the circuit inside I,
each (r-1)-set J the cocircuit off cl(J), and the (I, J) relation is
their orthogonality sum.
`_dual_pair` packs them once per function, one I or J per mask; Strong
(`failing_relation`), the circuits (`circuits_from_gp`) and the
perfection sweep read them.  The walk over every (I, J) is the test
oracle in `tests/oracles.py`.

One loop, `_first_nonorthogonal`, answers every circuit/cocircuit
orthogonality question on support masks and payloads, for functions and
signatures alike: each class is packed once (`_pack`) from a signature's
tables, a cocircuit as a row by position (`_cocircuit_pack`), an overlap
is a popcount, and each pair is one call of the family's `zero_in_dot`,
which forms the products x(e) invol(y(e)), one row lookup per circuit
entry, and decides "0 in their sum" at once.  The cocircuit derivation
and the dual-pair walk take bases and fundamental circuits as masks.

A function keeps one {basis mask: payload} table of its nonzero values
(`GPFunction`), which the JSON parser builds through the family's
`decode` and `serialization.serialize` writes; the circuits of a
function (`circuits_from_gp`) and a rebuilt function
(`gp_from_dual_pair`) are tables too.  Elements are built only for a
relation's terms in a witness (`relation_terms`), a signature's classes
in a witness (`CircuitSignature.classes`) and the public element views
(`GPFunction.values`).

The cocircuits are derived on payloads (`_cocircuit_payloads`): each
W(e) is a ratio of the circuit X inside H + e + f0, H a basis of the
hyperplane off W.  `cocircuit_signature_from_circuits` then checks W(e)/W(f)
against the circuit inside H + e + f for the other pairs; that circuit
meets W in {e, f} exactly, and the check is their orthogonality, the same
relative (triangle) or angular (phase) inequality up to rounding at
`EPS`.  So `orthogonality_verdict`, whose pair loop tests every pair
meeting in 2, derives W once, unchecked, and lets orthogonality decide.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, lcm
from operator import and_, or_
from typing import Dict, Iterable, List, Optional, Sequence

from .circuits import (CircuitSignature, check_C0_C2, check_strong_elimination,
                       check_weak_elimination)
from .errors import (ConsistencyError, InputError, InvalidDualPairError,
                     MismatchError, RatioInconsistencyError)
from .hyperfields import HFElement, Hyperfield, mul, signed
from .matroids import _labels, validate_circuits
from .vectors import GroundSet


def _perm_parity(values: Sequence[int]) -> int:
    """Parity (0 or 1) of the permutation sorting `values` ascending."""
    count = 0
    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            if values[i] > values[j]:
                count += 1
    return count % 2


_UNCHECKED = object()


class GPFunction:
    """An alternating function from r-tuples of ground labels to F.

    Its state is one table, {basis mask: payload} of the nonzero values
    on position-sorted r-subsets (`_table`), built directly by
    `serialization.gp_from_json` and the derivations (`_from_table`), or
    read off elements by the constructor.  The elements (`values`, keyed
    by label tuples in ground order) are a view built on first use, for
    the public API, or kept from the constructor's input."""

    def __init__(self, hyperfield: Hyperfield, ground: GroundSet, rank: int,
                 values: Dict[tuple, HFElement]):
        if any(value.hyperfield is not hyperfield for value in values.values()):
            raise InputError("value over the wrong hyperfield")
        self._keep(hyperfield, ground, rank, _subset_table(
            hyperfield, ground, rank, {tuple(k): v.value for k, v in values.items()}))
        self._values = {tuple(k): v for k, v in values.items() if not v.is_zero}

    @classmethod
    def _from_table(cls, hyperfield: Hyperfield, ground: GroundSet, rank: int,
                    table: dict) -> "GPFunction":
        """The function of a {basis mask: nonzero payload} table."""
        phi = cls.__new__(cls)
        phi._keep(hyperfield, ground, rank, table)
        return phi

    def _keep(self, hyperfield: Hyperfield, ground: GroundSet, rank: int,
              table: dict) -> None:
        if not table:
            raise InputError("identically zero (GP1 fails)")
        self.hyperfield, self.ground, self.rank = hyperfield, ground, rank
        self._table = table
        self._values: Optional[Dict[tuple, HFElement]] = None
        self._bitsets: Optional[tuple] = None
        self._weak: object = _UNCHECKED
        self._pairs: Optional[tuple] = None

    @property
    def values(self) -> Dict[tuple, HFElement]:
        if self._values is None:
            hf, ground = self.hyperfield, self.ground
            self._values = {_labels(ground, m): HFElement(hf, a)
                            for m, a in self._table.items()}
        return self._values

    def evaluate(self, labels: Sequence) -> HFElement:
        """Alternating evaluation on an arbitrary tuple."""
        labels = tuple(labels)
        if len(labels) != self.rank:
            raise InputError(f"expected arity {self.rank}, got {len(labels)}")
        if len(set(labels)) != len(labels):
            return self.hyperfield.zero()
        positions = [self.ground.index(x) for x in labels]
        value = self._table.get(sum(1 << i for i in positions))
        if value is None:
            return self.hyperfield.zero()
        return signed(HFElement(self.hyperfield, value), _perm_parity(positions))

    def __repr__(self) -> str:
        return (f"GPFunction({self.hyperfield}, |E|={len(self.ground)}, "
                f"rank={self.rank}, support={len(self._table)})")


def _subset_table(hf: Hyperfield, ground: GroundSet, rank: int, values: dict) -> dict:
    """{basis mask: payload} of {label tuple: payload}, zeros left out;
    InputError on a rank out of range, then on the first key that is not
    an r-set of labels in ground order."""
    if rank < 1 or rank > len(ground):
        raise InputError(f"rank {rank} out of range for |E| = {len(ground)}")
    index, zero, table = ground.index, hf.zero_payload, {}
    for key, a in values.items():
        if len(key) != rank or len(set(key)) != rank:
            raise InputError(f"subset {key} is not an {rank}-set")
        positions = [index(x) for x in key]
        if positions != sorted(positions):
            raise InputError(f"subset {key} is not in ground order")
        if a != zero:
            table[sum(1 << i for i in positions)] = a
    return table


def _crossings(x: int, y: int) -> int:
    """The parity of the pairs i in x, j in y with i > j, for disjoint
    masks: that of the shuffle putting x followed by y in ground order."""
    return sum((x >> j).bit_count() for j in _positions(y)) % 2


# -- relations ---------------------------------------------------------------


def _uniform(phi: GPFunction) -> bool:
    """Whether the table holds all C(n, r) r-sets: the basis family of the
    uniform matroid U(r, n), for which basis exchange holds."""
    return len(phi._table) == comb(len(phi.ground), phi.rank)


def _support(phi: GPFunction) -> tuple:
    """(masks, holders, failure), built once per function: the basis masks
    in lex order of ground positions, bit k of `holders[e]` set when basis
    k holds e, and `_first_exchange_failure`, which is not run on a
    uniform support (`_uniform`), where it could only return None.  A set
    lies inside a basis when the AND of its holders is nonzero."""
    if phi._bitsets is None:
        # each mask as a bit string, ground position 0 first: on masks of
        # one size, descending strings are ascending position lists, and
        # the string's column e, read from the last basis, is holders[e]
        spelled = f"0{len(phi.ground)}b"
        rows = sorted([format(mask, spelled)[::-1] for mask in phi._table],
                      reverse=True)
        masks = [int(row[::-1], 2) for row in rows]
        holders = [int("".join(column)[::-1], 2) for column in zip(*rows)]
        phi._bitsets = (masks, holders, None if _uniform(phi) else
                        _first_exchange_failure(phi.ground, masks, holders))
    return phi._bitsets


def _first_exchange_failure(ground: GroundSet, masks: list,
                            holders: list) -> Optional[dict]:
    """The first (B1, B2, x) failing basis exchange, or None: B1 outer and
    B2 inner in the order of `masks`, x in B1 - B2 in ground order.  The B2
    failing at x miss every e with J + e a basis, J = B1 - x (x and the
    cocircuit off cl(J)): the AND of the complements of their `holders`,
    taken once per J.  The lowest bit of the OR over x names B2, the least
    x holding it x.  No 2^n-subset table is built."""
    every = (1 << len(masks)) - 1
    avoid = [every ^ bits for bits in holders]
    is_basis, blocked = set(masks), {}
    for m1 in masks:
        free = []
        for x in _positions(m1):
            J = m1 ^ 1 << x
            if J not in blocked:
                blocked[J] = reduce(and_, [avoid[e] for e in range(len(avoid))
                                           if J | 1 << e in is_basis])
            free.append((x, blocked[J]))
        low = reduce(or_, (bits for _, bits in free))
        if low:
            low &= -low
            x = next(x for x, bits in free if bits & low)
            return {"axiom": "exchange", "B1": _labels(ground, m1),
                    "B2": _labels(ground, masks[low.bit_length() - 1]),
                    "x": ground.labels[x]}
    return None


def _matroid_support(phi: GPFunction) -> list:
    """The holders of a support that is a matroid's basis family;
    InputError naming the exchange failure otherwise."""
    _, holders, failure = _support(phi)
    if failure is not None:
        raise InputError(f"not a matroid: {failure}")
    return holders


def relation_terms(phi: GPFunction, I: Sequence, J: Sequence) -> List[HFElement]:
    """The r+2 x r-2 relation's term list for sorted subsets I (r+1) and
    J (r-1): the k-th term is (-1)^k phi(I minus its k-th element) times
    phi(that element prepended to J)."""
    I = phi.ground.sort(I)
    J = phi.ground.sort(J)
    if len(I) != phi.rank + 1 or len(set(I)) != len(I):
        raise InputError("I must be a set of rank+1 labels")
    if len(J) != phi.rank - 1 or len(set(J)) != len(J):
        raise InputError("J must be a set of rank-1 labels")
    terms = []
    for k, x in enumerate(I, start=1):
        left = phi.evaluate(tuple(y for y in I if y != x))
        right = phi.evaluate((x,) + J)
        terms.append(signed(mul(left, right), k))
    return terms


def three_term_pairs(rank: int, m: int) -> int:
    """The number of (I, J) pairs with |I - J| = 3 over m labels."""
    if rank < 2 or m < rank + 2:
        return 0
    return comb(m, rank + 1) * comb(rank + 1, rank - 2) * (m - rank - 1)


def _witness(phi: GPFunction, axiom: str, I: tuple, J: tuple) -> dict:
    """The witness of the relation on position tuples I and J."""
    I, J = (tuple(phi.ground.labels[i] for i in part) for part in (I, J))
    return {"axiom": axiom, "I": I, "J": J, "terms": relation_terms(phi, I, J)}


def _integral(table: dict) -> dict:
    """`table` with `Fraction` payloads made integers over their common
    denominator: a positive scaling, which keeps products and their
    maxima, ties and zero sums exact."""
    if table and isinstance(next(iter(table.values())), Fraction):
        scale = lcm(*(q.denominator for q in table.values()))
        return {k: q.numerator * (scale // q.denominator) for k, q in table.items()}
    return table


def _failing_class(S: tuple, rest: list, pair: list, hf: Hyperfield) -> Optional[tuple]:
    """(I, J) of the first failing a < b < c < d in `rest`, or None, given
    pair[x][y] = phi(S + rest[x] + rest[y]) as a payload, None for zero.
    Per (a, b, c), c short of the last (which leaves no d), `left` holds
    -phi(Sbc), phi(Sac), -phi(Sab) at a, b, c, zeros left out; `pair` is
    symmetric, so row pair[d] holds phi(Sad), phi(Sbd), phi(Scd) there:
    each d is one `zero_in_dot`, on the products in the relation's order."""
    negative, zero_in_dot = hf.negative, hf.zero_in_dot
    for a, b, c in combinations(range(len(pair) - 1), 3):
        ab, ac, bc = pair[a][b], pair[a][c], pair[b][c]
        left = []
        if bc is not None:
            left.append((a, negative(bc)))
        if ac is not None:
            left.append((b, ac))
        if ab is not None:
            left.append((c, negative(ab)))
        if left:
            for d in range(c + 1, len(pair)):
                if not zero_in_dot(left, pair[d]):
                    return (tuple(sorted(S + (rest[a], rest[b], rest[c]))),
                            tuple(sorted(S + (rest[d],))))
    return None


def failing_three_term(phi: GPFunction) -> Optional[dict]:
    """The least failing (I, J) with |I - J| = 3, I outer and J inner in
    `combinations` order, as a witness, or None.  Such pairs come four to
    a three-term Pluecker relation: S of r - 2 positions and a < b < c < d
    outside it give I = S plus three, J = S plus the fourth.  The least,
    Sabc and Sd, has the terms -phi(Sbc) phi(Sad), phi(Sac) phi(Sbd),
    -phi(Sab) phi(Scd), the others these up to a global sign, which keeps
    "0 in the sum".  For one S, `combinations` order on (a, b, c, d) is
    that of the least members, so the scan keeps each S's first failure,
    skips an S whose least I comes after the best, and reports the least."""
    n, r = len(phi.ground), phi.rank
    if r < 2:
        return None
    table, best = _integral(phi._table), None
    for S in combinations(range(n), r - 2):
        s = sum(1 << i for i in S)
        rest = [x for x in range(n) if not s >> x & 1]
        if best is not None and tuple(sorted(S + tuple(rest[:3]))) > best[0]:
            continue
        pair = [[table.get(s | 1 << x | 1 << y) for y in rest] for x in rest]
        key = _failing_class(S, rest, pair, phi.hyperfield)
        if key is not None and (best is None or key < best):
            best = key
    return None if best is None else _witness(phi, "GP3'", *best)


def failing_relation(phi: GPFunction) -> Optional[dict]:
    """The least failing (I, J) of a weak function as a witness, or None:
    among those whose circuit and cocircuit meet least, the first in the
    order of `combinations` over the ground order, I outer and J inner.
    The relation is, up to a unit, the orthogonality sum of the two
    (Baker-Bowler), and it holds when they meet in at most 3 positions,
    so one run of the pair loop over the packs of `_dual_pair` meeting in
    4 or more decides.  The walk is the test oracle `oracles.strong_witness`.
    """
    pair = _first_nonorthogonal(*_dual_pair(phi), phi.hyperfield,
                                range(4, len(phi.ground) + 1))
    return None if pair is None else _witness(phi, "GP3", pair[1], pair[2])


def check_gp_weak(phi: GPFunction) -> Optional[dict]:
    """Basis exchange on the support, then the three-term relations; the
    scans run once per function, so `check-gp --both` pays for them once.
    A uniform support (`_uniform`) passes exchange without the support's
    bitsets being built."""
    if phi._weak is _UNCHECKED:
        phi._weak = (None if _uniform(phi) else _support(phi)[2]) or failing_three_term(phi)
    return None if phi._weak is None else dict(phi._weak)


def check_gp_strong(phi: GPFunction) -> Optional[dict]:
    """The witness of `check_gp_weak` on a function that is not weak, since
    a strong function is weak.  Over a doubly distributive hyperfield a
    weak function is strong (Baker-Bowler), so nothing else is checked
    there.  Over triangle and phase the relations of the circuit/cocircuit
    pairs meeting in 4 or more elements decide (`failing_relation`)."""
    weak = check_gp_weak(phi)
    if weak is not None or phi.hyperfield.doubly_distributive:
        return weak
    return failing_relation(phi)


# -- the dual pair of a function, packed ---------------------------------------


def _dual_pair(phi: GPFunction) -> tuple:
    """(circuits, cocircuits), built once per function: `_pack`-form packs
    (I, circuit mask, {i: payload}) and (J, cocircuit mask, row by position)
    in the order of `combinations` over the ground positions, on payloads
    made integral.  The circuit inside an (r+1)-set I is the i with I - i
    a basis, its entry at the k-th element (-1)^k phi(I - i); the
    cocircuit off cl(J) of an (r-1)-set J is the x with J + x a basis, its
    entry phi(x, J).  The (I, J) relation is the sum of their products,
    with no involution.  For a weak function they are its dual pair up to
    units (Baker-Bowler), so each mask keeps its first I or J."""
    if phi._pairs is None:
        table, negative = _integral(phi._table), phi.hyperfield.negative
        negated = {m: negative(x) for m, x in table.items()}
        positions = range(len(phi.ground))
        circuits = {}
        for I in combinations(positions, phi.rank + 1):
            mask = sum(1 << i for i in I)
            circuit = sum(1 << i for i in I if mask ^ (1 << i) in table)
            if circuit and circuit not in circuits:
                circuits[circuit] = (I, circuit, {
                    i: (negated if k % 2 else table)[mask ^ (1 << i)]
                    for k, i in enumerate(I, start=1) if circuit >> i & 1})
        cocircuits = {}
        for J in combinations(positions, phi.rank - 1):
            mask = sum(1 << j for j in J)
            cocircuit = sum(1 << x for x in positions
                            if not mask >> x & 1 and mask | (1 << x) in table)
            if cocircuit and cocircuit not in cocircuits:
                cocircuits[cocircuit] = _cocircuit_pack(J, (
                    (x, (negated if (mask & ((1 << x) - 1)).bit_count() % 2
                         else table)[mask | (1 << x)])
                    for x in positions if cocircuit >> x & 1), len(positions))
        phi._pairs = (list(circuits.values()), list(cocircuits.values()))
    return phi._pairs


def circuits_from_gp(phi: GPFunction) -> CircuitSignature:
    """One representative per circuit of the underlying matroid of a weak
    function, in the order of their ground positions, anchored at value 1
    on the circuit's least element x0 and computed against B = I - x0, I
    the circuit's first (r+1)-set in `_dual_pair`, which makes B the first
    basis containing C - x0 in the lex order of ground positions:
    X(x_i) = (-1)^i phi(x0, B - x_i) / phi(B), x_i the i-th element of B.

    The circuit vectors of a weak function do not depend on the basis
    used (Baker-Bowler), so no other basis is consulted and no matroid is
    built.  Each entry takes the payload operations of that formula in its
    order, so float payloads come out bit for bit alike.  Recomputing
    against every basis containing C - x0 is a test oracle.  On a function
    that is not weak the result is that of the same sets; a support that is
    not the basis family of a matroid raises InputError
    (`_matroid_support`).
    """
    _matroid_support(phi)
    hf, table = phi.hyperfield, phi._table
    product, negative, one = hf.product, hf.negative, hf.one().value
    tables = []
    for I, circuit, _ in sorted(_dual_pair(phi)[0], key=lambda c: _positions(c[1])):
        x0 = (circuit & -circuit).bit_length() - 1
        basis = sum(1 << i for i in I) ^ 1 << x0
        denom = hf.inverse(table[basis])
        entries = {x0: one}
        for i, xi in enumerate(_positions(basis), start=1):
            if circuit >> xi & 1:
                rest = basis ^ 1 << xi
                value = table[rest | 1 << x0]
                if (rest & ((1 << x0) - 1)).bit_count() % 2:
                    value = negative(value)
                value = product(value, denom)
                entries[xi] = negative(value) if i % 2 else value
        tables.append(entries)
    return CircuitSignature._from_tables(hf, phi.ground, tables)


# -- orthogonality and cocircuits, on support masks and payloads -------------


def _positions(mask: int) -> list:
    """The ground positions of a mask, ascending, one lowest bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _pack(items: Iterable[tuple], hf: Hyperfield, size: int = 0) -> list:
    """(key, support mask, table) per (key, {position: payload} table in
    ground order), such as the index and table of a signature's class
    (`CircuitSignature._payloads`); given the ground `size`, the cocircuit
    side: entries go through the involution into a row of that length
    (`_cocircuit_pack`).  Payloads are made integral per table, which
    scales every term of its pairs by one positive unit."""
    packs = []
    for key, payloads in items:
        if size:
            payloads = {i: hf.conjugate(a) for i, a in payloads.items()}
        payloads = _integral(payloads)
        packs.append(_cocircuit_pack(key, payloads.items(), size) if size
                     else (key, sum(1 << i for i in payloads), payloads))
    return packs


def _cocircuit_pack(y, entries: Iterable, size: int) -> tuple:
    """(y, support mask, row) from (position, payload) pairs: the row holds
    the payload at each of the `size` ground positions, None off the
    support, so a kernel makes one lookup per position of the circuit."""
    row, mask = [None] * size, 0
    for i, a in entries:
        row[i] = a
        mask |= 1 << i
    return y, mask, row


def _first_nonorthogonal(xs: list, ys: list, hf: Hyperfield,
                         overlaps: range) -> Optional[tuple]:
    """(overlap, x, y) for the first pair of circuit packs x in xs and
    cocircuit packs (rows) y in ys, in xs x ys order, that meet in at most
    3 positions, or in the least of `overlaps`, and are not orthogonal;
    failing that, for the first non-orthogonal pair of least overlap; else
    None.  Only pairs whose overlap lies in `overlaps` are tested, and a
    pair whose overlap cannot lower the least found is skipped."""
    zero_in_dot = hf.zero_in_dot
    least, limit = overlaps.start, overlaps.stop
    at_once = max(3, least)
    best = None
    for x, mx, px in xs:
        left = px.items()
        for y, my, py in ys:
            overlap = (mx & my).bit_count()
            if least <= overlap < limit and not zero_in_dot(left, py):
                if overlap <= at_once:
                    return overlap, x, y
                best, limit = (overlap, x, y), overlap
    return best


def _same_frame(C: CircuitSignature, D: CircuitSignature) -> None:
    """MismatchError unless D shares C's hyperfield and ground order: the
    pair loop pairs entries by ground position."""
    for field, ours, theirs in (("hyperfield", C.hyperfield, D.hyperfield), (
            "ground_set", list(C.ground.labels), list(D.ground.labels))):
        if theirs != ours:
            raise MismatchError(f"cocircuits.{field} {theirs} is not the circuits' {ours}")


def nonorthogonal_pair(C: CircuitSignature, D: CircuitSignature) -> Optional[tuple]:
    """(overlap, X, Y) for the first X in C and Y in D, in C x D order, that
    meet in at most 3 elements and are not orthogonal (DP3'), else None.
    D over another hyperfield or ground order raises MismatchError."""
    _same_frame(C, D)
    hf, size = C.hyperfield, len(C.ground)
    pair = _first_nonorthogonal(_pack(enumerate(C._payloads), hf),
                                _pack(enumerate(D._payloads), hf, size),
                                hf, range(1, 4))
    return None if pair is None else (pair[0], C.classes[pair[1]], D.classes[pair[2]])


def _circuit_ratio(sig: CircuitSignature):
    """ratio(basis, e, f): the payload of -X(f)/X(e) under the involution,
    X the class of the circuit inside basis + e + f, for a basis of a
    hyperplane that misses e and f."""
    hf, tables, first = sig.hyperfield, sig._payloads, sig._first_with_support
    matroid = sig.underlying_matroid()
    product, negative, inverse, conjugate = (hf.product, hf.negative,
                                             hf.inverse, hf.conjugate)

    def ratio(basis: int, e: int, f: int):
        x = tables[first[matroid._fundamental_mask(basis | 1 << e, 1 << f)]]
        return conjugate(negative(product(x[f], inverse(x[e]))))

    return ratio


def _cocircuit_payloads(sig: CircuitSignature) -> list:
    """(hyperplane basis mask, {position: payload}) per cocircuit D of the
    underlying matroid, in the order of its ground positions: W anchored
    at W(f0) = 1 on the least position f0 of D, and W(e) = ratio(e, f0)
    (`_circuit_ratio`) against the greedy basis H of the hyperplane off D.
    Nothing is checked here."""
    ratio, one = _circuit_ratio(sig), sig.hyperfield.one().value
    matroid, full = sig.underlying_matroid(), (1 << len(sig.ground)) - 1
    derived = []
    for cocircuit in sorted(matroid.dual()._masks, key=_positions):
        basis = matroid._greedy(full ^ cocircuit)
        f0, *rest = _positions(cocircuit)
        payloads = {f0: one}
        payloads.update((e, ratio(basis, e, f0)) for e in rest)
        derived.append((basis, payloads))
    return derived


def cocircuit_signature_from_circuits(sig: CircuitSignature) -> CircuitSignature:
    """The unique partner signature on the dual matroid, built cocircuit by
    cocircuit from circuit ratios through a fixed hyperplane basis.

    For a cocircuit D and a maximal independent set H in its complement,
    each pair e, f in D determines a unique circuit X inside H + {e, f};
    the ratio W(e)/W(f) is the negated inverted circuit ratio.  The pairs
    with the least element f0 of D define the representative anchored at
    W(f0) = 1 (`_cocircuit_payloads`), so they hold by construction; every
    other pair is checked against it, on payloads.  The check at (e, f) is
    the orthogonality of X and W, which meet in {e, f} (module docstring),
    so `orthogonality_verdict` skips it; `hfm dual` keeps it, to refuse
    with the failing pair.

    Orthogonality pairs a circuit entry with the involution of a cocircuit
    entry, so the ratios are built under the involution; with the identity
    involution this changes nothing.  Two classes on one support, like
    supports that are not a matroid's circuits, raise InputError.
    """
    if sig.shared_support is not None:
        raise InputError(f"not a signature: two classes share the support "
                         f"{list(_labels(sig.ground, sig.shared_support))}")
    hf, labels = sig.hyperfield, sig.ground.labels
    product, inverse, equal = hf.product, hf.inverse, hf.equal
    ratio = _circuit_ratio(sig)
    tables = []
    for basis, payloads in _cocircuit_payloads(sig):
        _, *rest = payloads
        for e, f in combinations(rest, 2):
            if not equal(product(payloads[e], inverse(payloads[f])),
                         ratio(basis, e, f)):
                raise RatioInconsistencyError(
                    f"cocircuit {[labels[i] for i in payloads]} ratios "
                    f"disagree at ({labels[e]}, {labels[f]})")
        tables.append(payloads)
    return CircuitSignature._from_tables(hf, sig.ground, tables)


# -- GP function from a dual pair ---------------------------------------------


def dual_pair_witness(C: CircuitSignature,
                      D: CircuitSignature) -> Optional[dict]:
    """First failure of the weak dual-pair requirements, or None: DP1 and
    DP2 (signatures of a matroid and its dual), then DP3' (a circuit and a
    cocircuit meeting in at most 3 elements that are not orthogonal),
    named by the pair `nonorthogonal_pair` finds.  Whether a weak dual
    pair is full (DP3) is not asked here.  Entries pair by ground position,
    so D over another hyperfield or ground order raises MismatchError."""
    _same_frame(C, D)
    try:
        matroid = C.underlying_matroid()
    except InputError:
        return {"axiom": "DP1", "reason": "supports are not matroid circuits"}
    if C.shared_support is not None:
        return {"axiom": "DP1", "reason": "not a signature of a matroid"}
    if D.shared_support is not None or set(D._masks) != set(matroid.dual()._masks):
        return {"axiom": "DP2", "reason": "not a signature of the dual matroid"}
    pair = nonorthogonal_pair(C, D)
    if pair is None:
        return None
    _, x, y = pair
    return {"axiom": "DP3'", "X": x, "Y": y}


def gp_from_dual_pair(C: CircuitSignature, D: CircuitSignature) -> GPFunction:
    """Reconstruct the function whose circuit signature is C, from a weak
    dual pair (C, D), admitted once by DP1, DP2 and DP3'
    (`dual_pair_witness`).

    The basis-exchange graph is walked breadth first on basis masks from
    the greedy (lexicographically least) basis, pinned to value 1; each
    exchange edge determines the value ratio through the circuit crossing
    it, and each basis keeps the value of its first visit.  A weak dual
    pair determines, up to a unit, one weak function whose circuits are C,
    and a full dual pair a strong one (Baker-Bowler), so revisits agree
    and nothing is re-checked here; re-checking is a test oracle.
    """
    problem = dual_pair_witness(C, D)
    if problem is not None:
        raise InvalidDualPairError(str(problem))
    hf, n = C.hyperfield, len(C.ground)
    product, negative, inverse = hf.product, hf.negative, hf.inverse
    matroid, tables, first = C.underlying_matroid(), C._payloads, C._first_with_support
    root = matroid._greedy((1 << n) - 1)
    values = {root: hf.one().value}
    queue = deque([root])
    while queue:
        basis = queue.popleft()
        current = values[basis]
        for e in range(n):
            if basis >> e & 1:
                continue
            circ = matroid._fundamental_mask(basis, 1 << e)
            x = tables[first[circ]]
            for f in _positions(circ ^ 1 << e):
                new_basis = basis ^ 1 << f | 1 << e
                if new_basis not in values:
                    value = product(negative(product(x[f], inverse(x[e]))), current)
                    if ((basis & ((1 << f) - 1)).bit_count()
                            + (new_basis & ((1 << e) - 1)).bit_count()) % 2:
                        value = negative(value)
                    values[new_basis] = value
                    queue.append(new_basis)
    return GPFunction._from_table(hf, C.ground, root.bit_count(), values)


# -- classification ----------------------------------------------------------


class Classification:
    """A verdict, InvalidSignature, UnderlyingNotMatroid, WeakOnly or
    Strong, with its witness; equal by class, verdict and witness."""

    __slots__ = ("verdict", "witness")

    def __init__(self, verdict: str, witness: Optional[dict] = None):
        self.verdict = verdict
        self.witness = witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.verdict, self.witness) == (other.verdict, other.witness)

    @property
    def ok(self) -> bool:
        return self.verdict == "Strong"


def orthogonality_verdict(sig: CircuitSignature) -> str:
    """The verdict "Strong", "WeakOnly" or "InvalidSignature" for a
    signature that satisfies C0-C2 and whose supports are the circuits of
    a matroid.

    Weak signatures are the circuit sides of weak dual pairs, strong ones
    those of full dual pairs (Baker-Bowler), and the only candidate
    partner is the cocircuit signature D derived from circuit ratios.  So
    the signature is not weak when a circuit X and a cocircuit Y with
    |X & Y| <= 3 are not orthogonal (`_first_nonorthogonal`).  Over a
    doubly distributive hyperfield a weak signature is strong, so only
    those pairs are checked; elsewhere it is strong when every pair is
    orthogonal.

    D is derived once and unchecked (`_cocircuit_payloads`): its ratio
    check is a pair meeting in 2, which the loop tests anyway (module
    docstring), so a signature whose ratios disagree is not weak here
    either.  Both sides are packed from tables, and no element-level
    operation runs.
    """
    hf, size = sig.hyperfield, len(sig.ground)
    overlaps = range(1, 4 if hf.doubly_distributive else size + 1)
    pair = _first_nonorthogonal(_pack(enumerate(sig._payloads), hf),
                                _pack(_cocircuit_payloads(sig), hf, size), hf, overlaps)
    if pair is None:
        return "Strong"
    return "WeakOnly" if pair[0] > 3 else "InvalidSignature"


def elimination_witness(sig: CircuitSignature, verdict: str) -> dict:
    """The failing elimination instance behind an orthogonality verdict:
    modular-pair elimination C3' for InvalidSignature, modular-family
    elimination C3 for WeakOnly.  C3 on a pair is C3', and orthogonality
    has shown that every modular pair of a WeakOnly signature eliminates,
    so its scan starts at families of three circuits.  A scan that finds
    none would contradict the theorem and raises."""
    scan = check_weak_elimination if verdict == "InvalidSignature" \
        else check_strong_elimination
    witness = scan(sig)
    if witness is None:
        raise ConsistencyError(
            f"orthogonality with the derived cocircuits makes the signature "
            f"{verdict}, but elimination finds no failing instance")
    return witness


def underlying_violation(sig: CircuitSignature) -> Optional[dict]:
    """The circuit axiom that the supports of `sig` violate, as JSON, or
    None when they are the circuits of a matroid."""
    try:
        sig.underlying_matroid()
    except InputError:
        # name the violation; a ground set above the cap raises again
        return validate_circuits(sig.ground, sig.supports()).as_json()
    return None


def classify(sig: CircuitSignature) -> Classification:
    """The verdict on a circuit signature, with its witness.

    In order: the support axioms C0-C2 (InvalidSignature), the circuit
    axioms of the supports (UnderlyingNotMatroid), then orthogonality with
    the derived cocircuit signature (`orthogonality_verdict`), which
    decides between InvalidSignature, WeakOnly and Strong, and the
    elimination scans name the witness (`elimination_witness`).
    """
    basic = check_C0_C2(sig)
    if basic is not None:
        return Classification("InvalidSignature", basic)
    violation = underlying_violation(sig)
    if violation is not None:
        return Classification("UnderlyingNotMatroid", {"axiom": "underlying", **violation})
    verdict = orthogonality_verdict(sig)
    if verdict == "Strong":
        return Classification(verdict)
    return Classification(verdict, elimination_witness(sig, verdict))
