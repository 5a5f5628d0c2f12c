"""Independent exact-rational linear algebra, circuit-axiom checks,
relation scans and a second classification route used as test oracles.

Determinants, kernels, minimal-support dependencies and the verdicts on
circuit families come from a second, unrelated code path: none of them
uses the package under test.  The GP relation scan reuses the package's
`relation_terms` and `zero_in_sum`, since what it checks is the
enumeration: every (I, J) pair in order, each decided on its full term
list, zeros included; `strong_witness` keeps, on a weak function, the
first failing pair of least circuit/cocircuit overlap, which is what
`check_gp_strong` names.  `classify_by_elimination` decides strength by
the package's two elimination criteria instead of orthogonality, and
`full_orthogonality_verdict` by the package's `orthogonal` on every
circuit/cocircuit pair over every hyperfield.  `circuit_by_every_basis`
computes a circuit vector of a GP function against every basis that can
carry it (`bases_containing`), where `circuits_from_gp` uses the first,
and `equivalent_gp` compares two functions up to a unit.
`nonorthogonal_pair` and `cocircuit_signature_from_circuits` are the
package's element-level forms of its packed pair loop and mask-based
cocircuit derivation: one `orthogonal` per pair, and fundamental
circuits and classes looked up by frozensets of labels.
`minimal_covectors` is the dual signature by enumerating F^E,
`same_signature` compares two signatures class by class, looking classes
up by support (`class_with_support`), `vectors_equal` two vectors entry
by entry, and
`padic_abs` is the p-adic absolute value by one `Fraction` division per
factor of p, the reference for the package's count on integers, and
`validate_hom` checks the homomorphism rules, asking the fold
(`sumsets.fold`) every membership question, as
`double_distributivity_witness` asks it whether
(x + y)(z + t) = xz + xt + yz + yt, the oracle of each family's
`doubly_distributive` flag.  `independent` and
`fundamental_cocircuit` read a `ClassicalMatroid`'s dependence table and
dual; `matroid_of` builds one from label sets, and `cocircuits` reads its
dual's circuits.
`zero_in` is each family's closed form for "0 in x1 + ... + xk", the
reference for the package's one null-set rule, the kernel `zero_in_dot`;
`zero_in_phase_sum` is the greedy phase zero test that the package's
sort-first test falls back on, `zero_in_dot` the pair kernel on a
position -> payload map, as `zero_in` of the products, and
`failing_class_by_terms` the three-term class scan on term lists of
`product`s and `negative`s decided by `zero_in`, where the package asks
the fused `zero_in_dot`.  `check_C0_C2` is the support axioms by the scan
over every pair of classes, and `dual_pair_supports` DP1 and DP2 by that
scan and the circuit sets of the matroid and its dual.  `bitset_exchange_witness` is the
exchange scan on the support's bitsets without the package's memo on
B1 - x, `support_bitsets` those bitsets by a test per (element, basis),
`gp_matroid` the matroid of a GP function's support by
`ClassicalMatroid.from_bases`, and `minor_by_matroid` a GP minor as a
deletion and then a contraction, each with its greedy choices (`greedy`)
made on that matroid.
`gp_from_json`, `signature_from_json` and `parse_by_walk` are the JSON
readers the package's one-pass readers replaced: each value decoded on
its own, a GP function's subsets walked into a label-tuple dict and then
through the package's `_subset_table`, and each class sorted.
`gp_to_json` writes the GP function schema from the element view.
"""

import math
import random
import warnings
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import and_, or_

import hypermatroid
from hypermatroid import (CircuitSignature, ClassicalMatroid, Classification,
                          FVector, GPFunction, GroundSet, HFElement,
                          HyperfieldHom, InputError, RatioInconsistencyError,
                          check_C3_doubleprime, check_strong_elimination,
                          check_weak_elimination, eq, inv,
                          mul, neg, orthogonal, projectively_equal,
                          relation_terms, sample_element, signed,
                          support, validate_circuits, zero_in_sum)
from hypermatroid.hyperfields import (FiniteTable, Phase, PrimeField, Tropical,
                                      Triangle, _phase_distinct, _phase_max_gap)
from hypermatroid.matroids import _mask
from hypermatroid.gp import _subset_table
from hypermatroid.serialization import (_parse_ground, _payload_from_json,
                                        element_to_json, hyperfield_from_id)
from hypermatroid.sumsets import EPS, fold


def det(rows):
    """Determinant by fraction-exact Gaussian elimination."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            sign = -sign
        result *= mat[col][col]
        for r in range(col + 1, n):
            factor = mat[r][col] / mat[col][col]
            if factor:
                for c in range(col, n):
                    mat[r][c] -= factor * mat[col][c]
    return sign * result


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows):
    """Basis vectors of the right null space, one per free column."""
    mat, pivots = rref(rows)
    ncols = len(rows[0]) if rows else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -mat[i][f]
        basis.append(tuple(vec))
    return basis


def _columns_to_rows(columns):
    height = len(columns[0])
    return [[col[i] for col in columns] for i in range(height)]


def minimal_dependencies(columns):
    """Minimal-support linear dependencies among the given columns.

    Returns a dict mapping each minimal dependent index set (a circuit
    of the column matroid) to its coefficient tuple, normalized so the
    first nonzero coefficient is 1; the coefficient vector on a minimal
    dependent set is unique up to scale.
    """
    m = len(columns)
    found = {}
    for size in range(1, m + 1):
        for picks in combinations(range(m), size):
            if any(circuit <= set(picks) for circuit in found):
                continue
            sub = [columns[i] for i in picks]
            if rank(_columns_to_rows(sub)) == size:
                continue
            kernel = kernel_basis(_columns_to_rows(sub))
            assert len(kernel) == 1, "minimality forces a line"
            coeffs = kernel[0]
            lead = next(x for x in coeffs if x != 0)
            coeffs = tuple(x / lead for x in coeffs)
            full = [Fraction(0)] * m
            for slot, index in enumerate(picks):
                full[index] = coeffs[slot]
            found[frozenset(picks)] = tuple(full)
    return found


def circuit_violation(ground, circuits):
    """The first failure of the circuit axioms as (rule, detail), or None.

    The direct frozenset scan: nonempty circuits, then incomparable pairs,
    then elimination over every pair sharing an element, each in the order
    of `circuits` (pairs as itertools.combinations lists them).
    """
    ground = set(ground)
    circuits = [frozenset(c) for c in circuits]
    for c in circuits:
        if not c:
            return "nonempty", {"circuit": c}
        if not c <= ground:
            raise ValueError(f"circuit {sorted(c)} leaves the ground set")
    for c1, c2 in combinations(circuits, 2):
        if c1 <= c2 or c2 <= c1:
            return "incomparable", {"first": c1, "second": c2}
    family = set(circuits)
    for c1, c2 in combinations(circuits, 2):
        for e in c1 & c2:
            rest = (c1 | c2) - {e}
            if not any(c3 <= rest for c3 in family):
                return "elimination", {"first": c1, "second": c2, "element": e}
    return None


def binary_matroid_circuits(columns):
    """Circuits (index sets) of the column matroid of GF(2) vectors given
    as int bitmasks: the minimal sets of columns with zero sum."""
    m = len(columns)
    found = []
    for size in range(1, m + 1):
        for picks in combinations(range(m), size):
            if any(c <= set(picks) for c in found):
                continue
            basis = {}  # pivot vectors keyed by their highest bit
            dependent = False
            for i in picks:
                v = columns[i]
                while v and v.bit_length() in basis:
                    v ^= basis[v.bit_length()]
                if not v:
                    dependent = True
                    break
                basis[v.bit_length()] = v
            if dependent:
                found.append(frozenset(picks))
    return found


def union_lattice_height(circuits, target):
    """Height of `target` in the lattice of unions of the given circuits,
    by building the lattice: the independent oracle for `modular_family`.
    Exponential in the number of circuits under the target."""
    target = frozenset(target)
    atoms = [c for c in {frozenset(c) for c in circuits} if c <= target]
    unions = {frozenset()}
    frontier = {frozenset()}
    while frontier:
        frontier = {u | a for u in frontier for a in atoms} - unions
        unions |= frontier
    if target not in unions:
        raise ValueError("target is not a union of circuits")
    heights = {}
    for u in sorted(unions, key=len):
        heights[u] = 1 + max((heights[v] for v in heights if v < u),
                             default=-1)
    return heights[target]

def exchange_witness(phi):
    """The first basis-exchange failure of a GP function's support, by
    the frozenset scan over (B1, B2, x) with the bases in the lex order of
    their ground positions, or None."""
    bases = sorted(phi.values, key=lambda b: [phi.ground.index(x) for x in b])
    base_sets = {frozenset(b) for b in bases}
    for b1 in bases:
        s1 = frozenset(b1)
        for b2 in bases:
            s2 = frozenset(b2)
            for x in phi.ground.sort(s1 - s2):
                if not any((s1 - {x}) | {y} in base_sets for y in s2 - s1):
                    return {"axiom": "exchange", "B1": b1, "B2": b2, "x": x}
    return None


def support_bitsets(phi):
    """The basis masks of a GP function, sorted by their lists of ground
    positions, and holders[e] with bit k set when basis k holds e, by one
    test per (element, basis): what `gp._support` builds from bit
    strings."""
    n = len(phi.ground)
    masks = sorted(phi._table, key=lambda m: [e for e in range(n) if m >> e & 1])
    return masks, [sum(1 << k for k, mask in enumerate(masks) if mask >> e & 1)
                   for e in range(n)]


def bitset_exchange_witness(phi):
    """The first basis-exchange failure by bitsets, or None: bit k of
    `avoid[e]` is set when basis k misses e, and the B2 failing at x are
    the bits of the AND of `avoid` over x and every y with B1 - x + y a
    basis, taken afresh for each (B1, x)."""
    pos = phi.ground.index
    bases = [(key, sum(1 << pos(x) for x in key))
             for key in sorted(phi.values, key=lambda k: tuple(map(pos, k)))]
    masks = {m for _, m in bases}
    n = len(phi.ground)
    avoid = [int("".join("0" if m >> e & 1 else "1" for _, m in reversed(bases)), 2)
             for e in range(n)]
    for b1, m1 in bases:
        free = [(x, reduce(and_, [avoid[y] for y in range(n) if not m1 >> y & 1
                                  and (m1 ^ 1 << x) | 1 << y in masks], avoid[x]))
                for x in range(n) if m1 >> x & 1]
        low = reduce(or_, (bits for _, bits in free))
        if low:
            low &= -low
            x = next(x for x, bits in free if bits & low)
            return {"axiom": "exchange", "B1": b1,
                    "B2": bases[low.bit_length() - 1][0], "x": phi.ground.labels[x]}
    return None


def matroid_of(ground, circuits):
    """The `ClassicalMatroid` of label sets, through their masks."""
    return ClassicalMatroid(ground, [_mask(ground, c) for c in circuits])


def cocircuits(m):
    """The circuits of the dual, as label sets."""
    return m.dual().circuits


def independent(m, subset):
    """Whether a set of labels is independent in the matroid m."""
    return not m._dep[_mask(m.ground, subset)]


def fundamental_cocircuit(m, basis, f):
    """The unique cocircuit of m avoiding basis - {f}, for f in the basis."""
    b = frozenset(basis)
    if b not in m.bases():
        raise InputError("not a basis")
    if f not in b:
        raise InputError("element not in the basis")
    return m.dual().fundamental_circuit(frozenset(m.ground.labels) - b, f)


def greedy(m, labels, picked=()):
    """`picked` extended by each of `labels` outside it, in ground order,
    that keeps it independent in m."""
    for x in m.ground.sort(set(labels) - set(picked)):
        if independent(m, picked + (x,)):
            picked += (x,)
    return picked


def gp_matroid(phi):
    """The matroid whose bases are the support of phi (capped at 16
    labels, and InputError on a support that is no matroid's)."""
    return ClassicalMatroid.from_bases(phi.ground, [frozenset(k) for k in phi.values])


def minor_by_matroid(phi, deleted=(), contracted=()):
    """The minor delete A, then contract B: the deletion evaluates phi
    with the greedy completion of the greedy basis of E - A as trailing
    arguments, the contraction the result with the greedy maximal
    independent subset of B, each on the `gp_matroid` of its input."""
    if deleted:
        matroid = gp_matroid(phi)
        remaining = tuple(x for x in phi.ground if x not in deleted)
        base = greedy(matroid, remaining)
        if not base:
            raise InputError("deletion has rank 0")
        pinned = greedy(matroid, deleted, base)[len(base):]
        phi = GPFunction(phi.hyperfield, GroundSet(remaining), len(base), {
            key: phi.evaluate(key + pinned)
            for key in combinations(remaining, len(base))})
    if contracted:
        matroid = gp_matroid(phi)
        remaining = tuple(x for x in phi.ground if x not in contracted)
        pinned = greedy(matroid, contracted)
        rank = phi.rank - len(pinned)
        if not remaining or rank == 0:
            raise InputError("contraction has rank 0")
        phi = GPFunction(phi.hyperfield, GroundSet(remaining), rank, {
            key: phi.evaluate(key + pinned) for key in combinations(remaining, rank)})
    return phi


def relation_pairs(phi, three_term_only):
    """Every (I, J) of the relation family, I outer and J inner, both in
    `combinations` order; three-term pairs have |I - J| = 3."""
    labels = phi.ground.labels
    for I in combinations(labels, phi.rank + 1):
        for J in combinations(labels, phi.rank - 1):
            if not three_term_only or len(set(I) - set(J)) == 3:
                yield I, J


def failing_relations(phi, three_term_only):
    """Each pair whose full term list, zeros included, fails zero_in_sum,
    as a witness, in order."""
    axiom = "GP3'" if three_term_only else "GP3"
    for I, J in relation_pairs(phi, three_term_only):
        terms = relation_terms(phi, I, J)
        if not zero_in_sum(terms):
            yield {"axiom": axiom, "I": I, "J": J, "terms": terms}


def relation_witness(phi, three_term_only):
    """The first failing pair, as a witness, or None."""
    return next(failing_relations(phi, three_term_only), None)


def gp_witness(phi, three_term_only):
    """The verdict of check_gp_weak (three_term_only) by the direct scans,
    basis exchange, then every relation; without three_term_only, the
    same scans over the full relation family."""
    return exchange_witness(phi) or relation_witness(phi, three_term_only)


def strong_witness(phi):
    """The verdict of check_gp_strong by the walk: the weak verdict of a
    function that is not weak; on a weak one, the first failing pair
    among those with the fewest nonzero terms.  Term k is nonzero exactly
    when the k-th element of I lies in the circuit inside I and in the
    cocircuit off cl(J), so these are the pairs of least overlap."""
    return gp_witness(phi, True) or min(
        failing_relations(phi, False),
        key=lambda w: sum(not t.is_zero for t in w["terms"]), default=None)


def equivalent_gp(phi1, phi2):
    """Whether phi1 is a global nonzero multiple of phi2."""
    if (phi1.hyperfield, phi1.ground, phi1.rank) != \
            (phi2.hyperfield, phi2.ground, phi2.rank):
        return False
    if set(phi1.values) != set(phi2.values):
        return False
    anchor = min(phi1.values, key=lambda k: tuple(map(phi1.ground.index, k)))
    alpha = mul(phi1.values[anchor], inv(phi2.values[anchor]))
    return all(eq(v, mul(alpha, phi2.values[k])) for k, v in phi1.values.items())


def bases_containing(m, independent_set):
    """The bases of m that contain an independent set, as label tuples in
    ground order, lazily and in the lex order of their ground positions:
    the set plus each independent `combinations` pick of the other
    labels.  Two sets of one size are ordered by the least element of
    their symmetric difference, which the shared part never contains, so
    the picks come in the bases' order."""
    start = frozenset(independent_set)
    rest = [x for x in m.ground if x not in start]
    for picks in combinations(rest, m.rank() - len(start)):
        if independent(m, start | set(picks)):
            yield m.ground.sort(start | set(picks))


def circuit_by_every_basis(phi, circuit):
    """The vector of a circuit of phi's support anchored at 1 on its least
    element x0, once per basis B containing C - x0:
    X(x_i) = (-1)^i phi(x0, B - x_i) / phi(B) for the i-th x_i of B in C."""
    x0 = min(circuit, key=phi.ground.index)
    hf = phi.hyperfield
    for basis in bases_containing(gp_matroid(phi), circuit - {x0}):
        denom = inv(phi.evaluate(basis))
        entries = {x0: hf.one()}
        for i, xi in enumerate(basis, start=1):
            if xi in circuit:
                rest = tuple(b for b in basis if b != xi)
                entries[xi] = signed(mul(phi.evaluate((x0,) + rest), denom), i)
        yield FVector(hf, phi.ground, entries)


def check_C0_C2(sig):
    """check_C0_C2 by the scan over every pair of classes: C0, then the
    first projectively equal pair in `combinations` order (C1), then the
    first pair with comparable supports (C2)."""
    for v in sig.classes:
        if not v.entries:
            return {"axiom": "C0", "vector": v}
    for x, y in combinations(sig.classes, 2):
        if projectively_equal(x, y):
            return {"axiom": "C1", "vectors": [x, y],
                    "reason": "duplicate projective class"}
    for x, y in combinations(sig.classes, 2):
        sx, sy = support(x), support(y)
        if sx <= sy or sy <= sx:
            return {"axiom": "C2", "vectors": [x, y],
                    "reason": "comparable supports in distinct classes"}
    return None


def dual_pair_supports(C, D):
    """"DP1", "DP2" or None: C must satisfy C0-C2 (`check_C0_C2`) with the
    circuits of a matroid M as its supports, and D must satisfy C0-C2 with
    the circuits of the dual of M as its supports."""
    if check_C0_C2(C) is not None or \
            validate_circuits(C.ground, C.supports()) is not None:
        return "DP1"
    if check_C0_C2(D) is not None or \
            set(D.supports()) != cocircuits(matroid_of(C.ground, C.supports())):
        return "DP2"
    return None


def classify_by_elimination(sig):
    """classify's verdict by elimination: InvalidSignature with the first
    failing C3' instance, else Strong when no C3 instance on three or more
    circuits fails and WeakOnly with the first failure; the
    fundamental-circuit span criterion C3'' must agree."""
    basic = check_C0_C2(sig)
    if basic is not None:
        return Classification("InvalidSignature", basic)
    violation = validate_circuits(sig.ground, sig.supports())
    if violation is not None:
        return Classification("UnderlyingNotMatroid",
                              {"axiom": "underlying", **violation.as_json()})
    weak = check_weak_elimination(sig)
    if weak is not None:
        return Classification("InvalidSignature", weak)
    strong = check_strong_elimination(sig)
    assert (strong is None) == (check_C3_doubleprime(sig) is None), \
        "C3 and C3'' disagree"
    if strong is None:
        return Classification("Strong")
    return Classification("WeakOnly", strong)


def full_orthogonality_verdict(sig):
    """orthogonality_verdict's verdict by testing every circuit/cocircuit
    pair with the derived cocircuits: Strong when every pair is
    orthogonal, WeakOnly when only the pairs meeting in at most 3
    elements are, else InvalidSignature (also when no consistent
    cocircuit signature exists)."""
    try:
        cocircuits = hypermatroid.cocircuit_signature_from_circuits(sig)
    except RatioInconsistencyError:
        return "InvalidSignature"
    overlaps = [len(set(x.entries) & set(y.entries))
                for x in sig.classes for y in cocircuits.classes
                if not orthogonal(x, y)]
    if not overlaps:
        return "Strong"
    return "WeakOnly" if min(overlaps) > 3 else "InvalidSignature"


def nonorthogonal_pair(C, D, full):
    """(overlap, X, Y) for the first X in C and Y in D, in C x D order,
    that meet in at most 3 elements and are not orthogonal; failing that,
    with `full` set, for the first non-orthogonal pair of least overlap;
    else None.  A pair whose overlap cannot lower the least one found so
    far is skipped."""
    cocircuits = [(y, support(y)) for y in D.classes]
    best = None
    for x in C.classes:
        sx = support(x)
        for y, sy in cocircuits:
            overlap = len(sx & sy)
            if overlap > 3 and not (full and (best is None or overlap < best[0])):
                continue
            if not orthogonal(x, y):
                if overlap <= 3:
                    return overlap, x, y
                best = overlap, x, y
    return best


def cocircuit_signature_from_circuits(sig):
    """The unique partner signature on the dual matroid, built cocircuit by
    cocircuit from circuit ratios through a fixed hyperplane basis.

    For a cocircuit D and a maximal independent set A in its complement,
    each pair e, f in D determines a unique circuit inside A + {e, f}; the
    ratio W(e)/W(f) is the negated inverted circuit ratio.  The pairs with
    the least element f0 of D define the representative anchored at
    W(f0) = 1, so they hold by construction; every other pair is checked
    against it.

    Orthogonality pairs a circuit entry with the involution of a cocircuit
    entry, so the ratios are built under the involution; with the identity
    involution this changes nothing.
    """
    hf = sig.hyperfield
    matroid = sig.underlying_matroid()
    pos = sig.ground.index
    full = frozenset(sig.ground.labels)
    vectors = []
    for cocircuit in sorted(cocircuits(matroid), key=lambda c: sorted(map(pos, c))):
        hyperplane_basis = frozenset(greedy(matroid, full - cocircuit))

        def circuit_between(e, f):
            basis = hyperplane_basis | {e}
            circ = matroid.fundamental_circuit(basis, f)
            return class_with_support(sig, circ)

        ordered = sig.ground.sort(cocircuit)
        f0 = ordered[0]
        entries = {f0: hf.one()}
        for e in ordered[1:]:
            rep = circuit_between(e, f0)
            entries[e] = invol(neg(mul(rep.entry(f0), inv(rep.entry(e)))))
        vector = FVector(hf, sig.ground, entries)
        for e, f in combinations(ordered[1:], 2):
            rep = circuit_between(e, f)
            lhs = mul(vector.entry(e), inv(vector.entry(f)))
            rhs = invol(neg(mul(rep.entry(f), inv(rep.entry(e)))))
            if not eq(lhs, rhs):
                raise RatioInconsistencyError(
                    f"cocircuit {list(ordered)} ratios disagree at "
                    f"({e}, {f})")
        vectors.append(vector)
    return CircuitSignature(hf, sig.ground, vectors)


def zero_in_phase_sum(angles):
    """0 in the hypersum of unit vectors at the given angles: each angle
    dropped when it is `angle_close` to one kept before it, then no cyclic
    gap between the kept directions may exceed pi."""
    if not angles:
        return True
    distinct = _phase_distinct(angles)
    if len(distinct) == 1:
        return False
    return _phase_max_gap(distinct) <= math.pi + EPS


def zero_in(hf, payloads):
    """Whether 0 lies in the sum of the payloads, by the family's closed
    form: no nonzero term, or over Krasner and sign two terms that cancel,
    over tropical a tie for the maximum, over triangle no term above the
    sum of the rest (totalled left to right, as the kernel does), over
    phase the greedy test, and a zero sum over the fields."""
    terms = [a for a in payloads if a != hf.zero_payload]
    if not terms:
        return True
    if isinstance(hf, FiniteTable):
        seen = set()
        for x in terms:
            if hf.negative(x) in seen:
                return True
            seen.add(x)
        return False
    if isinstance(hf, Tropical):
        return terms.count(max(terms)) >= 2
    if isinstance(hf, Triangle):
        top = total = 0.0
        for t in terms:
            total += t
            if t > top:
                top = t
        return top - (total - top) <= EPS * top
    if isinstance(hf, Phase):
        return zero_in_phase_sum(terms)
    if isinstance(hf, PrimeField):
        return sum(terms) % hf.p == 0
    return sum(terms) == 0


def zero_in_dot(hf, left, right):
    """Whether 0 lies in the sum of the products a * right[i] over the
    (i, a) of `left` with i in the map `right`: `zero_in` of `product`s,
    the form every family's row kernel must agree with."""
    return zero_in(hf, [hf.product(a, right[i]) for i, a in left if i in right])


def failing_class_by_terms(S, rest, pair, hf):
    """`gp._failing_class` on term lists: per (a, b, c, d) the nonzero
    terms -phi(Sbc) phi(Sad), phi(Sac) phi(Sbd), -phi(Sab) phi(Scd) as
    `product`s of `negative`s, in that order, then `zero_in` of them."""
    product, negative = hf.product, hf.negative
    for a, b, c in combinations(range(len(pair)), 3):
        ab, ac, bc = pair[a][b], pair[a][c], pair[b][c]
        if ab is None and ac is None and bc is None:
            continue
        ab = None if ab is None else negative(ab)
        bc = None if bc is None else negative(bc)
        ad, bd, cd = pair[a], pair[b], pair[c]
        for d in range(c + 1, len(pair)):
            terms = []
            if bc is not None and ad[d] is not None:
                terms.append(product(bc, ad[d]))
            if ac is not None and bd[d] is not None:
                terms.append(product(ac, bd[d]))
            if ab is not None and cd[d] is not None:
                terms.append(product(ab, cd[d]))
            if terms and not zero_in(hf, terms):
                return (tuple(sorted(S + (rest[a], rest[b], rest[c]))),
                        tuple(sorted(S + (rest[d],))))
    return None


def class_with_support(sig, supp):
    """The first class of sig whose support is `supp`; InputError if none."""
    for v in sig.classes:
        if support(v) == supp:
            return v
    raise InputError(f"no representative with support {sorted(supp)}")


def vectors_equal(x, y):
    """Whether two vectors over one hyperfield and ground set have the
    same support and `eq` entries."""
    assert x.hyperfield is y.hyperfield and x.ground == y.ground
    if set(x.entries) != set(y.entries):
        return False
    return all(eq(el, y.entries[label]) for label, el in x.entries.items())


def same_signature(a, b):
    """Whether two signatures carry the same projective classes."""
    if a.hyperfield is not b.hyperfield or a.ground != b.ground:
        return False
    if len(a.classes) != len(b.classes):
        return False
    try:
        return all(projectively_equal(x, class_with_support(b, support(x)))
                   for x in a.classes)
    except InputError:
        return False


def minimal_covectors(sig):
    """Exhaustive dual signature: the minimal-support nonzero vectors of
    F^E orthogonal to every class, one representative per projective
    class.  Enumerates all of F^E, so the hyperfield must be finite and
    the ground set small: the oracle of `cocircuit_signature_from_circuits`."""
    hf = sig.hyperfield
    if math.isinf(hf.size):
        raise InputError(f"{hf} is not finite; cannot enumerate the vectors")
    found = []
    for combo in product(hf.elements(), repeat=len(sig.ground)):
        v = FVector(hf, sig.ground, dict(zip(sig.ground.labels, combo)))
        if v.entries and all(orthogonal(x, v) for x in sig.classes):
            found.append(v)
    return CircuitSignature(hf, sig.ground, supp_min(found))


def identity_hom(hf):
    return HyperfieldHom("identity", hf, hf, lambda a: a)


def padic_abs(q: Fraction, p: int) -> Fraction:
    """p**(-k) for the nonzero rational q, p**k the power of p in q."""
    if not q:
        raise ValueError("0 has no p-adic order")
    value, n, d = Fraction(1), q.numerator, q.denominator
    while n % p == 0:
        n, value = n // p, value / p
    while d % p == 0:
        d, value = d // p, value * p
    return value


def validate_hom(hom, sample_budget=200, seed=0):
    """First violation of the homomorphism rules, or None.

    Exhaustive over finite sources, sampled (seeded) otherwise.  The sum
    rule demands f(z) in f(x) + f(y) for every z in x + y; over infinite
    sources z runs over sampled members of the exact sum set.  The fold
    answers every membership question."""
    src = hom.source
    if not hom(src.zero()).is_zero:
        return {"rule": "zero", "value": hom(src.zero())}
    if not eq(hom(src.one()), hom.target.one()):
        return {"rule": "one", "value": hom(src.one())}
    finite = not math.isinf(src.size)
    if finite:
        pairs = [(x, y) for x in src.elements() for y in src.elements()]
    else:
        rng = random.Random(seed)
        pairs = [(sample_element(src, rng), sample_element(src, rng))
                 for _ in range(sample_budget)]
    for x, y in pairs:
        if not eq(hom(mul(x, y)), mul(hom(x), hom(y))):
            return {"rule": "multiplicative", "x": x, "y": y}
        total, image = fold([x, y]), fold([hom(x), hom(y)])
        if finite:
            members = [z for z in src.elements() if total.contains(z)]
        else:
            members = [HFElement(src, payload) for payload in total.sample()]
        for z in members:
            if not image.contains(hom(z)):
                return {"rule": "sum", "x": x, "y": y, "z": z}
    return None


# quadruples tried first, per family, by `double_distributivity_witness`
DD_PRESETS = {
    Triangle: ((1.0, 2.0, 1.0, 2.0), (1.0, 1.0, 1.0, 1.0), (2.0, 3.0, 1.0, 4.0)),
    Phase: ((1, 4.0 * math.pi / 3.0, 1, 2.0 * math.pi / 3.0), (1, -1, 1, -1),
              (0.3, 0.3 + math.pi, 1.8, 2.9)),
}


def double_distributivity_witness(hf, seed=0, tries=1000):
    """The first quadruple (x, y, z, t), the family's presets first and
    then seeded samples, with (x + y)(z + t) != xz + xt + yz + yt on the
    exact hypersums, or None when none of `tries` is one."""
    rng = random.Random(seed)
    quads = [tuple(hf.element(v) for v in raw) for raw in DD_PRESETS.get(type(hf), ())]
    while len(quads) < tries:
        quads.append(tuple(sample_element(hf, rng) for _ in range(4)))
    for x, y, z, t in quads:
        lhs = fold([x, y]).mul(fold([z, t]))
        if not lhs.equals(fold([mul(x, z), mul(x, t), mul(y, z), mul(y, t)])):
            return x, y, z, t
    return None


def element_from_json(hf, raw, where):
    """The element a JSON value spells, as the parser reads a payload."""
    return HFElement(hf, _payload_from_json(hf, raw, where))


def gp_to_json(phi):
    """The GP function schema from the element view: the values in the
    order of their subsets' ground positions."""
    ground, values = phi.ground, phi.values
    keys = sorted(values, key=lambda key: [ground.index(x) for x in key])
    return {"hyperfield": str(phi.hyperfield), "ground_set": list(ground.labels),
            "rank": phi.rank,
            "values": [{"subset": list(key), "value": element_to_json(values[key])}
                       for key in keys]}


def _is_label_list(raw, labels):
    """Whether `raw` is a JSON list of members of `labels`."""
    if not isinstance(raw, list):
        return False
    try:
        return set(raw) <= labels
    except TypeError:  # a JSON list or object inside is unhashable
        return False


def gp_from_json(raw, where="gp"):
    """The GP reader by the two-pass walk: every value decoded on its
    own into {label tuple: payload}, then the package's `_subset_table`."""
    for field in ("hyperfield", "ground_set", "rank", "values"):
        if field not in raw:
            raise InputError(f"{where}: missing field '{field}'")
    hf = hyperfield_from_id(raw["hyperfield"], f"{where}.hyperfield")
    ground = _parse_ground(raw["ground_set"], f"{where}.ground_set")
    rank = raw["rank"]
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise InputError(f"{where}.rank: expected an integer")
    items = raw["values"]
    if not isinstance(items, list):
        raise InputError(f"{where}.values: expected a list")
    labels = set(ground.labels)
    values = {}
    for i, item in enumerate(items):
        spot = f"{where}.values[{i}]"
        if not isinstance(item, dict) or "subset" not in item or "value" not in item:
            raise InputError(f"{spot}: expected {{'subset': ..., 'value': ...}}")
        subset = item["subset"]
        if not _is_label_list(subset, labels):
            raise InputError(f"{spot}.subset: not a list of ground labels")
        key = tuple(subset)
        if key in values:
            raise InputError(f"{spot}.subset: duplicate subset {subset}")
        values[key] = _payload_from_json(hf, item["value"], f"{spot}.value")
    try:
        table = _subset_table(hf, ground, rank, values)
        return GPFunction._from_table(hf, ground, rank, table)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from None


def _table_from_json(raw, hf, positions, where):
    """{position: payload} in ground order of a JSON FVector, zeros left
    out, given {label string: position}."""
    if not isinstance(raw, dict) or "entries" not in raw:
        raise InputError(f"{where}: expected an object with an 'entries' field")
    if "hyperfield" in raw:
        inner = hyperfield_from_id(raw["hyperfield"], f"{where}.hyperfield")
        if inner is not hf:
            raise InputError(f"{where}.hyperfield: {raw['hyperfield']!r} does "
                             f"not match the enclosing {hf}")
    entries_raw = raw["entries"]
    if not isinstance(entries_raw, dict):
        raise InputError(f"{where}.entries: expected an object")
    table, zero = {}, hf.zero_payload
    for key, value in entries_raw.items():
        if key not in positions:
            raise InputError(f"{where}.entries.{key}: not a ground set label")
        a = _payload_from_json(hf, value, f"{where}.entries.{key}")
        if a != zero:
            table[positions[key]] = a
    return dict(sorted(table.items()))


def signature_from_json(raw, where="signature"):
    """The signature reader by the walk that decodes every entry on its
    own and sorts each class."""
    for field in ("hyperfield", "ground_set", "circuits"):
        if field not in raw:
            raise InputError(f"{where}: missing field '{field}'")
    hf = hyperfield_from_id(raw["hyperfield"], f"{where}.hyperfield")
    ground = _parse_ground(raw["ground_set"], f"{where}.ground_set")
    circuits_raw = raw["circuits"]
    if not isinstance(circuits_raw, list):
        raise InputError(f"{where}.circuits: expected a list")
    positions = {str(label): i for i, label in enumerate(ground.labels)}
    sig = CircuitSignature._from_tables(hf, ground, [
        _table_from_json(item, hf, positions, f"{where}.circuits[{i}]")
        for i, item in enumerate(circuits_raw)])
    if sig.dropped:
        warnings.warn(f"{where}: {sig.dropped} duplicate projective class(es) dropped")
    return sig


def parse_by_walk(raw, where="input"):
    """`serialization.parse_object` on the walking readers."""
    if not isinstance(raw, dict):
        raise InputError(f"{where}: expected a JSON object")
    if "values" in raw and "rank" in raw:
        return gp_from_json(raw, where)
    if "cocircuits" in raw and "circuits" in raw:
        return (signature_from_json(raw["circuits"], f"{where}.circuits"),
                signature_from_json(raw["cocircuits"], f"{where}.cocircuits"))
    if "circuits" in raw:
        return signature_from_json(raw, where)
    raise InputError(f"{where}: shape matches no known schema")


def supp_min(vectors):
    """The members whose support is minimal among the nonzero supports."""
    items = [(v, support(v)) for v in vectors if v.entries]
    return [v for v, s in items if not any(other < s for _, other in items)]


def restrict(x, keep, ground=None):
    """x on the labels of `keep`, over `ground` or the kept labels in order."""
    keep = set(keep)
    if ground is None:
        ground = GroundSet(label for label in x.ground if label in keep)
    return FVector(x.hyperfield, ground,
                   {label: el for label, el in x.entries.items() if label in keep})


def invol(a):
    """The involution of an element (conjugation on phase)."""
    return a if a.is_zero else HFElement(a.hyperfield, a.hyperfield.conjugate(a.value))
