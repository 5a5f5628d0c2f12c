"""Circuit signatures over a hyperfield, and the elimination axiom checkers.

A signature stores one representative vector per projective class; the
closure under nonzero scaling is implicit and scalings are generated on
demand.  All checkers are scale-equivariant, so they pin one canonical
scaling per quantified object instead of ranging over the (possibly
infinite) unit group.

`gp.orthogonality_verdict` decides weakness and strength by orthogonality
with the derived cocircuit signature.  The elimination scans only name
witnesses: `check_weak_elimination` the C3' instance of a signature that
is not weak, `check_strong_elimination` the C3 instance of a weak-only
one.  `check_C3_doubleprime`, a third equivalent criterion, runs in the
tests alone.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InputError
from .hyperfields import (HFElement, Hyperfield, elimination_member, inv, mul,
                          neg, zero_in_sum)
from .matroids import ClassicalMatroid, modular_family, modular_pair
from .search import first_witness
from .sumsets import SumSet, fold
from .vectors import FVector, GroundSet, projectively_equal, scalar_mul, support


class CircuitSignature:
    """A finite family of vectors in F^E, one per projective class."""

    def __init__(self, hyperfield: Hyperfield, ground: GroundSet,
                 vectors: Iterable[FVector], dedup: bool = True):
        self.hyperfield = hyperfield
        self.ground = ground
        kept: List[FVector] = []
        # kept vectors by support: only vectors with equal supports can be
        # projectively equal
        by_support: Dict[frozenset, List[FVector]] = {}
        for v in vectors:
            if v.hyperfield != hyperfield:
                raise InputError("vector over the wrong hyperfield")
            if v.ground != ground:
                raise InputError("vector over the wrong ground set")
            same = by_support.setdefault(support(v), [])
            if dedup and any(projectively_equal(v, u) for u in same):
                continue
            kept.append(v)
            same.append(v)
        self.classes: Tuple[FVector, ...] = tuple(kept)
        self._first_with_support = {supp: same[0] for supp, same in by_support.items()}
        self._matroid: Optional[ClassicalMatroid] = None

    def supports(self) -> List[frozenset]:
        return [support(v) for v in self.classes]

    def underlying_matroid(self) -> ClassicalMatroid:
        """The matroid on the supports, built and validated on first use."""
        if self._matroid is None:
            self._matroid = ClassicalMatroid(self.ground, self.supports())
        return self._matroid

    def class_with_support(self, supp: frozenset) -> FVector:
        """The first class whose support is `supp`."""
        try:
            return self._first_with_support[frozenset(supp)]
        except KeyError:
            raise InputError(f"no representative with support {sorted(supp)}") from None

    def __repr__(self) -> str:
        return (f"CircuitSignature({self.hyperfield.kind}, |E|={len(self.ground)}, "
                f"classes={len(self.classes)})")


def same_signature(a: CircuitSignature, b: CircuitSignature) -> bool:
    """Whether two signatures carry the same projective classes."""
    if a.hyperfield != b.hyperfield or a.ground != b.ground:
        return False
    if len(a.classes) != len(b.classes):
        return False
    try:
        return all(projectively_equal(x, b.class_with_support(support(x)))
                   for x in a.classes)
    except InputError:
        return False


# -- (C0)-(C2) ----------------------------------------------------------------


def check_C0_C2(sig: CircuitSignature) -> Optional[dict]:
    """Zero-freeness, proper projective representation, and support
    incomparability.  Returns None when all hold, else a witness."""
    for v in sig.classes:
        if v.is_zero:
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


# -- elimination machinery ----------------------------------------------------


def _nonzero_member(s: SumSet) -> Optional[HFElement]:
    for payload in s.sample():
        el = HFElement(s.hyperfield, payload)
        if not el.is_zero:
            return el
    return None


def eliminating_circuits(sig: CircuitSignature, terms: Sequence[FVector],
                         zeros_at: Sequence) -> List[FVector]:
    """All signature members Z (concretely scaled) with Z = 0 on `zeros_at`
    and, at every coordinate f, 0 in neg(Z(f)) + (hypersum of the terms at
    f) under the n-ary zero rule (see elimination_member).

    For every built-in hyperfield except phase that condition is exactly
    "Z(f) lies in the coordinatewise hypersum": the fold is associative and
    reversible.  Phase needs the zero-based reading, since its n-ary rule
    is not the iterated binary fold.  Concretely, the constraint a support
    coordinate puts on the candidate's scalar is vacuous when 0 already
    lies in the hypersum of the terms there, and otherwise is the closure
    of the folded sum (ends of open arcs count).

    The scaling freedom of a candidate class is resolved exactly: each
    support coordinate constrains the scalar to a set, and the candidate
    works iff the intersection of those sets has a nonzero member (any
    scalar at all, if every coordinate's constraint is vacuous).
    """
    union = frozenset().union(*(support(t) for t in terms))
    banned = frozenset(zeros_at)
    is_phase = sig.hyperfield.kind == "phase"
    found: List[FVector] = []
    for cand in sig.classes:
        supp = support(cand)
        if not supp or not supp <= union - banned:
            continue
        alpha_set: Optional[SumSet] = None
        feasible = True
        for f in sig.ground:
            if f not in union:
                continue
            values = [t.entry(f) for t in terms]
            if f in supp:
                if is_phase and zero_in_sum(values):
                    continue
                constraint = fold(values).closure().scale(inv(cand.entry(f)))
                alpha_set = constraint if alpha_set is None else alpha_set.intersect(constraint)
                if alpha_set is None or not alpha_set.has_nonzero():
                    feasible = False
                    break
            elif not zero_in_sum(values):
                feasible = False
                break
        if not feasible:
            continue
        if alpha_set is None:
            found.append(cand)
        else:
            alpha = _nonzero_member(alpha_set)
            if alpha is not None:
                found.append(scalar_mul(alpha, cand))
    return found


def _scaled_partner(x: FVector, y: FVector, e) -> FVector:
    """y rescaled so that its value at e is the hyperinverse of x's."""
    factor = mul(neg(x.entry(e)), inv(y.entry(e)))
    return scalar_mul(factor, y)


def check_weak_elimination(sig: CircuitSignature) -> Optional[dict]:
    """Modular-pair elimination.

    For every modular pair of classes and every shared support element e,
    scalings with X(e) = -Y(e) != 0 are pinned canonically and a signature
    member Z with Z(e) = 0 and Z(f) in X(f) + Y(f) must exist.
    """
    matroid = sig.underlying_matroid()
    tasks = []
    for i, j in combinations(range(len(sig.classes)), 2):
        x, y = sig.classes[i], sig.classes[j]
        sx, sy = support(x), support(y)
        if not modular_pair(matroid, sx, sy):
            continue
        for e in sig.ground.sort(sx & sy):
            tasks.append((i, j, e))

    def check(task):
        i, j, e = task
        x = sig.classes[i]
        y = _scaled_partner(x, sig.classes[j], e)
        if eliminating_circuits(sig, [x, y], [e]):
            return None
        return {"axiom": "C3'", "X": x, "Y": y, "e": e}

    return first_witness(tasks, check)


def check_strong_elimination(sig: CircuitSignature) -> Optional[dict]:
    """Modular-family elimination.

    Enumerates families {X, X_1..X_k} of classes whose supports form a
    modular family of size k+1 with the support of X not covered by the
    others, all valid element lists (e_1..e_k), and requires a signature
    member vanishing on the e_i and lying coordinatewise in the hypersum.
    """
    matroid = sig.underlying_matroid()
    corank = len(sig.ground) - matroid.rank()
    limit = min(corank - 1, len(sig.classes) - 1)
    supports = sig.supports()
    index = {i: s for i, s in enumerate(supports)}

    tasks = []
    for k in range(1, limit + 1):
        for xi in range(len(sig.classes)):
            x_supp = index[xi]
            rest = [i for i in range(len(sig.classes)) if i != xi]
            for combo in combinations(rest, k):
                other_supps = [index[i] for i in combo]
                covered = frozenset().union(*other_supps)
                if x_supp <= covered:
                    continue
                if not modular_family(matroid, [x_supp] + other_supps):
                    continue
                slots = []
                ok = True
                for i, si in enumerate(other_supps):
                    others = [s for j, s in enumerate(other_supps) if j != i]
                    blocked = frozenset().union(*others) if others else frozenset()
                    usable = sig.ground.sort((x_supp & si) - blocked)
                    if not usable:
                        ok = False
                        break
                    slots.append(usable)
                if not ok:
                    continue
                for es in product(*slots):
                    if len(set(es)) == len(es):
                        tasks.append((xi, combo, es))

    def check(task):
        xi, combo, es = task
        x = sig.classes[xi]
        partners = [_scaled_partner(x, sig.classes[i], e)
                    for i, e in zip(combo, es)]
        if eliminating_circuits(sig, [x] + partners, list(es)):
            return None
        return {"axiom": "C3", "X": x, "others": partners, "elements": list(es)}

    return first_witness(tasks, check)


def check_C3_doubleprime(sig: CircuitSignature) -> Optional[dict]:
    """Fundamental-circuit span: every class, rewritten against every basis
    of the underlying matroid, lies coordinatewise in the hypersum of the
    scaled fundamental-circuit classes.

    Memberships use the zero-based reading (elimination_member), matching
    the elimination checkers; the readings differ only over phase."""
    matroid = sig.underlying_matroid()
    bases = sorted(matroid.bases(),
                   key=lambda b: tuple(sorted(sig.ground.index(x) for x in b)))
    tasks = [(i, b) for i in range(len(sig.classes)) for b in bases]
    # the rescaled fundamental circuits of each basis, keyed by the
    # labels outside it
    by_basis: Dict[frozenset, Dict[object, FVector]] = {}

    def fundamentals_of(basis):
        if basis not in by_basis:
            found = {}
            for e in sig.ground:
                if e not in basis:
                    rep = sig.class_with_support(
                        matroid.fundamental_circuit(basis, e))
                    found[e] = scalar_mul(inv(rep.entry(e)), rep)
            by_basis[basis] = found
        return by_basis[basis]

    def check(task):
        i, basis = task
        x = sig.classes[i]
        fundamentals = fundamentals_of(basis)
        outside = list(fundamentals)
        for f in sig.ground:
            terms = []
            for e in outside:
                xe = x.entry(e)
                if xe.is_zero:
                    continue
                terms.append(mul(xe, fundamentals[e].entry(f)))
            target = x.entry(f)
            if not elimination_member(target, terms):
                return {"axiom": "C3''", "X": x, "basis": sig.ground.sort(basis),
                        "f": f}
        return None

    return first_witness(tasks, check)
