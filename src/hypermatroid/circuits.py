"""Circuit signatures over a hyperfield, and the elimination axiom checkers.

A signature stores one table of payloads per projective class
(`CircuitSignature`), so it is closed under nonzero scaling (C1) by
construction.  All checkers are scale-equivariant, so they pin one
canonical scaling per quantified object instead of ranging over the
(possibly infinite) unit group.

`gp.orthogonality_verdict` decides weakness and strength on the tables.
One lazy walk over the elimination instances, on the classes as FVectors,
only names the witness of `gp.elimination_witness`: the C3' instance of a
signature that is not weak (`check_weak_elimination`), the C3 instance
of a weak-only one (`check_strong_elimination`).  `check_C3_doubleprime`,
a third equivalent criterion, runs in the tests alone.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InputError
from .hyperfields import HFElement, Hyperfield, inv, mul, neg, zero_in_sum
from .matroids import ClassicalMatroid, _labels, _mask, modular_family
from .sumsets import fold
from .vectors import (FVector, GroundSet, _proportional, _table, scalar_mul,
                      support)


class CircuitSignature:
    """A finite family of vectors in F^E, one per projective class.

    Its state is one table per class, in class order: the support mask
    (`_masks`) and {ground position: payload} in ground order
    (`_payloads`), built directly by `serialization.signature_from_json`
    and the cocircuit derivation (`_from_tables`), or read off FVectors by
    the constructor.  A class proportional to a kept one of its support is
    dropped (`dropped` counts them; C1 holds by construction); the first
    support mask two kept classes share, or None, is `shared_support`.
    The FVectors (`classes`) are built on first use or kept from the input.
    """

    def __init__(self, hyperfield: Hyperfield, ground: GroundSet,
                 vectors: Iterable[FVector]):
        vectors = list(vectors)
        if any(v.hyperfield is not hyperfield or v.ground != ground for v in vectors):
            raise InputError("vector over the wrong hyperfield or ground set")
        kept = self._keep(hyperfield, ground, [_table(v) for v in vectors])
        self._classes = tuple(vectors[k] for k in kept)

    @classmethod
    def _from_tables(cls, hyperfield: Hyperfield, ground: GroundSet,
                     tables: List[dict]) -> "CircuitSignature":
        """The signature of {position: nonzero payload} tables in ground order."""
        sig = cls.__new__(cls)
        sig._keep(hyperfield, ground, tables)
        return sig

    def _keep(self, hyperfield: Hyperfield, ground: GroundSet,
              tables: List[dict]) -> List[int]:
        """Set the state from `tables`; the indices of those kept."""
        self.hyperfield, self.ground = hyperfield, ground
        kept, by_support = [], {}  # kept tables by support mask
        for k, table in enumerate(tables):
            same = by_support.setdefault(sum(1 << i for i in table), [])
            if not any(_proportional(hyperfield, table, t) for t in same):
                same.append(table)
                kept.append(k)
        self.dropped = len(tables) - len(kept)
        self.shared_support = next((m for m, same in by_support.items() if len(same) > 1), None)
        self._payloads = tuple(tables[k] for k in kept)
        self._masks = tuple(sum(1 << i for i in table) for table in self._payloads)
        # the index of the first class of each support mask
        self._first_with_support = {m: i for i, m in reversed(list(enumerate(self._masks)))}
        self._classes: Optional[Tuple[FVector, ...]] = None
        self._matroid: Optional[ClassicalMatroid] = None
        return kept

    @property
    def classes(self) -> Tuple[FVector, ...]:
        if self._classes is None:
            hf, labels = self.hyperfield, self.ground.labels
            self._classes = tuple(FVector(hf, self.ground, {
                labels[i]: HFElement(hf, a) for i, a in table.items()})
                for table in self._payloads)
        return self._classes

    def supports(self) -> List[frozenset]:
        return [frozenset(_labels(self.ground, mask)) for mask in self._masks]

    def underlying_matroid(self) -> ClassicalMatroid:
        """The matroid on the supports, built and validated on first use."""
        if self._matroid is None:
            self._matroid = ClassicalMatroid(self.ground, self._masks)
        return self._matroid

    def __repr__(self) -> str:
        return (f"CircuitSignature({self.hyperfield}, |E|={len(self.ground)}, "
                f"classes={len(self._masks)})")


# -- (C0)-(C2) ----------------------------------------------------------------


def check_C0_C2(sig: CircuitSignature) -> Optional[dict]:
    """C0, then C2 on the masks (C1 holds by construction): None, or the
    first zero class or comparable pair in `combinations` order.  The scan
    over every pair is the test oracle `oracles.check_C0_C2`."""
    masks = sig._masks
    if 0 in masks:
        return {"axiom": "C0", "vector": sig.classes[masks.index(0)]}
    for (i, mx), (j, my) in combinations(enumerate(masks), 2):
        if (mx | my) in (mx, my):
            return {"axiom": "C2", "vectors": [sig.classes[i], sig.classes[j]],
                    "reason": "comparable supports in distinct classes"}
    return None


# -- elimination machinery ----------------------------------------------------


def eliminating_circuits(sig: CircuitSignature, terms: Sequence[FVector],
                         zeros_at: Sequence) -> Optional[FVector]:
    """The first signature class Z, in signature order, some nonzero
    multiple of which vanishes on `zeros_at` and has, at every coordinate
    f, 0 in neg(Z(f)) + (hypersum of the terms at f) under the n-ary zero
    rule (see check_C3_doubleprime); None when no class does.  The callers
    only ask whether an eliminating circuit exists (C3 and C3' in
    Baker-Bowler), so the scaled multiple is not built.

    Where the n-ary zero rule is the iterated binary fold (the family's
    `nary_zero_is_fold`, every built-in but phase) that condition is
    exactly "Z(f) lies in the coordinatewise hypersum": the fold is
    associative and reversible.  Phase needs the zero-based reading.  Concretely, the constraint a support
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
    folds = sig.hyperfield.nary_zero_is_fold
    for cand in sig.classes:
        supp = support(cand)
        if not supp or not supp <= union - banned:
            continue
        alpha_set = None
        feasible = True
        for f in sig.ground:
            if f not in union:
                continue
            values = [t.entry(f) for t in terms]
            if f in supp:
                if not folds and zero_in_sum(values):
                    continue
                constraint = fold(values).closure().scale(inv(cand.entry(f)))
                alpha_set = constraint if alpha_set is None else alpha_set.intersect(constraint)
                if alpha_set is None or not alpha_set.has_nonzero():
                    feasible = False
                    break
            elif not zero_in_sum(values):
                feasible = False
                break
        if feasible:
            return cand
    return None


def _scaled_partner(x: FVector, y: FVector, e) -> FVector:
    """y rescaled so that its value at e is the hyperinverse of x's."""
    factor = mul(neg(x.entry(e)), inv(y.entry(e)))
    return scalar_mul(factor, y)


def _failed_eliminations(sig: CircuitSignature, sizes: Iterable[int]
                         ) -> Iterator[Tuple[FVector, List[FVector], list]]:
    """The elimination instances with no eliminating circuit, built and
    checked one at a time in canonical order, for k in `sizes`: a class X,
    k partner classes whose supports form a modular family with X's and do
    not cover it, each scaled to cancel X at its e_i, and distinct e_1..e_k
    with e_i shared by X and the i-th partner only.  At k = 1 the pair
    i < j is taken once, as X = class i: swapping the roles rescales it."""
    matroid = sig.underlying_matroid()
    supports = sig.supports()
    n = len(supports)
    for k in sizes:
        for xi, x_supp in enumerate(supports):
            rest = range(xi + 1, n) if k == 1 else \
                [i for i in range(n) if i != xi]
            for combo in combinations(rest, k):
                other_supps = [supports[i] for i in combo]
                if x_supp <= frozenset().union(*other_supps):
                    continue
                if not modular_family(matroid, [x_supp] + other_supps):
                    continue
                slots = []
                for i, si in enumerate(other_supps):
                    blocked = frozenset().union(
                        *(s for j, s in enumerate(other_supps) if j != i))
                    slots.append(sig.ground.sort((x_supp & si) - blocked))
                x = sig.classes[xi]
                for es in product(*slots):
                    if len(set(es)) < k:
                        continue
                    partners = [_scaled_partner(x, sig.classes[i], e)
                                for i, e in zip(combo, es)]
                    if eliminating_circuits(sig, [x] + partners, es) is None:
                        yield x, partners, list(es)


def check_weak_elimination(sig: CircuitSignature) -> Optional[dict]:
    """Modular-pair elimination (C3'), the first failing instance or None.

    For every modular pair of classes and every shared support element e,
    scalings with X(e) = -Y(e) != 0 are pinned canonically and a signature
    member Z with Z(e) = 0 and Z(f) in X(f) + Y(f) must exist.  C3 on a
    pair of circuits is this axiom.
    """
    for x, (y,), (e,) in _failed_eliminations(sig, [1]):
        return {"axiom": "C3'", "X": x, "Y": y, "e": e}
    return None


def check_strong_elimination(sig: CircuitSignature) -> Optional[dict]:
    """Modular-family elimination (C3) on families of three or more
    circuits, the first failing instance or None.

    For every family {X, X_1..X_k}, k >= 2, whose supports form a modular
    family with the support of X not covered by the others, and every
    valid element list (e_1..e_k), a signature member vanishing on the e_i
    and lying coordinatewise in the hypersum must exist.  C3 on a pair is
    C3', so callers run `check_weak_elimination` first, as
    `gp.elimination_witness` does through orthogonality.
    """
    corank = len(sig.ground) - sig.underlying_matroid().rank()
    sizes = range(2, min(corank, len(sig.classes)))
    for x, partners, es in _failed_eliminations(sig, sizes):
        return {"axiom": "C3", "X": x, "others": partners, "elements": es}
    return None


def check_C3_doubleprime(sig: CircuitSignature) -> Optional[dict]:
    """Fundamental-circuit span: every class, rewritten against every basis
    of the underlying matroid, lies coordinatewise in the hypersum of the
    scaled fundamental-circuit classes.

    Membership of z in a hypersum of terms is read as 0 in neg(z) + terms
    under the n-ary zero rule, as the elimination checkers read it.  Where
    the n-ary sum is the iterated binary fold (every built-in but phase)
    that is membership in the fold, by reversibility.  Over phase it is
    strictly weaker: it also accepts z when 0 lies in the sum of the terms
    alone, and the ends of open arcs; signatures derived from weak-valid
    functions over phase satisfy the axioms only in this form."""
    hf, matroid = sig.hyperfield, sig.underlying_matroid()
    bases = sorted(matroid.bases(),
                   key=lambda b: tuple(sorted(sig.ground.index(x) for x in b)))
    # the rescaled fundamental circuits of each basis, keyed by the
    # labels outside it, built on first use
    by_basis: Dict[frozenset, Dict[object, FVector]] = {}
    for x in sig.classes:
        for basis in bases:
            if basis not in by_basis:
                by_basis[basis] = {}
                for e in sig.ground:
                    if e not in basis:
                        rep = sig.classes[sig._first_with_support[_mask(
                            sig.ground, matroid.fundamental_circuit(basis, e))]]
                        by_basis[basis][e] = scalar_mul(inv(rep.entry(e)), rep)
            fundamentals = by_basis[basis]
            for f in sig.ground:
                terms = [mul(x.entry(e), y.entry(f)).value
                         for e, y in fundamentals.items()
                         if not x.entry(e).is_zero]
                if not hf.zero_in(terms + [neg(x.entry(f)).value]):
                    return {"axiom": "C3''", "X": x,
                            "basis": sig.ground.sort(basis), "f": f}
    return None
