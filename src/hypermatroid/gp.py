"""Grassmann-Pluecker functions over a hyperfield.

Values are stored on position-sorted r-subsets only; evaluation on
arbitrary tuples derives the alternating sign.  The relation checkers,
the circuit extraction, and the dual-pair reconstruction all pin
deterministic canonical choices (lexicographic subsets, least anchors,
greedy bases) so outputs and witnesses are reproducible.  `classify`
lives here, next to the cocircuit derivation whose orthogonality with
the circuits decides it.

The relation checkers run a kernel on int masks of ground positions: a
mask-indexed value table gives, once per (r+1)-set I, its nonzero factors
phi(I - i) and, once per (r-1)-set J, its nonzero factors phi(i, J), so
each (I, J) relation multiplies only the pairs of stored values it
meets.  `relation_terms` builds the full term list of a reported witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Dict, Iterable, List, Optional, Sequence

from .circuits import (CircuitSignature, check_C0_C2, check_strong_elimination,
                       check_weak_elimination)
from .errors import (ConsistencyError, GPInconsistencyError, InputError,
                     InvalidDualPairError, RatioInconsistencyError)
from .hyperfields import (HFElement, Hyperfield, eq, inv, invol, mul, neg,
                          signed, zero_in_sum)
from .matroids import ClassicalMatroid, validate_circuits
from .vectors import FVector, GroundSet, orthogonal, support, vectors_equal


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
    """An alternating function from r-tuples of ground labels to F."""

    def __init__(self, hyperfield: Hyperfield, ground: GroundSet, rank: int,
                 values: Dict[tuple, HFElement]):
        if rank < 1 or rank > len(ground):
            raise InputError(f"rank {rank} out of range for |E| = {len(ground)}")
        self.hyperfield = hyperfield
        self.ground = ground
        self.rank = rank
        stored: Dict[tuple, HFElement] = {}
        for key, value in values.items():
            key = tuple(key)
            if len(key) != rank or len(set(key)) != rank:
                raise InputError(f"subset {key} is not an {rank}-set")
            if ground.sort(key) != key:
                raise InputError(f"subset {key} is not in ground order")
            if value.hyperfield != hyperfield:
                raise InputError("value over the wrong hyperfield")
            if not value.is_zero:
                stored[key] = value
        if not stored:
            raise InputError("identically zero (GP1 fails)")
        self.values = stored
        self._matroid: Optional[ClassicalMatroid] = None
        self._exchange: object = _UNCHECKED

    def value(self, subset: Iterable) -> HFElement:
        """The stored value on an unordered r-set of distinct labels."""
        key = self.ground.sort(subset)
        if len(key) != self.rank:
            raise InputError(f"expected {self.rank} distinct labels, got {key}")
        return self.values.get(key, self.hyperfield.zero())

    def evaluate(self, labels: Sequence) -> HFElement:
        """Alternating evaluation on an arbitrary tuple."""
        labels = tuple(labels)
        if len(labels) != self.rank:
            raise InputError(f"expected arity {self.rank}, got {len(labels)}")
        if len(set(labels)) != len(labels):
            return self.hyperfield.zero()
        positions = [self.ground.index(x) for x in labels]
        key = tuple(self.ground.labels[i] for i in sorted(positions))
        value = self.values.get(key)
        if value is None:
            return self.hyperfield.zero()
        return signed(value, _perm_parity(positions))

    def __call__(self, *labels) -> HFElement:
        return self.evaluate(labels)

    def bases_support(self) -> frozenset:
        return frozenset(frozenset(k) for k in self.values)

    def underlying_matroid(self) -> ClassicalMatroid:
        """The matroid on the support, built and validated on first use."""
        if self._matroid is None:
            self._matroid = ClassicalMatroid.from_bases(self.ground, self.bases_support())
        return self._matroid

    def scale(self, alpha: HFElement) -> "GPFunction":
        if alpha.is_zero:
            raise InputError("scaling by zero")
        return GPFunction(self.hyperfield, self.ground, self.rank,
                          {k: mul(alpha, v) for k, v in self.values.items()})

    def __repr__(self) -> str:
        return (f"GPFunction({self.hyperfield.kind}, |E|={len(self.ground)}, "
                f"rank={self.rank}, support={len(self.values)})")


def equivalent_gp(phi1: GPFunction, phi2: GPFunction) -> bool:
    """Whether phi1 is a global nonzero multiple of phi2."""
    if (phi1.hyperfield, phi1.ground, phi1.rank) != \
            (phi2.hyperfield, phi2.ground, phi2.rank):
        return False
    if set(phi1.values) != set(phi2.values):
        return False
    anchor = min(phi1.values, key=lambda k: tuple(map(phi1.ground.index, k)))
    alpha = mul(phi1.values[anchor], inv(phi2.values[anchor]))
    return all(eq(v, mul(alpha, phi2.values[k])) for k, v in phi1.values.items())


# -- relations ---------------------------------------------------------------


def _mask(ground: GroundSet, labels: Iterable) -> int:
    """The int mask of the labels' ground positions."""
    return sum(1 << ground.index(x) for x in labels)


def _first_exchange_failure(phi: GPFunction) -> Optional[dict]:
    """Scans (B1, B2, x) with B1, B2 in the lex order of their ground
    positions and x in B1 - B2 in ground order.  For each B1 and x it first
    collects the y for which B1 - x + y is a basis, so each (B1, B2, x) is
    one mask test."""
    pos = phi.ground.index
    bases = [(key, _mask(phi.ground, key))
             for key in sorted(phi.values, key=lambda k: tuple(map(pos, k)))]
    masks = {m for _, m in bases}
    n = len(phi.ground)
    for b1, m1 in bases:
        outside = [y for y in range(n) if not (m1 >> y) & 1]
        swaps = {x: sum(1 << y for y in outside
                        if (m1 ^ (1 << x)) | (1 << y) in masks)
                 for x in range(n) if (m1 >> x) & 1}
        for b2, m2 in bases:
            for x, ys in swaps.items():
                if not (m2 >> x) & 1 and not ys & m2:
                    return {"axiom": "exchange", "B1": b1, "B2": b2,
                            "x": phi.ground.labels[x]}
    return None


def _exchange_witness(phi: GPFunction) -> Optional[dict]:
    """Basis-exchange failure in the support, or None; the scan runs once
    per function, which never changes."""
    if phi._exchange is _UNCHECKED:
        phi._exchange = _first_exchange_failure(phi)
    return None if phi._exchange is None else dict(phi._exchange)


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


def failing_relation(phi: GPFunction, three_term_only: bool) -> Optional[dict]:
    """The first (I, J) whose relation fails, as a witness, or None.

    Pairs come in the order of `combinations` over the ground order, I
    outer and J inner; `three_term_only` keeps the pairs with |I - J| = 3.
    A term vanishes unless phi(I - i) and phi(i, J) are both nonzero, and
    dropping zero terms never changes `zero_in_sum` (0 is the additive
    identity; an all-zero sum contains 0), so only the nonzero products
    are formed, in the order and with the signs `relation_terms` uses.
    """
    table = {_mask(phi.ground, key): value for key, value in phi.values.items()}
    r = phi.rank
    positions = range(len(phi.ground))
    lefts = []
    for I in combinations(positions, r + 1):
        mask = sum(1 << i for i in I)
        factors = [(i, k, table[mask ^ (1 << i)])
                   for k, i in enumerate(I, start=1)
                   if mask ^ (1 << i) in table]
        if factors:
            lefts.append((I, mask, factors))
    rights = []
    for J in combinations(positions, r - 1):
        mask = sum(1 << j for j in J)
        factors = {x: signed(table[mask | (1 << x)],
                             (mask & ((1 << x) - 1)).bit_count())
                   for x in positions
                   if not (mask >> x) & 1 and mask | (1 << x) in table}
        if factors:
            rights.append((J, mask, factors))
    for I, imask, left in lefts:
        for J, jmask, right in rights:
            if three_term_only and (imask & ~jmask).bit_count() != 3:
                continue
            terms = [signed(mul(value, right[i]), k)
                     for i, k, value in left if i in right]
            if terms and not zero_in_sum(terms):
                labels = phi.ground.labels
                I = tuple(labels[i] for i in I)
                J = tuple(labels[j] for j in J)
                return {"axiom": "GP3'" if three_term_only else "GP3",
                        "I": I, "J": J,
                        "terms": relation_terms(phi, I, J)}
    return None


def check_gp_weak(phi: GPFunction) -> Optional[dict]:
    """Three-term relations (pairs with |I - J| = 3) plus basis exchange
    on the support."""
    return _exchange_witness(phi) or failing_relation(phi, True)


def check_gp_strong(phi: GPFunction) -> Optional[dict]:
    """The full relation family, over all (I, J) pairs."""
    return _exchange_witness(phi) or failing_relation(phi, False)


# -- circuits from a GP function ----------------------------------------------


def _circuit_from_basis(phi: GPFunction, circuit: frozenset, x0, basis: tuple) -> FVector:
    """The circuit vector anchored at X(x0) = 1, computed against one basis
    containing the circuit minus its anchor."""
    hf = phi.hyperfield
    denom = inv(phi.value(basis))
    entries = {x0: hf.one()}
    for i, xi in enumerate(basis, start=1):
        if xi not in circuit:
            continue
        rest = tuple(b for b in basis if b != xi)
        val = signed(mul(phi.evaluate((x0,) + rest), denom), i)
        if val.is_zero:
            raise GPInconsistencyError(
                f"vanishing value at {xi} inside circuit {sorted(circuit)}")
        entries[xi] = val
    return FVector(hf, phi.ground, entries)


def circuits_from_gp(phi: GPFunction) -> CircuitSignature:
    """One representative per circuit of the underlying matroid, anchored
    at value 1 on the circuit's least element.

    Well-definedness across the choice of completing basis is asserted by
    recomputing against a second basis whenever one exists.  The two
    bases are the first ones containing the circuit minus its anchor, in
    the lex order of their ground positions.
    """
    matroid = phi.underlying_matroid()
    pos = phi.ground.index
    vectors = []
    for circuit in sorted(matroid.circuits, key=lambda c: sorted(map(pos, c))):
        x0 = min(circuit, key=pos)
        carriers = list(islice(matroid.bases_containing(circuit - {x0}), 2))
        vector = _circuit_from_basis(phi, circuit, x0, carriers[0])
        if len(carriers) > 1:
            again = _circuit_from_basis(phi, circuit, x0, carriers[1])
            if not vectors_equal(vector, again):
                raise GPInconsistencyError(
                    f"circuit {sorted(circuit)} depends on the completing basis")
        vectors.append(vector)
    return CircuitSignature(phi.hyperfield, phi.ground, vectors)


# -- cocircuits from circuits -------------------------------------------------


def cocircuit_signature_from_circuits(sig: CircuitSignature) -> CircuitSignature:
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
    for cocircuit in sorted(matroid.cocircuits(), key=lambda c: sorted(map(pos, c))):
        hyperplane_basis = frozenset(matroid.max_independent(full - cocircuit))

        def circuit_between(e, f):
            basis = hyperplane_basis | {e}
            circ = matroid.fundamental_circuit(basis, f)
            return sig.class_with_support(circ)

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
                    f"cocircuit {sorted(cocircuit)} ratios disagree at "
                    f"({e}, {f})")
        vectors.append(vector)
    return CircuitSignature(hf, sig.ground, vectors)


# -- GP function from a dual pair ---------------------------------------------


def _signature_of(sig: CircuitSignature, matroid: ClassicalMatroid) -> bool:
    if check_C0_C2(sig) is not None:
        return False
    return frozenset(sig.supports()) == matroid.circuits


def dual_pair_witness(C: CircuitSignature, D: CircuitSignature,
                      max_overlap: Optional[int] = None) -> Optional[dict]:
    """First failure of the dual-pair requirements, or None.

    `max_overlap` bounds the support overlap for the orthogonality clause
    (3 for the weak form, None for the full form).
    """
    try:
        matroid = C.underlying_matroid()
    except InputError:
        return {"axiom": "DP1", "reason": "supports are not matroid circuits"}
    if not _signature_of(C, matroid):
        return {"axiom": "DP1", "reason": "not a signature of a matroid"}
    if not _signature_of(D, matroid.dual()):
        return {"axiom": "DP2", "reason": "not a signature of the dual matroid"}
    for x in C.classes:
        for y in D.classes:
            if max_overlap is not None and \
                    len(support(x) & support(y)) > max_overlap:
                continue
            if not orthogonal(x, y):
                return {"axiom": "DP3" if max_overlap is None else "DP3'",
                        "X": x, "Y": y}
    return None


def gp_from_dual_pair(C: CircuitSignature, D: CircuitSignature,
                      _check: bool = True) -> GPFunction:
    """Reconstruct the function whose circuit signature is C, from a weak
    dual pair (C, D).

    Walks the basis-exchange graph from the lexicographically least basis
    (pinned to value 1); each exchange edge determines the value ratio
    through the circuit crossing it.  Revisits must agree, weak relations
    must hold afterwards, and when (C, D) is a full dual pair the strong
    relations are verified too.
    """
    problem = dual_pair_witness(C, D, max_overlap=3)
    if problem is not None:
        raise InvalidDualPairError(str(problem))
    hf = C.hyperfield
    ground = C.ground
    pos = ground.index
    matroid = C.underlying_matroid()
    bases = sorted(matroid.bases(), key=lambda b: sorted(map(pos, b)))
    root = bases[0]
    values: Dict[tuple, HFElement] = {ground.sort(root): hf.one()}
    queue = [frozenset(root)]
    while queue:
        basis = queue.pop(0)
        key = ground.sort(basis)
        current = values[key]
        sorted_basis = list(key)
        for e in ground:
            if e in basis:
                continue
            circ = matroid.fundamental_circuit(basis, e)
            rep = C.class_with_support(circ)
            for f in ground.sort(circ - {e}):
                new_basis = (basis - {f}) | {e}
                sign1 = sorted_basis.index(f)
                new_key = ground.sort(new_basis)
                sign2 = new_key.index(e)
                ratio = neg(mul(rep.entry(f), inv(rep.entry(e))))
                value = signed(mul(ratio, current), sign1 + sign2)
                if new_key in values:
                    if not eq(values[new_key], value):
                        raise InvalidDualPairError(
                            f"inconsistent exchange cycle at basis {new_key}")
                else:
                    values[new_key] = value
                    queue.append(new_basis)
    phi = GPFunction(hf, ground, matroid.rank(), values)
    if _check:
        witness = check_gp_weak(phi)
        if witness is not None:
            raise InvalidDualPairError(f"reconstruction is not weak-valid: {witness}")
        if dual_pair_witness(C, D, max_overlap=None) is None:
            witness = check_gp_strong(phi)
            if witness is not None:
                raise InvalidDualPairError(
                    f"full dual pair gave a non-strong function: {witness}")
    return phi


# -- classification ----------------------------------------------------------


@dataclass
class Classification:
    verdict: str  # InvalidSignature | UnderlyingNotMatroid | WeakOnly | Strong
    witness: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.verdict == "Strong"


def orthogonality_verdict(sig: CircuitSignature) -> Classification:
    """Strong, WeakOnly or InvalidSignature for a signature that satisfies
    C0-C2 and whose supports are the circuits of a matroid.

    Weak signatures are the circuit sides of weak dual pairs, strong ones
    those of full dual pairs (Baker-Bowler), and the only candidate
    partner is the cocircuit signature D derived from circuit ratios.  So
    the signature is not weak when D cannot be derived consistently or a
    circuit X and a cocircuit Y with |X & Y| <= 3 are not orthogonal, and
    it is strong when every pair is orthogonal.  One pass over C x D
    decides; after the first non-orthogonal pair with a larger overlap it
    checks only the pairs with overlap at most 3.

    The elimination scans only name the witness: modular-pair elimination
    C3' for InvalidSignature, modular-family elimination C3 for WeakOnly.
    A scan that finds none would contradict the theorem and raises.
    """
    try:
        cocircuits = [(y, support(y)) for y in
                      cocircuit_signature_from_circuits(sig).classes]
    except RatioInconsistencyError:
        weak, strong = False, False
    else:
        weak, strong = True, True
        for x in sig.classes:
            sx = support(x)
            for y, sy in cocircuits:
                small = len(sx & sy) <= 3
                if (strong or small) and not orthogonal(x, y):
                    strong = False
                    if small:
                        weak = False
                        break
            if not weak:
                break
    if strong:
        return Classification("Strong")
    if weak:
        verdict, witness = "WeakOnly", check_strong_elimination(sig)
    else:
        verdict, witness = "InvalidSignature", check_weak_elimination(sig)
    if witness is None:
        raise ConsistencyError(
            f"orthogonality with the derived cocircuits makes the signature "
            f"{verdict}, but elimination finds no failing instance")
    return Classification(verdict, witness)


def classify(sig: CircuitSignature) -> Classification:
    """The verdict on a circuit signature, with its witness.

    In order: the support axioms C0-C2 (InvalidSignature), the circuit
    axioms of the supports (UnderlyingNotMatroid), then orthogonality with
    the derived cocircuit signature (`orthogonality_verdict`), which
    decides between InvalidSignature, WeakOnly and Strong.
    """
    basic = check_C0_C2(sig)
    if basic is not None:
        return Classification("InvalidSignature", basic)
    violation = validate_circuits(sig.ground, sig.supports())
    if violation is not None:
        return Classification("UnderlyingNotMatroid",
                              {"axiom": "underlying", **violation.as_json()})
    return orthogonality_verdict(sig)
