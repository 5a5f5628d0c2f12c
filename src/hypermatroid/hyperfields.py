"""Built-in hyperfields and their scalar arithmetic.

A hyperfield is a field-like structure whose addition is set-valued: the
hypersum x + y is a non-empty subset of the hyperfield, while multiplication
stays single-valued.  Every element x has a unique hyperinverse -x with
0 in x + (-x), and membership satisfies the reversibility rule
x in y + z  iff  z in x + (-y).

Each family is one class, and each hyperfield one interned instance of it,
so hyperfields compare by identity:

  FiniteTable   KRASNER {0, 1}, 1 + 1 = {0, 1}, and SIGN {-1, 0, 1},
                1 + (-1) = {-1, 0, 1}; int payloads
  Tropical      TROPICAL: nonnegative rationals (Fraction payload),
                multiplicative presentation: x + y = {max} when x != y,
                {c <= x} when x == y
  Triangle      TRIANGLE: nonnegative reals (float payload),
                x + y = [|x-y|, x+y]
  Phase         PHASE (conjugation) and PHASE_PLAIN (identity involution):
                unit circle plus zero (payload None for zero, else an
                angle in [0, 2pi)); x + (-x) = {0, x, -x}, otherwise the
                open shorter arc between x and y
  Rationals     RATIONALS: the field of rationals (Fraction payload)
  PrimeField    gf(p): the prime field GF(p) (int payload mod p)

A family is its payload operations and its codec: payload normalisation,
one interned zero and one, sampling, the JSON codec, its flags, and the
`sumsets` class that represents its hypersums exactly (`sums`).  Its
arithmetic is stated once, on raw payloads: the product of two nonzero
payloads (`product`), the hyperinverse (`negative`), the multiplicative
inverse (`inverse`), the involution (`conjugate`), equality (`equal`), the
closed form for "0 in x1 + ... + xk" (`zero_in`) and membership of a
nonzero payload in a sum (`member_in`).  The circuit/cocircuit pair loops
ask "0 in the sum of the products over the shared positions" once per
pair (`zero_in_dot`), one row lookup per circuit entry: by default
`zero_in` of `product`s, which triangle fuses with the floats of `max` and
`sum`, and phase with exact angles.  The GP relation kernel and the
cocircuit derivation call the payload operations directly.

The element operations are the module functions `mul`, `neg`, `inv`,
`invol`, `eq`, `zero_in_sum` and `member_of_sum`: each checks that its
operands share one hyperfield, handles zero, and calls the family's
payload operation, so elements and payloads share one formula.  The fold
oracle in `sumsets` cross-checks the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import InputError, MismatchError
from .sumsets import (EPS, TAU, ArcSet, FiniteSet, IntervalSet, SumSet,
                      TropicalSet, angle_close, fold, norm_angle)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _padic_abs(q: Fraction, p: int) -> Fraction:
    """p**(-k) for the nonzero rational q, p**k the power of p in q."""
    if not q:
        raise ValueError("0 has no p-adic order")
    value, n, d = Fraction(1), q.numerator, q.denominator
    while n % p == 0:
        n, value = n // p, value / p
    while d % p == 0:
        d, value = d // p, value * p
    return value


def _to_fraction(raw) -> Fraction:
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, float):
        # go through the shortest decimal repr so 0.1 means 1/10
        return Fraction(repr(raw))
    if isinstance(raw, (int, str)):
        return Fraction(raw)
    raise ValueError(f"cannot read a rational from {raw!r}")


def _decimal_string(q: Fraction) -> Optional[str]:
    """Exact decimal form, or None when the expansion does not terminate."""
    places = 0  # the least with q.denominator | 10 ** places, if any
    while 10 ** places % q.denominator:
        if 2 ** places > q.denominator:
            return None
        places += 1
    scaled = q.numerator * 10 ** places // q.denominator
    if places == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


@dataclass(frozen=True)
class HFElement:
    """An element of a hyperfield.  Treat as immutable."""

    hyperfield: "Hyperfield"
    value: object

    @property
    def is_zero(self) -> bool:
        return self.value == self.hyperfield.zero_payload

    def __mul__(self, other: "HFElement") -> "HFElement":
        return mul(self, other)

    def __neg__(self) -> "HFElement":
        return neg(self)

    def __repr__(self) -> str:
        return f"<{self.hyperfield}:{self.value}>"


class Hyperfield:
    """A hyperfield: one interned instance of its family's class.

    A family sets `kind` and `sums`, and implements `normalise` and
    `zero_in`; it operates on payloads only, and the module functions
    (`mul`, `neg`, ...) lift its operations to elements.  The other
    defaults here are products of payloads, hyperinverse -x = x, inverse
    1 / x, the identity involution, equality of payloads, `zero_in_dot` as
    `zero_in` of `product`s (overridden only to fuse the two, with equal
    verdicts), `member_in` by reversibility, and the behaviour of the
    finite families.
    """

    # what the payload of zero equals: 0, or None over phase
    zero_payload: object = 0
    sums = FiniteSet
    is_finite = True
    # whether (a + b)(c + d) = ac + ad + bc + bd; this decides verdicts
    # (weak implies strong, so the checkers skip the full relation scan
    # and full orthogonality), so a wrong True gives wrong answers
    doubly_distributive = True
    # whether 0 in x1 + ... + xk is decided by the left fold of binary sums
    nary_zero_is_fold = True
    # whether the sampler perturbs weak-valid functions by random units
    perturbable = True
    # quadruples tried first when hunting a double distributivity failure
    dd_presets: tuple = ()
    # the corpus entry of a weak-only function over this hyperfield
    weak_only_example: Optional[str] = None

    def __init__(self, name: str):
        self.name = name
        self._zero = HFElement(self, self.normalise(0))
        self._one = HFElement(self, self.normalise(1))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<hyperfield {self.name}>"

    def zero(self) -> HFElement:
        return self._zero

    def one(self) -> HFElement:
        return self._one

    def element(self, raw) -> HFElement:
        """Build an element from a raw payload, validating and normalising."""
        if isinstance(raw, HFElement):
            if raw.hyperfield is not self:
                raise MismatchError(f"element of {raw.hyperfield} given to {self}")
            return HFElement(self, raw.value)
        return HFElement(self, self.normalise(raw))

    def elements(self) -> list:
        """All elements (finite hyperfields only)."""
        raise ValueError(f"{self} is not finite")

    def product(self, a, b):
        """The product of two nonzero payloads."""
        return a * b

    def negative(self, a):
        """The payload of the hyperinverse of a nonzero payload."""
        return a

    def inverse(self, a):
        """The payload of the multiplicative inverse of a nonzero payload."""
        return 1 / a

    def conjugate(self, a):
        """The payload of the involution of a nonzero payload."""
        return a

    def equal(self, a, b) -> bool:
        """Whether two nonzero payloads are the same element."""
        return a == b

    def zero_in_dot(self, left, row: list) -> bool:
        """Whether 0 lies in the sum of the products a * row[i] over the
        (i, a) of `left` (position, nonzero payload) with row[i], read once,
        not None: a row of payloads by position, some position shared."""
        return self.zero_in([self.product(a, b) for i, a in left if (b := row[i]) is not None])

    def member_in(self, z, payloads: list) -> bool:
        """Whether the nonzero payload z lies in the sum of the payloads:
        by default 0 in payloads + (-z), by reversibility."""
        return self.zero_in(payloads + [self.negative(z)])

    def sample(self, rng, nonzero: bool = False) -> HFElement:
        pool = self.elements()
        if nonzero:
            pool = [x for x in pool if not x.is_zero]
        return rng.choice(pool)

    def random_unit(self, rng) -> HFElement:
        """A random unit for the weak-valid sampler's perturbations."""
        return self.sample(rng, nonzero=True)

    def from_rational(self, q: Fraction) -> HFElement:
        """The image of a nonzero rational (the sampler's integer
        determinants): by default its sign, +1 or the hyperinverse of 1."""
        return self._one if q > 0 else neg(self._one)

    def to_json(self, el: HFElement):
        return el.value

    def from_json(self, raw) -> HFElement:
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ValueError(f"expected an integer, got {raw!r}")
        return self.element(raw)


class FiniteTable(Hyperfield):
    """Krasner and sign: a hyperinverse table whose units are pairwise equal
    or inverse, x + (-x) is everything and x + x = {x} otherwise.  So 0 lies
    in a sum iff it has no nonzero term or two terms that cancel."""

    def __init__(self, name: str, negatives: dict):
        self.kind = name
        self._neg = negatives  # the hyperinverse of each nonzero payload
        self._payloads = (0,) + tuple(negatives)
        self.perturbable = len(negatives) > 1  # Krasner has the one unit 1
        super().__init__(name)

    def normalise(self, raw):
        if raw in self._payloads:
            return int(raw)
        *rest, last = sorted(self._payloads)
        allowed = ", ".join(map(str, rest))
        raise ValueError(f"{self} payload must be {allowed} or {last}, got {raw!r}")

    def elements(self) -> list:
        return [self.element(p) for p in self._payloads]

    def add(self, a, b) -> set:
        """The binary hypersum of two payloads."""
        if a == 0:
            return {b}
        if b == 0:
            return {a}
        if b == self._neg[a]:
            return set(self._payloads)
        return {a}

    def negative(self, a):
        return self._neg[a]

    def inverse(self, a):
        return a

    def zero_in(self, payloads: list) -> bool:
        seen = set()
        for x in payloads:
            if x:
                if self._neg[x] in seen:
                    return True
                seen.add(x)
        return not seen


class _Infinite(Hyperfield):
    """A family with infinitely many elements: samples are zero or a unit."""

    is_finite = False

    def sample(self, rng, nonzero: bool = False) -> HFElement:
        if not nonzero and rng.random() < 0.15:
            return self._zero
        return self.sample_unit(rng)


class Tropical(_Infinite):
    kind = "tropical"
    sums = TropicalSet

    def normalise(self, raw):
        value = _to_fraction(raw)
        if value < 0:
            raise ValueError(f"tropical payload must be nonnegative, got {raw!r}")
        return value

    def zero_in(self, payloads: list) -> bool:
        top = max(payloads)
        return top == 0 or payloads.count(top) >= 2

    def sample_unit(self, rng) -> HFElement:
        num = rng.randint(1, 8)
        den = rng.choice([1, 1, 2, 4])
        return self.element(Fraction(num, den))

    def random_unit(self, rng) -> HFElement:
        return self.element(Fraction(2) ** rng.randint(0, 3))

    def from_rational(self, q: Fraction) -> HFElement:
        """The 2-adic absolute value of a nonzero rational."""
        return self.element(_padic_abs(q, 2))

    def to_json(self, el: HFElement):
        return _decimal_string(el.value) or \
            f"{el.value.numerator}/{el.value.denominator}"

    def from_json(self, raw) -> HFElement:
        return self.element(_fraction_from_json(raw))


def _fraction_from_json(raw) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ValueError(f"expected an integer or string, got {raw!r}")
    return Fraction(raw)


class Triangle(_Infinite):
    kind = "triangle"
    sums = IntervalSet
    doubly_distributive = False
    dd_presets = ((1.0, 2.0, 1.0, 2.0), (1.0, 1.0, 1.0, 1.0), (2.0, 3.0, 1.0, 4.0))
    weak_only_example = "triangle-weak-not-strong"

    def normalise(self, raw):
        value = float(raw)
        if not value >= 0 or math.isinf(value) or math.isnan(value):
            raise ValueError(f"triangle payload must be a finite nonnegative number, got {raw!r}")
        return value

    # Both tolerances are relative to the largest value, so scaling every
    # value by one unit changes no verdict; a single term must be 0.
    def equal(self, a, b) -> bool:
        return abs(a - b) <= EPS * max(a, b)

    def zero_in(self, payloads: list) -> bool:
        top = max(payloads)
        return top - (sum(payloads) - top) <= EPS * top

    def zero_in_dot(self, left, row: list) -> bool:
        """`zero_in` of the products in one pass, with its floats: `top` is
        the first largest, as `max` gives, and `total` adds left to right
        from 0.0 as `sum` does from 0 (Python < 3.12), since 0.0 + t is t."""
        top = total = 0.0
        for i, a in left:
            if (b := row[i]) is not None:
                t = a * b
                total += t
                if t > top:
                    top = t
        return top - (total - top) <= EPS * top

    def sample_unit(self, rng) -> HFElement:
        if rng.random() < 0.5:
            # grid values keep degenerate ties likely
            return self.element(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 4.0]) * rng.randint(1, 4))
        return self.element(rng.uniform(0.05, 8.0))

    def random_unit(self, rng) -> HFElement:
        return self.element(float(2 ** rng.randint(0, 3)))

    def from_rational(self, q: Fraction) -> HFElement:
        return self.element(float(abs(q)))

    def to_json(self, el: HFElement):
        return repr(el.value)

    def from_json(self, raw) -> HFElement:
        if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
            raise ValueError(f"expected a number or string, got {raw!r}")
        return self.element(float(raw))


class Phase(_Infinite):
    """The phase hyperfield, with complex conjugation as its involution
    (PHASE) or the identity (PHASE_PLAIN).  Its n-ary sums are not the
    iterated binary fold: 0 lies in x1 + ... + xk iff the directions do
    not fit inside an open half-plane."""

    kind = "phase"
    zero_payload = None
    sums = ArcSet
    doubly_distributive = False
    nary_zero_is_fold = False
    dd_presets = ((1, 4.0 * math.pi / 3.0, 1, 2.0 * math.pi / 3.0),
                  (1, -1, 1, -1),
                  (0.3, 0.3 + math.pi, 1.8, 2.9))
    weak_only_example = "phase-weak-not-strong"

    def __init__(self, conjugate: bool):
        self.conjugates = conjugate
        super().__init__("phase" if conjugate else "phase[identity]")

    def normalise(self, raw):
        """0 (or None) is the zero element, the ints 1 and -1 are the two
        real units, and any other number is an angle in radians."""
        if raw is None:
            return None
        if isinstance(raw, int):
            if raw == 0:
                return None
            if raw == 1:
                return 0.0
            if raw == -1:
                return math.pi
            raise ValueError(f"phase payload must be 0, +-1 or an angle, got {raw!r}")
        value = float(raw)
        if math.isinf(value) or math.isnan(value):
            raise ValueError(f"phase angle must be finite, got {raw!r}")
        if value == 0.0:
            return None
        return norm_angle(value)

    def product(self, a, b):
        return norm_angle(a + b)

    def negative(self, a):
        return norm_angle(a + math.pi)

    def inverse(self, a):
        """`norm_angle(-a)`, except +0.0 for the payload 0.0 of 1, which
        `norm_angle` would return as -0.0."""
        return norm_angle(-a) if a else 0.0

    def conjugate(self, a):
        return self.inverse(a) if self.conjugates else a

    def equal(self, a, b) -> bool:
        return angle_close(a, b)

    def zero_in(self, payloads: list) -> bool:
        return _zero_in_phase_sum([a for a in payloads if a is not None])

    def zero_in_dot(self, left, row: list) -> bool:
        """Each product is bit for bit `norm_angle(a + b)`: both angles lie
        in [0, 2pi), so a + b lies in [0, 4pi), and subtracting 2pi from a
        sum in [2pi, 4pi) is exact (Sterbenz), as `fmod` is."""
        angles = []
        for i, a in left:
            if (b := row[i]) is not None:
                theta = a + b
                if theta >= TAU:
                    theta -= TAU
                angles.append(0.0 if TAU - theta <= EPS else theta)
        return _zero_in_phase_sum(angles)

    def member_in(self, z, payloads: list) -> bool:
        """Tested directly as a positive combination of the nonzero
        payloads, matching the n-ary sum."""
        angles = [a for a in payloads if a is not None]
        return bool(angles) and _phase_nonzero_member(z, angles)

    def sample_unit(self, rng) -> HFElement:
        return self.element(rng.uniform(0.0, TAU) + 1e-3)

    def random_unit(self, rng) -> HFElement:
        angle = rng.uniform(0.0, 6.283)
        return self.element(1) if angle == 0.0 else self.element(angle)

    def to_json(self, el: HFElement):
        return 0 if el.is_zero else {"angle": el.value}

    def from_json(self, raw) -> HFElement:
        if raw == 0 and not isinstance(raw, bool):
            return self._zero
        if isinstance(raw, dict) and set(raw) == {"angle"}:
            angle = raw["angle"]
            if isinstance(angle, bool) or not isinstance(angle, (int, float)):
                raise ValueError(f"angle must be a number, got {angle!r}")
            angle = norm_angle(float(angle))
            return self.element(1) if angle == 0.0 else self.element(angle)
        raise ValueError(f'expected 0 or {{"angle": radians}}, got {raw!r}')


class Rationals(_Infinite):
    kind = "rational"
    perturbable = False  # a random assignment over a field is never weak-valid

    def normalise(self, raw):
        return _to_fraction(raw)

    def add(self, a, b) -> set:
        return {a + b}

    def negative(self, a):
        return -a

    def zero_in(self, payloads: list) -> bool:
        return sum(payloads) == 0

    def sample_unit(self, rng) -> HFElement:
        num = rng.randint(-9, 9) or 1
        return self.element(Fraction(num, rng.randint(1, 9)))

    def from_rational(self, q: Fraction) -> HFElement:
        return self.element(q)

    def to_json(self, el: HFElement):
        return str(el.value)

    def from_json(self, raw) -> HFElement:
        return self.element(_fraction_from_json(raw))


class PrimeField(Hyperfield):
    kind = "gf"
    perturbable = False  # a random assignment over a field is never weak-valid

    def __init__(self, p: int):
        self.p = p
        super().__init__(f"gf({p})")

    def normalise(self, raw):
        if isinstance(raw, Fraction):
            if raw.denominator != 1:
                raise ValueError(f"gf payload must be an integer, got {raw!r}")
            raw = raw.numerator
        if not isinstance(raw, int):
            raise ValueError(f"gf payload must be an integer, got {raw!r}")
        return raw % self.p

    def elements(self) -> list:
        return [self.element(i) for i in range(self.p)]

    def add(self, a, b) -> set:
        return {(a + b) % self.p}

    def product(self, a, b):
        return a * b % self.p

    def negative(self, a):
        return -a % self.p

    def inverse(self, a):
        return pow(a, -1, self.p)

    def zero_in(self, payloads: list) -> bool:
        return sum(payloads) % self.p == 0

    def from_rational(self, q: Fraction) -> HFElement:
        """Numerator times the inverse of the denominator, mod p."""
        if q.denominator % self.p == 0:
            raise InputError(f"{q} has no residue in {self}")
        return self.element(q.numerator * pow(q.denominator, -1, self.p))


# -- the built-in hyperfields ---------------------------------------------

KRASNER = FiniteTable("krasner", {1: 1})
SIGN = FiniteTable("sign", {1: -1, -1: 1})
TROPICAL = Tropical("tropical")
TRIANGLE = Triangle("triangle")
PHASE = Phase(conjugate=True)
PHASE_PLAIN = Phase(conjugate=False)
RATIONALS = Rationals("rational")

_PRIME_FIELDS: dict = {}


def gf(p: int) -> PrimeField:
    """The prime field GF(p), one instance per p."""
    if p not in _PRIME_FIELDS:
        if not _is_prime(p):
            raise ValueError("gf requires a prime modulus")
        _PRIME_FIELDS[p] = PrimeField(p)
    return _PRIME_FIELDS[p]


def phase(involution: str = "conjugation") -> Phase:
    if involution == "conjugation":
        return PHASE
    if involution == "identity":
        return PHASE_PLAIN
    raise ValueError(f"unknown involution {involution!r}")


# -- scalar arithmetic ----------------------------------------------------


def _common(terms: list) -> Hyperfield:
    """The hyperfield of a nonempty list of elements, which must share it."""
    if not terms:
        raise ValueError("empty term list")
    hf = terms[0].hyperfield
    for t in terms:
        if t.hyperfield is not hf:
            raise MismatchError(f"mixed hyperfields {hf} and {t.hyperfield}")
    return hf


def _with_target(z: HFElement, terms: Iterable[HFElement]) -> tuple:
    """(hyperfield, term list) for a membership test of z."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty term list")
    return _common([z] + terms), terms


def mul(a: HFElement, b: HFElement) -> HFElement:
    hf = a.hyperfield
    if b.hyperfield is not hf:
        raise MismatchError(f"mixed hyperfields {hf} and {b.hyperfield}")
    if a.is_zero or b.is_zero:
        return hf._zero
    return HFElement(hf, hf.product(a.value, b.value))


def neg(a: HFElement) -> HFElement:
    """The hyperinverse: the unique b with 0 in a + b."""
    if a.is_zero:
        return a
    value = a.hyperfield.negative(a.value)
    return a if value == a.value else HFElement(a.hyperfield, value)


def inv(a: HFElement) -> HFElement:
    """Multiplicative inverse of a nonzero element."""
    if a.is_zero:
        raise ZeroDivisionError(f"no inverse of zero in {a.hyperfield}")
    return HFElement(a.hyperfield, a.hyperfield.inverse(a.value))


def invol(a: HFElement) -> HFElement:
    """The involution used in inner products (conjugation on phase)."""
    if a.is_zero:
        return a
    value = a.hyperfield.conjugate(a.value)
    return a if value is a.value else HFElement(a.hyperfield, value)


def signed(a: HFElement, parity: int) -> HFElement:
    """(-1)**parity times a."""
    return neg(a) if parity % 2 else a


def eq(a: HFElement, b: HFElement) -> bool:
    """Semantic equality (tolerance-aware on float-backed hyperfields)."""
    hf = a.hyperfield
    if b.hyperfield is not hf:
        raise MismatchError(f"mixed hyperfields {hf} and {b.hyperfield}")
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    return hf.equal(a.value, b.value)


# -- hypersums ------------------------------------------------------------


def fold_sum(terms: Iterable[HFElement]) -> SumSet:
    """The n-ary hypersum as an exact symbolic set (`sumsets.fold`).

    The fold is the ground truth for n-ary sums; `zero_in_sum` and
    `member_of_sum` are closed forms validated against it.
    """
    return fold(list(terms))


def zero_in_sum(terms: Iterable[HFElement]) -> bool:
    """Whether 0 lies in the n-ary hypersum of the terms."""
    terms = list(terms)
    return _common(terms).zero_in([t.value for t in terms])


def member_of_sum(z: HFElement, terms: Iterable[HFElement]) -> bool:
    """Whether z lies in the n-ary hypersum of the terms.

    For reversible hyperfields with associative folds this is the rule
    "z in sum(terms) iff 0 in sum(terms + [-z])"; the phase hyperfield gets
    a direct positive-combination test instead, matching its n-ary sum.
    """
    hf, terms = _with_target(z, terms)
    payloads = [t.value for t in terms]
    if z.is_zero:
        return hf.zero_in(payloads)
    return hf.member_in(z.value, payloads)


def elimination_member(z: HFElement, terms: Iterable[HFElement]) -> bool:
    """Coordinate membership in the form the circuit axiom checkers use:
    0 in neg(z) + terms, under the n-ary zero rule.

    Whenever the n-ary hypersum is the iterated binary fold (every built-in
    except phase) this equals member_of_sum, by reversibility.  Over phase
    the n-ary rule is not the fold and reversibility fails at boundary
    configurations, so this reading is strictly weaker there: it also
    accepts z when 0 lies in the hypersum of the terms alone, and it
    accepts the ends of open arcs.  Signatures derived from weak-valid
    alternating functions over phase satisfy the axioms only in this form.
    """
    hf, terms = _with_target(z, terms)
    return hf.zero_in([t.value for t in terms] + [neg(z).value])


def sample_element(hf: Hyperfield, rng, nonzero: bool = False) -> HFElement:
    """A pseudo-random element, for axiom sampling and property tests."""
    return hf.sample(rng, nonzero)


# -- phase geometry -------------------------------------------------------


def _phase_distinct(angles: list) -> list:
    """The angles, each dropped when it is `angle_close` to one kept
    before it (inlined: this is the inner loop of the phase zero test)."""
    distinct: list = []
    for theta in angles:
        for d in distinct:
            gap = abs(theta - d)
            if gap <= EPS or TAU - gap <= EPS:
                break
        else:
            distinct.append(theta)
    return distinct


def _phase_max_gap(distinct: list):
    """Largest cyclic gap between consecutive directions, with its ends.

    Returns (gap, lo, hi): the uncovered open sector runs counterclockwise
    from lo to hi, so the directions all lie on the closed arc from hi
    counterclockwise back around to lo.
    """
    ordered = sorted(distinct)
    worst = ordered[0] + TAU - ordered[-1]
    lo, hi = ordered[-1], ordered[0]
    for a, b in zip(ordered, ordered[1:]):
        if b - a > worst:
            worst, lo, hi = b - a, a, b
    return worst, lo, hi


def _zero_in_phase_sum(angles: list) -> bool:
    """0 in the hypersum of unit vectors iff 0 is a nonnegative combination
    of them with not all weights zero; equivalently, the distinct directions
    do not all fit inside an open half-plane, i.e. no cyclic gap exceeds pi.

    Sorted first: float differences grow with the exact ones, so when every
    neighbour gap and 2pi minus the widest difference exceed `EPS`, the
    greedy `_phase_distinct` would keep every angle, and the largest gap
    decides at once, in one pass making the comparisons of `min` and `max`;
    otherwise the greedy dedup runs."""
    if len(angles) < 2:
        return not angles
    ordered = sorted(angles)
    if TAU - (ordered[-1] - ordered[0]) > EPS:
        widest, it = ordered[0] + TAU - ordered[-1], iter(ordered)
        a = next(it)
        for b in it:
            gap = b - a
            if gap <= EPS:
                break
            if gap > widest:
                widest = gap
            a = b
        else:
            return widest <= math.pi + EPS
    distinct = _phase_distinct(angles)
    if len(distinct) == 1:
        return False
    worst, _, _ = _phase_max_gap(distinct)
    return worst <= math.pi + EPS


def _phase_nonzero_member(target: float, angles: list) -> bool:
    """Whether the direction `target` is a strictly positive combination of
    the given unit vectors."""
    distinct = _phase_distinct(angles)
    if len(distinct) == 1:
        return angle_close(target, distinct[0])
    worst, lo, hi = _phase_max_gap(distinct)
    if worst < math.pi - EPS:
        # The directions positively span the plane.
        return True
    if worst <= math.pi + EPS:
        # Antipodal extremes; the covered sector is a closed half-plane.
        interior = [
            d for d in distinct
            if not angle_close(d, lo) and not angle_close(d, hi)
        ]
        if not interior:
            return angle_close(target, lo) or angle_close(target, hi)
        return _angle_in_open_arc(target, hi, lo)
    # All directions inside an open half-plane: an open sector, ends excluded.
    return _angle_in_open_arc(target, hi, lo)


def _angle_in_open_arc(theta: float, start: float, end: float) -> bool:
    """Whether theta lies strictly inside the arc running counterclockwise
    from start to end, staying clear of both ends by the tolerance."""
    span = (end - start) % TAU
    offset = (theta - start) % TAU
    return EPS < offset < span - EPS
