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
one interned zero and one, sampling, the JSON codec of payloads
(`encode`, `decode`), its flags, and the `sumsets` class that represents
its hypersums exactly (`sums`).  Its arithmetic is stated once, on raw
payloads: the product of two nonzero payloads (`product`), the
hyperinverse (`negative`), the multiplicative inverse (`inverse`), the
involution (`conjugate`), equality (`equal`) and the null set, as the
kernel that every GP relation test asks, "0 in the sum of the products
over the shared positions" (`zero_in_dot`), one row lookup per left
entry: the circuit/cocircuit pair loops once per pair, and the
three-term scan once per relation, its left side per (a, b, c) and a
row per d.  Krasner and sign cancel on the fly, tropical keeps a running
maximum and its count, triangle left-to-right floats, and phase exact
angles and a gap test.  "0 in x1 + ... + xk" (`zero_in`) is derived
once: the kernel against the payload of 1, since x * 1 is x bit for
bit.  The cocircuit derivation calls the payload operations directly.

The element operations are the module functions `mul`, `neg`, `inv`,
`eq` and `zero_in_sum`: each checks that its operands share one
hyperfield, handles zero, and calls the family's payload operation, so
elements and payloads share one formula.  The exact hypersums of
`sumsets` (`sums`, `sumsets.fold`) serve only the elimination witnesses
(`circuits.eliminating_circuits`) at run time; the tests cross-check the
null sets against them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

from .errors import InputError, MismatchError
from .sumsets import (EPS, TAU, ArcSet, FiniteSet, IntervalSet, TropicalSet,
                      angle_close, norm_angle)


# Miller-Rabin to these bases decides primality exactly below the bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 86 (2017)); the bound itself is a strong pseudoprime to all of them
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; InputError for
    an n at or above `_PRIME_BOUND`, which those bases do not decide."""
    if n >= _PRIME_BOUND:
        raise InputError(f"modulus {n} is too large: primality is decided "
                         f"below {_PRIME_BOUND}")
    if n < 2 or any(n % p == 0 for p in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


# the largest decimal exponent a string payload may carry, Python's default
# bound on the digits of an int read from a string: `Fraction` builds
# 10**exponent, which takes unbounded time and memory past it
_MAX_EXPONENT = 4300


def _check_exponent(text: str) -> None:
    """ValueError for a decimal string, such as "1e1000000000", whose
    exponent exceeds `_MAX_EXPONENT` in absolute value; callers pass only
    strings holding an "e" or "E"."""
    exponent = text.lower().partition("e")[2].strip().lstrip("+-")
    if exponent.replace("_", "").isdigit() and int(exponent) > _MAX_EXPONENT:
        raise ValueError(f"decimal exponent beyond {_MAX_EXPONENT} "
                         f"in absolute value: {text!r}")


def _to_fraction(raw) -> Fraction:
    if isinstance(raw, Fraction):
        return raw
    if isinstance(raw, float):
        # go through the shortest decimal repr so 0.1 means 1/10
        return Fraction(repr(raw))
    if isinstance(raw, str) and ("e" in raw or "E" in raw):
        _check_exponent(raw)
    if isinstance(raw, (int, str)):
        return Fraction(raw)
    raise ValueError(f"cannot read a rational from {raw!r}")


def _digits(n: int) -> str:
    """str(n), also past Python's limit on the digits it writes."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal
        return str(Decimal(n))


def _ratio_string(q: Fraction) -> str:
    return _digits(q.numerator) + ("" if q.denominator == 1 else f"/{_digits(q.denominator)}")


def _decimal_string(q: Fraction) -> Optional[str]:
    """Exact decimal form, or None when the denominator is not 2^a 5^b."""
    twos = (q.denominator & -q.denominator).bit_length() - 1
    fives = round(math.log(q.denominator >> twos, 5))
    if 5 ** fives != q.denominator >> twos:
        return None
    places = max(twos, fives)
    scaled = q.numerator * 10 ** places // q.denominator
    if places == 0:
        return _digits(scaled)
    sign = "-" if scaled < 0 else ""
    digits = _digits(abs(scaled)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


class HFElement:
    """An element of a hyperfield.  Treat as immutable: equal and hashed by
    (hyperfield, value)."""

    __slots__ = ("hyperfield", "value")

    def __init__(self, hyperfield: "Hyperfield", value: object):
        self.hyperfield = hyperfield
        self.value = value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.hyperfield, self.value) == (other.hyperfield, other.value)

    def __hash__(self) -> int:
        return hash((self.hyperfield, self.value))

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

    A family sets `sums`, and implements `normalise` and its
    null set `zero_in_dot(left, row)`: whether 0 lies in the sum of the
    products a * row[i] over the (i, a) of `left` (position, nonzero
    payload) with row[i], read once, not None.  It operates on payloads
    only, and the module functions (`mul`, `neg`, ...) lift its operations
    to elements.  `zero_in` derives from `zero_in_dot`.  The other
    defaults here are products of payloads, hyperinverse -x = x, inverse
    1 / x, the identity involution, equality of payloads, and the
    behaviour of the finite families.
    """

    # what the payload of zero equals: 0, or None over phase
    zero_payload: object = 0
    sums = FiniteSet
    # the number of elements: math.inf for the infinite families
    size: float
    # whether (a + b)(c + d) = ac + ad + bc + bd; this decides verdicts
    # (weak implies strong, so the checkers skip the full relation scan
    # and full orthogonality), so a wrong True gives wrong answers
    doubly_distributive = True
    # whether 0 in x1 + ... + xk is decided by the left fold of binary sums
    nary_zero_is_fold = True
    # whether the sampler perturbs weak-valid functions by random units
    perturbable = True
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

    def zero_in(self, payloads: list) -> bool:
        """Whether 0 lies in the sum of the payloads: `zero_in_dot` of the
        nonzero ones against the payload of 1, since x * 1 is x bit for
        bit and the kernels keep the order of the terms."""
        zero = self.zero_payload
        return self.zero_in_dot([(0, a) for a in payloads if a != zero], [self._one.value])

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

    def encode(self, a):
        """The JSON form of a payload."""
        return a

    def decode(self, raw):
        """The payload a JSON value spells; ValueError when it spells none."""
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ValueError(f"expected an integer, got {raw!r}")
        return self.normalise(raw)


class FiniteTable(Hyperfield):
    """Krasner and sign: a hyperinverse table whose units are pairwise equal
    or inverse, x + (-x) is everything and x + x = {x} otherwise.  So 0 lies
    in a sum iff it has no nonzero term or two terms that cancel."""

    def __init__(self, name: str, negatives: dict):
        self._neg = negatives  # the hyperinverse of each nonzero payload
        self._payloads = (0,) + tuple(negatives)
        self.size = len(self._payloads)
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

    def zero_in_dot(self, left, row: list) -> bool:
        """One pass, stopping at the first product that cancels one before."""
        negative, seen = self._neg, set()
        for i, a in left:
            if (b := row[i]) is not None:
                t = a * b
                if negative[t] in seen:
                    return True
                seen.add(t)
        return not seen


class _Infinite(Hyperfield):
    """A family with infinitely many elements: samples are zero or a unit,
    and JSON spells a rational payload, an integer or a string."""

    size = math.inf

    def sample(self, rng, nonzero: bool = False) -> HFElement:
        if not nonzero and rng.random() < 0.15:
            return self._zero
        return self.sample_unit(rng)

    def decode(self, raw):
        if isinstance(raw, bool) or not isinstance(raw, (int, str)):
            raise ValueError(f"expected an integer or string, got {raw!r}")
        if isinstance(raw, str) and ("e" in raw or "E" in raw):
            _check_exponent(raw)
        return self.normalise(Fraction(raw))


class Tropical(_Infinite):
    sums = TropicalSet

    def normalise(self, raw):
        value = _to_fraction(raw)
        if value < 0:
            raise ValueError(f"tropical payload must be nonnegative, got {raw!r}")
        return value

    def zero_in_dot(self, left, row: list) -> bool:
        """The products' running maximum and how often it occurs."""
        top = ties = 0
        for i, a in left:
            if (b := row[i]) is not None:
                t = a * b
                if t > top:
                    top, ties = t, 1
                elif t == top:
                    ties += 1
        return top == 0 or ties >= 2

    def sample_unit(self, rng) -> HFElement:
        num = rng.randint(1, 8)
        den = rng.choice([1, 1, 2, 4])
        return self.element(Fraction(num, den))

    def random_unit(self, rng) -> HFElement:
        return self.element(Fraction(2) ** rng.randint(0, 3))

    def from_rational(self, q: Fraction) -> HFElement:
        """The 2-adic absolute value of a nonzero rational."""
        return self.element(_padic_abs(q, 2))

    def encode(self, a):
        return _decimal_string(a) or _ratio_string(a)


class Triangle(_Infinite):
    sums = IntervalSet
    doubly_distributive = False
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

    def zero_in_dot(self, left, row: list) -> bool:
        """`total` adds left to right: from Python 3.12 `sum` compensates
        float rounding, which could move a verdict at the tolerance."""
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

    def encode(self, a):
        return repr(a)

    def decode(self, raw):
        if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
            raise ValueError(f"expected a number or string, got {raw!r}")
        return self.normalise(float(raw))


class Phase(_Infinite):
    """The phase hyperfield, with complex conjugation as its involution
    (PHASE) or the identity (PHASE_PLAIN).  Its n-ary sums are not the
    iterated binary fold: 0 lies in x1 + ... + xk iff the directions do
    not fit inside an open half-plane."""

    zero_payload = None
    sums = ArcSet
    doubly_distributive = False
    nary_zero_is_fold = False
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

    def zero_in_dot(self, left, row: list) -> bool:
        """The gap test on the products (`_phase_products`), sorted: float
        differences grow with the exact ones, so when every neighbour gap
        is 0.0 or exceeds `EPS`, and so does 2pi minus the widest
        difference, the greedy `_phase_distinct` would keep one copy of
        each distinct angle, in any input order, and the widest gap
        decides.  Otherwise the greedy dedup does, on the products formed
        again in the order of `left`, read twice then (a list or a view)."""
        angles = _phase_products(left, row)
        if len(angles) < 2:
            return not angles
        angles.sort()
        a, hi = angles[0], angles[-1]
        if TAU - (hi - a) > EPS:
            widest = a + TAU - hi
            for b in angles[1:]:
                gap = b - a
                if gap == 0.0:  # an exact repeat, as over the reals
                    continue
                if gap <= EPS:
                    break
                if gap > widest:
                    widest = gap
                a = b
            else:
                return widest <= math.pi + EPS
        distinct = _phase_distinct(_phase_products(left, row))
        return len(distinct) > 1 and _phase_max_gap(distinct) <= math.pi + EPS

    def sample_unit(self, rng) -> HFElement:
        return self.element(rng.uniform(0.0, TAU) + 1e-3)

    def random_unit(self, rng) -> HFElement:
        angle = rng.uniform(0.0, 6.283)
        return self.element(1) if angle == 0.0 else self.element(angle)

    def encode(self, a):
        return 0 if a is None else {"angle": a}

    def decode(self, raw):
        if raw == 0 and not isinstance(raw, bool):
            return None
        if isinstance(raw, dict) and set(raw) == {"angle"}:
            angle = raw["angle"]
            if isinstance(angle, bool) or not isinstance(angle, (int, float)):
                raise ValueError(f"angle must be a number, got {angle!r}")
            angle = norm_angle(float(angle))
            return self.normalise(1 if angle == 0.0 else angle)
        raise ValueError(f'expected 0 or {{"angle": radians}}, got {raw!r}')


class Rationals(_Infinite):
    perturbable = False  # a random assignment over a field is never weak-valid

    def normalise(self, raw):
        return _to_fraction(raw)

    def add(self, a, b) -> set:
        return {a + b}

    def negative(self, a):
        return -a

    def zero_in_dot(self, left, row: list) -> bool:
        return sum(a * b for i, a in left if (b := row[i]) is not None) == 0

    def sample_unit(self, rng) -> HFElement:
        num = rng.randint(-9, 9) or 1
        return self.element(Fraction(num, rng.randint(1, 9)))

    def from_rational(self, q: Fraction) -> HFElement:
        return self.element(q)

    def encode(self, a):
        return _ratio_string(a)


class PrimeField(Hyperfield):
    perturbable = False  # a random assignment over a field is never weak-valid

    def __init__(self, p: int):
        self.p = self.size = p
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

    def sample(self, rng, nonzero: bool = False) -> HFElement:
        """The draw `rng.choice` makes on `elements()`, without listing them."""
        return self.element(rng.randrange(1 if nonzero else 0, self.p))

    def add(self, a, b) -> set:
        return {(a + b) % self.p}

    def product(self, a, b):
        return a * b % self.p

    def negative(self, a):
        return -a % self.p

    def inverse(self, a):
        return pow(a, -1, self.p)

    def zero_in_dot(self, left, row: list) -> bool:
        return sum(a * b for i, a in left if (b := row[i]) is not None) % self.p == 0

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


def zero_in_sum(terms: Iterable[HFElement]) -> bool:
    """Whether 0 lies in the n-ary hypersum of the terms."""
    terms = list(terms)
    return _common(terms).zero_in([t.value for t in terms])


def sample_element(hf: Hyperfield, rng, nonzero: bool = False) -> HFElement:
    """A pseudo-random element, for the perfection sweep and property tests."""
    return hf.sample(rng, nonzero)


# -- phase geometry -------------------------------------------------------


def _phase_products(left, row: list) -> list:
    """The angles of the products a * row[i] over the (i, a) of `left` with
    row[i] not None, in that order.  Each is bit for bit `norm_angle(a +
    b)`: both angles lie in [0, 2pi), so a + b lies in [0, 4pi), and
    subtracting 2pi from a sum in [2pi, 4pi) is exact (Sterbenz), as
    `fmod` is."""
    angles = []
    for i, a in left:
        if (b := row[i]) is not None:
            theta = a + b
            if theta >= TAU:
                theta -= TAU
            angles.append(0.0 if TAU - theta <= EPS else theta)
    return angles


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


def _phase_max_gap(distinct: list) -> float:
    """The largest cyclic gap between consecutive directions."""
    ordered = sorted(distinct)
    worst = ordered[0] + TAU - ordered[-1]
    for a, b in zip(ordered, ordered[1:]):
        if b - a > worst:
            worst = b - a
    return worst
