"""Element arithmetic and the axiom suite for the built-in hyperfields."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypermatroid import (CORPUS, KRASNER, PHASE, PHASE_PLAIN, RATIONALS,
                          SIGN, TRIANGLE, TROPICAL, FVector, GroundSet,
                          HFElement, InputError, MismatchError,
                          check_hyperfield_axioms, circuits_from_gp,
                          cocircuit_signature_from_circuits,
                          dual_gp, eq, gf, inv, mul, neg,
                          rational_padic, sample_element, serialize, signed,
                          zero_in_sum)
from hypermatroid import hyperfields
from hypermatroid.hyperfields import _zero_in_phase_sum
from hypermatroid.sumsets import EPS, TAU, fold, norm_angle

import oracles
from oracles import invol
from strategies import ALL_KINDS, units

ALL = (KRASNER, SIGN, TROPICAL, TRIANGLE, PHASE, PHASE_PLAIN, RATIONALS, gf(3), gf(5))


def test_identifiers():
    assert str(KRASNER) == "krasner"
    assert str(SIGN) == "sign"
    assert str(TROPICAL) == "tropical"
    assert str(TRIANGLE) == "triangle"
    assert str(PHASE) == "phase"
    assert str(PHASE_PLAIN) == "phase[identity]"
    assert str(RATIONALS) == "rational"
    assert str(gf(7)) == "gf(7)"


def test_gf_wants_primes():
    for bad in (0, 1, 4, 6, 9):
        with pytest.raises((InputError, ValueError)):
            gf(bad)


def test_zero_one_distinct():
    for hf in ALL:
        assert hf.zero().is_zero
        assert not hf.one().is_zero
        assert not eq(hf.zero(), hf.one())


def test_krasner_absorbing_sum():
    one = KRASNER.one()
    s = fold([one, one])
    assert s.contains(one) and s.contains(KRASNER.zero())


def test_sign_sum_table():
    plus, minus, zero = SIGN.element(1), SIGN.element(-1), SIGN.zero()
    assert fold([plus, plus]).contains(plus)
    assert not fold([plus, plus]).contains(zero)
    mixed = fold([plus, minus])
    assert mixed.contains(plus) and mixed.contains(minus) and mixed.contains(zero)
    assert fold([plus, zero]).contains(plus)


def test_tropical_max_rule():
    a, b = TROPICAL.element(Fraction(4)), TROPICAL.element(Fraction(1))
    s = fold([a, b])
    assert s.contains(a) and not s.contains(b)
    tie = fold([a, TROPICAL.element(Fraction(4))])
    assert tie.contains(b) and tie.contains(TROPICAL.zero())


def test_triangle_interval_rule():
    a, b = TRIANGLE.element(3.0), TRIANGLE.element(1.0)
    s = fold([a, b])
    assert s.contains(TRIANGLE.element(2.0))
    assert s.contains(TRIANGLE.element(4.0))
    assert not s.contains(TRIANGLE.element(1.5))
    assert not s.contains(TRIANGLE.element(4.5))


def test_phase_arc_rule():
    x = PHASE.element(0.5)
    y = PHASE.element(1.5)
    s = fold([x, y])
    assert s.contains(PHASE.element(1.0))
    assert not s.contains(x), "open arcs exclude their endpoints"
    anti = fold([x, neg(x)])
    assert anti.contains(PHASE.zero()) and anti.contains(x) and anti.contains(neg(x))


def test_phase_element_zero_vs_unit():
    assert PHASE.element(0).is_zero
    assert not PHASE.element(1).is_zero
    assert eq(PHASE.element(1), PHASE.element(2 * math.pi))
    assert eq(PHASE.element(-1), PHASE.element(math.pi))


def test_involution():
    a = PHASE.element(1.0)
    assert eq(invol(a), PHASE.element(2 * math.pi - 1.0))
    b = PHASE_PLAIN.element(1.0)
    assert eq(invol(b), b)
    q = RATIONALS.element(Fraction(-3, 7))
    assert eq(invol(q), q)


def test_mul_inv_neg():
    rng = random.Random(11)
    for hf in ALL:
        for _ in range(60):
            x = sample_element(hf, rng, nonzero=True)
            assert eq(mul(x, inv(x)), hf.one())
            assert eq(neg(neg(x)), x)
            assert mul(x, hf.zero()).is_zero
            assert eq(signed(x, 2), x)
            assert eq(signed(x, 1), neg(x))


def test_cross_hyperfield_mismatch():
    """Hyperfields are told apart by identity, also within one family."""
    pairs = [(SIGN.element(1), KRASNER.one()),
             (gf(3).element(1), gf(5).element(1)),
             (PHASE.element(1.0), PHASE_PLAIN.element(1.0))]
    for a, b in pairs:
        with pytest.raises(MismatchError):
            mul(a, b)
        with pytest.raises(MismatchError):
            zero_in_sum([a, b])
        with pytest.raises(MismatchError):
            fold([a, b])
        with pytest.raises(MismatchError):
            FVector(a.hyperfield, GroundSet((1, 2)), {1: a, 2: b})


def test_axiom_suite_all_builtin():
    for hf in ALL:
        report = check_hyperfield_axioms(hf, sample_budget=16, seed=2)
        assert report.ok, (str(hf), [c.name for c in report.checks if not c.passed])
        assert report.exhaustive == (hf.size <= 16)


def test_double_distributivity_split():
    """The search finds a witness exactly where the family's flag says
    double distributivity fails (triangle and phase)."""
    for hf in ALL_KINDS + [gf(5)]:
        witness = oracles.double_distributivity_witness(hf, seed=1)
        assert (witness is None) == hf.doubly_distributive, str(hf)


@pytest.mark.parametrize("hf", ALL_KINDS, ids=str)
def test_golden_axioms_families(hf):
    """The hyperfields of the golden `hfm axioms` commands pass at the
    command's defaults and report their family's flag, and the
    double-distributivity search finds a witness exactly where the flag
    is unset."""
    report = check_hyperfield_axioms(hf, sample_budget=24, seed=0)
    assert report.ok, [c.name for c in report.checks if not c.passed]
    assert report.as_json()["doubly_distributive"] == hf.doubly_distributive
    witness = oracles.double_distributivity_witness(hf, seed=0)
    assert (witness is None) == hf.doubly_distributive


def zero_in_wrong_on_three_terms(family):
    """The family's `zero_in`, negated on three or more terms."""
    right = family.zero_in
    return lambda self, payloads: right(self, payloads) != (len(payloads) >= 3)


def negative_off_by_a_unit(family):
    """The family's `negative` times a unit other than 1 (-1 over sign, the
    angle 2 over phase, 2 elsewhere); over Krasner, whose one unit is 1,
    the zero payload."""
    right = family.negative

    def negative(self, a):
        if self is KRASNER:
            return 0
        unit = {"sign": -1, "phase": 2.0}.get(self.kind, 2)
        return self.product(right(self, a), self.element(unit).value)
    return negative


@pytest.mark.parametrize("name, broken", [("zero_in", zero_in_wrong_on_three_terms),
                                          ("negative", negative_off_by_a_unit)])
@pytest.mark.parametrize("hf", ALL_KINDS + [gf(5)], ids=str)
def test_axioms_fail_on_broken_arithmetic(monkeypatch, hf, name, broken):
    """A family whose null-set rule or hyperinverse is wrong fails the
    axiom suite.  The phase fold of `sumsets` takes its zero flag from
    `Phase.zero_in` itself, so only checks on the family's own operations
    can see a broken phase rule."""
    family = type(hf)
    monkeypatch.setattr(family, name, broken(family))
    assert not check_hyperfield_axioms(hf, sample_budget=24, seed=0).ok


def test_fold_oracle_agreement():
    """zero_in_sum matches the symbolic fold."""
    rng = random.Random(23)
    for hf in ALL:
        for _ in range(250):
            terms = [sample_element(hf, rng) for _ in range(rng.randint(1, 4))]
            assert zero_in_sum(terms) == fold(terms).contains(hf.zero())


def test_triangle_zero_in_adds_left_to_right():
    """`Triangle.zero_in` totals its terms left to right, as the pair
    kernel `zero_in_dot` does: on these terms the compensated total of
    `math.fsum` (and of `sum` from Python 3.12) decides the other way."""
    terms = [1.0, 1.0 - EPS - 2e-15] + [4e-17] * 100
    total = 0.0
    for t in terms:
        total += t

    def verdict(total):
        return 1.0 - (total - 1.0) <= EPS

    assert verdict(total) != verdict(math.fsum(terms))
    assert TRIANGLE.zero_in(terms) == verdict(total)
    assert TRIANGLE.zero_in_dot(list(enumerate(terms)), [1.0] * len(terms)) == \
        verdict(total)


def test_fold_permutation_invariance():
    rng = random.Random(29)
    for hf in ALL:
        for _ in range(40):
            terms = [sample_element(hf, rng) for _ in range(4)]
            shuffled = terms[:]
            rng.shuffle(shuffled)
            assert fold(terms).equals(fold(shuffled))


def test_reversibility():
    """If z sits in x + y then x sits in z + (-y), except over Phase
    where the n-ary zero rule is the coordinating semantics."""
    rng = random.Random(31)
    for hf in ALL:
        if hf.kind == "phase":
            continue
        for _ in range(80):
            x = sample_element(hf, rng)
            y = sample_element(hf, rng)
            s = fold([x, y])
            for payload in s.sample():
                z = HFElement(hf, payload)
                assert fold([z, neg(y)]).contains(x)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(ALL),
       st.lists(st.sampled_from(["zero", "new", "negated"]), min_size=1,
                max_size=6),
       st.integers(0, 2 ** 32))
def test_zero_terms_never_decide_zero_in_sum(hf, plan, seed):
    """The relation kernel drops zero terms; an all-zero list counts as
    containing 0.  "negated" repeats the last nonzero term negated, so
    sums containing 0 come up over every kind."""
    rng = random.Random(seed)
    terms, nonzero = [], []
    for step in plan:
        if step == "zero":
            terms.append(hf.zero())
            continue
        if step == "new" or not nonzero:
            term = sample_element(hf, rng, nonzero=True)
        else:
            term = neg(nonzero[-1])
        terms.append(term)
        nonzero.append(term)
    assert zero_in_sum(terms) == (not nonzero or zero_in_sum(nonzero))


# -- the fused pair kernel and the sort-first phase zero test ----------------

OFFSETS = tuple(k * EPS for k in (0, 0.5, -0.5, 1, -1, 1.5, -1.5))


def on_circle(theta):
    """theta reduced into [0, 2pi), without the snap of `norm_angle`, so
    angles just below 2pi stay."""
    theta = math.fmod(theta, TAU)
    if theta < 0:
        theta += TAU
    return theta if theta < TAU else 0.0


@st.composite
def phase_angles(draw):
    """1 to 6 angles: uniform, within a few tolerances of an earlier one,
    at either side of the 0/2pi wrap, or pi plus a few tolerances from an
    earlier one."""
    angles = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["uniform", "near", "wrap", "opposite"]))
        offset = draw(st.sampled_from(OFFSETS))
        if kind == "uniform" or not angles and kind != "wrap":
            theta = draw(st.floats(0.0, TAU, exclude_max=True))
        elif kind == "wrap":
            theta = draw(st.sampled_from([0.0, TAU])) + offset
        else:
            theta = draw(st.sampled_from(angles)) + offset + \
                (math.pi if kind == "opposite" else 0.0)
        angles.append(on_circle(theta))
    return angles


# Each boundary of the sort-first test, on the threshold and at the
# nearest floats on either side.  A neighbour gap g of EPS: 0.0 and g are
# angle_close and the greedy test drops g, which makes the gap up to
# pi + 1.5 EPS the widest; kept, g would split it.  A wrap gap: 2pi minus
# a difference in [4, 8) is a multiple of 2**-50, so it never equals EPS,
# and the two examples are the multiples on either side; when the greedy
# test drops w, near 2pi, the gap from pi - 1.5 EPS on to 2pi is the
# widest.  A widest gap of pi + EPS decides the verdict, on the single
# pass and, after the greedy dedup of 0.5 EPS, on the fall-back.
NEIGHBOUR = (math.nextafter(EPS, 0.0), EPS, math.nextafter(EPS, 1.0))
WRAP_BELOW = TAU - math.ldexp(math.floor(math.ldexp(EPS, 50)), -50)
WRAP = (WRAP_BELOW, math.nextafter(WRAP_BELOW, 0.0))
WIDEST = (math.nextafter(math.pi + EPS, 0.0), math.pi + EPS,
          math.nextafter(math.pi + EPS, 4.0))


@settings(max_examples=1500, deadline=None)
@given(phase_angles())
@example([TAU - 0.5 * EPS, 0.0, math.pi + EPS])  # kept: the one below 2pi
@example([0.0, TAU - 0.5 * EPS, math.pi - 0.5 * EPS])  # kept: 0
@example([0.0, NEIGHBOUR[0], math.pi + 1.5 * EPS])
@example([0.0, NEIGHBOUR[1], math.pi + 1.5 * EPS])
@example([0.0, NEIGHBOUR[2], math.pi + 1.5 * EPS])
@example([0.0, math.pi - 1.5 * EPS, WRAP[0]])
@example([0.0, math.pi - 1.5 * EPS, WRAP[1]])
@example([0.0, WIDEST[0]])
@example([0.0, WIDEST[1]])
@example([0.0, WIDEST[2]])
@example([0.0, 0.5 * EPS, WIDEST[1]])
def test_sort_first_phase_zero_test_matches_the_greedy_one(angles):
    assert _zero_in_phase_sum(angles) == oracles.zero_in_phase_sum(angles)


def test_phase_boundary_examples_straddle_their_thresholds():
    """The examples above sit where they claim: each verdict flips at the
    threshold, in the direction its comparison says."""
    assert [TAU - w <= EPS for w in WRAP] == [True, False]
    assert [_zero_in_phase_sum([0.0, g, math.pi + 1.5 * EPS])
            for g in NEIGHBOUR] == [False, False, True]
    assert [_zero_in_phase_sum([0.0, math.pi - 1.5 * EPS, w])
            for w in WRAP] == [False, True]
    assert [_zero_in_phase_sum([0.0, w]) for w in WIDEST] == [True, True, False]
    assert _zero_in_phase_sum([0.0, 0.5 * EPS, WIDEST[1]])


def check_zero_in_dot(hf, left, right: dict, n: int):
    """The family's kernel on `left` and the row of the map `right` over
    n positions, with `left` as pairs and as a dict view, is `zero_in` of
    the products (the dict kernel of `oracles`); returns the verdict."""
    row = [right.get(i) for i in range(n)]
    want = oracles.zero_in_dot(hf, left, right)
    assert hf.zero_in_dot(left, row) == want
    assert hf.zero_in_dot(dict(left).items(), row) == want
    return want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_KINDS + [gf(5)]), st.integers(0, 2 ** 32))
def test_zero_in_dot_is_zero_in_of_the_products(hf, seed):
    """On shared and unshared positions; "negated" sets the next shared
    product to the hyperinverse of the last, so 0 lies in many sums."""
    rng = random.Random(seed)
    left, right, last = [], {}, None
    n = rng.randint(1, 7)
    for i in range(n):
        a = sample_element(hf, rng, nonzero=True)
        step = rng.choice(["left", "right", "shared", "negated"])
        if step != "right":
            left.append((i, a.value))
        if step == "negated" and last is not None:
            right[i] = mul(inv(a), neg(last)).value
        elif step != "left":
            right[i] = sample_element(hf, rng, nonzero=True).value
        if i in right and step != "right":
            last = mul(a, hf.element(right[i]))
    if last is None:
        return
    check_zero_in_dot(hf, left, right, n)


def fused_payload(hf, v: int, kind):
    """A payload from a small int, as `kind` (int or Fraction): tropical
    v or v/3, sign the parity's unit, Krasner 1; few values, so ties and
    cancellations are common."""
    if hf is TROPICAL:
        return v if kind is int else Fraction(v, 3)
    return kind(1 if hf is KRASNER or v % 2 else -1)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([KRASNER, SIGN, TROPICAL]), st.sampled_from([int, Fraction]),
       st.dictionaries(st.integers(0, 5), st.integers(1, 3), min_size=1),
       st.dictionaries(st.integers(0, 5), st.integers(1, 3), min_size=1))
def test_fused_kernels_on_int_and_fraction_payloads(hf, kind, left, right):
    """The fused sign, Krasner and tropical kernels on the int payloads
    the pair loop packs (`gp._integral`) and on `Fraction` payloads."""
    assume(set(left) & set(right))
    check_zero_in_dot(hf, [(i, fused_payload(hf, v, kind)) for i, v in sorted(left.items())],
                      {i: fused_payload(hf, v, kind) for i, v in right.items()}, 6)


@pytest.mark.parametrize("kind", [int, Fraction])
@pytest.mark.parametrize("hf, left, right, verdict", [
    # products 6, 6, 2
    pytest.param(TROPICAL, [(0, 2), (1, 3), (2, 1)], {0: 3, 1: 2, 2: 2}, True,
                 id="tropical-tie-at-the-top"),
    # 6 and 2
    pytest.param(TROPICAL, [(0, 2), (1, 1), (3, 5)], {0: 3, 1: 2}, False,
                 id="tropical-single-top"),
    # a zero payload: the only product, so the top, is 0
    pytest.param(TROPICAL, [(0, 0), (3, 5)], {0: 4}, True, id="tropical-zero-top"),
    # 1, 1, -1: the third cancels the first two
    pytest.param(SIGN, [(0, 1), (1, 1), (2, 1)], {0: 1, 1: 1, 2: -1}, True,
                 id="sign-cancels"),
    # -1, -1, -1
    pytest.param(SIGN, [(0, 1), (1, -1), (2, 1)], {0: -1, 1: 1, 2: -1}, False,
                 id="sign-does-not-cancel"),
    pytest.param(KRASNER, [(0, 1), (2, 1)], {0: 1, 2: 1}, True, id="krasner-two-terms"),
    pytest.param(KRASNER, [(0, 1), (2, 1)], {0: 1, 1: 1}, False, id="krasner-one-term"),
])
def test_fused_kernels_at_their_boundaries(hf, left, right, verdict, kind):
    left = [(i, kind(a)) for i, a in left]
    assert check_zero_in_dot(hf, left, {i: kind(b) for i, b in right.items()}, 4) is verdict


# Triangle terms top and rest with top - rest exactly EPS * top: D =
# 4503600 * 2**-52 is EPS * TOP, and TOP + (TOP - D), a multiple of
# 2**-51, is exact.  Sums in [2, 4) step by 2**-51, so the nearest
# differences on either side come from rest -+ 2**-51.
TOP = float.fromhex("0x1.000001635e000p+0")
D = 4503600 * 2.0 ** -52


@pytest.mark.parametrize("step, verdict", [(-1, False), (0, True), (1, True)])
def test_triangle_zero_in_dot_at_the_tolerance(step, verdict):
    rest = TOP - D + step * 2.0 ** -51
    assert EPS * TOP == D and TOP - ((TOP + rest) - TOP) == D - step * 2.0 ** -51
    for left, right in (([(0, 1.0), (1, 1.0)], {0: TOP, 1: rest}),
                        ([(0, rest), (1, TOP), (2, 2.0)], {0: 1.0, 1: 1.0})):
        assert check_zero_in_dot(TRIANGLE, left, right, 3) is verdict


PHASE_PAYLOADS = st.one_of(
    st.floats(0.0, TAU, exclude_max=True).map(norm_angle),
    st.sampled_from([0.0, -0.0, math.pi, TAU - 2 * EPS, math.nextafter(TAU, 0.0),
                     norm_angle(TAU - 1.5 * EPS)]))


@settings(max_examples=1000, deadline=None)
@given(PHASE_PAYLOADS, PHASE_PAYLOADS)
def test_phase_fused_product_is_norm_angle_of_the_sum(a, b):
    """The angle the phase kernel forms for a shared position, for its gap
    test and for its fall-back alike (`_phase_products`), is bit for bit
    the payload of the product."""
    angle, = hyperfields._phase_products([(0, a)], [b])
    assert angle.hex() == norm_angle(a + b).hex() == PHASE.product(a, b).hex()


# Where the product of a phase kernel argument lands, relative to an
# earlier one: on it or within EPS/2 (a tie), 0.6 EPS on (chains of
# these the greedy dedup resolves by input order), at its antipode, or
# at pi -+ EPS/2 from it (a widest gap on either side of pi + EPS).
KERNEL_STEPS = {"tie": (0.0, 0.5 * EPS, -0.5 * EPS), "chain": (0.6 * EPS, -0.6 * EPS),
                "antipode": (math.pi,), "gap": (math.pi - 0.5 * EPS, math.pi + 0.5 * EPS)}


@st.composite
def phase_kernel_args(draw):
    """(left, right, n) for the phase kernel: 1 to 6 shared positions in
    shuffled order, whose products land at a uniform angle, at 2pi -
    EPS/2 (which the kernel snaps to 0), or a `KERNEL_STEPS` step from an
    earlier product, each split into a left payload and a row payload 0
    (the unit 1), pi or uniform; and up to two positions on one side only."""
    targets = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["uniform", "snap", *KERNEL_STEPS]))
        if kind == "snap":
            targets.append(TAU - 0.5 * EPS)
        elif kind == "uniform" or not targets:
            targets.append(draw(st.floats(0.0, TAU, exclude_max=True)))
        else:
            targets.append(draw(st.sampled_from(targets)) +
                           draw(st.sampled_from(KERNEL_STEPS[kind])))
    right = {}
    for i, theta in enumerate(targets):
        right[i] = draw(st.one_of(st.sampled_from([0.0, math.pi]),
                                  st.floats(0.0, TAU, exclude_max=True).map(norm_angle)))
    left = [(i, norm_angle(theta - right[i])) for i, theta in enumerate(targets)]
    n = len(targets)
    for side in draw(st.lists(st.sampled_from(["left", "right"]), max_size=2)):
        angle = norm_angle(draw(st.floats(0.0, TAU, exclude_max=True)))
        if side == "left":
            left.append((n, angle))
        else:
            right[n] = angle
        n += 1
    return draw(st.permutations(left)), right, n


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from([PHASE, PHASE_PLAIN]), phase_kernel_args())
def test_phase_kernel_is_zero_in_of_the_products(hf, args):
    """The kernel, gap test inline and greedy fall-back in the order of
    `left`, is `zero_in` of the products and the greedy test on them."""
    left, right, n = args
    products = [hf.product(a, right[i]) for i, a in left if i in right]
    assert check_zero_in_dot(hf, left, right, n) == oracles.zero_in_phase_sum(products)


# 0, 0.6 EPS and 1.2 EPS chain: in this order the greedy dedup keeps 0
# and 1.2 EPS, and the widest gap, from 1.2 EPS to pi + 2.1 EPS, is pi +
# 0.9 EPS; with 0.6 EPS first it keeps only 0.6 EPS, and the gap from it
# is pi + 1.5 EPS.  Sorted first, both orders would read the first.
CHAIN = [0.0, 0.6 * EPS, 1.2 * EPS, math.pi + 2.1 * EPS]


@pytest.mark.parametrize("order, verdict", [((0, 1, 2, 3), True), ((1, 0, 2, 3), False),
                                            ((3, 1, 2, 0), False), ((2, 3, 0, 1), True)])
def test_phase_kernel_falls_back_in_input_order(order, verdict):
    left = [(k, CHAIN[k]) for k in order]
    assert check_zero_in_dot(PHASE, left, dict.fromkeys(range(4), 0.0), 4) is verdict


def bits(payload) -> str:
    """A payload's exact spelling: `float.hex` keeps the sign of zero."""
    return payload.hex() if isinstance(payload, float) else repr(payload)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(ALL_KINDS + [gf(5)]), st.data())
def test_payload_ops_are_the_element_ops(hf, data):
    """`inverse`, `conjugate` and `equal` on the payloads of sampled units
    give what `inv`, `invol` and `eq` give on the elements, bit for bit;
    the inverse inverts, the involution is one, and `equal` is reflexive
    and sees a product with the inverse as 1.  (That no family defines
    element operations of its own is `test_imports`'s lint.)"""
    x, y = data.draw(units(hf)), data.draw(units(hf))
    a = x.value
    assert bits(inv(x).value) == bits(hf.inverse(a))
    assert bits(invol(x).value) == bits(hf.conjugate(a))
    for other in (x, y, mul(x, inv(y)), hf.one()):
        assert eq(x, other) == hf.equal(a, other.value)
        assert eq(other, x) == hf.equal(other.value, a)
    assert hf.equal(a, a)
    assert hf.equal(hf.product(a, hf.inverse(a)), hf.one().value)
    assert hf.equal(hf.conjugate(hf.conjugate(a)), a)
    if hf is not PHASE:
        assert bits(hf.conjugate(a)) == bits(a)


@settings(max_examples=1000, deadline=None)
@given(PHASE_PAYLOADS)
def test_phase_inverse_is_norm_angle_of_the_negative(a):
    """+0.0 for the payload of 1 (also given as -0.0), and bit for bit
    `norm_angle(-a)` elsewhere; conjugation is the inverse on PHASE and
    the identity on PHASE_PLAIN."""
    want = (0.0).hex() if a == 0.0 else norm_angle(-a).hex()
    assert PHASE.inverse(a).hex() == want
    assert PHASE.conjugate(a).hex() == want
    assert PHASE_PLAIN.inverse(a).hex() == want
    assert PHASE_PLAIN.conjugate(a).hex() == a.hex()


@pytest.mark.parametrize("name", ["phase-u24-real", "phase-weak-not-strong"])
def test_derived_phase_output_spells_one_as_zero_angle(name):
    """The unit 1 is written {"angle": 0.0}, also where it comes from the
    involution of the derived cocircuits; the inverse of the payload 0.0
    once printed it as -0.0."""
    phi = CORPUS[name].build()
    circuits = circuits_from_gp(phi)
    for text in (serialize(cocircuit_signature_from_circuits(circuits)),
                 serialize(dual_gp(phi))):
        assert "-0.0" not in text


def test_from_rational_takes_non_integers():
    """1/2 has 2-adic absolute value 2 (the valuation once looped on the
    integer part 0), and 5/2 is 5 times the inverse of 2, which is 1 in
    GF(3); a denominator divisible by p has no residue."""
    assert TROPICAL.from_rational(Fraction(1, 2)).value == 2
    assert gf(3).from_rational(Fraction(5, 2)).value == 1
    with pytest.raises(InputError):
        gf(3).from_rational(Fraction(1, 6))


@settings(max_examples=200, deadline=None)
@given(st.fractions().filter(bool))
def test_from_rational_is_the_homomorphism(q):
    """Tropical is the 2-adic absolute value `rational_padic(2)`, and
    GF(p) a ring map: q times its denominator is its numerator."""
    el = RATIONALS.element(q)
    assert TROPICAL.from_rational(q).value == rational_padic(2)(el).value
    for p in (2, 3, 5):
        if q.denominator % p:
            residue = gf(p).from_rational(q).value
            assert residue * q.denominator % p == q.numerator % p


@pytest.mark.parametrize("nonzero", [False, True])
def test_prime_field_sample_is_the_choice_on_the_listed_field(nonzero):
    """`PrimeField.sample` draws without listing the field, and draws what
    `rng.choice` draws on the listed elements, so seeded runs repeat."""
    hf = gf(101)
    listed = [x for x in hf.elements() if not (nonzero and x.is_zero)]
    drawn, chosen = random.Random(5), random.Random(5)
    for _ in range(2000):
        assert sample_element(hf, drawn, nonzero) == chosen.choice(listed)
