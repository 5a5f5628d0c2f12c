"""Circuit signatures: support axioms, elimination, classification."""

import json
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatroid import (CORPUS, PHASE, RATIONALS, SIGN, TRIANGLE, TROPICAL,
                          CircuitSignature, FVector, GPFunction, GroundSet,
                          RatioInconsistencyError, check_C0_C2,
                          check_C3_doubleprime, check_strong_elimination,
                          check_weak_elimination, circuits_from_gp, classify,
                          cocircuit_signature_from_circuits, corpus_entries,
                          eq, gf, nonorthogonal_pair, orthogonal,
                          orthogonality_verdict, sample_element, scalar_mul,
                          serialize)
import hypermatroid.circuits
from hypermatroid.cli import main

import oracles
from oracles import same_signature
from strategies import (ALL_KINDS, DOUBLY_DISTRIBUTIVE, every_overlap_pair,
                        perturbed, random_weak_signature, units)


def sign_vec(g, entries):
    return FVector(SIGN, g, {k: SIGN.element(v) for k, v in entries.items()})


G4 = GroundSet((1, 2, 3, 4))


def u24_signature():
    return circuits_from_gp(CORPUS["sign-u24"].build())


def test_dedup_of_projective_duplicates():
    v = sign_vec(G4, {1: 1})
    w = scalar_mul(SIGN.element(-1), v)
    sig = CircuitSignature(SIGN, G4, [v, w])
    assert len(sig.classes) == 1


def test_check_C0_C2_witnesses():
    """A class and its multiple are one class, so C1 holds; C2 fires on
    two classes on one support and on nested supports, C0 on a zero
    class."""
    v = sign_vec(G4, {1: 1, 2: 1})
    dup = CircuitSignature(SIGN, G4, [v, sign_vec(G4, {1: -1, 2: -1})])
    assert len(dup.classes) == 1 and dup.dropped == 1
    assert check_C0_C2(dup) is None
    shared = CircuitSignature(SIGN, G4, [v, sign_vec(G4, {1: 1, 2: -1})])
    assert check_C0_C2(shared)["axiom"] == "C2" and shared.shared_support == 0b11
    nested = CircuitSignature(SIGN, G4, [v, sign_vec(G4, {1: 1, 2: 1, 3: 1})])
    assert check_C0_C2(nested)["axiom"] == "C2" and nested.shared_support is None
    zero = FVector(SIGN, G4, {})
    assert check_C0_C2(CircuitSignature(SIGN, G4, [zero]))["axiom"] == "C0"


# signatures whose classes are drawn as they are, duplicates kept
C0_C2_SOURCES = ["sign-flipped-u24", "triangle-weak-not-strong",
                 "phase-weak-not-strong"]


@st.composite
def support_axiom_candidates(draw):
    """A corpus signature or a random weak one over any hyperfield, with
    classes added and the order shuffled: a multiple of a class (dropped,
    as a signature holds each projective class once), a class with one
    entry changed or one entry dropped (C2, equal or nested supports), or
    the zero vector (C0)."""
    source = draw(st.sampled_from(C0_C2_SOURCES + ALL_KINDS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if isinstance(source, str):
        sig = CORPUS[source].build()
        if not isinstance(sig, CircuitSignature):
            sig = circuits_from_gp(sig)
    else:
        sig = random_weak_signature(source, rng, max_rank=3, max_ground=6)
    hf, ground = sig.hyperfield, sig.ground
    classes = list(sig.classes)
    for change in draw(st.lists(st.sampled_from(
            ["multiple", "changed", "dropped", "zero"]), max_size=3)):
        x = rng.choice(classes)
        if change == "multiple":
            classes.append(scalar_mul(draw(units(hf)), x))
        elif change == "changed" and x.entries:
            classes.append(perturbed(CircuitSignature(hf, ground, [x]), rng).classes[0])
        elif change == "dropped" and len(x.entries) > 1:
            label = rng.choice(ground.sort(x.entries))
            classes.append(FVector(hf, ground, {k: v for k, v in x.entries.items()
                                                if k != label}))
        elif change == "zero":
            classes.append(FVector(hf, ground, {}))
    rng.shuffle(classes)
    return CircuitSignature(hf, ground, classes)


@settings(max_examples=200, deadline=None)
@given(support_axiom_candidates())
def test_check_C0_C2_names_the_scan_witness(sig):
    """The mask-based check names the very classes the scan over every
    pair names."""
    assert check_C0_C2(sig) == oracles.check_C0_C2(sig)


def test_check_C0_C2_on_the_corpus():
    for entry in corpus_entries():
        sig = entry.build()
        if entry.kind == "gp":
            sig = circuits_from_gp(sig)
        assert check_C0_C2(sig) == oracles.check_C0_C2(sig)


def test_classify_corpus_strong():
    result = classify(u24_signature())
    assert result.verdict == "Strong" and result.ok


def test_classify_flipped_entry_invalid():
    sig = CORPUS["sign-flipped-u24"].build()
    result = classify(sig)
    assert result.verdict == "InvalidSignature"
    assert result.witness is not None and not result.ok


def test_classify_not_a_matroid():
    sig = CORPUS["not-a-matroid"].build()
    assert classify(sig).verdict == "UnderlyingNotMatroid"


def test_classify_weak_only_triangle():
    sig = circuits_from_gp(CORPUS["triangle-weak-not-strong"].build())
    result = classify(sig)
    assert result.verdict == "WeakOnly"
    assert result.witness["axiom"].startswith("C3")


def test_weak_elimination_witness_shape():
    sig = CORPUS["sign-flipped-u24"].build()
    witness = check_weak_elimination(sig)
    assert witness is not None
    assert {"axiom", "X", "Y", "e"} <= set(witness)


def test_same_signature():
    a = u24_signature()
    b = u24_signature()
    assert same_signature(a, b)
    flipped = CORPUS["sign-flipped-u24"].build()
    assert not same_signature(a, flipped)


def test_strong_vs_span_criterion_random():
    """The modular-family elimination test and the fundamental-circuit
    span test yield the same verdict on random weak-valid input over
    every hyperfield."""
    rng = random.Random(3580)
    seen_strong = 0
    for n in range(32):
        hf = ALL_KINDS[n % len(ALL_KINDS)]
        sig = random_weak_signature(hf, rng, max_rank=3, max_ground=5)
        via_c3 = check_strong_elimination(sig)
        via_span = check_C3_doubleprime(sig)
        assert (via_c3 is None) == (via_span is None)
        seen_strong += via_c3 is None
    assert seen_strong > 0


def test_signature_requires_consistent_ground():
    g_other = GroundSet((1, 2, 3))
    v = FVector(SIGN, g_other, {1: SIGN.element(1), 2: SIGN.element(1)})
    with pytest.raises(ValueError):
        CircuitSignature(SIGN, G4, [v])


# -- classify against the elimination route ---------------------------------


def _same_classification(sig):
    got = classify(sig)
    assert serialize(got) == serialize(oracles.classify_by_elimination(sig))
    return got


def test_classify_matches_elimination():
    """Orthogonality and modular-family elimination give the same verdict
    and witness on every corpus signature and on random weak signatures
    over every hyperfield."""
    verdicts = set()
    for entry in corpus_entries():
        sig = entry.build()
        if entry.kind == "gp":
            sig = circuits_from_gp(sig)
        verdicts.add(_same_classification(sig).verdict)
    assert verdicts == {"Strong", "WeakOnly", "InvalidSignature",
                        "UnderlyingNotMatroid"}
    rng = random.Random(1601)
    for n in range(32):
        hf = ALL_KINDS[n % len(ALL_KINDS)]
        _same_classification(
            random_weak_signature(hf, rng, max_rank=3, max_ground=6))


WEAK_ONLY = ["triangle-weak-not-strong", "phase-weak-not-strong"]


def permuted_rescaled(draw, sig):
    """sig in a permuted ground order with every class scaled by a unit."""
    hf = sig.hyperfield
    ground = GroundSet(draw(st.permutations(sig.ground.labels)))
    return CircuitSignature(hf, ground, [
        scalar_mul(draw(units(hf)), FVector(hf, ground, v.entries))
        for v in sig.classes])


@st.composite
def weak_only_variants(draw):
    """A weak-only corpus signature, permuted and rescaled."""
    sig = circuits_from_gp(CORPUS[draw(st.sampled_from(WEAK_ONLY))].build())
    return permuted_rescaled(draw, sig)


def _classify_weak_only_without_pairs(sig):
    """classify on a weak-only signature, asserting that its witness scan
    asks `eliminating_circuits` about families of three or more circuits
    only: orthogonality has shown that every modular pair eliminates.  The
    verdict and witness must still be those of the full elimination route
    (C3', then C3 from three circuits, then C3'')."""
    terms_per_call = []
    real = hypermatroid.circuits.eliminating_circuits

    def counting(sig, terms, zeros_at):
        terms_per_call.append(len(terms))
        return real(sig, terms, zeros_at)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hypermatroid.circuits, "eliminating_circuits", counting)
        got = classify(sig)
    assert got.verdict == "WeakOnly"
    assert terms_per_call and min(terms_per_call) >= 3
    assert serialize(got) == serialize(oracles.classify_by_elimination(sig))


@pytest.mark.parametrize("name", WEAK_ONLY)
def test_weak_only_witness_checks_no_pair(name):
    _classify_weak_only_without_pairs(
        circuits_from_gp(CORPUS[name].build()))


@settings(max_examples=25, deadline=None)
@given(weak_only_variants())
def test_classify_matches_elimination_on_weak_only_variants(sig):
    _classify_weak_only_without_pairs(sig)


# -- weakness by orthogonality against the C3' oracle -------------------------


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(DOUBLY_DISTRIBUTIVE), st.integers(0, 2 ** 32),
       st.booleans())
def test_orthogonality_verdict_matches_full_orthogonality(hf, seed, perturb):
    """Over a doubly distributive hyperfield the verdict checks only the
    pairs meeting in at most 3 elements; the check of every pair must
    agree, on weak signatures and on ones with a perturbed entry."""
    rng = random.Random(seed)
    sig = random_weak_signature(hf, rng, max_rank=4, max_ground=8)
    if perturb:
        sig = perturbed(sig, rng)
    assert orthogonality_verdict(sig) == oracles.full_orthogonality_verdict(sig)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_KINDS + WEAK_ONLY), st.integers(0, 2 ** 32),
       st.sampled_from(["none", "circuit", "cocircuit"]))
def test_nonorthogonal_pair_finds_the_least_overlap(source, seed, perturb):
    """Against every pair tested: a failing pair meeting in at most 3
    elements when there is one, else one of least overlap (over every
    overlap).  The dual pairs are those of random weak signatures over each
    hyperfield and of the weak-only corpus entries, whose failing pairs
    all meet in more than 3 elements, as drawn or with a perturbed
    circuit or cocircuit entry."""
    rng = random.Random(seed)
    if isinstance(source, str):
        circuits = circuits_from_gp(CORPUS[source].build())
    else:
        circuits = random_weak_signature(source, rng, max_rank=3, max_ground=7)
    cocircuits = cocircuit_signature_from_circuits(circuits)
    if perturb == "circuit":
        circuits = perturbed(circuits, rng)
    elif perturb == "cocircuit":
        cocircuits = perturbed(cocircuits, rng)
    overlaps = [len(set(x.entries) & set(y.entries))
                for x in circuits.classes for y in cocircuits.classes
                if not orthogonal(x, y)]
    found = every_overlap_pair(circuits, cocircuits)
    small = nonorthogonal_pair(circuits, cocircuits)
    if not overlaps:
        assert found is None and small is None
        return
    overlap, x, y = found
    assert not orthogonal(x, y)
    assert overlap == len(set(x.entries) & set(y.entries))
    if min(overlaps) > 3:
        assert overlap == min(overlaps) and small is None
    else:
        assert overlap <= 3 and small == found


def not_weak_route(sig):
    """How orthogonality finds sig not weak: "ratio" when its cocircuit
    signature cannot be derived consistently, else "perpendicular" (a
    circuit and a cocircuit meeting in at most 3 elements are not
    orthogonal)."""
    try:
        cocircuit_signature_from_circuits(sig)
    except RatioInconsistencyError:
        return "ratio"
    return "perpendicular"


def u24_failing_three_term(hf, value):
    """The circuits of a U(2,4) function failing its three-term relation:
    every value is 1 but phi(1, 3) = value.  The circuits and their
    derived cocircuits meet in 2 elements orthogonally by construction, so
    the only failing pair is a 3-element overlap, the relation itself."""
    values = {key: hf.one() for key in combinations((1, 2, 3, 4), 2)}
    values[(1, 3)] = hf.element(value)
    return circuits_from_gp(GPFunction(hf, GroundSet((1, 2, 3, 4)), 2, values))


FAILING_THREE_TERM = [(SIGN, -1), (TROPICAL, 2), (TRIANGLE, 3.0),
                      (RATIONALS, 1), (gf(3), 1), (PHASE, -1)]


def test_orthogonality_matches_weak_elimination(tmp_path, capsys):
    """classify gives the verdict and witness of the elimination route on
    random weak signatures with one perturbed entry over every
    hyperfield, and check-circuits reports the C3' scan's witness.  Both
    ways of failing weakness occur: an inconsistent derivation, and a
    non-orthogonal pair with overlap at most 3 on consistent cocircuits
    (the U(2,4) instances, which random perturbations rarely reach)."""
    rng = random.Random(1204)
    signatures = [perturbed(random_weak_signature(
        ALL_KINDS[n % len(ALL_KINDS)], rng, max_rank=3, max_ground=7), rng)
        for n in range(96)]
    signatures += [u24_failing_three_term(hf, value)
                   for hf, value in FAILING_THREE_TERM]
    path = tmp_path / "sig.json"
    routes = Counter()
    for sig in signatures:
        got = _same_classification(sig)
        weak = check_weak_elimination(sig)
        assert (got.verdict == "InvalidSignature") == (weak is not None)
        if weak is not None:
            routes[not_weak_route(sig)] += 1
        path.write_text(serialize(sig))
        code = main(["check-circuits", str(path)])
        out, err = capsys.readouterr()
        assert code == (weak is not None) and err == ""
        assert json.loads(out)["weak_elimination"] == {
            "ok": weak is None, "witness": json.loads(serialize(weak))}
    assert routes["ratio"] > 0
    assert routes["perpendicular"] >= len(FAILING_THREE_TERM)


@pytest.mark.parametrize("hf, value", FAILING_THREE_TERM,
                         ids=[str(hf) for hf, _ in FAILING_THREE_TERM])
def test_three_element_overlap_decides(hf, value):
    """The only non-orthogonal circuit-cocircuit pairs meet in 3 elements,
    and that is enough to fail weakness."""
    sig = u24_failing_three_term(hf, value)
    cocircuits = cocircuit_signature_from_circuits(sig).classes
    overlaps = {len(set(x.entries) & set(y.entries))
                for x in sig.classes for y in cocircuits
                if not orthogonal(x, y)}
    assert overlaps == {3}
    result = classify(sig)
    assert result.verdict == "InvalidSignature"
    assert result.witness["axiom"] == "C3'"


def test_weak_only_summand_does_not_hide_a_failure():
    """The circuits of a direct sum: the weak-only triangle entry on
    1..6, then a triangle U(2,4) failing its relation on 7..10.  The pass
    meets the first summand's non-orthogonal pairs, whose overlaps exceed
    3, before the second summand's, and must still find the latter."""
    first = circuits_from_gp(CORPUS["triangle-weak-not-strong"].build())
    second = u24_failing_three_term(TRIANGLE, 3.0)
    ground = GroundSet(first.ground.labels + (7, 8, 9, 10))
    sig = CircuitSignature(TRIANGLE, ground, [
        FVector(TRIANGLE, ground, x.entries) for x in first.classes] + [
        FVector(TRIANGLE, ground, {label + 6: v for label, v in x.entries.items()})
        for x in second.classes])
    assert _same_classification(sig).verdict == "InvalidSignature"


# -- invariance -----------------------------------------------------------------


@st.composite
def signature_variants(draw):
    """A random weak signature, or one with a perturbed entry, and the same
    signature permuted and rescaled."""
    hf = draw(st.sampled_from(ALL_KINDS))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    sig = random_weak_signature(hf, rng, max_rank=3, max_ground=6)
    if draw(st.booleans()):
        sig = perturbed(sig, rng)
    return sig, permuted_rescaled(draw, sig)


@settings(max_examples=150, deadline=None)
@given(signature_variants())
def test_classify_verdict_is_invariant(pair):
    sig, variant = pair
    assert classify(variant).verdict == classify(sig).verdict
