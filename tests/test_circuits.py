"""Circuit signatures: support axioms, elimination, classification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatroid import (CORPUS, KRASNER, PHASE, PHASE_PLAIN, RATIONALS, SIGN,
                          TRIANGLE, TROPICAL, CircuitSignature, FVector,
                          GroundSet, check_C0_C2, check_C3_doubleprime,
                          check_strong_elimination, check_weak_elimination,
                          circuits_from_gp, classify, corpus_entries, gf,
                          random_weak_signature, same_signature, scalar_mul,
                          serialize)

import oracles

ALL_KINDS = [KRASNER, SIGN, TROPICAL, TRIANGLE, PHASE, PHASE_PLAIN, RATIONALS,
             gf(3)]


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
    zero = FVector(SIGN, G4, {})
    assert check_C0_C2(CircuitSignature(SIGN, G4, [zero], dedup=False))["axiom"] == "C0"
    v = sign_vec(G4, {1: 1, 2: 1})
    w = sign_vec(G4, {1: -1, 2: -1})
    dup = CircuitSignature(SIGN, G4, [v, w], dedup=False)
    assert check_C0_C2(dup)["axiom"] == "C1"
    nested = CircuitSignature(SIGN, G4, [v, sign_vec(G4, {1: 1, 2: 1, 3: 1})],
                              dedup=False)
    assert check_C0_C2(nested)["axiom"] == "C2"


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


@st.composite
def weak_only_variants(draw):
    """A weak-only corpus signature in a permuted ground order with every
    class scaled by a unit: triangle units in [1e-3, 1e3], since smaller
    values meet the absolute float tolerance, and any phase angle."""
    sig = circuits_from_gp(CORPUS[draw(st.sampled_from(WEAK_ONLY))].build())
    hf = sig.hyperfield
    ground = GroundSet(draw(st.permutations(sig.ground.labels)))
    if hf.kind == "triangle":
        units = st.floats(1e-3, 1e3)
    else:
        units = st.floats(0.01, 6.28)
    return CircuitSignature(hf, ground, [
        scalar_mul(hf.element(draw(units)), FVector(hf, ground, v.entries))
        for v in sig.classes])


@settings(max_examples=25, deadline=None)
@given(weak_only_variants())
def test_classify_matches_elimination_on_weak_only_variants(sig):
    assert _same_classification(sig).verdict == "WeakOnly"
