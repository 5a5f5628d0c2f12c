"""JSON encodings: lossless roundtrips, diagnostics, canonical form."""

import json
import math
import random
import warnings
from fractions import Fraction

import pytest

from hypermatroid import (CORPUS, KRASNER, PHASE, RATIONALS, SIGN, TRIANGLE,
                          TROPICAL, CircuitSignature, GPFunction,
                          InputError, corpus_entries, eq, gf,
                          hyperfield_from_id, parse_text, same_signature,
                          sample_element, serialize)
from hypermatroid.serialization import (element_from_json, element_to_json,
                                        parse_object)

from oracles import equivalent_gp
from strategies import ALL_KINDS


def test_hyperfield_identifiers_roundtrip():
    for ident in ("krasner", "sign", "tropical", "triangle", "phase",
                  "phase[identity]", "rational", "gf(3)", "gf(11)"):
        assert str(hyperfield_from_id(ident, "t")) == ident
    for hf in ALL_KINDS + [gf(11)]:
        assert hyperfield_from_id(str(hf), "t") is hf
    for bad in ("", "K", "gf(4)", "gf(x)", "signs"):
        with pytest.raises(InputError):
            hyperfield_from_id(bad, "t")


def test_element_encodings():
    cases = [
        (KRASNER.one(), 1), (KRASNER.zero(), 0),
        (SIGN.element(-1), -1), (SIGN.zero(), 0),
        (TROPICAL.element(Fraction(1, 2)), "0.5"),
        (TROPICAL.element(Fraction(1, 3)), "1/3"),
        (RATIONALS.element(Fraction(-7, 3)), "-7/3"),
        (gf(5).element(3), 3),
    ]
    for el, encoded in cases:
        assert element_to_json(el) == encoded
        back = element_from_json(el.hyperfield, encoded, "t")
        assert eq(back, el)
    rng = random.Random(5)
    for hf in ALL_KINDS:
        for _ in range(50):
            el = sample_element(hf, rng)
            back = element_from_json(hf, element_to_json(el), "t")
            assert back == el and repr(back.value) == repr(el.value), str(hf)
            assert type(back.value) is type(el.value)


def test_triangle_float_encoding_is_exact():
    el = TRIANGLE.element(0.30000000000000004)
    back = element_from_json(TRIANGLE, element_to_json(el), "t")
    assert back.value == el.value


def test_phase_angle_encoding():
    el = PHASE.element(2.5)
    encoded = element_to_json(el)
    assert set(encoded) == {"angle"}
    assert eq(element_from_json(PHASE, encoded, "t"), el)
    assert element_from_json(PHASE, 0, "t").is_zero
    unit = element_from_json(PHASE, {"angle": 0.0}, "t")
    assert not unit.is_zero and eq(unit, PHASE.element(1))
    two_pi = element_from_json(PHASE, {"angle": 2 * math.pi}, "t")
    assert eq(two_pi, PHASE.element(1))


def test_corpus_gp_roundtrips_canonically():
    for entry in corpus_entries():
        obj = entry.build()
        text = serialize(obj)
        again = parse_text(text)
        assert serialize(again) == text, entry.name
        if isinstance(obj, GPFunction):
            assert equivalent_gp(again, obj)
        else:
            assert same_signature(again, obj)


def test_parse_dispatch_shapes():
    phi = CORPUS["sign-u24"].build()
    raw = json.loads(serialize(phi))
    assert isinstance(parse_object(raw), GPFunction)
    from hypermatroid import (circuits_from_gp,
                              cocircuit_signature_from_circuits)
    sig = circuits_from_gp(phi)
    assert isinstance(parse_object(json.loads(serialize(sig))), CircuitSignature)
    cocircuits = cocircuit_signature_from_circuits(sig)
    pair_raw = {"circuits": json.loads(serialize(sig)),
                "cocircuits": json.loads(serialize(cocircuits))}
    pair = parse_object(pair_raw)
    assert isinstance(pair, tuple) and len(pair) == 2
    with pytest.raises(InputError):
        parse_object({"nonsense": 1})
    with pytest.raises(InputError):
        parse_object([1, 2, 3])


def test_parse_object_refuses_bare_matroids_and_vectors():
    """parse_object reads three shapes: GP function, dual pair and
    signature.  A signature without its hyperfield names the missing
    field; a bare vector matches no schema."""
    with pytest.raises(InputError, match="'hyperfield'"):
        parse_object({"ground_set": [1, 2, 3], "circuits": [[1, 2], [2, 3]]})
    with pytest.raises(InputError, match="no known schema"):
        parse_object({"hyperfield": "sign", "ground_set": [1, 2],
                      "entries": {"1": 1, "2": -1}})


def test_field_path_in_errors():
    phi = CORPUS["sign-u24"].build()
    raw = json.loads(serialize(phi))
    raw["values"][0]["value"] = 7
    with pytest.raises(InputError) as err:
        parse_object(raw)
    assert "values[0].value" in str(err.value)


def test_gp_json_field_checks():
    base = json.loads(serialize(CORPUS["sign-u24"].build()))
    missing = dict(base)
    del missing["rank"]
    with pytest.raises(InputError):
        parse_object({**missing, "values": base["values"]})
    dup = json.loads(serialize(CORPUS["sign-u24"].build()))
    dup["values"].append(dup["values"][0])
    with pytest.raises(InputError):
        parse_object(dup)
    mismatched = json.loads(serialize(CORPUS["sign-u24"].build()))
    mismatched["values"][0]["subset"] = [1, 9]
    with pytest.raises(InputError):
        parse_object(mismatched)


def test_duplicate_projective_classes_warn_and_drop():
    from hypermatroid import circuits_from_gp
    sig = circuits_from_gp(CORPUS["sign-u24"].build())
    raw = json.loads(serialize(sig))
    raw["circuits"].append(raw["circuits"][0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parsed = parse_object(raw)
    assert len(parsed.classes) == len(sig.classes)
    assert any("duplicate" in str(w.message) for w in caught)


def test_ground_label_collision():
    raw = {"hyperfield": "sign", "ground_set": [1, "1"], "circuits": []}
    with pytest.raises(InputError):
        parse_object(raw)


def test_serialize_reports():
    from hypermatroid import classify, circuits_from_gp
    result = classify(circuits_from_gp(CORPUS["sign-u24"].build()))
    text = serialize(result)
    data = json.loads(text)
    assert data["verdict"] == "Strong"
