"""JSON encodings: lossless roundtrips, diagnostics, canonical form."""

import contextlib
import io
import json
import math
import os
import random
import tempfile
import warnings
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatroid import (CORPUS, KRASNER, PHASE, RATIONALS, SIGN, TRIANGLE,
                          TROPICAL, CircuitSignature, FVector, GPFunction,
                          GroundSet, InputError, check_C0_C2, circuits_from_gp, classify,
                          corpus_entries, eq, gf, hyperfield_from_id, mul,
                          parse_text, projectively_equal, sample_element,
                          serialize, support)
from hypermatroid.cli import main
from hypermatroid.serialization import element_to_json, parse_object

from oracles import element_from_json, equivalent_gp, same_signature
from strategies import ALL_KINDS, perturbed, random_weak_signature
from test_golden_cli import MALFORMED, malformed


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


def as_drawn(source, rng):
    """A signature to write out: a random weak one over a hyperfield, or
    the circuits of a weak-only corpus entry; half the time with one entry
    changed."""
    if isinstance(source, str):
        sig = circuits_from_gp(CORPUS[source].build())
    else:
        sig = random_weak_signature(source, rng, max_rank=4, max_ground=7)
    return perturbed(sig, rng) if rng.random() < 0.5 else sig


@pytest.mark.parametrize("source", ALL_KINDS + [gf(5), "triangle-weak-not-strong",
                                                "phase-weak-not-strong"], ids=str)
@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_parsed_signature_matches_the_fvector_constructor(source, seed):
    """A signature read from JSON, straight into its tables, and the same
    classes given to the FVector constructor agree: the classes in order
    (up to a unit, and exactly), the duplicates dropped, the C0-C2
    witness, and the verdict of `classify` with its witness.  The classes
    sometimes include one again times a unit and an empty one, and the
    JSON lists zero-valued entries, in shuffled order."""
    rng = random.Random(seed)
    sig = as_drawn(source, rng)
    hf, ground = sig.hyperfield, sig.ground
    vectors = list(sig.classes)
    if rng.random() < 0.6:
        x, unit = rng.choice(vectors), sample_element(hf, rng, nonzero=True)
        vectors.insert(rng.randrange(len(vectors) + 1), FVector(hf, ground, {
            label: mul(unit, el) for label, el in x.entries.items()}))
    if rng.random() < 0.2:
        vectors.insert(rng.randrange(len(vectors) + 1), FVector(hf, ground, {}))
    entries = []
    for v in vectors:
        items = list({**{label: hf.zero() for label in ground if rng.random() < 0.3},
                      **v.entries}.items())
        rng.shuffle(items)
        entries.append(dict(items))
    raw = {"hyperfield": str(hf), "ground_set": list(ground.labels),
           "circuits": [{"entries": {str(label): element_to_json(el)
                                     for label, el in items.items()}}
                        for items in entries]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parsed = parse_object(json.loads(json.dumps(raw)))
    built = CircuitSignature(hf, ground, [FVector(hf, ground, items) for items in entries])
    assert parsed.dropped == built.dropped == len(vectors) - len(built.classes)
    assert len(caught) == (built.dropped > 0)
    assert len(parsed.classes) == len(built.classes)
    assert all(support(x) == support(y) and projectively_equal(x, y)
               for x, y in zip(parsed.classes, built.classes))
    assert serialize(parsed) == serialize(built)
    assert serialize(check_C0_C2(parsed)) == serialize(check_C0_C2(built))
    assert serialize(classify(parsed)) == serialize(classify(built))


# what `hfm` prints on stderr after "error: <file>" for each input of
# `test_golden_cli.MALFORMED`
MALFORMED_MESSAGES = {
    "order": ": subset (4, 1) is not in ground order",
    "size": ": subset (1, 3, 4) is not an 2-set",
    "repeated-label": ": subset (3, 3) is not an 2-set",
    "repeated-subset": ".values[6].subset: duplicate subset [2, 4]",
    "unknown-label": ".values[3].subset: not a list of ground labels",
    "rank-0": ": rank 0 out of range for |E| = 4",
    "rank-5": ": rank 5 out of range for |E| = 4",
    "zero": ": identically zero (GP1 fails)",
    "order-then-value": ".values[4].value: sign payload must be -1, 0 or 1, got 7",
    "rank-and-order": ": rank 7 out of range for |E| = 4",
    "zero-out-of-order": ": subset (4, 3) is not in ground order",
}


def test_malformed_gp_inputs_exit_2_with_their_message(tmp_path, capsys):
    assert set(MALFORMED_MESSAGES) == set(MALFORMED)
    for case, message in MALFORMED_MESSAGES.items():
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(malformed(case)))
        assert main(["check-gp", "--both", str(path)]) == 2, case
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {path}{message}\n"), case


def drawn_gp(hf, rng):
    """(ground, rank, {label tuple: element}) in shuffled order, over a
    ground of int and str labels listed out of their natural order: each
    r-subset zero three times in ten, else a random unit, one of them a
    unit."""
    labels = rng.sample([1, 2, 3, 7, "a", "b", "c", "x"], rng.randint(1, 6))
    ground, rank = GroundSet(labels), rng.randint(1, min(3, len(labels)))
    keys = list(combinations(labels, rank))
    values = {key: hf.zero() if rng.random() < 0.3
              else sample_element(hf, rng, nonzero=True) for key in keys}
    values[rng.choice(keys)] = sample_element(hf, rng, nonzero=True)
    items = list(values.items())
    rng.shuffle(items)
    return ground, rank, dict(items)


def gp_raw(hf, ground, rank, values):
    return {"hyperfield": str(hf), "ground_set": list(ground.labels), "rank": rank,
            "values": [{"subset": list(key), "value": element_to_json(el)}
                       for key, el in values.items()]}


def run_check_gp(raw):
    """(exit code, stdout, stderr less "error: <file>") of `hfm check-gp`."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "gp.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(raw, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check-gp", path])
    return code, out.getvalue(), err.getvalue().replace(f"error: {path}", "", 1)


def faults(hf, ground, rank, values, rng):
    """{fault: (changed JSON, changed elements or None, message after the
    file name)} for the faults that apply to the drawn function."""
    raw, labels = gp_raw(hf, ground, rank, values), list(ground.labels)
    first = list(values)[0]
    out = {}

    def changed(subset):
        """The JSON and elements with the first subset replaced."""
        new = json.loads(json.dumps(raw))
        new["values"][0]["subset"] = list(subset)
        items = list(values.items())
        return new, {tuple(subset): items[0][1], **dict(items[1:])}

    if rank >= 2:
        subset = first[::-1]
        out["order"] = (*changed(subset), f": subset {subset} is not in ground order")
        subset = first[:-1] + first[:1]
        out["repeated-label"] = (*changed(subset), f": subset {subset} is not an {rank}-set")
    if rank < len(labels):
        subset = first + tuple(x for x in labels if x not in first)[:1]
        out["size"] = (*changed(subset), f": subset {subset} is not an {rank}-set")
    again = json.loads(json.dumps(raw))
    again["values"].append(rng.choice(raw["values"]))
    out["repeated-subset"] = (again, None, f".values[{len(values)}].subset: "
                              f"duplicate subset {again['values'][-1]['subset']}")
    unknown = json.loads(json.dumps(raw))
    i = rng.randrange(len(values))
    unknown["values"][i]["subset"][-1] = "zz"
    out["unknown-label"] = (unknown, None, f".values[{i}].subset: not a list of ground labels")
    for bad in (0, len(labels) + 1):
        out[f"rank-{bad}"] = ({**raw, "rank": bad}, values,
                              f": rank {bad} out of range for |E| = {len(labels)}")
    zero = {key: hf.zero() for key in values}
    out["zero"] = (gp_raw(hf, ground, rank, zero), zero, ": identically zero (GP1 fails)")
    return out


@pytest.mark.parametrize("hf", ALL_KINDS + [gf(5)], ids=str)
@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_parsed_gp_matches_the_element_constructor(hf, seed):
    """A GP function read from JSON, straight into its table, and the same
    values given to the element constructor agree: the table (payloads
    bit for bit), the element view in input order less the zeros, and the
    canonical JSON, which lists the nonzero values by ground position.
    The values include zeros and come in shuffled order over a ground
    whose label order is not its position order.  A subset out of ground
    order, of the wrong size, with a label repeated, listed twice or
    naming an unknown label, a rank out of range and an identically zero
    function exit 2 with their message, which the constructor raises too."""
    rng = random.Random(seed)
    ground, rank, values = drawn_gp(hf, rng)
    parsed = parse_object(json.loads(json.dumps(gp_raw(hf, ground, rank, values))))
    built = GPFunction(hf, ground, rank, values)
    nonzero = {key: el for key, el in values.items() if not el.is_zero}
    assert {m: repr(a) for m, a in parsed._table.items()} == \
        {m: repr(a) for m, a in built._table.items()}
    assert list(parsed._table) == [sum(1 << ground.index(x) for x in key) for key in nonzero]
    assert list(parsed.values.items()) == list(built.values.items()) == list(nonzero.items())
    canonical = sorted(nonzero, key=lambda key: [ground.index(x) for x in key])
    assert serialize(parsed) == serialize(built) == json.dumps(
        gp_raw(hf, ground, rank, {key: nonzero[key] for key in canonical}), indent=2)
    for fault, (raw, elements, message) in faults(hf, ground, rank, values, rng).items():
        assert run_check_gp(raw) == (2, "", message + "\n"), fault
        if elements is not None:
            with pytest.raises(InputError) as caught:
                GPFunction(hf, ground, raw["rank"], elements)
            assert str(caught.value) == message[2:], fault
