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

import oracles
from oracles import element_from_json, equivalent_gp, same_signature
from strategies import ALL_KINDS, perturbed, random_weak_signature
from test_cli import fuzz_documents, mutated
from test_golden_cli import (HOSTILE, HUGE_MODULUS, MALFORMED, MALFORMED_SIGNATURES,
                             malformed, malformed_pair, malformed_signature)


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


def test_payloads_too_large_for_a_float_are_input_errors():
    """A triangle value or a phase angle that no float holds is refused
    with its field, not a traceback."""
    huge = 10 ** 400
    for hf, value in ((TRIANGLE, huge), (PHASE, {"angle": huge})):
        raw = json.loads(serialize(GPFunction(hf, GroundSet([1, 2]), 1,
                                              {(1,): hf.one(), (2,): hf.one()})))
        raw["values"][1]["value"] = value
        with pytest.raises(InputError, match=r"^gp\.values\[1\]\.value: int too large"):
            parse_object(raw, "gp")


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


# what `hfm classify` prints on stderr after "error: <file>", or "warning:
# <file>" for the dropped class, for each input of
# `test_golden_cli.MALFORMED_SIGNATURES`; `hfm gp` on the dual pair with
# the fault in its cocircuits prints the same after "<file>.cocircuits"
MALFORMED_SIGNATURE_MESSAGES = {
    "missing-field": ": missing field 'ground_set'",
    "no-entries": ".circuits[1]: expected an object with an 'entries' field",
    "entries-not-object": ".circuits[1].entries: expected an object",
    "unknown-label": ".circuits[2].entries.9: not a ground set label",
    "bad-payload": ".circuits[3].entries.3: sign payload must be -1, 0 or 1, got 7",
    "inner-hyperfield": ".circuits[0].hyperfield: 'tropical' does not match the "
                        "enclosing sign",
    "duplicate-class": ": 1 duplicate projective class(es) dropped",
    "hyperfield-then-label": ".circuits[1].hyperfield: 'gf(3)' does not match the "
                             "enclosing sign",
    "payload-then-label": ".circuits[1].entries.1: sign payload must be -1, 0 or 1, got 2",
}


def test_malformed_signatures_and_pairs_exit_2_with_their_message(tmp_path, capsys):
    """Each fault exits 2 with its message, the first fault met naming it;
    a class listed twice exits 0 with one warning line."""
    assert set(MALFORMED_SIGNATURE_MESSAGES) == set(MALFORMED_SIGNATURES)
    for case, message in MALFORMED_SIGNATURE_MESSAGES.items():
        for command, raw, where in (("classify", malformed_signature(case), ""),
                                    ("gp", malformed_pair(case), ".cocircuits")):
            path = tmp_path / f"{command}-{case}.json"
            path.write_text(json.dumps(raw))
            code = main([command, str(path)])
            out, err = capsys.readouterr()
            if case == "duplicate-class":
                assert code in (0, 1) and out, (command, case)
                assert err == f"warning: {path}{where}{message}\n", (command, case)
            else:
                assert (code, out, err) == (2, "", f"error: {path}{where}{message}\n"), \
                    (command, case)


# what `hfm check-gp` prints on stderr after "error: <file>" for each input
# of `test_golden_cli.HOSTILE`; `hfm experiment --config` on the nested
# one, and `hfm axioms --hyperfield` on the huge modulus, print the same
MODULUS_MESSAGE = ("modulus 1000000000000000000000000000057 is too large: "
                   "primality is decided below 3317044064679887385961981")
HOSTILE_MESSAGES = {
    "nested": ": JSON nested too deeply",
    "exponent": ".values[1].value: decimal exponent beyond 4300 in absolute "
                "value: '1e1000000000'",
    "negative-exponent": ".values[1].value: decimal exponent beyond 4300 in "
                         "absolute value: '-1e-1000000000'",
    "long-integer": ": invalid JSON (Exceeds the limit (4300 digits) for integer "
                    "string conversion: value has 5000 digits; use "
                    "sys.set_int_max_str_digits() to increase the limit)",
    "modulus": ".hyperfield: " + MODULUS_MESSAGE,
}


def test_hostile_inputs_exit_2_with_their_message(tmp_path, capsys):
    assert set(HOSTILE_MESSAGES) == set(HOSTILE)
    for case, message in HOSTILE_MESSAGES.items():
        path = tmp_path / f"{case}.json"
        path.write_text(HOSTILE[case]())
        assert main(["check-gp", "--both", str(path)]) == 2, case
        assert capsys.readouterr() == ("", f"error: {path}{message}\n"), case
    path = tmp_path / "nested.json"
    assert main(["experiment", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: JSON nested too deeply\n")
    assert main(["axioms", "--hyperfield", HUGE_MODULUS]) == 2
    assert capsys.readouterr() == ("", f"error: --hyperfield: {MODULUS_MESSAGE}\n")


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


# labels that JSON writes with escapes: quotes, backslashes, control and
# non-ASCII characters
LABELS = st.one_of(st.integers(-99, 99),
                   st.text(st.sampled_from('ab"\\/\n\t\u00e9\u2713\U0001d54f '),
                           min_size=1, max_size=3))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_KINDS + [gf(5)]),
       st.lists(LABELS, min_size=1, max_size=6, unique_by=str),
       st.integers(1, 3), st.integers(0, 2 ** 32))
def test_gp_writer_is_the_generic_encoder(hf, labels, rank, seed):
    """`serialize` writes a GP function from its table, byte for byte the
    indented encoding of its schema (`oracles.gp_to_json`, built from the
    element view), and the text reads back to the same table; over every
    family and GF(5), int and str labels, phase angles, tropical "p/q"
    values and rank 1."""
    rng, rank = random.Random(seed), min(rank, len(labels))
    ground = GroundSet(labels)
    keys = list(combinations(labels, rank))
    values = {key: hf.zero() if rng.random() < 0.3
              else sample_element(hf, rng, nonzero=True) for key in keys}
    if hf is TROPICAL:
        values.update({key: TROPICAL.element(Fraction(rng.randint(1, 9), 3))
                       for key in keys if rng.random() < 0.3})
    values[rng.choice(keys)] = sample_element(hf, rng, nonzero=True)
    phi = GPFunction(hf, ground, rank, values)
    text = serialize(phi)
    assert text == json.dumps(oracles.gp_to_json(phi), indent=2)
    again = parse_text(text)
    assert again.ground == ground and again.rank == rank
    assert {m: repr(a) for m, a in again._table.items()} == \
        {m: repr(a) for m, a in phi._table.items()}


def read_both(raw):
    """(outcome, warnings) of `parse_object` and of the walking readers
    (`oracles.parse_by_walk`) on one JSON value: the canonical text of
    the object and the payload tables in order, or the error's type and
    text."""
    def outcome(read):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                obj = read(raw)
            except Exception as exc:  # noqa: BLE001 - the type is compared
                result = (type(exc).__name__, str(exc))
            else:
                parts = obj if isinstance(obj, tuple) else (obj,)
                result = (serialize(obj), [repr(part._table) if isinstance(
                    part, GPFunction) else repr(part._payloads) for part in parts])
        return result, [str(w.message) for w in caught]
    return outcome(parse_object), outcome(oracles.parse_by_walk)


@pytest.mark.parametrize("hf", ALL_KINDS + [gf(5)], ids=str)
@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_one_pass_readers_match_the_walk(hf, seed):
    """The one-pass readers build what the walking readers build, the
    tables in the same order, on drawn GP functions and signatures (zeros
    listed, values shuffled, labels out of natural order), and refuse
    each fault of `faults` with the same text, also with a second fault
    at a random value: a bad payload, its subset reversed, an empty
    subset listed first, or an unknown label after the subset's other
    labels or after them reversed."""
    rng = random.Random(seed)
    ground, rank, values = drawn_gp(hf, rng)
    raw = json.loads(json.dumps(gp_raw(hf, ground, rank, values)))
    new, old = read_both(raw)
    assert new == old and isinstance(new[0][1], list)
    for fault, (changed, _, _) in faults(hf, ground, rank, values, rng).items():
        new, old = read_both(json.loads(json.dumps(changed)))
        assert new == old and new[0][0] == "InputError", fault
        for second in ("payload", "order", "empty", "label", "label-after-order"):
            twice = json.loads(json.dumps(changed))
            item = rng.choice(twice["values"])
            if second == "empty":
                twice["values"].insert(0, {**item, "subset": []})
            elif second == "payload":
                item["value"] = []
            elif second == "order":
                item["subset"] = item["subset"][::-1]
            else:
                item["subset"] = (item["subset"][::-1] if second == "label-after-order"
                                  else item["subset"]) + ["zz"]
            new, old = read_both(twice)
            assert new == old, (fault, second)
    doc = json.loads(serialize(as_drawn(hf, rng)))
    zero = element_to_json(hf.zero())
    for circuit in doc["circuits"]:
        items = list(circuit["entries"].items()) + [
            (str(label), zero) for label in doc["ground_set"] if rng.random() < 0.2
            and str(label) not in circuit["entries"]]
        rng.shuffle(items)
        circuit["entries"] = dict(items)
    doc["circuits"].append(dict(doc["circuits"][0]))
    new, old = read_both(doc)
    assert new == old and new[1], new


def test_one_pass_readers_refuse_mutations_as_the_walk_does():
    """On 400 seeded mutations of every input shape (the mutator of
    `test_cli_survives_mutated_input`), the one-pass readers and the walk
    accept the same objects and raise the same errors with the same
    text; a text that is not JSON, or nests too deeply to decode, is
    skipped."""
    rng = random.Random(1601)
    docs = fuzz_documents()
    refused = 0
    for _ in range(400):
        try:
            raw = json.loads(mutated(rng.choice(docs), rng))
        except (json.JSONDecodeError, RecursionError):
            continue
        new, old = read_both(raw)
        assert new == old, raw
        refused += new[0][0] == "InputError"
    assert refused > 100


@pytest.mark.parametrize("hf", [SIGN, KRASNER, gf(3), TRIANGLE], ids=str)
def test_decode_memo_tells_spellings_apart(hf):
    """`true`, `1` and `1.0` hash alike, so a memo keyed by the raw value
    alone would read a later `true` or `1.0` as an earlier `1`: in either
    order the one-pass readers accept or refuse as the walk does."""
    spellings = [(1, True), (True, 1), (1, 1.0), (1.0, 1), (1, 1.0, True)]
    for spelled in spellings:
        gp = {"hyperfield": str(hf), "ground_set": list(range(len(spelled))),
              "rank": 1, "values": [{"subset": [i], "value": v}
                                    for i, v in enumerate(spelled)]}
        sig = {"hyperfield": str(hf), "ground_set": list(range(len(spelled))),
               "circuits": [{"entries": {str(i): v}} for i, v in enumerate(spelled)]}
        for raw in (gp, sig):
            new, old = read_both(json.loads(json.dumps(raw)))
            assert new == old, (spelled, raw)
            refused = new[0][0] == "InputError"
            kinds = {type(v) for v in spelled}
            assert refused == (bool in kinds or float in kinds and hf is not TRIANGLE), \
                (spelled, new)
