"""End-to-end checks of the command line interface.

Each test drives ``hypermatroid.cli.main`` directly with an argv list and
inspects the exit code plus captured stdout/stderr, so no subprocess is
needed.
"""

import copy
import json
import random
from collections import Counter
from itertools import combinations

import pytest

import hypermatroid
from hypermatroid import (CORPUS, SIGN, TROPICAL, CircuitSignature, FVector,
                          GPFunction, GroundSet, circuits_from_gp,
                          cocircuit_signature_from_circuits, corpus_entries,
                          sample_element, serialize)
from hypermatroid.cli import main

import oracles
from strategies import perturbed, weak_candidate


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(serialize(obj) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_axioms_ok(capsys):
    code, out, err = run(capsys, "axioms", "--hyperfield", "sign")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["ok"] is True and report["hyperfield"] == "sign"


def test_axioms_unknown_hyperfield(capsys):
    code, out, err = run(capsys, "axioms", "--hyperfield", "gf(4)")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("hyperfield, budget", [("tropical", "0"), ("phase", "-3"),
                                                ("sign", "0")])
def test_axioms_refuse_a_budget_below_one(capsys, hyperfield, budget):
    """A budget below 1 would check nothing and pass."""
    code, out, err = run(capsys, "axioms", "--hyperfield", hyperfield, "--budget", budget)
    assert code == 2 and out == "" and "--budget" in err


@pytest.mark.parametrize("hyperfield", ["gf(101)", "gf(1000003)"])
def test_axioms_sample_a_field_larger_than_the_budget(capsys, hyperfield):
    code, out, _ = run(capsys, "axioms", "--hyperfield", hyperfield)
    report = json.loads(out)
    assert code == 0 and report["ok"] is True and report["exhaustive"] is False


def test_check_gp_both_sections(capsys, tmp_path):
    path = write(tmp_path, "gp.json", CORPUS["sign-u24"].build())
    code, out, _ = run(capsys, "check-gp", "--both", path)
    assert code == 0
    report = json.loads(out)
    assert report["weak"]["ok"] and report["strong"]["ok"]


def test_check_gp_weak_only_instance(capsys, tmp_path):
    path = write(tmp_path, "tri.json",
                 CORPUS["triangle-weak-not-strong"].build())
    code, out, _ = run(capsys, "check-gp", "--strong", path)
    assert code == 1
    report = json.loads(out)
    assert report["strong"]["ok"] is False
    assert report["strong"]["witness"]


def test_check_circuits(capsys, tmp_path):
    from hypermatroid import circuits_from_gp
    sig = circuits_from_gp(CORPUS["sign-u24"].build())
    path = write(tmp_path, "sig.json", sig)
    code, out, _ = run(capsys, "check-circuits", path)
    assert code == 0
    report = json.loads(out)
    assert report["weak_elimination"]["ok"]


@pytest.mark.parametrize("name", ["triangle-weak-not-strong",
                                  "phase-weak-not-strong"])
def test_check_circuits_skips_the_strong_scan(capsys, tmp_path, monkeypatch,
                                              name):
    """check-circuits reports weakness alone, so on a weak-only signature
    it must not run modular-family elimination (C3)."""
    path = write(tmp_path, "sig.json",
                 circuits_from_gp(CORPUS[name].build()))
    expected = run(capsys, "check-circuits", path)
    assert expected[0] == 0
    assert json.loads(expected[1])["weak_elimination"] == {"ok": True,
                                                           "witness": None}

    def refuse(sig):
        raise AssertionError("check-circuits ran the C3 scan")

    monkeypatch.setattr("hypermatroid.gp.check_strong_elimination", refuse)
    assert run(capsys, "check-circuits", path) == expected


def test_check_circuits_decides_the_matroid_once(capsys, tmp_path, monkeypatch):
    """check-circuits builds the underlying matroid once, as classify
    does: one rank test (`matroids._spans_a_matroid`) on the sign-k4
    circuits."""
    path = write(tmp_path, "sig.json", circuits_from_gp(CORPUS["sign-k4"].build()))
    spans, calls = hypermatroid.matroids._spans_a_matroid, []

    def counting(*args):
        calls.append(args)
        return spans(*args)

    monkeypatch.setattr(hypermatroid.matroids, "_spans_a_matroid", counting)
    for command in ("check-circuits", "classify"):
        calls.clear()
        assert run(capsys, command, path)[0] == 0
        assert len(calls) == 1, command


def test_classify_verdicts(capsys, tmp_path):
    from hypermatroid import circuits_from_gp
    good = write(tmp_path, "good.json",
                 circuits_from_gp(CORPUS["sign-u24"].build()))
    code, out, _ = run(capsys, "classify", good)
    assert code == 0 and json.loads(out)["verdict"] == "Strong"

    weak = write(tmp_path, "weak.json",
                 circuits_from_gp(CORPUS["triangle-weak-not-strong"].build()))
    code, out, _ = run(capsys, "classify", weak)
    assert code == 1 and json.loads(out)["verdict"] == "WeakOnly"


def test_circuits_and_gp_roundtrip(capsys, tmp_path):
    gp_path = write(tmp_path, "gp.json", CORPUS["gf3-u24"].build())
    code, out, _ = run(capsys, "circuits", gp_path)
    assert code == 0
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(out)

    code, out, _ = run(capsys, "dual", str(sig_path))
    assert code == 0
    pair = {"circuits": json.loads(sig_path.read_text()),
            "cocircuits": json.loads(out)}
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps(pair))

    code, out, _ = run(capsys, "gp", str(pair_path))
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_circuits_above_the_matroid_cap(capsys, tmp_path):
    """`circuits` accepts every function the weak check accepts: a rank-1
    sign function on 20 labels, more than a matroid's ground set may
    have, has every pair of labels as a circuit."""
    labels = tuple(range(1, 21))
    phi = GPFunction(SIGN, GroundSet(labels), 1, {
        (x,): SIGN.element(1 if x % 3 else -1) for x in labels})
    code, out, err = run(capsys, "circuits", write(tmp_path, "gp.json", phi))
    assert code == 0 and err == ""
    circuits = [sorted(map(int, c["entries"])) for c in json.loads(out)["circuits"]]
    assert circuits == [list(pair) for pair in combinations(labels, 2)]


def test_minor_above_the_matroid_cap(capsys, tmp_path):
    """`minor` reads its greedy choices off the support's bases, so it
    takes a rank-1 tropical function on 20 labels: contracting the loop 4
    keeps the rank, and deleting 1 drops its value."""
    labels = tuple(range(1, 21))
    phi = GPFunction(TROPICAL, GroundSet(labels), 1, {
        (x,): TROPICAL.element(x) for x in labels if x % 4})
    path = write(tmp_path, "gp.json", phi)
    code, out, err = run(capsys, "minor", "--delete", "1", "--contract", "4", path)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["rank"] == 1
    assert report["ground_set"] == [x for x in labels if x not in (1, 4)]
    assert [v["subset"] for v in report["values"]] == [
        [x] for x in labels if x % 4 and x != 1]


def test_dual_on_gp(capsys, tmp_path):
    path = write(tmp_path, "gp.json", CORPUS["sign-k4"].build())
    code, out, _ = run(capsys, "dual", path)
    assert code == 0 and json.loads(out)["rank"] == 3


def test_minor(capsys, tmp_path):
    path = write(tmp_path, "gp.json", CORPUS["sign-k4"].build())
    code, out, _ = run(capsys, "minor", "--delete", "ab",
                       "--contract", "cd", path)
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 2 and len(report["ground_set"]) == 4

    code, out, err = run(capsys, "minor", path)
    assert code == 2 and "error:" in err


def test_pushforward(capsys, tmp_path):
    path = write(tmp_path, "gp.json", CORPUS["rational-u24"].build())
    code, out, _ = run(capsys, "pushforward", "--hom", "sign", path)
    assert code == 0 and json.loads(out)["hyperfield"] == "sign"

    code, out, _ = run(capsys, "pushforward", "--hom", "padic:5", path)
    assert code == 0 and json.loads(out)["hyperfield"] == "tropical"

    code, _, err = run(capsys, "pushforward", "--hom", "sign",
                       write(tmp_path, "s.json", CORPUS["sign-u24"].build()))
    assert code == 2 and "error:" in err


def test_dressian(capsys, tmp_path):
    path = write(tmp_path, "trop.json", CORPUS["tropical-u24"].build())
    code, out, _ = run(capsys, "dressian", path)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["relations_checked"] >= 1


def test_dressian_matches_the_three_term_scan(capsys, tmp_path):
    """The count of three-term pairs and the first failing one, basis
    exchange left aside, on tropical functions with random values and
    supports over shuffled ground orders."""
    rng = random.Random(11)
    outcomes = set()
    for n in range(40):
        rank = rng.randint(1, 4)
        labels = rng.sample(range(1, 8), rng.randint(rank, 7))
        keys = [k for k in combinations(labels, rank) if rng.random() < 0.8]
        values = {k: sample_element(TROPICAL, rng, nonzero=True)
                  for k in keys or [tuple(labels[:rank])]}
        phi = GPFunction(TROPICAL, GroundSet(labels), rank, values)
        code, out, _ = run(capsys, "dressian",
                           write(tmp_path, f"t{n}.json", phi))
        report = json.loads(out)
        want = oracles.relation_witness(phi, True)
        assert report["relations_checked"] == \
            len(list(oracles.relation_pairs(phi, True)))
        if want is None:
            assert code == 0 and report["witness"] is None
        else:
            assert code == 1
            assert report["witness"] == {"I": list(want["I"]),
                                         "J": list(want["J"])}
        outcomes.add((code, oracles.exchange_witness(phi) is None))
    assert outcomes >= {(0, True), (1, True), (1, False)}


def test_demo_list_and_run(capsys):
    code, out, _ = run(capsys, "demo", "--list")
    assert code == 0 and "triangle-weak-not-strong" in out

    code, out, _ = run(capsys, "demo", "sign-u24")
    assert code == 0 and json.loads(out)["ok"]


def test_experiment_deterministic(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hyperfield": "sign", "samples": 8,
                               "seed": 3}))
    code, first, _ = run(capsys, "experiment", "--config", str(cfg))
    assert code == 0
    code, second, _ = run(capsys, "experiment", "--config", str(cfg))
    assert first == second

    code, third, _ = run(capsys, "experiment", "--config", str(cfg),
                         "--seed", "4")
    assert code == 0 and third != first


def test_stdin_input(capsys, monkeypatch):
    import io
    payload = serialize(CORPUS["sign-u24"].build())
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "check-gp", "--weak", "-")
    assert code == 0 and json.loads(out)["weak"]["ok"]


def test_missing_file(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/path.json")
    assert code == 2 and err.startswith("error:")


def test_dropped_duplicate_class_is_one_stderr_line(capsys, tmp_path):
    """`classify` and `dual` on a signature that lists a class twice, the
    second time times a unit, print their result and exactly one warning
    line, which names the file and no source line of the package."""
    from test_golden_cli import DUPLICATE, duplicated
    path = write(tmp_path, f"sig-{DUPLICATE[0]}-duplicate.json", duplicated())
    for command in ("classify", "dual"):
        code, out, err = run(capsys, command, path)
        assert code in (0, 1) and json.loads(out)
        assert err == f"warning: {path}: 1 duplicate projective class(es) dropped\n"


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("name, obj, field", [
    ("gp.json", {"hyperfield": "sign", "ground_set": [1], "rank": 1,
                 "values": [{"subset": [[1]], "value": 1}]},
     "values[0].subset"),
])
def test_unhashable_labels_are_input_errors(capsys, tmp_path, name, obj, field):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check-gp", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("obj", [
    {"ground_set": [1, 2], "circuits": [[[1], 2]]},
    {"hyperfield": "sign", "ground_set": [1, 2], "entries": {"1": 1}},
], ids=["matroid", "vector"])
def test_unread_shapes_are_input_errors(capsys, tmp_path, obj):
    """A bare matroid or vector is no command's input."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check-gp", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("keys, want", [
    ([("a", 1), ("a", 2), (1, 2)], 0),
    ([("a", 1), (2, 3)], 1),  # fails basis exchange
])
def test_mixed_labels_give_a_verdict(capsys, tmp_path, keys, want):
    """Labels of different types are ordered by ground position, never
    compared with each other."""
    ground = GroundSet(("a", 1, 2, 3))
    phi = GPFunction(SIGN, ground, 2, {key: SIGN.one() for key in keys})
    path = write(tmp_path, "gp.json", phi)
    code, out, err = run(capsys, "check-gp", "--both", path)
    assert code == want and err == ""
    report = json.loads(out)
    assert report["weak"]["ok"] is (want == 0)
    if want:
        assert report["weak"]["witness"]["axiom"] == "exchange"
    code, out, err = run(capsys, "circuits", path)
    assert code == want and err == ""


def test_mixed_labels_name_the_circuit_violation(capsys, tmp_path):
    """Supports over labels of different types that fail circuit
    elimination get a verdict, their sets listed in ground order."""
    ground = GroundSet(("a", 1, 2))
    sig = CircuitSignature(SIGN, ground, [
        FVector(SIGN, ground, {"a": SIGN.one(), 1: SIGN.one()}),
        FVector(SIGN, ground, {1: SIGN.one(), 2: SIGN.one()})])
    path = write(tmp_path, "sig.json", sig)
    violation = {"rule": "elimination", "first": ["a", 1], "second": [1, 2],
                 "element": 1}
    code, out, err = run(capsys, "classify", path)
    assert code == 1 and err == ""
    assert json.loads(out) == {"verdict": "UnderlyingNotMatroid",
                               "witness": {"axiom": "underlying", **violation}}
    code, out, err = run(capsys, "check-circuits", path)
    assert code == 1 and err == ""
    assert json.loads(out)["underlying_matroid"] == {"ok": False,
                                                     "witness": violation}


def test_mixed_labels_minor_of_a_non_matroid_support(capsys, tmp_path):
    ground = GroundSet(("a", 1, 2, 3))
    phi = GPFunction(SIGN, ground, 2, {("a", 1): SIGN.one(), (2, 3): SIGN.one()})
    path = write(tmp_path, "gp.json", phi)
    code, out, err = run(capsys, "minor", "--delete", "a", path)
    assert code == 2 and out == ""
    assert err.startswith("error: not a matroid:") and err.count("\n") == 1


def test_mixed_labels_minor_with_overlapping_sets(capsys, tmp_path):
    """Labels both deleted and contracted are refused, listed in ground
    order, for a signature and a function over int and str labels."""
    ground = GroundSet(("a", 1, 2))
    sig = CircuitSignature(SIGN, ground, [
        FVector(SIGN, ground, {"a": SIGN.one(), 1: SIGN.one(), 2: SIGN.one()})])
    phi = GPFunction(SIGN, ground, 1, {(x,): SIGN.one() for x in ground})
    for obj in (sig, phi):
        path = write(tmp_path, "obj.json", obj)
        code, out, err = run(capsys, "minor", "--delete", "1,a", "--contract", "a,1", path)
        assert (code, out) == (2, "")
        assert err == "error: delete and contract sets overlap: ['a', 1]\n"


def test_mixed_labels_name_the_inconsistent_cocircuit(capsys, tmp_path):
    """A phase signature over int and str labels with one entry changed:
    its derived cocircuit ratios disagree, and the message lists the
    cocircuit's labels in ground order."""
    sig = perturbed(circuits_from_gp(weak_candidate(random.Random(0))),
                    random.Random(1))
    path = write(tmp_path, "sig.json", sig)
    code, out, err = run(capsys, "classify", path)
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["verdict"] == "InvalidSignature"
    assert report["witness"]["axiom"] == "C3'"
    code, out, err = run(capsys, "dual", path)
    assert code == 1 and err == ""
    assert json.loads(out) == {
        "error": "RatioInconsistencyError",
        "detail": "cocircuit [2, 4, 3, 'p'] ratios disagree at (4, 3)"}


# -- fuzzing ---------------------------------------------------------------------


def fuzz_documents():
    """JSON documents of every input shape: the corpus functions and
    signatures, the circuits of a function, and a dual pair."""
    docs = [json.loads(serialize(entry.build())) for entry in corpus_entries()]
    sig = circuits_from_gp(CORPUS["sign-k4"].build())
    docs.append(json.loads(serialize(sig)))
    cocircuits = cocircuit_signature_from_circuits(sig)
    docs.append({"circuits": json.loads(serialize(sig)),
                 "cocircuits": json.loads(serialize(cocircuits))})
    return docs


DROP = object()
RETYPED = [None, True, 0, -1, 2.5, "x", "1/2", "gf(4)", [], {}, [[1]]]


def nodes(doc, path=()):
    """Every (path, value) below the root, depth first."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


def replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def mutated(doc, rng):
    """The document as text after one seeded mutation: a value retyped,
    wrapped in a list or dropped, or the text truncated."""
    text = json.dumps(doc)
    how = rng.choice(["retype", "wrap", "drop", "truncate"])
    if how == "truncate":
        return text[:rng.randrange(len(text))]
    path, value = rng.choice(list(nodes(doc)))
    if how == "retype":
        value = rng.choice(RETYPED)
    elif how == "wrap":
        value = [value]
    else:
        value = DROP
    return json.dumps(replaced(doc, path, value))


def test_cli_survives_mutated_input(capsys, tmp_path):
    """Every command exits 0, 1 or 2 on mutated input and never ends in a
    traceback; exit 2 prints one error line and nothing else."""
    rng = random.Random(1601)
    docs = fuzz_documents()
    path = tmp_path / "input.json"
    codes = Counter()
    for _ in range(400):
        path.write_text(mutated(rng.choice(docs), rng))
        for command in ("check-gp", "circuits", "check-circuits", "classify",
                        "dual", "gp"):
            code, out, err = run(capsys, command, str(path))
            assert code in (0, 1, 2)
            if code == 2:
                assert out == "" and err.startswith("error: ")
                assert err.count("\n") == 1
            else:
                assert err == ""
            codes[code] += 1
    assert codes[0] and codes[1] and codes[2]
