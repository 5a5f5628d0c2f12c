"""The packed circuit/cocircuit pair loop and the mask-based cocircuit
derivation against their element-level forms in `oracles`; the unchecked
derivation of `orthogonality_verdict` against the checked one; and guards
that the runtime paths call neither element-level orthogonality nor
label-level fundamental circuits, and that the verdict makes no
element-level operation at all."""

import json
import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import hypermatroid
from hypermatroid import (CORPUS, KRASNER, PHASE, RATIONALS, SIGN, TRIANGLE,
                          TROPICAL, CircuitSignature, ClassicalMatroid, ExperimentConfig,
                          FVector, GPFunction, HFElement, InputError,
                          RatioInconsistencyError, check_C0_C2,
                          circuits_from_gp, classify,
                          cocircuit_signature_from_circuits, corpus_entries,
                          gf, gp_from_dual_pair,
                          nonorthogonal_pair, orthogonal,
                          orthogonality_verdict, random_weak_gp,
                          run_perfection_experiment, serialize, vectors)
from hypermatroid.cli import main
from hypermatroid.corpus import gp_from_matrix
from hypermatroid.gp import _cocircuit_payloads

import oracles
from strategies import (ALL_KINDS, every_overlap_pair, perturbed,
                        random_weak_signature, weak_functions)


def derived(derive, sig):
    """(the derived cocircuits, their JSON), or (None, the message of the
    RatioInconsistencyError), which lists the labels of the cocircuit in
    ground order, so int and str labels mix."""
    try:
        cocircuits = derive(sig)
    except RatioInconsistencyError as exc:
        return None, str(exc)
    return cocircuits, serialize(cocircuits)


def assert_same_pair(C, D):
    """The packed loop names the oracle's (overlap, X, Y), the very class
    objects, stopping at overlap 3 and over every overlap."""
    for got, full in ((nonorthogonal_pair(C, D), False), (every_overlap_pair(C, D), True)):
        want = oracles.nonorthogonal_pair(C, D, full)
        if want is None:
            assert got is None
        else:
            assert got[0] == want[0] and got[1] is want[1] and got[2] is want[2]


def assert_matches_oracles(sig, rng):
    """On sig and on a copy with one entry changed: the same cocircuit
    JSON or the same error message, and the same pair against the derived
    cocircuits, as derived and with one entry changed."""
    for circuits in (sig, perturbed(sig, rng)):
        cocircuits, got = derived(cocircuit_signature_from_circuits, circuits)
        assert got == derived(oracles.cocircuit_signature_from_circuits, circuits)[1]
        if cocircuits is not None:
            assert_same_pair(circuits, cocircuits)
            assert_same_pair(circuits, perturbed(cocircuits, rng))


@settings(max_examples=40, deadline=None)
@given(weak_functions(), st.integers(0, 2 ** 32))
def test_packed_loop_matches_oracles_on_weak_functions(phi, seed):
    """Weak and weak-only functions over triangle and phase."""
    assert_matches_oracles(circuits_from_gp(phi), random.Random(seed))


def test_packed_loop_matches_oracles_on_sampled_functions():
    """`random_weak_gp` functions over every built-in and GF(5)."""
    for hf in ALL_KINDS + [gf(5)]:
        rng = random.Random(1601)
        for _ in range(10):
            phi = random_weak_gp(hf, rng, max_rank=4, max_ground=7)
            assert_matches_oracles(circuits_from_gp(phi), rng)


# denominators of the matrix entries and of the tropical label weights,
# one above 2**64
DENOMINATORS = (1, 2, 3, 5, 7, 9, 2 ** 64 + 13)


def mixed_denominators(hf, rng):
    """A realizable rank-3 function on six labels with entries of mixed
    denominators, over the rationals, or over tropical as the 3-adic
    absolute value of each minor times per-label weights."""
    columns = [(1, 0, 0), (0, 1, 0), (0, 0, 1)] + [
        tuple(Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS))
              for _ in range(3)) for _ in range(3)]
    rational = gp_from_matrix(RATIONALS, tuple(range(1, 7)), columns)
    if hf is RATIONALS:
        return rational
    weights = [Fraction(rng.randint(1, 9), rng.choice(DENOMINATORS))
               for _ in range(6)]
    values = {}
    for key, value in rational.values.items():
        q, weight = value.value, Fraction(1)
        for part, sign in ((q.numerator, 1), (q.denominator, -1)):
            while part % 3 == 0:
                part, weight = part // 3, weight * Fraction(3) ** -sign
        for label in key:
            weight *= weights[label - 1]
        values[key] = TROPICAL.element(weight)
    return GPFunction(TROPICAL, rational.ground, 3, values)


def test_packed_loop_matches_oracles_on_mixed_denominators():
    rng = random.Random(437)
    for hf in (TROPICAL, RATIONALS):
        for _ in range(15):
            assert_matches_oracles(circuits_from_gp(mixed_denominators(hf, rng)),
                                   rng)


def refuse(*args, **kwargs):
    raise AssertionError("an element-level path was called")


def corpus_commands(tmp_path) -> list:
    """The argv of every `hfm` command that reads a function or a
    signature, on every corpus input: its function, its circuit signature
    and its dual pair (the circuits with their derived cocircuits)."""
    out = []
    for entry in corpus_entries():
        obj = entry.build()
        sig = circuits_from_gp(obj) if entry.kind == "gp" else obj
        files = {"gp": obj} if entry.kind == "gp" else {}
        files["sig"] = sig
        try:
            files["pair"] = {"circuits": sig,
                             "cocircuits": cocircuit_signature_from_circuits(sig)}
        except (InputError, RatioInconsistencyError):
            pass
        paths = {}
        for kind, data in files.items():
            paths[kind] = str(tmp_path / f"{kind}-{entry.name}.json")
            with open(paths[kind], "w", encoding="utf-8") as handle:
                handle.write(serialize(data))
        labels = [str(label) for label in sig.ground.labels]
        homs = ["krasner"] + (["sign", "padic:2"] if sig.hyperfield is RATIONALS else [])
        if "gp" in paths:
            out += [["check-gp", paths["gp"]], ["circuits", paths["gp"]]]
            if sig.hyperfield is TROPICAL:
                out.append(["dressian", paths["gp"]])
        for path in [paths[kind] for kind in ("gp", "sig") if kind in paths]:
            out += [["dual", path], ["minor", path, "--delete", labels[0]],
                    ["minor", path, "--delete", labels[0], "--contract", labels[-1]]]
            out += [["pushforward", path, "--hom", hom] for hom in homs]
        out += [["classify", paths["sig"]], ["check-circuits", paths["sig"]]]
        if "pair" in paths:
            out.append(["gp", paths["pair"]])
    return out


def test_runtime_paths_take_masks_and_payloads(monkeypatch, tmp_path, capsys):
    """classify, the dual, the dual-pair walk and the perfection sweep
    run with element-level orthogonality and label-level fundamental
    circuits refusing; `hfm classify` on a signature file builds no
    HFElement and no FVector up to its verdict, so none on a Strong one:
    a WeakOnly or InvalidSignature one builds them for its witness.  And
    every command that reads a function or a signature, on every corpus
    input, builds none from parse to output, except in naming a witness
    (`gp._witness`, `gp.elimination_witness`), which starts at zero."""
    for module in [hypermatroid] + [getattr(hypermatroid, name) for name in (
            "circuits", "experiments", "gp", "transforms", "vectors")]:
        if getattr(module, "orthogonal", None) is vectors.orthogonal:
            monkeypatch.setattr(module, "orthogonal", refuse)
    monkeypatch.setattr(ClassicalMatroid, "fundamental_circuit", refuse)
    rebuilt = 0
    for entry in corpus_entries():
        obj = entry.build()
        sig = circuits_from_gp(obj) if entry.kind == "gp" else obj
        verdict = classify(sig).verdict
        if verdict in ("Strong", "WeakOnly"):
            gp_from_dual_pair(sig, cocircuit_signature_from_circuits(sig))
            rebuilt += 1
    assert rebuilt
    for hf in (SIGN, TROPICAL, TRIANGLE, PHASE):
        report = run_perfection_experiment(ExperimentConfig(hf, samples=5))
        assert report["samples"] == 5
    assert classify(circuits_from_gp(
        CORPUS["triangle-weak-not-strong"].build())).verdict == "WeakOnly"

    built, at_verdict = Counter(), []
    for cls in (HFElement, FVector):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    verdict = hypermatroid.gp.orthogonality_verdict

    def counted_verdict(sig):
        found = verdict(sig)
        at_verdict.append(sum(built.values()))
        return found

    monkeypatch.setattr(hypermatroid.gp, "orthogonality_verdict", counted_verdict)
    seen = Counter()
    for entry in corpus_entries():
        obj = entry.build()
        path = tmp_path / f"{entry.name}.json"
        path.write_text(serialize(circuits_from_gp(obj) if entry.kind == "gp" else obj))
        built.clear()
        at_verdict.clear()
        main(["classify", str(path)])
        got = json.loads(capsys.readouterr().out)["verdict"]
        assert at_verdict in ([], [0])
        if got == "Strong":
            assert not built
        seen[got, bool(built)] += 1
    assert set(seen) == {("Strong", False), ("WeakOnly", True),
                         ("InvalidSignature", True), ("UnderlyingNotMatroid", False)}

    at_witness = []

    def counted(witness):
        def naming(*args, **kwargs):
            at_witness.append(sum(built.values()))
            return witness(*args, **kwargs)
        return naming

    for module, name in ((hypermatroid.gp, "_witness"), (hypermatroid.gp, "elimination_witness"),
                         (hypermatroid.cli, "elimination_witness")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    ran, witnesses = Counter(), Counter()
    for argv in corpus_commands(tmp_path):
        built.clear()
        at_witness.clear()
        main(argv)
        capsys.readouterr()
        assert at_witness[:1] in ([], [0]), argv
        if not at_witness:
            assert not built, (argv, dict(built))
        ran[argv[0]] += 1
        witnesses[argv[0]] += bool(at_witness)
    assert set(ran) == {"check-gp", "circuits", "dressian", "dual", "minor",
                        "pushforward", "classify", "check-circuits", "gp"}
    assert witnesses == Counter({"check-gp": 2, "classify": 3, "check-circuits": 1})


# -- the unchecked derivation of orthogonality_verdict -------------------------


def unchecked_cocircuits(sig):
    """The cocircuits `orthogonality_verdict` derives, as vectors: the
    payloads of `_cocircuit_payloads`, with no ratio checked."""
    hf, ground = sig.hyperfield, sig.ground
    return CircuitSignature(hf, ground, [
        FVector(hf, ground, {ground.labels[i]: HFElement(hf, w)
                             for i, w in payloads.items()})
        for _, payloads in _cocircuit_payloads(sig)])


def assert_ratio_check_is_subsumed(sig) -> bool:
    """The verdict is that of every pair against the checked derivation
    (`oracles.full_orthogonality_verdict`).  Where the checked derivation
    refuses, some unchecked cocircuit Y and the circuits meeting it in
    exactly two elements give `nonorthogonal_pair` a failing pair, which
    meets in 2, so the verdict is InvalidSignature.  Returns whether the
    derivation refused."""
    verdict = orthogonality_verdict(sig)
    assert verdict == oracles.full_orthogonality_verdict(sig)
    try:
        cocircuit_signature_from_circuits(sig)
    except RatioInconsistencyError:
        pass
    else:
        return False
    hf, ground = sig.hyperfield, sig.ground
    overlaps = []
    for y in unchecked_cocircuits(sig).classes:
        meeting = [x for x in sig.classes
                   if len(set(x.entries) & set(y.entries)) == 2]
        pair = nonorthogonal_pair(
            CircuitSignature(hf, ground, meeting, dedup=False),
            CircuitSignature(hf, ground, [y]))
        if pair is not None:
            assert not orthogonal(pair[1], pair[2])
            overlaps.append(pair[0])
    assert overlaps and set(overlaps) == {2}
    assert verdict == "InvalidSignature"
    return True


WEAK_ONLY = ["triangle-weak-not-strong", "phase-weak-not-strong"]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_KINDS + WEAK_ONLY), st.integers(0, 2 ** 32))
def test_orthogonality_subsumes_the_ratio_check(source, seed):
    """Random weak signatures over all eight hyperfields and the weak-only
    corpus signatures, with one entry changed."""
    rng = random.Random(seed)
    if isinstance(source, str):
        sig = circuits_from_gp(CORPUS[source].build())
    else:
        sig = random_weak_signature(source, rng, max_rank=4, max_ground=7)
    assert_ratio_check_is_subsumed(perturbed(sig, rng))


def test_ratio_failures_reach_every_hyperfield_with_two_units():
    """The subsumption is exercised: the checked derivation refuses some
    perturbed signature over each hyperfield but Krasner, whose one unit
    leaves nothing to perturb."""
    rng = random.Random(1204)
    for hf in ALL_KINDS:
        refused = sum(assert_ratio_check_is_subsumed(perturbed(
            random_weak_signature(hf, rng, max_rank=4, max_ground=7), rng))
            for _ in range(12))
        assert (refused > 0) == (hf is not KRASNER)


@settings(max_examples=40, deadline=None)
@given(weak_functions(), st.integers(0, 2 ** 32))
def test_orthogonality_subsumes_the_ratio_check_on_weak_functions(phi, seed):
    """Weak and weak-only functions over triangle and phase, as derived
    and with one entry changed."""
    sig = circuits_from_gp(phi)
    assert not assert_ratio_check_is_subsumed(sig)
    assert_ratio_check_is_subsumed(perturbed(sig, random.Random(seed)))


def test_orthogonality_verdict_makes_no_element_call(monkeypatch):
    """On the corpus signatures that reach it and on random weak
    signatures over every hyperfield, as drawn and with one entry
    changed: the verdicts of every pair against the checked derivation,
    with element-level mul, inv, eq, invol and neg refusing."""
    signatures = []
    for entry in corpus_entries():
        sig = entry.build()
        if entry.kind == "gp":
            sig = circuits_from_gp(sig)
        try:
            sig.underlying_matroid()
        except InputError:
            continue
        if check_C0_C2(sig) is None:
            signatures.append(sig)
    rng = random.Random(613)
    for hf in ALL_KINDS + [gf(5)]:
        for _ in range(4):
            sig = random_weak_signature(hf, rng, max_rank=4, max_ground=7)
            signatures += [sig, perturbed(sig, rng)]
    want = [oracles.full_orthogonality_verdict(sig) for sig in signatures]
    assert set(want) == {"Strong", "WeakOnly", "InvalidSignature"}
    for module in [getattr(hypermatroid, name) for name in (
            "circuits", "gp", "hyperfields", "matroids", "vectors")]:
        for name in ("mul", "inv", "eq", "invol", "neg"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert [orthogonality_verdict(sig) for sig in signatures] == want
