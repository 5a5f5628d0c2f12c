"""Byte identity of the CLI against recorded outputs.

`golden_cli.json` records, for a fixed list of `hfm` commands over the
corpus, its dual pairs (circuits with derived cocircuits), dual pairs
broken on purpose, dual pairs whose cocircuits do not share the
circuits' hyperfield or ground order, two functions failing a three-term relation, tropical
and rational functions with mixed denominators (passing, and with one
value changed), the two weak-only entries scaled by a unit, sign and
tropical functions of rank 3 and 4 with one value changed (one over a
ground whose label order is not its position order), a support failing
basis exchange past its first basis, a rank-1 function on 20 labels,
functions with parallel labels (the weak-only entries and a realizable
phase function), a realizable rank-4 function per built-in hyperfield
with its signature, dual pair, minors, push-forwards and two
signatures with one entry changed, realizable phase, phase[identity]
and triangle functions of rank 3 and 4 from seeded matrices, GP minors
whose greedy choices depend on the ground order, the built-in
hyperfields, the corpus listing, a signature that lists one class
twice, the second time times a unit (dropped when the file is parsed),
and malformed GP functions (exit 2), the exit code and the sha256 of stdout, plus the sha256 of
every input file the commands read.  The inputs are
written from the corpus into a temporary directory, and the commands run
in process.  Regenerate the file (only when an output
change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile

from fractions import Fraction
from itertools import combinations

from hypermatroid import (CORPUS, PHASE, RATIONALS, SIGN, TRIANGLE, TROPICAL,
                          CircuitSignature, FVector, GPFunction, GroundSet,
                          InputError, RatioInconsistencyError, circuits_from_gp,
                          cocircuit_signature_from_circuits, corpus_entries,
                          mul, serialize)
from hypermatroid.cli import main
from hypermatroid.corpus import gp_from_matrix
from hypermatroid.serialization import hyperfield_from_id

from strategies import parallel_extension, phase_minors, scale

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_cli.json")

HYPERFIELDS = ("krasner", "sign", "tropical", "triangle", "phase",
               "phase[identity]", "rational", "gf(3)")

# perfection sweeps up to the largest ground set the configuration allows
LARGE_SWEEPS = ("triangle", "phase")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# U(2,4) functions failing their three-term relation: one value of a
# corpus entry changed so that phi(1, 4) phi(2, 3) breaks the balance.
BROKEN = {"sign-u24": SIGN.element(-1), "tropical-u24": TROPICAL.element(2)}


def broken(name: str) -> GPFunction:
    phi = CORPUS[name].build()
    return GPFunction(phi.hyperfield, phi.ground, phi.rank,
                      {**phi.values, (1, 4): BROKEN[name]})


# Rank 3 on six labels, with denominators 3, 5, 7, 9 and one above 2**64.
MIXED_LABELS = (1, 2, 3, 4, 5, 6)
MIXED_COLUMNS = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                 (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)),
                 (Fraction(5, 9), 1, Fraction(-4, 3)),
                 (Fraction(2, 7), Fraction(1, 2 ** 64 + 13), Fraction(6, 5))]
# per-label tropical weights; multiplying phi(B) by the weights of B
# keeps a valuated matroid valuated
MIXED_WEIGHTS = (Fraction(1, 3), Fraction(3, 5), Fraction(5, 7),
                 Fraction(2, 9), Fraction(7, 3), Fraction(9, 2 ** 64 + 13))


def three_adic(q: Fraction) -> Fraction:
    """The 3-adic absolute value of a nonzero rational."""
    value, n, d = Fraction(1), q.numerator, q.denominator
    while n % 3 == 0:
        n, value = n // 3, value / 3
    while d % 3 == 0:
        d, value = d // 3, value * 3
    return value


def mixed(name: str) -> GPFunction:
    """A passing rational or tropical function with mixed denominators."""
    rational = gp_from_matrix(RATIONALS, MIXED_LABELS, [
        tuple(map(Fraction, col)) for col in MIXED_COLUMNS])
    if name == "rational-mixed":
        return rational
    values = {}
    for key, value in rational.values.items():
        weight = three_adic(value.value)
        for label in key:
            weight *= MIXED_WEIGHTS[label - 1]
        values[key] = TROPICAL.element(weight)
    return GPFunction(TROPICAL, rational.ground, 3, values)


def mixed_broken(name: str) -> GPFunction:
    """The mixed function with its first value multiplied by 5/3, which
    breaks a relation."""
    phi = mixed(name)
    key = next(iter(combinations(MIXED_LABELS, 3)))
    hf = phi.hyperfield
    return GPFunction(hf, phi.ground, 3, {
        **phi.values, key: mul(hf.element(Fraction(5, 3)), phi.values[key])})


# the weak-only entries times a unit
SCALED = {"triangle-weak-not-strong": TRIANGLE.element(7.3),
          "phase-weak-not-strong": PHASE.element(1.0)}


# Realizable functions of rank 3 on seven labels and rank 4 on eight,
# pushed into sign (the sign of each minor) and tropical (its 3-adic
# absolute value), then with the value on the last r-subset of the
# support negated (sign) or tripled (tropical).  Their first failing
# three-term relation lies past the first classes of the scan, and for
# some of them the first failing class in scan order is not the one
# holding the least failing (I, J).
PERTURBED_COLUMNS = {
    3: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, 1, 1), (-2, -1, 1), (0, 2, 1),
        (-3, 1, -3)],
    4: [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (3, 0, -1, 1),
        (-2, -2, 2, 0), (1, 3, 1, 0), (0, 2, 3, -2)],
}
# the rank-3 labels again, listed out of their own order
RELABELED = ("d", "b", "a", "c", "e", "f", "g")


def perturbed(hf, rank: int, labels=None) -> GPFunction:
    columns = PERTURBED_COLUMNS[rank]
    labels = labels or tuple(range(1, len(columns) + 1))
    rational = gp_from_matrix(RATIONALS, labels,
                              [tuple(map(Fraction, col)) for col in columns])
    if hf is SIGN:
        values = {key: SIGN.element(1 if v.value > 0 else -1)
                  for key, v in rational.values.items()}
    else:
        values = {key: TROPICAL.element(three_adic(v.value))
                  for key, v in rational.values.items()}
    last = max(values, key=lambda key: [labels.index(x) for x in key])
    values[last] = mul(hf.element(-1 if hf is SIGN else 3), values[last])
    return GPFunction(hf, rational.ground, rank, values)


# a rank-3 support whose first basis-exchange failure has B1 the fourth
# basis, B2 the third and x the larger of the two elements of B1 - B2
LATE_EXCHANGE = [(1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 4, 5),
                 (1, 4, 6), (1, 5, 6), (1, 5, 7), (1, 6, 7), (2, 3, 4), (2, 3, 5),
                 (2, 3, 6), (2, 4, 7), (2, 5, 7), (2, 6, 7), (3, 4, 6), (4, 5, 7),
                 (5, 6, 7)]


def weak_check_inputs() -> dict:
    """{file name: function} for the inputs above, and a rank-1 tropical
    function on 20 labels, larger than any ground set a matroid may have."""
    files = {}
    for hf in (SIGN, TROPICAL):
        for rank in PERTURBED_COLUMNS:
            files[f"gp-{hf}-r{rank}-perturbed.json"] = perturbed(hf, rank)
        files[f"gp-{hf}-relabeled-perturbed.json"] = perturbed(hf, 3, RELABELED)
    files["gp-sign-late-exchange.json"] = GPFunction(
        SIGN, GroundSet(range(1, 8)), 3,
        {key: SIGN.element(1) for key in LATE_EXCHANGE})
    files["gp-tropical-rank1-e20.json"] = GPFunction(
        TROPICAL, GroundSet(range(1, 21)), 1,
        {(x,): TROPICAL.element(Fraction(x, 3)) for x in range(1, 21) if x % 4})
    return files


def parallel_inputs() -> dict:
    """{file name: function} for functions in which many (I, J) share one
    circuit and cocircuit: each weak-only entry with a label parallel to
    one of its failing relation's I, times a unit, and the phase function
    of a rank-3 complex matrix with a column parallel to another."""
    files = {}
    for name, label, new, unit in (
            ("phase-weak-not-strong", "t", "p", PHASE.element(2.0)),
            ("triangle-weak-not-strong", 4, 7, TRIANGLE.element(3.0))):
        files[f"gp-{name}-parallel.json"] = parallel_extension(
            CORPUS[name].build(), label, new, unit)
    phi = phase_minors(PERTURBED_COLUMNS[3], [0.4 * k + 0.2 for k in range(7)])
    files["gp-phase-r3-parallel.json"] = parallel_extension(
        phi, 5, 8, PHASE.element(1.3))
    return files


def signature(entry):
    """A corpus entry's circuit signature: its own, or its function's."""
    obj = entry.build()
    return circuits_from_gp(obj) if entry.kind == "gp" else obj


def dual_pair(sig):
    """The circuits with their derived cocircuits, or None when the
    derivation fails."""
    try:
        return {"circuits": sig,
                "cocircuits": cocircuit_signature_from_circuits(sig)}
    except (InputError, RatioInconsistencyError):
        return None


# Dual pairs of two corpus entries that `gp` must reject: the first
# cocircuit's first entry multiplied by a unit (a circuit meeting it in at
# most 3 elements is no longer orthogonal to it), or the last cocircuit
# dropped (the cocircuit supports are no longer those of the dual matroid).
TWISTS = {"sign-u24": SIGN.element(-1), "phase-weak-not-strong": PHASE.element(2.0)}


def broken_pairs(name: str) -> dict:
    """{file name: broken dual pair} for a corpus entry in TWISTS."""
    pair = dual_pair(signature(CORPUS[name]))
    cocircuits = pair["cocircuits"]
    hf, ground = cocircuits.hyperfield, cocircuits.ground
    first, rest = cocircuits.classes[0], cocircuits.classes[1:]
    label = ground.sort(first.entries)[0]
    twisted = FVector(hf, ground, {**first.entries,
                                   label: mul(TWISTS[name], first.entries[label])})
    return {
        f"pair-{name}-twisted.json":
            {**pair, "cocircuits": CircuitSignature(hf, ground, (twisted,) + rest)},
        f"pair-{name}-dropped.json":
            {**pair, "cocircuits": CircuitSignature(hf, ground, cocircuits.classes[:-1])},
    }


def mismatched_pairs() -> dict:
    """{file name: dual pair} of a sign U(2,3) whose cocircuits do not
    share the circuits' ground order or hyperfield: over the reversed
    ground (position by position, one circuit/cocircuit pair would not be
    orthogonal), over tropical, and over a fourth label.  `gp` pairs the
    two signatures by ground position, so it must refuse each."""
    phi = GPFunction(SIGN, GroundSet((1, 2, 3)), 2, {
        (1, 2): SIGN.one(), (1, 3): SIGN.one(), (2, 3): SIGN.element(-1)})
    pair = dual_pair(circuits_from_gp(phi))
    cocircuits = pair["cocircuits"]

    def moved(hf, labels, value=lambda el: el):
        ground = GroundSet(labels)
        return {**pair, "cocircuits": CircuitSignature(hf, ground, [
            FVector(hf, ground, {label: value(el) for label, el in v.entries.items()})
            for v in cocircuits.classes])}

    return {
        "pair-sign-u23-reversed.json": moved(SIGN, (3, 2, 1)),
        "pair-sign-u23-tropical.json": moved(TROPICAL, (1, 2, 3),
                                             lambda el: TROPICAL.one()),
        "pair-sign-u23-fourth-label.json": moved(SIGN, (1, 2, 3, 4)),
    }


# A corpus signature with its first class listed again, times a unit:
# parsing keeps one class per projective class.
DUPLICATE = ("phase-weak-not-strong", PHASE.element(2.0))


def duplicated() -> CircuitSignature:
    name, unit = DUPLICATE
    sig = signature(CORPUS[name])
    first = sig.classes[0]
    again = FVector(sig.hyperfield, sig.ground,
                    {label: mul(unit, el) for label, el in first.entries.items()})
    return CircuitSignature(sig.hyperfield, sig.ground, sig.classes + (again,),
                            dedup=False)


# GP inputs with one fault each, as changes to the JSON of sign-u24
# (labels 1-4, rank 2, its six pairs in lex order): a subset out of
# ground order, of the wrong size, with a label repeated, listed twice
# or naming an unknown label; a rank out of range; every value zero;
# and three with two faults, where the first one the parse meets names
# the error.  `hfm` exits 2 on each; `test_serialization` pins the
# messages.
MALFORMED = {
    "order": lambda raw: raw["values"][2].update(subset=[4, 1]),
    "size": lambda raw: raw["values"][1].update(subset=[1, 3, 4]),
    "repeated-label": lambda raw: raw["values"][1].update(subset=[3, 3]),
    "repeated-subset": lambda raw: raw["values"].append({"subset": [2, 4], "value": -1}),
    "unknown-label": lambda raw: raw["values"][3].update(subset=[2, 9]),
    "rank-0": lambda raw: raw.update(rank=0),
    "rank-5": lambda raw: raw.update(rank=5),
    "zero": lambda raw: [item.update(value=0) for item in raw["values"]],
    "order-then-value": lambda raw: (raw["values"][1].update(subset=[3, 1]),
                                     raw["values"][4].update(value=7)),
    "rank-and-order": lambda raw: (raw.update(rank=7),
                                   raw["values"][0].update(subset=[2, 1])),
    "zero-out-of-order": lambda raw: raw["values"][5].update(subset=[4, 3], value=0),
}


def malformed(case: str) -> dict:
    """The JSON of sign-u24 with the fault MALFORMED[case]."""
    raw = json.loads(serialize(CORPUS["sign-u24"].build()))
    MALFORMED[case](raw)
    return raw


def write_inputs(directory: str) -> dict:
    """Write every input file into `directory`; {file name: sha256}."""
    files = {}
    for entry in corpus_entries():
        if entry.kind == "gp":
            files[f"gp-{entry.name}.json"] = serialize(entry.build())
        sig = signature(entry)
        files[f"sig-{entry.name}.json"] = serialize(sig)
        pair = dual_pair(sig)
        if pair is not None:
            files[f"pair-{entry.name}.json"] = serialize(pair)
    for name in BROKEN:
        files[f"gp-{name}-broken.json"] = serialize(broken(name))
    for name in TWISTS:
        for file, pair in broken_pairs(name).items():
            files[file] = serialize(pair)
    for file, pair in mismatched_pairs().items():
        files[file] = serialize(pair)
    files[f"sig-{DUPLICATE[0]}-duplicate.json"] = serialize(duplicated())
    for name in ("tropical-mixed", "rational-mixed"):
        files[f"gp-{name}.json"] = serialize(mixed(name))
        files[f"gp-{name}-broken.json"] = serialize(mixed_broken(name))
    for name, unit in SCALED.items():
        files[f"gp-{name}-scaled.json"] = serialize(scale(CORPUS[name].build(), unit))
    for i, hf in enumerate(HYPERFIELDS):
        files[f"exp-{i}.json"] = json.dumps({"hyperfield": hf, "samples": 10})
    for name, obj in {**weak_check_inputs(), **parallel_inputs(),
                      **rank4_inputs(), **seeded_inputs()}.items():
        files[name] = serialize(obj)
    for case in MALFORMED:
        files[f"gp-malformed-{case}.json"] = json.dumps(malformed(case))
    for hf in LARGE_SWEEPS:
        files[f"exp-{hf}-7.json"] = json.dumps(
            {"hyperfield": hf, "samples": 10, "max_ground": 7})
    for name, text in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    return {name: _sha(text) for name, text in sorted(files.items())}


# A realizable rank-4 function on eight labels, pushed into each
# hyperfield of HYPERFIELDS: the sign, 3-adic absolute value, modulus or
# residue of each minor, and over phase the phases of the complex matrix
# whose column k is this one times e^(i RANK4_ANGLES[k]).
RANK4_COLUMNS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                 (2, 0, 0, 2), (-2, 1, -1, -2), (-1, -2, 0, 1), (-1, 1, 2, -2)]
RANK4_ANGLES = [0.4 * k + 0.2 for k in range(8)]
# A unit other than 1 per hyperfield (Krasner has none), and two
# one-entry changes of the rank-4 signature, (class index, label): the
# first makes the cocircuit derivation inconsistent, the second leaves it
# consistent with a circuit and a cocircuit meeting in 2 or 3 elements
# that are not orthogonal (DP3').
RANK4_UNITS = {"sign": -1, "tropical": 3, "triangle": 2.0, "phase": 1.0,
               "phase[identity]": 1.0, "rational": 2, "gf(3)": 2}
RANK4_CHANGES = {"ratio": (0, 1), "dp3": (2, 2)}


def slug(hf_id: str) -> str:
    return re.sub(r"[^a-z0-9]+", "", hf_id)


def rank4(hf_id: str) -> GPFunction:
    hf = hyperfield_from_id(hf_id)
    if hf.kind == "phase":
        phi = phase_minors(RANK4_COLUMNS, RANK4_ANGLES)
        return GPFunction(hf, phi.ground, 4, {
            key: hf.element(value.value) for key, value in phi.values.items()})
    rational = gp_from_matrix(RATIONALS, tuple(range(1, 9)), [
        tuple(map(Fraction, col)) for col in RANK4_COLUMNS])
    image = three_adic if hf is TROPICAL else None
    values = {key: hf.element(image(value.value)) if image
              else hf.from_rational(value.value)
              for key, value in rational.values.items()}
    return GPFunction(hf, rational.ground, 4,
                      {key: v for key, v in values.items() if not v.is_zero})


def rank4_changed(hf_id: str, change: str) -> CircuitSignature:
    sig = circuits_from_gp(rank4(hf_id))
    index, label = RANK4_CHANGES[change]
    hf, x = sig.hyperfield, sig.classes[index]
    changed = FVector(hf, sig.ground, {
        **x.entries, label: mul(hf.element(RANK4_UNITS[hf_id]), x.entries[label])})
    return CircuitSignature(hf, sig.ground, sig.classes[:index] + (changed,)
                            + sig.classes[index + 1:])


def rank4_inputs() -> dict:
    """{file name: object} for the rank-4 functions, their signatures and
    dual pairs, and the changed signatures."""
    files = {}
    for hf_id in HYPERFIELDS:
        name, phi = slug(hf_id), rank4(hf_id)
        sig = circuits_from_gp(phi)
        files[f"gp-r4-{name}.json"] = phi
        files[f"sig-r4-{name}.json"] = sig
        files[f"pair-r4-{name}.json"] = dual_pair(sig)
        if hf_id in RANK4_UNITS:
            for change in RANK4_CHANGES:
                files[f"sig-r4-{name}-{change}.json"] = rank4_changed(hf_id, change)
    return files


MINORS = (["--delete", "2"], ["--contract", "5"],
          ["--delete", "2", "--contract", "5"])


def rank4_commands() -> list:
    out = []
    for hf_id in HYPERFIELDS:
        name = slug(hf_id)
        sigs = [f"sig-r4-{name}.json"]
        if hf_id in RANK4_UNITS:
            sigs += [f"sig-r4-{name}-{change}.json" for change in RANK4_CHANGES]
        for sig in sigs:
            out += [["classify", sig], ["check-circuits", sig], ["dual", sig]]
        out.append(["gp", f"pair-r4-{name}.json"])
        for file in (f"gp-r4-{name}.json", f"sig-r4-{name}.json"):
            out += [["minor"] + args + [file] for args in MINORS]
        out.append(["pushforward", "--hom", "krasner", f"sig-r4-{name}.json"])
    out += [["pushforward", "--hom", hom, "sig-r4-rational.json"]
            for hom in ("sign", "padic:3")]
    return out


# Realizable functions from seeded integer matrices, rank 3 on nine labels
# and rank 4 on ten: over phase and phase[identity] the phases of the
# minors of the complex matrix with seeded column angles, over triangle
# their moduli.  Their generic angles pin each payload operation of the
# circuit extraction down to the last float bit.
SEEDED = (("phase", 3), ("phase", 4), ("phase[identity]", 3),
          ("phase[identity]", 4), ("triangle", 4))


def seeded(hf_id: str, rank: int) -> GPFunction:
    rng = random.Random(1601 * rank)
    columns = [tuple(rng.randint(-3, 3) for _ in range(rank))
               for _ in range(rank + 6)]
    hf = hyperfield_from_id(hf_id)
    if hf.kind == "phase":
        phi = phase_minors(columns, [rng.uniform(0.0, 6.28) for _ in columns])
        return GPFunction(hf, phi.ground, rank, {
            key: hf.element(value.value) for key, value in phi.values.items()})
    return gp_from_matrix(hf, tuple(range(1, len(columns) + 1)), [
        tuple(map(Fraction, col)) for col in columns])


def seeded_inputs() -> dict:
    return {f"gp-{slug(hf_id)}-r{rank}-seeded.json": seeded(hf_id, rank)
            for hf_id, rank in SEEDED}


def commands() -> list:
    out = []
    for entry in corpus_entries():
        out.append(["demo", entry.name])
    for i, hf in enumerate(HYPERFIELDS):
        out.append(["axioms", "--hyperfield", hf])
        out.append(["experiment", "--config", f"exp-{i}.json"])
    for entry in corpus_entries():
        sig = f"sig-{entry.name}.json"
        if entry.kind == "gp":
            gp = f"gp-{entry.name}.json"
            out += [["check-gp", "--both", gp], ["circuits", gp], ["dual", gp],
                    ["pushforward", "--hom", "krasner", gp]]
            if entry.name.startswith("tropical"):
                out.append(["dressian", gp])
        out += [["classify", sig], ["check-circuits", sig], ["dual", sig]]
    for entry in corpus_entries():
        if entry.kind == "gp":
            gp = f"gp-{entry.name}.json"
            out += [["check-gp", "--strong", gp], ["check-gp", "--weak", gp]]
    for entry in corpus_entries():
        if dual_pair(signature(entry)) is not None:
            out.append(["gp", f"pair-{entry.name}.json"])
    for name in BROKEN:
        out.append(["check-gp", "--strong", f"gp-{name}-broken.json"])
    for name in TWISTS:
        out += [["gp", file] for file in broken_pairs(name)]
    for hf in LARGE_SWEEPS:
        out.append(["experiment", "--config", f"exp-{hf}-7.json"])
    for name in ("tropical-mixed", "rational-mixed"):
        out += [["check-gp", "--both", f"gp-{name}.json"],
                ["check-gp", "--both", f"gp-{name}-broken.json"]]
    for name in SCALED:
        out.append(["check-gp", "--both", f"gp-{name}-scaled.json"])
    for name in weak_check_inputs():
        out += [["check-gp", "--weak", name], ["check-gp", "--both", name]]
        if "tropical" in name:
            out.append(["dressian", name])
    for name in parallel_inputs():
        out.append(["check-gp", "--both", name])
    for name in seeded_inputs():
        out += [["circuits", name], ["check-gp", "--both", name]]
    duplicate = f"sig-{DUPLICATE[0]}-duplicate.json"
    return out + rank4_commands() + MINOR_PINS + \
        [["gp", file] for file in mismatched_pairs()] + \
        [["demo", "--list"], ["classify", duplicate], ["dual", duplicate]] + \
        [["check-gp", "--both", f"gp-malformed-{case}.json"] for case in MALFORMED]


# GP minors whose greedy choices depend on the ground order: contracting
# the parallel pair {5, 8}, a dependent set; deleting and contracting over
# a ground whose label order is not its position order; deletions that
# lower the rank ({2, 3, 6} spans a plane), so the basis completion inside
# the deleted set is not empty, one of them with an odd reordering both
# of the completion and of the contracted set; a support failing basis
# exchange; and the rank-1 function on 20 labels, past the cap of a
# `ClassicalMatroid`.
MINOR_PINS = [
    ["minor", "--contract", "5,8", "gp-phase-r3-parallel.json"],
    ["minor", "--delete", "1,4,5,7,8", "gp-phase-r3-parallel.json"],
    ["minor", "--delete", "1,4,5,7,8", "--contract", "3", "gp-phase-r3-parallel.json"],
    ["minor", "--delete", "a", "--contract", "e,d", "gp-sign-relabeled-perturbed.json"],
    ["minor", "--delete", "a", "--contract", "e,d", "gp-tropical-relabeled-perturbed.json"],
    ["minor", "--delete", "1,2,3,4,5,6,7", "--contract", "9", "gp-phase-r4-seeded.json"],
    ["minor", "--delete", "1", "gp-sign-late-exchange.json"],
    ["minor", "--delete", "1", "--contract", "4", "gp-tropical-rank1-e20.json"],
]


def run(directory: str, argv: list) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    old = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    finally:
        os.chdir(old)
    return {"argv": argv, "exit": code, "stdout_sha256": _sha(stdout.getvalue())}


def record(directory: str) -> dict:
    return {"inputs": write_inputs(directory),
            "commands": [run(directory, argv) for argv in commands()]}


def test_cli_outputs_match_the_golden_file(tmp_path):
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    inputs = write_inputs(str(tmp_path))
    changed = [name for name in golden["inputs"]
               if inputs.get(name) != golden["inputs"][name]]
    assert not changed, f"input files differ: {changed}"
    assert [c["argv"] for c in golden["commands"]] == commands()
    for want in golden["commands"]:
        got = run(str(tmp_path), want["argv"])
        assert got == want, f"hfm {' '.join(want['argv'])}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        data = record(directory)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(data['commands'])} commands to {GOLDEN}", file=sys.stderr)
