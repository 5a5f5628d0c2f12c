"""The three workloads: seeded input files, hfm command lines, and checks.

Every operation is one `hfm` command on files written during set-up.  Its
check compares the command's JSON output with the oracle, or with a
property the method must have, and returns None when they agree, else a
one-line reason.  Nothing here imports `hypermatroid`.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import corpus
import oracle
from oracle import GaussQ, Matrix

KINDS = ("sign", "tropical", "triangle", "phase")
GAUSSIAN = ("triangle", "phase")


class Op:
    """One hfm command: argv with {file} placeholders, the files to write,
    and the check of its (exit code, stdout).  It runs `repeat` times back
    to back in each round and is timed by the median of those runs."""

    def __init__(self, name, tier, argv, files, check, known_fault=None,
                 repeat=1):
        self.name, self.tier, self.argv = name, tier, argv
        self.files, self.check, self.known_fault = files, check, known_fault
        self.repeat = repeat


# Corpus operations take a few milliseconds, less than the speed probe's
# period, so a single run is at the mercy of a brief slowdown; they run
# three times and count their median.
CORPUS_REPEAT = 3


# -- seeded matrices ----------------------------------------------------------


def _entry(rng, gaussian):
    """A nonzero entry.  The ranges are wide enough that a minor the zero
    pattern allows vanishes by accident for few seeds, so the matroid, and
    with it an operation's cost, rarely depends on the seed."""
    if gaussian:
        while True:
            re, im = rng.randint(-3, 3), rng.randint(-3, 3)
            if re or im:
                return GaussQ(re, im)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))


def _zero(gaussian):
    return GaussQ(0) if gaussian else Fraction(0)


def dense_matrix(rng, rank, m, gaussian) -> Matrix:
    """All entries nonzero: a near-uniform matroid (minors vanish only by
    accident)."""
    while True:
        cols = [tuple(_entry(rng, gaussian) for _ in range(rank))
                for _ in range(m)]
        if oracle.rank(cols) == rank:
            return Matrix(range(1, m + 1), cols)


def sparse_matrix(rng, rank, m, gaussian) -> Matrix:
    """[I | B] with a fixed zero pattern in B: extra column j is nonzero on
    rows j, j+1 (and j+2 for odd j), mod rank.  Only the values depend on
    the seed, so the (sparse) matroid is the same for almost every seed."""
    cols = []
    for i in range(rank):
        cols.append(tuple(_entry(rng, gaussian) if k == i else _zero(gaussian)
                          for k in range(rank)))
    for j in range(m - rank):
        rows = {j % rank, (j + 1) % rank}
        if j % 2:
            rows.add((j + 2) % rank)
        cols.append(tuple(_entry(rng, gaussian) if k in rows else _zero(gaussian)
                          for k in range(rank)))
    return Matrix(range(1, m + 1), cols)


MATRICES = {"dense": dense_matrix, "sparse": sparse_matrix}


# -- JSON encoding and decoding of hyperfield values --------------------------


def encode(kind, v):
    if kind in ("sign", "krasner", "gf"):
        return int(v)
    if kind in ("tropical", "rational"):
        return str(Fraction(v))
    if kind == "triangle":
        return float(v)
    if kind == "phase":
        return 0 if v is None else {"angle": float(v)}
    raise ValueError(kind)


def decode(kind, raw):
    if kind in ("sign", "krasner", "gf"):
        return raw
    if kind in ("tropical", "rational", "triangle"):
        return Fraction(raw)
    if kind == "phase":
        return None if raw == 0 else raw["angle"]
    raise ValueError(kind)


def gp_json(hyperfield, kind, labels, rank, values) -> dict:
    pos = {x: i for i, x in enumerate(labels)}
    keys = sorted(values, key=lambda k: [pos[x] for x in k])
    return {"hyperfield": hyperfield, "ground_set": list(labels), "rank": rank,
            "values": [{"subset": list(k), "value": encode(kind, values[k])}
                       for k in keys]}


def signature_json(kind, labels, circuits) -> dict:
    return {"hyperfield": kind, "ground_set": list(labels),
            "circuits": [{"entries": {str(x): encode(kind, v)
                                      for x, v in c.items()}}
                         for c in circuits]}


def _vectors(kind, labels, raw_list):
    lookup = {str(x): x for x in labels}
    return [{lookup[k]: decode(kind, v) for k, v in raw["entries"].items()}
            for raw in raw_list]


def _gp_values(kind, raw) -> dict:
    return {tuple(item["subset"]): decode(kind, item["value"])
            for item in raw["values"]}


def _pushed(kind, exact: dict) -> dict:
    out = {k: oracle.push(kind, v) for k, v in exact.items()}
    return {k: v for k, v in out.items() if not oracle.is_zero(kind, v)}


def _pushed_vectors(kind, vectors) -> list:
    return [_pushed(kind, v) for v in vectors]


def phase_cocircuits(vectors) -> list:
    """Cocircuits under the conjugation involution: orthogonality pairs a
    circuit entry with the conjugate cocircuit entry."""
    return [{x: oracle.conj("phase", a) for x, a in v.items()} for v in vectors]


# -- comparisons --------------------------------------------------------------


def same_classes(kind, got, want):
    """None when two families carry the same projective classes."""
    if len(got) != len(want):
        return f"{len(got)} classes, oracle has {len(want)}"
    by_support = {frozenset(v): v for v in got}
    for v in want:
        mate = by_support.get(frozenset(v))
        if mate is None or not oracle.projectively_equal(kind, mate, v):
            return f"no class matching the oracle's {sorted(map(str, v))}"
    return None


def _load(code, text, want_code):
    if code != want_code:
        return None, f"exit code {code}, expected {want_code}"
    try:
        return json.loads(text), None
    except ValueError as exc:
        return None, f"output is not JSON ({exc})"


# -- witness confirmation -----------------------------------------------------


def _gp_witness_problem(kind, values, labels, witness, p=None):
    pos = {x: i for i, x in enumerate(labels)}
    axiom = witness.get("axiom")
    if axiom in ("GP3", "GP3'"):
        I, J = tuple(witness["I"]), tuple(witness["J"])
        if axiom == "GP3'" and len(set(I) - set(J)) != 3:
            return "GP3' witness is not a three-term relation"
        if not oracle.relation_fails(kind, values, pos, I, J, p):
            return f"oracle finds relation {I} {J} satisfied"
        return None
    if axiom == "exchange":
        if not oracle.exchange_fails(values, tuple(witness["B1"]),
                                     tuple(witness["B2"]), witness["x"]):
            return "oracle finds the basis exchange satisfied"
        return None
    return f"unexpected witness axiom {axiom!r}"


def _member(kind, vec, circuits):
    return any(frozenset(vec) == frozenset(c)
               and oracle.projectively_equal(kind, vec, c) for c in circuits)


def _elimination_witness_problem(kind, entry, witness):
    labels, circuits = entry.labels, entry.circuits
    supports = [frozenset(c) for c in circuits]
    axiom = witness.get("axiom")
    if axiom == "underlying":
        first = frozenset(witness["first"])
        second = frozenset(witness["second"])
        e = witness["element"]
        if first not in supports or second not in supports or \
                e not in first & second:
            return "underlying witness does not name two circuits sharing e"
        if any(s <= (first | second) - {e} for s in supports):
            return "oracle finds a circuit eliminating e"
        return None
    if axiom == "C3'":
        x, others, zeros = witness["X"], [witness["Y"]], [witness["e"]]
    elif axiom == "C3":
        x, others, zeros = witness["X"], witness["others"], witness["elements"]
    else:
        return f"unexpected witness axiom {axiom!r}"
    vecs = _vectors(kind, labels, [x] + others)
    x, others = vecs[0], vecs[1:]
    if not all(_member(kind, v, circuits) for v in vecs):
        return "witness vectors are not classes of the input"
    for y, e in zip(others, zeros):
        if not oracle.close(kind, y[e], oracle.neg(kind, x[e])):
            return f"witness partner does not cancel X at {e}"
    union = frozenset().union(*(frozenset(v) for v in vecs))
    nullity = len(union) - oracle.rank_from_circuits(supports, sorted(
        union, key=labels.index))
    if nullity != len(vecs):
        return "witness supports are not a modular family"
    if oracle.eliminator_exists(kind, circuits, vecs, zeros):
        return "oracle finds an eliminating circuit"
    return None


# -- checks per command -------------------------------------------------------


def check_gp_check(g, want_weak, want_strong):
    def check(code, text):
        out, problem = _load(code, text, 0 if want_weak and want_strong else 1)
        if problem:
            return problem
        for key, want in (("weak", want_weak), ("strong", want_strong)):
            got = out[key]["ok"]
            if got != want:
                return f"{key}: hfm says {got}, oracle says {want}"
            if not got:
                problem = _gp_witness_problem(g.kind, g.values, g.labels,
                                              out[key]["witness"], g.p)
                if problem:
                    return f"{key} witness: {problem}"
        return None
    return check


def check_classify(entry, verdict):
    def check(code, text):
        out, problem = _load(code, text, 0 if verdict == "Strong" else 1)
        if problem:
            return problem
        if out["verdict"] != verdict:
            return f"verdict {out['verdict']}, oracle says {verdict}"
        if verdict == "Strong":
            return None if out["witness"] is None else "Strong with a witness"
        return _elimination_witness_problem(entry.kind, entry, out["witness"])
    return check


def check_classes(kind, labels, want):
    def check(code, text):
        out, problem = _load(code, text, 0)
        if problem:
            return problem
        if out["hyperfield"] != kind or out["ground_set"] != list(labels):
            return "wrong hyperfield or ground set"
        return same_classes(kind, _vectors(kind, labels, out["circuits"]), want)
    return check


def check_gp_output(kind, labels, rank, want, exact=False):
    def check(code, text):
        out, problem = _load(code, text, 0)
        if problem:
            return problem
        if out["ground_set"] != list(labels) or out["rank"] != rank:
            return "wrong ground set or rank"
        got = _gp_values(kind, out)
        if exact:
            same = set(got) == set(want) and all(
                oracle.close(kind, got[k], want[k]) for k in want)
        else:
            same = oracle.projectively_equal(kind, got, want)
        return None if same else "values differ from the oracle's"
    return check


def check_experiment(kind, samples):
    strict = kind in ("sign", "tropical")

    def check(code, text):
        try:
            out = json.loads(text)
        except ValueError as exc:
            return f"output is not JSON ({exc})"
        failures = out["orthogonality_failures"]
        want_code = 1 if failures or out["contract_violation"] else 0
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        if out["samples"] != samples:
            return f"{out['samples']} samples, asked for {samples}"
        if strict and (failures or out["contract_violation"]
                       or out["weak_only"]):
            return "weak-only find or orthogonality failure over a doubly " \
                "distributive hyperfield"
        if not strict and not out["weak_only"]:
            return "no weak-only find"
        for item in out["weak_only"]:
            g = item["gp"]
            labels = tuple(g["ground_set"])
            problem = _gp_witness_problem(kind, _gp_values(kind, g), labels,
                                          item["witness"])
            if problem:
                return f"sample {item['sample']}: {problem}"
        # Triangle and phase are not perfect: a vector and a covector of a
        # strong instance may fail to be orthogonal.  Each report must hold.
        for item in failures:
            v, w = ({k: decode(kind, x) for k, x in item[key]["entries"].items()}
                    for key in ("vector", "covector"))
            terms = [oracle.mul(kind, v[x], oracle.conj(kind, w[x]))
                     for x in v if x in w]
            if oracle.zero_in_sum(kind, terms):
                return f"sample {item['sample']}: oracle finds the pair orthogonal"
        return None
    return check


# -- workloads ----------------------------------------------------------------


def gp_check(seed: int) -> list:
    """check-gp --both: relation enumeration and scalar arithmetic."""
    rng = random.Random(f"gp-check/{seed}")
    ops = []
    entries = corpus.gp_entries()
    triangle = entries[0]
    entries += [triangle.scaled(f"{triangle.name}-x1e-6", 1e-6),
                triangle.scaled(f"{triangle.name}-x1e-9", 1e-9)]
    for g in entries:
        weak = oracle.first_failing_relation(g.kind, g.values, g.labels,
                                             g.rank, True, g.p) is None \
            and oracle.basis_exchange_holds(g.values)
        strong = weak and oracle.first_failing_relation(
            g.kind, g.values, g.labels, g.rank, False, g.p) is None
        fault = None
        if "-x1e-" in g.name:
            fault = ("triangle sums are decided against the absolute "
                     "tolerance HFM_EPS, so the scaled copy passes GP3")
        ops.append(Op(f"gp-check/corpus/{g.name}", "small",
                      ["check-gp", "{gp}", "--both"],
                      {"gp": gp_json(g.hyperfield, g.kind, g.labels, g.rank,
                                     g.values)},
                      check_gp_check(g, weak, strong), fault,
                      CORPUS_REPEAT))
    plan = [(kind, "dense", 3, 7) for kind in KINDS] + \
           [(kind, "sparse", 3, 8) for kind in KINDS] + \
           [(kind, shape, 4, 10) for kind, shape in
            (("sign", "dense"), ("tropical", "sparse"),
             ("triangle", "sparse"), ("phase", "dense"))] + \
           [("sign", "sparse", 5, 10)]
    for kind, shape, rank, m in plan:
        mat = MATRICES[shape](rng, rank, m, kind in GAUSSIAN)
        g = corpus.GPEntry(f"{kind}-{shape}-r{rank}e{m}", kind, mat.labels,
                           rank, _pushed(kind, mat.gp()))
        tier = "small" if rank <= 3 else "large"
        ops.append(Op(f"gp-check/{g.name}", tier,
                      ["check-gp", "{gp}", "--both"],
                      {"gp": gp_json(kind, kind, g.labels, rank, g.values)},
                      check_gp_check(g, True, True)))
    return ops


def classify(seed: int) -> list:
    """classify: modular-family elimination on circuit signatures."""
    rng = random.Random(f"classify/{seed}")
    ops = []
    for entry, verdict in corpus.signature_entries():
        ops.append(Op(f"classify/corpus/{entry.name}", "small",
                      ["classify", "{sig}"],
                      {"sig": signature_json(entry.kind, entry.labels,
                                             entry.circuits)},
                      check_classify(entry, verdict),
                      repeat=CORPUS_REPEAT))
    plan = [(kind, "dense", 3, 6) for kind in KINDS] + \
           [(kind, "sparse", 3, 7) for kind in KINDS] + \
           [(kind, "sparse", 4, 8) for kind in KINDS]
    for kind, shape, rank, m in plan:
        mat = MATRICES[shape](rng, rank, m, kind in GAUSSIAN)
        entry = corpus.SigEntry(f"{kind}-{shape}-r{rank}e{m}", kind,
                                mat.labels,
                                _pushed_vectors(kind, mat.circuits()))
        tier = "small" if rank <= 3 else "large"
        ops.append(Op(f"classify/{entry.name}", tier, ["classify", "{sig}"],
                      {"sig": signature_json(kind, entry.labels,
                                             entry.circuits)},
                      check_classify(entry, "Strong")))
    return ops


def derive(seed: int) -> list:
    """Construction: circuits, duals, minors, push-forwards, dual pairs,
    perfection sweeps."""
    rng = random.Random(f"derive/{seed}")
    ops = []
    # The two dense minors sit in the middle of the large tier's times.
    for kind, shape, commands in (("sign", "dense", ("circuits", "minor")),
                                  ("sign", "sparse", ("dual", "pushforward")),
                                  ("tropical", "dense", ("dual", "minor")),
                                  ("tropical", "sparse", ("pushforward",))):
        mat = MATRICES[shape](rng, 5, 11, False)
        tag = f"{kind}-{shape}-r5e11"
        labels, minors = mat.labels, mat.gp()
        gp = gp_json(kind, kind, labels, 5, _pushed(kind, minors))
        if "circuits" in commands or "dual" in commands:
            circuits = _pushed_vectors(kind, mat.circuits())
        if "circuits" in commands:
            ops.append(Op(f"derive/circuits/{tag}", "large",
                          ["circuits", "{gp}"], {"gp": gp},
                          check_classes(kind, labels, circuits)))
        if "dual" in commands:
            ops.append(Op(f"derive/dual/{tag}", "large", ["dual", "{sig}"],
                          {"sig": signature_json(kind, labels, circuits)},
                          check_classes(kind, labels, _pushed_vectors(
                              kind, mat.cocircuits()))))
        if "minor" in commands:
            delete, contract = (labels[0],), (labels[-1],)
            keep, rank, values = mat.minor_gp(delete, contract)
            ops.append(Op(f"derive/minor/{tag}", "large",
                          ["minor", "{gp}", "--delete", str(delete[0]),
                           "--contract", str(contract[0])], {"gp": gp},
                          check_gp_output(kind, keep, rank,
                                          _pushed(kind, values))))
        if "pushforward" in commands:
            hom = "sign" if kind == "sign" else "padic:2"
            ops.append(Op(f"derive/pushforward/{tag}", "large",
                          ["pushforward", "{gp}", "--hom", hom],
                          {"gp": gp_json("rational", "rational", labels, 5,
                                         minors)},
                          check_gp_output(kind, labels, 5,
                                          _pushed(kind, minors), exact=True)))
    for kind in KINDS:
        for shape, rank, m in (("dense", 3, 6), ("sparse", 3, 7)):
            mat = MATRICES[shape](rng, rank, m, kind in GAUSSIAN)
            circuits = _pushed_vectors(kind, mat.circuits())
            cocircuits = _pushed_vectors(kind, mat.cocircuits())
            if kind == "phase":
                cocircuits = phase_cocircuits(cocircuits)
            pair = {"circuits": signature_json(kind, mat.labels, circuits),
                    "cocircuits": signature_json(kind, mat.labels, cocircuits)}
            ops.append(Op(f"derive/gp/{kind}-{shape}-r{rank}e{m}", "small",
                          ["gp", "{pair}"], {"pair": pair},
                          check_gp_output(kind, mat.labels, rank,
                                          _pushed(kind, mat.gp()))))
    for kind in KINDS:
        samples = 30
        cfg = {"hyperfield": kind, "max_rank": 3, "max_ground": 6,
               "samples": samples, "seed": rng.randrange(2 ** 31)}
        ops.append(Op(f"derive/experiment/{kind}", "small",
                      ["experiment", "--config", "{cfg}"], {"cfg": cfg},
                      check_experiment(kind, samples)))
    return ops


WORKLOADS = {"gp-check": gp_check, "classify": classify, "derive": derive}
