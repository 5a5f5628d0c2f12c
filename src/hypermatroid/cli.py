"""Command line front end.

JSON objects come in on a file argument (or "-" for stdin) and results
go out as JSON on stdout.  Exit codes: 0 when every requested check
passed or the requested object was produced, 1 when a checked property
failed (the witness is printed on stdout), 2 for malformed input (the
message goes to stderr).

Every checker runs in one thread and reports the first witness in its
canonical order.  `check-gp` decides Strong by the three-term relations
and basis exchange of `--weak` over the doubly distributive hyperfields
(Krasner, sign, tropical, the rationals, GF(p)), where weak and strong
coincide, and over triangle and phase by one (I, J) relation per
circuit/cocircuit pair meeting in 4 or more (`gp.failing_relation`).  On
a function that is not weak `--strong` reports the witness of `--weak`;
on a weak one, the first failing (I, J) among those whose circuit and
cocircuit meet least.  The walk over every (I, J) is the test oracle in
`tests/oracles.py`.
`check-circuits` and `classify` decide by orthogonality with the
cocircuit signature derived from the circuits
(`gp.orthogonality_verdict`); the elimination scans only name the
failing instance (`gp.elimination_witness`): modular-pair elimination
(C3') for a signature that is not weak, modular-family elimination (C3)
for a weak-only one.  `check-circuits` reports weakness alone, so it
runs only the first.  A signature file that lists a class twice, up to a
unit, loses the later copy, and the command prints one `warning:` line
on stderr.
`gp` admits a weak dual pair by DP1, DP2 and DP3'
(`gp.nonorthogonal_pair` decides DP3') and rebuilds its function without
re-checking it: a weak dual pair determines one weak function up to a
unit, and a full dual pair a strong one (Baker-Bowler).
It exits 1 on a failing DP axiom, and 2 on cocircuits over another
hyperfield or ground order, since it pairs entries by ground position.
`circuits` admits a weak function and reads each circuit off the first
(r+1)-set whose circuit it is, against one basis, since the circuits of
a weak function do not depend on the basis used; it reads them from the
table that decides Strong and builds no matroid, so it takes every
ground set that `check-gp --weak` takes.
`minor` deletes, then contracts.  On a function it evaluates with a
greedy maximal independent subset of the contracted set and a greedy
basis completion inside the deleted set as trailing arguments, both read
off the support's bases, so it also takes every ground set that
`check-gp --weak` takes; a support failing basis exchange exits 2.
`dressian` is the three-term sweep of `check-gp --weak` without the
basis-exchange scan; it reports the number of three-term (I, J) pairs,
four per relation though it decides each relation once, and the first
failing one.
`axioms` checks the tract axioms on the family's own payload operations,
the ones every checker runs (`axioms.check_hyperfield_axioms`): the units
form a commutative group, 0 is the neutral null sum and no unit is null,
0 lies in x + y exactly when y is the hyperinverse of x, and whether 0
lies in a sum survives scaling by a unit, concatenating two null sums and
reordering.  A family with at most `--budget` elements (Krasner, sign,
small prime fields) is checked on all of them; any other on a seeded
pool of `--budget` elements and seeded draws from it.  The reported
`doubly_distributive` is the family's flag, on which the checkers
branch; the test suite checks it against a search on the exact
hypersums.  It exits 0 when every check passes, 1 when one fails (its
first failure is printed), and 2 for an unknown hyperfield or a
`--budget` below 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import replace
from typing import Optional

from .axioms import check_hyperfield_axioms
from .circuits import CircuitSignature, check_C0_C2
from .corpus import corpus_entries, run_demo
from .errors import InputError, InvalidDualPairError, RatioInconsistencyError
from .experiments import config_from_json, run_perfection_experiment
from .gp import (GPFunction, check_gp_strong, check_gp_weak, circuits_from_gp,
                 classify, cocircuit_signature_from_circuits,
                 elimination_witness, failing_three_term, gp_from_dual_pair,
                 orthogonality_verdict, three_term_pairs)
from .hyperfields import TROPICAL
from .matroids import validate_circuits
from .serialization import hyperfield_from_id, parse_text, serialize
from .transforms import (dual_gp, minor_circuits, minor_gp,
                         pushforward_circuits, pushforward_gp, rational_padic,
                         rational_sign, to_krasner)

_PROPERTY_ERRORS = (InvalidDualPairError, RatioInconsistencyError)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load(path: str):
    """The object the file describes; a warning of the parse (a dropped
    duplicate class) goes to stderr as one line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        obj = parse_text(_read_text(path), path)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return obj


def _emit(obj) -> None:
    print(serialize(obj))


def _want(obj, kinds: tuple, what: str):
    if not isinstance(obj, kinds):
        raise InputError(f"expected {what}, got {type(obj).__name__}")
    return obj


def _split_labels(raw: Optional[str], ground) -> tuple:
    if not raw:
        return ()
    by_str = {str(label): label for label in ground}
    picked = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in by_str:
            raise InputError(f"label {token!r} is not in the ground set")
        picked.append(by_str[token])
    return tuple(picked)


# -- command bodies ----------------------------------------------------------


def _cmd_axioms(args) -> int:
    hf = hyperfield_from_id(args.hyperfield, "--hyperfield")
    if args.budget < 1:
        raise InputError(f"--budget must be at least 1, got {args.budget}")
    report = check_hyperfield_axioms(hf, sample_budget=args.budget,
                                     seed=args.seed)
    _emit(report.as_json())
    return 0 if report.ok else 1


def _cmd_check_gp(args) -> int:
    phi = _want(_load(args.file), (GPFunction,), "a Grassmann-Pluecker object")
    run_weak = args.strength in ("weak", "both")
    run_strong = args.strength in ("strong", "both")
    out = {"hyperfield": str(phi.hyperfield), "rank": phi.rank,
           "ground_set": list(phi.ground.labels)}
    failed = False
    if run_weak:
        witness = check_gp_weak(phi)
        out["weak"] = {"ok": witness is None, "witness": witness}
        failed = failed or witness is not None
    if run_strong:
        witness = check_gp_strong(phi)
        out["strong"] = {"ok": witness is None, "witness": witness}
        failed = failed or witness is not None
    _emit(out)
    return 1 if failed else 0


def _cmd_check_circuits(args) -> int:
    sig = _want(_load(args.file), (CircuitSignature,), "a circuit signature")
    out = {"hyperfield": str(sig.hyperfield),
           "ground_set": list(sig.ground.labels)}
    witness = check_C0_C2(sig)
    out["supports"] = {"ok": witness is None, "witness": witness}
    if witness is None:
        try:
            sig.underlying_matroid()
        except InputError:
            # name the violation; a ground set above the cap raises again
            witness = validate_circuits(sig.ground, sig.supports()).as_json()
        out["underlying_matroid"] = {"ok": witness is None, "witness": witness}
    if witness is None:
        verdict = orthogonality_verdict(sig)
        witness = elimination_witness(sig, verdict) \
            if verdict == "InvalidSignature" else None
        out["weak_elimination"] = {"ok": witness is None, "witness": witness}
    _emit(out)
    return 1 if witness is not None else 0


def _cmd_classify(args) -> int:
    sig = _want(_load(args.file), (CircuitSignature,), "a circuit signature")
    result = classify(sig)
    _emit(result)
    return 0 if result.ok else 1


def _cmd_circuits(args) -> int:
    phi = _want(_load(args.file), (GPFunction,), "a Grassmann-Pluecker object")
    witness = check_gp_weak(phi)
    if witness is not None:
        _emit({"error": "input fails the weak relation check",
               "witness": witness})
        return 1
    _emit(circuits_from_gp(phi))
    return 0


def _cmd_gp(args) -> int:
    pair = _load(args.file)
    if not (isinstance(pair, tuple) and len(pair) == 2
            and all(isinstance(s, CircuitSignature) for s in pair)):
        raise InputError("expected an object with circuits and cocircuits")
    _emit(gp_from_dual_pair(pair[0], pair[1]))
    return 0


# the commands that take a function or a signature
_EITHER = ((GPFunction, CircuitSignature),
           "a Grassmann-Pluecker object or a circuit signature")


def _cmd_dual(args) -> int:
    obj = _want(_load(args.file), *_EITHER)
    _emit(dual_gp(obj) if isinstance(obj, GPFunction)
          else cocircuit_signature_from_circuits(obj))
    return 0


def _cmd_minor(args) -> int:
    obj = _load(args.file)
    if not args.delete and not args.contract:
        raise InputError("nothing to do: pass --delete and/or --contract")
    minor = minor_gp if isinstance(_want(obj, *_EITHER), GPFunction) else minor_circuits
    _emit(minor(obj, deleted=_split_labels(args.delete, obj.ground),
                contracted=_split_labels(args.contract, obj.ground)))
    return 0


def _resolve_hom(name: str, source):
    if name == "krasner":
        return to_krasner(source)
    if name == "sign":
        hom = rational_sign()
    elif name.startswith("padic:"):
        raw = name[len("padic:"):]
        try:
            p = int(raw)
        except ValueError:
            raise InputError(f"--hom padic wants an integer prime, got {raw!r}") from None
        hom = rational_padic(p)
    else:
        raise InputError(f"unknown homomorphism {name!r} "
                         "(use krasner, sign, or padic:<p>)")
    if hom.source is not source:
        raise InputError(f"homomorphism {name!r} starts at {hom.source}, "
                         f"but the input lives over {source}")
    return hom


def _cmd_pushforward(args) -> int:
    obj = _want(_load(args.file), *_EITHER)
    push = pushforward_gp if isinstance(obj, GPFunction) else pushforward_circuits
    _emit(push(_resolve_hom(args.hom, obj.hyperfield), obj))
    return 0


def _cmd_dressian(args) -> int:
    phi = _want(_load(args.file), (GPFunction,), "a Grassmann-Pluecker object")
    if phi.hyperfield is not TROPICAL:
        raise InputError("the three-term relation sweep is defined for "
                         "tropical input")
    witness = failing_three_term(phi)
    if witness is not None:
        witness = {"I": list(witness["I"]), "J": list(witness["J"])}
    _emit({"relations_checked": three_term_pairs(phi.rank, len(phi.ground)),
           "ok": witness is None, "witness": witness})
    return 0 if witness is None else 1


def _cmd_demo(args) -> int:
    if args.list:
        _emit([{"name": e.name, "kind": e.kind, "summary": e.summary}
               for e in corpus_entries()])
        return 0
    if not args.name:
        raise InputError("pass a demo name or --list")
    report = run_demo(args.name)
    _emit(report)
    return 0 if report["ok"] else 1


def _cmd_experiment(args) -> int:
    try:
        raw = json.loads(_read_text(args.config))
    except json.JSONDecodeError as exc:
        raise InputError(f"{args.config}: invalid JSON ({exc})") from None
    cfg = config_from_json(raw)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    report = run_perfection_experiment(cfg)
    _emit(report)
    bad = report["contract_violation"] or report["orthogonality_failures"]
    return 1 if bad else 0


# -- parser wiring ------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on the first call."""
    parser = argparse.ArgumentParser(
        prog="hfm",
        description="Check and transform matroid data over hyperfields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        return p

    p = command("axioms", _cmd_axioms, "run the hyperfield axiom suite")
    p.add_argument("--hyperfield", required=True,
                   help="krasner | sign | tropical | triangle | phase | "
                        "phase[identity] | rational | gf(p)")
    p.add_argument("--budget", type=int, default=24,
                   help="pool size: a family with at most this many elements is "
                        "checked on all of them, any other on this many samples")
    p.add_argument("--seed", type=int, default=0)

    p = command("check-gp", _cmd_check_gp, "weak/strong relation checks")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--weak", dest="strength", action="store_const",
                       const="weak", default="both")
    group.add_argument("--strong", dest="strength", action="store_const",
                       const="strong")
    group.add_argument("--both", dest="strength", action="store_const",
                       const="both")

    command("check-circuits", _cmd_check_circuits,
            "support axioms, underlying matroid, and weak elimination for a "
            "circuit signature").add_argument("file")
    command("classify", _cmd_classify, "full verdict: Strong, WeakOnly, "
            "InvalidSignature, or UnderlyingNotMatroid").add_argument("file")
    command("circuits", _cmd_circuits, "derive the circuit signature of a "
            "weak-valid Grassmann-Pluecker object").add_argument("file")
    command("gp", _cmd_gp, "rebuild a rank-(|E|-|cocircuit overlap|) "
            "function from a circuit/cocircuit pair").add_argument("file")
    command("dual", _cmd_dual, "dualize a function or signature").add_argument("file")

    p = command("minor", _cmd_minor, "delete, then contract labels of a "
                "function (of any size) or signature")
    p.add_argument("file")
    p.add_argument("--delete", default="", metavar="a,b")
    p.add_argument("--contract", default="", metavar="c")

    p = command("pushforward", _cmd_pushforward, "apply a coefficient homomorphism")
    p.add_argument("file")
    p.add_argument("--hom", required=True, metavar="krasner|sign|padic:<p>")

    command("dressian", _cmd_dressian, "three-term relation sweep for "
            "tropical input").add_argument("file")

    p = command("demo", _cmd_demo, "run a built-in corpus entry")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true")

    p = command("experiment", _cmd_experiment, "randomized perfection sweep")
    p.add_argument("--config", required=True,
                   help="JSON file with hyperfield, bounds, samples, seed")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _PROPERTY_ERRORS as exc:
        _emit({"error": type(exc).__name__, "detail": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())
