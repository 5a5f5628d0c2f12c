"""Benchmark of the hfm command line over the paper's three axiom systems.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gp-check|classify|derive \
        --seed N --seconds S --trace 0|1

Set-up writes the workload's input files (made from the seed by the
benchmark's own generator) under perfbench/out/, and times cold starts:
a fresh interpreter importing hypermatroid.cli and parsing those files.
Then one client runs the workload's fixed operation list, one `hfm`
command at a time through hypermatroid.cli.main(argv) in this process,
in whole rounds for about S seconds (at least one round).  Every output
is checked against the oracle; the last line of stdout is one JSON object
with the end-to-end metrics (--trace 0) or the per-layer metrics of a
traced run (--trace 1).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed import REF_NOMINAL_S, SpeedProbe  # noqa: E402

clock = time.perf_counter

COLD_STARTS = 9

# The child times the reference loop right after its work, so that its
# speed, not the parent's, scales the cold start; it prints the reading
# and the seconds that took, which are not part of the cold start.
COLD_START_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from hypermatroid import cli
from hypermatroid.serialization import parse_text
for path in sys.argv[3:]:
    with open(path, encoding="utf-8") as handle:
        parse_text(handle.read(), path)
import time
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from speed import ref_point
ref = ref_point()
print(ref, time.perf_counter() - start)
"""


def scaled(execution) -> float:
    """An execution's time scaled by the speed factor measured while it
    ran."""
    return execution[0] * execution[3]


def executions(rounds) -> list:
    """(op index, execution) for every command run, in order."""
    return [(n, e) for results in rounds for n, runs in enumerate(results)
            for e in runs]


# -- set-up -------------------------------------------------------------------


def write_inputs(ops, where):
    os.makedirs(where, exist_ok=True)
    paths = []
    for n, op in enumerate(ops):
        mine = {}
        for key, obj in op.files.items():
            path = os.path.join(where, f"op{n:02d}-{key}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(obj, handle)
            mine[key] = path
        paths.append(mine)
    return paths


def cold_starts(files):
    """Median of COLD_STARTS timed interpreter starts (after one untimed
    start that fills the bytecode cache), each scaled by the reference
    time the child measured after its work; and the unscaled median."""
    argv = [sys.executable, "-c", COLD_START_CODE, SRC, HERE] + files
    times, scaled = [], []
    for n in range(COLD_STARTS + 1):
        start = clock()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=60)
        elapsed = clock() - start
        if proc.returncode != 0:
            raise RuntimeError("cold start failed: "
                               + proc.stderr.decode(errors="replace")[-400:])
        ref, spent = map(float, proc.stdout.decode().split())
        elapsed -= spent
        if n:
            times.append(elapsed)
            scaled.append(elapsed * REF_NOMINAL_S / ref)
    return statistics.median(scaled), statistics.median(times)


# -- measurement --------------------------------------------------------------


def run_round(cli, ops, paths, probe, tracer=None):
    """One pass over the operation list.  Per operation, its executions
    (op.repeat of them, back to back): (seconds without the probe's, exit
    code, stdout, speed factor)."""
    out = []
    for op, mine in zip(ops, paths):
        argv = [a.format(**mine) for a in op.argv]
        runs = []
        for _ in range(op.repeat):
            gc.collect()
            if tracer is not None:
                tracer.begin_op()
            stdout, stderr = io.StringIO(), io.StringIO()
            mark = probe.mark()
            start = clock()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback is a failed operation
                    code = f"raised {type(exc).__name__}: {exc}"
            elapsed = clock() - start
            spent, factor = probe.since(mark)
            runs.append((elapsed - spent, code, stdout.getvalue(), factor))
        out.append(runs)
    return out


def run_rounds(cli, ops, paths, seconds, probe, tracer=None):
    """Whole rounds while the next one is expected to end within
    `seconds`; at least one.  With a tracer, also its snapshots before
    and after each round."""
    rounds = []
    snaps = [tracer.snapshot()] if tracer else []
    start = clock()
    while True:
        t = clock()
        rounds.append(run_round(cli, ops, paths, probe, tracer))
        if tracer:
            snaps.append(tracer.snapshot())
        last = clock() - t
        if clock() - start + last > seconds:
            return rounds, snaps


def check_output(op, code, text):
    """None, or why the operation's output is wrong."""
    if not isinstance(code, int):
        return str(code)
    try:
        return op.check(code, text)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"output of an unexpected shape ({type(exc).__name__}: {exc})"


def check_rounds(ops, rounds):
    """Per execution, in order, None or the reason it failed: the first
    execution of each operation is checked, every later one must print
    the same."""
    first = [check_output(op, runs[0][1], runs[0][2])
             for op, runs in zip(ops, rounds[0])]
    return [first[n] if e[1:3] == rounds[0][n][0][1:3]
            else "output changed between executions"
            for n, e in executions(rounds)]


# -- metrics ------------------------------------------------------------------


def end_to_end(ops, rounds, setup):
    runs = executions(rounds)
    total = sum(scaled(e) for _, e in runs)
    tiers = {}
    for results in rounds:
        for op, op_runs in zip(ops, results):
            tiers.setdefault(op.tier, []).append(
                statistics.median(scaled(e) for e in op_runs))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup[0], "s"),
        "ops_per_s": (len(runs) / total, "1/s"),
        "small_p50_s": (statistics.median(tiers["small"]), "s"),
        "large_p50_s": (statistics.median(tiers["large"]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw_total = sum(e[0] for _, e in runs)
    raw = {"setup_s": setup[1], "ops_per_s": len(runs) / raw_total,
           "speed_factor": total / raw_total}
    notes = {"small_p50_s": f"n={len(tiers['small'])}",
             "large_p50_s": f"n={len(tiers['large'])}",
             "ops_per_s": f"{len(runs)} commands in {len(rounds)} round(s)"}
    return metrics, raw, notes


PER_LAYER = [
    ("hyperfields.self_s", "s", "hyperfields.self_s"),
    ("hyperfields.mul.calls", "count", "hyperfields.mul.calls"),
    ("hyperfields.zero.calls", "count", "hyperfields.Hyperfield.zero.calls"),
    ("hyperfields.zero_in_sum.calls", "count", "hyperfields.zero_in_sum.calls"),
    ("gp.relation_terms.calls", "count", "gp.relation_terms.calls"),
    ("gp.GPFunction.evaluate.calls", "count", "gp.GPFunction.evaluate.calls"),
    ("gp.self_s", "s", "gp.self_s"),
    ("sumsets.self_s", "s", "sumsets.self_s"),
    ("sumsets.fold.calls", "count", "sumsets.fold.calls"),
    ("sumsets.intersect.calls", "count", "sumsets.SumSet.intersect.calls"),
    ("circuits.self_s", "s", "circuits.self_s"),
    ("circuits.check_strong_elimination.self_s", "s",
     "circuits.check_strong_elimination.self_s"),
    ("circuits.check_C3_doubleprime.self_s", "s",
     "circuits.check_C3_doubleprime.self_s"),
    ("circuits.eliminating_circuits.calls", "count",
     "circuits.eliminating_circuits.calls"),
    ("matroids.rank.calls", "count", "matroids.ClassicalMatroid.rank.calls"),
    ("matroids.modular_family.calls", "count", "matroids.modular_family.calls"),
    ("matroids.self_s", "s", "matroids.self_s"),
    ("matroids.validate_circuits.self_s", "s",
     "matroids.validate_circuits.self_s"),
    ("matroids.validate_circuits.calls", "count",
     "matroids.validate_circuits.calls"),
    ("matroids.from_bases.calls", "count",
     "matroids.ClassicalMatroid.from_bases.calls"),
    ("matroids.fundamental_circuit.calls", "count",
     "matroids.ClassicalMatroid.fundamental_circuit.calls"),
    ("gp.circuits_from_gp.self_s", "s", "gp.circuits_from_gp.self_s"),
    ("gp.cocircuit_signature_from_circuits.self_s", "s",
     "gp.cocircuit_signature_from_circuits.self_s"),
    ("transforms.self_s", "s", "transforms.self_s"),
    ("vectors.self_s", "s", "vectors.self_s"),
    ("vectors.projectively_equal.calls", "count",
     "vectors.projectively_equal.calls"),
    ("vectors.orthogonal.calls", "count", "vectors.orthogonal.calls"),
    ("gp.dual_pair_witness.self_s", "s", "gp.dual_pair_witness.self_s"),
    ("experiments.self_s", "s", "experiments.self_s"),
    ("search.tasks_enumerated", "count", "search.tasks_enumerated"),
    ("search.tasks_checked", "count", "search.tasks_checked"),
    ("serialization.parse_text.self_s", "s", "serialization.parse_text.self_s"),
    ("serialization.serialize.self_s", "s", "serialization.serialize.self_s"),
    ("serialization.output_bytes", "bytes", "serialization.output_bytes"),
    ("cli.self_s", "s", "cli.self_s"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(per_round, factor, overhead):
    """Per-round counts (exact) and self times (scaled, averaged)."""
    metrics = {}
    for name, unit, key in PER_LAYER:
        if unit == "s":
            value = sum(r[key] for r in per_round) * factor / len(per_round)
        else:
            value = per_round[0][key]
        metrics[name] = (value, unit)
    first = per_round[0]
    metrics["matroids.modular_family.hit_ratio"] = (_ratio(
        first.get("matroids.modular_family.hits", 0),
        first.get("matroids.modular_family.calls", 0)), "ratio")
    metrics["experiments.weak_accept_ratio"] = (_ratio(
        first.get("experiments.random_weak_gp.calls", 0),
        first.get("experiments.weak_checks", 0)), "ratio")
    metrics["search.checked_ratio"] = (_ratio(
        first.get("search.tasks_checked", 0),
        first.get("search.tasks_enumerated", 0)), "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def traced(cli, ops, paths, seconds, name, seed, probe):
    """One untraced round, then traced rounds; per-layer metrics."""
    import hypermatroid
    from tracer import Tracer

    base = run_round(cli, ops, paths, probe)
    tracer = Tracer(hypermatroid)
    tracer.install()
    probe.charge = tracer.exclude
    try:
        rounds, snaps = run_rounds(cli, ops, paths, seconds, probe, tracer)
    finally:
        probe.charge = None
        tracer.uninstall()
    per_round = [{k: b[k] - a.get(k, 0) for k in b}
                 for a, b in zip(snaps, snaps[1:])]
    counts_repeat = all(
        all(r[k] == per_round[0][k] for k in r if not k.endswith("self_s"))
        for r in per_round)
    untraced_s = sum(scaled(e) for _, e in executions([base]))
    traced = executions(rounds)
    traced_s = sum(scaled(e) for _, e in traced) / len(rounds)
    factor = traced_s * len(rounds) / sum(e[0] for _, e in traced)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{name}-{seed}.json"),
                 [ops[n].name for n, _ in traced])
    metrics = per_layer(per_round, factor, traced_s / untraced_s)
    return [base] + rounds, metrics, counts_repeat


# -- command line -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hypermatroid", "cli.py")):
        print(f"error: no hypermatroid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from hypermatroid import cli

    t = clock()
    ops = workloads.WORKLOADS[args.workload](args.seed)
    where = os.path.join(OUT, f"inputs-{args.workload}-{args.seed}")
    paths = write_inputs(ops, where)
    if not args.trace:
        setup = cold_starts([p for mine in paths for k, p in mine.items()
                             if k != "cfg"])
    print(f"set-up: {len(ops)} operations, {clock() - t:.1f} s")

    with SpeedProbe() as probe:
        if args.trace:
            rounds, metrics, repeat = traced(cli, ops, paths, args.seconds,
                                             args.workload, args.seed, probe)
        else:
            rounds, _ = run_rounds(cli, ops, paths, args.seconds, probe)
            repeat = True
    if args.trace:
        notes, raw = {}, {}
    else:
        metrics, raw, notes = end_to_end(ops, rounds, setup)
    problems = check_rounds(ops, rounds)

    executed = [ops[n] for n, _ in executions(rounds)]
    failed = [(op, p) for op, p in zip(executed, problems) if p is not None]
    unexpected = [op for op, _ in failed if op.known_fault is None]
    for op, problem in dict(failed).items():
        tag = "known fault" if op.known_fault else "FAILED"
        print(f"{tag}: {op.name}: {problem}")
    if not repeat:
        print("FAILED: traced counts differ between rounds")
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:44s} {value:14.6g} {unit:6s} {note}")
    for name, value in raw.items():
        print(f"raw {name:40s} {value:14.6g}")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-"
                                f"{args.trace}.json"), "w") as handle:
        json.dump({"ops": [op.name for op in ops],
                   "rounds": [[[(e[0], e[3]) for e in runs] for runs in results]
                              for results in rounds],
                   "problems": problems, "raw": raw}, handle)
    print(json.dumps({
        "correct": not unexpected and repeat,
        "attempted": len(executed),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
