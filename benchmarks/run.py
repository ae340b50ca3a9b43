"""The asymauto benchmark.

    python3 benchmarks/run.py --workload scan --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --seed 1          # all four workloads, one process each

Run it from the root of a checkout: the program is imported from ./src, and
nothing else of the checkout is used.  A run makes its inputs from --seed,
times its set-up, then runs whole rounds of the workload's operations until
--seconds of them have been measured, and checks every output.  Untraced,
a pace probe (pace.py) runs before the first operation and after each one,
and the round times are reported normalised to the probe's pace.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics (from spans around the calls into each module) with --trace 1.
Inputs, outputs, results and spans are written under benchmarks/out/.
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time
from types import SimpleNamespace

import numpy

import pace
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5  # at least this many, and more until SETUP_SECONDS have passed
SETUP_SECONDS = 1.0
PROGRAM_MODULES = ("cli", "seqlib", "smooth", "density", "kernel", "cobham", "digits")


def import_program():
    """A fresh import of asymauto (numpy stays loaded); returns its modules."""
    for name in [m for m in sys.modules if m == "asymauto" or m.startswith("asymauto.")]:
        del sys.modules[name]
    importlib.import_module("asymauto.cli")
    return SimpleNamespace(**{m: sys.modules[f"asymauto.{m}"] for m in PROGRAM_MODULES})


def call(op, prog, tracer):
    """Run one operation: (output, None), or (None, what it raised)."""
    index = tracer.open(op.span) if tracer is not None and op.span else None
    try:
        return op.run(prog), None
    except Exception as exc:  # a program fault; the round reports it below
        return None, f"raised {type(exc).__name__}: {exc}"
    finally:
        if index is not None:
            tracer.close(index, {"calls": op.size})


def run_round(workload, prog, tracer, probe=None):
    """One pass over the workload's operations: (times, [(op, problem)]).

    times holds the round's wall and cpu seconds and each operation's; with
    a probe (pace.py) also the probe's time before the first operation and
    after each one.
    """
    times = {"wall": 0.0, "cpu": 0.0, "op_wall": [], "op_cpu": [], "probes": []}
    if probe is not None:
        times["probes"].append(probe())
    outputs = []
    for op in workload.ops:
        t0, c0 = perf_counter(), process_time()
        outputs.append(call(op, prog, tracer))
        times["op_wall"].append(perf_counter() - t0)
        times["op_cpu"].append(process_time() - c0)
        if probe is not None:
            times["probes"].append(probe())
    times["wall"], times["cpu"] = sum(times["op_wall"]), sum(times["op_cpu"])
    problems = []
    for op, (output, error) in zip(workload.ops, outputs):
        if error is None:
            try:
                error = op.check(output)
            except Exception as exc:  # malformed output, e.g. a missing JSON key
                error = f"check raised {type(exc).__name__}: {exc}"
        problems.append((op, error))
    return times, problems


def measure(args, workload) -> dict:
    """Inputs, timed set-ups, then whole rounds until --seconds are measured."""
    workload.prepare()

    setup = []
    while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SECONDS:
        t0 = perf_counter()
        prog = import_program()
        workload.build(prog)
        setup.append(perf_counter() - t0)

    workload.begin(prog)
    probe = None if args.trace else pace.PROBES[workload.pace]
    for _ in range(3 if probe else 0):
        probe()  # first calls fault in fresh memory
    rounds = []
    faults = set()
    attempted = failed = 0
    correct = True
    measured = 0.0
    try:
        while True:
            tracer = spans.Tracer() if args.trace else None
            if tracer is not None:
                tracer.install(prog)
            try:
                times, problems = run_round(workload, prog, tracer, probe)
            finally:
                if tracer is not None:
                    tracer.remove()
            measured += times["wall"]
            for op, problem in problems:
                attempted += 1
                if problem is None:
                    continue
                if op.known_fault:
                    failed += 1
                    faults.add(op.known_fault)
                else:
                    correct = False
                    print(f"error: {workload.name}: {op.name}: {problem}", file=sys.stderr)
            rounds.append(dict(times, tracer=tracer))
            if tracer is not None:
                self_total = sum(s.self_seconds for s in tracer.spans)
                if self_total > times["wall"]:
                    correct = False
                    print(f"error: span self times {self_total:.6f}s exceed the round's "
                          f"{times['wall']:.6f}s", file=sys.stderr)
            if measured >= args.seconds:
                break
    finally:
        workload.end()

    return {"correct": correct, "attempted": attempted, "failed": failed,
            "setup": setup, "rounds": rounds, "known_faults": sorted(faults),
            "pace": workload.pace}


def normalised(run, key) -> float:
    """The mean round time of the run at the nominal pace: scaled by the
    probe's nominal time over its mean time in the run (pace.py)."""
    probes = [p for r in run["rounds"] for p in r["probes"]]
    return (statistics.fmean(r[key] for r in run["rounds"])
            * pace.NOMINAL[run["pace"]] / statistics.fmean(probes))


def end_to_end(run) -> dict:
    """Mean round times at the nominal pace (pace.py), then set-up and memory as measured."""
    return {
        "wall_norm_s": normalised(run, "wall"),
        "cpu_norm_s": normalised(run, "cpu"),
        "setup_s": statistics.median(run["setup"]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run) -> dict:
    """Medians over the (traced) rounds of each round's per-layer figures.

    The overhead is the round's span count times the measured cost of one
    span: the wall-time difference to an untraced round is far below the
    round-to-round noise of a shared machine, so it cannot be read off.
    """
    cost = spans.span_cost()
    figures = []
    for r in run["rounds"]:
        figure = spans.layer_metrics(r["tracer"].spans)
        figure["trace.overhead_s"] = len(r["tracer"].spans) * cost
        figures.append(figure)
    return {name: statistics.median(f[name] for f in figures) for name in figures[0]}


def declared(key: str):
    """An entry of BENCHMARK.json, which declares run length, metrics and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[key]


def run_one(args) -> int:
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    run = measure(args, workload)
    values = per_layer(run) if args.trace else end_to_end(run)
    units = {m["name"]: m["unit"] for m in declared("per_layer" if args.trace else "end_to_end")}
    if set(units) != set(values):
        raise KeyError(f"metrics out of step with BENCHMARK.json: {sorted(set(units) ^ set(values))}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup=run["setup"],
                  rounds=[{k: v for k, v in r.items() if k != "tracer"} for r in run["rounds"]],
                  known_faults=run["known_faults"], python=platform.python_version(),
                  numpy=numpy.__version__, cpus=os.cpu_count(),
                  threads=os.environ.get("ASYMAUTO_THREADS", "unset"))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        rows = [[{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                  "counts": s.counts} for s in r["tracer"].spans]
                for r in run["rounds"]]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(rows) + "\n", encoding="utf-8")

    print(f"workload {args.workload}: {run['attempted']} operations attempted, "
          f"{run['failed']} failed, {len(run['rounds'])} rounds")
    for fault in run["known_faults"]:
        print(f"  known fault: {fault}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'(mean round, as measured)':<28} "
              f"{statistics.fmean(r['wall'] for r in run['rounds']):.6g} s")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; a summary line at the end."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=declared("run_seconds"))
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "asymauto" / "__init__.py").is_file():
        print(f"error: no asymauto sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    cpus = os.cpu_count() or 1
    threads = os.environ.get("ASYMAUTO_THREADS")
    if threads is not None:
        try:
            threads = min(max(1, int(threads)), cpus)
        except ValueError:
            print(f"error: ASYMAUTO_THREADS={threads!r} is not an integer", file=sys.stderr)
            return 2
        os.environ["ASYMAUTO_THREADS"] = str(threads)
        if args.trace and threads > 1:
            print("error: --trace 1 needs one thread (spans from a pool would not nest)",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
