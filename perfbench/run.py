"""chargegame benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload night-sweep --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --self-test                  # determinism self-test

Workloads (inputs come from ``--seed`` alone; see workloads.py for why each
exists and what it stresses):

* ``night-sweep``      shipped night config: its M=0.5 point once per run,
                       then rounds of a seeded 20-point dynamics sweep
                       (dynamics, costs).
* ``threeslot-audit``  30 seeded three-slot instances, analytic sweep over
                       101 points each (threeslot, verify, model, sweep).
* ``mixed-dynamics``   48 seeded small games, 1-3 coalitions, all cost
                       families (dynamics, costs).
* ``cli-configs``      the shipped configs through the CLI, one process per
                       command (cli, process start and import).

This process only orchestrates and never imports chargegame.  Set-up is
timed over fresh interpreters, from process start to inputs ready, and the
median is reported.  The measured process (``child.py``) then runs rounds
of the workload until ``--seconds`` is used up (at least one round; every
round holds at least 20 solves) and checks every output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload once plain
and once with the layer tracer and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object; a
failed correctness check makes the exit code 1.  Only the standard library
is used here.

Times are reported at a fixed reference machine speed.  On a shared VM
the CPU speed drifts by up to 2x for seconds to minutes, and all of
chargegame's time follows it.  A fixed loop of interpreter and numpy
work (``child.reference``) is timed next to every round phase and every
set-up, and each time is scaled by the loop's nominal time over its
measured time.  The summary line shows the raw wall time and the speed
beside the scaled one.  Counts and ratios are not scaled, nor is
``cli.import_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("night-sweep", "threeslot-audit", "mixed-dynamics", "cli-configs")
SETUP_PROBES = 8  # plus the measured process itself
IMPORT_PROBES = 5
RUN_LIMIT_S = 170.0
# Solves needed beyond a percentile before it is reported as the tail.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "solves_per_s": "1/s",
    "certified_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "costs.calls": "count",
    "costs.self_s": "s",
    "model.calls": "count",
    "model.self_s": "s",
    "threeslot.solve_ce.calls": "count",
    "threeslot.imbalance_evals": "count",
    "threeslot.self_s": "s",
    "dynamics.iterations": "count",
    "dynamics.maxiter_hits": "count",
    "dynamics.self_s": "s",
    "dynamics.us_per_iter": "us",
    "verify.make_report.calls": "count",
    "verify.self_s": "s",
    "verify.wardrop_fail": "count",
    "sweep.points": "count",
    "sweep.self_s": "s",
    "cli.import_s": "s",
    "cli.resolve_s": "s",
    "cli.emit_s": "s",
    "trace.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark could not measure (missing sources, a crashed child)."""


def start_child(args):
    # Unbuffered: readline() must not read past the ready line, because
    # communicate() with a timeout reads the pipe itself.
    return subprocess.Popen([sys.executable, CHILD] + args, cwd=ROOT,
                            stdout=subprocess.PIPE, bufsize=0)


def finish(proc, deadline, what):
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what}: timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{what}: exited with code {proc.returncode}")
    return out.decode()


def timed_child(args, deadline, what):
    """Start a child, time it from launch to its ``ready`` line, let it
    finish and return (set-up seconds, its result line or None)."""
    t0 = time.perf_counter()
    proc = start_child(args)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != b"ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"{what}: no ready line (got {line!r})")
    out = finish(proc, deadline, what).strip().splitlines()
    return setup, (json.loads(out[-1]) if out else None)


def measure_setup(workload, seed, deadline) -> list:
    """Set-up seconds of fresh processes, each at the reference speed the
    process measured right after it."""
    samples = []
    for _ in range(SETUP_PROBES):
        setup, probe = timed_child(["--workload", workload, "--seed", str(seed), "--out", OUT,
                                    "--setup-only"], deadline, f"{workload} set-up probe")
        samples.append(setup * probe["setup_speed"])
    return samples


def measure_import(deadline) -> float:
    """Median time of a fresh ``import chargegame.cli``, timed inside the
    interpreter."""
    code = (
        "import sys,time;sys.path.insert(0,sys.argv[1]);t=time.perf_counter();"
        "import chargegame.cli;print(time.perf_counter()-t)"
    )
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.Popen([sys.executable, "-c", code, os.path.join(ROOT, "src")],
                                cwd=ROOT, stdout=subprocess.PIPE)
        samples.append(float(finish(proc, deadline, "import probe")))
    return statistics.median(samples)


def run_workload(workload, seed, seconds, out_dir, deadline, trace=False):
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--out", out_dir]
    if trace:
        args.append("--trace")
    setup, result = timed_child(args, deadline, f"{workload} run")
    if result is None:
        raise BenchError(f"{workload}: no result line")
    result["setup_s"] = setup
    return result


def tail(values):
    """(value, percentile) with exactly TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def at_reference_speed(result):
    """Round walls and per-round solve times scaled to the reference
    machine speed measured around each round (see child.reference)."""
    walls = [w * s for w, s in zip(result["walls"], result["wall_speeds"])]
    times = [[t * s for t, s in zip(ts, ss)] for ts, ss in zip(result["times"], result["speeds"])]
    return walls, times


def end_to_end(result, setups):
    # Every round repeats the same solves: a solve's time is its median
    # over the rounds, and wall_s the median round.
    walls, round_times = at_reference_speed(result)
    times = [statistics.median(per_solve) for per_solve in zip(*round_times)]
    wall = statistics.median(walls)
    attempted = result["rounds"] * result["solves_per_round"] + result["once_solves"]
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "solve_ms_p50": 1000.0 * statistics.median(times),
        "solve_ms_tail": 1000.0 * tail_value,
        "solves_per_s": result["certified"] / result["rounds"] / wall,
        "certified_ratio": (result["certified"] + result["once_certified"]) / attempted,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "wall_s": f"raw {statistics.median(result['walls']):.4g} s, machine speed "
                  f"{statistics.median(result['wall_speeds']):.3f} of reference",
        "solve_ms_tail": f"p{tail_pct:.1f} of {len(times)} solves, {result['rounds']} rounds",
    }
    if result["once_s"]:
        raw, scaled = result["once_s"]
        notes["certified_ratio"] = f"once-per-run solve {scaled:.4g} s (raw {raw:.4g} s)"
    return metrics, notes


def per_layer(traced, plain_wall, import_s):
    layers, rounds = traced["layers"], traced["rounds"]
    speed = statistics.median(traced["wall_speeds"])

    def total(kind, *names):
        value = sum(layers["setup"][kind].get(n, 0) + layers["rounds"][kind].get(n, 0) / rounds
                    for n in names)
        return value * speed if kind.endswith("_s") else value

    def layer(kind, prefix):
        keys = sorted(set(layers["setup"][kind]) | set(layers["rounds"][kind]))
        return total(kind, *[k for k in keys if k.startswith(prefix + ".")])

    def count(value):
        return int(round(value)) if abs(value - round(value)) < 1e-9 else value

    iterations = total("counters", "dynamics.iterations")
    dynamics_self = float(layer("self_s", "dynamics"))
    traced_wall = statistics.median(at_reference_speed(traced)[0])
    return {
        "costs.calls": count(layer("calls", "costs")),
        "costs.self_s": float(layer("self_s", "costs")),
        "model.calls": count(layer("calls", "model")),
        "model.self_s": float(layer("self_s", "model")),
        "threeslot.solve_ce.calls": count(total("calls", "threeslot.solve_ce")),
        "threeslot.imbalance_evals": count(total("calls", "threeslot.marginal_imbalance")),
        "threeslot.self_s": float(layer("self_s", "threeslot")),
        "dynamics.iterations": count(iterations),
        "dynamics.maxiter_hits": count(total("counters", "dynamics.maxiter_hits")),
        "dynamics.self_s": dynamics_self,
        "dynamics.us_per_iter": 1e6 * dynamics_self / iterations if iterations else 0.0,
        "verify.make_report.calls": count(total("calls", "verify.make_report")),
        "verify.self_s": float(layer("self_s", "verify")),
        "verify.wardrop_fail": traced["wardrop_fail"],
        "sweep.points": count(total("counters", "sweep.points")),
        "sweep.self_s": float(layer("self_s", "sweep")),
        "cli.import_s": import_s,
        "cli.resolve_s": float(total("total_s", "cli.resolve_config", "cli.build_game")),
        "cli.emit_s": float(total("total_s", "cli.report_to_dict", "cli.write_csv",
                                  "cli.audits_to_dict")),
        "trace.overhead_pct": 100.0 * (traced_wall - plain_wall) / plain_wall,
    }


def bench(workload, seed, seconds, trace):
    """Run one workload; return (result line, printable summary lines)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    out_dir = os.path.join(OUT, workload)
    setups = [] if trace else measure_setup(workload, seed, deadline)
    budget = seconds / 2.0 if trace else seconds
    plain = run_workload(workload, seed, budget, os.path.join(out_dir, "plain"), deadline)
    setups.append(plain["setup_s"] * plain["setup_speed"])
    runs = [plain]
    if trace:
        traced = run_workload(workload, seed, budget, os.path.join(out_dir, "traced"),
                              deadline, trace=True)
        runs.append(traced)
        plain_wall = statistics.median(at_reference_speed(plain)[0])
        metrics = per_layer(traced, plain_wall, measure_import(deadline))
        units, notes = PER_LAYER_UNITS, {}
    else:
        metrics, notes = end_to_end(plain, setups)
        units = END_TO_END_UNITS
    attempted = sum(r["rounds"] * r["solves_per_round"] + r["once_solves"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    lines = [
        f"{workload} seed={seed} rounds={plain['rounds']} solves={attempted} "
        f"failed={failed} fail_ratio={failed / attempted:.4g} notes={json.dumps(plain['notes'])}"
    ]
    lines += [f"  {name:<26} {value:>14.6g} {units[name]} {notes.get(name, '')}".rstrip()
              for name, value in metrics.items()]
    lines += [f"  FAILED CHECK: {f}" for f in failures[:20]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def self_test(seed: int) -> bool:
    """Same seed, same inputs; another seed, other inputs; and the exact
    counts repeat across two traced one-round runs."""
    ok = True
    deadline = time.perf_counter() + 900.0

    def digest(workload, s):
        out = finish(start_child(["--workload", workload, "--seed", str(s), "--out", OUT,
                                  "--describe"]), deadline, "describe")
        return json.loads(out.strip().splitlines()[-1])["digest"]

    for workload in WORKLOADS:
        same = digest(workload, seed) == digest(workload, seed)
        differs = digest(workload, seed) != digest(workload, seed + 1)
        counts = []
        for run in range(2):
            out_dir = os.path.join(OUT, "self-test", f"{workload}-{run}")
            # No time budget: exactly one round.
            result = run_workload(workload, seed, 0, out_dir, deadline, trace=True)
            layers = per_layer(result, 1.0, 0.0)
            attempted = result["solves_per_round"] + result["once_solves"]
            counts.append({
                "dynamics.iterations": layers["dynamics.iterations"],
                "threeslot.imbalance_evals": layers["threeslot.imbalance_evals"],
                "certified_ratio": (result["certified"] + result["once_certified"]) / attempted,
                "fail_ratio": result["failed"] / attempted,
            })
        repeat = counts[0] == counts[1]
        passed = same and differs and repeat
        ok &= passed
        print(f"{workload}: same-seed inputs {'identical' if same else 'DIFFER'}, "
              f"next seed {'differs' if differs else 'IDENTICAL'}, counts "
              f"{'repeat' if repeat else 'DIFFER'} {json.dumps(counts[0])}"
              f" -> {'PASS' if passed else 'FAIL'}", flush=True)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "chargegame", "__init__.py")):
        print(f"error: no chargegame sources under {ROOT}/src", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts, so the reference
    # speed measured in the workload process is that of its CLI children too.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.self_test:
            return 0 if self_test(args.seed) else 1
        if args.workload != "all":
            result, lines = bench(args.workload, args.seed, args.seconds, args.trace)
            print("\n".join(lines))
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            result, lines = bench(workload, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(combined))
        return 0 if combined["correct"] else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
