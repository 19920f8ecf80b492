"""One workload process: set up, run timed rounds, check, report.

Started by ``run.py``; not meant to be run by hand.  It prints ``ready``
once the inputs are built (the parent times set-up from process start to
that line), then, unless ``--setup-only``, runs the workload's once-per-run
solve if it has one and rounds until ``--seconds`` would be exceeded,
checks the outputs and prints one JSON line.

With ``--trace`` the tracer is installed after import and before set-up,
and removed before the checks, so the checks' own library calls are not
counted.  Without it nothing is patched and the tracer is never imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


# Seconds of 1000 reference() loops on the 2-vCPU x86_64 VM the baseline
# was recorded on, at its usual speed; times are reported at that speed.
REFERENCE_S = 0.0045
# Loops of the speed samples taken at round boundaries and after set-up.
# A round of night-sweep is one long phase, so the samples at its two ends
# are its only ones, and they get four times the loops of a mark.
BOUNDARY_LOOPS = 4000


def reference(loops: int = 1000) -> float:
    """Seconds per 1000 loops of a fixed mix of interpreter and small-array
    numpy work that does not touch chargegame.

    A shared VM's CPU speed drifts by tens of percent over seconds to
    minutes, and chargegame's time follows it.  Timing this loop next to
    every round phase gives the machine speed the phase ran at, so
    ``run.py`` can report times at a fixed reference speed.
    """
    import numpy as np

    loads, window, acc = np.arange(7.0), np.ones(3), 0.0
    start = time.perf_counter()
    for i in range(loops):
        prices = np.exp(-np.convolve(loads, window) / (i + 1))
        acc += float(prices.sum()) + sum(range(20))
    return (time.perf_counter() - start) * 1000 / loops


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--describe", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads  # imports chargegame

    workload = workloads.WORKLOADS[args.workload]
    recorder = None
    if args.trace:
        import tracer

        recorder = tracer.Tracer()
        recorder.install()
        if args.workload == "cli-configs":
            workload.traced_command = [
                sys.executable, os.path.join(os.path.dirname(__file__), "traced_cli.py"),
                "--totals-dir", os.path.join(args.out, "cli-totals"), "--",
            ]
    inputs = workload.setup(args.seed)
    print("ready", flush=True)
    if args.describe:
        print(json.dumps({"digest": workloads.digest(workload.describe(inputs))}))
        return 0
    if args.setup_only:
        print(json.dumps({"setup_speed": REFERENCE_S / reference(BOUNDARY_LOOPS)}))
        return 0
    deadline = time.perf_counter() + args.seconds
    before = reference(BOUNDARY_LOOPS)
    setup_speed = REFERENCE_S / before
    once = once_s = None
    if hasattr(workload, "run_once"):
        t0 = time.perf_counter()
        once = workload.run_once(inputs)
        once_raw = time.perf_counter() - t0
        after = reference(BOUNDARY_LOOPS)
        once_s = (once_raw, once_raw * 2.0 * REFERENCE_S / (before + after))
        before = after
    # Per-run work (set-up and the once solve) apart from the rounds.
    setup_totals = recorder.totals() if recorder else None

    walls, times, speeds, wall_speeds, first, mismatched = [], [], [], [], None, []
    while True:
        round_dir = os.path.join(args.out, f"round{len(walls)}")
        os.makedirs(round_dir, exist_ok=True)
        marks = []
        t0 = time.perf_counter()
        phases, round_outputs = workload.run_round(inputs, round_dir,
                                                   lambda: marks.append(reference()))
        walls.append(time.perf_counter() - t0 - sum(marks))
        after = reference(BOUNDARY_LOOPS)
        # Machine speed against the reference speed, per phase: the
        # reference loop's nominal time over its mean time at both ends.
        refs = [before] + marks + [after]
        phase_speeds = [2.0 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
        round_times = [t for phase in phases for t in phase]
        times.append(round_times)
        speeds.append([s for s, phase in zip(phase_speeds, phases) for _ in phase])
        wall_speeds.append(sum(t * s for t, s in zip(round_times, speeds[-1])) / sum(round_times))
        before = after
        # Later rounds are compared with round 0 and dropped, so memory
        # does not grow with the number of rounds.
        if first is None:
            first = round_outputs
        else:
            if not workload.same(first, round_outputs):
                mismatched.append(len(walls) - 1)
            shutil.rmtree(round_dir)
        del round_outputs
        if time.perf_counter() + min(walls) > deadline:
            break

    layer_totals = None
    if recorder is not None:
        recorder.uninstall()
        layer_totals = {
            "setup": setup_totals,
            "rounds": tracer.subtract_totals(recorder.totals(), setup_totals),
        }
        # Spans of the traced CLI processes of cli-configs.
        cli_dir = os.path.join(args.out, "cli-totals")
        if os.path.isdir(cli_dir):
            for name in sorted(n for n in os.listdir(cli_dir) if n.endswith(".totals.json")):
                with open(os.path.join(cli_dir, name)) as handle:
                    tracer.merge_totals(layer_totals["rounds"], json.load(handle))
        recorder.write(os.path.join(args.out, "spans"))

    check = workload.check(inputs, first, once)
    per_round = len(times[0])
    once_solves = 0 if once is None else 1
    checked = len(walls) - len(mismatched)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "rounds": len(walls),
        "walls": walls,
        "times": times,
        "speeds": speeds,
        "wall_speeds": wall_speeds,
        "setup_speed": setup_speed,
        "once_s": once_s,
        "solves_per_round": per_round,
        "once_solves": once_solves,
        # Round 0 is fully checked; a later round inherits its verdicts when
        # its outputs are identical and fails as a whole otherwise.
        "certified": check.certified * checked,
        "once_certified": check.once_certified,
        "failed": min(per_round * len(walls) + once_solves,
                      len(check.failures) * checked + per_round * len(mismatched)),
        "failures": check.failures + [f"round {r} differs from round 0" for r in mismatched],
        "wardrop_fail": check.wardrop_fail,
        "notes": check.notes,
        "peak_rss_mb": usage / 1024.0,
        "layers": layer_totals,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
