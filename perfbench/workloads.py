"""Seeded inputs, one round of work and the correctness checks per workload.

Every workload has three steps:

* ``setup(seed)`` builds the inputs from the seed alone; the library only
  ever sees these generated inputs.
* ``run_round(inputs, out_dir, mark)`` does one round of work and returns
  the per-solve times, grouped in phases, plus the outputs.  A workload
  calls ``mark()`` between two phases so that the machine speed is
  measured next to each phase.  Rounds repeat the same inputs, so their outputs
  must be identical.
* ``check(inputs, outputs, once)`` recomputes every certificate from the
  returned outputs, outside the timed rounds.

A workload may also have ``run_once(inputs)``: one solve per run, after
set-up and before the rounds, checked with them.

A *solve* is one equilibrium: a grid point, a random game or one CLI
command.  ``run_sweep`` exposes no per-point timing, so each point of a
sweep is charged the sweep's wall time divided by its point count.

Library calls go through ``cg.<name>`` or ``cli.<name>`` so that, in the
traced run, they reach the wrappers the tracer installs on those modules.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import chargegame as cg
from chargegame import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")

# Certification tolerances the acceptance tests use.
ANALYTIC_TOL = 1e-9
DYNAMICS_AUDIT_TOL = 1e-6


@dataclass
class Check:
    """Verdicts of one round's outputs, and of the once-per-run solve if
    the workload has one: solves certified, checks failed."""

    certified: int = 0
    once_certified: int = 0
    failures: list = field(default_factory=list)
    wardrop_fail: int = 0
    notes: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failures.append(what)


def digest(obj) -> str:
    """SHA-256 of a canonical JSON form, for the same-seed self-test."""
    blob = json.dumps(obj, sort_keys=True, default=_plain).encode()
    return hashlib.sha256(blob).hexdigest()


def _plain(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, cg.CostFunction):
        return repr(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(type(obj).__name__)


def spec_at(spec: cg.GameSpec, m: float) -> cg.GameSpec:
    """The one-coalition game ``spec`` with coalition size ``m``."""
    return cg.GameSpec(
        horizon=spec.horizon,
        duration=spec.duration,
        power=spec.power,
        base_load=spec.base_load,
        cost=spec.cost,
        weights=np.array([1.0 - m, m]),
    )


def certify_profile(check, label, spec, profile, tol, status_ok=True) -> None:
    """Recompute the gap of a returned profile and record the verdict."""
    gap = cg.vi_gap(spec, profile)
    if not cg.check_wardrop(spec, profile, eps=tol).passed:
        check.wardrop_fail += 1
    if not status_ok:
        if gap <= tol:
            check.fail(f"{label}: uncertified status but recomputed gap {gap:.3e}")
        return
    if gap <= tol:
        check.certified += 1
    else:
        check.fail(f"{label}: recomputed vi_gap {gap:.3e} > {tol:g}")


def three_slot_profile(m: float, x1: float, x0: float) -> cg.Profile:
    return cg.Profile(
        (cg.Flow(np.array([x0, 1.0 - m - x0]), 1.0 - m), cg.Flow(np.array([x1, m - x1]), m))
    )


def point_key(p) -> tuple:
    return (p.m, p.x1, p.x0, p.cost_individuals, p.cost_coalition, p.cost_social,
            p.regime, p.gap, p.status, p.error)


# --- night-sweep -------------------------------------------------------------
# Why: the shipped night game, where the dynamics do almost all the work and
# the closed form none.  The degenerate shipped point M=0.5 (a tie on a
# zero-weight strategy) needs ~100k iterations; the seeded 20-point grid
# ~14k.  Per-iteration wins show in the rounds, iteration-count wins in
# dynamics.iterations.


class NightSweep:
    name = "night-sweep"
    config = os.path.join(CONFIGS, "night_charging.json")
    # 20 solves per round: enough for a tail.
    grid_points = 20
    # Grid points are drawn outside (0.40, 0.60): iteration counts grow like
    # 1/|M - 0.5| there, so a draw next to the tie would swing the round's
    # cost with the seed.  The shipped M=0.5 point covers the tie itself.
    grid_ranges = ((0.04, 0.40), (0.60, 1.0))

    def setup(self, seed: int) -> dict:
        with open(self.config) as handle:
            raw = json.load(handle)
        resolved = cli.resolve_config(raw, CONFIGS)
        spec = cli.build_game(resolved)
        solver = resolved["solver"]
        options = {
            "max_iter": int(solver["max_iter"]),
            "gap_tol": float(solver["gap_tol"]),
            "step_size": float(solver["step_size"]),
        }
        rng = np.random.default_rng([seed, 1])
        return {"spec": spec, "options": options, "grid": stratified_grid(
            rng, self.grid_ranges, self.grid_points)}

    def describe(self, inputs) -> dict:
        return {"grid": inputs["grid"], "options": inputs["options"],
                "base_load": inputs["spec"].base_load, "weights": inputs["spec"].weights}

    def run_once(self, inputs):
        """The shipped point, solved once per run before the rounds: one
        5-10 s solve spans many machine-speed changes, so its time is too
        noisy to be a round's, and it is reported beside the metrics."""
        return cg.solve_dynamics(inputs["spec"], **inputs["options"])

    def run_round(self, inputs, out_dir, mark):
        spec, options, grid = inputs["spec"], inputs["options"], inputs["grid"]
        t0 = perf_counter()
        sweep = cg.run_sweep(spec, grid, solver="dynamics",
                             audit_tol=DYNAMICS_AUDIT_TOL, **options)
        per_point = (perf_counter() - t0) / len(grid)
        return [[per_point] * len(grid)], sweep

    def same(self, a, b) -> bool:
        return [point_key(p) for p in a.points] == [point_key(p) for p in b.points]

    def check(self, inputs, sweep, report=None) -> Check:
        spec, options = inputs["spec"], inputs["options"]
        tol = options["gap_tol"]
        check = Check()
        check.notes["shipped_point_iterations"] = report.iterations
        shipped = Check()
        certify_profile(shipped, "M=0.5", spec, report.profile, tol,
                        report.status is cg.SolverStatus.CONVERGED)
        check.once_certified = shipped.certified
        check.failures += shipped.failures
        check.wardrop_fail += shipped.wardrop_fail
        failed_audits = [n for n, v in sweep.audits.items() if not v.passed]
        if failed_audits:
            check.fail(f"sweep audits failed: {failed_audits}")
        peak = cg.peak_start_slot(spec)
        for point in sweep.points:
            label = f"M={point.m:.4f}"
            if point.error is not None:
                check.fail(f"{label}: {point.error}")
                continue
            # The sweep returns no profile: re-solve the point and require
            # the same peak weights, then certify that profile.
            at = spec_at(spec, point.m)
            again = cg.solve_dynamics(at, **options)
            rows = again.profile.matrix()
            if (rows[1, peak], rows[0, peak]) != (point.x1, point.x0):
                check.fail(f"{label}: re-solve disagrees with the sweep point")
                continue
            certify_profile(check, label, at, again.profile, tol,
                            point.status == cg.SolverStatus.CONVERGED.value)
        return check


def stratified_grid(rng, ranges, count: int) -> np.ndarray:
    """One uniform draw per equal-width stratum over the union of ranges,
    in increasing order."""
    points = []
    for offset in np.sort(strata(rng, count)) * sum(hi - lo for lo, hi in ranges):
        for lo, hi in ranges:
            if offset <= hi - lo:
                points.append(lo + offset)
                break
            offset -= hi - lo
    return np.array(points)


# --- threeslot-audit ---------------------------------------------------------
# Why: the closed form and report certification (solve_ce, bisection,
# make_report) with no dynamics at all.  Instances are drawn like the
# acceptance tests' random three-slot instances, so all four regimes occur;
# the coalition size is overridden by the sweep grid.


class ThreeSlotAudit:
    name = "threeslot-audit"
    instances = 30

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng([seed, 2])
        per_family = self.instances // 3
        insts = []
        for family in ("linear", "quadratic", "exponential"):
            gaps, params = strata(rng, per_family), strata(rng, per_family)
            insts += [random_three_slot(rng, family, g, p) for g, p in zip(gaps, params)]
        return {"instances": insts, "grid": cg.default_grid()}

    def describe(self, inputs) -> dict:
        return {"instances": [
            [i.peak_load, i.mid_load, i.offpeak_load, i.coalition_size, i.cost]
            for i in inputs["instances"]], "grid": inputs["grid"]}

    def run_round(self, inputs, out_dir, mark):
        grid = inputs["grid"]
        phases, outputs = [], []
        for inst in inputs["instances"]:
            if phases:
                mark()
            t0 = perf_counter()
            result = cg.run_sweep(inst, grid, audit_tol=ANALYTIC_TOL)
            rows = cg.sweep_rows(result)
            elapsed = perf_counter() - t0
            phases.append([elapsed / len(grid)] * len(grid))
            outputs.append((result, rows))
        return phases, outputs

    def same(self, a, b) -> bool:
        return all(
            [point_key(p) for p in ra.points] == [point_key(p) for p in rb.points]
            and rows_a == rows_b
            for (ra, rows_a), (rb, rows_b) in zip(a, b)
        )

    def check(self, inputs, outputs, once=None) -> Check:
        check = Check()
        regimes = {}
        for k, (inst, (result, rows)) in enumerate(zip(inputs["instances"], outputs)):
            # The acceptance tests hold random instances to the monotone
            # audits only; per-branch concavity is pinned on fixed shapes.
            failed = [n for n, v in result.audits.items()
                      if not v.passed and n != "x1_concave_per_branch"]
            if failed:
                check.fail(f"instance {k}: audits failed: {failed}")
            if len(rows) != len(result.points):
                check.fail(f"instance {k}: sweep_rows lost rows")
            for point in result.points:
                label = f"instance {k} M={point.m:.2f}"
                if point.error is not None:
                    check.fail(f"{label}: {point.error}")
                    continue
                regimes[point.regime] = regimes.get(point.regime, 0) + 1
                at = cg.with_coalition_size(inst, point.m)
                certify_profile(check, label, at.to_game_spec(),
                                three_slot_profile(point.m, point.x1, point.x0),
                                ANALYTIC_TOL, point.status == "analytic")
        check.notes["regimes"] = dict(sorted(regimes.items()))
        return check


def strata(rng, count: int) -> np.ndarray:
    """One uniform draw in each of ``count`` equal strata of [0, 1), shuffled."""
    return (rng.permutation(count) + rng.random(count)) / count


def random_three_slot(rng, family: str, u_gap: float, u_param: float) -> cg.ThreeSlotInstance:
    """Loads distributed as two sorted U(0, 3) outer loads and a U(0, 3)
    middle one, as the acceptance tests draw them, but with the outer gap
    taken from the quantile ``u_gap``: the gap decides the regimes, so
    stratifying it keeps each seed's regime mix, and so its bisection
    work, within a few percent."""
    gap = 3.0 * (1.0 - math.sqrt(1.0 - u_gap))
    offpeak = rng.uniform(0.0, 3.0 - gap)
    if family == "linear":
        cost = cg.LinearCost(slope=0.5 + 1.5 * u_param, intercept=rng.uniform(0.0, 1.0))
    elif family == "quadratic":
        cost = cg.QuadraticCost()
    else:
        cost = cg.ExponentialCost(rate=0.3 + 1.2 * u_param)
    return cg.ThreeSlotInstance(
        peak_load=offpeak + gap,
        mid_load=rng.uniform(0.0, 3.0),
        offpeak_load=offpeak,
        coalition_size=0.5,
        cost=cost,
    )


# --- mixed-dynamics ----------------------------------------------------------
# Why: the dynamics layer used differently from night-sweep: many short
# independent solves on tiny arrays, where per-call overhead and the
# per-coalition loop dominate, with nonlinear cost families.  A change that
# helps one long linear sweep but hurts short nonlinear solves shows here.


class MixedDynamics:
    name = "mixed-dynamics"
    gap_tol = 1e-6
    max_iter = 3000
    # Games come from a fixed pool of random designs (T 3..8, every
    # duration, 1-3 coalitions, the three families); the seed jitters each
    # design's loads, power and weights by up to 1%.  At twice that jitter,
    # for the nominal design and four jitters alike, the 18 designs listed
    # first converge within 0.6 * max_iter, their iteration counts varying
    # by at most +-25%, and the last 6 need more than 1.9 * max_iter.  So
    # neither the certified share nor the order of solve times hinges on the
    # seed; fresh random games per seed move the certified share by +-0.1.
    # Each design is jittered twice: 48 solves put the tail (10 solves
    # beyond it) among the stalled games, not at the median.
    design_seed = 2015
    designs = (3, 6, 7, 11, 16, 21, 28, 30, 31, 33, 35, 39, 44, 50, 51, 53, 54, 56,
               0, 4, 5, 8, 12, 25)
    copies = 2
    jitter = 0.01

    def setup(self, seed: int) -> dict:
        specs = []
        for index in self.designs:
            design = random_game(np.random.default_rng([self.design_seed, index]), index)
            specs += [jittered(design, np.random.default_rng([seed, 3, index, copy]), self.jitter)
                      for copy in range(self.copies)]
        return {"specs": specs}

    def describe(self, inputs) -> dict:
        return {"specs": [[s.horizon, s.duration, s.power, s.base_load, s.cost, s.weights]
                          for s in inputs["specs"]]}

    def run_round(self, inputs, out_dir, mark):
        phases, outputs = [], []
        for spec in inputs["specs"]:
            if phases:
                mark()
            t0 = perf_counter()
            try:
                out = cg.solve_dynamics(spec, gap_tol=self.gap_tol, max_iter=self.max_iter)
            except cg.ChargeGameError as exc:
                out = exc
            phases.append([perf_counter() - t0])
            outputs.append(out)
        return phases, outputs

    def same(self, a, b) -> bool:
        def key(r):
            if isinstance(r, Exception):
                return repr(r)
            return (r.iterations, r.vi_gap, r.status, r.profile.matrix().tobytes())
        return [key(r) for r in a] == [key(r) for r in b]

    def check(self, inputs, outputs, once=None) -> Check:
        check = Check()
        capped = 0
        for k, (spec, report) in enumerate(zip(inputs["specs"], outputs)):
            if isinstance(report, Exception):
                check.fail(f"game {k}: raised {report!r}")
                continue
            converged = report.status is cg.SolverStatus.CONVERGED
            capped += not converged
            certify_profile(check, f"game {k}", spec, report.profile, self.gap_tol, converged)
        check.notes["max_iter_hits"] = capped
        return check


def jittered(spec: cg.GameSpec, rng, rel: float) -> cg.GameSpec:
    """``spec`` with loads, power and weights scaled by factors in 1 +- rel."""
    weights = spec.weights * (1.0 + rel * rng.uniform(-1.0, 1.0, spec.num_players))
    return cg.GameSpec(
        horizon=spec.horizon,
        duration=spec.duration,
        power=spec.power * (1.0 + rel * rng.uniform(-1.0, 1.0)),
        base_load=spec.base_load * (1.0 + rel * rng.uniform(-1.0, 1.0, spec.horizon)),
        cost=spec.cost,
        weights=weights / weights.sum(),
    )


def random_cost(rng, family: str) -> cg.CostFunction:
    if family == "linear":
        return cg.LinearCost(slope=rng.uniform(0.5, 2.0), intercept=rng.uniform(0.0, 1.0))
    if family == "quadratic":
        return cg.QuadraticCost()
    return cg.ExponentialCost(rate=rng.uniform(0.3, 1.5))


def random_game(rng, index: int) -> cg.GameSpec:
    """A small game: T in 3..8, 1..3 coalitions, the three families in turn."""
    family = ("linear", "quadratic", "exponential")[index % 3]
    coalitions = 1 + (index // 3) % 3
    horizon = int(rng.integers(3, 9))
    duration = int(rng.integers(1, horizon))
    return cg.GameSpec(
        horizon=horizon,
        duration=duration,
        power=float(rng.uniform(0.2, 1.0)),
        base_load=rng.uniform(0.0, 1.5, size=horizon),
        cost=random_cost(rng, family),
        weights=rng.dirichlet(np.ones(coalitions + 1)),
    )


# --- cli-configs -------------------------------------------------------------
# Why: process start, import, config ingestion and artifact emission
# dominate each command and solver work is small.  The night solve runs in
# night-sweep, so here it only has --print-config.


class CliConfigs:
    name = "cli-configs"
    configs = ("three_slot_solve.json", "three_slot_gap_sweep.json",
               "three_slot_quadratic_sweep.json", "night_charging.json")
    traced_command = None  # set to the traced CLI launcher in a traced run

    def setup(self, seed: int) -> dict:
        resolved = {}
        for name in self.configs:
            with open(os.path.join(CONFIGS, name)) as handle:
                raw = json.load(handle)
            resolved[name] = cli.resolve_config(raw, CONFIGS)
            cli.build_game(resolved[name])
        producers = [
            ("solve", ["solve", "--config", "three_slot_solve.json"]),
            ("sweep-gap", ["sweep", "--config", "three_slot_gap_sweep.json"]),
            ("sweep-quadratic", ["sweep", "--config", "three_slot_quadratic_sweep.json"]),
            ("dynamics-trace", ["dynamics-trace", "--config", "three_slot_solve.json"]),
        ] + [(f"print-config-{name[:-5]}", ["solve", "--config", name, "--print-config"])
             for name in self.configs]
        verifiers = [("verify-solve", "solve"), ("verify-dynamics-trace", "dynamics-trace")]
        rng = np.random.default_rng([seed, 4])
        # The seed fixes the command order; each verify runs after its report.
        order = [producers[i] for i in rng.permutation(len(producers))]
        order += [verifiers[i] for i in rng.permutation(len(verifiers))]
        return {"commands": order, "resolved": resolved}

    def describe(self, inputs) -> dict:
        return {"commands": inputs["commands"]}

    def argv(self, command, out_dir):
        label, spec = command
        if isinstance(spec, str):
            return label, ["verify", "--report", os.path.join(out_dir, spec, "report.json")]
        args = [a if not a.endswith(".json") else os.path.join(CONFIGS, a) for a in spec]
        if "--print-config" not in args:
            args += ["--out", os.path.join(out_dir, label)]
        return label, args

    def run_round(self, inputs, out_dir, mark):
        """Two passes over the command list, each into its own directory, so
        every round can compare the artifacts of two invocations."""
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        launcher = self.traced_command or [sys.executable, "-m", "chargegame.cli"]
        phases, passes = [], []
        for name in ("a", "b"):
            pass_dir, outputs = os.path.join(out_dir, name), {}
            for command in inputs["commands"]:
                if phases:
                    mark()
                label, args = self.argv(command, pass_dir)
                t0 = perf_counter()
                proc = subprocess.run(launcher + args, cwd=ROOT, env=env,
                                      capture_output=True, timeout=120)
                phases.append([perf_counter() - t0])
                outputs[label] = {"code": proc.returncode, "stdout": proc.stdout,
                                  "stderr": proc.stderr, "files": read_files(pass_dir, label)}
            passes.append(outputs)
        return phases, passes

    def same(self, a, b) -> bool:
        return all(same_artifacts(x[label], y[label], label)
                   for x, y in zip(a, b) for label in x)

    def check(self, inputs, passes, once=None) -> Check:
        check = Check()
        first, second = passes
        for label, out in first.items():
            before = len(check.failures)
            if not same_artifacts(out, second[label], label):
                check.fail(f"{label}: artifacts differ between two invocations")
            if out["code"] != cli.EXIT_OK:
                check.fail(f"{label}: exit code {out['code']}, expected {cli.EXIT_OK}: "
                           f"{out['stderr'].decode(errors='replace').strip()}")
                continue
            certified = check.certified
            if label.startswith("print-config"):
                self._check_print_config(check, label, out, inputs)
            elif label.startswith("verify"):
                if b"verdict: equilibrium certified" not in out["stdout"]:
                    check.fail(f"{label}: report not certified")
            elif label.startswith("sweep"):
                self._check_sweep(check, label, out, inputs)
            else:
                self._check_report(check, label, out, inputs)
            # A command counts as one solve, certified when every point it
            # returned recomputes within tolerance; its second invocation
            # shares the verdict, having produced the same bytes.
            check.certified = certified + 2 * (len(check.failures) == before)
        return check

    def _check_print_config(self, check, label, out, inputs) -> None:
        shown = json.loads(out["stdout"])
        name = label[len("print-config-"):] + ".json"
        if shown["load_profile"] != [float(f"{x:.12g}") for x in
                                     inputs["resolved"][name]["load_profile"]]:
            check.fail(f"{label}: printed load profile differs from the config")

    def _check_report(self, check, label, out, inputs) -> None:
        data = json.loads(out["files"]["report.json"])
        spec, profile, stored = cli.report_from_dict(data)
        tol = (ANALYTIC_TOL if stored["status"] == "analytic"
               else float(inputs["resolved"]["three_slot_solve.json"]["solver"]["gap_tol"]))
        ok = stored["status"] in ("analytic", "converged")
        sub = Check()
        certify_profile(sub, label, spec, profile, tol, ok)
        check.failures += sub.failures
        check.wardrop_fail += sub.wardrop_fail
        if not ok:
            check.fail(f"{label}: status {stored['status']}")

    def _check_sweep(self, check, label, out, inputs) -> None:
        audits = json.loads(out["files"]["sweep_audits.json"])["audits"]
        failed = [n for n, v in audits.items() if not v["passed"]]
        if failed:
            check.fail(f"{label}: audits failed: {failed}")
        config = f"three_slot_{label[len('sweep-'):]}_sweep.json"
        spec = cli.build_game(inputs["resolved"][config])
        lines = out["files"]["sweep.csv"].decode().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            m, x1, x0 = float(row["m"]), float(row["x1"]), float(row["x0"])
            if row["status"] != "analytic":
                check.fail(f"{label} M={m}: status {row['status']}")
                continue
            if label == "sweep-gap" and abs(x1 - max(0.0, (m - 0.3) / 4.0)) > ANALYTIC_TOL:
                check.fail(f"{label} M={m}: x1={x1} off the closed form (M-0.3)/4")
            sub = Check()
            certify_profile(sub, f"{label} M={m}", spec_at(spec, m),
                            three_slot_profile(m, x1, x0), ANALYTIC_TOL)
            check.failures += sub.failures
            check.wardrop_fail += sub.wardrop_fail


def same_artifacts(out, other, label="") -> bool:
    """Same exit code and byte-identical files.  Solve-type stdout names the
    output directory, which differs per invocation, so only verify and
    print-config stdout is compared."""
    if out["code"] != other["code"] or out["files"] != other["files"]:
        return False
    return not label.startswith(("verify", "print-config")) or out["stdout"] == other["stdout"]


def read_files(out_dir: str, label: str) -> dict:
    path = os.path.join(out_dir, label)
    if not os.path.isdir(path):
        return {}
    files = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            files[name] = handle.read()
    return files


WORKLOADS = {w.name: w for w in (NightSweep(), ThreeSlotAudit(), MixedDynamics(), CliConfigs())}
