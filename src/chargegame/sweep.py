"""Equilibrium solves by method, and coalition-size sweeps with audits.

Sweeps re-solve the same game over a grid of coalition sizes M, recording
the peak-alternative weights and the entity costs at each equilibrium and
auditing how they vary: the coalition's peak weight should not decrease
with M, the individuals' should not increase, and all entity costs should
not increase.  Concavity of the coalition's peak weight is audited per
regime branch, because the closed form is allowed to kink convexly where a
regime boundary is crossed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    DEFAULT_GAP_TOL,
    DEFAULT_MAX_ITER,
    StepSize,
    _solve_batch,
    default_step_schedule,
    solve_dynamics,
)
from .errors import ChargeGameError, SpecError
from .model import GameSpec, _gradient_kernel, _onto_masses, _unit_weights, _window_sum
from .threeslot import (
    ThreeSlotInstance,
    _grid_costs,
    _grid_solution,
    _regime,
    equilibrium_profile,
    instance_from_spec,
)
from .verify import EquilibriumReport, SolverStatus, _finite_gap, _gaps, make_report, vi_gap

DEFAULT_GRID_SIZE = 101
DEFAULT_GRID_START = 0.01
DEFAULT_GRID_STOP = 1.0
DEFAULT_AUDIT_TOL = 1e-9
METHODS = ("auto", "analytic", "dynamics")


def default_grid(
    count: int = DEFAULT_GRID_SIZE,
    start: float = DEFAULT_GRID_START,
    stop: float = DEFAULT_GRID_STOP,
) -> np.ndarray:
    """Uniform grid of coalition sizes; M = 0 is approached, never hit."""
    return np.linspace(start, stop, count)


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One grid record: equilibrium weights and costs at coalition size m.

    ``x1`` and ``x0`` are the coalition's and the individuals' weight on
    the peak (a-priori most expensive) start slot.  Costs are reduced for
    three-slot games.  Solver failures land in ``error`` with NaN values
    instead of aborting the sweep.
    """

    m: float
    x1: float
    x0: float
    cost_individuals: float
    cost_coalition: float
    cost_social: float
    regime: str | None
    gap: float
    status: str
    error: str | None = None


@dataclass(frozen=True)
class AuditVerdict:
    """Result of one monotonicity/concavity audit.

    ``worst_value`` is the most adverse difference observed (negative or
    tiny means clean); ``worst_pair`` gives the grid indices it came from.
    """

    passed: bool
    worst_value: float
    worst_pair: tuple[int, int] | None = None
    note: str = ""


@dataclass(frozen=True)
class SweepResult:
    grid: np.ndarray
    points: tuple[SweepPoint, ...]
    audits: dict[str, AuditVerdict]
    solver: str


def peak_start_slot(spec: GameSpec) -> int:
    """Start slot with the largest non-EV load over its charging window."""
    return int(np.argmax(_window_sum(spec, spec.base_load)))


def audit_monotone(values, direction: str, tol: float = DEFAULT_AUDIT_TOL) -> AuditVerdict:
    """Check adjacent differences against a direction within tol."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        return AuditVerdict(passed=True, worst_value=0.0)
    diffs = np.diff(values)
    if direction == "nondecreasing":
        adverse = -diffs
    elif direction == "nonincreasing":
        adverse = diffs
    else:
        raise SpecError(f"unknown direction {direction!r}")
    worst = int(np.argmax(adverse))
    worst_value = float(adverse[worst])
    return AuditVerdict(
        passed=worst_value <= tol,
        worst_value=worst_value,
        worst_pair=(worst, worst + 1),
    )


def audit_concave(values, tol: float = DEFAULT_AUDIT_TOL) -> AuditVerdict:
    """Check second differences on a uniform grid stay below tol."""
    values = np.asarray(values, dtype=float)
    if len(values) < 3:
        return AuditVerdict(passed=True, worst_value=0.0)
    second = values[2:] - 2.0 * values[1:-1] + values[:-2]
    worst = int(np.argmax(second))
    worst_value = float(second[worst])
    return AuditVerdict(
        passed=worst_value <= tol,
        worst_value=worst_value,
        worst_pair=(worst, worst + 2),
    )


def audit_concave_branches(
    values, tags, tol: float = DEFAULT_AUDIT_TOL
) -> AuditVerdict:
    """Concavity audit applied separately to each run of equal regime tags.

    The closed-form peak weight can kink convexly exactly where the regime
    changes, so the concavity claim is checked per branch.
    """
    values = np.asarray(values, dtype=float)
    tags = list(tags)
    if len(values) != len(tags):
        raise SpecError("values and tags must align")
    worst_value = -math.inf
    worst_pair = None
    start = 0
    for i in range(1, len(tags) + 1):
        if i < len(tags) and tags[i] == tags[start]:
            continue
        branch = audit_concave(values[start:i], tol)
        if branch.worst_value > worst_value:
            worst_value = branch.worst_value
            if branch.worst_pair is not None:
                worst_pair = (start + branch.worst_pair[0], start + branch.worst_pair[1])
        start = i
    if worst_pair is None:
        return AuditVerdict(passed=True, worst_value=0.0, note="per-branch")
    return AuditVerdict(
        passed=worst_value <= tol,
        worst_value=worst_value,
        worst_pair=worst_pair,
        note="per-branch",
    )


def _method(method: str, spec: GameSpec, coalition_size: float) -> str:
    """``method`` of :data:`METHODS`, with "auto" read as "analytic" exactly
    when the closed form's gate accepts ``spec`` at ``coalition_size``."""
    if method not in METHODS:
        raise SpecError(f"unknown solver {method!r}; expected one of {'/'.join(METHODS)}")
    if method != "auto":
        return method
    try:
        instance_from_spec(spec, coalition_size)
    except SpecError:
        return "dynamics"
    return "analytic"


def solve(spec: GameSpec, method: str = "auto", **options) -> EquilibriumReport:
    """One equilibrium of ``spec`` by ``method``: "analytic" (the closed
    form with its vi_gap, for a game that :func:`instance_from_spec`
    accepts; a game outside raises its SpecError), "dynamics"
    (:func:`solve_dynamics` with ``options``) or "auto", which is
    "analytic" exactly when that gate accepts the game.  A solver error is
    raised, never answered by the other method."""
    # The gate refuses any coalition count but one before it reads the size.
    size = float(spec.weights[-1])
    if _method(method, spec, size) == "dynamics":
        return solve_dynamics(spec, **options)
    inst = instance_from_spec(spec, size)
    profile = equilibrium_profile(inst)
    return make_report(spec, profile, SolverStatus.ANALYTIC, gap=vi_gap(spec, profile))


def run_sweep(
    base: ThreeSlotInstance | GameSpec,
    grid=None,
    solver: str = "analytic",
    *,
    audit_tol: float = DEFAULT_AUDIT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    gap_tol: float = DEFAULT_GAP_TOL,
    step_size: StepSize = default_step_schedule,
) -> SweepResult:
    """Solve the equilibrium at every grid coalition size and audit it.

    ``base`` fixes the loads, duration and cost family; the weights become
    (1 - m, m) at each grid point.  A :class:`ThreeSlotInstance` base is
    read as its GameSpec (``to_game_spec``), so its own coalition size is
    ignored.  The game must have exactly one coalition.  ``solver`` is a
    method of :func:`solve`, with "auto" decided once for the grid, and
    the result's ``solver`` names the method that ran.  Either solves the
    whole grid at once, and each point equals a solve of its own game bit for
    bit: the closed form runs as one array computation, and its points are
    certified as one stack of games, each equal to
    :func:`~chargegame.threeslot.solve_ce`, ``ce_costs`` and ``vi_gap`` of
    the point alone; the dynamics run as one batch, each point leaving it
    once its gap reaches ``gap_tol`` or ``max_iter`` is hit, and each equal
    to a separate :func:`~chargegame.dynamics.solve_dynamics` run.  Points
    are ordered by m, and a point whose solve fails, or whose certificate
    is not finite, carries its own error.
    """
    if isinstance(base, ThreeSlotInstance):
        base = base.to_game_spec()
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise SpecError("sweep grid must be a nonempty vector")
    if grid.min() <= 0.0 or grid.max() > 1.0:
        raise SpecError("sweep grid values must lie in (0, 1]")
    if grid.size > 1 and np.diff(grid).min() <= 0:
        raise SpecError("sweep grid must be strictly increasing")

    solver = _method(solver, base, float(grid[0]))
    if base.num_coalitions != 1:
        raise SpecError("sweeps require a game shape with exactly one coalition")

    if solver == "analytic":
        points = _analytic_points(base, grid)
    else:
        points = _dynamics_points(
            base, [float(m) for m in grid], max_iter=max_iter, gap_tol=gap_tol, step_size=step_size
        )
    audits = _run_audits(points, solver, audit_tol)
    return SweepResult(grid=grid, points=tuple(points), audits=audits, solver=solver)


def _analytic_points(spec: GameSpec, grid: np.ndarray) -> list[SweepPoint]:
    # The grid lies in (0, 1], so the gate decides on the game's shape alone.
    inst = instance_from_spec(spec, float(grid[0]))
    return _isolated(lambda sizes: _certified_points(inst, spec, sizes), grid)


def _isolated(stage, grid: np.ndarray) -> list[SweepPoint]:
    """``stage`` on the whole grid, or on each point alone once it raises.

    ``stage`` returns one SweepPoint per coalition size.  When the
    whole-grid call raises a ChargeGameError, every point is run alone, so
    each carries its own record or the error that ends it by itself.
    """
    try:
        return stage(grid)
    except ChargeGameError as exc:
        if len(grid) == 1:
            return [_error_point(float(grid[0]), exc)]
    return [point for i in range(len(grid)) for point in _isolated(stage, grid[i : i + 1])]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _certified_points(
    inst: ThreeSlotInstance, spec: GameSpec, sizes: np.ndarray
) -> list[SweepPoint]:
    """Sweep records of the closed form of ``inst``, the instance of
    ``spec``, at coalition sizes ``sizes``: the solution, its reduced costs
    and its vi_gap, each for all points at once.

    The gap is the certificate ``vi_gap`` gives the point's game and
    ``equilibrium_profile``, from one stack of those games: the rows and
    masses are normalized as Flow and GameSpec normalize them, and the
    cost family is the spec's, so its domain checks apply.  A point that
    cannot be solved, or whose gap is not finite, raises its
    ChargeGameError, so the caller isolates it.
    """
    gapped, x1, x0, split = _grid_solution(inst, sizes)
    costs = _grid_costs(inst, sizes, x1, split)
    masses = np.concatenate((1.0 - sizes, sizes))[:, None]  # player-major
    rows = np.concatenate(
        (np.stack((x0, 1.0 - sizes - x0), axis=1), np.stack((x1, sizes - x1), axis=1))
    )
    rows, _ = _onto_masses(rows, masses)
    weights = _unit_weights(np.stack((1.0 - sizes, sizes), axis=1)).T.ravel()
    kernel = _gradient_kernel(spec, weights)
    gaps = _gaps(weights, rows, kernel(rows), spec.num_players)
    regimes = [_regime(gapped, s).value for s in split.tolist()]
    return [
        SweepPoint(
            m=m,
            x1=a,
            x0=b,
            cost_individuals=individuals,
            cost_coalition=coalition,
            cost_social=social,
            regime=regime,
            gap=_finite_gap(gap),
            status=SolverStatus.ANALYTIC.value,
        )
        for m, a, b, social, individuals, coalition, regime, gap in zip(
            *(values.tolist() for values in (sizes, x1, x0, *costs)), regimes, gaps
        )
    ]


def _dynamics_points(spec: GameSpec, grid: list[float], **options) -> list[SweepPoint]:
    specs = [replace(spec, weights=np.array([1.0 - m, m])) for m in grid]
    peak = peak_start_slot(specs[0])
    points = []
    for m, report in zip(grid, _solve_batch(specs, **options)):
        if isinstance(report, ChargeGameError):
            points.append(_error_point(m, report))
            continue
        costs = report.reduced if report.reduced is not None else report.costs
        points.append(
            SweepPoint(
                m=m,
                x1=float(report.profile.flows[1].values[peak]),
                x0=float(report.profile.flows[0].values[peak]),
                cost_individuals=costs.individuals,
                cost_coalition=costs.coalitions[0],
                cost_social=costs.social,
                regime=None,
                gap=report.vi_gap,
                status=report.status.value,
            )
        )
    return points


def _error_point(m: float, exc: ChargeGameError) -> SweepPoint:
    nan = float("nan")
    return SweepPoint(
        m=m,
        x1=nan,
        x0=nan,
        cost_individuals=nan,
        cost_coalition=nan,
        cost_social=nan,
        regime=None,
        gap=nan,
        status="error",
        error=str(exc),
    )


def _run_audits(points, solver: str, tol: float) -> dict[str, AuditVerdict]:
    clean = [p for p in points if p.error is None]
    if len(clean) != len(points):
        note = f"{len(points) - len(clean)} grid points failed; audits skipped"
        return {"solver_failures": AuditVerdict(False, math.inf, note=note)}
    audits = {
        "x1_nondecreasing": audit_monotone([p.x1 for p in clean], "nondecreasing", tol),
        "x0_nonincreasing": audit_monotone([p.x0 for p in clean], "nonincreasing", tol),
        "cost_individuals_nonincreasing": audit_monotone(
            [p.cost_individuals for p in clean], "nonincreasing", tol
        ),
        "cost_coalition_nonincreasing": audit_monotone(
            [p.cost_coalition for p in clean], "nonincreasing", tol
        ),
        "cost_social_nonincreasing": audit_monotone(
            [p.cost_social for p in clean], "nonincreasing", tol
        ),
    }
    if solver == "analytic":
        audits["x1_concave_per_branch"] = audit_concave_branches(
            [p.x1 for p in clean], [p.regime for p in clean], tol
        )
    return audits


def sweep_rows(result: SweepResult) -> list[dict]:
    """Flat row dicts for CSV emission, with costs normalized by the
    social cost at the smallest grid coalition size."""
    base_social = next(
        (p.cost_social for p in result.points if p.error is None), float("nan")
    )
    rows = []
    for p in result.points:
        scale = base_social if base_social and not math.isnan(base_social) else float("nan")
        rows.append(
            {
                "m": p.m,
                "x1": p.x1,
                "x0": p.x0,
                "cost_individuals": p.cost_individuals,
                "cost_coalition": p.cost_coalition,
                "cost_social": p.cost_social,
                "norm_cost_individuals": p.cost_individuals / scale,
                "norm_cost_coalition": p.cost_coalition / scale,
                "norm_cost_social": p.cost_social / scale,
                "regime": p.regime or "",
                "status": p.status if p.error is None else f"error: {p.error}",
            }
        )
    return rows


def write_csv(result: SweepResult, path) -> None:
    rows = sweep_rows(result)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    key: f"{value:.12g}" if isinstance(value, float) else value
                    for key, value in row.items()
                }
            )


def audits_to_dict(result: SweepResult) -> dict:
    return {
        name: {
            "passed": verdict.passed,
            "worst_value": verdict.worst_value,
            "worst_pair": list(verdict.worst_pair) if verdict.worst_pair else None,
            "note": verdict.note,
        }
        for name, verdict in result.audits.items()
    }
