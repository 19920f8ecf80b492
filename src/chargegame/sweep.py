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
from itertools import repeat
from operator import eq
from typing import NamedTuple

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
from .verify import EquilibriumReport, SolverStatus, _finite, _gaps, make_report, vi_gap

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


class SweepPoint(NamedTuple):
    """One grid record: equilibrium weights and costs at coalition size m.

    An immutable named tuple: its fields can be read by name or unpacked
    in order.  ``x1`` and ``x0`` are the coalition's and the individuals'
    weight on the peak (a-priori most expensive) start slot.  Costs are
    reduced for three-slot games.  Solver failures land in ``error`` with
    NaN values instead of aborting the sweep.
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


# Sign that turns an adjacent difference into its excess over a direction.
_DIRECTIONS = {"nondecreasing": -1.0, "nonincreasing": 1.0}


def audit_monotone(values, direction: str, tol: float = DEFAULT_AUDIT_TOL) -> AuditVerdict:
    """Check adjacent differences against a direction within tol."""
    if direction not in _DIRECTIONS:
        raise SpecError(f"unknown direction {direction!r}")
    values = np.asarray(values, dtype=float)
    return _monotone(values[None, :], [[_DIRECTIONS[direction]]], tol)[0]


def audit_concave(values, tol: float = DEFAULT_AUDIT_TOL) -> AuditVerdict:
    """Check second differences on a uniform grid stay below tol."""
    values = np.asarray(values, dtype=float)
    if len(values) < 3:
        return AuditVerdict(passed=True, worst_value=0.0)
    return _worst(_second_differences(values), 2, tol)


def audit_concave_branches(
    values, tags, tol: float = DEFAULT_AUDIT_TOL
) -> AuditVerdict:
    """Concavity audit applied separately to each run of equal regime tags.

    The closed-form peak weight can kink convexly exactly where the regime
    changes, so the concavity claim is checked per branch: only second
    differences whose three points share a tag count.  A NaN among them
    fails the audit.
    """
    values = np.asarray(values, dtype=float)
    tags = list(tags)
    if len(values) != len(tags):
        raise SpecError("values and tags must align")
    clean = AuditVerdict(passed=True, worst_value=0.0, note="per-branch")
    if len(values) < 3:
        return clean
    same = np.fromiter(map(eq, tags, tags[1:]), dtype=bool, count=len(tags) - 1)
    second = np.where(same[1:] & same[:-1], _second_differences(values), -math.inf)
    verdict = _worst(second, 2, tol, note="per-branch")
    if verdict.worst_value == -math.inf:  # no branch of three points
        return clean
    return verdict


def _monotone(series: np.ndarray, signs, tol: float) -> list[AuditVerdict]:
    """:func:`audit_monotone` of every row of ``series`` at once, each
    row's direction given by its sign in the column ``signs``."""
    if series.shape[1] < 2:
        return [AuditVerdict(passed=True, worst_value=0.0)] * len(series)
    adverse = np.diff(series) * signs
    worst = np.argmax(adverse, axis=1)
    values = adverse[np.arange(len(series)), worst]
    return [
        AuditVerdict(passed=value <= tol, worst_value=value, worst_pair=(i, i + 1))
        for i, value in zip(worst.tolist(), values.tolist())
    ]


def _second_differences(values: np.ndarray) -> np.ndarray:
    return values[2:] - 2.0 * values[1:-1] + values[:-2]


def _worst(adverse: np.ndarray, span: int, tol: float, note: str = "") -> AuditVerdict:
    """Verdict on the largest entry of ``adverse`` (a NaN counts as the
    largest), entry i coming from grid points i and i + ``span``."""
    worst = int(np.argmax(adverse))
    value = float(adverse[worst])
    return AuditVerdict(
        passed=value <= tol, worst_value=value, worst_pair=(worst, worst + span), note=note
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
    # Negated comparisons, so that a NaN fails them.
    if not (grid.min() > 0.0 and grid.max() <= 1.0):
        raise SpecError("sweep grid values must lie in (0, 1]")
    if grid.size > 1 and not np.diff(grid).min() > 0:
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
    gaps = _finite(_gaps(weights, rows, kernel(rows), spec.num_players))
    regimes = (_regime(gapped, False).value, _regime(gapped, True).value)
    social, individuals, coalition = costs
    columns = (values.tolist() for values in (sizes, x1, x0, individuals, coalition, social))
    names = map(regimes.__getitem__, split.tolist())
    status = repeat(SolverStatus.ANALYTIC.value)
    return list(map(SweepPoint._make, zip(*columns, names, gaps, status, repeat(None))))


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


# The monotone audits, each named "<point field>_<direction>".
_MONOTONE_AUDITS = (
    ("x1", "nondecreasing"),
    ("x0", "nonincreasing"),
    ("cost_individuals", "nonincreasing"),
    ("cost_coalition", "nonincreasing"),
    ("cost_social", "nonincreasing"),
)


def _run_audits(points, solver: str, tol: float) -> dict[str, AuditVerdict]:
    columns = dict(zip(SweepPoint._fields, zip(*points)))
    failed = len(points) - columns["error"].count(None)
    if failed:
        note = f"{failed} grid points failed; audits skipped"
        return {"solver_failures": AuditVerdict(False, math.inf, note=note)}
    series = np.array([columns[field] for field, _ in _MONOTONE_AUDITS], dtype=float)
    signs = [[_DIRECTIONS[direction]] for _, direction in _MONOTONE_AUDITS]
    audits = {
        f"{field}_{direction}": verdict
        for (field, direction), verdict in zip(_MONOTONE_AUDITS, _monotone(series, signs, tol))
    }
    if solver == "analytic":
        audits["x1_concave_per_branch"] = audit_concave_branches(
            series[0], columns["regime"], tol  # x1
        )
    return audits


def sweep_rows(result: SweepResult) -> list[dict]:
    """Flat row dicts for CSV emission, with costs normalized by the
    social cost at the smallest grid coalition size."""
    base_social = next(
        (p.cost_social for p in result.points if p.error is None), float("nan")
    )
    scale = base_social if base_social and not math.isnan(base_social) else float("nan")
    return [
        {
            "m": m,
            "x1": x1,
            "x0": x0,
            "cost_individuals": individuals,
            "cost_coalition": coalition,
            "cost_social": social,
            "norm_cost_individuals": individuals / scale,
            "norm_cost_coalition": coalition / scale,
            "norm_cost_social": social / scale,
            "regime": regime or "",
            "status": status if error is None else f"error: {error}",
        }
        for m, x1, x0, individuals, coalition, social, regime, _, status, error in result.points
    ]


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
