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
from itertools import repeat
from operator import eq
from typing import NamedTuple

import numpy as np

from .dynamics import (
    DEFAULT_GAP_TOL,
    DEFAULT_MAX_ITER,
    _check_options,
    _solve_batch,
    solve_dynamics,
)
from .errors import (
    ChargeGameError,
    SpecError,
    _finite,
    _is_integer,
    _is_number,
    _numbers,
    _quiet,
    _tolerance,
)
from .model import (
    GameSpec,
    _entity_costs,
    _gradient_kernel,
    _onto_masses,
    _reduced_costs,
    _window_sum,
)
from .threeslot import (
    ThreeSlotInstance,
    _grid_costs,
    _grid_solution,
    _regime,
    equilibrium_profile,
    instance_from_spec,
)
from .verify import EquilibriumReport, SolverStatus, _gaps, make_report

DEFAULT_GRID_SIZE = 101
DEFAULT_GRID_START = 0.01
DEFAULT_GRID_STOP = 1.0
DEFAULT_AUDIT_TOL = 1e-9
# Most grid points a sweep's default grid may have; a configured sweep's
# count is refused past it at ingestion, before any grid is built.
MAX_SWEEP_COUNT = 100_000
METHODS = ("auto", "analytic", "dynamics")


def default_grid(
    count: int = DEFAULT_GRID_SIZE,
    start: float = DEFAULT_GRID_START,
    stop: float = DEFAULT_GRID_STOP,
) -> np.ndarray:
    """Uniform grid of coalition sizes; M = 0 is approached, never hit.

    A ``count`` that is not a whole number in [1, :data:`MAX_SWEEP_COUNT`],
    or a ``start`` or ``stop`` that is not a finite number, raises a
    SpecError naming it.
    """
    if not (_is_integer(count, 1) and count <= MAX_SWEEP_COUNT):
        raise SpecError(f"grid count must be an integer in [1, {MAX_SWEEP_COUNT}], got {count!r}")
    for name, value in (("start", start), ("stop", stop)):
        if not _is_number(value):
            raise SpecError(f"grid {name} must be a finite number, got {value!r}")
    return np.linspace(start, stop, int(count))


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


class AuditVerdict(NamedTuple):
    """Result of one monotonicity/concavity audit.

    ``worst_value`` is the most adverse difference observed (negative or
    tiny means clean); ``worst_pair`` gives the grid indices it came from.
    """

    passed: bool
    worst_value: float
    worst_pair: tuple[int, int] | None = None
    note: str = ""


class SweepResult(NamedTuple):
    grid: np.ndarray
    points: tuple[SweepPoint, ...]
    audits: dict[str, AuditVerdict]
    solver: str


def peak_start_slot(spec: GameSpec) -> int:
    """Start slot with the largest non-EV load over its charging window."""
    return int(np.argmax(_window_sum(spec, spec.base_load)))


def _same_tags(tags) -> np.ndarray:
    """Whether each of the sequence ``tags`` equals the next one."""
    return np.fromiter(map(eq, tags, tags[1:]), dtype=bool, count=max(len(tags) - 1, 0))


def _concave_branches(values: np.ndarray, same: np.ndarray, tol: float) -> AuditVerdict:
    """Concavity audit of ``values`` within tol, applied separately to
    each run of equal regime tags, with ``same`` saying whether each tag
    equals the next one.

    The closed-form peak weight can kink convexly exactly where the regime
    changes, so the concavity claim is checked per branch: only second
    differences whose three points share a tag count.  A NaN among them
    fails the audit.
    """
    clean = AuditVerdict(passed=True, worst_value=0.0, note="per-branch")
    if len(values) < 3:
        return clean
    second = values[2:] - 2.0 * values[1:-1] + values[:-2]
    second = np.where(same[1:] & same[:-1], second, -math.inf)
    worst = int(np.argmax(second))  # a NaN counts as the largest
    value = float(second[worst])
    if value == -math.inf:  # no branch of three points
        return clean
    return AuditVerdict(value <= tol, value, (worst, worst + 2), "per-branch")


def _monotone(series: np.ndarray, signs, tol: float) -> list[AuditVerdict]:
    """Monotonicity audit of every row of ``series`` at once: its adjacent
    differences against its direction within tol, the direction given by
    the row's sign in the column ``signs``."""
    if series.shape[1] < 2:
        return [AuditVerdict(passed=True, worst_value=0.0)] * len(series)
    adverse = np.subtract(series[:, 1:], series[:, :-1]) * signs
    worst = np.argmax(adverse, axis=1)
    values = adverse[np.arange(len(series)), worst]
    return [
        AuditVerdict(passed=value <= tol, worst_value=value, worst_pair=(i, i + 1))
        for i, value in zip(worst.tolist(), values.tolist())
    ]


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


def solve(
    spec: GameSpec,
    method: str = "auto",
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    gap_tol: float = DEFAULT_GAP_TOL,
    step_size: str | float = "default",
    trace_every: int = 0,
) -> EquilibriumReport:
    """One equilibrium of ``spec`` by ``method``: "analytic" (the closed
    form with its vi_gap, for a game that :func:`instance_from_spec`
    accepts; a game outside raises its SpecError), "dynamics"
    (:func:`solve_dynamics` with the learning options) or "auto", which is
    "analytic" exactly when that gate accepts the game.  The learning
    options are checked whichever method runs, and a bad one raises the
    SpecError of :func:`solve_dynamics`.  A solver error is raised, never
    answered by the other method."""
    _check_options(max_iter, gap_tol, step_size, trace_every)
    # The gate refuses any coalition count but one before it reads the size.
    size = float(spec.weights[-1])
    if _method(method, spec, size) == "dynamics":
        return solve_dynamics(
            spec, max_iter=max_iter, gap_tol=gap_tol, step_size=step_size, trace_every=trace_every
        )
    inst = instance_from_spec(spec, size)
    return make_report(spec, equilibrium_profile(inst), SolverStatus.ANALYTIC)


def run_sweep(
    base: ThreeSlotInstance | GameSpec,
    grid=None,
    solver: str = "analytic",
    *,
    audit_tol: float = DEFAULT_AUDIT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    gap_tol: float = DEFAULT_GAP_TOL,
    step_size: str | float = "default",
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
    to a separate :func:`~chargegame.dynamics.solve_dynamics` run with
    ``max_iter``, ``gap_tol`` and ``step_size``, which are checked whichever
    method runs.  Points are ordered by m, and a point whose solve fails, or
    whose certificate is not finite, carries its own error.
    """
    if isinstance(base, ThreeSlotInstance):
        base = base.to_game_spec()
    _tolerance("audit_tol", audit_tol)
    _check_options(max_iter, gap_tol, step_size, 0)
    if grid is None:
        grid = default_grid()
    grid = _numbers("grid", grid)
    if grid.ndim != 1 or grid.size == 0:
        raise SpecError("sweep grid must be a nonempty vector")
    # Negated comparisons, so that a NaN fails them; ufunc reductions, which
    # skip ndarray.min's, max's and np.diff's Python-level wrappers.
    if not (np.minimum.reduce(grid) > 0.0 and np.maximum.reduce(grid) <= 1.0):
        raise SpecError("sweep grid values must lie in (0, 1]")
    if grid.size > 1 and not np.minimum.reduce(np.subtract(grid[1:], grid[:-1])) > 0:
        raise SpecError("sweep grid must be strictly increasing")

    solver = _method(solver, base, float(grid[0]))
    if base.num_coalitions != 1:
        raise SpecError("sweeps require a game shape with exactly one coalition")

    columns = None
    if solver == "analytic":
        points, columns = _analytic_points(base, grid)
    else:
        points = _dynamics_points(
            base, grid, max_iter=max_iter, gap_tol=gap_tol, step_size=step_size
        )
    audits = _run_audits(points, solver, audit_tol, columns)
    return SweepResult(grid=grid, points=tuple(points), audits=audits, solver=solver)


def _analytic_points(spec: GameSpec, grid: np.ndarray) -> tuple[list[SweepPoint], tuple | None]:
    """The closed form's records at ``grid`` and, when the whole grid
    solves at once, the audits' columns of :func:`_certified_points`.

    When the whole-grid call raises a ChargeGameError, every point is run
    alone, so each carries its own record or the error that ends it by
    itself, and the columns are None.
    """
    # The grid lies in (0, 1], so the gate decides on the game's shape alone.
    inst = instance_from_spec(spec, float(grid[0]))
    try:
        return _certified_points(inst, spec, grid)
    except ChargeGameError as exc:
        if len(grid) == 1:
            return [_error_point(float(grid[0]), exc)], None
    points = []
    for i in range(len(grid)):
        try:
            points += _certified_points(inst, spec, grid[i : i + 1])[0]
        except ChargeGameError as exc:
            points.append(_error_point(float(grid[i]), exc))
    return points, None


@_quiet()
def _certified_points(
    inst: ThreeSlotInstance, spec: GameSpec, sizes: np.ndarray
) -> tuple[list[SweepPoint], tuple[np.ndarray, np.ndarray]]:
    """Sweep records of the closed form of ``inst``, the instance of
    ``spec``, at coalition sizes ``sizes``: the solution, its reduced costs
    and its vi_gap, each for all points at once.  Also returns the audits'
    columns: the five monotone series as one array, in the order of
    ``_MONOTONE_AUDITS``, and whether each point's regime equals the next
    one's.

    The gap is the certificate ``vi_gap`` gives the point's game and
    ``equilibrium_profile``, from one stack of those games: the rows and
    masses are normalized as Flow and GameSpec normalize them, and the
    cost family is the spec's, so its domain checks apply.  A point that
    cannot be solved, or whose gap is not finite, raises its
    ChargeGameError, so the caller isolates it.
    """
    gapped, x1, x0, split = _grid_solution(inst, sizes)
    social, individuals, coalition = _grid_costs(inst, sizes, x1, split)
    # Player-major rows, (games, players, slots), go into the kernel's
    # slot-major stack transposed, as a profile's rows do.
    masses, weights = _grid_masses(sizes)
    rows = np.empty(masses.shape + (2,))
    rows[:, 0, 0] = x0
    rows[:, 1, 0] = x1
    np.subtract(masses[:, 0], x0, out=rows[:, 0, 1])
    np.subtract(sizes, x1, out=rows[:, 1, 1])
    stack, gradients = _gradient_kernel(spec, weights.ravel())
    stack[...] = _onto_masses(rows, masses[..., None])[0].reshape(-1, 2).T
    gaps = _finite(_gaps(stack, gradients(), spec.num_players))
    regimes = (_regime(gapped, False).value, _regime(gapped, True).value)
    columns = (values.tolist() for values in (sizes, x1, x0, individuals, coalition, social))
    names = map(regimes.__getitem__, split.tolist())
    status = repeat(SolverStatus.ANALYTIC.value)
    # Each zipped tuple has every field, so SweepPoint._make's length check
    # is skipped.
    fields = zip(*columns, names, gaps, status, repeat(None))
    points = list(map(tuple.__new__, repeat(SweepPoint), fields))
    series = np.array((x1, x0, individuals, coalition, social))
    return points, (series, np.equal(split[1:], split[:-1]))


def _grid_masses(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The masses (1 - m, m) of the one-coalition game at each of the
    coalition sizes ``sizes``, a game per row, and the weights GameSpec
    stores for them: each game's masses over their sum."""
    masses = np.stack((1.0 - sizes, sizes), 1)
    return masses, np.divide(masses, np.add.reduce(masses, 1, keepdims=True))


@_quiet()
def _dynamics_points(spec: GameSpec, grid: np.ndarray, **options) -> list[SweepPoint]:
    """The records of the learning dynamics at ``grid``, from one batch.

    Each is the record that the report of a solve of the point's game
    gives: the rows are renormalized as a Flow renormalizes them, and the
    costs are those make_report takes, reduced for three-slot games.
    Flow's checks always pass on a finished game's rows, which are finite,
    nonnegative and sum to their masses to rounding.  The point's
    GameSpec, Wardrop slack and boundary flag, which a record does not
    keep, are never built.  A point whose solve fails, or whose costs are
    not finite, carries its own error.
    """
    weights = _grid_masses(grid)[1]
    peak = peak_start_slot(spec)
    points = []
    for m, masses, outcome in zip(grid.tolist(), weights, _solve_batch(spec, weights, **options)):
        if isinstance(outcome, ChargeGameError):
            points.append(_error_point(m, outcome))
            continue
        rows, gap, status, _, _ = outcome
        rows = _onto_masses(rows, masses[:, None])[0]
        try:
            costs = _entity_costs(spec, masses, rows)[2]
        except ChargeGameError as exc:
            points.append(_error_point(m, exc))
            continue
        reduced = _reduced_costs(spec, costs)
        if reduced is not None:
            costs = reduced
        points.append(
            SweepPoint(
                m=m,
                x1=float(rows[1, peak]),
                x0=float(rows[0, peak]),
                cost_individuals=costs.individuals,
                cost_coalition=costs.coalitions[0],
                cost_social=costs.social,
                regime=None,
                gap=gap,
                status=status.value,
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


# The monotone audits, each named "<point field>_<direction>", and their
# signs as a column, in the order of the audited series: a direction's sign
# turns an adjacent difference into its excess over the direction.
_DIRECTIONS = {"nondecreasing": -1.0, "nonincreasing": 1.0}
_MONOTONE_AUDITS = (
    ("x1", "nondecreasing"),
    ("x0", "nonincreasing"),
    ("cost_individuals", "nonincreasing"),
    ("cost_coalition", "nonincreasing"),
    ("cost_social", "nonincreasing"),
)
_MONOTONE_SIGNS = np.array([[_DIRECTIONS[direction]] for _, direction in _MONOTONE_AUDITS])


def _run_audits(points, solver: str, tol: float, columns=None) -> dict[str, AuditVerdict]:
    """The sweep's audits: :func:`_monotone` of each series of
    ``_MONOTONE_AUDITS`` and, for the closed form, x1's
    :func:`_concave_branches` over the regimes.

    ``columns`` holds the series as one array and the regimes' adjacent
    equalities, as :func:`_certified_points` returns them; without it,
    both are read off ``points``, and a grid with a failed point gets a
    ``solver_failures`` verdict instead.
    """
    if columns is None:
        by_field = dict(zip(SweepPoint._fields, zip(*points)))
        failed = len(points) - by_field["error"].count(None)
        if failed:
            note = f"{failed} grid points failed; audits skipped"
            return {"solver_failures": AuditVerdict(False, math.inf, note=note)}
        series = np.array([by_field[field] for field, _ in _MONOTONE_AUDITS], dtype=float)
        columns = series, _same_tags(by_field["regime"])
    series, same = columns
    audits = {
        f"{field}_{direction}": verdict
        for (field, direction), verdict in zip(
            _MONOTONE_AUDITS, _monotone(series, _MONOTONE_SIGNS, tol)
        )
    }
    if solver == "analytic":
        audits["x1_concave_per_branch"] = _concave_branches(series[0], same, tol)  # x1
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
    _write_rows(path, rows[0].keys(), (row.values() for row in rows))


def _write_rows(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` as CSV lines, floats at 12
    significant digits and every other value as given."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])


def audits_to_dict(result: SweepResult) -> dict:
    return {name: verdict._asdict() for name, verdict in result.audits.items()}
