"""Coalition-size sweeps, audits and CSV emission."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from chargegame import (
    AffineCost,
    BracketingError,
    ChargeGameError,
    CustomCost,
    DomainError,
    ExponentialCost,
    GameSpec,
    LinearCost,
    QuadraticCost,
    Regime,
    SolverStatus,
    SpecError,
    SweepPoint,
    ThreeSlotInstance,
    activation_threshold,
    audit_concave,
    audit_concave_branches,
    audit_monotone,
    ce_costs,
    default_grid,
    equilibrium_profile,
    make_report,
    mixing_band,
    peak_start_slot,
    run_sweep,
    solve_ce,
    solve_dynamics,
    sweep_rows,
    vi_gap,
    with_coalition_size,
)
from chargegame import sweep, threeslot, verify
from chargegame.dynamics import default_step_schedule
from chargegame.sweep import write_csv
from chargegame.threeslot import BISECTION_TOL, _grid_solution
from conftest import random_three_slot


def gap_instance(cost=None):
    return ThreeSlotInstance(2.3, 1.0, 1.0, 0.5, cost or LinearCost())


def band_instance(cost=None):
    return ThreeSlotInstance(1.5, 1.0, 1.0, 0.5, cost or LinearCost())


# --- audits ------------------------------------------------------------------


def test_audit_monotone_directions():
    up = audit_monotone([0.0, 0.1, 0.1, 0.4], "nondecreasing")
    assert up.passed
    down = audit_monotone([0.4, 0.1, 0.1, 0.0], "nonincreasing")
    assert down.passed
    bad = audit_monotone([0.0, 0.2, 0.1], "nondecreasing")
    assert not bad.passed
    assert bad.worst_pair == (1, 2)
    assert bad.worst_value == pytest.approx(0.1)
    constant = [0.3, 0.3, 0.3]
    assert audit_monotone(constant, "nondecreasing").passed
    assert audit_monotone(constant, "nonincreasing").passed
    with pytest.raises(SpecError):
        audit_monotone(constant, "sideways")


def test_audit_concave_on_linear_segment():
    values = np.linspace(0.0, 1.0, 10)
    verdict = audit_concave(values)
    assert verdict.passed
    assert verdict.worst_value == pytest.approx(0.0, abs=1e-12)


def test_audit_concave_flags_convex_kink_globally_but_not_per_branch():
    # Piecewise-linear hockey stick: flat then rising, a convex kink.
    grid = default_grid(25)
    values = np.maximum(0.0, (grid - 0.3) / 4.0)
    tags = ["flat" if m <= 0.3 else "rising" for m in grid]
    assert not audit_concave(values).passed
    assert audit_concave_branches(values, tags).passed
    with pytest.raises(SpecError):
        audit_concave_branches(values, tags[:-1])


# --- closed-form sweeps ------------------------------------------------------


def test_sweep_linear_gap_matches_hockey_stick():
    result = run_sweep(gap_instance(), default_grid())
    for point in result.points:
        expected = max(0.0, (point.m - 0.3) / 4.0)
        assert point.x1 == pytest.approx(expected, abs=1e-9)
        assert point.x0 == 0.0
    assert result.audits["x1_nondecreasing"].passed
    assert result.audits["x1_concave_per_branch"].passed


def test_sweep_linear_band_individuals_weight_slope():
    result = run_sweep(band_instance(), default_grid())
    for point in result.points:
        if point.m < 0.5:
            assert point.x0 == pytest.approx((0.5 - point.m) / 2.0, abs=1e-12)
            assert point.x1 == pytest.approx(point.m / 2.0, abs=1e-12)
        else:
            assert point.x0 == 0.0
            assert point.x1 == pytest.approx((point.m + 0.5) / 4.0, abs=1e-9)
    assert result.audits["x0_nonincreasing"].passed


def test_sweep_quadratic_normalized_cost_ratios():
    result = run_sweep(band_instance(QuadraticCost()), default_grid())
    rows = sweep_rows(result)
    last = rows[-1]
    assert last["m"] == 1.0
    assert last["norm_cost_coalition"] == pytest.approx(0.97, abs=0.01)
    assert last["norm_cost_social"] == pytest.approx(0.97, abs=0.01)
    assert last["norm_cost_individuals"] == pytest.approx(0.88, abs=0.01)


def test_sweep_cost_monotonicity_all_families():
    for cost in (LinearCost(), QuadraticCost(), ExponentialCost(rate=1.0)):
        for base in (gap_instance(cost), band_instance(cost)):
            result = run_sweep(base, default_grid())
            for name in (
                "cost_individuals_nonincreasing",
                "cost_coalition_nonincreasing",
                "cost_social_nonincreasing",
            ):
                assert result.audits[name].passed, (type(cost).__name__, name)


def test_cost_ordering_holds_at_every_sweep_point():
    for cost in (LinearCost(), QuadraticCost(), ExponentialCost(rate=1.0)):
        for base in (gap_instance(cost), band_instance(cost)):
            for point in run_sweep(base, default_grid(51)).points:
                assert point.cost_individuals <= point.cost_social + 1e-9
                assert point.cost_social <= point.cost_coalition + 1e-9


def test_social_dilemma_witness():
    """Full coalition lowers the social cost, yet defection stays tempting."""
    result = run_sweep(band_instance(QuadraticCost()), default_grid())
    first, last = result.points[0], result.points[-1]
    assert last.cost_social < first.cost_social
    assert last.cost_individuals < last.cost_coalition


# --- the per-point certificate -----------------------------------------------


def test_sweep_gap_equals_report_gap_in_every_regime(rng):
    """An analytic point's gap is exactly the full report's vi_gap."""
    grid = default_grid(21)
    seen = set()
    for _ in range(12):
        inst = random_three_slot(rng)
        for point in run_sweep(inst, grid).points:
            at = with_coalition_size(inst, point.m)
            report = make_report(
                at.to_game_spec(), equilibrium_profile(at, solve_ce(at)), SolverStatus.ANALYTIC
            )
            assert point.gap == report.vi_gap
            seen.add(point.regime)
    assert seen == {regime.value for regime in Regime}


def test_analytic_sweep_builds_no_report(monkeypatch):
    """Each analytic point costs its closed form and its gap certificate only."""

    def no_report(*args, **kwargs):
        raise AssertionError("an analytic sweep point assembled a full report")

    monkeypatch.setattr(verify, "make_report", no_report)
    monkeypatch.setattr(sweep, "make_report", no_report, raising=False)
    for inst in (gap_instance(QuadraticCost()), band_instance(ExponentialCost(rate=1.0))):
        result = run_sweep(inst, default_grid(21))
        assert all(p.error is None and p.gap <= 1e-9 for p in result.points)


# --- dynamics-backed sweeps --------------------------------------------------


def test_dynamics_sweep_agrees_with_analytic():
    grid = np.array([0.2, 0.4, 0.7, 1.0])
    inst = gap_instance()
    analytic = run_sweep(inst, grid, solver="analytic")
    dynamic = run_sweep(inst, grid, solver="dynamics")
    for a, d in zip(analytic.points, dynamic.points):
        assert d.x1 == pytest.approx(a.x1, abs=1e-3)
        assert d.status in ("converged", "max-iter-reached")


def test_general_spec_sweep_uses_peak_slot():
    loads = np.array([0.9, 1.0, 0.95, 0.7, 0.5, 0.45, 0.6])
    spec = GameSpec(7, 3, 0.2, loads, LinearCost(), np.array([0.5, 0.5]))
    assert peak_start_slot(spec) == 0
    grid = np.array([0.25, 0.75])
    result = run_sweep(
        spec, grid, solver="dynamics", gap_tol=1e-8, step_size=1.0, audit_tol=1e-6
    )
    assert not result.reduced
    assert all(p.error is None for p in result.points)
    assert result.audits["x1_nondecreasing"].passed


def test_solver_failures_recorded_per_point():
    inst = ThreeSlotInstance(1.2, 1.0, 1.0, 0.5, lying_derivative())
    # the stationarity equation is only consulted past the mixing band (0.8)
    result = run_sweep(inst, np.array([0.85, 0.95]))
    assert all(p.error is not None for p in result.points)
    assert all(math.isnan(p.x1) for p in result.points)
    assert "solver_failures" in result.audits


def test_grid_validation():
    inst = band_instance()
    with pytest.raises(SpecError):
        run_sweep(inst, np.array([0.0, 0.5]))
    with pytest.raises(SpecError):
        run_sweep(inst, np.array([0.5, 0.4]))
    with pytest.raises(SpecError):
        run_sweep(inst, np.array([0.5, 1.5]))
    with pytest.raises(SpecError):
        run_sweep(inst, np.array([0.5]), solver="newton")


def test_three_slot_base_is_read_as_its_game_spec():
    # Its cost bound is checked at entry for either solver, as a GameSpec's is.
    inst = ThreeSlotInstance(2.0, 1.0, 1.0, 0.5, LinearCost(domain_bound=2.5))
    for solver in ("analytic", "dynamics"):
        with pytest.raises(SpecError, match="exceeds the cost validity bound 2.5"):
            run_sweep(inst, np.array([0.2, 0.6]), solver=solver)


@pytest.mark.parametrize(
    "power, loads, weights, reason",
    [
        (1.0, [1.5, 1.0, 1.0], [0.4, 0.3, 0.3], "exactly one coalition"),
        (0.5, [1.5, 1.0, 1.0], [0.5, 0.5], "horizon=3, duration=2, power=1"),
        (1.0, [1.0, 1.0, 1.5], [0.5, 0.5], "peak_load must be >= offpeak_load"),
    ],
)
def test_analytic_sweep_refuses_a_game_outside_the_closed_form(power, loads, weights, reason):
    spec = GameSpec(3, 2, power, np.array(loads), LinearCost(), np.array(weights))
    with pytest.raises(SpecError, match=reason):
        run_sweep(spec, np.array([0.2, 0.6]))


# --- batched dynamics sweep vs per-point solves ---------------------------------
#
# run_sweep(solver="dynamics") solves the grid as one stack of games; every
# point must equal a separate solve_dynamics run of its game bit for bit.


def one_dimensional(fn):
    """Wrap a cost function so that it fails on anything but a load vector."""

    def checked(load):
        assert np.ndim(load) == 1, f"cost evaluated on a {np.ndim(load)}-d load"
        return fn(load)

    return checked


def per_point_sweep(base, grid, **options):
    """The sweep's points from one solve_dynamics run per grid point."""
    points = []
    for m in grid:
        m = float(m)
        spec = GameSpec(base.horizon, base.duration, base.power, base.base_load,
                        base.cost, np.array([1.0 - m, m]))
        try:
            report = solve_dynamics(spec, **options)
        except ChargeGameError as exc:
            nan = float("nan")
            points.append(SweepPoint(m, nan, nan, nan, nan, nan, None, nan, "error", str(exc)))
            continue
        costs = report.reduced if report.reduced is not None else report.costs
        peak = peak_start_slot(spec)
        points.append(SweepPoint(
            m=m,
            x1=float(report.profile.flows[1].values[peak]),
            x0=float(report.profile.flows[0].values[peak]),
            cost_individuals=costs.individuals,
            cost_coalition=costs.coalitions[0],
            cost_social=costs.social,
            regime=None,
            gap=report.vi_gap,
            status=report.status.value,
        ))
    return points


def point_bits(point):
    # repr keeps every float bit, tells -0.0 from 0.0 and prints NaN as nan.
    return [repr(getattr(point, field.name)) for field in dataclasses.fields(point)]


def assert_batch_matches_per_point(base, grid, **options):
    batched = run_sweep(base, grid, solver="dynamics", **options).points
    expected = per_point_sweep(base, grid, **options)
    assert [point_bits(p) for p in batched] == [point_bits(p) for p in expected]
    return batched


def test_batched_dynamics_sweep_matches_per_point_solves(rng):
    linear = LinearCost(slope=rng.uniform(0.5, 2.0), intercept=rng.uniform(0.0, 1.0))
    families = [
        linear,
        QuadraticCost(),
        ExponentialCost(rate=rng.uniform(0.3, 1.5)),
        AffineCost(linear, rng.uniform(0.5, 3.0), rng.uniform(-1.0, 2.0)),
        CustomCost(
            value_fn=one_dimensional(lambda x: x**3 + x),
            derivative_fn=one_dimensional(lambda x: 3.0 * x**2 + 1.0),
            domain_bound=30.0,
        ),
    ]
    steps = [default_step_schedule, 1.0, lambda n: 0.5 / math.sqrt(1.0 + n)]
    statuses = set()
    case = 0
    for horizon in range(1, 9):
        for duration in range(1, horizon + 1):
            base = GameSpec(horizon, duration, float(rng.uniform(0.1, 1.0)),
                            rng.uniform(0.0, 2.0, size=horizon),
                            families[case % len(families)], np.array([0.5, 0.5]))
            # M = 1.0 leaves the individuals without mass.
            grid = np.append(np.sort(rng.uniform(0.02, 0.98, size=3)), 1.0)
            points = assert_batch_matches_per_point(
                base, grid, max_iter=120, gap_tol=1e-5, step_size=steps[case % len(steps)]
            )
            statuses.update(p.status for p in points)
            case += 1
    # The budget stalls some points and not others.
    assert statuses == {"converged", "max-iter-reached"}


def test_batched_sweep_fails_only_the_points_whose_costs_turn_nan():
    # On this game the slot loads the dynamics reach grow with M: the first
    # 100 iterations peak at 1.98 for M = 0.5 and at 2.17 for M = 0.7.
    cost = CustomCost(
        value_fn=lambda x: x * x + x,
        derivative_fn=lambda x: np.where(x > 2.05, np.nan, 2.0 * x + 1.0),
        domain_bound=10.0,
    )
    base = GameSpec(4, 2, 1.0, np.array([1.5, 1.0, 0.5, 1.2]), cost, np.array([0.5, 0.5]))
    grid = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    points = assert_batch_matches_per_point(base, grid, max_iter=100, gap_tol=1e-6, step_size=1.0)
    assert [p.error is None for p in points] == [True, True, True, False, False, False]
    assert all("non-finite strategy costs" in p.error for p in points[3:])


@dataclasses.dataclass(frozen=True)
class CappedLinearCost(LinearCost):
    """A linear family whose domain check also rejects loads above ``cap``."""

    cap: float = 1.0

    def _check_domain(self, lo: float, hi: float) -> None:
        super()._check_domain(lo, hi)
        if hi > self.cap:
            raise DomainError(f"load {hi} lies above the cap {self.cap}")


def test_batched_sweep_reports_a_domain_error_on_every_point():
    # The load envelope [1.0, 2.5] crosses the cap, so the once-per-solve
    # domain check fails for every grid point.
    base = GameSpec(3, 2, 1.0, np.array([1.5, 1.0, 1.0]), CappedLinearCost(cap=2.0),
                    np.array([0.5, 0.5]))
    points = assert_batch_matches_per_point(base, np.array([0.25, 0.5, 1.0]))
    assert all(p.status == "error" and "above the cap" in p.error for p in points)


# --- analytic sweep vs per-point closed form ------------------------------------
#
# run_sweep(solver="analytic") solves the grid as one array computation and
# certifies it as one stack of games; every point must equal solve_ce,
# ce_costs and vi_gap of its own instance bit for bit, errors included.


def per_point_analytic(base, grid):
    """The sweep's points from the closed form of each grid point alone."""
    nan = float("nan")
    points = []
    for m in grid:
        m = float(m)
        inst = with_coalition_size(base, m)
        try:
            point = solve_ce(inst)
            costs = ce_costs(inst, point)
            gap = vi_gap(inst.to_game_spec(), equilibrium_profile(inst, point))
        except ChargeGameError as exc:
            points.append(SweepPoint(m, nan, nan, nan, nan, nan, None, nan, "error", str(exc)))
            continue
        points.append(SweepPoint(
            m=m,
            x1=point.coalition_on_peak,
            x0=point.individuals_on_peak,
            cost_individuals=costs.individuals,
            cost_coalition=costs.coalition,
            cost_social=costs.social,
            regime=point.regime.value,
            gap=gap,
            status="analytic",
        ))
    return points


def solve_each(base, grid):
    """Per grid point, solve_ce of that point alone or the error it raises."""
    outcomes = []
    for m in grid:
        try:
            outcomes.append(solve_ce(with_coalition_size(base, float(m))))
        except ChargeGameError as exc:
            outcomes.append(exc)
    return outcomes


def assert_analytic_matches_per_point(base, grid):
    swept = run_sweep(base, np.asarray(grid, dtype=float)).points
    assert [point_bits(p) for p in swept] == [point_bits(p) for p in per_point_analytic(base, grid)]
    return swept


def boundary_grid(inst):
    """Coalition sizes on and one ulp around the instance's regime boundary,
    plus sizes whose bisection bracket is no wider than BISECTION_TOL."""
    if inst.peak_load >= inst.offpeak_load + 1.0:
        edge = activation_threshold(inst)
        tight = [edge + BISECTION_TOL / 2.0, 1e-13]  # bracket [0, m]
    else:
        edge = mixing_band(inst)
        tight = [edge + BISECTION_TOL, edge + 2.0 * BISECTION_TOL]  # bracket [band/2, m/2]
    sizes = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0), *tight, 0.5, 1.0]
    # A threshold of 0 has a subnormal upper neighbour, and a gradient
    # divided by that mass overflows; 1e-13 is the smallest size kept.
    return np.array(sorted({float(m) for m in sizes if 1e-13 <= m <= 1.0}))


def test_analytic_sweep_matches_per_point_closed_form(rng):
    regimes = set()
    shapes = [(2.3, 1.0, 1.0), (1.5, 1.0, 1.0), (2.0, 1.0, 1.0), (1.2, 0.4, 1.0)]
    for family in ("linear", "quadratic", "exponential"):
        instances = [random_three_slot(rng, family) for _ in range(6)]
        instances += [
            ThreeSlotInstance(*loads, 0.5, instances[0].cost) for loads in shapes
        ]
        for inst in instances:
            for grid in (default_grid(21), np.sort(rng.uniform(0.001, 1.0, 9)), boundary_grid(inst)):
                points = assert_analytic_matches_per_point(inst, grid)
                assert all(p.error is None for p in points)
                regimes.update(p.regime for p in points)
    assert regimes == {regime.value for regime in Regime}


def test_boundary_grid_hits_the_edges_and_tight_brackets():
    # The tie (2.0, 1.0, 1.0) has threshold 0, so m = 1e-13 splits on a
    # bracket [0, 1e-13]; the band instance splits on [0.25, 0.25 + 5e-13].
    for loads, edge in (((2.0, 1.0, 1.0), 0.0), ((1.5, 1.0, 1.0), 0.5)):
        inst = ThreeSlotInstance(*loads, 0.5, LinearCost())
        grid = boundary_grid(inst)
        assert edge == 0.0 or {edge, np.nextafter(edge, 0.0), np.nextafter(edge, 2.0)} <= set(grid)
        tight = [m for m in grid if 0.0 < m - edge <= 2.0 * BISECTION_TOL]
        assert tight
        for point in assert_analytic_matches_per_point(inst, tight):
            assert point.regime in ("coalition-split", "saturated-split")


def test_capped_cost_errors_only_the_points_past_the_cap():
    # Past the activation threshold 0.3 the bracket end m puts 2.3 + m on
    # the peak slot, which the cap 2.8 rejects exactly for m > 0.5.
    inst = ThreeSlotInstance(2.3, 1.0, 1.0, 0.5, CappedLinearCost(cap=2.8))
    grid = default_grid(21)
    points = assert_analytic_matches_per_point(inst, grid)
    assert [p.error is not None for p in points] == [m > 0.5 for m in grid]
    assert all("above the cap 2.8" in p.error for p in points if p.error is not None)


def test_value_only_cost_errors_only_the_split_points():
    value_only = CustomCost(lambda x: np.asarray(x, float) ** 2 + 1.0, None, 30.0)
    inst = ThreeSlotInstance(1.2, 1.0, 1.0, 0.5, value_only)  # mixing band 0.8
    grid = default_grid(21)
    assert [isinstance(p, SpecError) for p in solve_each(inst, grid)] == [m >= 0.8 for m in grid]
    with pytest.raises(SpecError):
        _grid_solution(inst, grid)
    _grid_solution(inst, grid[grid < 0.8])
    # Every certificate needs f', so the sweep fails the shared points there.
    points = assert_analytic_matches_per_point(inst, grid)
    assert all("provides no derivative" in p.error for p in points)


def lying_derivative():
    """A cost whose derivative is negative, against the shape assumptions."""
    return CustomCost(
        value_fn=lambda x: np.asarray(x, dtype=float),
        derivative_fn=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
        domain_bound=30.0,
    )


def test_lying_derivative_errors_only_the_points_past_the_band():
    inst = ThreeSlotInstance(1.2, 1.0, 1.0, 0.5, lying_derivative())
    grid = default_grid(21)
    assert [isinstance(p, BracketingError) for p in solve_each(inst, grid)] == [
        m >= 0.8 for m in grid
    ]
    with pytest.raises(BracketingError):
        _grid_solution(inst, grid)
    _grid_solution(inst, grid[grid < 0.8])
    points = assert_analytic_matches_per_point(inst, grid)
    assert [p.error is not None for p in points] == [m >= 0.8 for m in grid]
    assert all("stationarity value" in p.error for p in points if p.error is not None)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_certificate_errors_only_its_point():
    # The coalition's gradient divided by a subnormal mass overflows.
    inst = ThreeSlotInstance(2.0, 1.0, 1.0, 0.5, LinearCost())
    grid = np.array([5e-324, 0.25, 0.5, 1.0])
    result = run_sweep(inst, grid)
    assert result.points[0].status == "error"
    assert "non-finite strategy costs" in result.points[0].error
    assert "solver_failures" in result.audits
    expected = per_point_analytic(inst, grid[1:])
    assert [point_bits(p) for p in result.points[1:]] == [point_bits(p) for p in expected]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_mixed_failures_in_one_grid_keep_each_points_own_error():
    # A subnormal mass fails the certificate, the lying derivative fails the
    # bracket past the band 0.8, and the two points between solve cleanly.
    inst = ThreeSlotInstance(1.2, 1.0, 1.0, 0.5, lying_derivative())
    grid = np.array([5e-324, 0.25, 0.5, 0.9, 1.0])
    points = run_sweep(inst, grid).points
    assert "non-finite strategy costs" in points[0].error
    assert all("stationarity value" in p.error for p in points[3:])
    # Alone, the subnormal point's vi_gap is NaN rather than an error.
    assert [repr(p) for p in points[1:]] == [repr(p) for p in per_point_analytic(inst, grid[1:])]


def test_analytic_sweep_solves_and_certifies_the_grid_at_once(monkeypatch):
    def per_point(*args, **kwargs):
        raise AssertionError("an analytic sweep solved or certified one point alone")

    for module, name in ((threeslot, "solve_ce"), (sweep, "solve_ce"),
                         (verify, "vi_gap"), (sweep, "vi_gap")):
        monkeypatch.setattr(module, name, per_point, raising=False)
    calls = []
    for name in ("_grid_solution", "_gradient_kernel"):
        real = getattr(sweep, name)
        monkeypatch.setattr(
            sweep, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    for inst in (gap_instance(QuadraticCost()), band_instance(ExponentialCost(rate=1.0))):
        calls.clear()
        result = run_sweep(inst, default_grid(21))
        assert all(p.error is None and p.gap <= 1e-9 for p in result.points)
        assert calls == ["_grid_solution", "_gradient_kernel"]


def test_csv_round_trip(tmp_path):
    result = run_sweep(band_instance(QuadraticCost()), default_grid(11))
    path = tmp_path / "sweep.csv"
    write_csv(result, path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 11
    assert set(rows[0]) == {
        "m",
        "x1",
        "x0",
        "cost_individuals",
        "cost_coalition",
        "cost_social",
        "norm_cost_individuals",
        "norm_cost_coalition",
        "norm_cost_social",
        "regime",
        "status",
    }
    assert float(rows[-1]["x1"]) == pytest.approx(0.359375, abs=1e-9)
    assert rows[-1]["regime"] == "saturated-split"
    assert rows[0]["regime"] == "shared-peak"
