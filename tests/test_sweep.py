"""Coalition-size sweeps, audits and CSV emission."""

import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from chargegame import (
    AffineCost,
    AuditVerdict,
    BracketingError,
    CEPoint,
    ChargeGameError,
    CostSummary,
    CustomCost,
    DomainError,
    EquilibriumReport,
    ExponentialCost,
    GameSpec,
    LinearCost,
    NumericsError,
    OptimalityCheck,
    OrderingCheck,
    QuadraticCost,
    ReducedCosts,
    Regime,
    SolverStatus,
    SpecError,
    SweepPoint,
    SweepResult,
    ThreeSlotInstance,
    TraceRow,
    WardropCheck,
    activation_threshold,
    ce_costs,
    check_coalition_optimality,
    check_cost_ordering,
    check_wardrop,
    default_grid,
    equilibrium_profile,
    make_report,
    mixing_band,
    peak_start_slot,
    run_sweep,
    solve,
    solve_ce,
    solve_dynamics,
    sweep_rows,
    vi_gap,
    with_coalition_size,
)
from chargegame import sweep, threeslot, verify
from chargegame.model import LoadDecomposition
from chargegame.sweep import DEFAULT_AUDIT_TOL, MAX_SWEEP_COUNT, write_csv
from chargegame.threeslot import BISECTION_TOL, _grid_solution
from conftest import random_three_slot


def gap_instance(cost=None):
    return ThreeSlotInstance(2.3, 1.0, 1.0, 0.5, cost or LinearCost())


def band_instance(cost=None):
    return ThreeSlotInstance(1.5, 1.0, 1.0, 0.5, cost or LinearCost())


# --- audits ------------------------------------------------------------------


def monotone(values, direction, tol=DEFAULT_AUDIT_TOL):
    """The sweep's monotone audit of one series in one direction."""
    series = np.array([values], dtype=float)
    return sweep._monotone(series, [[sweep._DIRECTIONS[direction]]], tol)[0]


def concave_branches(values, tags, tol=DEFAULT_AUDIT_TOL):
    """The sweep's per-branch concavity audit of one series and its tags."""
    return sweep._concave_branches(np.array(values, dtype=float), sweep._same_tags(tags), tol)


def test_audit_monotone_directions():
    up = monotone([0.0, 0.1, 0.1, 0.4], "nondecreasing")
    assert up.passed
    down = monotone([0.4, 0.1, 0.1, 0.0], "nonincreasing")
    assert down.passed
    bad = monotone([0.0, 0.2, 0.1], "nondecreasing")
    assert not bad.passed
    assert bad.worst_pair == (1, 2)
    assert bad.worst_value == pytest.approx(0.1)
    constant = [0.3, 0.3, 0.3]
    assert monotone(constant, "nondecreasing").passed
    assert monotone(constant, "nonincreasing").passed


@pytest.mark.parametrize("solver", ["analytic", "dynamics"])
def test_a_one_point_sweep_passes_every_audit(solver):
    # One point has no neighbour to compare with, so every audit passes
    # with nothing worst.
    result = run_sweep(band_instance(), [0.5], solver)
    verdicts = list(result.audits.values())
    assert len(verdicts) == (6 if solver == "analytic" else 5)
    for verdict in verdicts:
        assert verdict.passed and verdict.worst_value == 0.0 and verdict.worst_pair is None


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: run_sweep(band_instance(), grid=[0.5, "x"]), "grid"),
    ],
    ids=["sweep-grid-string"],
)
def test_a_numeric_sequence_with_a_non_number_is_refused_by_name(call, name):
    with pytest.raises(SpecError, match=f"^{name} must be"):
        call()


def test_audit_concave_on_linear_segment():
    values = np.linspace(0.0, 1.0, 10)
    verdict = concave_branches(values, ["a"] * 10)
    assert verdict.passed
    assert verdict.worst_value == pytest.approx(0.0, abs=1e-12)
    # Fewer than three values have no second difference to fail.
    assert concave_branches([1.0, 0.0], ["a"] * 2) == AuditVerdict(
        passed=True, worst_value=0.0, note="per-branch"
    )


def test_audit_concave_flags_convex_kink_globally_but_not_per_branch():
    # Piecewise-linear hockey stick: flat then rising, a convex kink.
    grid = default_grid(25)
    values = np.maximum(0.0, (grid - 0.3) / 4.0)
    tags = ["flat" if m <= 0.3 else "rising" for m in grid]
    assert not concave_branches(values, ["one"] * len(values)).passed
    assert concave_branches(values, tags).passed


def test_audits_refuse_a_nan_tolerance():
    # Every comparison with a NaN tolerance fails, so a clean series would
    # fail its audit: a clean sweep reported x1_nondecreasing failed.
    for solver in ("analytic", "dynamics"):
        with pytest.raises(SpecError, match="audit_tol must be a number, got nan"):
            run_sweep(band_instance(), default_grid(5), solver, audit_tol=math.nan)


def tolerance_callers():
    """Each library function that takes a tolerance, with the name its
    SpecError gives it, as a call on that tolerance alone."""
    spec = band_instance().to_game_spec()
    report = solve(spec, "analytic")
    return {
        "run_sweep": ("audit_tol", lambda tol: run_sweep(spec, [0.3, 0.6], audit_tol=tol)),
        "check_wardrop": ("wardrop eps", lambda tol: check_wardrop(spec, report.profile, tol)),
        "check_coalition_optimality": (
            "coalition optimality eps",
            lambda tol: check_coalition_optimality(spec, report.profile, 1, tol),
        ),
        "check_cost_ordering": ("cost ordering tol", lambda tol: check_cost_ordering(report, tol)),
    }


@pytest.mark.parametrize("value", ["1e-9", None, True, False, 1j, math.nan],
                         ids=["string", "none", "true", "false", "complex", "nan"])
@pytest.mark.parametrize(
    "caller",
    ["run_sweep", "check_wardrop", "check_coalition_optimality", "check_cost_ordering"],
)
def test_tolerances_must_be_real_numbers(caller, value):
    # A string, None or a complex number would escape as a raw TypeError, a
    # bool would be read as 1 or 0 and NaN would fail (or pass) every check;
    # each is refused by name.  An infinite tolerance is a number.
    name, call = tolerance_callers()[caller]
    with pytest.raises(SpecError, match=f"{name} must be a number, got {value!r}"):
        call(value)
    call(1e-9)
    call(math.inf)


def test_per_branch_concavity_fails_on_nan():
    # A NaN second difference inside a branch fails the audit, as a NaN
    # difference fails the monotone audit; one that straddles a branch boundary
    # is not part of any branch.
    values = [0.0, 1.0, math.nan, 3.0]
    verdict = concave_branches(values, ["a"] * 4)
    assert not verdict.passed
    assert math.isnan(verdict.worst_value)
    assert verdict.worst_pair == (0, 2)
    later = concave_branches([0.0, 1.0, 2.0, 3.0, math.nan, 5.0], list("aaabbb"))
    assert not later.passed
    assert later.worst_pair == (3, 5)
    straddling = concave_branches([0.0, 1.0, 2.0, math.nan], list("aaab"))
    assert straddling.passed
    assert straddling.worst_pair == (0, 2)


# --- the sweep record ---------------------------------------------------------


def test_sweep_point_is_an_immutable_record_with_fixed_fields():
    point = SweepPoint(m=0.5, x1=0.25, x0=0.0, cost_individuals=1.0, cost_coalition=2.0,
                       cost_social=1.5, regime="coalition-split", gap=0.0, status="analytic")
    assert SweepPoint._fields == (
        "m", "x1", "x0", "cost_individuals", "cost_coalition", "cost_social",
        "regime", "gap", "status", "error",
    )
    assert point.error is None
    positional = (0.5, 0.25, 0.0, 1.0, 2.0, 1.5, "coalition-split", 0.0, "analytic")
    assert tuple(point) == (*positional, None)
    assert point == SweepPoint(*positional)
    assert repr(point) == (
        "SweepPoint(m=0.5, x1=0.25, x0=0.0, cost_individuals=1.0, cost_coalition=2.0, "
        "cost_social=1.5, regime='coalition-split', gap=0.0, status='analytic', error=None)"
    )
    for name in (*SweepPoint._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(point, name, 1.0)
    failed = SweepPoint(m=0.5, x1=math.nan, x0=math.nan, cost_individuals=math.nan,
                        cost_coalition=math.nan, cost_social=math.nan, regime=None,
                        gap=math.nan, status="error", error="boom")
    assert failed.error == "boom"
    assert failed.regime is None


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# Every result record: its fields in order, its defaults, and one instance's
# values.  The records validate nothing, so compound fields hold labels.
RECORDS = [
    (WardropCheck, ("passed", "worst_slack", "witness"), {"witness": None},
     (False, 0.5, (2, 1.5, 1.0))),
    (OptimalityCheck, ("passed", "gap"), {}, (True, 0.0)),
    (OrderingCheck, ("passed", "violations"), {"violations": ()},
     (False, ("individuals 2.0 > social 1.0",))),
    (TraceRow, ("iteration", "gap", "flows"), {}, (3, 1e-3, np.array([[0.5, 0.5]]))),
    (EquilibriumReport,
     ("game", "profile", "loads", "costs", "reduced", "vi_gap", "wardrop_slack",
      "boundary", "status", "iterations", "trace"),
     {"trace": None},
     ("game", "profile", "loads", "costs", None, 0.0, 0.0, False,
      SolverStatus.ANALYTIC, 0, None)),
    (LoadDecomposition, ("per_player", "aggregate"), {},
     (np.array([[1.0, 1.0]]), np.array([1.0, 1.0]))),
    (CostSummary, ("individuals", "coalitions", "social", "individuals_extended"),
     {"individuals_extended": False}, (1.0, (2.0, None), 1.5, False)),
    (AuditVerdict, ("passed", "worst_value", "worst_pair", "note"),
     {"worst_pair": None, "note": ""}, (False, 0.25, (3, 4), "")),
    (SweepResult, ("grid", "points", "audits", "solver"), {},
     (np.array([0.5]), (), {}, "analytic")),
    (CEPoint, ("coalition_on_peak", "individuals_on_peak", "regime"), {},
     (0.25, 0.0, Regime.COALITION_SPLIT)),
    (SweepPoint,
     ("m", "x1", "x0", "cost_individuals", "cost_coalition", "cost_social",
      "regime", "gap", "status", "error"),
     {"error": None},
     (0.5, 0.25, 0.0, 1.0, 2.0, 1.5, "coalition-split", 0.0, "analytic", None)),
    (ReducedCosts, ("social", "individuals", "coalition"), {}, (1.5, 1.0, 2.0)),
]


def _golden_json(name, artifact):
    with open(os.path.join(GOLDEN, name, artifact)) as handle:
        return json.load(handle)


@pytest.mark.parametrize("cls, fields, defaults, values", RECORDS,
                         ids=[record[0].__name__ for record in RECORDS])
def test_result_records_are_named_tuples_with_fixed_fields(cls, fields, defaults, values):
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    record = cls(*values)
    assert tuple(record) == values
    assert record == cls(**dict(zip(fields, values)))
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({shown})"
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1.0)


def test_record_dicts_carry_the_keys_the_artifacts_write():
    report = _golden_json("three_slot_solve", "report.json")
    loads = LoadDecomposition(np.ones((2, 3)), np.ones(3))
    costs = CostSummary(1.0, (2.0,), 1.5)
    assert sorted(loads._asdict()) == sorted(report["loads"])
    assert sorted(costs._asdict()) == sorted(report["costs"]) == sorted(report["reduced_costs"])
    verdict = AuditVerdict(passed=True, worst_value=0.0)
    for name in ("three_slot_gap_sweep", "three_slot_quadratic_sweep"):
        for written in _golden_json(name, "sweep_audits.json")["audits"].values():
            assert sorted(verdict._asdict()) == sorted(written)


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
    assert result.solver == "dynamics"
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
    nan = math.nan
    outside, unordered = r"must lie in \(0, 1\]", "must be strictly increasing"
    cases = [
        ([0.0, 0.5], outside),
        ([0.5, 1.5], outside),
        ([0.5, 0.4], unordered),
        ([0.5, 0.5], unordered),
        # A NaN fails every comparison, so each check is a negated one.
        ([0.5, nan], outside),
        ([nan, 0.5], outside),
        ([nan], outside),
    ]
    for solver in ("analytic", "dynamics", "auto"):
        for grid, message in cases:
            with pytest.raises(SpecError, match=message):
                run_sweep(inst, np.array(grid), solver=solver)
        with pytest.raises(SpecError, match="must be a nonempty vector"):
            run_sweep(inst, np.array([[0.25, 0.5]]), solver=solver)
    with pytest.raises(SpecError):
        run_sweep(inst, np.array([0.5]), solver="newton")
    # No grid is the default one.
    assert repr(run_sweep(inst)) == repr(run_sweep(inst, default_grid()))
    # The default grid's own parameters are refused by name.
    for options, name in [
        ({"count": -1}, "count"),
        ({"count": 0}, "count"),
        ({"count": 2.5}, "count"),
        ({"count": True}, "count"),
        ({"count": "5"}, "count"),
        # Past the sweep bound, refused before np.linspace allocates.
        ({"count": MAX_SWEEP_COUNT + 1}, "count"),
        ({"start": nan}, "start"),
        ({"stop": math.inf}, "stop"),
        ({"stop": None}, "stop"),
    ]:
        with pytest.raises(SpecError, match=f"grid {name} must be"):
            default_grid(**options)
    np.testing.assert_array_equal(default_grid(5.0), default_grid(5))


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


# --- one method choice -------------------------------------------------------
#
# solve and run_sweep read "auto" the same way: the closed form exactly where
# instance_from_spec accepts the game, the dynamics otherwise.


def report_bits(report):
    rows = [flow.values.tolist() for flow in report.profile.flows]
    fields = ("status", "iterations", "vi_gap", "wardrop_slack", "boundary", "costs", "reduced")
    return [repr(rows)] + [repr(getattr(report, name)) for name in fields]


def test_auto_is_the_closed_form_where_the_gate_accepts(rng):
    grid = default_grid(11)
    for case in range(9):
        inst = random_three_slot(rng, family=("linear", "quadratic", "exponential")[case % 3])
        auto = run_sweep(inst, grid, solver="auto")
        analytic = run_sweep(inst, grid, solver="analytic")
        assert auto.solver == analytic.solver == "analytic"
        assert [point_bits(p) for p in auto.points] == [point_bits(p) for p in analytic.points]
        spec = inst.to_game_spec()
        profile = equilibrium_profile(inst)
        expected = make_report(spec, profile, SolverStatus.ANALYTIC, gap=vi_gap(spec, profile))
        assert report_bits(solve(spec)) == report_bits(expected)


@pytest.mark.parametrize(
    "horizon, power, loads",
    [
        (4, 1.0, [1.5, 1.0, 1.0, 0.5]),  # not three slots
        (3, 0.8, [1.5, 1.0, 1.0]),  # not unit power
        (3, 1.0, [1.0, 1.0, 1.5]),  # first slot below the last
    ],
)
def test_auto_is_the_dynamics_where_the_gate_refuses(horizon, power, loads):
    spec = GameSpec(horizon, 2, power, np.array(loads), QuadraticCost(), np.array([0.5, 0.5]))
    grid = np.array([0.25, 0.5, 0.75])
    auto = run_sweep(spec, grid, solver="auto")
    dynamics = run_sweep(spec, grid, solver="dynamics")
    assert auto.solver == dynamics.solver == "dynamics"
    assert [point_bits(p) for p in auto.points] == [point_bits(p) for p in dynamics.points]
    assert report_bits(solve(spec)) == report_bits(solve_dynamics(spec))
    with pytest.raises(SpecError):
        run_sweep(spec, grid, solver="analytic")
    # Under a linear cost auto's dynamics converge in a few thousand steps,
    # the mirror image of a closed-form game (the last case) among them.
    linear = solve(dataclasses.replace(spec, cost=LinearCost()))
    assert linear.status is SolverStatus.CONVERGED
    assert linear.iterations <= 6000


def test_an_unknown_method_is_refused_by_solve_and_run_sweep():
    inst = band_instance()
    with pytest.raises(SpecError, match="unknown solver 'newton'"):
        solve(inst.to_game_spec(), "newton")
    with pytest.raises(SpecError, match="unknown solver 'newton'"):
        run_sweep(inst, np.array([0.5]), solver="newton")


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
    return [repr(getattr(point, name)) for name in point._fields]


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
    steps = ["default", 1.0, 0.5]
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


def test_a_dynamics_point_whose_entity_costs_raise_carries_that_error(monkeypatch):
    # The costs of the batch's exits are evaluated one point at a time; an
    # error there ends that point alone, and its record keeps the message.
    base = gap_instance().to_game_spec()
    grid = np.array([0.25, 0.5, 0.75])
    options = dict(max_iter=200, gap_tol=1e-6)
    clean = run_sweep(base, grid, "dynamics", **options)
    entity_costs = sweep._entity_costs

    def failing_at_half(spec, masses, rows):
        if masses[1] == 0.5:
            raise NumericsError("non-finite entity costs at M = 0.5")
        return entity_costs(spec, masses, rows)

    monkeypatch.setattr(sweep, "_entity_costs", failing_at_half)
    result = run_sweep(base, grid, "dynamics", **options)
    nan, message = math.nan, "non-finite entity costs at M = 0.5"
    failed = SweepPoint(0.5, nan, nan, nan, nan, nan, None, nan, "error", message)
    expected = [clean.points[0], failed, clean.points[2]]
    assert [point_bits(p) for p in result.points] == [point_bits(p) for p in expected]
    assert result.audits == {
        "solver_failures": AuditVerdict(
            False, math.inf, note="1 grid points failed; audits skipped"
        )
    }


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


# The monotone audits by point field and direction, as run_sweep names them.
MONOTONE_AUDITS = (
    ("x1", "nondecreasing"),
    ("x0", "nonincreasing"),
    ("cost_individuals", "nonincreasing"),
    ("cost_coalition", "nonincreasing"),
    ("cost_social", "nonincreasing"),
)


def first_worst(excesses):
    """Index of the first NaN among ``excesses``, or else of the first
    largest one, as np.argmax picks it."""
    nans = [i for i, value in enumerate(excesses) if math.isnan(value)]
    return nans[0] if nans else excesses.index(max(excesses))


def monotone_reference(values, direction, tol):
    """A monotone audit by its definition: each adjacent difference times
    the direction's sign is an excess, and the first worst one decides."""
    sign = {"nondecreasing": -1.0, "nonincreasing": 1.0}[direction]
    excesses = [(later - earlier) * sign for earlier, later in zip(values, values[1:])]
    if not excesses:
        return AuditVerdict(True, 0.0)
    i = first_worst(excesses)
    return AuditVerdict(excesses[i] <= tol, excesses[i], (i, i + 1))


def concave_reference(values, tags, tol):
    """A per-branch concavity audit by its definition: the second
    differences over three points that share a tag, the first worst one
    deciding."""
    starts = [i for i in range(len(values) - 2) if tags[i] == tags[i + 1] == tags[i + 2]]
    if not starts:
        return AuditVerdict(True, 0.0, note="per-branch")
    second = [values[i + 2] - 2.0 * values[i + 1] + values[i] for i in starts]
    j = first_worst(second)
    return AuditVerdict(second[j] <= tol, second[j], (starts[j], starts[j] + 2), "per-branch")


def audits_from_records(points, tol=DEFAULT_AUDIT_TOL, analytic=True):
    """A sweep's audits, from its records and the reference audits above;
    only the closed form's are audited for concavity."""
    failed = sum(p.error is not None for p in points)
    if failed:
        note = f"{failed} grid points failed; audits skipped"
        return {"solver_failures": AuditVerdict(False, math.inf, note=note)}
    audits = {
        f"{field}_{direction}": monotone_reference(
            [getattr(p, field) for p in points], direction, tol
        )
        for field, direction in MONOTONE_AUDITS
    }
    if analytic:
        audits["x1_concave_per_branch"] = concave_reference(
            [p.x1 for p in points], [p.regime for p in points], tol
        )
    return audits


def rows_from_records(points):
    """sweep_rows of these records, one attribute at a time."""
    scale = next((p.cost_social for p in points if p.error is None), math.nan)
    scale = scale if scale and not math.isnan(scale) else math.nan
    return [
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
        for p in points
    ]


def assert_analytic_matches_per_point(base, grid):
    """The analytic sweep's points, rows and audits against those of the
    closed form of each point alone, audited by the reference audits."""
    result = run_sweep(base, np.asarray(grid, dtype=float))
    expected = per_point_analytic(base, grid)
    assert [point_bits(p) for p in result.points] == [point_bits(p) for p in expected]
    assert repr(sweep_rows(result)) == repr(rows_from_records(expected))
    assert repr(result.audits) == repr(audits_from_records(expected))
    return result.points


def boundary_grid(inst):
    """Coalition sizes on and one ulp around the instance's regime boundary,
    plus sizes whose split bracket is no wider than BISECTION_TOL."""
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


def test_non_finite_certificate_errors_only_its_point():
    # The coalition's gradient divided by a subnormal mass overflows.
    inst = ThreeSlotInstance(2.0, 1.0, 1.0, 0.5, LinearCost())
    grid = np.array([5e-324, 0.25, 0.5, 1.0])
    points = assert_analytic_matches_per_point(inst, grid)
    assert points[0].status == "error"
    assert "non-finite strategy costs" in points[0].error
    assert all(p.error is None for p in points[1:])


@pytest.mark.parametrize("tol", [DEFAULT_AUDIT_TOL, -1e-3], ids=["default-tol", "negative-tol"])
def test_sweep_audits_are_the_public_audits_of_the_points_columns(tol):
    # The closed form hands the audits its own arrays; they must equal the
    # reference audits of the records' columns.  A negative tol fails even
    # flat stretches, so failed verdicts and their worst pairs are compared.
    grid = default_grid(31)
    cases = [
        (gap_instance(LinearCost(slope=1.5, intercept=0.5)), grid, "analytic"),
        (band_instance(QuadraticCost()), grid, "analytic"),
        # One regime only: no flat corner stretch, so every series differs.
        (band_instance(QuadraticCost()), np.linspace(0.5, 1.0, 11), "analytic"),
        (gap_instance(ExponentialCost(rate=0.8)), grid, "analytic"),
        (band_instance(AffineCost(ExponentialCost(rate=1.0), 2.0, -0.5)), grid, "analytic"),
        (gap_instance(), np.array([0.2, 0.4, 0.7, 1.0]), "dynamics"),
        # Past the band 0.8 the bracket fails, so each point is solved alone.
        (ThreeSlotInstance(1.2, 1.0, 1.0, 0.5, lying_derivative()), grid, "analytic"),
    ]
    for base, sizes, solver in cases:
        result = run_sweep(base, sizes, solver, audit_tol=tol)
        expected = audits_from_records(result.points, tol, analytic=solver == "analytic")
        assert repr(result.audits) == repr(expected)
    assert list(result.audits) == ["solver_failures"]


def test_mixed_failures_in_one_grid_keep_each_points_own_error():
    # A subnormal mass fails the certificate, the lying derivative fails the
    # bracket past the band 0.8, and the two points between solve cleanly.
    inst = ThreeSlotInstance(1.2, 1.0, 1.0, 0.5, lying_derivative())
    grid = np.array([5e-324, 0.25, 0.5, 0.9, 1.0])
    points = run_sweep(inst, grid).points
    assert "non-finite strategy costs" in points[0].error
    assert all("stationarity value" in p.error for p in points[3:])
    # Alone, the subnormal point's vi_gap raises the same error.
    assert [repr(p) for p in points] == [repr(p) for p in per_point_analytic(inst, grid)]


@pytest.mark.parametrize(
    "inst, what",
    [
        # f(peak) and f(1 + offpeak) both overflow: the threshold is inf / inf.
        (ThreeSlotInstance(2.3, 1.0, 1.0, 0.5, ExponentialCost(rate=400)), "activation threshold"),
        # The threshold is finite, but f overflows at the bracket's upper end.
        (ThreeSlotInstance(2.0001, 1.0, 1.0, 0.5, ExponentialCost(rate=300)), "bracket end"),
    ],
)
def test_an_overflowing_cost_raises_instead_of_a_made_up_point(inst, what):
    # RuntimeWarnings are errors in this suite, so the error comes without one.
    with pytest.raises(NumericsError, match=what):
        solve_ce(inst)
    points = run_sweep(inst, np.array([0.5, 0.75, 1.0])).points
    assert all(p.status == "error" and what in p.error for p in points)


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
