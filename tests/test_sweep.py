"""Coalition-size sweeps, audits and CSV emission."""

import csv
import math

import numpy as np
import pytest

from chargegame import (
    CustomCost,
    ExponentialCost,
    GameSpec,
    LinearCost,
    QuadraticCost,
    Regime,
    SolverStatus,
    SpecError,
    ThreeSlotInstance,
    audit_concave,
    audit_concave_branches,
    audit_monotone,
    default_grid,
    equilibrium_profile,
    make_report,
    peak_start_slot,
    run_sweep,
    solve_ce,
    sweep_rows,
    with_coalition_size,
)
from chargegame import sweep, verify
from chargegame.sweep import write_csv
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
    liar = CustomCost(
        value_fn=lambda x: np.asarray(x, dtype=float),
        derivative_fn=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
        domain_bound=30.0,
    )
    inst = ThreeSlotInstance(1.2, 1.0, 1.0, 0.5, liar)
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


def test_parallel_sweep_matches_serial():
    inst = band_instance(QuadraticCost())
    grid = default_grid(21)
    serial = run_sweep(inst, grid, jobs=1)
    parallel = run_sweep(inst, grid, jobs=2)
    for a, b in zip(serial.points, parallel.points):
        assert a == b


def test_parallel_sweep_rejects_unpicklable_game():
    # Workers receive the game by pickling; a lambda-based family cannot be
    # sent, which must surface as a typed error before any worker starts.
    cost = CustomCost(value_fn=lambda x: x * x, derivative_fn=lambda x: 2.0 * x,
                      domain_bound=10.0)
    inst = band_instance(cost)
    with pytest.raises(SpecError, match="picklable"):
        run_sweep(inst, np.array([0.3, 0.6]), jobs=2)
    with pytest.raises(SpecError, match="picklable"):
        run_sweep(inst.to_game_spec(), np.array([0.3, 0.6]), solver="dynamics", jobs=2)


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
