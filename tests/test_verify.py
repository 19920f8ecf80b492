"""Equilibrium certification: gap function, condition checks, orderings."""

import math
import re
import warnings

import numpy as np
import pytest

import chargegame as cg
from chargegame import threeslot
from chargegame import (
    AffineCost,
    ExponentialCost,
    GameSpec,
    LinearCost,
    NumericsError,
    Profile,
    QuadraticCost,
    SolverStatus,
    SpecError,
    ThreeSlotInstance,
    UndefinedAverageError,
    check_coalition_optimality,
    check_cost_ordering,
    check_wardrop,
    equilibrium_profile,
    make_report,
    solve_ce,
    solve_dynamics,
    vi_gap,
)
from conftest import random_profile, random_three_slot


def corner_profile(spec):
    """Everyone, individuals and coalition alike, on the first alternative."""
    rows = np.zeros((spec.num_players, spec.num_start_slots))
    rows[:, 0] = spec.weights
    return Profile.from_rows(spec, rows)


# --- vi_gap ------------------------------------------------------------------


def test_gap_vanishes_at_analytic_corner_equilibrium():
    inst = ThreeSlotInstance(2.3, 1.0, 1.0, 0.2, LinearCost())
    profile = equilibrium_profile(inst)
    assert vi_gap(inst.to_game_spec(), profile) <= 1e-10


def test_gap_positive_at_dominated_corner():
    inst = ThreeSlotInstance(2.3, 1.0, 1.0, 0.5, LinearCost())
    spec = inst.to_game_spec()
    profile = corner_profile(spec)
    gap = vi_gap(spec, profile)
    # individuals' share alone: half the weight times the 2.3 cost spread
    assert gap >= 0.5 * 2.3 - 1e-12
    assert gap == pytest.approx(3.95, abs=1e-9)


def test_gap_zero_in_single_strategy_game(rng):
    spec = GameSpec(3, 3, 1.0, np.ones(3), QuadraticCost(), np.array([0.5, 0.5]))
    profile = Profile.uniform(spec)
    assert vi_gap(spec, profile) == 0.0
    assert check_wardrop(spec, profile, eps=0.0).passed


def test_gap_nonnegative_on_random_profiles(rng):
    for _ in range(30):
        inst = random_three_slot(rng)
        spec = inst.to_game_spec()
        assert vi_gap(spec, random_profile(rng, spec)) >= 0.0


def test_gap_agrees_with_componentwise_checks(rng):
    """Zero gap exactly when Wardrop and all coalition checks pass."""
    scale = 1e-8
    for _ in range(20):
        inst = random_three_slot(rng)
        spec = inst.to_game_spec()
        profile = random_profile(rng, spec)
        gap = vi_gap(spec, profile)
        wardrop = check_wardrop(spec, profile, eps=scale)
        optimal = [
            check_coalition_optimality(spec, profile, k, eps=scale)
            for k in range(1, spec.num_players)
            if spec.weights[k] > 0
        ]
        if gap <= scale:
            assert wardrop.passed and all(c.passed for c in optimal)
        if gap > scale * spec.num_players * 10:
            assert not (wardrop.passed and all(c.passed for c in optimal))
    # and at true equilibria everything passes
    for _ in range(10):
        inst = random_three_slot(rng)
        spec = inst.to_game_spec()
        profile = equilibrium_profile(inst)
        assert vi_gap(spec, profile) <= 1e-8
        assert check_wardrop(spec, profile, eps=1e-7).passed
        assert check_coalition_optimality(spec, profile, 1, eps=1e-7).passed


def test_non_finite_gap_raises_without_warnings():
    # The coalition's gradient divided by a subnormal mass overflows; the
    # gap and the report built on it are errors, not NaN, and numpy's
    # overflow and 0 * inf along the way stay quiet.
    inst = ThreeSlotInstance(2.0, 1.0, 1.0, 5e-324, LinearCost())
    spec, profile = inst.to_game_spec(), equilibrium_profile(inst)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="non-finite strategy costs"):
            vi_gap(spec, profile)
        with pytest.raises(NumericsError, match="non-finite strategy costs"):
            make_report(spec, profile, SolverStatus.ANALYTIC)


@pytest.mark.parametrize("status", ["converged", None], ids=["string", "none"])
def test_a_report_status_must_be_a_solver_status(status):
    # A string status used to be kept, and the CLI's report_to_dict then
    # failed on status.value with a raw AttributeError.
    inst = ThreeSlotInstance(2.0, 1.0, 1.0, 0.5, LinearCost())
    spec, profile = inst.to_game_spec(), equilibrium_profile(inst)
    with pytest.raises(SpecError, match=f"^status must be a SolverStatus, got {status!r}$"):
        make_report(spec, profile, status)
    assert make_report(spec, profile, SolverStatus.CONVERGED).status is SolverStatus.CONVERGED


def test_a_coalition_row_needs_a_finite_slope_even_without_mass():
    # exp(2 x) stays finite at the load 354.7 while f' = 2 exp(2 x)
    # overflows.  The kernel takes f and f' from one pair whenever the game
    # has a coalition row, so a massless coalition's 0 * inf is a NaN
    # gradient and the certificate an error; the individuals alone need f.
    def uniform_gap(weights):
        spec = GameSpec(2, 1, 0.001, np.array([354.7, 0.0]), ExponentialCost(2.0), np.array(weights))
        return vi_gap(spec, Profile.uniform(spec))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="non-finite strategy costs"):
            uniform_gap([1.0, 0.0])
        assert uniform_gap([1.0]) == pytest.approx(6.136e307, rel=1e-3)


# exp(400 x) overflows on the peak load 2.3, and, with the mixing band
# open, on the closed form's common load 2.4.
OVERFLOWING = ExponentialCost(rate=400)
OVERFLOWING_SPEC = GameSpec(3, 2, 1.0, np.array([2.3, 1.0, 1.0]), OVERFLOWING, np.array([0.5, 0.5]))
UNIFORM = Profile.uniform(OVERFLOWING_SPEC)
OVERFLOWING_GAPPED = ThreeSlotInstance(2.3, 1.0, 1.0, 0.5, OVERFLOWING)
OVERFLOWING_BAND = ThreeSlotInstance(2.3, 1.0, 1.5, 0.1, OVERFLOWING)

# Each public evaluator on an overflowing input, and what its error names.
OVERFLOWING_EVALUATORS = {
    "evaluate_costs": (lambda: cg.evaluate_costs(OVERFLOWING_SPEC, UNIFORM), "strategy costs"),
    "strategy_costs": (lambda: cg.strategy_costs(OVERFLOWING_SPEC, UNIFORM), "strategy costs"),
    "check_wardrop": (lambda: check_wardrop(OVERFLOWING_SPEC, UNIFORM, 1e-6), "strategy costs"),
    "player_gradients": (lambda: cg.player_gradients(OVERFLOWING_SPEC, UNIFORM), "strategy costs"),
    "check_coalition_optimality": (
        lambda: check_coalition_optimality(OVERFLOWING_SPEC, UNIFORM, 1, 1e-6), "strategy costs"
    ),
    "activation_threshold": (
        lambda: cg.activation_threshold(OVERFLOWING_GAPPED), "activation threshold"
    ),
    "marginal_imbalance": (
        lambda: threeslot.marginal_imbalance(OVERFLOWING_GAPPED, 0.1), "marginal imbalance"
    ),
    "ce_costs": (lambda: cg.ce_costs(OVERFLOWING_BAND, solve_ce(OVERFLOWING_BAND)), "entity costs"),
}


@pytest.mark.parametrize("evaluator", list(OVERFLOWING_EVALUATORS))
def test_every_evaluator_raises_on_an_overflowing_cost_without_a_warning(evaluator):
    # These used to return inf or NaN behind numpy's RuntimeWarning.
    evaluate, what = OVERFLOWING_EVALUATORS[evaluator]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=f"non-finite {what}"):
            evaluate()


def test_an_analytic_sweep_point_with_overflowing_costs_carries_the_ce_costs_error():
    (point,) = cg.run_sweep(OVERFLOWING_BAND, np.array([0.1])).points
    with pytest.raises(NumericsError) as alone:
        cg.ce_costs(OVERFLOWING_BAND, solve_ce(OVERFLOWING_BAND))
    assert point.status == "error" and point.error == str(alone.value)


@pytest.mark.parametrize("weights", [(1.0,), (0.5, 0.5), (0.3, 0.3, 0.4)])
def test_vi_gap_checks_the_cost_domain_once(monkeypatch, weights):
    # f and f' come from one checked pair, so the certificate runs one
    # domain check.
    checks = []
    check = LinearCost._check_domain

    def counting(self, lo, hi):
        checks.append((lo, hi))
        check(self, lo, hi)

    monkeypatch.setattr(LinearCost, "_check_domain", counting)
    spec = GameSpec(4, 2, 1.0, np.array([1.5, 1.0, 1.2, 0.8]), LinearCost(), np.array(weights))
    vi_gap(spec, Profile.uniform(spec))
    assert len(checks) == 1


# --- wardrop and coalition checks -------------------------------------------


def test_wardrop_passes_at_equal_cost_interior_point():
    spec = GameSpec(
        3, 2, 1.0, np.array([1.5, 1, 1]), QuadraticCost(), np.array([1.0])
    )
    profile = Profile.from_rows(spec, [[0.25, 0.75]])
    assert check_wardrop(spec, profile, eps=1e-9).passed


def test_wardrop_fails_with_witness_on_expensive_support():
    spec = GameSpec(
        3, 2, 1.0, np.array([2.3, 1, 1]), LinearCost(), np.array([1.0])
    )
    profile = Profile.from_rows(spec, [[1.0, 0.0]])
    result = check_wardrop(spec, profile, eps=1e-9)
    assert not result.passed
    start, cost, best = result.witness
    assert start == 0
    assert cost > best
    # A NaN eps fails every comparison, so it would fail a clean profile too.
    clean = Profile.from_rows(spec, [[0.0, 1.0]])
    with pytest.raises(SpecError, match="wardrop eps must be a number, got nan"):
        check_wardrop(spec, clean, eps=float("nan"))


def test_coalition_optimality_trio():
    good = ThreeSlotInstance(2.3, 1.0, 1.0, 0.5, LinearCost())
    spec = good.to_game_spec()
    profile = equilibrium_profile(good)
    assert check_coalition_optimality(spec, profile, 1, eps=1e-8).passed
    bad = check_coalition_optimality(spec, corner_profile(spec), 1, eps=1e-8)
    assert not bad.passed and bad.gap > 0.1
    with pytest.raises(SpecError, match="coalition optimality eps must be a number, got nan"):
        check_coalition_optimality(spec, profile, 1, eps=float("nan"))
    single = GameSpec(3, 3, 1.0, np.ones(3), LinearCost(), np.array([0.5, 0.5]))
    assert check_coalition_optimality(single, Profile.uniform(single), 1, eps=0.0).passed


def test_coalition_optimality_validates_index():
    """k that is not a whole number in [1, K] raises IndexError naming it, a
    zero-mass coalition UndefinedAverageError."""
    spec = GameSpec(3, 2, 1.0, np.array([2.3, 1, 1]), LinearCost(), np.array([0.5, 0.5, 0.0]))
    profile = corner_profile(spec)
    for k in (0, -1, 3, True, 1.5, "1", None, math.nan, math.inf):
        with pytest.raises(IndexError, match=f"coalition index {re.escape(repr(k))} "):
            check_coalition_optimality(spec, profile, k, eps=1.0)
    # A whole number of another type is the same index.
    for k in (1.0, np.int64(1), np.float64(1.0)):
        assert check_coalition_optimality(spec, profile, k, eps=1e-8) == (
            check_coalition_optimality(spec, profile, 1, eps=1e-8)
        )
    with pytest.raises(UndefinedAverageError):
        check_coalition_optimality(spec, profile, 2, eps=1.0)
    assert not check_coalition_optimality(spec, profile, 1, eps=1e-8).passed


# --- reports and orderings ---------------------------------------------------


def test_report_cost_ordering_at_full_coalition():
    inst = ThreeSlotInstance(1.5, 1.0, 1.0, 1.0, QuadraticCost())
    report = make_report(inst.to_game_spec(), equilibrium_profile(inst), SolverStatus.ANALYTIC)
    ordering = check_cost_ordering(report)
    assert ordering.passed
    # social equals the single coalition's cost when it holds all weight
    assert report.costs.social == pytest.approx(report.costs.coalitions[0], abs=1e-12)
    assert report.costs.individuals_extended
    assert report.reduced is not None
    assert report.reduced.individuals == pytest.approx(2.6917, abs=1e-3)
    assert report.reduced.social == pytest.approx(2.9668, abs=1e-3)


def test_report_costs_coincide_toward_vanishing_coalition():
    inst = ThreeSlotInstance(1.5, 1.0, 1.0, 0.01, QuadraticCost())
    report = make_report(inst.to_game_spec(), equilibrium_profile(inst), SolverStatus.ANALYTIC)
    assert report.reduced.individuals == pytest.approx(3.0625, abs=1e-9)
    assert report.reduced.social == pytest.approx(3.0625, abs=1e-9)
    assert report.reduced.coalitions[0] == pytest.approx(3.0625, abs=1e-9)


def test_cost_ordering_detects_violations():
    inst = ThreeSlotInstance(1.5, 1.0, 1.0, 1.0, QuadraticCost())
    report = make_report(inst.to_game_spec(), equilibrium_profile(inst), SolverStatus.ANALYTIC)
    broken = type(report.costs)(
        individuals=report.costs.social + 1.0,
        coalitions=report.costs.coalitions,
        social=report.costs.social,
    )
    import dataclasses

    tampered = report._replace(costs=broken)
    assert not check_cost_ordering(tampered).passed
    # A NaN tolerance fails no comparison, so it would pass the violation.
    with pytest.raises(SpecError, match="tol"):
        check_cost_ordering(tampered, tol=float("nan"))


def test_cost_ordering_tolerance_scales_with_the_social_cost():
    inst = ThreeSlotInstance(1.5, 1.0, 1.0, 1.0, AffineCost(QuadraticCost(), 1e300, 1e300))
    report = make_report(inst.to_game_spec(), equilibrium_profile(inst), SolverStatus.ANALYTIC)
    social = report.costs.social
    assert social > 1e300
    import dataclasses

    def with_costs(individuals, coalition):
        costs = type(report.costs)(individuals, (coalition,), social)
        return report._replace(costs=costs)

    # One ulp apart passes; a violation of 1e-3 relative fails either way round.
    ulp = float(np.spacing(social))
    assert check_cost_ordering(with_costs(social + ulp, social - ulp)).passed
    assert not check_cost_ordering(with_costs(social * (1 + 1e-3), social)).passed
    assert not check_cost_ordering(with_costs(social, social * (1 - 1e-3))).passed


def test_ordering_across_random_equilibria(rng):
    for _ in range(30):
        inst = random_three_slot(rng)
        report = make_report(
            inst.to_game_spec(), equilibrium_profile(inst), SolverStatus.ANALYTIC
        )
        assert check_cost_ordering(report, tol=1e-9).passed


# --- invariance and existence ------------------------------------------------


def test_affine_invariance_of_equilibria(rng):
    for _ in range(20):
        inst = random_three_slot(rng)
        transformed = ThreeSlotInstance(
            inst.peak_load,
            inst.mid_load,
            inst.offpeak_load,
            inst.coalition_size,
            AffineCost(inst.cost, 2.0, 3.0),
        )
        original = solve_ce(inst)
        shifted = solve_ce(transformed)
        assert shifted.coalition_on_peak == pytest.approx(
            original.coalition_on_peak, abs=1e-9
        )
        assert shifted.individuals_on_peak == pytest.approx(
            original.individuals_on_peak, abs=1e-9
        )


def test_every_random_game_admits_a_certified_point(rng):
    """Solver totality: some solver produces a small-gap point, 50 specs."""
    families = [LinearCost(), QuadraticCost(), ExponentialCost(rate=1.0)]
    solved = 0
    for trial in range(50):
        if trial % 5 == 0:
            # general shapes go to the learning dynamics
            horizon = int(rng.integers(2, 6))
            duration = int(rng.integers(1, horizon + 1))
            raw = rng.uniform(0.2, 1.0, size=2)
            spec = GameSpec(
                horizon,
                duration,
                float(rng.uniform(0.1, 1.0)),
                rng.uniform(0.0, 3.0, size=horizon),
                families[trial % 3],
                raw / raw.sum(),
            )
            report = solve_dynamics(spec, gap_tol=1e-6, max_iter=50_000)
            assert report.vi_gap <= 1e-5
        else:
            inst = random_three_slot(rng, family=["linear", "quadratic", "exponential"][trial % 3])
            profile = equilibrium_profile(inst)
            assert vi_gap(inst.to_game_spec(), profile) <= 1e-5
        solved += 1
    assert solved == 50
