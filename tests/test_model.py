"""Flow/load algebra, cost evaluations and their structural invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargegame import (
    AffineCost,
    CostSummary,
    Flow,
    GameSpec,
    LinearCost,
    Profile,
    QuadraticCost,
    ExponentialCost,
    SpecError,
    UndefinedAverageError,
    UnsupportedInstanceError,
    coalition_average_cost,
    decompose_loads,
    evaluate_costs,
    strategy_costs,
)
from chargegame.model import reduced_costs, validate_profile
from conftest import random_profile, random_three_slot


def three_slot_spec(cost=None, weights=(1.0,), base=(1.5, 1.0, 1.0)):
    return GameSpec(
        horizon=3,
        duration=2,
        power=1.0,
        base_load=np.array(base),
        cost=cost or QuadraticCost(),
        weights=np.array(weights),
    )


# --- per-player charging loads ---------------------------------------------


def test_charging_load_expands_two_slot_window():
    spec = three_slot_spec()
    y = decompose_loads(spec, Profile.from_rows(spec, [[0.3, 0.7]])).per_player[0]
    np.testing.assert_allclose(y, [0.3, 1.0, 0.7], atol=1e-15)


def test_charging_load_single_start_covers_duration():
    spec = GameSpec(7, 3, 0.2, np.zeros(7), LinearCost(), np.array([0.4, 0.6]))
    profile = Profile.from_rows(spec, [[0.4, 0, 0, 0, 0], [0.6, 0, 0, 0, 0]])
    y = decompose_loads(spec, profile).per_player[1]
    np.testing.assert_allclose(y, [0.6, 0.6, 0.6, 0, 0, 0, 0], atol=1e-15)


def test_charging_load_second_alternative():
    spec = three_slot_spec(weights=(0.0, 1.0))
    y = decompose_loads(spec, Profile.from_rows(spec, [[0.0, 0.0], [0.0, 1.0]])).per_player[1]
    np.testing.assert_allclose(y, [0.0, 1.0, 1.0], atol=1e-15)


def test_charging_load_rejects_wrong_length():
    spec = three_slot_spec()
    with pytest.raises(SpecError):
        decompose_loads(spec, Profile((Flow(np.array([0.5, 0.25, 0.25]), 1.0),)))


# --- decompose_loads --------------------------------------------------------


def test_decompose_sums_player_loads():
    spec = three_slot_spec(weights=(0.75, 0.25))
    profile = Profile.from_rows(spec, [[0.25, 0.5], [0.05, 0.2]])
    loads = decompose_loads(spec, profile)
    np.testing.assert_allclose(loads.aggregate, [0.30, 1.00, 0.70], atol=1e-15)


def test_decompose_all_on_first_start():
    spec = GameSpec(6, 2, 0.5, np.zeros(6), LinearCost(), np.array([0.5, 0.5]))
    profile = Profile(
        tuple(Flow.concentrated(m, spec.num_start_slots, 0) for m in spec.weights)
    )
    loads = decompose_loads(spec, profile)
    np.testing.assert_allclose(loads.aggregate, [1, 1, 0, 0, 0, 0], atol=1e-15)


def test_uniform_flow_fills_interior_evenly():
    spec = GameSpec(8, 3, 0.1, np.zeros(8), LinearCost(), np.array([1.0]))
    loads = decompose_loads(spec, Profile.uniform(spec))
    expected = spec.duration / spec.num_start_slots
    np.testing.assert_allclose(
        loads.aggregate[spec.duration - 1 : spec.num_start_slots],
        expected,
        atol=1e-12,
    )


def test_mass_conservation_and_aggregate_bounds(rng):
    for _ in range(20):
        inst = random_three_slot(rng)
        spec = inst.to_game_spec()
        loads = decompose_loads(spec, random_profile(rng, spec))
        row_sums = loads.per_player.sum(axis=1)
        np.testing.assert_allclose(row_sums, spec.duration * spec.weights, atol=1e-12)
        assert loads.aggregate.sum() == pytest.approx(spec.duration, abs=1e-12)
        assert loads.aggregate.min() >= -1e-12
        assert loads.aggregate.max() <= 1.0 + 1e-12


# --- strategy costs ---------------------------------------------------------


def test_strategy_cost_quadratic_equal_cost_point():
    # The interior point where both alternatives cost the same.
    spec = three_slot_spec()
    profile = Profile.from_rows(spec, [[0.25, 0.75]])
    costs = strategy_costs(spec, profile)
    assert costs[0] == pytest.approx(7.0625, abs=1e-12)
    assert costs[1] == pytest.approx(7.0625, abs=1e-12)


def test_strategy_cost_zero_power_reads_base_load():
    spec = GameSpec(3, 2, 0.0, np.array([2.3, 1, 1]), LinearCost(), np.array([1.0]))
    profile = Profile.uniform(spec)
    costs = strategy_costs(spec, profile)
    assert costs[0] == pytest.approx(3.3)
    assert costs[1] == pytest.approx(2.0)


def test_strategy_costs_constant_when_slots_symmetric():
    spec = GameSpec(4, 1, 0.5, np.full(4, 2.0), QuadraticCost(), np.array([1.0]))
    costs = strategy_costs(spec, Profile.uniform(spec))
    np.testing.assert_allclose(costs, costs[0])


# --- entity costs -----------------------------------------------------------


def test_coalition_cost_point_mass_equals_strategy_cost():
    spec = three_slot_spec(weights=(0.5, 0.5))
    profile = Profile.from_rows(spec, [[0.25, 0.25], [0.5, 0.0]])
    assert coalition_average_cost(spec, profile, 1) == pytest.approx(
        strategy_costs(spec, profile)[0], abs=1e-12
    )


def test_coalition_cost_at_quadratic_optimum():
    # Full-coalition optimizer of the Joule-loss instance.
    spec = three_slot_spec(weights=(0.0, 1.0))
    profile = Profile.from_rows(spec, [[0.0, 0.0], [0.359375, 0.640625]])
    assert coalition_average_cost(spec, profile, 1) == pytest.approx(6.9668, abs=1e-3)


def test_coalition_cost_even_split_over_equal_alternatives():
    spec = three_slot_spec(
        cost=LinearCost(), weights=(0.0, 1.0), base=(1.0, 1.0, 1.0)
    )
    profile = Profile.from_rows(spec, [[0.0, 0.0], [0.5, 0.5]])
    costs = strategy_costs(spec, profile)
    assert costs[0] == pytest.approx(costs[1], abs=1e-12)
    assert coalition_average_cost(spec, profile, 1) == pytest.approx(
        costs[0], abs=1e-12
    )


def test_zero_mass_queries_raise():
    spec2 = three_slot_spec(weights=(1.0, 0.0))
    profile2 = Profile.from_rows(spec2, [[0.5, 0.5], [0, 0]])
    with pytest.raises(UndefinedAverageError):
        coalition_average_cost(spec2, profile2, 1)
    with pytest.raises(IndexError):
        coalition_average_cost(spec2, profile2, 2)


def test_individuals_cost_examples():
    spec = three_slot_spec()
    concentrated = Profile.from_rows(spec, [[1.0, 0.0]])
    assert evaluate_costs(spec, concentrated).individuals == pytest.approx(
        strategy_costs(spec, concentrated)[0], abs=1e-12
    )
    wardrop = Profile.from_rows(spec, [[0.25, 0.75]])
    assert evaluate_costs(spec, wardrop).individuals == pytest.approx(7.0625, abs=1e-12)


def test_social_cost_zero_when_nothing_costs_anything():
    spec = GameSpec(3, 2, 0.0, np.zeros(3), QuadraticCost(), np.array([1.0]))
    assert evaluate_costs(spec, Profile.uniform(spec)).social == 0.0


def test_social_cost_equals_full_coalition_cost():
    spec = three_slot_spec(weights=(0.0, 1.0))
    profile = Profile.from_rows(spec, [[0, 0], [0.3, 0.7]])
    assert evaluate_costs(spec, profile).social == pytest.approx(
        coalition_average_cost(spec, profile, 1), abs=1e-12
    )


def test_social_cost_arithmetic_example():
    spec = three_slot_spec()
    profile = Profile.from_rows(spec, [[0.25, 0.75]])
    expected = 0.25 * 1.75**2 + 1.0 * 4.0 + 0.75 * 1.75**2
    assert evaluate_costs(spec, profile).social == pytest.approx(expected, abs=1e-12)


def test_flow_and_load_cost_forms_agree(rng):
    for _ in range(25):
        inst = random_three_slot(rng)
        spec = inst.to_game_spec()
        profile = random_profile(rng, spec)
        loads = decompose_loads(spec, profile)
        prices = spec.cost.value(spec.base_load + spec.power * loads.aggregate)
        for k in range(1, spec.num_players):
            if spec.weights[k] <= 0:
                continue
            load_form = float(loads.per_player[k] @ prices) / spec.weights[k]
            flow_form = coalition_average_cost(spec, profile, k)
            assert flow_form == pytest.approx(load_form, abs=1e-9)


def test_cost_forms_agree_on_random_games(rng):
    """Coalition costs summed by start (flow form) and by slot (load form)
    agree on random games, and evaluate_costs matches the per-entity
    formulas exactly."""
    families = [LinearCost(1.3, 0.2), QuadraticCost(), ExponentialCost(rate=0.7),
                AffineCost(QuadraticCost(), 2.0, -0.5)]
    for _ in range(60):
        horizon = int(rng.integers(1, 9))
        raw = rng.uniform(0.0, 1.0, size=int(rng.integers(2, 5)))
        raw[1:][rng.uniform(size=raw.size - 1) < 0.25] = 0.0  # zero-mass coalitions
        spec = GameSpec(
            horizon,
            int(rng.integers(1, horizon + 1)),
            float(rng.uniform(0.1, 1.5)),
            rng.uniform(0.0, 2.0, size=horizon),
            families[int(rng.integers(0, len(families)))],
            raw / raw.sum(),
        )
        profile = random_profile(rng, spec)
        loads = decompose_loads(spec, profile)
        prices = spec.cost.value(spec.base_load + spec.power * loads.aggregate)
        summary = evaluate_costs(spec, profile)
        individuals = float(profile.flows[0].values @ strategy_costs(spec, profile))
        assert summary.individuals == individuals / float(spec.weights[0])
        assert summary.social == float(loads.aggregate @ prices)
        for k in range(1, spec.num_players):
            if spec.weights[k] <= 0:
                assert summary.coalitions[k - 1] is None
                continue
            flow_form = coalition_average_cost(spec, profile, k)
            load_form = float(loads.per_player[k] @ prices) / spec.weights[k]
            assert abs(flow_form - load_form) <= 1e-9 * max(1.0, abs(flow_form))
            assert summary.coalitions[k - 1] == flow_form


def test_weighted_average_identity(rng):
    for _ in range(25):
        inst = random_three_slot(rng)
        spec = inst.to_game_spec()
        profile = random_profile(rng, spec)
        summary = evaluate_costs(spec, profile)
        total = 0.0
        if not summary.individuals_extended:
            total += spec.weights[0] * summary.individuals
        total += sum(
            spec.weights[k] * value
            for k, value in enumerate(summary.coalitions, start=1)
            if value is not None
        )
        assert total == pytest.approx(summary.social, abs=1e-9)


# --- reduced costs ----------------------------------------------------------


def test_reduced_costs_subtract_middle_slot_term():
    spec = three_slot_spec()
    profile = Profile.from_rows(spec, [[0.25, 0.75]])
    summary = evaluate_costs(spec, profile)
    reduced = reduced_costs(spec, summary)
    assert summary.individuals - reduced.individuals == pytest.approx(4.0)
    assert reduced.social == pytest.approx(3.0625, abs=1e-12)
    zero = CostSummary(0.0, (), 0.0)
    linear = three_slot_spec(cost=LinearCost())
    assert -reduced_costs(linear, zero).social == pytest.approx(2.0)
    expo = three_slot_spec(cost=ExponentialCost(rate=1.0))
    assert -reduced_costs(expo, zero).social == pytest.approx(np.exp(2.0))


def test_reduced_costs_reject_other_shapes():
    spec = GameSpec(4, 2, 1.0, np.ones(4), QuadraticCost(), np.array([1.0]))
    with pytest.raises(UnsupportedInstanceError):
        reduced_costs(spec, CostSummary(1.0, (), 1.0))
    off_power = GameSpec(3, 2, 2.0, np.ones(3), QuadraticCost(), np.array([1.0]))
    with pytest.raises(UnsupportedInstanceError):
        reduced_costs(off_power, CostSummary(1.0, (), 1.0))


# --- validation and immutability --------------------------------------------


def test_game_spec_validation():
    with pytest.raises(SpecError):
        GameSpec(3, 4, 1.0, np.ones(3), QuadraticCost(), np.array([1.0]))
    with pytest.raises(SpecError):
        GameSpec(3, 2, 1.0, np.ones(3), QuadraticCost(), np.array([0.7, 0.7]))
    with pytest.raises(SpecError):
        GameSpec(3, 2, 1.0, np.array([1.0, -0.5, 1.0]), QuadraticCost(), np.array([1.0]))
    with pytest.raises(SpecError):
        GameSpec(3, 2, -1.0, np.ones(3), QuadraticCost(), np.array([1.0]))
    with pytest.raises(SpecError):
        GameSpec(
            3, 2, 1.0, np.ones(3), QuadraticCost(domain_bound=1.5), np.array([1.0])
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_game_spec_refuses_non_finite_numbers(bad):
    # inf >= 0 holds and every comparison with NaN fails, so each field
    # needs its own finiteness check.
    with pytest.raises(SpecError, match="power must be finite"):
        GameSpec(3, 2, bad, np.ones(3), QuadraticCost(), np.array([1.0]))
    with pytest.raises(SpecError, match="weights must be finite"):
        GameSpec(3, 2, 1.0, np.ones(3), QuadraticCost(), np.array([bad, bad]))
    with pytest.raises(SpecError, match="base_load entries must be finite"):
        GameSpec(3, 2, 1.0, np.array([bad, 1.0, 1.0]), QuadraticCost(), np.array([1.0]))
    with pytest.raises(SpecError, match="flow entries must be finite"):
        Flow(np.array([bad, 1.0]), 1.0)
    with pytest.raises(SpecError, match="flow mass must be finite"):
        Flow(np.array([0.5, 0.5]), bad)


def test_game_spec_resolves_domain_bound():
    spec = three_slot_spec()
    assert spec.cost.domain_bound == pytest.approx(10.0 * 2.5)


def test_profile_validation():
    spec = three_slot_spec(weights=(0.5, 0.5))
    with pytest.raises(SpecError):
        validate_profile(spec, Profile.from_rows(three_slot_spec(), [[0.5, 0.5]]))
    mismatched = Profile((Flow(np.array([0.3, 0.3]), 0.6), Flow(np.array([0.2, 0.2]), 0.4)))
    with pytest.raises(SpecError):
        validate_profile(spec, mismatched)


def test_flow_rejects_bad_inputs():
    with pytest.raises(SpecError):
        Flow(np.array([0.5, -0.2]), 0.3)
    with pytest.raises(SpecError):
        Flow(np.array([0.5, 0.4]), 1.0)
    with pytest.raises(SpecError):
        Flow(np.array([0.5, 0.5]), -1.0)


def test_flow_renormalizes_drift():
    drifted = np.array([0.5 + 3e-10, 0.5 + 3e-10])
    flow = Flow(drifted, 1.0)
    assert flow.values.sum() == pytest.approx(1.0, abs=1e-15)


def test_spec_arrays_are_read_only():
    spec = three_slot_spec()
    with pytest.raises(ValueError):
        spec.base_load[0] = 9.0
    flow = Flow(np.array([0.5, 0.5]), 1.0)
    with pytest.raises(ValueError):
        flow.values[0] = 2.0


@settings(max_examples=60, deadline=None)
@given(
    raw=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8),
    mass=st.floats(min_value=1e-6, max_value=1.0),
)
def test_flow_scaling_lands_on_simplex(raw, mass):
    total = sum(raw)
    if total <= 0:
        values = [mass / len(raw)] * len(raw)
    else:
        # Normalize before scaling: mass * v underflows for subnormal v.
        values = [mass * (v / total) for v in raw]
    flow = Flow(np.array(values), mass)
    assert abs(float(flow.values.sum()) - mass) <= 1e-12
    assert float(flow.values.min()) >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=5),
    duration=st.integers(min_value=1, max_value=4),
)
def test_charging_load_conserves_mass(weights, duration):
    values = np.array(weights)
    mass = float(values.sum())
    spec = GameSpec(
        horizon=len(weights) + duration - 1,
        duration=duration,
        power=0.0,
        base_load=np.zeros(len(weights) + duration - 1),
        cost=LinearCost(),
        weights=np.array([1.0]),
    )
    y = decompose_loads(spec, Profile((Flow(values * (1.0 / mass), 1.0),))).per_player[0]
    assert float(y.sum()) == pytest.approx(duration, rel=1e-12)
