"""Closed-form equilibrium: regime dispatch, roots, costs and uniqueness."""

import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from chargegame import (
    AffineCost,
    BracketingError,
    CustomCost,
    ExponentialCost,
    LinearCost,
    NumericsError,
    Profile,
    QuadraticCost,
    Regime,
    SpecError,
    ThreeSlotInstance,
    activation_threshold,
    ce_costs,
    classify,
    coalition_average_cost,
    default_grid,
    equilibrium_profile,
    instance_from_spec,
    mixing_band,
    solve_ce,
    vi_gap,
    with_coalition_size,
)
from chargegame import threeslot
from chargegame.threeslot import (
    BISECTION_TOL,
    ROOT_EPS,
    CEPoint,
    _grid_solution,
    _regime,
    marginal_imbalance,
)
from conftest import random_three_slot

GAP_INSTANCE = dict(peak_load=2.3, mid_load=1.0, offpeak_load=1.0)
BAND_INSTANCE = dict(peak_load=1.5, mid_load=1.0, offpeak_load=1.0)
EPS = np.finfo(float).eps


def linear_gap(m):
    return ThreeSlotInstance(coalition_size=m, cost=LinearCost(), **GAP_INSTANCE)


def linear_band(m):
    return ThreeSlotInstance(coalition_size=m, cost=LinearCost(), **BAND_INSTANCE)


# --- gapped instance (first slot at least one unit above the last) ----------


def test_small_coalition_stays_offpeak():
    point = solve_ce(linear_gap(0.2))
    assert point.regime is Regime.ALL_OFFPEAK
    assert point.coalition_on_peak == 0.0
    assert point.individuals_on_peak == 0.0


def test_linear_activation_threshold():
    assert activation_threshold(linear_gap(0.5)) == pytest.approx(0.3, abs=1e-15)


def test_linear_gap_closed_form():
    # Balance slope-one prices: peak + 2 x = offpeak crowding side.
    for m in (0.4, 0.7, 1.0):
        point = solve_ce(linear_gap(m))
        assert point.regime is Regime.COALITION_SPLIT
        assert point.coalition_on_peak == pytest.approx((m - 0.3) / 4.0, abs=1e-9)
        assert point.individuals_on_peak == 0.0
    assert solve_ce(linear_gap(1.0)).coalition_on_peak == pytest.approx(
        0.175, abs=1e-9
    )


def exact_linear_split(inst):
    """The linear family's split root, solved exactly from the float
    inputs: the imbalance is slope * (4 x + peak - 1 - offpeak - M)."""
    loads = Fraction(1) + Fraction(inst.offpeak_load) - Fraction(inst.peak_load)
    return (loads + Fraction(inst.coalition_size)) / 4


def gapped_linear_instances(rng):
    """The shipped gap sweep's instance, then random gapped linear ones
    whose activation threshold lies below one, a zero threshold included."""
    yield linear_gap(0.5)
    for case in range(200):
        offpeak = rng.uniform(0.0, 2.0)
        gap = 1.0 if case % 10 == 0 else 1.0 + rng.uniform(0.0, 0.9)
        cost = LinearCost(slope=rng.uniform(0.5, 2.0), intercept=rng.uniform(0.0, 1.0))
        yield ThreeSlotInstance(offpeak + gap, rng.uniform(0.0, 3.0), offpeak, 0.5, cost)


def test_linear_split_is_the_exact_root(rng):
    """Every gapped linear split point lies within 8 eps * (1 + peak +
    offpeak + M) of the exact rational root: false position lands on it in
    one step, up to the rounding of its inputs.  (A bound in ulps would not
    hold where the root is tiny, just past the threshold.)"""
    checked = 0
    for inst in gapped_linear_instances(rng):
        sizes = default_grid()
        gapped, x1, _, split = _grid_solution(inst, sizes)
        assert gapped
        for m, x in zip(sizes[split].tolist(), x1[split].tolist()):
            at = with_coalition_size(inst, m)
            bound = 8.0 * EPS * (1.0 + at.peak_load + at.offpeak_load + m)
            assert abs(Fraction(x) - exact_linear_split(at)) <= bound
            checked += 1
    assert checked > 5000


# --- banded instance (gap below one, individuals may mix) -------------------


def test_shared_peak_closed_form():
    point = solve_ce(linear_band(0.3))
    assert point.regime is Regime.SHARED_PEAK
    assert point.coalition_on_peak == pytest.approx(0.15, abs=1e-15)
    assert point.individuals_on_peak == pytest.approx(0.1, abs=1e-15)


def test_saturated_split_linear():
    point = solve_ce(linear_band(1.0))
    assert point.regime is Regime.SATURATED_SPLIT
    assert point.coalition_on_peak == pytest.approx(0.375, abs=1e-9)
    assert point.individuals_on_peak == 0.0


def test_quadratic_full_coalition_root():
    inst = ThreeSlotInstance(coalition_size=1.0, cost=QuadraticCost(), **BAND_INSTANCE)
    point = solve_ce(inst)
    assert point.coalition_on_peak == pytest.approx(23.0 / 64.0, abs=1e-9)


def test_quadratic_root_against_brute_force_grid():
    """Grid minimization of the coalition's cost confirms the root."""
    inst = ThreeSlotInstance(coalition_size=1.0, cost=QuadraticCost(), **BAND_INSTANCE)
    spec = inst.to_game_spec()
    splits = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    best, best_cost = None, np.inf
    for split in splits:
        profile = Profile.from_rows(spec, [[0.0, 0.0], [split, 1.0 - split]])
        cost = coalition_average_cost(spec, profile, 1)
        if cost < best_cost:
            best, best_cost = split, cost
    assert best == pytest.approx(0.359375, abs=1e-3)


# --- equilibrium costs ------------------------------------------------------


def test_costs_coincide_in_shared_regime():
    inst = ThreeSlotInstance(coalition_size=0.01, cost=QuadraticCost(), **BAND_INSTANCE)
    costs = ce_costs(inst, solve_ce(inst))
    for value in costs:
        assert value == pytest.approx(3.0625, abs=1e-12)


def test_costs_coincide_in_offpeak_corner():
    inst = linear_gap(0.2)
    costs = ce_costs(inst, solve_ce(inst))
    for value in costs:
        assert value == pytest.approx(2.0, abs=1e-12)


def test_quadratic_full_coalition_costs():
    inst = ThreeSlotInstance(coalition_size=1.0, cost=QuadraticCost(), **BAND_INSTANCE)
    costs = ce_costs(inst, solve_ce(inst))
    assert costs.social == pytest.approx(2.9668, abs=1e-3)
    assert costs.coalition == pytest.approx(2.9668, abs=1e-3)
    assert costs.individuals == pytest.approx(2.6917, abs=1e-3)
    # deviation benefit quoted for this instance: about nine percent
    benefit = (costs.coalition - costs.individuals) / costs.coalition
    assert benefit == pytest.approx(0.09, abs=0.01)


def test_cost_ordering_at_equilibria(rng):
    for _ in range(30):
        inst = random_three_slot(rng)
        costs = ce_costs(inst, solve_ce(inst))
        assert costs.individuals <= costs.social + 1e-9
        assert costs.social <= costs.coalition + 1e-9


def test_ce_costs_rejects_mismatched_point():
    inst = linear_gap(0.2)
    wrong = solve_ce(linear_gap(1.0))
    with pytest.raises(SpecError):
        ce_costs(inst, wrong)
    # A split point must put its coalition weight in [0, M] and no
    # individual weight on the peak.
    split = linear_gap(1.0)
    for x1, x0 in ((1.5, 0.0), (-0.1, 0.0), (0.5, 0.1)):
        with pytest.raises(SpecError, match="inconsistent with a split regime"):
            ce_costs(split, CEPoint(x1, x0, Regime.COALITION_SPLIT))


def test_a_whole_number_coalition_size_solves_as_its_float():
    # The gapped grid's arrays are floats whatever the size's type.
    assert solve_ce(linear_gap(1)) == solve_ce(linear_gap(1.0))


# --- structure of the stationarity function ---------------------------------


def test_imbalance_strictly_increasing_and_bracketed(rng):
    for _ in range(20):
        inst = random_three_slot(rng)
        regime = classify(inst)
        if regime is Regime.COALITION_SPLIT:
            lo, hi = 0.0, inst.coalition_size
        elif regime is Regime.SATURATED_SPLIT:
            lo, hi = mixing_band(inst) / 2.0, inst.coalition_size / 2.0
        else:
            continue
        if hi - lo < 1e-9:
            continue
        xs = np.linspace(lo, hi, 100)
        values = [marginal_imbalance(inst, x) for x in xs]
        assert np.diff(values).min() > 0
        assert values[0] <= 1e-9
        assert values[-1] >= -1e-9


def test_individuals_weight_independent_of_cost_family(rng):
    for _ in range(10):
        base = random_three_slot(rng, family="linear")
        points = []
        for cost in (LinearCost(), QuadraticCost(), ExponentialCost(rate=1.0)):
            inst = ThreeSlotInstance(
                base.peak_load, base.mid_load, base.offpeak_load,
                base.coalition_size, cost,
            )
            points.append(solve_ce(inst).individuals_on_peak)
        assert max(points) - min(points) <= 1e-12


def test_regime_boundary_continuity():
    # Band boundary: both formulas give half the band.
    for cost in (LinearCost(), QuadraticCost(), ExponentialCost(rate=1.0)):
        inst = ThreeSlotInstance(1.5, 1.0, 1.0, 0.5, cost)
        assert classify(inst) is Regime.SATURATED_SPLIT
        point = solve_ce(inst)
        assert point.coalition_on_peak == pytest.approx(0.25, abs=1e-9)
        below = solve_ce(with_coalition_size(inst, 0.5 - 1e-9))
        assert below.coalition_on_peak == pytest.approx(0.25, abs=1e-9)
    # Activation boundary: the root leaves zero continuously.
    for cost in (LinearCost(), QuadraticCost(), ExponentialCost(rate=1.0)):
        probe = ThreeSlotInstance(2.3, 1.0, 1.0, 0.5, cost)
        theta = activation_threshold(probe)
        at = solve_ce(with_coalition_size(probe, theta))
        assert at.coalition_on_peak == 0.0
        above = solve_ce(with_coalition_size(probe, min(theta + 1e-9, 1.0)))
        assert above.coalition_on_peak == pytest.approx(0.0, abs=1e-9)


def test_tie_between_cases_routes_to_gap_case():
    inst = ThreeSlotInstance(2.0, 1.0, 1.0, 0.5, LinearCost())
    assert classify(inst) in (Regime.ALL_OFFPEAK, Regime.COALITION_SPLIT)
    # threshold is zero here, so any positive coalition splits
    assert classify(inst) is Regime.COALITION_SPLIT
    point = solve_ce(inst)
    assert point.coalition_on_peak == pytest.approx(0.5 / 4.0, abs=1e-9)


# --- the array false-position loop against a scalar loop ---------------------


def magnitude(inst, x):
    """The sum of the magnitudes of the four terms of the imbalance at split
    ``x``: the scale of its rounding."""
    f, m = inst.cost, inst.coalition_size
    peak, offpeak = inst.peak_load + x, 1.0 + inst.offpeak_load - x
    return (abs(f.value(peak)) + abs(x * f.derivative(peak))) + (
        abs(f.value(offpeak)) + abs((m - x) * f.derivative(offpeak))
    )


def scalar_split(inst):
    """The interior root by a plain scalar false-position loop: the bracket
    of the regime, its ends' rounding-slack test, and the array loop's steps
    and stop rule, one float operation at a time."""
    m = inst.coalition_size
    if classify(inst) is Regime.COALITION_SPLIT:
        lo, hi = 0.0, m
    else:
        lo, hi = mixing_band(inst) / 2.0, m / 2.0
    if hi - lo <= BISECTION_TOL:
        return (lo + hi) / 2.0
    f_lo, f_hi = marginal_imbalance(inst, lo), marginal_imbalance(inst, hi)
    if f_lo > 0.0:
        assert f_lo <= 1e-9 * (1.0 + magnitude(inst, lo))
        return lo
    if f_hi < 0.0:
        assert f_hi >= -1e-9 * (1.0 + magnitude(inst, hi))
        return hi
    a, b, fa, fb = lo, hi, np.float64(f_lo), np.float64(f_hi)
    previous, previous_size, fails = math.nan, math.inf, 0
    for _ in range(1000):
        width = b - a
        halve = fails >= 2
        with np.errstate(invalid="ignore"):
            share = 0.5 if halve else fa / (fa - fb)
        x = float(np.fmin(np.fmax(a + share * width, a), b))
        imbalance = np.float64(marginal_imbalance(inst, x))
        size = abs(imbalance)
        if size <= ROOT_EPS * magnitude(inst, x) or x == previous:
            return x
        low = imbalance < 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = 1.0 if halve else 1.0 - imbalance / (fa if low else fb)
        kept = (fb if low else fa) * (ratio if ratio > 0.0 else 0.5)
        if low:
            a, fa, fb = x, imbalance, kept
        else:
            b, fb, fa = x, imbalance, kept
        if b - a <= BISECTION_TOL:
            return x
        progress = halve or b - a <= 0.5 * width or size <= 0.5 * previous_size
        fails = 0 if progress else fails + 1
        previous, previous_size = x, size
    raise AssertionError("the scalar loop did not stop")


def custom_family(rng):
    """A cubic or an exponential-plus-quadratic CustomCost with its
    derivative, valid over every load a random three-slot game reaches."""
    if rng.uniform() < 0.5:
        c = rng.uniform(0.1, 1.0)
        return CustomCost(lambda x: x * x * x + c * x, lambda x: 3.0 * x * x + c, domain_bound=5.0)
    r = rng.uniform(0.3, 1.2)
    return CustomCost(
        lambda x: np.exp(r * x) + x * x, lambda x: r * np.exp(r * x) + 2.0 * x, domain_bound=5.0
    )


def split_cases(rng):
    """Three-slot instances with grids whose interior brackets mix widths:
    random sizes, sizes at and just past the regime edge (brackets below
    BISECTION_TOL and just above it) and the default grid.  The families
    cover the named ones, AffineCost around each and CustomCost."""
    for case in range(60):
        inst = random_three_slot(rng)
        if case % 3 == 1:
            inst = replace(
                inst, cost=AffineCost(inst.cost, rng.uniform(0.2, 3.0), rng.uniform(-1.0, 1.0))
            )
        elif case % 3 == 2:
            inst = replace(inst, cost=custom_family(rng))
        if case % 10 == 0:  # gapped with a zero threshold: brackets [0, m] of any width
            inst = replace(inst, peak_load=inst.offpeak_load + 1.0)
        sizes = np.sort(np.append(rng.uniform(0.01, 1.0, 12), 1.0))
        if case % 20 == 0:
            sizes = default_grid()
        edge = mixing_band(inst)
        if inst.peak_load >= inst.offpeak_load + 1.0:
            edge = activation_threshold(inst)
        near = [edge, np.nextafter(edge, 2.0), edge + 1e-9]
        near += [edge + k * BISECTION_TOL for k in (0.5, 1.0, 1.5, 2.0, 3.0, 4.5, 9.0, 40.0)]
        yield inst, np.unique(np.append(sizes, [m for m in near if 1e-13 <= m <= 1.0]))


def test_array_false_position_matches_a_scalar_loop(rng):
    """solve_ce alone and in a grid give the scalar loop's root bit for bit,
    also where sub-tolerance brackets and brackets of a few steps share a
    grid with wide ones, so finished brackets must stay put."""
    checked, short = 0, 0
    for inst, sizes in split_cases(rng):
        gapped, x1, x0, split = _grid_solution(inst, sizes)
        for m, a, b, s in zip(sizes.tolist(), x1.tolist(), x0.tolist(), split.tolist()):
            at = with_coalition_size(inst, m)
            point = solve_ce(at)
            assert repr(CEPoint(a, b, _regime(gapped, s))) == repr(point)
            if point.regime in (Regime.COALITION_SPLIT, Regime.SATURATED_SPLIT):
                assert repr(point.coalition_on_peak) == repr(float(scalar_split(at)))
                checked += 1
        widths = (sizes - (0.0 if gapped else mixing_band(inst))) / (1.0 if gapped else 2.0)
        short += np.any(split & (widths <= 4.0 * BISECTION_TOL)) and np.any(widths > 1e-3)
    assert checked > 800
    assert short > 20


def loop_steps(inst, sizes):
    """False-position steps on the grid ``sizes`` of ``inst``: the
    stationarity function calls the raw f and f' itself once per step and
    nowhere else (the checked pair at the bracket ends calls them from
    CostFunction._pair)."""
    cost, calls = inst.cost, []
    raw = cost._raw_pair

    def counting(load):
        calls.append(sys._getframe(1).f_code is threeslot._stationarity.__code__)
        return raw(load)

    object.__setattr__(cost, "_raw_pair", counting)  # the families are frozen
    try:
        _grid_solution(inst, sizes)
    finally:
        object.__delattr__(cost, "_raw_pair")
    return sum(calls)


def test_false_position_takes_a_few_steps_per_grid(rng):
    """A whole grid of named, affine or custom families takes at most five
    steps, and a linear or quadratic one a single step: their imbalance is
    linear in the split, so the first chord crosses zero at the root.  More
    steps mean the safeguard or the stop rule regressed."""
    steps = {}
    for inst, sizes in split_cases(rng):
        family = type(inst.cost).__name__
        steps[family] = max(steps.get(family, 0), loop_steps(inst, sizes))
    assert steps["LinearCost"] == steps["QuadraticCost"] == 1
    assert max(steps.values()) <= 5
    assert set(steps) == {"LinearCost", "QuadraticCost", "ExponentialCost", "AffineCost", "CustomCost"}


def test_a_jump_in_the_slope_at_the_root_ends_by_halving():
    """A derivative that jumps at the root leaves the imbalance no zero to
    find: false position alone crawls toward the jump, and the halving
    steps end the loop with the bracket around it."""
    jump = 0.2  # f' jumps at the peak load 2 + jump, and F jumps across zero
    cost = CustomCost(lambda x: x + 0.0, lambda x: np.where(x > 2.0 + jump, 1e3, 1.0), 5.0)
    inst = ThreeSlotInstance(2.0, 1.0, 1.0, 0.9, cost)
    steps = loop_steps(inst, np.array([0.9]))
    assert 40 < steps <= 130
    assert abs(solve_ce(inst).coalition_on_peak - jump) <= BISECTION_TOL


@pytest.mark.parametrize(
    "loads, m, bound",
    [
        ((1.5, 1.0, 1.0), 0.9, 2.2),  # band 0.5: bracket loads in [1.55, 1.95]
        ((1.5, 1.0, 1.0), 0.9, None),
        ((1.8, 1.0, 0.9), 0.7, None),
        ((2.5, 1.0, 1.0), 0.8, None),  # gapped: bracket [0, m]
        ((1.8, 0.5, 0.3), 0.7, None),
    ],
)
def test_a_domain_bound_at_the_reached_loads_solves(loads, m, bound):
    """The closed form evaluates f only at loads its brackets or its
    equilibrium reach, the largest being peak + hi (``bound`` None): a
    custom family valid up to there gives the point of a loosely bounded
    one, bit for bit."""
    loose = ThreeSlotInstance(*loads, m, CustomCost(lambda x: x * x, lambda x: 2 * x, 10.0))
    regime = classify(loose)
    assert regime in (Regime.COALITION_SPLIT, Regime.SATURATED_SPLIT)
    reach = loads[0] + (m if regime is Regime.COALITION_SPLIT else m / 2.0)
    tight = replace(loose, cost=replace(loose.cost, domain_bound=bound or reach))
    assert repr(solve_ce(tight)) == repr(solve_ce(loose))


# --- certification ----------------------------------------------------------


def test_solved_points_certify_with_small_gap(rng):
    for _ in range(25):
        inst = random_three_slot(rng)
        profile = equilibrium_profile(inst)
        assert vi_gap(inst.to_game_spec(), profile) <= 1e-8


def test_instance_validation():
    with pytest.raises(SpecError):
        ThreeSlotInstance(1.0, 1.0, 2.0, 0.5, LinearCost())
    with pytest.raises(SpecError):
        ThreeSlotInstance(2.0, 1.0, 1.0, 0.0, LinearCost())
    with pytest.raises(SpecError):
        ThreeSlotInstance(2.0, 1.0, 1.0, 1.5, LinearCost())
    with pytest.raises(SpecError):
        ThreeSlotInstance(-1.0, 1.0, -2.0, 0.5, LinearCost())
    # Without a cost family the closed form would answer without evaluating one.
    for cost in (None, "linear"):
        with pytest.raises(SpecError, match="cost must be a CostFunction"):
            ThreeSlotInstance(1.5, 1.0, 1.0, 0.5, cost)


@pytest.mark.parametrize("slot", range(3))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_instance_refuses_non_finite_loads(slot, bad):
    loads = [2.0, 1.0, 1.0]
    loads[slot] = bad
    with pytest.raises(SpecError, match="slot loads must be finite"):
        ThreeSlotInstance(*loads, 0.5, LinearCost())


def test_instance_from_spec_requires_normalized_shape():
    import chargegame as cg

    spec = cg.GameSpec(3, 2, 2.0, np.ones(3), QuadraticCost(), np.array([0.5, 0.5]))
    with pytest.raises(SpecError):
        instance_from_spec(spec, 0.5)


def test_overflowing_threshold_raises_from_classify():
    # f(peak) and f(1 + offpeak) both overflow, so the activation threshold
    # is inf / inf.  RuntimeWarnings are errors in this suite, so the error
    # must come without one.
    inst = ThreeSlotInstance(2.3, 1.0, 1.0, 0.5, ExponentialCost(rate=400))
    with pytest.raises(NumericsError, match="activation threshold"):
        classify(inst)
    with pytest.raises(NumericsError, match="activation threshold"):
        ce_costs(inst, CEPoint(0.0, 0.0, Regime.ALL_OFFPEAK))


def test_a_zero_slope_threshold_is_a_numerics_error():
    # A float division by the zero slope used to raise ZeroDivisionError.
    flat = CustomCost(lambda x: x, lambda x: 0.0 * x, domain_bound=5.0)
    inst = ThreeSlotInstance(2.5, 1.0, 1.0, 0.5, flat)
    with pytest.raises(NumericsError, match="activation threshold"):
        activation_threshold(inst)


def test_lying_derivative_breaks_bracketing():
    """A derivative violating the shape assumptions is reported, not hidden."""
    liar = CustomCost(
        value_fn=lambda x: np.asarray(x, dtype=float),
        derivative_fn=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
        domain_bound=30.0,
    )
    inst = ThreeSlotInstance(1.2, 1.0, 1.0, 1.0, liar)
    with pytest.raises(BracketingError):
        solve_ce(inst)
