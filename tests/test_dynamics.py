"""Learning dynamics: gradients, update map, convergence behavior."""

import math

import numpy as np
import pytest

from chargegame import (
    AffineCost,
    CostFunction,
    CustomCost,
    ExponentialCost,
    GameSpec,
    LinearCost,
    NumericsError,
    Profile,
    QuadraticCost,
    SolverStatus,
    SpecError,
    ThreeSlotInstance,
    coalition_average_cost,
    player_gradients,
    run_sweep,
    solve,
    solve_ce,
    solve_dynamics,
    strategy_costs,
    vi_gap,
)
from chargegame.dynamics import _softmax, _solve_batch
from chargegame.model import _gradient_kernel
from chargegame.verify import _gaps
from conftest import random_profile, random_three_slot


def directional_fd(spec, profile, k, s, t, h=1e-6):
    """Central difference of the coalition cost along e_s - e_t."""
    rows = profile.matrix()

    def shifted(delta):
        bumped = rows.copy()
        bumped[k, s] += delta
        bumped[k, t] -= delta
        return Profile.from_rows(spec, bumped)

    return (
        coalition_average_cost(spec, shifted(h), k)
        - coalition_average_cost(spec, shifted(-h), k)
    ) / (2.0 * h)


# --- coalition gradients -----------------------------------------------------


def test_gradient_of_negligible_coalition_is_scaled_strategy_cost():
    tiny = 1e-9
    spec = GameSpec(
        3, 2, 1.0, np.array([1.5, 1, 1]), QuadraticCost(),
        np.array([1.0 - tiny, tiny]),
    )
    profile = Profile.from_rows(
        spec, [[0.25 * (1 - tiny), 0.75 * (1 - tiny)], [0.25 * tiny, 0.75 * tiny]]
    )
    grad = player_gradients(spec, profile)[1]
    costs = strategy_costs(spec, profile)
    np.testing.assert_allclose(tiny * grad, costs, rtol=1e-6)


def test_gradient_stationary_at_quadratic_optimum():
    spec = GameSpec(
        3, 2, 1.0, np.array([1.5, 1, 1]), QuadraticCost(), np.array([0.0, 1.0])
    )
    profile = Profile.from_rows(spec, [[0, 0], [23 / 64, 41 / 64]])
    grad = player_gradients(spec, profile)[1]
    assert grad[0] - grad[1] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("horizon,duration", [(3, 2), (7, 3)])
def test_gradient_matches_finite_differences(rng, horizon, duration):
    for _ in range(20):
        num_coalitions = int(rng.integers(1, 3))
        raw = rng.uniform(0.2, 1.0, size=num_coalitions + 1)
        spec = GameSpec(
            horizon,
            duration,
            float(rng.uniform(0.1, 1.0)),
            rng.uniform(0.0, 2.0, size=horizon),
            [LinearCost(), QuadraticCost(), ExponentialCost(rate=0.8)][
                int(rng.integers(0, 3))
            ],
            raw / raw.sum(),
        )
        profile = random_profile(rng, spec, margin=0.1)
        gradients = player_gradients(spec, profile)
        for k in range(1, spec.num_players):
            grad = gradients[k]
            s, t = 0, spec.num_start_slots - 1
            fd = directional_fd(spec, profile, k, s, t)
            assert grad[s] - grad[t] == pytest.approx(
                fd, rel=1e-6, abs=1e-6 * max(1.0, abs(fd))
            )


def test_player_gradients_rows():
    spec = GameSpec(
        3, 2, 1.0, np.array([1.5, 1, 1]), QuadraticCost(), np.array([0.5, 0.5])
    )
    profile = Profile.uniform(spec)
    rows = player_gradients(spec, profile)
    np.testing.assert_allclose(rows[0], strategy_costs(spec, profile), atol=1e-12)


# --- kernel vs the per-row reference -----------------------------------------
#
# The reference below is the per-row formulation the matrix kernel replaced:
# one np.convolve per player and per coalition, and a per-row softmax.  The
# kernel sums the same terms in a possibly different order, so results must
# agree to 1e-12 relative; with duration <= 2 every window sum has at most
# two terms, whose sum does not depend on the order, so they must be equal.

REFERENCE_RTOL = 1e-12


def reference_gradients(spec, rows):
    kernel = np.ones(spec.duration)
    per_player = np.array([np.convolve(row, kernel) for row in rows])
    slot_load = spec.base_load + spec.power * per_player.sum(axis=0)
    costs = np.convolve(spec.cost.value(slot_load), kernel, mode="valid")
    out = np.zeros_like(rows)
    if spec.weights[0] > 0.0:
        out[0] = costs
    if spec.num_coalitions and spec.weights[1:].max() > 0.0:
        marginal = spec.cost.derivative(slot_load)
        for k in range(1, len(rows)):
            mass = spec.weights[k]
            if mass <= 0.0:
                continue
            crowding = np.convolve(per_player[k] * marginal, kernel, mode="valid")
            out[k] = (costs + spec.power * crowding) / mass
    return out


def reference_gap(weights, rows, gradients):
    gap = 0.0
    for i, mass in enumerate(weights):
        if mass <= 0.0:
            continue
        row = gradients[i]
        gap += max(float(rows[i] @ row) - mass * float(row.min()), 0.0)
    return gap


def reference_softmax(cum_costs, weights):
    rows = np.zeros_like(cum_costs)
    for i, mass in enumerate(weights):
        if mass <= 0.0:
            continue
        logits = -cum_costs[i]
        scaled = np.exp(logits - logits.max())
        rows[i] = (mass / scaled.sum()) * scaled
    return rows


def softmax_rows(weights, cum_costs):
    """The solver's softmax of these costs, shifted by their row minima."""
    rows = np.empty_like(cum_costs)
    _softmax(weights, cum_costs, np.minimum.reduce(cum_costs, 1, keepdims=True), rows)()
    return rows


def default_step(n):
    """The default schedule, 1/(1 + n**(1/4)), in the solver's float operations."""
    return 1.0 / (1.0 + math.sqrt(math.sqrt(n)))


def reference_step_scale(spec, step_size="default"):
    """min(1, 32 / Lip), Lip = power * duration * f' at the highest load;
    under the default schedule a game with 0 < Lip < 4 takes 4 / Lip."""
    envelope = np.array([spec.base_load.min(), spec.base_load.max() + spec.power])
    lip = spec.power * spec.duration * float(spec.cost.derivative(envelope)[1])
    if step_size == "default" and 0.0 < lip < 4.0:
        return 4.0 / lip
    return min(1.0, 32.0 / lip)


def reference_solve(spec, max_iter, gap_tol, step_size="default"):
    """The learning loop of one game, unfused.  Beside the solver's two
    forms of ``step_size``, the oracle also takes a function of the
    iteration, scaled as a constant step is."""
    cum_costs = np.zeros((spec.num_players, spec.num_start_slots))
    rows = reference_softmax(cum_costs, spec.weights)
    scale = reference_step_scale(spec, step_size)
    if step_size == "default":
        step = default_step
    else:
        step = step_size if callable(step_size) else lambda n: step_size
    iteration = 0
    while True:
        gradients = reference_gradients(spec, rows)
        gap = reference_gap(spec.weights, rows, gradients)
        if gap <= gap_tol or iteration >= max_iter:
            return rows, gap, iteration
        cum_costs += scale * step(iteration) * gradients
        rows = reference_softmax(cum_costs, spec.weights)
        iteration += 1


def assert_matches_reference(actual, expected, exact, scale=None):
    """``scale`` is the magnitude the tolerance is relative to; it defaults
    to the largest expected entry."""
    if exact:
        np.testing.assert_array_equal(actual, expected)
    else:
        if scale is None:
            scale = float(np.max(np.abs(expected), initial=0.0))
        np.testing.assert_allclose(
            actual, expected, rtol=REFERENCE_RTOL, atol=REFERENCE_RTOL * scale
        )


def gap_scale(spec, gradients):
    return float(spec.weights @ np.abs(gradients).max(axis=1))


def reference_families(rng):
    cubic = CustomCost(
        value_fn=lambda x: x**3 + x,
        derivative_fn=lambda x: 3.0 * x**2 + 1.0,
        domain_bound=30.0,
    )
    base = [LinearCost(slope=rng.uniform(0.5, 2.0), intercept=rng.uniform(0.0, 1.0)),
            QuadraticCost(), ExponentialCost(rate=rng.uniform(0.3, 1.5))]
    return base + [
        AffineCost(base[int(rng.integers(0, 3))], rng.uniform(0.5, 3.0), rng.uniform(-1.0, 2.0)),
        cubic,
    ]


def random_masses(rng, players):
    raw = rng.uniform(0.0, 1.0, size=players)
    raw[rng.uniform(size=raw.size) < 0.3] = 0.0  # zero-mass players
    if raw.sum() == 0.0:
        raw[int(rng.integers(0, raw.size))] = 1.0
    return raw / raw.sum()


def random_reference_game(rng, horizon, duration, family):
    masses = random_masses(rng, int(rng.integers(1, 5)))
    return GameSpec(
        horizon,
        duration,
        float(rng.uniform(0.1, 1.0)),
        rng.uniform(0.0, 2.0, size=horizon),
        family,
        masses,
    )


def test_kernel_matches_per_row_reference(rng):
    for horizon in range(1, 9):
        for duration in range(1, horizon + 1):
            for family in reference_families(rng):
                spec = random_reference_game(rng, horizon, duration, family)
                profile = random_profile(rng, spec)
                rows = profile.matrix()
                exact = duration <= 2
                expected = reference_gradients(spec, rows)
                got = player_gradients(spec, profile)
                assert_matches_reference(got, expected, exact)
                # The gap is a difference of mass-weighted gradient entries,
                # so its tolerance is relative to their size, not its own.
                assert_matches_reference(
                    vi_gap(spec, profile),
                    reference_gap(spec.weights, rows, expected),
                    exact,
                    gap_scale(spec, expected),
                )
                cum_costs = rng.normal(0.0, 5.0, size=rows.shape)
                assert_matches_reference(
                    softmax_rows(spec.weights, cum_costs),
                    reference_softmax(cum_costs, spec.weights),
                    exact,
                )
                # The dynamics of a linear game learn through the affine
                # map of model._linear_form, which sums in another order.
                learned_exact = exact and type(family) is not LinearCost
                report = solve_dynamics(spec, max_iter=12, gap_tol=1e-9)
                ref_rows, ref_gap, ref_iterations = reference_solve(spec, 12, 1e-9)
                assert report.iterations == ref_iterations
                assert_matches_reference(
                    report.profile.matrix(),
                    Profile.from_rows(spec, ref_rows).matrix(),
                    learned_exact,
                )
                assert_matches_reference(
                    report.vi_gap,
                    ref_gap,
                    learned_exact,
                    gap_scale(spec, reference_gradients(spec, ref_rows)),
                )


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_gap_marks_every_non_finite_gradient(rng):
    # The solver checks the gradients for NaN and inf through the gap's
    # per-row minimum and dot; rows put zero weight on some slots and some
    # players have no mass, where the bad entry meets a zero.
    players, games, slots = 3, 4, 5
    masses = np.array([[0.5, 0.0, 0.3, 1.0], [0.5, 0.6, 0.0, 0.0], [0.0, 0.4, 0.7, 0.0]])
    weights = masses.ravel()  # player-major: row i * games + g
    for bad in (np.nan, np.inf, -np.inf):
        for row in range(players * games):
            for slot in range(slots):
                raw = rng.uniform(size=(players * games, slots))
                raw[rng.uniform(size=raw.shape) < 0.3] = 0.0
                raw[:, 0] += 1e-3
                rows = weights[:, None] * raw / raw.sum(axis=1, keepdims=True)
                gradients = rng.normal(size=rows.shape)
                clean = _gaps(weights.tolist(), rows, gradients, players)
                gradients[row, slot] = bad
                gaps = _gaps(weights.tolist(), rows, gradients, players)
                game = row % games
                assert np.isnan(gaps[game])
                assert gaps[:game] + gaps[game + 1:] == clean[:game] + clean[game + 1:]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_stacked_gaps_match_each_game_alone(rng):
    # A stack of two or more games takes the array reduction and a game alone
    # the per-row loop; every game's gap must be the same, compared by repr.
    # Some rows have no mass, some sit on their cheapest slot (a term of
    # exactly zero, with signed-zero gradient entries among them), and some
    # gradients hold NaN or +-inf.
    for case in range(300):
        players, games = int(rng.integers(2, 5)), int(rng.integers(1, 31))
        size, slots = players * games, int(rng.integers(1, 7))
        masses = rng.uniform(0.0, 1.0, size=size)
        masses[rng.uniform(size=size) < 0.3] = 0.0
        raw = rng.uniform(size=(size, slots))
        raw[rng.uniform(size=raw.shape) < 0.3] = 0.0
        raw[:, 0] += 1e-3
        rows = masses[:, None] * raw / raw.sum(axis=1, keepdims=True)
        if case % 2:  # a row without mass adds nothing, whatever it holds
            rows[masses == 0.0] = raw[masses == 0.0]
        gradients = np.round(rng.normal(size=rows.shape), 1)
        gradients[gradients == 0.0] = -0.0
        for i in np.flatnonzero(rng.uniform(size=size) < 0.3):
            rows[i] = 0.0
            rows[i, np.argmin(gradients[i])] = masses[i]
        if case % 3:
            bad = rng.uniform(size=rows.shape) < 0.02
            gradients[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
        stacked = _gaps(masses.tolist(), rows, gradients, players)
        alone = [
            _gaps(masses[g::games].tolist(), rows[g::games], gradients[g::games], players)[0]
            for g in range(games)
        ]
        assert [repr(gap) for gap in stacked] == [repr(gap) for gap in alone]


def test_batch_of_games_matches_single_solves(rng):
    # Games that differ only in their weights, 2-4 players, zero-mass
    # individuals or coalitions included: each outcome of the stack is the
    # separate solve's report, bit for bit.  (A one-player game solved alone
    # is a single row, which numpy multiplies as a vector, not a matrix.)
    for case in range(12):
        players = case % 3 + 2
        horizon = int(rng.integers(2, 8))
        duration = int(rng.integers(1, horizon + 1))
        family = reference_families(rng)[case % 5]
        base_load, power = rng.uniform(0.0, 2.0, size=horizon), float(rng.uniform(0.1, 1.0))
        specs = []
        for _ in range(int(rng.integers(1, 6))):
            raw = rng.uniform(0.05, 1.0, size=players)
            # The last coalition keeps its mass.
            raw[int(rng.integers(0, players - 1))] *= float(rng.integers(0, 2))
            specs.append(GameSpec(horizon, duration, power, base_load, family, raw / raw.sum()))
        options = {"max_iter": 60, "gap_tol": 1e-5, "trace_every": 7}
        for spec, report in zip(specs, _solve_batch(specs, **options)):
            single = solve_dynamics(spec, **options)
            assert (report.iterations, report.status) == (single.iterations, single.status)
            assert repr(report.vi_gap) == repr(single.vi_gap)
            assert report.profile.matrix().tobytes() == single.profile.matrix().tobytes()
            assert report.costs == single.costs
            assert [(r.iteration, repr(r.gap), r.flows.tobytes()) for r in report.trace] == [
                (r.iteration, repr(r.gap), r.flows.tobytes()) for r in single.trace
            ]


def oracle_batch(specs, max_iter, gap_tol):
    """The batch's learning loop under the default schedule, composed from
    unfused operations: the kernel, the per-row gap, reference_softmax and
    cum += scale * step * G, with each game leaving the stack at the
    iteration its gap reaches gap_tol or max_iter is hit.  Per game:
    (iteration, gap, rows)."""
    spec, players = specs[0], specs[0].num_players
    scale = reference_step_scale(spec)
    weights = np.stack([game.weights for game in specs], axis=1).ravel()
    live, outcomes = list(range(len(specs))), [None] * len(specs)
    cum_costs = np.zeros((weights.size, spec.num_start_slots))
    rows = reference_softmax(cum_costs, weights)
    iteration = 0
    while True:
        gradients = _gradient_kernel(spec, weights, checked=False)(rows).copy()
        gaps = [
            reference_gap(weights[j::len(live)], rows[j::len(live)], gradients[j::len(live)])
            for j in range(len(live))
        ]
        keep = [iteration < max_iter and gap > gap_tol for gap in gaps]
        for j, game in enumerate(live):
            if not keep[j]:
                outcomes[game] = (iteration, gaps[j], rows[j::len(live)].copy())
        if not any(keep):
            return outcomes
        live = [game for game, stays in zip(live, keep) if stays]
        kept = np.tile(keep, players)
        weights, gradients, cum_costs = weights[kept], gradients[kept], cum_costs[kept]
        cum_costs += scale * default_step(iteration) * gradients
        rows = reference_softmax(cum_costs, weights)
        iteration += 1


def test_batch_equals_the_unfused_loop_bit_for_bit(rng):
    # The batch keeps the gradients and cumulative costs in one buffer and
    # takes both row minima in one reduction; every float operation and its
    # order must stay the oracle's, for any family, duration and stack,
    # zero-mass players included, whatever iteration each game leaves at.
    for family in reference_families(rng):
        for duration in range(1, 5):
            for games in range(1, 4):
                horizon = int(rng.integers(duration, duration + 4))
                base = random_reference_game(rng, horizon, duration, family)
                specs = [base] + [
                    GameSpec(horizon, duration, base.power, base.base_load, family,
                             random_masses(rng, base.num_players))
                    for _ in range(games - 1)
                ]
                # A loose tolerance lets games leave the stack early.
                gap_tol = float(rng.choice([1e-9, 1e-4, 1e-3]))
                expected = oracle_batch(specs, 30, gap_tol)
                for spec, report, (iterations, gap, rows) in zip(
                    specs, _solve_batch(specs, max_iter=30, gap_tol=gap_tol), expected
                ):
                    assert report.iterations == iterations
                    np.testing.assert_array_equal(report.vi_gap, gap)
                    np.testing.assert_array_equal(
                        report.profile.matrix(), Profile.from_rows(spec, rows).matrix()
                    )


def test_linear_dynamics_match_the_general_kernel(rng):
    # AffineCost(f, 1, 0) evaluates f's floats exactly, but only an exact
    # LinearCost learns through the affine map of model._linear_form, so
    # the pair compares that map with the general kernel over whole solves:
    # random games with zero-mass players, and points of the night grid.
    loads = np.array([0.9, 1.0, 0.95, 0.7, 0.5, 0.45, 0.6])
    cases = [
        (GameSpec(7, 3, 0.2, loads, LinearCost(), np.array([1.0 - m, m])),
         {"step_size": 1.0, "gap_tol": 1e-9, "max_iter": 20_000})
        for m in (0.04, 0.28, 0.64, 1.0)
    ]
    for _ in range(40):
        horizon = int(rng.integers(1, 9))
        duration = int(rng.integers(1, horizon + 1))
        cost = LinearCost(slope=rng.uniform(0.5, 2.0), intercept=rng.uniform(0.0, 1.0))
        cases.append(
            (random_reference_game(rng, horizon, duration, cost),
             {"gap_tol": 1e-8, "max_iter": 3_000})
        )
    for spec, options in cases:
        general = GameSpec(spec.horizon, spec.duration, spec.power, spec.base_load,
                           AffineCost(spec.cost, 1.0, 0.0), spec.weights)
        affine, reference = solve_dynamics(spec, **options), solve_dynamics(general, **options)
        assert (affine.iterations, affine.status) == (reference.iterations, reference.status)
        np.testing.assert_allclose(
            affine.profile.matrix(), reference.profile.matrix(), rtol=0.0, atol=1e-12
        )


@pytest.mark.parametrize(
    "option",
    [
        {"max_iter": -5},
        {"max_iter": 2.5},
        {"max_iter": True},
        {"max_iter": math.inf},
        {"gap_tol": float("nan")},
        {"gap_tol": math.inf},
        {"gap_tol": -math.inf},
        {"gap_tol": "1e-6"},
        {"gap_tol": None},
        {"gap_tol": 1j},
        {"gap_tol": True},
        {"gap_tol": False},
        {"step_size": 0.0},
        {"step_size": -0.5},
        {"step_size": "1"},
        {"step_size": "Default"},
        {"step_size": ""},
        {"step_size": None},
        {"step_size": np.array([1.0, 2.0])},
        {"step_size": lambda n: 1.0 / (1.0 + n**0.25)},
        {"step_size": True},
        {"trace_every": 2.5},
        {"trace_every": True},
        {"trace_every": math.nan},
        {"trace_every": -3},
        {"trace_every": "2"},
    ],
    ids=[
        "negative-max-iter",
        "fractional-max-iter",
        "bool-max-iter",
        "inf-max-iter",
        "nan-gap-tol",
        "inf-gap-tol",
        "minus-inf-gap-tol",
        "string-gap-tol",
        "none-gap-tol",
        "complex-gap-tol",
        "true-gap-tol",
        "false-gap-tol",
        "zero-step",
        "negative-step",
        "string-step",
        "capitalized-default-step",
        "empty-step",
        "none-step",
        "array-step",
        "callable-step",
        "bool-step",
        "fractional-trace-every",
        "bool-trace-every",
        "nan-trace-every",
        "negative-trace-every",
        "string-trace-every",
    ],
)
def test_solver_rejects_options_that_cannot_work(option):
    # Each would run to max_iter, stop at once, stand still or climb, or
    # (a fractional cap) run past the cap it reports; a trace interval that
    # is not a whole number >= 0 would trace at odd iterations or not at all.
    # A tolerance or step that is not a real number would escape as a raw
    # TypeError or ValueError, and a bool would be read as 1 or 0.  The step
    # is "default" or a number, never a function.  The options are checked
    # whichever method runs, the closed form included, which takes no
    # learning step.
    spec = GameSpec(3, 2, 1.0, np.array([1.5, 1.0, 1.0]), QuadraticCost(), np.array([0.5, 0.5]))
    name = next(iter(option))
    with pytest.raises(SpecError, match=name):
        solve_dynamics(spec, **option)
    for method in ("dynamics", "analytic", "auto"):
        with pytest.raises(SpecError, match=name):
            solve(spec, method, **option)
    if name == "trace_every":  # sweeps record no trace
        return
    for method in ("dynamics", "analytic", "auto"):
        with pytest.raises(SpecError, match=name):
            run_sweep(spec, np.array([0.25, 0.5]), solver=method, **option)


@pytest.mark.parametrize(
    "value", [-1.0, 0.0, math.nan, math.inf, "x", None, np.ones(2)],
    ids=["negative", "zero", "nan", "inf", "string", "none", "array"],
)
@pytest.mark.parametrize("first_bad", [0, 5])
def test_solver_rejects_schedule_values_that_cannot_work(value, first_bad):
    # A schedule, even one whose first steps are the default's, is refused
    # before it is called, on every path: the step is "default" or a number.
    spec = GameSpec(3, 2, 1.0, np.array([1.5, 1.0, 1.0]), LinearCost(), np.array([0.5, 0.5]))
    calls = []

    def schedule(n):
        calls.append(n)
        return 1.0 / (1.0 + n**0.25) if n < first_bad else value

    message = "step_size must be \"default\" or a finite number > 0"
    with pytest.raises(SpecError, match=message):
        solve_dynamics(spec, max_iter=200, step_size=schedule)
    with pytest.raises(SpecError, match=message):
        _solve_batch([spec, spec], max_iter=200, step_size=schedule)
    for method in ("dynamics", "analytic", "auto"):
        with pytest.raises(SpecError, match=message):
            solve(spec, method, max_iter=200, step_size=schedule)
        with pytest.raises(SpecError, match=message):
            run_sweep(spec, np.array([0.25, 0.5]), solver=method, step_size=schedule)
    assert calls == []


@pytest.mark.parametrize("method", ["dynamics", "analytic", "auto"])
def test_solve_refuses_an_unknown_option(method):
    spec = ThreeSlotInstance(1.5, 1.0, 1.0, 0.5, LinearCost()).to_game_spec()
    with pytest.raises(TypeError, match="bogus"):
        solve(spec, method, bogus=1)


# --- learning step -----------------------------------------------------------


def every_iterate(spec, steps):
    """Flows of the uniform start and of each of ``steps`` learning steps.

    A negative gap tolerance keeps the solver stepping up to ``max_iter``.
    """
    report = solve_dynamics(spec, max_iter=steps, gap_tol=-1.0, trace_every=1)
    assert [row.iteration for row in report.trace] == list(range(steps + 1))
    return [row.flows for row in report.trace]


def test_symmetric_start_stays_uniform():
    spec = GameSpec(4, 1, 0.5, np.full(4, 1.0), QuadraticCost(), np.array([0.5, 0.5]))
    for flows in every_iterate(spec, 10):
        for row, mass in zip(flows, spec.weights):
            np.testing.assert_allclose(row, mass / 4.0, atol=1e-15)


def test_dominated_strategy_weight_strictly_decreases():
    spec = GameSpec(
        3, 2, 1.0, np.array([5.0, 1.0, 1.0]), LinearCost(), np.array([1.0])
    )
    dominated = [flows[0, 0] for flows in every_iterate(spec, 20)]
    assert all(after < before for before, after in zip(dominated, dominated[1:]))


def test_max_shift_invariance():
    spec = GameSpec(
        3, 2, 1.0, np.array([1.5, 1, 1]), QuadraticCost(), np.array([0.4, 0.6])
    )
    cum_costs = player_gradients(spec, Profile.uniform(spec))
    shifted = cum_costs + np.array([[100.0], [250.0]])
    np.testing.assert_allclose(
        softmax_rows(spec.weights, cum_costs),
        softmax_rows(spec.weights, shifted),
        atol=1e-12,
    )


def test_iterates_stay_on_scaled_simplices():
    spec = GameSpec(
        5, 2, 0.3, np.array([2.0, 1.5, 1.0, 0.5, 1.0]), QuadraticCost(),
        np.array([0.3, 0.7]),
    )
    for flows in every_iterate(spec, 50):
        for row, mass in zip(flows, spec.weights):
            assert float(row.sum()) == pytest.approx(mass, abs=1e-12)
            assert float(row.min()) >= 0.0


def test_non_finite_costs_raise():
    spec = GameSpec(
        3, 2, 1.0, np.array([2.0, 1.0, 1.0]),
        ExponentialCost(rate=400.0), np.array([1.0]),
    )
    with pytest.raises(NumericsError):
        solve_dynamics(spec, max_iter=10)


# --- full solves -------------------------------------------------------------


def test_linear_gap_instance_converges_to_closed_form():
    inst = ThreeSlotInstance(2.3, 1.0, 1.0, 1.0, LinearCost())
    report = solve_dynamics(inst.to_game_spec())
    assert report.status is SolverStatus.CONVERGED
    assert report.vi_gap <= 1e-6
    assert report.profile.flows[1].values[0] == pytest.approx(0.175, abs=1e-3)


def test_quadratic_band_instance_converges_to_closed_form():
    inst = ThreeSlotInstance(1.5, 1.0, 1.0, 1.0, QuadraticCost())
    report = solve_dynamics(inst.to_game_spec())
    assert report.status is SolverStatus.CONVERGED
    assert report.profile.flows[1].values[0] == pytest.approx(0.359375, abs=1e-3)


def test_corner_equilibrium_flags_boundary():
    inst = ThreeSlotInstance(2.3, 1.0, 1.0, 0.2, LinearCost())
    report = solve_dynamics(inst.to_game_spec())
    assert report.status is SolverStatus.CONVERGED
    assert report.profile.flows[1].values[0] == pytest.approx(0.0, abs=1e-3)
    assert report.boundary


def test_non_convergence_is_reported_not_hidden():
    inst = ThreeSlotInstance(1.5, 1.0, 1.0, 1.0, QuadraticCost())
    report = solve_dynamics(inst.to_game_spec(), max_iter=3, gap_tol=1e-12)
    assert report.status is SolverStatus.MAX_ITER_REACHED
    assert report.vi_gap > 1e-12


def test_zero_mass_coalition_is_inert():
    spec = GameSpec(
        3, 2, 1.0, np.array([1.5, 1, 1]), QuadraticCost(), np.array([1.0, 0.0])
    )
    report = solve_dynamics(spec)
    assert report.status is SolverStatus.CONVERGED
    np.testing.assert_allclose(report.profile.flows[1].values, 0.0, atol=1e-15)
    assert report.profile.flows[0].values[0] == pytest.approx(0.25, abs=1e-3)


def test_linear_night_instance_reaches_gap_within_budget():
    loads = np.array([0.9, 1.0, 0.95, 0.7, 0.5, 0.45, 0.6])

    def night(m):
        return GameSpec(7, 3, 0.2, loads, LinearCost(), np.array([1.0 - m, m]))

    report = solve_dynamics(night(0.8))
    assert report.status is SolverStatus.CONVERGED
    assert report.iterations <= 100_000
    # At m = 0.5 the equilibrium ties an unused strategy at minimal cost, so
    # the weight on it decays only polynomially; the default schedule and
    # the constant (linear-safe) rate both get there within the budget.
    for step_size in ("default", 1.0):
        report = solve_dynamics(night(0.5), step_size=step_size)
        assert report.status is SolverStatus.CONVERGED
        assert report.iterations <= 100_000


def test_constant_step_size_accepted():
    inst = ThreeSlotInstance(1.5, 1.0, 1.0, 0.3, LinearCost())
    report = solve_dynamics(inst.to_game_spec(), step_size=1.0)
    assert report.status is SolverStatus.CONVERGED
    assert report.profile.flows[1].values[0] == pytest.approx(0.15, abs=1e-3)


def test_trace_records_iterations():
    inst = ThreeSlotInstance(1.5, 1.0, 1.0, 1.0, QuadraticCost())
    report = solve_dynamics(inst.to_game_spec(), trace_every=5)
    assert report.trace is not None
    assert report.trace[0].iteration == 0
    assert report.trace[-1].iteration == report.iterations
    gaps = [row.gap for row in report.trace]
    assert gaps[-1] <= 1e-6
    assert report.trace[0].flows.shape == (2, 2)


def test_wardrop_holds_at_converged_interior_point(rng):
    for _ in range(5):
        inst = random_three_slot(rng, family="linear", coalition_size=0.3)
        if inst.peak_load >= inst.offpeak_load + 1.0:
            continue
        spec = inst.to_game_spec()
        report = solve_dynamics(spec, gap_tol=1e-8)
        if report.status is not SolverStatus.CONVERGED:
            continue
        costs = strategy_costs(spec, report.profile)
        support = report.profile.flows[0].values > 1e-6
        if support.any():
            assert costs[support].max() <= costs.min() + 1e-5


# --- the default schedule and its step scale ---------------------------------


@pytest.mark.parametrize(
    "cost",
    [LinearCost(), QuadraticCost(), ExponentialCost(rate=1.0)],
    ids=lambda cost: type(cost).__name__,
)
def test_default_schedule_reaches_the_band_boundary(cost):
    # At m = 0.5 the band instance sits on a regime boundary, where a
    # strategy without weight ties in cost and its weight decays slowly.
    inst = ThreeSlotInstance(1.5, 1.0, 1.0, 0.5, cost)
    report = solve_dynamics(inst.to_game_spec(), max_iter=100_000)
    assert report.status is SolverStatus.CONVERGED
    assert report.profile.flows[1].values[0] == pytest.approx(
        solve_ce(inst).coalition_on_peak, abs=1e-3
    )


STEEP_INSTANCES = [
    ThreeSlotInstance(
        2.737750827160921, 2.8541783883054404, 2.5192074146535672, 0.785164931056488,
        ExponentialCost(rate=1.3775076248472717),
    ),
    ThreeSlotInstance(
        2.7522884212039482, 1.89975765171166, 2.6393217469892054, 0.20146036714071994,
        ExponentialCost(rate=1.4220605476107206),
    ),
]


@pytest.mark.parametrize("inst", STEEP_INSTANCES, ids=["shared-peak", "small-coalition"])
def test_step_scale_keeps_steep_games_stable(inst):
    spec = inst.to_game_spec()
    report = solve_dynamics(spec)
    assert report.status is SolverStatus.CONVERGED
    assert report.profile.flows[1].values[0] == pytest.approx(
        solve_ce(inst).coalition_on_peak, abs=1e-3
    )
    # Lip is near 560 here, so the steps are scaled by about 1/18.  Without
    # the scale (the step divided back by it) n**(-1/4) and n**(-1/3) decay
    # alike cycle with a gap in the hundreds.  The solver takes no such
    # schedule, so the oracle runs them; it is exact for duration <= 2.
    scale = reference_step_scale(spec)
    assert scale < 0.1 and spec.duration == 2
    for decay in (1 / 4, 1 / 3):
        _, gap, _ = reference_solve(
            spec, 2000, 1e-6, lambda n: 1.0 / (1.0 + n**decay) / scale
        )
        assert gap > 1.0


@pytest.mark.parametrize("derivative", [lambda x: 3.0 * np.exp(3.0 * x)], ids=["derivative"])
def test_first_step_is_scaled_by_the_envelope_slope(derivative):
    cost = CustomCost(value_fn=lambda x: np.exp(3.0 * x), derivative_fn=derivative, domain_bound=10.0)
    spec = GameSpec(3, 2, 1.0, np.array([2.0, 1.0, 1.0]), cost, np.array([1.0]))
    # Slot loads stay in [1, 3], so Lip = power * duration * f'(3).
    slope = 3.0 * np.exp(9.0)
    scale = 32.0 / (1.0 * 2 * slope)
    report = solve_dynamics(spec, max_iter=1, gap_tol=-1.0, trace_every=1)
    first_costs = strategy_costs(spec, Profile.uniform(spec))[None]
    np.testing.assert_allclose(
        report.trace[1].flows, reference_softmax(scale * first_costs, spec.weights), rtol=1e-12
    )


@pytest.mark.parametrize("step_size", [0.5], ids=["constant"])
def test_other_steps_keep_the_cap_only_scale_on_a_gentle_game(step_size):
    # Lip = 2 here: the default schedule's steps are raised to 4 / Lip, a
    # constant step's are not.
    spec = GameSpec(3, 2, 1.0, np.array([1.5, 1.0, 1.0]), LinearCost(), np.array([0.5, 0.5]))
    assert reference_step_scale(spec, step_size) == 1.0 < reference_step_scale(spec)
    report = solve_dynamics(spec, max_iter=12, gap_tol=1e-9, step_size=step_size)
    rows, gap, iterations = reference_solve(spec, 12, 1e-9, step_size)
    assert report.iterations == iterations
    # A linear game learns through the affine map, which sums in another
    # order than the oracle.
    assert_matches_reference(
        report.profile.matrix(), Profile.from_rows(spec, rows).matrix(), exact=False
    )
    assert_matches_reference(
        report.vi_gap, gap, False, gap_scale(spec, reference_gradients(spec, rows))
    )


@pytest.mark.parametrize(
    "cost, scale, shift",
    [
        (cost, scale, shift)
        for cost in (LinearCost(0.5, 0.1), QuadraticCost(), ExponentialCost(0.4))
        for scale, shift in ((3.0, 2.0), (0.25, -0.5), (4.0, 1.0))
        # Three and four times the quadratic have Lip 7.02 and 9.36, above
        # the floor.
        if not (isinstance(cost, QuadraticCost) and scale > 1.0)
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, CostFunction) else str(value),
)
def test_default_dynamics_do_not_depend_on_the_cost_unit(cost, scale, shift):
    # scale * f + shift has the same equilibria as f; with both games' Lip
    # below the floor, their steps times Lip are the same, so they take the
    # same iterates and their gaps differ by the factor scale.
    def night(cost):
        loads = np.array([0.9, 1.0, 0.95, 0.7, 0.5, 0.45, 0.6])
        return GameSpec(7, 3, 0.3, loads, cost, np.array([0.5, 0.3, 0.2]))

    spec, rescaled = night(cost), night(AffineCost(cost, scale, shift))
    assert reference_step_scale(spec) > 1.0 and reference_step_scale(rescaled) > 1.0
    a = solve_dynamics(spec, max_iter=300, gap_tol=-1.0)
    b = solve_dynamics(rescaled, max_iter=300, gap_tol=-1.0)
    np.testing.assert_allclose(b.profile.matrix(), a.profile.matrix(), rtol=0.0, atol=1e-12)
    a = solve_dynamics(spec, gap_tol=1e-7)
    b = solve_dynamics(rescaled, gap_tol=1e-7 * scale)
    assert a.status is b.status is SolverStatus.CONVERGED
    assert a.iterations == b.iterations


def test_dynamics_agree_with_closed_form_on_random_instances(rng):
    # Two independent solvers of the same game: exponential learning under
    # the default schedule and the closed form.
    for trial in range(30):
        inst = random_three_slot(rng, family=("linear", "quadratic", "exponential")[trial % 3])
        report = solve_dynamics(inst.to_game_spec())
        assert report.status is SolverStatus.CONVERGED, inst
        assert report.profile.flows[1].values[0] == pytest.approx(
            solve_ce(inst).coalition_on_peak, abs=1e-3
        ), inst
