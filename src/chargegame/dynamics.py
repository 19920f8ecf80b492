"""Exponential-learning computation of composite equilibria.

Works for any horizon, duration and number of coalitions.  Every player
keeps a cumulative cost per strategy; individuals accumulate the raw
strategy costs while each coalition accumulates the gradient of its average
cost, and all players then redistribute their weight proportionally to the
exponential of minus the cumulative cost.  Fixed points of this map are
exactly the profiles where each player's used strategies share the minimal
(marginal) cost.  Convergence is certified through the variational gap
rather than asserted: it is only guaranteed for linear cost families, so
the solver reports the status it actually reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ChargeGameError, NumericsError
from .model import Flow, GameSpec, Profile, _coalition_mass, _incidence, validate_profile

DEFAULT_MAX_ITER = 100_000
DEFAULT_GAP_TOL = 1e-6

StepSize = Union[float, Callable[[int], float]]


def default_step_schedule(iteration: int) -> float:
    """Decreasing learning rate 1/(1 + sqrt(n)).

    Raw cost accumulation (rate one) can push the exponents past float
    range for steep cost families; this schedule keeps the same fixed
    points while taming the first iterations.
    """
    return 1.0 / (1.0 + math.sqrt(iteration))


@dataclass(frozen=True)
class LearnerState:
    """One iterate of the learning dynamics.

    ``profile`` always equals the scaled-softmax image of ``-cum_costs``
    row by row, which keeps every flow exactly on its scaled simplex.
    """

    cum_costs: np.ndarray
    profile: Profile
    iteration: int
    step_size: StepSize = default_step_schedule


def initial_state(spec: GameSpec, step_size: StepSize = default_step_schedule) -> LearnerState:
    """Uniform starting point: zero cumulative costs for every player."""
    return LearnerState(
        cum_costs=np.zeros((spec.num_players, spec.num_start_slots)),
        profile=Profile.uniform(spec),
        iteration=0,
        step_size=step_size,
    )


# --- array-level core -------------------------------------------------------
#
# The functions below work on a raw stack of weight rows, so the solver loop
# neither rebuilds Flow/Profile objects every iteration nor loops over the
# games of a sweep.  The stack of B games with N players each is player-major:
# row i*B + g holds player i of game g, so player i's rows of all games lie
# end to end.  With the start-slot/slot incidence matrix A (S x T), loads
# are ``rows @ A`` and one product ``terms @ A.T`` window-sums the slot
# prices and every coalition's load-weighted marginal prices.  Both are 2-D
# products on the whole stack, and per-game terms are basic views, so a
# stack of one game runs the single-game array shapes and every game's
# arithmetic is the same in any stack.  The public operations wrap the same
# kernel, gap and softmax, which keeps one implementation of each formula.


def _gradient_kernel(
    spec: GameSpec, value, derivative, weights: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Map a stack of weight rows to marginal-cost rows.

    The stack holds games that differ from ``spec`` only in their masses,
    ``weights`` in stack order.  Row i of a game is
    (u + share_i * crowding_i) / divisor_i, with u the game's strategy costs
    and crowding_i the window sums of player i's load times f': the
    individuals get u (share 0, divisor 1), a coalition its average-cost
    gradient (share P, divisor its mass) and a zero-mass player zeros
    (divisor inf).  ``value`` and ``derivative`` evaluate f and f' on the
    slot loads of all games end to end; ``derivative`` is only called when
    some coalition has mass.
    """
    incidence = _incidence(spec.horizon, spec.duration)
    players, slots, power = spec.num_players, spec.num_start_slots, spec.power
    # ufunc calls and array methods skip numpy's Python-level wrappers: an
    # analytic sweep builds one kernel per point, through vi_gap.
    masses = weights.reshape(players, -1)  # (players, games)
    crowded = np.maximum.reduce(masses[1:], axis=None, initial=0.0) > 0.0
    base_load = np.concatenate((spec.base_load,) * masses.shape[1])
    shares = np.array([[0.0]] + [[power]] * (players - 1))
    divisors = masses.copy()
    divisors[0] = 1.0
    divisors[masses <= 0.0] = np.inf
    divisors = divisors.repeat(slots, axis=1)

    def gradients(rows: np.ndarray) -> np.ndarray:
        per_player = np.dot(rows, incidence)
        by_player = per_player.reshape(players, -1)  # a view: writes reach per_player
        slot_load = base_load + power * np.add.reduce(by_player, 0)
        if crowded:
            by_player *= derivative(slot_load)
        by_player[0] = value(slot_load)
        # Row 0: u of every game; row i > 0: crowding_i.
        sums = np.dot(per_player, incidence.T).reshape(players, -1)
        return ((sums[0] + shares * sums) / divisors).reshape(-1, slots)

    return gradients


def _gaps(masses: list, rows: np.ndarray, gradients: np.ndarray, players: int) -> list:
    """Variational gap of every game in the stack; NaN for a game whose
    gradients are not all finite.

    ``masses`` lists the rows' masses.  Each row with mass adds
    max(<row, gradient> - mass * min gradient, 0), in player order.  The
    finiteness check rides on the same per-row reductions: a NaN entry
    makes the row's minimum NaN, -inf makes it -inf, and +inf makes the
    row's dot inf (NaN where the row puts no weight, as 0 * inf).
    """
    dots = np.matmul(rows[:, None], gradients[:, :, None]).ravel().tolist()  # a BLAS ddot per row
    lows = np.minimum.reduce(gradients, 1).tolist()
    games = len(dots) // players
    gaps = []
    for game in range(games):
        gap = 0.0
        for i in range(game, len(dots), games):
            if not (math.isfinite(dots[i]) and math.isfinite(lows[i])):
                gap = math.nan
                break
            if masses[i] > 0.0:
                gap += max(dots[i] - masses[i] * lows[i], 0.0)
        gaps.append(gap)
    return gaps


def _softmax_rows(cum_costs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # ufunc reductions skip the Python-level wrappers of the array methods.
    scaled = np.exp(np.minimum.reduce(cum_costs, 1, keepdims=True) - cum_costs)
    return (weights / np.add.reduce(scaled, 1))[:, None] * scaled


def _step_value(step: StepSize, iteration: int) -> float:
    return step(iteration) if callable(step) else float(step)


# --- public operations ------------------------------------------------------


def coalition_gradient(spec: GameSpec, profile: Profile, k: int) -> np.ndarray:
    """Gradient of coalition ``k``'s average cost in its own flow.

    Component s is the marginal cost of routing more coalition weight to
    start slot s: the strategy cost u_s plus the extra price the
    coalition's own members already charging in that window would pay,
    all divided by the coalition's mass.
    """
    _coalition_mass(spec, k)
    return player_gradients(spec, profile)[k]


def player_gradients(spec: GameSpec, profile: Profile) -> np.ndarray:
    """Stacked per-strategy marginal costs, one row per player.

    Row 0 holds the plain strategy costs (what a vanishing individual
    pays); coalition rows hold their average-cost gradients.  Zero-mass
    players get a zero row, matching their zero flow.
    """
    validate_profile(spec, profile)
    kernel = _gradient_kernel(spec, spec.cost.value, spec.cost.derivative, spec.weights)
    return kernel(profile.matrix())


def learning_step(
    spec: GameSpec,
    state: LearnerState,
    *,
    gradients: np.ndarray | None = None,
) -> LearnerState:
    """One update: accumulate (marginal) costs, then redistribute weight.

    The softmax is evaluated after shifting each row of exponents by its
    maximum, which leaves the distribution unchanged but avoids overflow.
    """
    if gradients is None:
        gradients = player_gradients(spec, state.profile)
    if not np.all(np.isfinite(gradients)):
        raise NumericsError(
            "non-finite strategy costs encountered; check the cost family scale"
        )
    eta = _step_value(state.step_size, state.iteration)
    cum_costs = state.cum_costs + eta * gradients
    rows = _softmax_rows(cum_costs, spec.weights)
    profile = Profile(
        tuple(Flow(row, float(mass)) for row, mass in zip(rows, spec.weights))
    )
    return LearnerState(cum_costs, profile, state.iteration + 1, state.step_size)


@dataclass(frozen=True)
class TraceRow:
    """Convergence-log entry: the profile and its gap at one iteration."""

    iteration: int
    gap: float
    flows: np.ndarray


def solve_dynamics(
    spec: GameSpec,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    gap_tol: float = DEFAULT_GAP_TOL,
    step_size: StepSize = default_step_schedule,
    trace_every: int = 0,
):
    """Iterate the learning dynamics from the uniform profile.

    Stops once the variational gap drops to ``gap_tol`` or after
    ``max_iter`` steps, whichever comes first; the report's status says
    which happened, since convergence is not guaranteed for nonlinear
    cost families.  ``trace_every`` > 0 records every that-many-th iterate
    (plus the final one) for convergence plots.

    Returns:
        :class:`~chargegame.verify.EquilibriumReport` for the final iterate.
    """
    (outcome,) = _solve_batch(
        (spec,), max_iter=max_iter, gap_tol=gap_tol, step_size=step_size,
        trace_every=trace_every,
    )
    if isinstance(outcome, ChargeGameError):
        raise outcome
    return outcome


def _solve_batch(
    specs,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    gap_tol: float = DEFAULT_GAP_TOL,
    step_size: StepSize = default_step_schedule,
    trace_every: int = 0,
) -> list:
    """Run the learning dynamics of several games as one stack.

    The games share horizon, duration, power, base load and cost and differ
    only in their weights; if one has coalition mass, all must.  All start
    together, so they share the iteration count and the step size, and each
    game leaves the stack once its gap reaches ``gap_tol`` or ``max_iter``
    is hit.  With two or more players per game every game's arithmetic is
    the same as in a stack of its own, so each outcome equals
    :func:`solve_dynamics` on that game bit for bit.  (A one-player game
    alone is a single row, which numpy multiplies as a vector, not as a
    matrix, and those sums may round differently.)

    Returns:
        Per game, in order, its report or the ChargeGameError that ended it.
    """
    spec = specs[0]
    cost, players = spec.cost, spec.num_players
    weights = np.stack([game.weights for game in specs], axis=1).ravel()  # player-major
    # Rows sum to their masses, which sum to one, so every iterate's slot loads
    # lie in [min L, max L + P]: checking the cost domain (and f', if needed)
    # on that envelope once lets the loop call the raw cost functions.
    envelope = np.array([spec.base_load.min(), spec.base_load.max() + spec.power])
    try:
        cost.value(envelope)
        if weights[len(specs):].max(initial=0.0) > 0.0:  # some coalition has mass
            cost.derivative(envelope)
    except ChargeGameError as exc:
        return [exc] * len(specs)
    outcomes: list = [None] * len(specs)
    live = list(range(len(specs)))  # the games in the stack, in stack order
    traces = [[] for _ in specs] if trace_every > 0 else None
    cum_costs = np.zeros((weights.size, spec.num_start_slots))
    rows = _softmax_rows(cum_costs, weights)
    kernel = _gradient_kernel(spec, cost._raw_value, cost._raw_derivative, weights)
    masses = weights.tolist()
    iteration = 0
    while True:
        gradients = kernel(rows)
        gaps = _gaps(masses, rows, gradients, players)
        if traces is not None and iteration % trace_every == 0:
            for j, game in enumerate(live):
                traces[game].append(TraceRow(iteration, gaps[j], rows[j::len(live)].copy()))
        # A game stays while its gap is above gap_tol, which a NaN gap is not.
        if iteration >= max_iter or not all(gap > gap_tol for gap in gaps):
            keep = [iteration < max_iter and gap > gap_tol for gap in gaps]
            for j, game in enumerate(live):
                if not keep[j]:
                    trace = None if traces is None else traces[game]
                    outcomes[game] = _outcome(
                        specs[game], rows[j::len(live)], gaps[j], gap_tol, iteration, trace
                    )
            kept = np.tile(keep, players)
            rows, cum_costs, gradients, weights = (
                rows[kept], cum_costs[kept], gradients[kept], weights[kept]
            )
            live = [game for game, stays in zip(live, keep) if stays]
            if not live:
                return outcomes
            kernel = _gradient_kernel(spec, cost._raw_value, cost._raw_derivative, weights)
            masses = weights.tolist()
        cum_costs += _step_value(step_size, iteration) * gradients
        rows = _softmax_rows(cum_costs, weights)
        iteration += 1


def _outcome(spec: GameSpec, rows: np.ndarray, gap: float, gap_tol: float, iteration: int, trace):
    """The report of a game leaving the stack, or the error that ended it."""
    # Imported here to avoid a module cycle (verify wraps the gap core).
    from .verify import SolverStatus, make_report

    if math.isnan(gap):
        return NumericsError("non-finite strategy costs encountered; check the cost family scale")
    status = SolverStatus.CONVERGED if gap <= gap_tol else SolverStatus.MAX_ITER_REACHED
    if trace is not None:
        if trace[-1].iteration != iteration:
            trace.append(TraceRow(iteration, gap, rows.copy()))
        trace = tuple(trace)
    profile = Profile(tuple(Flow(row, float(mass)) for row, mass in zip(rows, spec.weights)))
    try:
        return make_report(spec, profile, status, iterations=iteration, gap=gap, trace=trace)
    except ChargeGameError as exc:
        return exc
