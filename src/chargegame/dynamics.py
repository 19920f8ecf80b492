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

from .errors import NumericsError
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
# The functions below work on the raw (players x start slots) weight matrix
# so the solver loop does not rebuild Flow/Profile objects every iteration.
# With the start-slot/slot incidence matrix A (S x T), loads are ``rows @ A``
# and one product ``terms @ A.T`` window-sums the slot prices and every
# coalition's load-weighted marginal prices.  The public operations wrap the
# same kernel, gap and softmax, which keeps one implementation of each formula.


def _gradient_kernel(spec: GameSpec, value, derivative) -> Callable[[np.ndarray], np.ndarray]:
    """Map weight rows to marginal-cost rows for one game.

    Row i is (u + share_i * crowding_i) / divisor_i, with u the strategy
    costs and crowding_i the window sums of player i's load times f': the
    individuals get u (share 0, divisor 1), a coalition its average-cost
    gradient (share P, divisor its mass) and a zero-mass player zeros
    (divisor inf).  ``value`` and ``derivative`` evaluate f and f' on the
    slot loads; ``derivative`` is only called when some coalition has mass.
    """
    incidence = _incidence(spec.horizon, spec.duration)
    base_load, power, weights = spec.base_load, spec.power, spec.weights
    is_coalition = np.arange(spec.num_players) > 0
    shares = np.where(is_coalition, power, 0.0)[:, None]
    divisors = np.where(weights > 0.0, np.where(is_coalition, weights, 1.0), np.inf)[:, None]
    crowded = bool((weights[is_coalition] > 0.0).any())

    def gradients(rows: np.ndarray) -> np.ndarray:
        per_player = np.dot(rows, incidence)
        slot_load = base_load + power * per_player.sum(axis=0)
        terms = per_player * derivative(slot_load) if crowded else per_player
        terms[0] = value(slot_load)
        sums = np.dot(terms, incidence.T)  # row 0: u, row i > 0: crowding_i
        return (sums[0] + shares * sums) / divisors

    return gradients


def _gap_rows(weights: np.ndarray, rows: np.ndarray, gradients: np.ndarray) -> float:
    gap = 0.0
    lows = gradients.min(axis=1).tolist()
    for mass, row, grad, low in zip(weights.tolist(), rows, gradients, lows):
        if mass > 0.0:
            gap += max(float(np.dot(row, grad)) - mass * low, 0.0)
    return gap


def _softmax_rows(cum_costs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    scaled = np.exp(cum_costs.min(axis=1, keepdims=True) - cum_costs)
    return (weights / scaled.sum(axis=1))[:, None] * scaled


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
    kernel = _gradient_kernel(spec, spec.cost.value, spec.cost.derivative)
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
    # Imported here to avoid a module cycle (verify wraps the gap core).
    from .verify import SolverStatus, make_report

    weights, cost = spec.weights, spec.cost
    # Rows sum to their masses, which sum to one, so every iterate's slot loads
    # lie in [min L, max L + P]: checking the cost domain (and f', if needed)
    # on that envelope once lets the loop call the raw cost functions.
    envelope = np.array([spec.base_load.min(), spec.base_load.max() + spec.power])
    cost.value(envelope)
    if weights[1:].max(initial=0.0) > 0.0:
        cost.derivative(envelope)
    kernel = _gradient_kernel(spec, cost._raw_value, cost._raw_derivative)
    cum_costs = np.zeros((spec.num_players, spec.num_start_slots))
    rows = _softmax_rows(cum_costs, weights)
    iteration = 0
    trace: list[TraceRow] | None = [] if trace_every > 0 else None
    while True:
        gradients = kernel(rows)
        if not np.isfinite(gradients).all():
            raise NumericsError(
                "non-finite strategy costs encountered; check the cost family scale"
            )
        gap = _gap_rows(weights, rows, gradients)
        if trace is not None and iteration % trace_every == 0:
            trace.append(TraceRow(iteration, gap, rows.copy()))
        if gap <= gap_tol:
            status = SolverStatus.CONVERGED
            break
        if iteration >= max_iter:
            status = SolverStatus.MAX_ITER_REACHED
            break
        cum_costs += _step_value(step_size, iteration) * gradients
        rows = _softmax_rows(cum_costs, weights)
        iteration += 1
    if trace is not None and trace[-1].iteration != iteration:
        trace.append(TraceRow(iteration, gap, rows.copy()))
    profile = Profile(
        tuple(Flow(row, float(mass)) for row, mass in zip(rows, weights))
    )
    return make_report(
        spec,
        profile,
        status,
        iterations=iteration,
        gap=gap,
        trace=None if trace is None else tuple(trace),
    )
