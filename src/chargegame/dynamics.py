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
from typing import Callable, Union

import numpy as np

from .errors import ChargeGameError
from .model import Flow, GameSpec, Profile, _gradient_kernel
from .verify import SolverStatus, TraceRow, _finite_gap, _gaps, make_report

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


# --- the update rule ---------------------------------------------------------
#
# The loop works on a raw stack of weight rows, so it neither rebuilds
# Flow/Profile objects every iteration nor loops over the games of a sweep.
# The stack of B games with N players each is player-major: row i*B + g
# holds player i of game g.  Each iteration takes the marginal-cost rows
# from the model's gradient kernel, the per-game gaps from verify's gap
# reduction, and redistributes weight by the row-wise softmax below; a
# stack of one game runs the single-game array shapes, and every game's
# arithmetic is the same in any stack.


def _softmax_rows(cum_costs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row i is weights[i] times the softmax of -cum_costs[i].

    Each row of exponents is shifted by its maximum, which leaves the
    distribution unchanged but avoids overflow.
    """
    # ufunc reductions skip the Python-level wrappers of the array methods.
    scaled = np.exp(np.minimum.reduce(cum_costs, 1, keepdims=True) - cum_costs)
    return (weights / np.add.reduce(scaled, 1))[:, None] * scaled


def _step_value(step: StepSize, iteration: int) -> float:
    return step(iteration) if callable(step) else float(step)


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
    try:
        gap = _finite_gap(gap)
        status = SolverStatus.CONVERGED if gap <= gap_tol else SolverStatus.MAX_ITER_REACHED
        if trace is not None:
            if trace[-1].iteration != iteration:
                trace.append(TraceRow(iteration, gap, rows.copy()))
            trace = tuple(trace)
        profile = Profile(tuple(Flow(row, float(mass)) for row, mass in zip(rows, spec.weights)))
        return make_report(spec, profile, status, iterations=iteration, gap=gap, trace=trace)
    except ChargeGameError as exc:
        return exc
