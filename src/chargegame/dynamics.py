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

from .errors import ChargeGameError, SpecError, _finite, _is_integer, _quiet
from .model import GameSpec, Profile, _gradient_kernel
from .verify import SolverStatus, TraceRow, _gap_reduction, make_report

DEFAULT_MAX_ITER = 100_000
DEFAULT_GAP_TOL = 1e-6

StepSize = Union[float, Callable[[int], float]]


# The steps of a game are scaled by a factor set by
# Lip = power * duration * f'(max L + P), which bounds how fast a strategy's
# cost changes as weight moves.  Games steeper than STEP_SCALE_BOUND, which
# can cycle under full steps, take steps times STEP_SCALE_BOUND / Lip.  Under
# the default schedule a gently sloped game with 0 < Lip < STEP_SCALE_FLOOR
# takes steps times STEP_SCALE_FLOOR / Lip, so it learns at the same pace in
# any unit its cost is written in.  Every other game keeps its steps, and so
# does a constant step or a caller's own schedule on a gentle game: a
# constant step does not decay, and raised it cycles.  A floor of 6 to 12
# is faster on typical games but brings near-degenerate ones (a strategy
# left with a sliver of weight) to finish near max_iter, at iteration counts
# that a 1% change of the loads moves by thousands.
STEP_SCALE_BOUND = 32.0
STEP_SCALE_FLOOR = 4.0


def default_step_schedule(iteration: int) -> float:
    """Decreasing learning rate 1/(1 + n**(1/4)).

    Any schedule whose steps sum to infinity keeps the fixed points and the
    dual-averaging convergence argument; this one decays slowly enough that
    degenerate equilibria (a tie on an unused strategy) are still reached.
    The solver multiplies this schedule's steps by the game's step scale,
    which tames the steep cost families and measures the gentle ones in
    their own cost units (see ``STEP_SCALE_BOUND``).
    """
    return 1.0 / (1.0 + math.sqrt(math.sqrt(iteration)))


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
#
# A live stack owns its buffers: the kernel's loads, window sums and
# gradients, the gap reduction's dots, minima and terms, and the softmax's
# minima, exponentials, totals and rows, each with the reshaped views the
# loop writes through.  They are built together when the stack is and
# rebuilt only when a game leaves it; the kernel, the gap reduction and the
# softmax write into them with out=, and only the cost family's f and f'
# come as new arrays.  The gap reduction picks its form by the stack's game
# count: one game loops over its few rows, which costs less than array
# calls, and a larger stack takes a fixed number of array calls.  So an
# iteration costs a fixed number of numpy calls whatever the stack's size.
# Nothing the loop hands out is a buffer: a trace row and a report take
# copies of their rows, and the gaps come as a list of floats.


def _softmax(weights: np.ndarray, slots: int) -> Callable[[np.ndarray], np.ndarray]:
    """Map cumulative costs to rows: row i is weights[i] times the softmax
    of -cum_costs[i].

    Each row of exponents is shifted by its maximum, which leaves the
    distribution unchanged but avoids overflow.  Every call returns the
    same row buffer, overwritten by the next call.
    """
    lows = np.empty((weights.size, 1))
    scaled = np.empty((weights.size, slots))
    totals = np.empty(weights.size)
    factors = totals[:, None]
    rows = np.empty_like(scaled)

    def softmax(cum_costs: np.ndarray) -> np.ndarray:
        # ufunc reductions skip the Python-level wrappers of the array methods.
        np.minimum.reduce(cum_costs, 1, keepdims=True, out=lows)
        np.subtract(lows, cum_costs, out=scaled)
        np.exp(scaled, out=scaled)
        np.add.reduce(scaled, 1, out=totals)
        np.divide(weights, totals, out=totals)
        return np.multiply(factors, scaled, out=rows)

    return softmax


def _step_value(step: StepSize, iteration: int) -> float:
    """The step at ``iteration``; a schedule's value that is not a finite
    number > 0 raises SpecError, as a constant step does at entry."""
    if not callable(step):
        return float(step)
    value = step(iteration)
    try:
        if 0.0 < value < math.inf:
            return value
    except (TypeError, ValueError):  # not a number, or an array
        pass
    raise SpecError(
        f"step_size schedule must give a finite number > 0, got {value!r} at iteration {iteration}"
    )


def _check_options(max_iter, gap_tol, step_size, trace_every) -> None:
    """Raise SpecError for options the loop cannot honour: an iteration cap
    or a trace interval that is not a whole number >= 0 (the CLI's rule for
    the cap; a trace interval of 0 records no trace), a tolerance that is
    not finite, which every gap meets (inf) or none meets or misses (NaN),
    and a constant step that is not a finite number > 0, which stands still
    or climbs.  A finite negative tolerance is fine: it runs all
    ``max_iter`` steps."""
    if not _is_integer(max_iter, 0):
        raise SpecError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    if not _is_integer(trace_every, 0):
        raise SpecError(f"trace_every must be an integer >= 0, got {trace_every!r}")
    if not math.isfinite(gap_tol):
        raise SpecError(f"gap_tol must be a finite number, got {gap_tol!r}")
    if not (callable(step_size) or 0.0 < step_size < math.inf):
        raise SpecError(f"step_size must be a schedule or a finite number > 0, got {step_size!r}")


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
    (plus the final one) for convergence plots.  Every step is multiplied
    by the game's step scale (see ``STEP_SCALE_BOUND``): under the default
    schedule by ``min(32, max(4, Lip)) / Lip``, otherwise by
    ``min(1, 32 / Lip)``; a game with Lip = 0 keeps its steps.

    Returns:
        :class:`~chargegame.verify.EquilibriumReport` for the final iterate.

    Raises:
        SpecError: ``max_iter`` or ``trace_every`` is not an integer >= 0,
            ``gap_tol`` is not finite, or a constant ``step_size`` or a
            value of a ``step_size`` schedule is not a finite number > 0.
    """
    (outcome,) = _solve_batch(
        (spec,), max_iter=max_iter, gap_tol=gap_tol, step_size=step_size,
        trace_every=trace_every,
    )
    if isinstance(outcome, ChargeGameError):
        raise outcome
    return outcome


@_quiet()
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
    only in their weights.  All start together, so they share the iteration
    count, the step scale (which depends on the spec only) and the step
    size, and each game leaves the stack once its gap reaches ``gap_tol`` or
    ``max_iter`` is hit.  With two or more players per game every game's
    arithmetic is the same as in a stack of its own, so each outcome equals
    :func:`solve_dynamics` on that game bit for bit.  (A one-player game
    alone is a single row, which numpy multiplies as a vector, not as a
    matrix, and those sums may round differently.)

    Returns:
        Per game, in order, its report or the ChargeGameError that ended it.

    Raises:
        SpecError: for the options, as :func:`solve_dynamics`.
    """
    _check_options(max_iter, gap_tol, step_size, trace_every)
    spec = specs[0]
    cost, players = spec.cost, spec.num_players
    weights = np.stack([game.weights for game in specs], axis=1).ravel()  # player-major
    # Rows sum to their masses, which sum to one, so every iterate's slot loads
    # lie in [min L, max L + P]: checking the cost domain (and f') on that
    # envelope once lets the loop call the raw cost functions, and f' at its
    # top gives the step scale.
    envelope = np.array([spec.base_load.min(), spec.base_load.max() + spec.power])
    try:
        slope = float(np.max(cost.derivative(envelope)))  # f' is increasing
    except ChargeGameError as exc:
        return [exc] * len(specs)
    lip = spec.power * spec.duration * slope
    scale = STEP_SCALE_BOUND / lip if lip > STEP_SCALE_BOUND else 1.0
    if step_size is default_step_schedule and 0.0 < lip < STEP_SCALE_FLOOR:
        scale = STEP_SCALE_FLOOR / lip
    outcomes: list = [None] * len(specs)
    live = list(range(len(specs)))  # the games in the stack, in stack order
    traces = [[] for _ in specs] if trace_every > 0 else None
    cum_costs = np.zeros((weights.size, spec.num_start_slots))

    def stack(weights):
        """The kernel, gap reduction and softmax of a live stack, with
        their buffers."""
        return (
            _gradient_kernel(spec, weights, checked=False),
            _gap_reduction(weights, players),
            _softmax(weights, spec.num_start_slots),
        )

    kernel, gaps_of, softmax = stack(weights)
    rows = softmax(cum_costs)
    iteration = 0
    while True:
        gradients = kernel(rows)
        gaps = gaps_of(rows, gradients)
        if traces is not None and iteration % trace_every == 0:
            for j, game in enumerate(live):
                traces[game].append(TraceRow(iteration, gaps[j], rows[j::len(live)].copy()))
        # A game stays while its gap is above gap_tol, which a NaN gap is not.
        done = iteration >= max_iter
        for gap in gaps:
            if not gap > gap_tol:
                done = True
                break
        if done:
            keep = [iteration < max_iter and gap > gap_tol for gap in gaps]
            for j, game in enumerate(live):
                if not keep[j]:
                    trace = None if traces is None else traces[game]
                    outcomes[game] = _outcome(
                        specs[game], rows[j::len(live)], gaps[j], gap_tol, iteration, trace
                    )
            kept = np.tile(keep, players)
            cum_costs, gradients, weights = cum_costs[kept], gradients[kept], weights[kept]
            live = [game for game, stays in zip(live, keep) if stays]
            if not live:
                return outcomes
            kernel, gaps_of, softmax = stack(weights)
        gradients *= scale * _step_value(step_size, iteration)
        cum_costs += gradients
        rows = softmax(cum_costs)
        iteration += 1


def _outcome(spec: GameSpec, rows: np.ndarray, gap: float, gap_tol: float, iteration: int, trace):
    """The report of a game leaving the stack, or the error that ended it."""
    try:
        gap = _finite(gap)
        status = SolverStatus.CONVERGED if gap <= gap_tol else SolverStatus.MAX_ITER_REACHED
        if trace is not None:
            if trace[-1].iteration != iteration:
                trace.append(TraceRow(iteration, gap, rows.copy()))
            trace = tuple(trace)
        profile = Profile.from_rows(spec, rows)
        return make_report(spec, profile, status, iterations=iteration, gap=gap, trace=trace)
    except ChargeGameError as exc:
        return exc
