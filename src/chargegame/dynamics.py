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
from typing import Callable

import numpy as np

from .errors import ChargeGameError, SpecError, _finite, _is_integer, _is_number, _quiet
from .model import GameSpec, Profile, _gradient_kernel
from .verify import SolverStatus, TraceRow, _gap_reduction, make_report

DEFAULT_MAX_ITER = 100_000
DEFAULT_GAP_TOL = 1e-6


# A step is either a constant or, by default, eta_n = 1/(1 + n**(1/4)) at
# iteration n.  Any schedule whose steps sum to infinity keeps the fixed
# points and the dual-averaging convergence argument; this one decays slowly
# enough that degenerate equilibria (a tie on an unused strategy) are still
# reached.  The steps of a game are scaled by a factor set by
# Lip = power * duration * f'(max L + P), which bounds how fast a strategy's
# cost changes as weight moves.  Games steeper than STEP_SCALE_BOUND, which
# can cycle under full steps, take steps times STEP_SCALE_BOUND / Lip.  Under
# the default schedule a gently sloped game with 0 < Lip < STEP_SCALE_FLOOR
# takes steps times STEP_SCALE_FLOOR / Lip, so it learns at the same pace in
# any unit its cost is written in.  Every other game keeps its steps, and so
# does a constant step on a gentle game: a constant step does not decay,
# and raised it cycles.  A floor of 6 to 12 is faster on typical games but
# brings near-degenerate ones (a strategy left with a sliver of weight) to
# finish near max_iter, at iteration counts that a 1% change of the loads
# moves by thousands.
STEP_SCALE_BOUND = 32.0
STEP_SCALE_FLOOR = 4.0


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
# A live stack owns its buffers, built together when the stack is and
# rebuilt only when a game leaves it.  The gradients G and the cumulative
# costs share one (2, rows, slots) state.  Iteration n adds
# scale * eta_n * G to the costs through a step buffer of its own, which
# leaves G unscaled for the gap, and then takes one minimum over the
# state's slot axis: G's row minima for the gap, and the costs' row minima,
# by which the softmax shifts its exponents.  A minimum is exact, so the
# floats are those of taking the gap before the update.  The stop test
# follows the update, so eta_n is taken at every n < max_iter, the
# iteration at which the last game stops included.  When games leave, the
# new stack gets the kept rows' costs and minima, then runs the softmax.
# The gap's row dots go through views of the rows and G built with the
# stack; the ufuncs are bound once per stack and, but for np.maximum, take
# their outputs by position; only the cost family's f and f' come as new
# arrays.  A linear game's raw kernel needs neither: it is the affine map
# (c, B) of model._linear_form, three numpy calls, which sums in another
# order than the general kernel.  The certificates (vi_gap,
# player_gradients, a sweep's) keep the checked general kernel, with f
# evaluated under the domain check, so they do not rest on the map the
# loop learned by.  The gap reduction picks its form by the stack's game
# count: one game loops over its few rows, which costs less than array
# calls, and a larger stack takes a fixed number of array calls.  So an
# iteration costs a fixed number of numpy calls whatever the stack's size.
# Nothing the loop hands out is a buffer: a trace row and a report take
# copies of their rows, and the gaps come as a list of floats.


def _softmax(
    weights: np.ndarray, cum_costs: np.ndarray, lows: np.ndarray, rows: np.ndarray
) -> Callable[[], None]:
    """A function that writes into ``rows`` the rows of ``cum_costs`` as
    they stand: row i is weights[i] times the softmax of -cum_costs[i].

    ``lows`` holds each row's minimum cost, one per row with its axis kept.
    Shifting the exponents by it leaves the distribution unchanged but
    avoids overflow.
    """
    scaled = np.empty_like(cum_costs)
    totals = np.empty(weights.size)
    factors = totals[:, None]
    subtract, exp, divide, multiply = np.subtract, np.exp, np.divide, np.multiply
    add_reduce = np.add.reduce

    def softmax() -> None:
        subtract(lows, cum_costs, scaled)
        exp(scaled, scaled)
        add_reduce(scaled, 1, None, totals)
        divide(weights, totals, totals)
        multiply(factors, scaled, rows)

    return softmax


def _check_options(max_iter, gap_tol, step_size, trace_every) -> None:
    """Raise SpecError for options the loop cannot honour: an iteration cap
    or a trace interval that is not a whole number >= 0 (the CLI's rule for
    the cap; a trace interval of 0 records no trace), a tolerance that is
    not a finite number, which every gap meets (inf), none meets or misses
    (NaN) or none compares with (a string, None, a complex number, an
    array), and a step that is neither "default" nor a finite number > 0,
    which stands still, climbs or cannot scale a gradient.  A bool is no
    number here, as in a config.  A finite negative tolerance is fine: it
    runs all ``max_iter`` steps."""
    if not _is_integer(max_iter, 0):
        raise SpecError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    if not _is_integer(trace_every, 0):
        raise SpecError(f"trace_every must be an integer >= 0, got {trace_every!r}")
    if not _is_number(gap_tol):
        raise SpecError(f"gap_tol must be a finite number, got {gap_tol!r}")
    # Only a string is compared with "default": an array's == is an array.
    if isinstance(step_size, str):
        step_ok = step_size == "default"
    else:
        step_ok = _is_number(step_size) and step_size > 0.0
    if not step_ok:
        raise SpecError(f'step_size must be "default" or a finite number > 0, got {step_size!r}')


def solve_dynamics(
    spec: GameSpec,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    gap_tol: float = DEFAULT_GAP_TOL,
    step_size: str | float = "default",
    trace_every: int = 0,
):
    """Iterate the learning dynamics from the uniform profile.

    Stops once the variational gap drops to ``gap_tol`` or after
    ``max_iter`` steps, whichever comes first; the report's status says
    which happened, since convergence is not guaranteed for nonlinear
    cost families.  ``trace_every`` > 0 records every that-many-th iterate
    (plus the final one) for convergence plots.  ``step_size`` is
    "default", the schedule 1/(1 + n**(1/4)) at iteration n, or a constant
    finite number > 0.  Every step is multiplied by the game's step scale
    (see ``STEP_SCALE_BOUND``): under the default schedule by
    ``min(32, max(4, Lip)) / Lip``, and a constant step by
    ``min(1, 32 / Lip)``; a game with Lip = 0 keeps its steps.

    Returns:
        :class:`~chargegame.verify.EquilibriumReport` for the final iterate.

    Raises:
        SpecError: ``max_iter`` or ``trace_every`` is not an integer >= 0,
            ``gap_tol`` is not a finite number, or ``step_size`` is neither
            "default" nor a finite number > 0.
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
    step_size: str | float = "default",
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
    # A constant step, scaled; None under the default schedule.
    constant = None if isinstance(step_size, str) else scale * float(step_size)
    if constant is None and 0.0 < lip < STEP_SCALE_FLOOR:
        scale = STEP_SCALE_FLOOR / lip
    outcomes: list = [None] * len(specs)
    live = list(range(len(specs)))  # the games in the stack, in stack order
    traces = [[] for _ in specs] if trace_every > 0 else None
    slots = spec.num_start_slots

    def stack(weights, cum_costs, shifts):
        """The buffers and steps of a live stack whose cumulative costs
        start at ``cum_costs``, with row minima ``shifts``.

        Returns its rows, its state (the gradients, then the costs), their
        row minima, ``advance(step)``, which takes the gradients at the
        rows, adds ``step`` times them to the costs (nothing when ``step``
        is None) and returns the gaps, and ``settle()``, which writes the
        costs' rows."""
        state = np.empty((2, weights.size, slots))
        gradients, costs = state
        costs[...] = cum_costs
        minima = np.empty((2, weights.size, 1))
        minima[1] = shifts
        rows, steps = np.empty_like(costs), np.empty_like(costs)
        kernel = _gradient_kernel(spec, weights, checked=False, out=gradients)
        gaps = _gap_reduction(weights, players, rows, gradients, minima[0, :, 0])
        multiply, add, lowest = np.multiply, np.add, np.minimum.reduce

        def advance(step):
            kernel(rows)
            if step is not None:
                multiply(gradients, step, steps)
                add(costs, steps, costs)
            lowest(state, 2, None, minima, True)
            return gaps()

        return rows, state, minima, advance, _softmax(weights, costs, minima[1], rows)

    rows, state, minima, advance, settle = stack(weights, 0.0, 0.0)
    settle()
    iteration = 0
    while True:
        if iteration >= max_iter:
            step = None
        elif constant is None:
            step = scale * (1.0 / (1.0 + math.sqrt(math.sqrt(iteration))))  # eta_n
        else:
            step = constant
        gaps = advance(step)
        if traces is not None and iteration % trace_every == 0:
            for j, game in enumerate(live):
                traces[game].append(TraceRow(iteration, gaps[j], rows[j::len(live)].copy()))
        # A game stays while its gap is above gap_tol, which a NaN gap is not.
        done = step is None
        for gap in gaps:
            if not gap > gap_tol:
                done = True
                break
        if done:
            keep = [step is not None and gap > gap_tol for gap in gaps]
            for j, game in enumerate(live):
                if not keep[j]:
                    trace = None if traces is None else traces[game]
                    outcomes[game] = _outcome(
                        specs[game], rows[j::len(live)], gaps[j], gap_tol, iteration, trace
                    )
            live = [game for game, stays in zip(live, keep) if stays]
            if not live:
                return outcomes
            kept = np.tile(keep, players)
            weights = weights[kept]
            rows, state, minima, advance, settle = stack(weights, state[1, kept], minima[1, kept])
        settle()
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
