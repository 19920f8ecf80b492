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
# The stack of B games with N players each is slot-major: every per-player
# array is (slots, B*N), column g*N + i holding player i of game g, and
# every per-player scalar (a column minimum, a softmax total, a gap term) is
# one entry of a (B*N,) vector.  Each reduction over a player's slots then
# runs along the outer axis, where numpy's cost does not grow with the
# number of columns, and adds the slots in slot order in any stack.  A
# game's players are adjacent columns, and every sum over them (the kernel's
# slot loads, the gap's players) adds them in player order in any stack.
# So an iteration costs the same numpy calls whatever the stack's size, and
# each game's floats are those it gets alone (a one-player game aside, see
# _solve_batch).  A game leaves the stack with its raw rows, gap and
# iteration, player-major; solve_dynamics builds its report from them, and
# a sweep only the record it keeps.
#
# A live stack owns its buffers, built together when the stack is and
# rebuilt only when a game leaves it.  The gradients G and the cumulative
# costs C share one (2, slots, B*N) state, and the terms of the loop's two
# sums over slots share one (2, slots + 1, B*N) buffer, each half below a
# zero row.  Iteration n first writes the rows, the softmax of the
# numerators exp(min C - C) that the last iteration left: each column's
# weight over its total, times its numerators.  It takes G at the rows
# from the model's gradient kernel, which writes into the state, and adds
# scale * eta_n * G to C through a step buffer of its own, which leaves G
# unscaled for the gap.  One minimum over the state's slot axis, and the
# state subtracted from its minima into the two halves of the terms, give
# min G - G, which the rows then multiply, and min C - C, whose
# exponentials are the next numerators, shifted so that none overflows.
# One np.subtract.reduce over the terms' slot axis then takes, per column,
# both 0 - x_0 * (min G_0 - G_0) - x_1 * (...) - ..., the gap's sum
# x * (G - min G), and the negated total of the next numerators.  numpy
# subtracts one row after another, in slot order in any stack, where it
# would add a lone column of eight or more entries pairwise, so each is
# the slot-order sum to the bit.  verify._gap_reduction then adds each
# game's players in player order.  A minimum is exact, so the floats are
# those of taking the gap before the update, as verify._gaps does, and of
# the softmax after it.  A game whose gap is not finite, from a non-finite
# gradient entry anywhere in it, leaves with its NumericsError.  The stop
# test follows the update, so eta_n is taken at every n < max_iter, the
# iteration at which the last game stops included.  When games leave, the
# new stack gets the kept columns' costs and numerators and takes their
# totals by the same reduction.  The ufuncs are bound once per stack and
# take their outputs by position, and the step is a 0-d array; only the
# cost family's f and f' come as new arrays.  A linear game's raw kernel
# needs neither: it is the affine map (c, B) of model._linear_form, three
# numpy calls, which sums in another order than the general kernel.  The
# certificates (vi_gap, player_gradients, a sweep's) keep the checked
# general kernel, with f evaluated under the domain check, so they do not
# rest on the map the loop learned by.  Nothing the loop hands out is a
# buffer: a leaving game and a trace row take copies of their rows, and
# the gaps come as a list of floats.


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


@_quiet()
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
        spec, (spec.weights,), max_iter=max_iter, gap_tol=gap_tol, step_size=step_size,
        trace_every=trace_every,
    )
    if isinstance(outcome, ChargeGameError):
        raise outcome
    rows, gap, status, iteration, trace = outcome
    profile = Profile.from_rows(spec, rows)
    return make_report(spec, profile, status, iterations=iteration, gap=gap, trace=trace)


@_quiet()
def _solve_batch(
    spec: GameSpec,
    weights,
    *,
    max_iter: int = DEFAULT_MAX_ITER,
    gap_tol: float = DEFAULT_GAP_TOL,
    step_size: str | float = "default",
    trace_every: int = 0,
) -> list:
    """Run the learning dynamics of several games as one stack.

    The games are ``spec`` with each of ``weights`` (one vector of
    ``spec.num_players`` masses per game, as GameSpec stores them) in
    place of its own: they share horizon, duration, power, base load and
    cost and differ only in their weights.  All start together, so they
    share the iteration count, the step scale (which depends on the spec
    only) and the step size, and each game leaves the stack once its gap
    reaches ``gap_tol`` or ``max_iter`` is hit, or with a NumericsError
    once its gap is not finite.  With two or more players per game every
    game's arithmetic is the same as in a stack of its own, so each
    outcome equals :func:`solve_dynamics` on that game bit for bit.  A
    one-player game does so in any stack of two or more games.  Alone it
    is a single column, which numpy multiplies as a vector, not as a
    matrix, so it may round differently there.

    Returns:
        Per game, in order, the ChargeGameError that ended it, or its exit
        ``(rows, gap, status, iteration, trace)``: its final rows as a
        fresh player-major array, not yet renormalized as a Flow, their
        finite gap, its SolverStatus, the iteration it left at, and its
        trace as a tuple of TraceRow ending at that iteration (None when
        ``trace_every`` is 0).

    Raises:
        SpecError: for the options, as :func:`solve_dynamics`.
    """
    _check_options(max_iter, gap_tol, step_size, trace_every)
    cost, players = spec.cost, spec.num_players
    weights = np.concatenate(weights)  # column order
    games = weights.size // players
    # Rows sum to their masses, which sum to one, so every iterate's slot loads
    # lie in [min L, max L + P]: checking the cost domain (and f') on that
    # envelope once lets the loop call the raw cost functions, and f' at its
    # top gives the step scale.
    envelope = np.array([spec.base_load.min(), spec.base_load.max() + spec.power])
    try:
        slope = float(np.max(cost.derivative(envelope)))  # f' is increasing
    except ChargeGameError as exc:
        return [exc] * games
    lip = spec.power * spec.duration * slope
    scale = STEP_SCALE_BOUND / lip if lip > STEP_SCALE_BOUND else 1.0
    # A constant step, scaled; None under the default schedule.
    constant = None if isinstance(step_size, str) else scale * float(step_size)
    if constant is None and 0.0 < lip < STEP_SCALE_FLOOR:
        scale = STEP_SCALE_FLOOR / lip
    outcomes: list = [None] * games
    live = list(range(games))  # the games in the stack, in stack order
    traces = [[] for _ in range(games)] if trace_every > 0 else None
    slots = spec.num_start_slots
    inf = math.inf
    multiply, add, subtract, divide = np.multiply, np.add, np.subtract, np.divide
    exp, lowest, subtract_reduce = np.exp, np.minimum.reduce, np.subtract.reduce

    def stack(weights, cum_costs, numerators):
        """The buffers and step of a live stack whose cumulative costs start
        at ``cum_costs``, and its softmax numerators at ``numerators``.

        Returns its rows, its costs, its numerators and ``advance(step)``,
        which writes the rows of the numerators and totals as they stand,
        takes the gradients at those rows, adds ``step`` times them to the
        costs (nothing when ``step`` is None), takes the next numerators and
        totals and returns the gaps."""
        state = np.empty((2, slots, weights.size))
        gradients, costs = state
        costs[...] = cum_costs
        minima = np.empty((2, 1, weights.size))
        lows = minima[:, 0]
        # Below a zero row, which starts every column's subtraction at 0.0:
        # x * (min G - G) for the gap, then the numerators exp(min C - C).
        terms = np.zeros((2, slots + 1, weights.size))
        differences = terms[:, 1:]
        products, exponentials = differences
        exponentials[...] = numerators
        # The gap's column sums, then the negated totals of the numerators.
        sums = np.empty((2, weights.size))
        totals = sums[1]
        subtract_reduce(terms, 1, None, sums)
        rows, kernel = _gradient_kernel(spec, weights, checked=False, out=gradients)
        steps = np.empty_like(costs)
        negated = -weights
        gaps = _gap_reduction(players, sums[0])

        def advance(step):
            divide(negated, totals, totals)
            multiply(totals, exponentials, rows)
            kernel()
            if step is not None:
                multiply(gradients, step, steps)
                add(costs, steps, costs)
            lowest(state, 1, None, lows)
            subtract(minima, state, differences)
            multiply(rows, products, products)
            exp(exponentials, exponentials)
            subtract_reduce(terms, 1, None, sums)
            return gaps()

        return rows, costs, exponentials, advance

    # exp(0 - 0) is 1.0 exactly.
    rows, costs, numerators, advance = stack(weights, 0.0, 1.0)
    # The step reaches numpy as a 0-d array, which a ufunc takes with less
    # work than a float.
    size = np.array(0.0 if constant is None else constant)
    iteration = 0
    while True:
        if iteration >= max_iter:
            step = None
        else:
            if constant is None:
                size[()] = scale * (1.0 / (1.0 + math.sqrt(math.sqrt(iteration))))  # eta_n
            step = size
        gaps = advance(step)
        if traces is not None and iteration % trace_every == 0:
            for j, game in enumerate(live):
                traces[game].append(
                    TraceRow(iteration, gaps[j], rows[:, j * players : (j + 1) * players].T.copy())
                )
        # A game stays while its gap is above gap_tol and finite: a NaN or
        # inf gap marks a non-finite gradient, and the game leaves with it.
        done = step is None
        for gap in gaps:
            if not gap_tol < gap < inf:
                done = True
                break
        if done:
            keep = [step is not None and gap_tol < gap < inf for gap in gaps]
            for j, game in enumerate(live):
                if not keep[j]:
                    outcomes[game] = _exit(
                        rows[:, j * players : (j + 1) * players].T.copy(), gaps[j], gap_tol,
                        iteration, None if traces is None else traces[game],
                    )
            live = [game for game, stays in zip(live, keep) if stays]
            if not live:
                return outcomes
            kept = np.repeat(keep, players)
            weights = weights[kept]
            rows, costs, numerators, advance = stack(
                weights, costs[:, kept], numerators[:, kept]
            )
        iteration += 1


def _exit(rows: np.ndarray, gap: float, gap_tol: float, iteration: int, trace):
    """The exit of a game leaving the stack, as :func:`_solve_batch`
    returns it, or the NumericsError of a gap that is not finite."""
    try:
        gap = _finite(gap)
    except ChargeGameError as exc:
        return exc
    status = SolverStatus.CONVERGED if gap <= gap_tol else SolverStatus.MAX_ITER_REACHED
    if trace is not None:
        if trace[-1].iteration != iteration:
            trace.append(TraceRow(iteration, gap, rows.copy()))
        trace = tuple(trace)
    return rows, gap, status, iteration, trace
