"""Equilibrium certification.

A profile is a composite equilibrium exactly when the individuals satisfy
the Wardrop conditions (every strategy they use is a cheapest one) and
each coalition's flow minimizes its average cost given everyone else.
Both conditions collapse into a single scalar certificate here: the
variational gap, the total advantage all players could gain by linearized
unilateral moves.  It is nonnegative everywhere and zero exactly at
composite equilibria, so solvers use it as their stopping rule and reports
carry it as the certification value.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .errors import _finite, _quiet, _tolerance
from .model import (
    CostSummary,
    GameSpec,
    LoadDecomposition,
    Profile,
    _coalition_mass,
    _reduced_costs,
    _slot_prices,
    _summarize_costs,
    decompose_loads,
    player_gradients,
    strategy_costs,
)

# Fraction of a player's mass below which a strategy counts as unused.
DEFAULT_SUPPORT_RATIO = 1e-6


class SolverStatus(enum.Enum):
    ANALYTIC = "analytic"
    CONVERGED = "converged"
    MAX_ITER_REACHED = "max-iter-reached"


def support_threshold(mass: float) -> float:
    return DEFAULT_SUPPORT_RATIO * mass


@_quiet()
def vi_gap(spec: GameSpec, profile: Profile) -> float:
    """Total linearized improvement available to all players at once.

    Per player this is the inner product of its marginal costs with its own
    flow, minus the mass times the smallest marginal cost: the best score a
    linearized unilateral deviation over the player's scaled simplex could
    reach.  Nonnegative always; zero exactly at composite equilibria.

    Raises:
        NumericsError: some strategy cost is not finite, so the profile
            has no certificate.
    """
    gradients = player_gradients(spec, profile)
    gap = _gaps(spec.weights, profile.matrix(), gradients, spec.num_players)[0]
    return _finite(gap)


def _gaps(masses, rows: np.ndarray, gradients: np.ndarray, players: int) -> list:
    """Variational gap of every game in a player-major stack of rows; NaN
    for a game whose gradients are not all finite.

    ``masses`` lists the rows' masses.  One-shot form of
    :func:`_gap_reduction`, which holds the rules.
    """
    lows = np.minimum.reduce(gradients, 1)
    return _gap_reduction(np.asarray(masses, dtype=float), players, rows, gradients, lows)()


def _gap_reduction(
    masses: np.ndarray, players: int, rows: np.ndarray, gradients: np.ndarray, lows: np.ndarray
):
    """The gap of every game in a player-major stack of rows with these
    masses, as a function that reads the arrays ``rows``, ``gradients`` and
    ``lows`` (the gradients' row minima, one per row) as they stand when it
    is called.

    Each row with mass adds max(<row, gradient> - mass * min gradient, 0),
    in player order from 0.0.  A game gets NaN when any of its rows, with
    mass or without, has a non-finite dot or minimum.  That check rides on
    the same per-row reductions: a NaN entry makes the row's minimum NaN,
    -inf makes it -inf, and +inf makes the row's dot inf (NaN where the
    row puts no weight, as 0 * inf).

    The row dots take one BLAS ddot per row, written into a buffer through
    views of the rows and gradients built here.  A stack of one game loops
    over its few rows, which costs less than array calls.  A larger stack
    runs a fixed number of array calls on buffers built here, whatever its
    size; their float operations and order are the loop's, so each game's
    gap is the one it gets alone.  The function returns the gaps as a list
    of floats, never a buffer.
    """
    rows_count = masses.size
    matmul = np.matmul
    row_views, gradient_views = rows[:, None], gradients[:, :, None]
    dots = np.empty((rows_count, 1, 1))
    if rows_count == players:
        weights = masses.tolist()
        dot_list = dots.ravel()

        def gaps():
            matmul(row_views, gradient_views, dots)
            gap = 0.0
            for dot, low, mass in zip(dot_list.tolist(), lows.tolist(), weights):
                if not (math.isfinite(dot) and math.isfinite(low)):
                    return [math.nan]
                if mass > 0.0:
                    gap += max(dot - mass * low, 0.0)
            return [gap]

        return gaps

    shape = (players, rows_count // players)
    stacked = masses.reshape(shape)
    has_mass = (stacked > 0.0).astype(float)
    dots_by_game, lows_by_game = dots.reshape(shape), lows.reshape(shape)
    terms, probe = np.empty(shape), np.empty(shape)
    # np.maximum deprecates a positional output; it alone takes out=.
    add, subtract, multiply, maximum = np.add, np.subtract, np.multiply, np.maximum
    add_reduce = np.add.reduce

    def gaps():
        matmul(row_views, gradient_views, dots)
        multiply(stacked, lows_by_game, terms)
        subtract(dots_by_game, terms, terms)
        maximum(terms, 0.0, out=terms)
        # A row without mass adds a zero of either sign, which leaves a sum
        # that starts at 0.0 unchanged.
        multiply(terms, has_mass, terms)
        # x - x is 0.0 for a finite x and NaN otherwise.  The dot alone
        # marks the game: a minimum is non-finite only when some entry is,
        # and that entry makes the dot non-finite (x * inf, 0 * inf, 0 * NaN).
        subtract(dots_by_game, dots_by_game, probe)
        add(terms, probe, terms)
        return add_reduce(terms, 0, initial=0.0).tolist()

    return gaps


class WardropCheck(NamedTuple):
    """Outcome of the individuals' equilibrium-condition check.

    ``worst_slack`` is the largest excess of a used strategy's cost over
    the cheapest one; ``witness`` names the offending (start, cost, best)
    triple when the check fails.
    """

    passed: bool
    worst_slack: float
    witness: tuple[int, float, float] | None = None


def check_wardrop(spec: GameSpec, profile: Profile, eps: float) -> WardropCheck:
    """Pass iff every strategy the individuals use is within eps of cheapest;
    an ``eps`` that is NaN or not a real number raises a SpecError."""
    _tolerance("wardrop eps", eps)
    return _wardrop_at(spec, profile, strategy_costs(spec, profile), eps)


def _wardrop_at(
    spec: GameSpec, profile: Profile, costs: np.ndarray, eps: float
) -> WardropCheck:
    used = profile.flows[0].values > support_threshold(float(spec.weights[0]))
    if not used.any():
        return WardropCheck(passed=True, worst_slack=0.0)
    best = float(costs.min())
    slack = costs - best
    slack[~used] = -np.inf
    worst = int(np.argmax(slack))
    worst_slack = float(slack[worst])
    if worst_slack <= eps:
        return WardropCheck(passed=True, worst_slack=worst_slack)
    return WardropCheck(
        passed=False,
        worst_slack=worst_slack,
        witness=(worst, float(costs[worst]), best),
    )


class OptimalityCheck(NamedTuple):
    """Outcome of one coalition's best-response check (its own gap term)."""

    passed: bool
    gap: float


def check_coalition_optimality(
    spec: GameSpec, profile: Profile, k: int, eps: float
) -> OptimalityCheck:
    """Pass iff coalition ``k``'s linearized improvement is at most eps.

    ``k`` is a whole number from 1 to K; any other index raises IndexError
    and a zero-mass coalition UndefinedAverageError.  An ``eps`` that is NaN
    or not a real number raises a SpecError.
    """
    _tolerance("coalition optimality eps", eps)
    k, mass = _coalition_mass(spec, k)
    gradients = player_gradients(spec, profile)
    (gap,) = _gaps([mass], profile.flows[k].values[None], gradients[k][None], 1)
    return OptimalityCheck(passed=gap <= eps, gap=gap)


class OrderingCheck(NamedTuple):
    """Outcome of the equilibrium cost-ordering check."""

    passed: bool
    violations: tuple[str, ...] = ()


class TraceRow(NamedTuple):
    """Convergence-log entry: the profile and its gap at one iteration."""

    iteration: int
    gap: float
    flows: np.ndarray


class EquilibriumReport(NamedTuple):
    """A solved profile with its certification diagnostics.

    ``reduced`` carries the middle-slot-normalized costs for three-slot
    games and is None otherwise.  ``boundary`` flags profiles sitting on a
    simplex boundary (some strategy essentially unused), where an iterative
    limit point deserves a closer look before being read as an equilibrium.
    """

    game: GameSpec
    profile: Profile
    loads: LoadDecomposition
    costs: CostSummary
    reduced: CostSummary | None
    vi_gap: float
    wardrop_slack: float
    boundary: bool
    status: SolverStatus
    iterations: int
    trace: tuple[TraceRow, ...] | None = None


def check_cost_ordering(report: EquilibriumReport, tol: float = 1e-9) -> OrderingCheck:
    """At a certified equilibrium: individuals <= social <= each coalition.

    The ordering is an equilibrium property (individuals sit on the
    cheapest alternatives), not a general-profile one, so call this only
    on reports whose gap is within its certification tolerance.  Each
    comparison allows ``tol`` at the cost's scale, ``tol * max(1,
    |social|)``, so costs that differ by rounding pass at any magnitude.
    A NaN ``tol``, which every comparison would pass, or one that is not a
    real number raises a SpecError.
    """
    _tolerance("cost ordering tol", tol)
    costs = report.costs
    tol *= max(1.0, abs(costs.social))
    violations = []
    if costs.individuals > costs.social + tol:
        violations.append(
            f"individuals {costs.individuals} > social {costs.social}"
        )
    for k, value in enumerate(costs.coalitions, start=1):
        if value is not None and costs.social > value + tol:
            violations.append(f"social {costs.social} > coalition {k} {value}")
    return OrderingCheck(passed=not violations, violations=tuple(violations))


def make_report(
    spec: GameSpec,
    profile: Profile,
    status: SolverStatus,
    *,
    iterations: int = 0,
    gap: float | None = None,
    trace: tuple[TraceRow, ...] | None = None,
) -> EquilibriumReport:
    """Assemble the full diagnostic report for a solved profile.

    ``gap`` is the profile's variational gap when the caller already has
    it; otherwise it is computed here.  The entity costs and the Wardrop
    slack share one load decomposition and one evaluation of the prices.
    """
    if gap is None:
        gap = vi_gap(spec, profile)
    loads = decompose_loads(spec, profile)
    prices, strategy = _slot_prices(spec, loads)
    costs = _summarize_costs(spec, profile, loads, prices, strategy)
    wardrop = _wardrop_at(spec, profile, strategy, eps=np.inf)
    boundary = any(
        mass > 0.0 and float(flow.values.min()) <= support_threshold(mass)
        for mass, flow in zip(spec.weights, profile.flows)
    )
    return EquilibriumReport(
        game=spec,
        profile=profile,
        loads=loads,
        costs=costs,
        reduced=_reduced_costs(spec, costs),
        vi_gap=gap,
        wardrop_slack=wardrop.worst_slack,
        boundary=boundary,
        status=status,
        iterations=iterations,
        trace=trace,
    )
