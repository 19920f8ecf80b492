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
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .model import (
    CostSummary,
    GameSpec,
    LoadDecomposition,
    Profile,
    _coalition_mass,
    _slot_prices,
    _summarize_costs,
    _window_sum,
    decompose_loads,
    player_gradients,
    reduced_costs,
    strategy_costs,
    supports_reduced_costs,
)

# Fraction of a player's mass below which a strategy counts as unused.
DEFAULT_SUPPORT_RATIO = 1e-6


class SolverStatus(enum.Enum):
    ANALYTIC = "analytic"
    CONVERGED = "converged"
    MAX_ITER_REACHED = "max-iter-reached"


def support_threshold(mass: float) -> float:
    return DEFAULT_SUPPORT_RATIO * mass


# The non-finite verdict is _finite's; numpy's warnings on the way to it
# would be noise.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
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
    return _gap_reduction(np.asarray(masses, dtype=float), players)(rows, gradients)


def _gap_reduction(masses: np.ndarray, players: int):
    """The gap of every game in a player-major stack of rows with these
    masses, as a function of the rows and their gradients.

    Each row with mass adds max(<row, gradient> - mass * min gradient, 0),
    in player order from 0.0.  A game gets NaN when any of its rows, with
    mass or without, has a non-finite dot or minimum.  That check rides on
    the same per-row reductions: a NaN entry makes the row's minimum NaN,
    -inf makes it -inf, and +inf makes the row's dot inf (NaN where the
    row puts no weight, as 0 * inf).

    A stack of one game runs a loop over its few rows, which costs less
    than the array calls.  A larger stack runs a fixed number of array
    calls on buffers built here, whatever its size; their float operations
    and order are the loop's, so each game's gap is the one it gets alone.
    The function returns the gaps as a list of floats, never a buffer.
    """
    rows_count = masses.size
    if rows_count == players:
        weights = masses.tolist()

        def gaps(rows, gradients):
            # A BLAS ddot per row.
            dots = np.matmul(rows[:, None], gradients[:, :, None]).ravel().tolist()
            lows = np.minimum.reduce(gradients, 1).tolist()
            gap = 0.0
            for dot, low, mass in zip(dots, lows, weights):
                if not (math.isfinite(dot) and math.isfinite(low)):
                    return [math.nan]
                if mass > 0.0:
                    gap += max(dot - mass * low, 0.0)
            return [gap]

        return gaps

    shape = (players, rows_count // players)
    stacked = masses.reshape(shape)
    has_mass = (stacked > 0.0).astype(float)
    dots = np.empty((rows_count, 1, 1))
    lows = np.empty(rows_count)
    dots_by_game, lows_by_game = dots.reshape(shape), lows.reshape(shape)
    terms, probe = np.empty(shape), np.empty(shape)

    def gaps(rows, gradients):
        np.matmul(rows[:, None], gradients[:, :, None], out=dots)
        np.minimum.reduce(gradients, 1, out=lows)
        np.multiply(stacked, lows_by_game, out=terms)
        np.subtract(dots_by_game, terms, out=terms)
        np.maximum(terms, 0.0, out=terms)
        # A row without mass adds a zero of either sign, which leaves a sum
        # that starts at 0.0 unchanged.
        np.multiply(terms, has_mass, out=terms)
        # x - x is 0.0 for a finite x and NaN otherwise.  The dot alone
        # marks the game: a minimum is non-finite only when some entry is,
        # and that entry makes the dot non-finite (x * inf, 0 * inf, 0 * NaN).
        np.subtract(dots_by_game, dots_by_game, out=probe)
        np.add(terms, probe, out=terms)
        return np.add.reduce(terms, 0, initial=0.0).tolist()

    return gaps


def _finite(values, what: str = "strategy costs encountered"):
    """``values``, a float or a list or array of them, or a NumericsError
    when one is not finite: f or f' overflowed somewhere on the way.  By
    default ``values`` are certificate gaps, and a profile whose gap is not
    finite is no result."""
    if not np.isfinite(values).all():
        raise NumericsError(f"non-finite {what}; check the cost family scale")
    return values


@dataclass(frozen=True)
class WardropCheck:
    """Outcome of the individuals' equilibrium-condition check.

    ``worst_slack`` is the largest excess of a used strategy's cost over
    the cheapest one; ``witness`` names the offending (start, cost, best)
    triple when the check fails.
    """

    passed: bool
    worst_slack: float
    witness: tuple[int, float, float] | None = None


def check_wardrop(spec: GameSpec, profile: Profile, eps: float) -> WardropCheck:
    """Pass iff every strategy the individuals use is within eps of cheapest."""
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


@dataclass(frozen=True)
class OptimalityCheck:
    """Outcome of one coalition's best-response check (its own gap term)."""

    passed: bool
    gap: float


def check_coalition_optimality(
    spec: GameSpec, profile: Profile, k: int, eps: float
) -> OptimalityCheck:
    """Pass iff coalition ``k``'s linearized improvement is at most eps.

    ``k`` runs from 1 to K; an index outside raises IndexError and a
    zero-mass coalition UndefinedAverageError.
    """
    mass = _coalition_mass(spec, k)
    gradients = player_gradients(spec, profile)
    (gap,) = _gaps([mass], profile.flows[k].values[None], gradients[k][None], 1)
    return OptimalityCheck(passed=gap <= eps, gap=gap)


@dataclass(frozen=True)
class OrderingCheck:
    """Outcome of the equilibrium cost-ordering check."""

    passed: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class TraceRow:
    """Convergence-log entry: the profile and its gap at one iteration."""

    iteration: int
    gap: float
    flows: np.ndarray


@dataclass(frozen=True)
class EquilibriumReport:
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
    on reports whose gap is within its certification tolerance.
    """
    costs = report.costs
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
    prices = _slot_prices(spec, loads)
    strategy = _window_sum(spec, prices)
    costs = _summarize_costs(spec, profile, loads, prices, strategy)
    reduced = reduced_costs(spec, costs) if supports_reduced_costs(spec) else None
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
        reduced=reduced,
        vi_gap=gap,
        wardrop_slack=wardrop.worst_slack,
        boundary=boundary,
        status=status,
        iterations=iterations,
        trace=trace,
    )
