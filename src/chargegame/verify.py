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
from typing import NamedTuple

import numpy as np

from .errors import SpecError, _finite, _quiet, _tolerance
from .model import (
    CostSummary,
    GameSpec,
    LoadDecomposition,
    Profile,
    _coalition_mass,
    _entity_costs,
    _profile_gradients,
    _reduced_costs,
    strategy_costs,
    validate_profile,
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

    This is the gap function sum_i <x_i, G_i - min G_i> of the players'
    flows x_i and marginal costs G_i: per player, how far its own flow
    could lower its linearized cost by moving onto its cheapest strategy.
    Nonnegative always; zero exactly at composite equilibria.

    Raises:
        NumericsError: some strategy cost is not finite, so the profile
            has no certificate.
    """
    rows, gradients = _profile_gradients(spec, profile)
    return _finite(_gaps(rows, gradients, spec.num_players)[0])


def _gaps(rows: np.ndarray, gradients: np.ndarray, players: int) -> list:
    """Variational gap of every game in a slot-major stack of rows (column
    g*N + i holds player i of game g), which is non-finite for a game whose
    gradients are not all finite.

    Each column x adds sum_s x_s * (G_s - min G), summed over the slots in
    slot order, and then the game's players are summed in player order
    (:func:`_gap_reduction`).  That is <x, G> - mass * min G for a column
    that carries its mass, written as a sum of products that are never
    negative: it needs no clamp, loses no digits to cancellation, and a
    column without mass adds zero.  A non-finite gradient entry, on a used
    slot, an unused one or a column without mass, makes its game's gap
    non-finite by itself: a NaN or a -inf makes the column's minimum
    non-finite, and with it every difference, and a +inf makes its own
    difference -inf, which a zero weight turns into NaN.

    The differences are taken as min G - G, the sign of the dynamics'
    softmax exponents, so a column's sum is taken as
    0 - x_0 * (min G - G_0) - x_1 * (min G - G_1) - ... below a zero row,
    which is the sum above to the bit: numpy subtracts the rows of a
    C-ordered buffer one after another, in slot order, whatever the
    stack's size, where it would add a lone column of eight or more
    entries pairwise.  The dynamics take their column sums the same way,
    in one reduction with their softmax totals.
    """
    # A zero row above the terms starts every column's subtraction at 0.0.
    terms = np.zeros((rows.shape[0] + 1, rows.shape[1]))
    differences = np.subtract(np.minimum.reduce(gradients, 0), gradients)
    np.multiply(rows, differences, terms[1:])
    return _gap_reduction(players, np.subtract.reduce(terms, 0))()


def _gap_reduction(players: int, sums: np.ndarray):
    """The gap of every game in a stack from its column sums (see
    :func:`_gaps`), as a function that reads the vector ``sums`` as it
    stands when it is called.

    A game's players are added in player order, one add per player after
    the first, in any stack, so each game's gap is the one it gets alone.
    The function returns the gaps as a list of floats, never a buffer.
    """
    # One strided view per player, a game per entry: a call on such a
    # vector runs one inner loop, where a reduction over each game's few
    # adjacent players would run one per game.
    first, *others = sums.reshape(-1, players).T
    totals = np.empty(first.size) if others else sums
    addends = list(zip([first] + [totals] * (players - 2), others))
    add = np.add

    def gaps():
        for augend, addend in addends:
            add(augend, addend, totals)
        return totals.tolist()

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
    k, _ = _coalition_mass(spec, k)
    rows, gradients = _profile_gradients(spec, profile)
    (gap,) = _gaps(rows[:, k : k + 1], gradients[:, k : k + 1], 1)
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
    A ``status`` that is not a :class:`SolverStatus` raises a SpecError
    naming it.
    """
    if not isinstance(status, SolverStatus):
        raise SpecError(f"status must be a SolverStatus, got {status!r}")
    if gap is None:
        gap = vi_gap(spec, profile)
    validate_profile(spec, profile)
    loads, strategy, costs = _entity_costs(spec, spec.weights, profile.matrix())
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
