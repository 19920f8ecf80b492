"""Composite charging game instances and their flow, load and cost algebra.

A game runs over ``horizon`` time slots and is played by one population of
individually optimizing EVs (the nonatomic *individuals*, always player 0)
plus any number of aggregator-run *coalitions*.  Every EV charges for
``duration`` consecutive slots, so a player's strategy is a distribution
of its weight over the feasible start slots; the per-slot charging load it
induces is the length-``duration`` moving sum of that distribution.  All
start-slot and player indices in this package are 0-based.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .costs import CostFunction, LinearCost, _with_domain_bound
from .errors import SpecError, UndefinedAverageError, _finite, _is_integer, _quiet

# Additive tolerance for membership in a scaled simplex.  Inputs further
# out are rejected; inputs within are renormalized by scaling, since
# iterative solvers accumulate tiny drift.
SIMPLEX_TOL = 1e-9

# Unresolved cost-family bounds get W = this factor * (max base load + power).
DEFAULT_BOUND_FACTOR = 10.0


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=64)
def _incidence(horizon: int, duration: int) -> np.ndarray:
    """Start-slot/slot incidence matrix A (S x T), read-only.

    A[s, t] = 1 exactly when an EV starting at s charges in slot t, so a
    flow's per-slot load is ``flow @ A`` and per-slot prices add up to
    start-slot costs as ``A @ prices``.
    """
    offset = np.arange(horizon) - np.arange(horizon - duration + 1)[:, None]
    return _frozen_array((offset >= 0) & (offset < duration))


def _window_sum(spec: GameSpec, values: np.ndarray) -> np.ndarray:
    """Per start slot, the sum of ``values`` over its charging window."""
    return _incidence(spec.horizon, spec.duration) @ values


def _onto_masses(rows: np.ndarray, masses) -> tuple[np.ndarray, np.ndarray]:
    """A :class:`Flow`'s renormalization of one row or a stack of rows.

    Negative entries are clipped to zero, then each row (last axis) is
    scaled by its mass over its total, and a row whose total is zero
    becomes zeros.  ``masses`` broadcasts against the totals, which keep
    their axis.  Returns the scaled rows and the totals before scaling.
    """
    rows = np.maximum(rows, 0.0)
    totals = np.add.reduce(rows, -1, keepdims=True)
    positive = totals > 0.0
    scale = np.divide(masses, totals, out=np.zeros(totals.shape), where=positive)
    return np.where(positive, rows * scale, 0.0), totals


@dataclass(frozen=True)
class GameSpec:
    """One composite charging game.

    Attributes:
        horizon: number of time slots, a whole number, stored as an int.
        duration: consecutive charging slots per EV, a whole number
            between 1 and horizon, stored as an int.
        power: total EV charging power scale multiplying the aggregate load.
        base_load: non-EV load per slot, length ``horizon``, nonnegative.
        cost: per-unit cost family; an unresolved validity bound is pinned
            here to ``DEFAULT_BOUND_FACTOR * (max base load + power)``.
        weights: player masses, individuals first and then one entry per
            coalition; nonnegative and summing to one.
    """

    horizon: int
    duration: int
    power: float
    base_load: np.ndarray
    cost: CostFunction
    weights: np.ndarray

    def __post_init__(self):
        # A whole float is a count too; a bool or a non-finite number is not.
        if not _is_integer(self.horizon, 1):
            raise SpecError(f"horizon must be a positive integer, got {self.horizon!r}")
        if not (_is_integer(self.duration, 1) and self.duration <= self.horizon):
            raise SpecError(
                f"duration must be an integer with 1 <= duration <= horizon, got {self.duration!r}"
            )
        object.__setattr__(self, "horizon", int(self.horizon))
        object.__setattr__(self, "duration", int(self.duration))
        if not 0 <= self.power < math.inf:
            raise SpecError("power must be finite and nonnegative")

        load = np.asarray(self.base_load, dtype=float)
        if load.shape != (self.horizon,):
            raise SpecError(
                f"base_load must have length {self.horizon}, got shape {load.shape}"
            )
        if not (np.isfinite(load).all() and load.min() >= 0):
            raise SpecError("base_load entries must be finite and nonnegative")

        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size < 1:
            raise SpecError("weights must be a nonempty vector")
        if not (np.isfinite(weights).all() and weights.min() >= 0):
            raise SpecError("weights must be finite and nonnegative")
        total = float(weights.sum())
        if not abs(total - 1.0) <= SIMPLEX_TOL:
            raise SpecError(f"weights must sum to 1, got {total}")
        weights = weights / total

        cost = self.cost
        if not isinstance(cost, CostFunction):
            raise SpecError(f"cost must be a CostFunction, got {cost!r}")
        peak = float(load.max()) + self.power
        if cost.domain_bound is None:
            cost = _with_domain_bound(cost, DEFAULT_BOUND_FACTOR * max(peak, 1.0))
        elif peak > cost.domain_bound + SIMPLEX_TOL:
            raise SpecError(
                f"max base load + power = {peak} exceeds the cost validity bound "
                f"{cost.domain_bound}"
            )

        object.__setattr__(self, "base_load", _frozen_array(load))
        object.__setattr__(self, "weights", _frozen_array(weights))
        object.__setattr__(self, "cost", cost)

    @property
    def num_start_slots(self) -> int:
        return self.horizon - self.duration + 1

    @property
    def num_coalitions(self) -> int:
        return len(self.weights) - 1

    @property
    def num_players(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class Flow:
    """A player's strategy: weight placed on each feasible start slot.

    ``values`` must be nonnegative and sum to ``mass`` (a point of the
    scaled simplex).  Sums within :data:`SIMPLEX_TOL` are renormalized by
    scaling; anything further out is rejected.
    """

    values: np.ndarray
    mass: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise SpecError("flow values must be a nonempty vector")
        mass = float(self.mass)
        if not -SIMPLEX_TOL <= mass < math.inf:
            raise SpecError("flow mass must be finite and nonnegative")
        mass = max(mass, 0.0)
        if not (np.isfinite(values).all() and values.min() >= -SIMPLEX_TOL):
            raise SpecError("flow entries must be finite and nonnegative")
        values, total = _onto_masses(values, mass)
        total = float(total[0])
        if not abs(total - mass) <= SIMPLEX_TOL:
            raise SpecError(
                f"flow entries sum to {total}, expected mass {mass} "
                f"(tolerance {SIMPLEX_TOL})"
            )
        object.__setattr__(self, "values", _frozen_array(values))
        object.__setattr__(self, "mass", mass)

    @classmethod
    def uniform(cls, mass: float, num_slots: int) -> "Flow":
        return cls(np.full(num_slots, mass / num_slots), mass)

    @classmethod
    def concentrated(cls, mass: float, num_slots: int, slot: int) -> "Flow":
        values = np.zeros(num_slots)
        values[slot] = mass
        return cls(values, mass)


@dataclass(frozen=True)
class Profile:
    """Strategies of every player; index 0 holds the individuals."""

    flows: tuple[Flow, ...]

    def __post_init__(self):
        flows = tuple(self.flows)
        if not flows:
            raise SpecError("profile needs at least the individuals' flow")
        width = len(flows[0].values)
        if any(len(f.values) != width for f in flows):
            raise SpecError("all flows in a profile must have the same length")
        object.__setattr__(self, "flows", flows)

    @classmethod
    def uniform(cls, spec: GameSpec) -> "Profile":
        n = spec.num_start_slots
        return cls(tuple(Flow.uniform(m, n) for m in spec.weights))

    @classmethod
    def from_rows(cls, spec: GameSpec, rows) -> "Profile":
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (spec.num_players, spec.num_start_slots):
            raise SpecError(
                f"profile rows must have shape "
                f"{(spec.num_players, spec.num_start_slots)}, got {rows.shape}"
            )
        return cls(tuple(Flow(row, m) for row, m in zip(rows, spec.weights)))

    def matrix(self) -> np.ndarray:
        return np.array([f.values for f in self.flows])


class LoadDecomposition(NamedTuple):
    """Per-player and aggregate charging loads over the horizon, read-only.

    Each per-player row is the moving-sum image of that player's flow, so
    it sums to duration * mass.  Built by :func:`decompose_loads` only,
    from a profile that :func:`validate_profile` accepted.
    """

    per_player: np.ndarray
    aggregate: np.ndarray


def validate_profile(spec: GameSpec, profile: Profile) -> None:
    """Raise :class:`SpecError` unless ``profile`` matches ``spec``."""
    if len(profile.flows) != spec.num_players:
        raise SpecError(
            f"profile has {len(profile.flows)} flows, spec has "
            f"{spec.num_players} players"
        )
    for i, flow in enumerate(profile.flows):
        if len(flow.values) != spec.num_start_slots:
            raise SpecError(
                f"flow {i} has length {len(flow.values)}, expected "
                f"{spec.num_start_slots}"
            )
        if abs(flow.mass - spec.weights[i]) > SIMPLEX_TOL:
            raise SpecError(
                f"flow {i} carries mass {flow.mass}, spec assigns "
                f"{spec.weights[i]}"
            )


def decompose_loads(spec: GameSpec, profile: Profile) -> LoadDecomposition:
    """Per-player charging loads and their per-slot aggregate."""
    validate_profile(spec, profile)
    per_player = profile.matrix() @ _incidence(spec.horizon, spec.duration)
    return LoadDecomposition(_frozen_array(per_player), _frozen_array(per_player.sum(axis=0)))


def _slot_prices(spec: GameSpec, loads: LoadDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit price of each slot, f(L_t + P * z_t), at the given loads,
    and their window sums, the strategy costs.  Every slot lies in some
    window, so a non-finite price or sum raises a NumericsError."""
    with _quiet():
        prices = spec.cost.value(spec.base_load + spec.power * loads.aggregate)
        return prices, _finite(_window_sum(spec, prices))


def strategy_costs(spec: GameSpec, profile: Profile) -> np.ndarray:
    """Cost of each start-slot strategy: window sum of per-slot unit prices."""
    return _slot_prices(spec, decompose_loads(spec, profile))[1]


def coalition_average_cost(spec: GameSpec, profile: Profile, k: int) -> float:
    """Average cost paid by coalition ``k`` (player index, 1-based up to K);
    any other index raises IndexError, a zero-mass coalition
    UndefinedAverageError."""
    k, _ = _coalition_mass(spec, k)
    return evaluate_costs(spec, profile).coalitions[k - 1]


def _coalition_mass(spec: GameSpec, k) -> tuple[int, float]:
    """Coalition ``k``'s index as an int and its mass.  Raises IndexError
    unless ``k`` is a whole number in [1, K] (a bool, a string or None is
    not), and UndefinedAverageError unless the mass is positive."""
    if not (_is_integer(k, 1) and k <= spec.num_coalitions):
        raise IndexError(f"coalition index {k!r} out of range [1, {spec.num_coalitions}]")
    k = int(k)
    mass = float(spec.weights[k])
    if mass <= 0.0:
        raise UndefinedAverageError(f"coalition {k} has zero mass")
    return k, mass


# --- marginal costs ----------------------------------------------------------


def _linear_form(spec: GameSpec) -> tuple[np.ndarray, np.ndarray]:
    """(c, B) of a game whose cost is a :class:`~chargegame.costs.LinearCost`
    f(l) = a*l + b.

    The undivided gradient of player i at weight rows x_0, ..., x_N-1 is
    H_i = c + B @ (sum_j x_j) + [i >= 1] * B @ x_i, with B = P*a*A*A^T
    (symmetric) and c = A*(a*L + b): the strategy costs are affine in the
    total flow, and a coalition's crowding term is affine in its own.
    """
    cost = spec.cost
    incidence = _incidence(spec.horizon, spec.duration)
    offsets = incidence @ (cost.slope * spec.base_load + cost.intercept)
    return offsets, (spec.power * cost.slope) * (incidence @ incidence.T)


def _gradient_kernel(
    spec: GameSpec, weights: np.ndarray, checked: bool = True, out: np.ndarray | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Map a stack of weight rows to marginal-cost rows.

    The stack holds games that differ from ``spec`` only in their masses,
    ``weights`` in stack order.  It is player-major: row i*B + g holds
    player i of game g.  Row i of a game is
    (u + share_i * crowding_i) / divisor_i, with u the game's strategy costs
    and crowding_i the window sums of player i's load times f': the
    individuals get u (share 0, divisor 1), a coalition its average-cost
    gradient (share P, divisor its mass) and a zero-mass player zeros
    (divisor inf).  Loads are ``rows @ A`` and one product ``terms @ A.T``
    window-sums the slot prices and every coalition's load-weighted
    marginal prices; per-game terms are basic views, so a stack of one game
    runs the single-game array shapes.  f and f' are evaluated on the slot
    loads of all games end to end by one ``pair`` call; ``checked``
    evaluates them after one domain check of the cost family, and otherwise
    raw, for a caller that has checked the load envelope.

    A raw kernel (``checked`` false) of a game whose cost is exactly a
    :class:`~chargegame.costs.LinearCost` takes the affine map of
    :func:`_linear_form` instead: ``rows @ B`` fills the first N rows of an
    (N+1, games*slots) buffer whose last row holds c once per game, and
    ``[K | 1] @ buffer`` with K = 11^T + diag(0, 1, ..., 1) gives every
    player's undivided row, which is then divided as above.  That is three
    numpy calls and no f or f'.  It sums in another order than the general
    kernel, so the two agree to rounding, not bit for bit.  A checked
    kernel always runs the general path: the certificates (``vi_gap``,
    :func:`player_gradients`, the sweep's) evaluate f under the domain
    check, independently of the map the dynamics learned by.

    The kernel writes into buffers it allocates once, and its gradients
    into ``out`` when given (a C-contiguous stack-shaped array), so each
    call returns the same gradient array, overwritten by the next call.
    """
    cost = spec.cost
    players, slots, power = spec.num_players, spec.num_start_slots, spec.power
    # ufunc calls and array methods skip numpy's Python-level wrappers: every
    # vi_gap builds a kernel, and a dynamics batch rebuilds it whenever a
    # game leaves the stack.  The kernel binds its ufuncs here and passes
    # outputs by position, which saves lookups and keyword parsing per call.
    masses = weights.reshape(players, -1)  # (players, games)
    divisors = masses.copy()
    divisors[0] = 1.0
    divisors[masses <= 0.0] = np.inf
    divisors = divisors.repeat(slots, axis=1)
    if out is None:
        out = np.empty((weights.size, slots))
    out_by_game = out.reshape(players, -1)
    dot, divide = np.dot, np.divide
    if not checked and type(cost) is LinearCost:
        offsets, form = _linear_form(spec)
        stacked = np.empty((players + 1, out_by_game.shape[1]))
        products = stacked[:players].reshape(out.shape)  # a view, player-major
        stacked[players] = np.tile(offsets, masses.shape[1])
        mixing = np.ones((players, players + 1))
        own = np.arange(1, players)
        mixing[own, own] = 2.0

        def affine(rows: np.ndarray) -> np.ndarray:
            dot(rows, form, products)
            dot(mixing, stacked, out_by_game)
            divide(out_by_game, divisors, out_by_game)
            return out

        return affine

    incidence = _incidence(spec.horizon, spec.duration)
    window = incidence.T
    base_load = spec.base_load[None].repeat(masses.shape[1], 0).ravel()  # per game
    shares = np.array([[0.0]] + [[power]] * (players - 1))
    pair = cost._pair if checked else cost._raw_pair
    # Row 0 of by_player ends up holding f and row i > 0 player i's load
    # times f'; after the second product, row 0 of sums holds u of every
    # game and row i > 0 crowding_i.
    per_player = np.empty((weights.size, spec.horizon))
    by_player = per_player.reshape(players, -1)  # a view: writes reach per_player
    load = np.empty(by_player.shape[1])
    sums = np.empty((weights.size, slots))
    by_game = sums.reshape(players, -1)
    u = by_game[0]
    add_reduce, add, multiply = np.add.reduce, np.add, np.multiply

    def gradients(rows: np.ndarray) -> np.ndarray:
        dot(rows, incidence, per_player)
        add_reduce(by_player, 0, None, load)
        multiply(power, load, load)
        add(base_load, load, load)
        f, slope = pair(load)
        multiply(by_player, slope, by_player)
        by_player[0] = f
        dot(per_player, window, sums)
        multiply(shares, by_game, out_by_game)
        add(u, out_by_game, out_by_game)
        divide(out_by_game, divisors, out_by_game)
        return out

    return gradients


def player_gradients(spec: GameSpec, profile: Profile) -> np.ndarray:
    """Stacked per-strategy marginal costs, one row per player.

    Row 0 holds the plain strategy costs (what a vanishing individual
    pays).  Row k > 0 holds coalition k's average-cost gradient in its own
    flow: component s is the strategy cost u_s plus the extra price the
    coalition's members already charging in that window would pay, all
    divided by the coalition's mass.  Zero-mass players get a zero row,
    matching their zero flow.  A non-finite entry raises a NumericsError.
    """
    validate_profile(spec, profile)
    kernel = _gradient_kernel(spec, spec.weights)
    with _quiet():
        return _finite(kernel(profile.matrix()))


class CostSummary(NamedTuple):
    """Average cost per entity at one profile.

    When the individuals have zero mass their entry holds the cheapest
    strategy cost instead (the cost a vanishing individual would face,
    which extends the average continuously) and ``individuals_extended``
    is set.  Zero-mass coalitions get ``None``.
    """

    individuals: float
    coalitions: tuple[float | None, ...]
    social: float
    individuals_extended: bool = False


def evaluate_costs(spec: GameSpec, profile: Profile) -> CostSummary:
    """All entity costs at ``profile`` in one pass."""
    loads = decompose_loads(spec, profile)
    return _summarize_costs(spec, profile, loads, *_slot_prices(spec, loads))


def _summarize_costs(
    spec: GameSpec,
    profile: Profile,
    loads: LoadDecomposition,
    prices: np.ndarray,
    costs: np.ndarray,
) -> CostSummary:
    """Entity costs from the slot prices and their strategy-cost window sums."""
    averages = [
        float(flow.values @ costs) / float(mass) if mass > 0.0 else None
        for flow, mass in zip(profile.flows, spec.weights)
    ]
    extended = averages[0] is None
    return CostSummary(
        individuals=float(costs.min()) if extended else averages[0],
        coalitions=tuple(averages[1:]),
        social=float(loads.aggregate @ prices),
        individuals_extended=extended,
    )


def supports_reduced_costs(spec: GameSpec) -> bool:
    """True for the normalized three-slot shape (T=3, C=2, P=1)."""
    return spec.horizon == 3 and spec.duration == 2 and abs(spec.power - 1.0) <= 1e-12


def _reduced_costs(spec: GameSpec, summary: CostSummary) -> CostSummary | None:
    """Every entity cost less the common middle-slot term, for the
    normalized three-slot shape, and None for any other game.

    With two charging slots out of three, every EV charges through the
    middle slot at aggregate load one, so that term cancels from all cost
    comparisons.
    """
    if not supports_reduced_costs(spec):
        return None
    offset = spec.cost.value(1.0 + float(spec.base_load[1]))
    return CostSummary(
        individuals=summary.individuals - offset,
        coalitions=tuple(
            None if c is None else c - offset for c in summary.coalitions
        ),
        social=summary.social - offset,
        individuals_extended=summary.individuals_extended,
    )
