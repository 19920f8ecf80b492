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
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .costs import CostFunction, LinearCost, _with_domain_bound
from .errors import (
    SpecError,
    UndefinedAverageError,
    _finite,
    _is_integer,
    _is_number,
    _numbers,
    _quiet,
)

# Additive tolerance for membership in a scaled simplex.  Inputs further
# out are rejected; inputs within are renormalized by scaling, since
# iterative solvers accumulate tiny drift.
SIMPLEX_TOL = 1e-9

# Unresolved cost-family bounds get W = this factor * (max base load + power).
DEFAULT_BOUND_FACTOR = 10.0

# Largest start-slot x slot incidence a game may ask for: the dense matrix A
# of 10**7 float64 entries takes 80 MB, and admits a one-minute day
# (horizon 1,440) at any duration.
MAX_INCIDENCE_ENTRIES = 10_000_000


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
    """A :class:`Flow`'s renormalization of one row or of a player-major
    stack of rows, each summed along the last axis as Flow sums its row.

    Negative entries are clipped to zero, then each row is scaled by its
    mass over its total, and a row whose total is zero becomes zeros.
    ``masses`` broadcasts against the totals, which keep their axis.
    Returns the scaled rows and the totals before scaling.
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
            between 1 and horizon, stored as an int.  The start slots
            times the slots, (horizon - duration + 1) * horizon, may not
            exceed :data:`MAX_INCIDENCE_ENTRIES`.
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
        entries = self.num_start_slots * self.horizon
        if entries > MAX_INCIDENCE_ENTRIES:
            raise SpecError(
                f"horizon {self.horizon} with duration {self.duration} needs a start-slot x "
                f"slot incidence of {entries} entries, more than {MAX_INCIDENCE_ENTRIES}"
            )
        if not (_is_number(self.power) and self.power >= 0):
            raise SpecError(f"power must be finite and nonnegative, got {self.power!r}")
        object.__setattr__(self, "power", float(self.power))

        load = _numbers("base_load entries", self.base_load)
        if load.shape != (self.horizon,):
            raise SpecError(
                f"base_load must have length {self.horizon}, got shape {load.shape}"
            )
        if not (np.isfinite(load).all() and load.min() >= 0):
            raise SpecError("base_load entries must be finite and nonnegative")

        weights = _numbers("weights", self.weights)
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
        values = _numbers("flow entries", self.values)
        if values.ndim != 1 or values.size < 1:
            raise SpecError("flow values must be a nonempty vector")
        if not (_is_number(self.mass) and self.mass >= -SIMPLEX_TOL):
            raise SpecError(f"flow mass must be finite and nonnegative, got {self.mass!r}")
        mass = max(float(self.mass), 0.0)
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
        try:
            flows = tuple(self.flows)
        except TypeError:
            flows = None
        if flows is None or not all(isinstance(f, Flow) for f in flows):
            raise SpecError(f"profile flows must be a sequence of Flow, got {self.flows!r}")
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
    it sums to duration * mass.  Built from the rows of a profile that
    :func:`validate_profile` accepted (:func:`decompose_loads`), or of a
    solver's iterate.
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
    return _loads(spec, profile.matrix())


def _loads(spec: GameSpec, rows: np.ndarray) -> LoadDecomposition:
    """:func:`decompose_loads` of player-major ``rows``, a C-ordered
    matrix with one player's flow per row."""
    per_player = rows @ _incidence(spec.horizon, spec.duration)
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
) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """A buffer for a stack of weight rows, and a function that maps the
    rows it holds when called to marginal-cost rows.

    The caller writes the rows into the buffer, which the kernel keeps, so
    a raw linear kernel can hold a row of its own below them.  The stack
    holds games that differ from ``spec`` only in their masses,
    ``weights`` in stack order.  It is slot-major: an array of shape
    (slots, B*N) whose column g*N + i holds player i of game g, so a game's
    players are adjacent and every reduction over slots runs along the
    outer axis.  Column i of a game is (u + share_i * crowding_i) /
    divisor_i, with u the game's strategy costs and crowding_i the window
    sums of player i's load times f': the individuals get u (share 0,
    divisor 1), a coalition its average-cost gradient (share P, divisor its
    mass) and a zero-mass player zeros (divisor inf).  The per-player loads
    are ``A.T @ rows``, summed over each game's players in player order,
    and one product ``A @ terms`` window-sums the slot prices and
    every coalition's load-weighted marginal prices; both products see the
    stack's columns as their free dimension, so a lone game of two or more
    players is a matrix, as a stack is.  The crowdings are scaled by P in
    one call, and one product ``@ M`` per (slot, game) row, with M the
    identity but for a row of ones, adds u to every column: each entry
    sums u and one scaled crowding, every other term an exact zero, so it
    is u + P * crowding_i to the bit.  f and f' are evaluated on the slot
    loads of all games by one ``pair`` call, as one vector; ``checked``
    evaluates them after one domain check of the cost family, and
    otherwise raw, for a caller that has checked the load envelope.

    A raw kernel (``checked`` false) of a game whose cost is exactly a
    :class:`~chargegame.costs.LinearCost` takes the affine map of
    :func:`_linear_form` instead: ``[B | c] @ [rows; e]``, with e = 1 on
    each game's individuals' column and 0 elsewhere, gives every player's
    column, the individuals' with c added; ``@ K`` with K = 11^T +
    diag(0, 1, ..., 1) mixes each game's players, a row (slot, game) at a
    time, which adds the individuals' column, and with it c, to every
    column; then comes the division above.  That is three numpy calls and
    no f or f'.  It sums in
    another order than the general kernel, so the two agree to rounding,
    not bit for bit.  A checked kernel always runs the general path: the
    certificates (``vi_gap``, :func:`player_gradients`, the sweep's)
    evaluate f under the domain check, independently of the map the
    dynamics learned by.

    The kernel writes into buffers it allocates once, and its gradients
    into ``out`` when given (a C-contiguous stack-shaped array), so each
    call returns the same gradient array, overwritten by the next call.
    The rows buffer is C-contiguous and stack-shaped too.
    """
    cost = spec.cost
    players, slots, power = spec.num_players, spec.num_start_slots, spec.power
    # ufunc calls and array methods skip numpy's Python-level wrappers: every
    # vi_gap builds a kernel, and a dynamics batch rebuilds it whenever a
    # game leaves the stack.  The kernel binds its ufuncs here and passes
    # outputs by position, which saves lookups and keyword parsing per call.
    # Elementwise calls take operands of one shape where they can, which
    # numpy runs without building an iterator.
    games = weights.size // players
    masses = weights.reshape(games, players)
    divisors = masses.copy()
    divisors[:, 0] = 1.0
    divisors[masses <= 0.0] = np.inf
    divisors = divisors.reshape(1, -1).repeat(slots, 0)
    if out is None:
        out = np.empty((slots, weights.size))
    dot, add, divide = np.dot, np.add, np.divide
    if not checked and type(cost) is LinearCost:
        offsets, form = _linear_form(spec)
        form = np.hstack((form, offsets[:, None]))
        extended = np.zeros((slots + 1, weights.size))
        extended[slots, ::players] = 1.0  # e
        products = np.empty(out.shape)
        by_row, out_by_row = products.reshape(-1, players), out.reshape(-1, players)
        mixing = np.ones((players, players)) + np.diag(np.arange(players) > 0)

        def affine() -> np.ndarray:
            dot(form, extended, products)
            dot(by_row, mixing, out_by_row)
            divide(out, divisors, out)
            return out

        return extended[:slots], affine

    incidence = _incidence(spec.horizon, spec.duration)
    window = incidence.T
    base_load = spec.base_load.repeat(games)  # per slot, then game
    pair = cost._pair if checked else cost._raw_pair
    # Each player's part of per_player is a strided vector, a row per
    # (slot, game): the kernel sums the loads and scales the coalitions by
    # f' on these views one player at a time, since numpy runs a call on a
    # lone vector through one inner loop, where a broadcast over each
    # game's few adjacent players would take one per (slot, game).  Player
    # 0's part of per_player ends up holding f and player i > 0's its load
    # times f'; after the second product, player 0's part of sums holds u
    # and player i > 0's crowding_i, which shares scales by P.
    per_player = np.empty((spec.horizon, weights.size))
    sums = np.empty(out.shape)
    shares = np.full(out.shape, power)
    shares[:, ::players] = 1.0
    mixing = np.eye(players)
    mixing[0] = 1.0
    by_row, out_by_row = sums.reshape(-1, players), out.reshape(-1, players)
    individuals, *coalitions = per_player.reshape(-1, players).T
    # The slot loads are summed over each game's players in player order
    # into one vector, slot by slot, then game, which the cost family sees.
    load = np.empty(individuals.size)
    summed = load if coalitions else individuals
    addends = list(zip([individuals] + [load] * (players - 2), coalitions))
    multiply = np.multiply
    rows = np.empty(out.shape)

    def gradients() -> np.ndarray:
        dot(window, rows, per_player)
        for first, second in addends:
            add(first, second, load)
        multiply(power, summed, load)
        add(base_load, load, load)
        f, slope = pair(load)
        for coalition in coalitions:
            multiply(coalition, slope, coalition)
        individuals[...] = f
        dot(incidence, per_player, sums)
        multiply(sums, shares, sums)
        dot(by_row, mixing, out_by_row)
        divide(out, divisors, out)
        return out

    return rows, gradients


def player_gradients(spec: GameSpec, profile: Profile) -> np.ndarray:
    """Stacked per-strategy marginal costs, one row per player.

    Row 0 holds the plain strategy costs (what a vanishing individual
    pays), equal to :func:`strategy_costs` to rounding, not bit for bit:
    the kernel sums the prices over windows in another product than
    ``A @ prices``.  Row k > 0 holds coalition k's average-cost gradient
    in its own flow: component s is the strategy cost u_s plus the extra
    price the coalition's members already charging in that window would
    pay, all divided by the coalition's mass.  Zero-mass players get a
    zero row, matching their zero flow.  A non-finite entry raises a NumericsError.
    """
    return _profile_gradients(spec, profile)[1].T.copy()


def _profile_gradients(spec: GameSpec, profile: Profile) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``profile`` and their :func:`player_gradients`, both
    slot-major: one column per player.  A non-finite entry raises a
    NumericsError."""
    validate_profile(spec, profile)
    rows, gradients = _gradient_kernel(spec, spec.weights)
    rows[...] = profile.matrix().T
    with _quiet():
        return rows, _finite(gradients())


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
    validate_profile(spec, profile)
    return _entity_costs(spec, spec.weights, profile.matrix())[2]


def _entity_costs(
    spec: GameSpec, weights: np.ndarray, rows: np.ndarray
) -> tuple[LoadDecomposition, np.ndarray, CostSummary]:
    """The loads of player-major ``rows`` (as :func:`_loads` takes them),
    their strategy costs and the entity costs of players of masses
    ``weights`` who play them, from one load decomposition and one
    evaluation of the slot prices."""
    loads = _loads(spec, rows)
    prices, costs = _slot_prices(spec, loads)
    averages = [
        float(row @ costs) / float(mass) if mass > 0.0 else None
        for row, mass in zip(rows, weights)
    ]
    extended = averages[0] is None
    return loads, costs, CostSummary(
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
