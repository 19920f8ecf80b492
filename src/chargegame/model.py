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

import numpy as np

from .costs import CostFunction, with_domain_bound
from .errors import SpecError, UndefinedAverageError, UnsupportedInstanceError

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


@dataclass(frozen=True)
class GameSpec:
    """One composite charging game.

    Attributes:
        horizon: number of time slots.
        duration: consecutive charging slots per EV, between 1 and horizon.
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
        if self.horizon < 1:
            raise SpecError("horizon must be a positive integer")
        if not 1 <= self.duration <= self.horizon:
            raise SpecError("duration must satisfy 1 <= duration <= horizon")
        if self.power < 0:
            raise SpecError("power must be nonnegative")

        load = np.asarray(self.base_load, dtype=float)
        if load.shape != (self.horizon,):
            raise SpecError(
                f"base_load must have length {self.horizon}, got shape {load.shape}"
            )
        if load.size and load.min() < 0:
            raise SpecError("base_load entries must be nonnegative")

        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size < 1:
            raise SpecError("weights must be a nonempty vector")
        if weights.min() < 0:
            raise SpecError("weights must be nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise SpecError(f"weights must sum to 1, got {total}")
        weights = weights / total

        cost = self.cost
        peak = float(load.max()) + self.power if load.size else self.power
        if cost.domain_bound is None:
            cost = with_domain_bound(cost, DEFAULT_BOUND_FACTOR * max(peak, 1.0))
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
        if mass < -SIMPLEX_TOL:
            raise SpecError("flow mass must be nonnegative")
        mass = max(mass, 0.0)
        if values.min() < -SIMPLEX_TOL:
            raise SpecError("flow entries must be nonnegative")
        values = np.maximum(values, 0.0)
        total = float(values.sum())
        if abs(total - mass) > SIMPLEX_TOL:
            raise SpecError(
                f"flow entries sum to {total}, expected mass {mass} "
                f"(tolerance {SIMPLEX_TOL})"
            )
        if total > 0.0:
            values = values * (mass / total)
        else:
            values = np.zeros_like(values)
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


@dataclass(frozen=True)
class LoadDecomposition:
    """Per-player and aggregate charging loads over the horizon.

    Each per-player row is the moving-sum image of that player's flow, so
    it sums to duration * mass; the aggregate stays within [0, 1] because
    total EV weight is one.
    """

    per_player: np.ndarray
    aggregate: np.ndarray

    def __post_init__(self):
        per_player = np.asarray(self.per_player, dtype=float)
        aggregate = np.asarray(self.aggregate, dtype=float)
        if per_player.ndim != 2 or aggregate.shape != (per_player.shape[1],):
            raise SpecError("load decomposition shapes are inconsistent")
        if per_player.min() < -SIMPLEX_TOL:
            raise SpecError("per-player loads must be nonnegative")
        if aggregate.min() < -SIMPLEX_TOL or aggregate.max() > 1.0 + SIMPLEX_TOL:
            raise SpecError("aggregate load must stay within [0, 1]")
        object.__setattr__(self, "per_player", _frozen_array(per_player))
        object.__setattr__(self, "aggregate", _frozen_array(aggregate))


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


def charging_load(spec: GameSpec, flow: Flow) -> np.ndarray:
    """Per-slot load induced by one flow: its moving sum over the window.

    Slot t collects every start s with s <= t <= s + duration - 1, with
    both ends clipped to the feasible start range.
    """
    if len(flow.values) != spec.num_start_slots:
        raise SpecError(
            f"flow has length {len(flow.values)}, expected {spec.num_start_slots}"
        )
    return flow.values @ _incidence(spec.horizon, spec.duration)


def decompose_loads(spec: GameSpec, profile: Profile) -> LoadDecomposition:
    """Per-player charging loads and their per-slot aggregate."""
    validate_profile(spec, profile)
    per_player = profile.matrix() @ _incidence(spec.horizon, spec.duration)
    return LoadDecomposition(per_player, per_player.sum(axis=0))


def _slot_prices(spec: GameSpec, loads: LoadDecomposition) -> np.ndarray:
    """Per-unit price of each slot, f(L_t + P * z_t), at the given loads."""
    return spec.cost.value(spec.base_load + spec.power * loads.aggregate)


def strategy_costs(
    spec: GameSpec, profile: Profile, *, loads: LoadDecomposition | None = None
) -> np.ndarray:
    """Cost of each start-slot strategy: window sum of per-slot unit prices."""
    if loads is None:
        loads = decompose_loads(spec, profile)
    return _window_sum(spec, _slot_prices(spec, loads))


def strategy_cost(spec: GameSpec, profile: Profile, start: int) -> float:
    """Cost of starting to charge at 0-based slot ``start``."""
    if not 0 <= start < spec.num_start_slots:
        raise IndexError(
            f"start slot {start} out of range [0, {spec.num_start_slots})"
        )
    return float(strategy_costs(spec, profile)[start])


def coalition_average_cost(
    spec: GameSpec,
    profile: Profile,
    k: int,
    *,
    loads: LoadDecomposition | None = None,
) -> float:
    """Average cost paid by coalition ``k`` (player index, 1-based up to K)."""
    mass = _coalition_mass(spec, k)
    costs = strategy_costs(spec, profile, loads=loads)
    return float(profile.flows[k].values @ costs) / mass


def _coalition_mass(spec: GameSpec, k: int) -> float:
    """Mass of coalition ``k``; raises unless 1 <= k <= K and the mass is positive."""
    if not 1 <= k <= spec.num_coalitions:
        raise IndexError(f"coalition index {k} out of range [1, {spec.num_coalitions}]")
    mass = float(spec.weights[k])
    if mass <= 0.0:
        raise UndefinedAverageError(f"coalition {k} has zero mass")
    return mass


def individuals_average_cost(
    spec: GameSpec,
    profile: Profile,
    *,
    loads: LoadDecomposition | None = None,
) -> float:
    """Average cost paid by the individuals (player 0)."""
    mass = float(spec.weights[0])
    if mass <= 0.0:
        raise UndefinedAverageError("individuals have zero mass")
    costs = strategy_costs(spec, profile, loads=loads)
    return float(profile.flows[0].values @ costs) / mass


def social_cost(
    spec: GameSpec,
    profile: Profile,
    *,
    loads: LoadDecomposition | None = None,
) -> float:
    """Total cost across all charging EVs."""
    if loads is None:
        loads = decompose_loads(spec, profile)
    return float(loads.aggregate @ _slot_prices(spec, loads))


@dataclass(frozen=True)
class CostSummary:
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


def evaluate_costs(
    spec: GameSpec,
    profile: Profile,
    *,
    loads: LoadDecomposition | None = None,
) -> CostSummary:
    """All entity costs at ``profile`` in one pass."""
    if loads is None:
        loads = decompose_loads(spec, profile)
    prices = _slot_prices(spec, loads)
    return _summarize_costs(spec, profile, loads, prices, _window_sum(spec, prices))


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


def reduction_offset(spec: GameSpec) -> float:
    """Common middle-slot term shared by every EV in the three-slot game.

    With two charging slots out of three, every EV charges through the
    middle slot at aggregate load one, so that term cancels from all cost
    comparisons.
    """
    if not supports_reduced_costs(spec):
        raise UnsupportedInstanceError(
            "reduced costs require horizon=3, duration=2 and power=1"
        )
    return spec.cost.value(1.0 + float(spec.base_load[1]))


def reduced_costs(spec: GameSpec, summary: CostSummary) -> CostSummary:
    """Subtract the common middle-slot term from every entity cost."""
    offset = reduction_offset(spec)
    return CostSummary(
        individuals=summary.individuals - offset,
        coalitions=tuple(
            None if c is None else c - offset for c in summary.coalitions
        ),
        social=summary.social - offset,
        individuals_extended=summary.individuals_extended,
    )
