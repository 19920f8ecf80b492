"""Closed-form composite equilibrium of the three-slot charging game.

With three slots, a two-slot charging duration, one coalition of size M and
individuals of weight 1 - M, an EV has exactly two alternatives: start at
the first slot (covering slots 1-2) or at the second (covering slots 2-3).
The middle slot is charged by everyone, so the whole game reduces to how
much weight lands on the first slot versus the last.  The equilibrium is
unique and splits into four regimes along two thresholds:

* the *activation threshold* on M below which a coalition facing a large
  load gap keeps everything on the cheap alternative, and
* the *mixing band* ``1 + offpeak_load - peak_load`` inside which the
  individuals themselves equalize the two alternatives.

Interior points solve a scalar stationarity equation that balances the
coalition's marginal cost across the two alternatives; it is strictly
increasing for convex increasing cost families, so bisection on a
guaranteed bracket finds the unique root.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .costs import CostFunction
from .errors import BracketingError, SpecError
from .model import Flow, GameSpec, Profile, supports_reduced_costs

# Absolute tolerance on the coalition split found by bisection.
BISECTION_TOL = 1e-12

# Power scale is normalized away in the three-slot analysis.
_UNIT_POWER = 1.0


class Regime(enum.Enum):
    """Which of the four equilibrium configurations applies.

    ALL_OFFPEAK: load gap at least one and a small coalition; every EV
        charges on the cheaper alternative.
    COALITION_SPLIT: load gap at least one and a coalition large enough to
        spill onto the peak; individuals all stay off-peak.
    SHARED_PEAK: small load gap and a small coalition; the individuals mix
        until both alternatives cost the same, the coalition splits evenly.
    SATURATED_SPLIT: small load gap but the coalition alone overfills the
        peak slot, crowding the individuals out of it entirely.
    """

    ALL_OFFPEAK = "all-offpeak"
    COALITION_SPLIT = "coalition-split"
    SHARED_PEAK = "shared-peak"
    SATURATED_SPLIT = "saturated-split"


@dataclass(frozen=True)
class ThreeSlotInstance:
    """A three-slot game with one coalition, in slot order peak/mid/offpeak.

    ``peak_load`` (first slot) must be at least ``offpeak_load`` (last
    slot); relabel the slots if your instance runs the other way.  The
    middle-slot load only enters through the common term every EV pays.
    The power scale is fixed to one, which just rescales the loads.
    """

    peak_load: float
    mid_load: float
    offpeak_load: float
    coalition_size: float
    cost: CostFunction

    def __post_init__(self):
        if self.peak_load < 0 or self.mid_load < 0 or self.offpeak_load < 0:
            raise SpecError("slot loads must be nonnegative")
        if self.peak_load < self.offpeak_load:
            raise SpecError(
                "peak_load must be >= offpeak_load; swap the outer slots"
            )
        if not 0.0 < self.coalition_size <= 1.0:
            raise SpecError("coalition_size must lie in (0, 1]")

    def to_game_spec(self) -> GameSpec:
        return GameSpec(
            horizon=3,
            duration=2,
            power=_UNIT_POWER,
            base_load=np.array([self.peak_load, self.mid_load, self.offpeak_load]),
            cost=self.cost,
            weights=np.array([1.0 - self.coalition_size, self.coalition_size]),
        )


@dataclass(frozen=True)
class CEPoint:
    """Equilibrium weights on the first (peak) alternative.

    ``coalition_on_peak`` lies in [0, M] and ``individuals_on_peak`` in
    [0, 1 - M]; the latter is zero except in the SHARED_PEAK regime.
    """

    coalition_on_peak: float
    individuals_on_peak: float
    regime: Regime


class ReducedCosts(NamedTuple):
    """Entity costs with the common middle-slot term removed."""

    social: float
    individuals: float
    coalition: float


def activation_threshold(inst: ThreeSlotInstance) -> float:
    """Coalition size below which a gapped instance stays all off-peak.

    Equals (f(peak) - f(1 + offpeak)) / f'(1 + offpeak): the load gap in
    cost units, measured against the marginal cost of crowding the cheap
    alternative further.
    """
    f = inst.cost
    cheap = 1.0 + inst.offpeak_load
    return (f.value(inst.peak_load) - f.value(cheap)) / f.derivative(cheap)


def mixing_band(inst: ThreeSlotInstance) -> float:
    """Total EV weight that mixing can move before the peak slot saturates."""
    return 1.0 + inst.offpeak_load - inst.peak_load


def marginal_imbalance(inst: ThreeSlotInstance, split: float) -> float:
    """Coalition's marginal-cost surplus of the peak alternative at ``split``.

    With the individuals off the peak and the coalition placing ``split``
    there, moving one marginal unit of coalition weight from the off-peak
    alternative to the peak one changes the coalition's total cost by this
    amount (own price paid plus the crowding inflicted on members already
    there, on both sides).  It is strictly increasing in ``split`` for
    convex increasing families, and its root is the equilibrium split.
    """
    f = inst.cost
    m = inst.coalition_size
    peak = inst.peak_load + split
    offpeak = 1.0 + inst.offpeak_load - split
    return (
        f.value(peak)
        + split * f.derivative(peak)
        - f.value(offpeak)
        - (m - split) * f.derivative(offpeak)
    )


def classify(inst: ThreeSlotInstance) -> Regime:
    """Regime dispatch from the load gap and the coalition size."""
    if inst.peak_load >= inst.offpeak_load + 1.0:
        if inst.coalition_size <= activation_threshold(inst):
            return Regime.ALL_OFFPEAK
        return Regime.COALITION_SPLIT
    if inst.coalition_size < mixing_band(inst):
        return Regime.SHARED_PEAK
    return Regime.SATURATED_SPLIT


def solve_ce(inst: ThreeSlotInstance) -> CEPoint:
    """Unique composite equilibrium of a three-slot instance."""
    regime = classify(inst)
    m = inst.coalition_size
    if regime is Regime.ALL_OFFPEAK:
        return CEPoint(0.0, 0.0, regime)
    if regime is Regime.SHARED_PEAK:
        return CEPoint(m / 2.0, (mixing_band(inst) - m) / 2.0, regime)
    if regime is Regime.COALITION_SPLIT:
        lo, hi = 0.0, m
    else:  # SATURATED_SPLIT
        lo, hi = mixing_band(inst) / 2.0, m / 2.0
    split = _bisect_increasing(lambda x: marginal_imbalance(inst, x), lo, hi, inst)
    return CEPoint(split, 0.0, regime)


def ce_costs(inst: ThreeSlotInstance, point: CEPoint) -> ReducedCosts:
    """Reduced entity costs at an equilibrium point of ``inst``.

    In the two corner-free regimes all three costs coincide; in the split
    regimes the individuals' entry is the off-peak alternative's cost,
    which also extends their average continuously to a full coalition.
    """
    expected = classify(inst)
    if point.regime is not expected:
        raise SpecError(
            f"point regime {point.regime.value} does not match instance "
            f"regime {expected.value}"
        )
    f = inst.cost
    m = inst.coalition_size
    if point.regime is Regime.ALL_OFFPEAK:
        common = f.value(1.0 + inst.offpeak_load)
        return ReducedCosts(common, common, common)
    if point.regime is Regime.SHARED_PEAK:
        common = f.value((1.0 + inst.peak_load + inst.offpeak_load) / 2.0)
        return ReducedCosts(common, common, common)
    split = point.coalition_on_peak
    if not -1e-9 <= split <= m + 1e-9 or abs(point.individuals_on_peak) > 1e-9:
        raise SpecError("point coordinates are inconsistent with a split regime")
    peak_price = f.value(inst.peak_load + split)
    offpeak_price = f.value(1.0 + inst.offpeak_load - split)
    return ReducedCosts(
        social=split * peak_price + (1.0 - split) * offpeak_price,
        individuals=offpeak_price,
        coalition=(split * peak_price + (m - split) * offpeak_price) / m,
    )


def equilibrium_profile(
    inst: ThreeSlotInstance, point: CEPoint | None = None
) -> Profile:
    """Full strategy profile for an equilibrium point (solved if omitted)."""
    if point is None:
        point = solve_ce(inst)
    m = inst.coalition_size
    individuals = Flow(
        np.array([point.individuals_on_peak, 1.0 - m - point.individuals_on_peak]),
        1.0 - m,
    )
    coalition = Flow(
        np.array([point.coalition_on_peak, m - point.coalition_on_peak]), m
    )
    return Profile((individuals, coalition))


def _bisect_increasing(
    fn: Callable[[float], float], lo: float, hi: float, inst: ThreeSlotInstance
) -> float:
    """Root of an increasing function on [lo, hi] to BISECTION_TOL.

    The dispatch guarantees fn(lo) <= 0 <= fn(hi) in exact arithmetic, so a
    same-signed endpoint is accepted as the root when it is within rounding
    slack of zero and rejected as a shape violation otherwise.
    """
    if hi - lo <= BISECTION_TOL:
        return (lo + hi) / 2.0
    f_lo = fn(lo)
    f_hi = fn(hi)
    slack = 1e-9 * _imbalance_scale(inst)
    if f_lo > 0.0:
        if f_lo <= slack:
            return lo
        raise BracketingError(
            f"stationarity value {f_lo} at the lower bracket end should not "
            "be positive; the cost family violates the convexity assumptions"
        )
    if f_hi < 0.0:
        if f_hi >= -slack:
            return hi
        raise BracketingError(
            f"stationarity value {f_hi} at the upper bracket end should not "
            "be negative; the cost family violates the convexity assumptions"
        )
    steps = max(1, math.ceil(math.log2((hi - lo) / BISECTION_TOL)))
    for _ in range(steps):
        mid = (lo + hi) / 2.0
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _imbalance_scale(inst: ThreeSlotInstance) -> float:
    f = inst.cost
    cheap = 1.0 + inst.offpeak_load
    return (
        1.0
        + abs(f.value(inst.peak_load + inst.coalition_size))
        + abs(f.value(cheap))
        + inst.coalition_size * abs(f.derivative(cheap))
    )


def _closed_form_applies(spec: GameSpec) -> bool:
    """True when :func:`solve_ce` covers ``spec``: one coalition, the
    normalized three-slot shape (T=3, C=2, P=1) and a first slot at least as
    loaded as the last, as :class:`ThreeSlotInstance` requires."""
    return (
        spec.num_coalitions == 1
        and supports_reduced_costs(spec)
        and spec.base_load[0] >= spec.base_load[2]
    )


def instance_from_spec(spec: GameSpec, coalition_size: float) -> ThreeSlotInstance:
    """Three-slot instance with the given coalition size from a game shape.

    Requires the normalized shape (T=3, C=2, P=1) with the first slot at
    least as loaded as the last.
    """
    if not supports_reduced_costs(spec):
        raise SpecError("closed form requires horizon=3, duration=2, power=1")
    return ThreeSlotInstance(
        peak_load=float(spec.base_load[0]),
        mid_load=float(spec.base_load[1]),
        offpeak_load=float(spec.base_load[2]),
        coalition_size=coalition_size,
        cost=spec.cost,
    )


def with_coalition_size(inst: ThreeSlotInstance, m: float) -> ThreeSlotInstance:
    return replace(inst, coalition_size=m)
