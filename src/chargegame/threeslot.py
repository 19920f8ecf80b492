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

A grid of coalition sizes is solved at once: the thresholds do not depend
on M, so one comparison classifies every point, one masked bisection on
arrays finds every interior root, and the costs are the same formulas on
arrays.  :func:`solve_ce` and :func:`ce_costs` are grids of one.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .costs import CostFunction
from .errors import BracketingError, SpecError
from .model import Flow, GameSpec, Profile, supports_reduced_costs
from .verify import _finite

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
        loads = (self.peak_load, self.mid_load, self.offpeak_load)
        if not all(0 <= load < math.inf for load in loads):
            raise SpecError("slot loads must be finite and nonnegative")
        if not self.peak_load >= self.offpeak_load:
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


@dataclass(frozen=True, slots=True)
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
    peak = f.value(inst.peak_load)
    cheap, slope = f._pair(1.0 + inst.offpeak_load)
    return (peak - cheap) / slope


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
    return float(_imbalance(inst, inst.coalition_size, split))


def classify(inst: ThreeSlotInstance) -> Regime:
    """Regime dispatch from the load gap and the coalition size."""
    gapped, split = _classify(inst, np.array([inst.coalition_size]))
    return _regime(gapped, bool(split[0]))


def solve_ce(inst: ThreeSlotInstance) -> CEPoint:
    """Unique composite equilibrium of a three-slot instance: a grid of one."""
    gapped, x1, x0, split = _grid_solution(inst, np.array([inst.coalition_size]))
    return CEPoint(float(x1[0]), float(x0[0]), _regime(gapped, bool(split[0])))


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
    x1, m = point.coalition_on_peak, inst.coalition_size
    split = point.regime in _SPLIT_REGIMES
    if split and (not -1e-9 <= x1 <= m + 1e-9 or abs(point.individuals_on_peak) > 1e-9):
        raise SpecError("point coordinates are inconsistent with a split regime")
    costs = _grid_costs(inst, np.array([m]), np.array([x1]), np.array([split]))
    return ReducedCosts(*(float(values[0]) for values in costs))


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


# --- the grid solver ---------------------------------------------------------
#
# The functions below solve a whole grid of coalition sizes at once: the
# loads and the cost family, and so both thresholds, are shared, and only M
# varies.  A point's arithmetic is the same in any grid, so a grid of one
# (what solve_ce and ce_costs run) gives each point of a larger grid bit
# for bit.

_SPLIT_REGIMES = (Regime.COALITION_SPLIT, Regime.SATURATED_SPLIT)


def _gapped(inst: ThreeSlotInstance) -> bool:
    """True when the first slot is at least one unit above the last."""
    return inst.peak_load >= inst.offpeak_load + 1.0


def _regime(gapped: bool, split: bool) -> Regime:
    if gapped:
        return Regime.COALITION_SPLIT if split else Regime.ALL_OFFPEAK
    return Regime.SATURATED_SPLIT if split else Regime.SHARED_PEAK


# A threshold that overflows ends in the NumericsError of verify._finite;
# numpy's warnings on the way there would be noise.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _classify(inst: ThreeSlotInstance, sizes: np.ndarray) -> tuple[bool, np.ndarray]:
    """Whether ``inst`` is gapped, and per coalition size whether its
    equilibrium splits: past the activation threshold (gapped) or at or
    past the mixing band."""
    if _gapped(inst):
        return True, sizes > _finite(activation_threshold(inst), "activation threshold")
    return False, sizes >= mixing_band(inst)


def _imbalance(inst: ThreeSlotInstance, m, split):
    """:func:`marginal_imbalance` at coalition sizes ``m``, scalars or
    arrays, from one checked pair of f and f' per side."""
    f_peak, d_peak = inst.cost._pair(inst.peak_load + split)
    f_offpeak, d_offpeak = inst.cost._pair(1.0 + inst.offpeak_load - split)
    return f_peak + split * d_peak - f_offpeak - (m - split) * d_offpeak


def _imbalance_scale(inst: ThreeSlotInstance, m):
    f = inst.cost
    peak = f.value(inst.peak_load + m)
    cheap, slope = f._pair(1.0 + inst.offpeak_load)
    return 1.0 + abs(peak) + abs(cheap) + m * abs(slope)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _grid_solution(
    inst: ThreeSlotInstance, m: np.ndarray
) -> tuple[bool, np.ndarray, np.ndarray, np.ndarray]:
    """Closed form at every coalition size of ``m``; the other fields of
    ``inst`` are shared.

    Returns whether ``inst`` is gapped and, per size, the coalition's and
    the individuals' weight on the peak alternative and whether the
    equilibrium splits.  A point that cannot be solved raises its
    ChargeGameError for the whole grid, a NumericsError once the threshold
    or a bracket end's imbalance is not finite.
    """
    gapped, split = _classify(inst, m)
    if gapped:
        x1, x0 = np.zeros_like(m), np.zeros_like(m)
        lo, hi = np.zeros_like(m), m
    else:
        band = mixing_band(inst)
        x1, x0 = m / 2.0, np.where(split, 0.0, (band - m) / 2.0)
        lo, hi = np.full_like(m, band / 2.0), m / 2.0
    x1[split] = _bisect(inst, m[split], lo[split], hi[split])
    return gapped, x1, x0, split


def _bisect(
    inst: ThreeSlotInstance, m: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Root of the increasing imbalance on every bracket [lo, hi], to
    BISECTION_TOL.

    A bracket no wider than BISECTION_TOL returns its midpoint without
    evaluating the imbalance.  The dispatch guarantees imbalance(lo) <= 0 <=
    imbalance(hi) in exact arithmetic, so a same-signed end is taken as the
    root when it is within rounding slack of zero; otherwise the first such
    bracket raises BracketingError, a shape violation.  Each other bracket
    is halved max(1, ceil(log2(width / BISECTION_TOL))) times.
    """
    roots = (lo + hi) / 2.0
    wide = np.flatnonzero(hi - lo > BISECTION_TOL)
    if not wide.size:
        return roots
    m, lo, hi = m[wide], lo[wide], hi[wide]
    # Both ends take one checked pair of f and f' per side, so a DomainError
    # names the extreme load of the two ends together.
    f_lo, f_hi = _finite(
        _imbalance(inst, m, np.stack((lo, hi))), "stationarity value at a bracket end"
    )
    slack = 1e-9 * _imbalance_scale(inst, m)
    at_lo = f_lo > 0.0
    at_hi = ~at_lo & (f_hi < 0.0)
    # Negated comparisons, so that a NaN slack admits no end.
    bad = (at_lo & ~(f_lo <= slack)) | (at_hi & ~(f_hi >= -slack))
    if bad.any():
        j = int(np.argmax(bad))
        if at_lo[j]:
            where, value, sign = "lower", f_lo[j], "positive"
        else:
            where, value, sign = "upper", f_hi[j], "negative"
        raise BracketingError(
            f"stationarity value {float(value)} at the {where} bracket end should "
            f"not be {sign}; the cost family violates the convexity assumptions"
        )
    roots[wide[at_lo]] = lo[at_lo]
    roots[wide[at_hi]] = hi[at_hi]
    live = ~(at_lo | at_hi)
    roots[wide[live]] = _halve(inst, m[live], lo[live], hi[live])
    return roots


def _halve(
    inst: ThreeSlotInstance, m: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Midpoint of each bracket [lo, hi] after max(1, ceil(log2(width /
    BISECTION_TOL))) halvings toward the root of the increasing imbalance
    at coalition size ``m``.

    Each halving is a fixed number of array calls on buffers built here,
    with one call of f and f' on the peak and off-peak loads stacked.
    Float operations and their order are :func:`_imbalance`'s; a bracket
    stops moving once its halvings are done.
    """
    f = inst.cost
    steps = np.array(
        [max(1, math.ceil(math.log2(w / BISECTION_TOL))) for w in (hi - lo).tolist()],
        dtype=int,
    )
    n = len(m)
    # The lower and the upper ends, each above its negation, so that their
    # sum halved holds each midpoint above its negation: added to the rows
    # below, that gives the peak and off-peak loads, and the weights mid and
    # m - mid that multiply f' at them.  (Full rows: a broadcast add costs
    # more than it saves.)
    ends = np.empty((2, 2, n))
    ends[:, 0] = lo, hi
    np.negative(ends[:, 0], out=ends[:, 1])
    outer = np.empty((2, n))
    outer[0], outer[1] = inst.peak_load, 1.0 + inst.offpeak_load
    sizes = np.zeros((2, n))
    sizes[1] = m
    shares, loads, weights = np.empty((3, 2, n))
    lower, upper = ends
    gain, crowding = weights
    imbalance = np.empty(n)
    moves = np.empty((2, 1, n), dtype=bool)  # which end each midpoint replaces
    below, above = moves[:, 0]
    moving = np.empty(n, dtype=bool)
    # numpy converts a Python float operand on every call, a 0-d array not.
    half, zero = np.array(0.5), np.array(0.0)
    # A midpoint's loads lie between those of its bracket's ends, which the
    # checked f and f' accepted, so the halving calls the raw ones.
    longest = steps.max(initial=0)
    shortest = steps.min(initial=longest)
    for step in range(longest):
        np.add(lower, upper, out=shares)
        np.multiply(shares, half, out=shares)  # exact, as is / 2.0
        np.add(outer, shares, out=loads)
        value, slope = f._raw_pair(loads)
        np.add(sizes, shares, out=weights)
        np.multiply(weights, slope, out=weights)
        np.add(value[0], gain, out=imbalance)
        np.subtract(imbalance, value[1], out=imbalance)
        np.subtract(imbalance, crowding, out=imbalance)
        np.less(imbalance, zero, out=below)
        np.logical_not(below, out=above)
        if step >= shortest:
            np.greater(steps, step, out=moving)
            moves &= moving
        np.copyto(ends, shares, where=moves)
    return (lower[0] + upper[0]) / 2.0


def _grid_costs(
    inst: ThreeSlotInstance, sizes: np.ndarray, x1: np.ndarray, split: np.ndarray
) -> ReducedCosts:
    """:func:`ce_costs` of the closed form of ``inst`` at coalition sizes
    ``sizes``, from its coalition peak weights ``x1`` and split flags
    ``split``, as one array per entity."""
    f = inst.cost
    social, individuals, coalition = np.empty((3, len(sizes)))
    if not split.all():
        if _gapped(inst):
            common = f.value(1.0 + inst.offpeak_load)
        else:
            common = f.value((1.0 + inst.peak_load + inst.offpeak_load) / 2.0)
        corner = ~split
        social[corner] = individuals[corner] = coalition[corner] = common
    if split.any():
        x = x1[split]
        m = sizes[split]
        peak_price = f.value(inst.peak_load + x)
        offpeak_price = f.value(1.0 + inst.offpeak_load - x)
        social[split] = x * peak_price + (1.0 - x) * offpeak_price
        individuals[split] = offpeak_price
        coalition[split] = (x * peak_price + (m - x) * offpeak_price) / m
    return ReducedCosts(social, individuals, coalition)


def instance_from_spec(spec: GameSpec, coalition_size: float) -> ThreeSlotInstance:
    """The three-slot instance of ``spec`` at ``coalition_size``: the one
    gate of the closed form's domain.

    The closed form covers a game with exactly one coalition, the
    normalized three-slot shape (T=3, C=2, P=1), a first slot at least as
    loaded as the last and a coalition size in (0, 1].  A game outside
    raises a SpecError naming the first of these conditions it breaks.
    """
    if spec.num_coalitions != 1:
        raise SpecError("closed form requires exactly one coalition")
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
