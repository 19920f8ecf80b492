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
from .errors import BracketingError, ChargeGameError, SpecError
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
    return float(_imbalance(inst, inst.coalition_size, split, f.value, f.derivative))


def classify(inst: ThreeSlotInstance) -> Regime:
    """Regime dispatch from the load gap and the coalition size."""
    gapped, split = _classify(inst, np.array([inst.coalition_size]))
    return _regime(gapped, bool(split[0]))


def solve_ce(inst: ThreeSlotInstance) -> CEPoint:
    """Unique composite equilibrium of a three-slot instance: a grid of one."""
    (point,) = _solve_grid(inst, np.array([inst.coalition_size]))
    if isinstance(point, ChargeGameError):
        raise point
    return point


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
    split, m = point.coalition_on_peak, inst.coalition_size
    if point.regime in _SPLIT_REGIMES and (
        not -1e-9 <= split <= m + 1e-9 or abs(point.individuals_on_peak) > 1e-9
    ):
        raise SpecError("point coordinates are inconsistent with a split regime")
    costs = _grid_costs(inst, np.array([m]), [point])
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


def _classify(inst: ThreeSlotInstance, sizes: np.ndarray) -> tuple[bool, np.ndarray]:
    """Whether ``inst`` is gapped, and per coalition size whether its
    equilibrium splits: past the activation threshold (gapped) or at or
    past the mixing band."""
    if _gapped(inst):
        return True, ~(sizes <= activation_threshold(inst))
    return False, ~(sizes < mixing_band(inst))


def _imbalance(inst: ThreeSlotInstance, m, split, value, derivative):
    """:func:`marginal_imbalance` at coalition sizes ``m``, scalars or
    arrays, with ``value`` and ``derivative`` evaluating f and f'."""
    peak = inst.peak_load + split
    offpeak = 1.0 + inst.offpeak_load - split
    return (
        value(peak)
        + split * derivative(peak)
        - value(offpeak)
        - (m - split) * derivative(offpeak)
    )


def _imbalance_scale(inst: ThreeSlotInstance, m):
    f = inst.cost
    cheap = 1.0 + inst.offpeak_load
    return (
        1.0
        + abs(f.value(inst.peak_load + m))
        + abs(f.value(cheap))
        + m * abs(f.derivative(cheap))
    )


def _isolated(stage, *columns) -> list:
    """``stage`` on whole columns, or on each row alone once it raises.

    ``columns`` are arrays or lists of one length, and ``stage`` returns
    one outcome per row.  When the whole-column call raises a
    ChargeGameError, every row is run alone, so each carries its own
    outcome or the error that ends it by itself.
    """
    if not len(columns[0]):
        return []
    try:
        return stage(*columns)
    except ChargeGameError as exc:
        if len(columns[0]) == 1:
            return [exc]
    return [
        outcome
        for i in range(len(columns[0]))
        for outcome in _isolated(stage, *(column[i : i + 1] for column in columns))
    ]


def _solve_grid(base: ThreeSlotInstance, sizes: np.ndarray) -> list:
    """Closed form at every coalition size of ``sizes``; the other fields
    of ``base`` are shared.

    Returns, in order, each size's :class:`CEPoint` or the ChargeGameError
    that ends its solve.
    """
    return _isolated(lambda m: _grid_points(base, m), sizes)


def _grid_points(inst: ThreeSlotInstance, m: np.ndarray) -> list:
    gapped, split = _classify(inst, m)
    if gapped:
        x1, x0 = np.zeros_like(m), np.zeros_like(m)
        lo, hi = np.zeros_like(m), m
    else:
        band = mixing_band(inst)
        x1, x0 = m / 2.0, np.where(split, 0.0, (band - m) / 2.0)
        lo, hi = np.full_like(m, band / 2.0), m / 2.0
    roots, errors = _bisect(inst, m[split], lo[split], hi[split])
    x1[split] = roots
    points: list = [
        CEPoint(a, b, _regime(gapped, s))
        for a, b, s in zip(x1.tolist(), x0.tolist(), split.tolist())
    ]
    for i, error in zip(np.flatnonzero(split).tolist(), errors):
        if error is not None:
            points[i] = error
    return points


def _bisect(
    inst: ThreeSlotInstance, m: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, list]:
    """Root of the increasing imbalance on every bracket [lo, hi], to
    BISECTION_TOL, plus per bracket its BracketingError or None.

    A bracket no wider than BISECTION_TOL returns its midpoint without
    evaluating the imbalance.  The dispatch guarantees imbalance(lo) <= 0 <=
    imbalance(hi) in exact arithmetic, so a same-signed end is taken as the
    root when it is within rounding slack of zero and rejected as a shape
    violation otherwise.  Each other bracket is halved
    max(1, ceil(log2(width / BISECTION_TOL))) times.
    """
    roots = (lo + hi) / 2.0
    errors = [None] * len(m)
    wide = np.flatnonzero(hi - lo > BISECTION_TOL)
    if not wide.size:
        return roots, errors
    f = inst.cost
    m, lo, hi = m[wide], lo[wide], hi[wide]
    f_lo = _imbalance(inst, m, lo, f.value, f.derivative).tolist()
    f_hi = _imbalance(inst, m, hi, f.value, f.derivative).tolist()
    slack = (1e-9 * _imbalance_scale(inst, m)).tolist()
    live = []
    for j, i in enumerate(wide.tolist()):
        if f_lo[j] > 0.0:
            if f_lo[j] <= slack[j]:
                roots[i] = lo[j]
            else:
                errors[i] = BracketingError(
                    f"stationarity value {f_lo[j]} at the lower bracket end should "
                    "not be positive; the cost family violates the convexity assumptions"
                )
        elif f_hi[j] < 0.0:
            if f_hi[j] >= -slack[j]:
                roots[i] = hi[j]
            else:
                errors[i] = BracketingError(
                    f"stationarity value {f_hi[j]} at the upper bracket end should "
                    "not be negative; the cost family violates the convexity assumptions"
                )
        else:
            live.append(j)
    m, lo, hi = m[live], lo[live], hi[live]
    steps = np.array(
        [max(1, math.ceil(math.log2(w / BISECTION_TOL))) for w in (hi - lo).tolist()],
        dtype=int,
    )
    # A midpoint's loads lie between those of its bracket's ends, which the
    # checked f and f' accepted above, so the halving calls the raw ones.
    longest = steps.max(initial=0)
    shortest = steps.min(initial=longest)
    for step in range(longest):
        on = slice(None) if step < shortest else np.flatnonzero(steps > step)
        mid = (lo[on] + hi[on]) / 2.0
        below = _imbalance(inst, m[on], mid, f._raw_value, f._raw_derivative) < 0.0
        lo[on] = np.where(below, mid, lo[on])
        hi[on] = np.where(below, hi[on], mid)
    roots[wide[live]] = (lo + hi) / 2.0
    return roots, errors


def _grid_costs(inst: ThreeSlotInstance, sizes: np.ndarray, points) -> ReducedCosts:
    """:func:`ce_costs` of closed-form ``points`` of ``inst`` at coalition
    sizes ``sizes``, as one array per entity."""
    f = inst.cost
    split = np.array([p.regime in _SPLIT_REGIMES for p in points])
    social, individuals, coalition = np.empty((3, len(points)))
    if not split.all():
        if _gapped(inst):
            common = f.value(1.0 + inst.offpeak_load)
        else:
            common = f.value((1.0 + inst.peak_load + inst.offpeak_load) / 2.0)
        corner = ~split
        social[corner] = individuals[corner] = coalition[corner] = common
    if split.any():
        x = np.array([p.coalition_on_peak for p in points])[split]
        m = sizes[split]
        peak_price = f.value(inst.peak_load + x)
        offpeak_price = f.value(1.0 + inst.offpeak_load - x)
        social[split] = x * peak_price + (1.0 - x) * offpeak_price
        individuals[split] = offpeak_price
        coalition[split] = (x * peak_price + (m - x) * offpeak_price) / m
    return ReducedCosts(social, individuals, coalition)


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
