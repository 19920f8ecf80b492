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
increasing for convex increasing cost families, so false position on a
guaranteed bracket finds the unique root, in one step where the equation
is linear in the split (the linear and quadratic families).

A grid of coalition sizes is solved at once: the thresholds do not depend
on M, so one comparison classifies every point, one masked false-position
loop on arrays finds every interior root, and the costs are the same
formulas on arrays.  :func:`solve_ce` and :func:`ce_costs` are grids of one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .costs import CostFunction
from .errors import BracketingError, SpecError, _finite, _is_number, _quiet
from .model import Flow, GameSpec, Profile, supports_reduced_costs

# Width of a split bracket that needs no search: such a bracket's midpoint
# is the root, and false position stops once a bracket is this narrow.
BISECTION_TOL = 1e-12

# A split is a root to rounding once its imbalance is at most this multiple
# of the sum of the magnitudes of the imbalance's four terms.
ROOT_EPS = 8.0 * np.finfo(float).eps

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
        for name in ("peak_load", "mid_load", "offpeak_load"):
            load = getattr(self, name)
            if not (_is_number(load) and load >= 0):
                raise SpecError(f"slot loads must be finite and nonnegative, got {name}={load!r}")
        if not self.peak_load >= self.offpeak_load:
            raise SpecError(
                "peak_load must be >= offpeak_load; swap the outer slots"
            )
        size = self.coalition_size
        if not (_is_number(size) and 0.0 < size <= 1.0):
            raise SpecError(f"coalition_size must lie in (0, 1], got {size!r}")
        if not isinstance(self.cost, CostFunction):
            raise SpecError(f"cost must be a CostFunction, got {self.cost!r}")

    def to_game_spec(self) -> GameSpec:
        return GameSpec(
            horizon=3,
            duration=2,
            power=_UNIT_POWER,
            base_load=np.array([self.peak_load, self.mid_load, self.offpeak_load]),
            cost=self.cost,
            weights=np.array([1.0 - self.coalition_size, self.coalition_size]),
        )


class CEPoint(NamedTuple):
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
    alternative further; a NumericsError when it is not finite.
    """
    f = inst.cost
    with _quiet():
        peak = f.value(inst.peak_load)
        cheap, slope = f._pair(1.0 + inst.offpeak_load)
        # np.divide: a zero slope gives inf or NaN, not a ZeroDivisionError.
        return float(_finite(np.divide(peak - cheap, slope), "activation threshold"))


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
    convex increasing families, and its root is the equilibrium split.  A
    surplus that is not finite raises a NumericsError.
    """
    sizes = np.array([[0.0], [inst.coalition_size]])
    with _quiet():
        imbalance, _ = _stationarity(inst.cost._pair, _outer_loads(inst), sizes, split)
    return float(_finite(imbalance[0], "marginal imbalance"))


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

# Signs of the split in the peak and the off-peak load, as a column: at a
# split x the loads are outer + _SIDES * x, and the weights of f' at them
# sizes + _SIDES * x, with the peak side above the off-peak side.
_SIDES = np.array([[1.0], [-1.0]])


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
        return True, sizes > activation_threshold(inst)
    return False, sizes >= mixing_band(inst)


def _outer_loads(inst: ThreeSlotInstance) -> np.ndarray:
    """The two alternatives' loads at a zero split, as a column."""
    return np.array([[inst.peak_load], [1.0 + inst.offpeak_load]])


def _stationarity(pair, outer, sizes, split):
    """The imbalance F of :func:`marginal_imbalance` at splits ``split``
    and the sum of the magnitudes of its four terms, the scale of F's
    rounding, from one call of the f/f' pair ``pair`` on the loads
    ``outer`` moved by the splits; ``sizes`` stacks zeros above the
    coalition sizes."""
    moved = _SIDES * split
    value, slope = pair(outer + moved)
    terms = (sizes + moved) * slope
    imbalance = value[0] + terms[0] - value[1] - terms[1]
    return imbalance, (np.abs(value) + np.abs(terms)).sum(axis=0)


@_quiet()
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
        x1, x0 = np.zeros(m.shape), np.zeros(m.shape)
        lo, hi = np.zeros(m.shape), m
    else:
        band = mixing_band(inst)
        x1, x0 = m / 2.0, np.where(split, 0.0, (band - m) / 2.0)
        lo, hi = np.full(m.shape, band / 2.0), m / 2.0
    x1[split] = _split_roots(inst, m[split], lo[split], hi[split])
    return gapped, x1, x0, split


def _split_roots(
    inst: ThreeSlotInstance, m: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Root of the increasing imbalance F at coalition size ``m`` on every
    bracket [lo, hi], by Anderson-Bjorck false position.

    A bracket no wider than BISECTION_TOL returns its midpoint without
    evaluating F.  The dispatch guarantees F(lo) <= 0 <= F(hi) in exact
    arithmetic, so a same-signed end is taken as the root when |F| there is
    at most 1e-9 times one plus the sum of the magnitudes of F's four terms
    at that end; otherwise the first such bracket raises BracketingError, a
    shape violation.

    In the other brackets [a, b], a step's iterate is the chord's zero,
    clamped into the bracket.  It replaces the end of its sign, and the
    other end's value is scaled by 1 - F(iterate) / F(replaced end), or by
    1/2 where that is not positive.  After two steps in a row that halve
    neither the bracket nor |F| of the previous iterate, a step takes the
    midpoint and scales nothing.  A point stops at the first iterate with
    |F| at most ROOT_EPS times the sum of the magnitudes of F's four terms,
    that repeats the previous iterate, or that leaves a bracket no wider
    than BISECTION_TOL.  A point's steps read its own values only, so it
    gets the same bits in any grid.
    """
    roots = (lo + hi) / 2.0
    wide = np.flatnonzero(hi - lo > BISECTION_TOL)
    if not wide.size:
        return roots
    m, a, b = m[wide], lo[wide], hi[wide]
    # Array constructors and concatenations rather than numpy's Python-level
    # stack and tile: these run once per grid.
    outer, sizes = _outer_loads(inst), np.array((np.zeros(m.shape), m))
    # Both ends take one checked call of f and f', so a DomainError names the
    # extreme load of the two ends together.
    both = np.concatenate((sizes, sizes), 1)
    ends, scales = _stationarity(inst.cost._pair, outer, both, np.concatenate((a, b)))
    fa, fb = _finite(ends, "stationarity value at a bracket end").reshape(2, -1)
    slack_a, slack_b = 1e-9 * (1.0 + scales.reshape(2, -1))
    at_lo = fa > 0.0
    at_hi = ~at_lo & (fb < 0.0)
    # Negated comparisons, so that a NaN slack admits no end.
    bad = (at_lo & ~(fa <= slack_a)) | (at_hi & ~(fb >= -slack_b))
    if bad.any():
        j = int(np.argmax(bad))
        where, value, sign = ("lower", fa, "positive") if at_lo[j] else ("upper", fb, "negative")
        raise BracketingError(
            f"stationarity value {float(value[j])} at the {where} bracket end should "
            f"not be {sign}; the cost family violates the convexity assumptions"
        )
    found = np.where(at_lo, a, b)
    done = at_lo | at_hi
    previous, previous_size = np.full(m.shape, np.nan), np.full(m.shape, np.inf)
    fails = np.zeros(len(m), dtype=int)
    # Iterates lie inside brackets whose ends the checked f and f' accepted,
    # so the steps call the raw ones.
    raw = inst.cost._raw_pair
    while not done.all():
        width = b - a
        halve = fails >= 2
        share = np.where(halve, 0.5, fa / (fa - fb))
        # Clamped: rounding can step past b, a bracket settled at an end has
        # two same-signed values, and fmax takes the NaN share of 0 / 0 to a.
        x = np.fmin(np.fmax(a + share * width, a), b)
        imbalance, scale = _stationarity(raw, outer, sizes, x)
        size = np.abs(imbalance)
        stop = (size <= ROOT_EPS * scale) | (x == previous)
        np.copyto(found, x, where=stop & ~done)
        done |= stop
        if done.all():
            break
        low = imbalance < 0.0
        ratio = np.where(halve, 1.0, 1.0 - imbalance / np.where(low, fa, fb))
        kept = np.where(low, fb, fa) * np.where(ratio > 0.0, ratio, 0.5)
        a, fa = np.where(low, x, a), np.where(low, imbalance, kept)
        b, fb = np.where(low, b, x), np.where(low, kept, imbalance)
        narrowed = b - a
        narrow = narrowed <= BISECTION_TOL
        np.copyto(found, x, where=narrow & ~done)
        done |= narrow
        progress = halve | (narrowed <= 0.5 * width) | (size <= 0.5 * previous_size)
        fails = np.where(progress, 0, fails + 1)
        previous, previous_size = x, size
    roots[wide] = found
    return roots


@_quiet()
def _grid_costs(
    inst: ThreeSlotInstance, sizes: np.ndarray, x1: np.ndarray, split: np.ndarray
) -> ReducedCosts:
    """:func:`ce_costs` of the closed form of ``inst`` at coalition sizes
    ``sizes``, from its coalition peak weights ``x1`` and split flags
    ``split``, as one array per entity, or a NumericsError."""
    f = inst.cost
    costs = np.empty((3, len(sizes)))
    social, individuals, coalition = costs
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
    return ReducedCosts(*_finite(costs, "entity costs"))


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
