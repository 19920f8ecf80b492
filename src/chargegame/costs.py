"""Per-unit charging cost functions.

Every slot of the horizon carries a per-unit cost f(L_t + P*z_t), where f
is convex, strictly increasing, nonnegative and continuously differentiable
on a validity interval [0, W].  Three named families cover the usual
distribution-network metrics: a linear tariff, quadratic Joule losses and
exponential equipment ageing.  Host programs can plug in their own family
through :class:`CustomCost`, which is spot-checked for the same shape
requirements on a sample grid.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import DomainError, SpecError, _check, _known_keys, _real

# Slack on domain checks so loads assembled from renormalized flows do not
# trip the upper bound by float rounding.
DOMAIN_SLACK = 1e-9

# Sample-grid size used to spot-check custom families.
VALIDATION_GRID_SIZE = 256

# Tolerated curvature noise when spot-checking convexity on the grid.
CONVEXITY_TOL = 1e-9


class CostFunction(abc.ABC):
    """Per-unit cost family: convex, strictly increasing, C1 on [0, W].

    ``domain_bound`` is the upper end W of the validity interval.  ``None``
    means "not yet pinned to a game"; it is resolved when the family is
    attached to a :class:`~chargegame.model.GameSpec`.
    """

    domain_bound: float | None

    @abc.abstractmethod
    def _raw_pair(self, load: np.ndarray):
        """f(load) and f'(load) without domain checks.  f' may be a scalar
        where the family's slope is constant, and is None for a family
        without a derivative."""

    def _raw_value(self, load: np.ndarray) -> np.ndarray:
        """f(load) without domain checks."""
        return self._raw_pair(load)[0]

    def has_derivative(self) -> bool:
        return True

    def value(self, load):
        """Evaluate f at a scalar or array load inside [0, W]."""
        arr = self._checked(load)
        out = self._raw_value(arr)
        return float(out) if arr.ndim == 0 else out

    def derivative(self, load):
        """Evaluate f' at a scalar or array load inside [0, W]."""
        return self._pair(load)[1]

    def _pair(self, load):
        """f and f' at a scalar or array load inside [0, W], as value() and
        derivative() return them, after one domain check; a SpecError for
        a family without a derivative."""
        if not self.has_derivative():
            raise SpecError(f"{type(self).__name__} provides no derivative")
        arr = self._checked(load)
        value, slope = self._raw_pair(arr)
        if arr.ndim == 0:
            return float(value), float(slope)
        return value, np.full_like(arr, slope) if np.ndim(slope) < arr.ndim else slope

    def _checked(self, load) -> np.ndarray:
        """``load`` as a float array, once it passed the domain check."""
        arr = np.asarray(load, dtype=float)
        if arr.size:
            self._check_domain(float(arr.min()), float(arr.max()))
        return arr

    def _check_domain(self, lo: float, hi: float) -> None:
        if lo < -DOMAIN_SLACK:
            raise DomainError(f"load {lo} lies below the validity interval [0, W]")
        bound = self.domain_bound
        if bound is not None and hi > bound + DOMAIN_SLACK * max(1.0, bound):
            raise DomainError(f"load {hi} lies above the validity interval [0, {bound}]")


@dataclass(frozen=True)
class LinearCost(CostFunction):
    """f(x) = slope * x + intercept with slope > 0 and intercept >= 0."""

    slope: float = 1.0
    intercept: float = 0.0
    domain_bound: float | None = None

    def __post_init__(self):
        if self.slope <= 0:
            raise SpecError("linear cost requires a positive slope")
        if self.intercept < 0:
            raise SpecError("linear cost requires a nonnegative intercept")
        _check_bound(self.domain_bound)

    def _raw_pair(self, load):
        return self.slope * load + self.intercept, self.slope


@dataclass(frozen=True)
class QuadraticCost(CostFunction):
    """f(x) = x**2, the Joule-loss metric."""

    domain_bound: float | None = None

    def __post_init__(self):
        _check_bound(self.domain_bound)

    def _raw_pair(self, load):
        return load * load, 2.0 * load


@dataclass(frozen=True)
class ExponentialCost(CostFunction):
    """f(x) = exp(rate * x) with rate > 0, the equipment-ageing metric."""

    rate: float = 1.0
    domain_bound: float | None = None

    def __post_init__(self):
        if self.rate <= 0:
            raise SpecError("exponential cost requires a positive rate")
        _check_bound(self.domain_bound)

    def _raw_pair(self, load):
        grown = np.exp(self.rate * load)
        return grown, self.rate * grown


@dataclass(frozen=True)
class CustomCost(CostFunction):
    """Host-supplied cost family.

    ``value_fn`` (and ``derivative_fn`` when given) must accept numpy
    arrays; they are always called with one, scalar loads as 0-d arrays.
    The validity interval must be declared up front because the
    shape requirements (finite, nonnegative, strictly increasing, convex)
    are spot-checked on a uniform sample grid of [0, domain_bound] at
    construction; the derivative is trusted as supplied.
    """

    value_fn: Callable[[np.ndarray], np.ndarray]
    derivative_fn: Callable[[np.ndarray], np.ndarray] | None
    domain_bound: float

    def __post_init__(self):
        if self.domain_bound is None or self.domain_bound <= 0:
            raise SpecError("custom cost requires a positive domain_bound")
        grid = np.linspace(0.0, self.domain_bound, VALIDATION_GRID_SIZE)
        values = np.asarray(self.value_fn(grid), dtype=float)
        if values.shape != grid.shape or not np.all(np.isfinite(values)):
            raise SpecError("custom cost values must be finite over [0, W]")
        if values.min() < -CONVEXITY_TOL:
            raise SpecError("custom cost must be nonnegative on [0, W]")
        if np.diff(values).min() <= 0:
            raise SpecError("custom cost must be strictly increasing on [0, W]")
        second = values[2:] - 2.0 * values[1:-1] + values[:-2]
        if second.min() < -CONVEXITY_TOL:
            raise SpecError("custom cost must be convex on [0, W]")

    def has_derivative(self) -> bool:
        return self.derivative_fn is not None

    def _raw_value(self, load):
        return np.asarray(self.value_fn(np.asarray(load)), dtype=float)

    def _raw_pair(self, load):
        derivative = self.derivative_fn
        slope = None if derivative is None else np.asarray(derivative(np.asarray(load)), dtype=float)
        return self._raw_value(load), slope


@dataclass(frozen=True)
class AffineCost(CostFunction):
    """scale * f(x) + shift around a base family, with scale > 0.

    Equilibria are invariant under this transformation, which is what the
    wrapper exists to exercise; the shift may therefore be negative even
    though that can break the nonnegativity the base family guarantees.
    """

    base: CostFunction
    scale: float
    shift: float

    def __post_init__(self):
        if self.scale <= 0:
            raise SpecError("affine transform requires a positive scale")

    @property
    def domain_bound(self) -> float | None:
        return self.base.domain_bound

    def has_derivative(self) -> bool:
        return self.base.has_derivative()

    def _raw_pair(self, load):
        value, slope = self.base._raw_pair(load)
        return self.scale * value + self.shift, None if slope is None else self.scale * slope


def with_domain_bound(fn: CostFunction, bound: float) -> CostFunction:
    """Copy of ``fn`` with the validity interval pinned to [0, bound]."""
    if bound <= 0:
        raise SpecError("domain bound must be positive")
    if isinstance(fn, AffineCost):
        return AffineCost(with_domain_bound(fn.base, bound), fn.scale, fn.shift)
    return replace(fn, domain_bound=bound)


# Parameter keys of each config kind, besides "kind".  An affine family
# takes its validity bound from its base.
_CONFIG_KEYS = {
    "linear": ("slope", "intercept", "domain_bound"),
    "quadratic": ("domain_bound",),
    "exponential": ("rate", "domain_bound"),
    "affine": ("base", "scale", "shift"),
}


def cost_from_config(cfg: dict, field: str = "cost") -> CostFunction:
    """Build a named family from a config mapping.

    Recognized kinds: ``linear`` (slope, intercept), ``quadratic``,
    ``exponential`` (rate) and ``affine`` (base, scale, shift); all but
    ``affine`` accept an optional ``domain_bound``.  Parameters must be
    numbers (``domain_bound`` may be null).  A wrong type or an unknown key
    raises a SpecError that names the field, with ``field`` naming the
    mapping itself.
    """
    _check(field, cfg, "a mapping with a 'kind' entry", isinstance(cfg, dict) and "kind" in cfg)
    kind = cfg["kind"]
    known = isinstance(kind, str) and kind in _CONFIG_KEYS
    _check(f"{field}.kind", kind, f"one of {'/'.join(_CONFIG_KEYS)}", known)
    _known_keys(field, cfg, ("kind", *_CONFIG_KEYS[kind]))

    def number(key: str, default: float) -> float:
        return _real(f"{field}.{key}", cfg.get(key, default))

    bound = cfg.get("domain_bound")
    if bound is not None:
        bound = _real(f"{field}.domain_bound", bound)
    if kind == "linear":
        return LinearCost(
            slope=number("slope", 1.0), intercept=number("intercept", 0.0), domain_bound=bound
        )
    if kind == "quadratic":
        return QuadraticCost(domain_bound=bound)
    if kind == "exponential":
        return ExponentialCost(rate=number("rate", 1.0), domain_bound=bound)
    return AffineCost(
        base=cost_from_config(cfg.get("base"), f"{field}.base"),
        scale=number("scale", 1.0),
        shift=number("shift", 0.0),
    )


def cost_to_config(fn: CostFunction) -> dict:
    """Inverse of :func:`cost_from_config` for the serializable families."""
    if isinstance(fn, LinearCost):
        return {
            "kind": "linear",
            "slope": fn.slope,
            "intercept": fn.intercept,
            "domain_bound": fn.domain_bound,
        }
    if isinstance(fn, QuadraticCost):
        return {"kind": "quadratic", "domain_bound": fn.domain_bound}
    if isinstance(fn, ExponentialCost):
        return {"kind": "exponential", "rate": fn.rate, "domain_bound": fn.domain_bound}
    if isinstance(fn, AffineCost):
        return {
            "kind": "affine",
            "base": cost_to_config(fn.base),
            "scale": fn.scale,
            "shift": fn.shift,
        }
    raise SpecError(f"{type(fn).__name__} is not serializable to config form")


def _check_bound(bound: float | None) -> None:
    if bound is not None and bound <= 0:
        raise SpecError("domain bound must be positive")
