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
import math
from dataclasses import MISSING, dataclass, fields, replace
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
        where the family's slope is constant."""

    def _raw_value(self, load: np.ndarray) -> np.ndarray:
        """f(load) without domain checks."""
        return self._raw_pair(load)[0]

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
        derivative() return them, after one domain check."""
        arr = self._checked(load)
        value, slope = self._raw_pair(arr)
        if arr.ndim == 0:
            return float(value), float(slope)
        return value, np.full(arr.shape, slope, float) if np.ndim(slope) < arr.ndim else slope

    def _checked(self, load) -> np.ndarray:
        """``load`` as a float array, once it passed the domain check."""
        arr = np.asarray(load, dtype=float)
        if arr.size:
            # The ufunc reductions skip ndarray.min's and max's Python wrappers.
            self._check_domain(
                float(np.minimum.reduce(arr, None)), float(np.maximum.reduce(arr, None))
            )
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
        # Negated comparisons, so that NaN fails each check.
        if not 0 < self.slope < math.inf:
            raise SpecError(f"linear cost slope must be finite and positive, got {self.slope}")
        if not 0 <= self.intercept < math.inf:
            raise SpecError(
                f"linear cost intercept must be finite and nonnegative, got {self.intercept}"
            )
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
        if not 0 < self.rate < math.inf:
            raise SpecError(f"exponential cost rate must be finite and positive, got {self.rate}")
        _check_bound(self.domain_bound)

    def _raw_pair(self, load):
        grown = np.exp(self.rate * load)
        return grown, self.rate * grown


@dataclass(frozen=True)
class CustomCost(CostFunction):
    """Host-supplied cost family.

    ``value_fn`` and ``derivative_fn`` must accept numpy arrays; they are
    always called with one, scalar loads as 0-d arrays.
    The validity interval must be declared up front because the
    shape requirements (finite, nonnegative, strictly increasing, convex)
    are spot-checked on a uniform sample grid of [0, domain_bound] at
    construction; the derivative, which every solver needs, is required
    and trusted as supplied.
    """

    value_fn: Callable[[np.ndarray], np.ndarray]
    derivative_fn: Callable[[np.ndarray], np.ndarray]
    domain_bound: float

    def __post_init__(self):
        if self.domain_bound is None or not 0 < self.domain_bound < math.inf:
            raise SpecError(
                f"custom cost requires a finite positive domain_bound, got {self.domain_bound}"
            )
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
        if not callable(self.derivative_fn):
            raise SpecError(
                f"custom cost requires a callable derivative_fn, got {self.derivative_fn!r}"
            )

    def _raw_value(self, load):
        return np.asarray(self.value_fn(np.asarray(load)), dtype=float)

    def _raw_pair(self, load):
        slope = np.asarray(self.derivative_fn(np.asarray(load)), dtype=float)
        return self._raw_value(load), slope


@dataclass(frozen=True)
class AffineCost(CostFunction):
    """scale * f(x) + shift around a base family, with scale > 0.

    Equilibria are invariant under this transformation, which is what the
    wrapper exists to exercise; the shift may therefore be negative even
    though that can break the nonnegativity the base family guarantees.
    """

    base: CostFunction
    scale: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if not 0 < self.scale < math.inf:
            raise SpecError(f"affine scale must be finite and positive, got {self.scale}")
        if not abs(self.shift) < math.inf:
            raise SpecError(f"affine shift must be finite, got {self.shift}")

    @property
    def domain_bound(self) -> float | None:
        return self.base.domain_bound

    def _raw_pair(self, load):
        value, slope = self.base._raw_pair(load)
        return self.scale * value + self.shift, self.scale * slope


def _with_domain_bound(fn: CostFunction, bound: float) -> CostFunction:
    """Copy of ``fn`` with the validity interval pinned to [0, bound]; the
    family's own checks refuse a bound that is not finite and positive."""
    if isinstance(fn, AffineCost):
        return AffineCost(_with_domain_bound(fn.base, bound), fn.scale, fn.shift)
    return replace(fn, domain_bound=bound)


# The family each config kind builds, in the order the kind error lists
# them.  A kind's parameter keys and their defaults are its family's
# dataclass fields; an affine family takes its validity bound from its base.
_CONFIG_KINDS = {
    "linear": LinearCost,
    "quadratic": QuadraticCost,
    "exponential": ExponentialCost,
    "affine": AffineCost,
}


def cost_from_config(cfg: dict, field: str = "cost") -> CostFunction:
    """Build a named family from a config mapping.

    Recognized kinds: ``linear``, ``quadratic``, ``exponential`` and
    ``affine``.  A kind's keys are its family's dataclass fields, and a
    missing key takes the field default; an affine ``base`` is itself a
    config mapping.  Parameters must be numbers (``domain_bound`` may be
    null, which leaves the bound to be pinned by the game).  A wrong
    type or an unknown key raises a SpecError that names the field, with
    ``field`` naming the mapping itself; the first malformed parameter in
    field order is named.
    """
    _check(field, cfg, "a mapping with a 'kind' entry", isinstance(cfg, dict) and "kind" in cfg)
    kind = cfg["kind"]
    known = isinstance(kind, str) and kind in _CONFIG_KINDS
    _check(f"{field}.kind", kind, f"one of {'/'.join(_CONFIG_KINDS)}", known)
    family = _CONFIG_KINDS[kind]
    params = fields(family)
    _known_keys(field, cfg, ("kind", *(p.name for p in params)))

    def parameter(key: str):
        value, name = cfg.get(key), f"{field}.{key}"
        if key == "base":
            return cost_from_config(value, name)
        return None if key == "domain_bound" and value is None else _real(name, value)

    # A field without a default (an affine base) is read even when absent,
    # so its absence is refused by name.
    given = [p.name for p in params if p.name in cfg or p.default is MISSING]
    return family(**{key: parameter(key) for key in given})


def cost_to_config(fn: CostFunction) -> dict:
    """Inverse of :func:`cost_from_config` for the serializable families:
    the first kind whose family ``fn`` is an instance of, and that family's
    fields."""
    kind = next((k for k, family in _CONFIG_KINDS.items() if isinstance(fn, family)), None)
    if kind is None:
        raise SpecError(f"{type(fn).__name__} is not serializable to config form")
    config = {"kind": kind}
    for param in fields(_CONFIG_KINDS[kind]):
        value = getattr(fn, param.name)
        config[param.name] = cost_to_config(value) if param.name == "base" else value
    return config


def _check_bound(bound: float | None) -> None:
    if bound is not None and not 0 < bound < math.inf:
        raise SpecError(f"domain bound must be finite and positive, got {bound}")
