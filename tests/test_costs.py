"""Cost-family values, derivatives, shape validation and transforms."""

import math

import numpy as np
import pytest

from chargegame import (
    AffineCost,
    CustomCost,
    DomainError,
    ExponentialCost,
    GameSpec,
    LinearCost,
    Profile,
    QuadraticCost,
    SolverStatus,
    SpecError,
    cost_from_config,
    cost_to_config,
    make_report,
)
from chargegame.cli import report_from_dict, report_to_dict
from chargegame.costs import DOMAIN_SLACK, _with_domain_bound

FAMILIES = [
    LinearCost(slope=1.0, intercept=0.0, domain_bound=5.0),
    LinearCost(slope=1.7, intercept=0.3, domain_bound=5.0),
    QuadraticCost(domain_bound=5.0),
    ExponentialCost(rate=1.0, domain_bound=5.0),
    ExponentialCost(rate=0.4, domain_bound=5.0),
]


def test_named_family_values():
    assert QuadraticCost().value(1.75) == pytest.approx(3.0625, abs=1e-15)
    assert ExponentialCost(rate=1.0).value(0.0) == pytest.approx(1.0, abs=1e-15)
    assert LinearCost(slope=1.0, intercept=0.0).value(2.3) == pytest.approx(2.3)
    np.testing.assert_allclose(
        QuadraticCost(domain_bound=4.0).value(np.array([0.0, 1.0, 1.75])), [0.0, 1.0, 3.0625]
    )


def test_named_family_derivatives():
    assert QuadraticCost().derivative(2.0) == pytest.approx(4.0, abs=1e-15)
    assert LinearCost(slope=1.0).derivative(0.37) == pytest.approx(1.0)
    assert ExponentialCost(rate=1.0).derivative(0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("fn", FAMILIES, ids=lambda f: type(f).__name__ + repr(f)[:24])
def test_derivative_matches_finite_differences(fn):
    """f' agrees with central differences to 1e-6 relative on a 100-point grid."""
    grid = np.linspace(0.0, fn.domain_bound, 102)[1:-1]
    h = 1e-6
    fd = (fn.value(grid + h) - fn.value(grid - h)) / (2.0 * h)
    analytic = fn.derivative(grid)
    assert np.all(np.abs(analytic - fd) <= 1e-6 * np.maximum(1.0, np.abs(fd)))


@pytest.mark.parametrize("fn", FAMILIES, ids=lambda f: type(f).__name__ + repr(f)[:24])
def test_monotone_and_convex_on_grid(fn):
    grid = np.linspace(0.0, fn.domain_bound, 100)
    values = fn.value(grid)
    assert np.diff(values).min() > 0
    second = values[2:] - 2 * values[1:-1] + values[:-2]
    assert second.min() >= -1e-9


# Every family, including the wrappers, on scalar and array loads: a scalar
# or 0-d load gives a float, anything else an array.
EVALUATION_FAMILIES = [
    LinearCost(slope=1.7, intercept=0.3, domain_bound=4.0),
    QuadraticCost(domain_bound=4.0),
    ExponentialCost(rate=0.8, domain_bound=4.0),
    AffineCost(QuadraticCost(domain_bound=4.0), 2.0, -1.0),
    CustomCost(value_fn=np.cosh, derivative_fn=np.sinh, domain_bound=4.0),
]
LOAD_KINDS = {
    "float": float,
    "float64": np.float64,
    "0d-array": np.array,
    "1-element-array": lambda x: np.array([x]),
}


def _upper_edge(fn):
    return fn.domain_bound + DOMAIN_SLACK * max(1.0, fn.domain_bound)


@pytest.mark.parametrize("kind", LOAD_KINDS)
@pytest.mark.parametrize("fn", EVALUATION_FAMILIES, ids=lambda f: type(f).__name__)
def test_scalar_and_array_evaluation_agree(fn, kind):
    """Each load evaluates bit-identically to its entry in an array call,
    and the checked pair is (value, derivative) for every load."""
    make = LOAD_KINDS[kind]
    loads = np.array([-DOMAIN_SLACK, 0.0, 1.0, 1.75, 3.3, 4.0, _upper_edge(fn)])
    values, slopes = fn.value(loads), fn.derivative(loads)
    pair_values, pair_slopes = fn._pair(loads)
    assert type(pair_values) is np.ndarray and type(pair_slopes) is np.ndarray
    assert pair_values.tobytes() == values.tobytes()
    assert pair_slopes.tobytes() == slopes.tobytes()
    for load, value, slope in zip(loads.tolist(), values, slopes):
        for got_value, got_slope in (
            (fn.value(make(load)), fn.derivative(make(load))),
            fn._pair(make(load)),
        ):
            if kind == "1-element-array":
                assert got_value.shape == got_slope.shape == (1,)
                got_value, got_slope = got_value[0], got_slope[0]
            else:
                assert type(got_value) is float and type(got_slope) is float
            assert got_value == value and got_slope == slope


@pytest.mark.parametrize("kind", LOAD_KINDS)
@pytest.mark.parametrize("fn", EVALUATION_FAMILIES, ids=lambda f: type(f).__name__)
def test_domain_errors(fn, kind):
    """DomainError just outside [-DOMAIN_SLACK, W + DOMAIN_SLACK*max(1, W)], none on it."""
    make = LOAD_KINDS[kind]
    upper = _upper_edge(fn)
    for evaluate in (fn.value, fn.derivative):
        evaluate(make(-DOMAIN_SLACK))
        evaluate(make(upper))
        with pytest.raises(DomainError, match="below the validity interval"):
            evaluate(make(np.nextafter(-DOMAIN_SLACK, -np.inf)))
        with pytest.raises(DomainError, match="above the validity interval"):
            evaluate(make(np.nextafter(upper, np.inf)))
        with pytest.raises(DomainError):
            evaluate(make(-0.5))
        with pytest.raises(DomainError):
            evaluate(make(upper + 0.5))
        with pytest.raises(DomainError):
            evaluate(np.array([0.5, np.nextafter(upper, np.inf)]))


def test_structural_validation():
    with pytest.raises(SpecError):
        LinearCost(slope=0.0)
    with pytest.raises(SpecError):
        LinearCost(slope=1.0, intercept=-0.1)
    with pytest.raises(SpecError):
        ExponentialCost(rate=-1.0)
    with pytest.raises(SpecError):
        QuadraticCost(domain_bound=-2.0)


NON_FINITE_PARAMETERS = {
    "linear-slope": (lambda v: LinearCost(slope=v), "slope"),
    "linear-intercept": (lambda v: LinearCost(intercept=v), "intercept"),
    "linear-domain-bound": (lambda v: LinearCost(domain_bound=v), "domain bound"),
    "quadratic-domain-bound": (lambda v: QuadraticCost(domain_bound=v), "domain bound"),
    "exponential-rate": (lambda v: ExponentialCost(rate=v), "rate"),
    "exponential-domain-bound": (lambda v: ExponentialCost(domain_bound=v), "domain bound"),
    "affine-scale": (lambda v: AffineCost(QuadraticCost(), v, 0.0), "scale"),
    "affine-shift": (lambda v: AffineCost(QuadraticCost(), 1.0, v), "shift"),
    "custom-domain-bound": (lambda v: CustomCost(lambda x: x, None, domain_bound=v), "domain_bound"),
    "with-domain-bound": (lambda v: _with_domain_bound(QuadraticCost(), v), "domain bound"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", list(NON_FINITE_PARAMETERS))
def test_a_non_finite_parameter_is_refused_by_name(case, value):
    build, name = NON_FINITE_PARAMETERS[case]
    with pytest.raises(SpecError, match=name):
        build(value)


def test_affine_transform_values():
    doubled = AffineCost(QuadraticCost(domain_bound=5.0), 2.0, 3.0)
    assert doubled.value(2.0) == pytest.approx(11.0)
    assert doubled.derivative(2.0) == pytest.approx(8.0)
    identity = AffineCost(LinearCost(1.0, 0.0, domain_bound=5.0), 1.0, 0.0)
    assert identity.value(1.3) == pytest.approx(1.3)
    with pytest.raises(SpecError):
        AffineCost(QuadraticCost(), -1.0, 0.0)
    with pytest.raises(SpecError):
        AffineCost(QuadraticCost(), 0.0, 1.0)


@pytest.mark.parametrize("base", [None, "x"], ids=["none", "string"])
def test_affine_cost_refuses_a_base_that_is_not_a_cost_function(base):
    # Refused when built, by name, instead of failing at the first evaluation.
    with pytest.raises(SpecError, match="base"):
        AffineCost(base)
    with pytest.raises(SpecError, match="base"):
        AffineCost(base, 2.0, 0.0)
    with pytest.raises(SpecError, match="base"):
        GameSpec(3, 2, 1.0, [1.5, 1, 1], AffineCost(base), [0.5, 0.5])


def test_affine_transform_inherits_domain():
    base = ExponentialCost(rate=0.5, domain_bound=3.0)
    wrapped = AffineCost(base, 2.0, -1.0)
    assert wrapped.domain_bound == 3.0
    with pytest.raises(DomainError):
        wrapped.value(3.5)


def test_custom_cost_accepts_valid_family():
    fn = CustomCost(
        value_fn=lambda x: np.cosh(x),
        derivative_fn=lambda x: np.sinh(x),
        domain_bound=3.0,
    )
    assert fn.value(0.0) == pytest.approx(1.0)
    assert fn.derivative(1.0) == pytest.approx(math.sinh(1.0))


def test_custom_cost_rejects_bad_shapes():
    with pytest.raises(SpecError):  # decreasing
        CustomCost(lambda x: -x, None, domain_bound=2.0)
    with pytest.raises(SpecError):  # concave
        CustomCost(lambda x: np.sqrt(x + 0.01), None, domain_bound=2.0)
    with pytest.raises(SpecError):  # negative
        CustomCost(lambda x: x - 1.0, None, domain_bound=2.0)
    with pytest.raises(SpecError):  # no declared interval
        CustomCost(lambda x: x, None, domain_bound=None)
    with pytest.raises(SpecError, match="finite over"):  # infinite past 1
        CustomCost(lambda x: np.where(x > 1.0, np.inf, x), None, domain_bound=2.0)
    with pytest.raises(SpecError, match="finite over"):  # one value for the grid
        CustomCost(lambda x: np.float64(1.0), None, domain_bound=2.0)
    with pytest.raises(SpecError, match="strictly increasing"):  # flat
        CustomCost(lambda x: np.ones_like(x), None, domain_bound=2.0)


def test_custom_cost_requires_a_callable_value_fn():
    # Refused before the sample grid is evaluated, by name.
    with pytest.raises(SpecError, match="value_fn"):
        CustomCost("x", np.ones_like, 2.0)


@pytest.mark.parametrize("derivative", [None, 2.0], ids=["none", "number"])
def test_custom_cost_requires_a_callable_derivative(derivative):
    # Every solver needs f', so a family without one is refused when built,
    # after the shape checks of its values.
    with pytest.raises(SpecError, match="derivative_fn"):
        CustomCost(lambda x: x * x, derivative, domain_bound=2.0)


def test_custom_value_never_calls_the_derivative():
    calls = []

    def derivative(x):
        calls.append(x)
        return np.sinh(x)

    fn = CustomCost(np.cosh, derivative, domain_bound=3.0)
    fn.value(1.0)
    fn.value(np.linspace(0.0, 3.0, 7))
    assert calls == []
    assert fn._pair(1.0) == (fn.value(1.0), fn.derivative(1.0))
    assert len(calls) == 2


def test_with_domain_bound():
    # unresolved bound: only the lower end is enforced
    assert QuadraticCost().value(100.0) == 10000.0
    fn = _with_domain_bound(QuadraticCost(), 7.0)
    assert fn.domain_bound == 7.0
    wrapped = _with_domain_bound(AffineCost(QuadraticCost(), 2.0, 0.0), 7.0)
    assert wrapped.domain_bound == 7.0
    with pytest.raises(SpecError):
        _with_domain_bound(QuadraticCost(), 0.0)


def test_config_round_trip():
    for fn in [
        LinearCost(1.5, 0.25, domain_bound=9.0),
        QuadraticCost(domain_bound=4.0),
        ExponentialCost(rate=0.8, domain_bound=6.0),
        AffineCost(QuadraticCost(domain_bound=4.0), 2.0, 3.0),
    ]:
        rebuilt = cost_from_config(cost_to_config(fn))
        assert rebuilt == fn


def test_config_errors():
    with pytest.raises(SpecError):
        cost_from_config({"kind": "cubic"})
    with pytest.raises(SpecError):
        cost_from_config(["linear"])
    with pytest.raises(SpecError, match="CustomCost is not serializable"):
        cost_to_config(CustomCost(lambda x: x, np.ones_like, domain_bound=2.0))


def test_config_written_forms():
    # A kind's written form is its family's fields; an affine family nests
    # its base's form and has no bound of its own.
    assert cost_to_config(LinearCost(1.5, 0.25, domain_bound=9.0)) == {
        "kind": "linear", "slope": 1.5, "intercept": 0.25, "domain_bound": 9.0
    }
    assert cost_to_config(QuadraticCost()) == {"kind": "quadratic", "domain_bound": None}
    exponential = ExponentialCost(rate=0.8)
    nested = {"kind": "exponential", "rate": 0.8, "domain_bound": None}
    assert cost_to_config(exponential) == nested
    affine = {"kind": "affine", "base": nested, "scale": 2.0, "shift": -0.5}
    assert cost_to_config(AffineCost(exponential, 2.0, -0.5)) == affine
    pinned = _with_domain_bound(AffineCost(exponential, 2.0, -0.5), 6.0)
    assert cost_to_config(pinned) == dict(affine, base=dict(nested, domain_bound=6.0))


def test_minimal_configs_take_the_field_defaults():
    # A null domain_bound is accepted, and reads as the unpinned default.
    defaults = {
        "linear": LinearCost(1.0, 0.0),
        "quadratic": QuadraticCost(),
        "exponential": ExponentialCost(1.0),
    }
    for kind, fn in defaults.items():
        assert cost_from_config({"kind": kind}) == fn
        assert cost_from_config({"kind": kind, "domain_bound": None}) == fn
    minimal_affine = {"kind": "affine", "base": {"kind": "quadratic"}}
    assert cost_from_config(minimal_affine) == AffineCost(QuadraticCost(), 1.0, 0.0)


@pytest.mark.parametrize(
    "cost",
    [ExponentialCost(rate=0.8), AffineCost(ExponentialCost(rate=1.3), 2.5, -0.25)],
    ids=["exponential", "affine"],
)
def test_a_report_round_trip_gives_back_the_cost(cost):
    # report.json carries the cost in config form, its bound pinned by the
    # game; reading the report back rebuilds an equal family.
    spec = GameSpec(3, 2, 1.0, np.array([1.5, 1.0, 1.0]), cost, np.array([0.4, 0.6]))
    report = make_report(spec, Profile.uniform(spec), SolverStatus.CONVERGED)
    rebuilt, _, _ = report_from_dict(report_to_dict(report, {}))
    assert rebuilt.cost == spec.cost
    assert rebuilt.cost.domain_bound == 25.0
