"""Shared helpers: deterministic random instances and profiles."""

import numpy as np
import pytest
from hypothesis import settings

from chargegame import (
    ExponentialCost,
    Flow,
    LinearCost,
    Profile,
    QuadraticCost,
    ThreeSlotInstance,
)

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run
# and no example database, so a red build is reproducible from its log.
# Local runs keep the default profile, random and with a database.
settings.register_profile("ci", derandomize=True, database=None)


def random_cost(rng, family=None):
    family = family or rng.choice(["linear", "quadratic", "exponential"])
    if family == "linear":
        return LinearCost(slope=rng.uniform(0.5, 2.0), intercept=rng.uniform(0.0, 1.0))
    if family == "quadratic":
        return QuadraticCost()
    return ExponentialCost(rate=rng.uniform(0.3, 1.5))


def random_three_slot(rng, family=None, coalition_size=None):
    loads = rng.uniform(0.0, 3.0, size=3)
    peak, offpeak = max(loads[0], loads[2]), min(loads[0], loads[2])
    m = coalition_size if coalition_size is not None else rng.uniform(0.02, 1.0)
    return ThreeSlotInstance(
        peak_load=peak,
        mid_load=loads[1],
        offpeak_load=offpeak,
        coalition_size=m,
        cost=random_cost(rng, family),
    )


def random_profile(rng, spec, margin=0.0):
    """Random valid profile; ``margin`` keeps every entry that far inside."""
    n = spec.num_start_slots
    rows = []
    for mass in spec.weights:
        raw = rng.uniform(margin, 1.0, size=n)
        rows.append(Flow(mass * raw / raw.sum(), float(mass)))
    return Profile(tuple(rows))


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
