"""Shared fixtures: the four reference models used throughout the suite,
and a float model whose probabilities are not dyadic."""

import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from branchlab.process import Model

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def make_binary():
    # critical single-type: die or split in two, each w.p. 1/2
    return Model(("a",), {"a": [(HALF, ()), (HALF, ("a", "a"))]})


def make_symmetric():
    # two types, same law: die or produce one of each
    return Model(
        ("A", "B"),
        {
            "A": [(HALF, ()), (HALF, ("A", "B"))],
            "B": [(HALF, ()), (HALF, ("A", "B"))],
        },
    )


def make_asymmetric():
    # critical but not symmetric; h = (3/4, 3/2), pi = (2/3, 1/3)
    return Model(
        ("A", "B"),
        {
            "A": [(QUARTER, ("A", "A")), (QUARTER, ("B",)), (HALF, ())],
            "B": [(HALF, ("A", "A", "B")), (HALF, ())],
        },
    )


def make_subcritical():
    return Model(("a",), {"a": [(HALF, ()), (HALF, ("a",))]})


def make_nondyadic():
    # probabilities in tenths and thirds, parsed from JSON as floats the
    # way the CLI loads models: their products and sums round, so the
    # order they are taken in shows in the bits.  Thirds alone would not
    # show the product order: 2/3 is exactly twice 1/3 as a float
    atom = lambda p, cs: {"prob": p, "children": cs}
    data = {
        "types": ["A", "B"],
        "offspring": {
            "A": [atom(0.3, ["A", "B"]), atom(0.2, ["B"]), atom(0.5, [])],
            "B": [atom(1 / 3, ["A", "A"]), atom(2 / 3, [])],
        },
    }
    return Model.from_json(json.dumps(data))


@pytest.fixture
def binary():
    return make_binary()


@pytest.fixture
def symmetric():
    return make_symmetric()


@pytest.fixture
def asymmetric():
    return make_asymmetric()


@pytest.fixture
def subcritical():
    return make_subcritical()


@pytest.fixture
def nondyadic():
    return make_nondyadic()
