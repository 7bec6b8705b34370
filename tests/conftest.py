"""Shared fixtures: the four reference models used throughout the suite,
a float model whose probabilities are not dyadic, the tree oracle of
population enumeration and the rows of shape_batches as shapes."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings

from branchlab.process import MarkedTree, Model
from branchlab.trees import PlanarTree, TreeShape, shape_batches

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


def batch_shapes(k, R):
    """The rows of shape_batches(k, R), in order, as checked TreeShapes."""
    for L, B in shape_batches(k, R):
        for l, b in zip(L.tolist(), B.tolist()):
            yield TreeShape(tuple(l), tuple(b))


def seed_enumerate_population(model, x0, n_gen):
    """Every population up to generation n_gen as (probability, MarkedTree)
    pairs, by the enumeration as first written, without the cap: per
    outcome and generation, copy its degree and mark dicts once per
    combination of its frontier's atoms, multiplying their probabilities
    left to right.  Generation-n_gen vertices get degree 0.  The order and
    float bits are those of process.enumerate_arrays."""
    outcomes = [(1, {}, {(): x0}, [()])]
    for _ in range(n_gen):
        new = []
        for prob, degs, marks, frontier in outcomes:
            if not frontier:
                new.append((prob, degs, marks, frontier))
                continue
            atom_lists = [model.offspring[marks[v]] for v in frontier]
            for combo in itertools.product(*atom_lists):
                p2 = prob
                d2 = dict(degs)
                m2 = dict(marks)
                f2 = []
                for v, (pa, cs) in zip(frontier, combo):
                    p2 = p2 * pa
                    d2[v] = len(cs)
                    for i, c in enumerate(cs, start=1):
                        m2[v + (i,)] = c
                        f2.append(v + (i,))
                new.append((p2, d2, m2, f2))
        outcomes = new
    result = []
    for prob, degs, marks, frontier in outcomes:
        for v in frontier:
            degs[v] = 0
        result.append((prob, MarkedTree(PlanarTree(degs), marks)))
    return result


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
