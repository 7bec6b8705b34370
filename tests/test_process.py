"""Offspring models: enumeration, simulation, Perron data, survival."""

import itertools
import json
import struct
from fractions import Fraction

import numpy as np
import pytest

from branchlab import process
from branchlab.cli import build_functional
from branchlab.limits import kolmogorov_rows
from branchlab.moments import ultrametric_moment
from branchlab.process import (
    _extinction_curve,
    MarkedTree,
    Model,
    eigenpair,
    enumerate_arrays,
    Eigenpair,
    is_critical,
    mean_matrix,
    sigma_squared,
    simulate,
)
from branchlab.trees import PlanarTree

from conftest import (
    make_asymmetric,
    make_binary,
    make_nondyadic,
    make_subcritical,
    make_symmetric,
    seed_enumerate_population,
)

HALF = Fraction(1, 2)


class TestModelValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Model(("a",), {"a": [(0.5, ()), (0.4, ("a",))]})

    def test_unknown_child_type(self):
        with pytest.raises(ValueError):
            Model(("a",), {"a": [(1.0, ("b",))]})

    def test_duplicate_types(self):
        with pytest.raises(ValueError):
            Model(("a", "a"), {"a": [(1.0, ())]})

    def test_offspring_keys_must_match_types(self):
        with pytest.raises(ValueError):
            Model(("a", "b"), {"a": [(1.0, ())]})

    def test_negative_probability(self):
        with pytest.raises(ValueError):
            Model(("a",), {"a": [(1.5, ()), (-0.5, ("a",))]})

    def test_empty_atom_list(self):
        with pytest.raises(ValueError):
            Model(("a",), {"a": []})

    def test_json_roundtrip(self, asymmetric):
        back = Model.from_json(asymmetric.to_json())
        assert back.types == asymmetric.types
        for x in back.types:
            for (p1, c1), (p2, c2) in zip(
                back.offspring[x], asymmetric.offspring[x]
            ):
                assert c1 == c2
                assert abs(float(p1) - float(p2)) < 1e-15

    def test_json_schema_is_strict(self):
        with pytest.raises(ValueError):
            Model.from_json('{"types": ["a"]}')

    @pytest.mark.parametrize(
        "atom, message",
        [
            # a string probability once passed through float()
            ({"prob": "0.5", "children": []}, "offspring of 'a': 'prob' must be a number, got str '0.5'"),
            ({"prob": True, "children": []}, "offspring of 'a': 'prob' must be a number, got bool True"),
            ({"prob": None, "children": []}, "'prob' must be a number, got NoneType None"),
            # a string of children was once split into one child per character
            ({"prob": 0.5, "children": "aa"}, "offspring of 'a': 'children' must be a list of type labels, got str 'aa'"),
            ({"prob": 0.5, "children": ["a", 1]}, "'children' must be a list of type labels, got list ['a', 1]"),
            ({"prob": 0.5, "children": {"a": 2}}, "'children' must be a list of type labels, got dict"),
        ],
    )
    def test_json_value_types(self, atom, message):
        text = json.dumps(
            {"types": ["a"], "offspring": {"a": [atom, {"prob": 0.5, "children": ["a", "a"]}]}}
        )
        with pytest.raises(ValueError) as info:
            Model.from_json(text)
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "data, message",
        [
            # a string of types was once split into one type per character
            (
                {"types": "a", "offspring": {"a": [{"prob": 1.0, "children": []}]}},
                "model key 'types' must be a list of type labels, got str 'a'",
            ),
            ({"types": ["a", 1], "offspring": {}}, "'types' must be a list of type labels, got list"),
            # offspring as a list once raised AttributeError
            ({"types": ["a"], "offspring": [1]}, "model key 'offspring' must be an object"),
            ({"types": ["a"], "offspring": {"a": 5}}, "offspring of 'a' must be a list of atoms, got int 5"),
            # an atom as a pair once raised TypeError
            (
                {"types": ["a"], "offspring": {"a": [[0.5, []], [0.5, ["a", "a"]]]}},
                "offspring of 'a': an atom must be an object with exactly 'prob' and "
                "'children', got list [0.5, []]",
            ),
            # a missing key once raised KeyError('children')
            (
                {"types": ["a"], "offspring": {"a": [{"prob": 1.0}]}},
                "an atom must be an object with exactly 'prob' and 'children', got dict",
            ),
            (
                {"types": ["a"], "offspring": {"a": [{"prob": 1.0, "children": [], "note": 1}]}},
                "an atom must be an object with exactly 'prob' and 'children', got dict",
            ),
            ([], "model JSON must have exactly 'types' and 'offspring'"),
        ],
    )
    def test_json_shape(self, data, message):
        with pytest.raises(ValueError) as info:
            Model.from_json(json.dumps(data))
        assert message in str(info.value)

    def test_json_integer_probabilities(self):
        model = Model.from_json('{"types": ["a"], "offspring": {"a": [{"prob": 1, "children": []}]}}')
        assert model.offspring["a"] == ((1.0, ()),)
        assert isinstance(model.offspring["a"][0][0], float)

    def test_max_brood(self, asymmetric):
        assert asymmetric.max_brood == 3

    def test_marked_tree_marks_must_cover(self):
        # the public constructor checks what simulate's trees skip
        tree = PlanarTree({(): 2, (1,): 0, (2,): 0})
        full = {(): "a", (1,): "a", (2,): "a"}
        assert MarkedTree(tree, full).marks == full
        for marks in ({}, {(): "a", (1,): "a"}, {**full, (3,): "a"}):
            with pytest.raises(ValueError, match="cover exactly"):
                MarkedTree(tree, marks)


class TestPerronData:
    def test_mean_matrices(self, binary, asymmetric):
        assert mean_matrix(binary) == np.array([[1.0]])
        M = mean_matrix(asymmetric)
        assert np.allclose(M, [[0.5, 0.25], [1.0, 0.5]], atol=1e-15)

    def test_critical_eigenpairs(self, binary, symmetric, asymmetric):
        for model, h, pi in [
            (binary, [1.0], [1.0]),
            (symmetric, [1.0, 1.0], [0.5, 0.5]),
            (asymmetric, [0.75, 1.5], [2 / 3, 1 / 3]),
        ]:
            eig = eigenpair(model)
            assert abs(eig.perron - 1.0) <= 1e-9
            assert np.allclose(eig.h, h, atol=1e-9)
            assert np.allclose(eig.pi, pi, atol=1e-9)
            assert abs(eig.pi.sum() - 1.0) <= 1e-12
            assert abs(float(eig.pi @ eig.h) - 1.0) <= 1e-12

    def test_subcritical_warns(self, subcritical):
        with pytest.warns(UserWarning, match="not critical"):
            eig = eigenpair(subcritical)
        assert abs(eig.perron - 0.5) <= 1e-9

    def test_one_criticality_threshold(self, subcritical):
        def at(perron):
            return Eigenpair(h=np.ones(1), pi=np.ones(1), perron=perron)

        assert is_critical(at(1.0 + 5e-10))
        assert not is_critical(at(1.0 + 5e-9))
        assert is_critical(at(1.0 - 5e-10)) and not is_critical(at(1.0 - 5e-9))
        assert not is_critical(at(float("nan")))
        # the eigenpair warning uses the same test
        with pytest.warns(UserWarning, match="not critical"):
            assert not is_critical(eigenpair(subcritical))

    def test_reducible_rejected(self):
        split = Model(
            ("A", "B"),
            {
                "A": [(HALF, ("A", "A")), (HALF, ())],
                "B": [(HALF, ("B", "B")), (HALF, ())],
            },
        )
        with pytest.raises(ValueError):
            eigenpair(split)

    def test_periodic_rejected(self):
        swap = Model(
            ("A", "B"),
            {"A": [(1, ("B",))], "B": [(1, ("A",))]},
        )
        with pytest.raises(ValueError):
            eigenpair(swap)

    def test_branching_variance(self, binary, symmetric, asymmetric):
        assert abs(sigma_squared(binary) - 1.0) <= 1e-9
        assert abs(sigma_squared(symmetric) - 1.0) <= 1e-9
        assert abs(sigma_squared(asymmetric) - 9 / 8) <= 1e-9

    def test_deterministic_chain_has_zero_variance(self):
        chain = Model(("a",), {"a": [(1, ("a",))]})
        assert sigma_squared(chain) == 0.0


def outcome_vertices(outcome, n):
    """The vertex slices of the n outcomes of enumerate_arrays."""
    cut = np.cumsum(np.bincount(outcome, minlength=n)).tolist()
    return [slice(lo, hi) for lo, hi in zip([0] + cut, cut)]


class TestEnumeration:
    def test_outcome_counts(self, binary):
        for n, want in [(1, 2), (2, 5), (3, 26), (4, 677)]:
            prob, outcome, depth, mark = enumerate_arrays(binary, "a", n)
            assert len(prob) == want and outcome.max() == want - 1

    def test_probabilities_are_exact(self, binary):
        prob, _, _, _ = enumerate_arrays(binary, "a", 3)
        assert prob.dtype == object
        assert sum(prob.tolist()) == Fraction(1)

    def test_generation_two_size_law(self, binary):
        prob, outcome, depth, _ = enumerate_arrays(binary, "a", 2)
        sizes = np.bincount(outcome[depth == 2], minlength=len(prob))
        law = {}
        for p, z in zip(prob.tolist(), sizes.tolist()):
            law[z] = law.get(z, Fraction(0)) + p
        assert law == {0: Fraction(5, 8), 2: Fraction(1, 4), 4: Fraction(1, 8)}

    def test_no_vertex_past_the_horizon(self, symmetric):
        _, _, depth, mark = enumerate_arrays(symmetric, "A", 2)
        assert depth.max() == 2 and mark.max() == 1

    def test_bad_start_refused_as_simulate_refuses_it(self, binary):
        # the messages of simulate, not the root alone or a bare KeyError
        with pytest.raises(ValueError, match="^n_gen must be nonnegative, got -1$"):
            enumerate_arrays(binary, "a", -1)
        with pytest.raises(ValueError, match="^unknown start type 'z'$"):
            enumerate_arrays(binary, "z", 2)
        with pytest.raises(ValueError, match="unknown start type"):
            enumerate_arrays(binary, ["a"], 2)

    def test_cap_refusal_mentions_estimate(self, binary, asymmetric):
        with pytest.raises(ValueError, match="cap"):
            enumerate_arrays(binary, "a", 4, cap=100)
        with pytest.raises(ValueError, match="cap"):
            enumerate_arrays(asymmetric, "A", 5)

    def test_cap_refusal_names_generation_and_count(self, binary, asymmetric):
        # generation 5 of binary_gw has 458330 outcomes: counted, not enumerated
        with pytest.raises(ValueError, match=r"exceed cap=200000: generation 5 has 458330 outcomes"):
            enumerate_arrays(binary, "a", 5)
        with pytest.raises(ValueError, match=r"cap=676: generation 4 has 677 outcomes"):
            enumerate_arrays(binary, "a", 7, cap=676)
        # a cap equal to the count passes, one below refuses, extinct
        # outcomes included
        for n, count in ((1, 3), (2, 12), (3, 164)):
            assert len(enumerate_arrays(asymmetric, "A", n, cap=count)[0]) == count
            with pytest.raises(ValueError, match=f"generation {n} has {count} outcomes"):
                enumerate_arrays(asymmetric, "A", n, cap=count - 1)

    def test_cap_counts_only_reachable_types(self):
        # x0 dies at once; the unreachable type's count squares each
        # generation, N_c(g) = 1 + N_c(g - 1)^2
        model = Model(("x", "c"), {"x": [(1, ())], "c": [(HALF, ()), (HALF, ("c", "c"))]})
        assert len(enumerate_arrays(model, "x", 10_000, cap=1)[0]) == 1

    def test_vertex_budget_counts_the_arrays_of_every_generation(self, monkeypatch, asymmetric, nondyadic):
        # the budget's entries are the lengths of the vertex arrays of
        # generations 1..n, counted before enumerating: at the budget the
        # enumeration runs, one below it is refused naming the total
        cases = [(asymmetric, "A", 3), (asymmetric, "B", 3), (nondyadic, "B", 4)]
        totals = [
            sum(len(enumerate_arrays(model, x0, g)[1]) for g in range(1, n + 1))
            for model, x0, n in cases
        ]
        for (model, x0, n), total in zip(cases, totals):
            monkeypatch.setattr(process, "_ENUMERATE_VERTEX_LIMIT", total)
            enumerate_arrays(model, x0, n)
            monkeypatch.setattr(process, "_ENUMERATE_VERTEX_LIMIT", total - 1)
            with pytest.raises(ValueError, match=f"write {total} vertex entries by generation {n},"):
                enumerate_arrays(model, x0, n)

    def test_single_child_chain_refused_by_its_vertices(self):
        # one outcome at every horizon, so the cap never fires; generation
        # g holds g + 1 vertices, g (g + 3) / 2 entries by generation g
        chain = Model(("a",), {"a": [(1, ("a",))]})
        assert len(enumerate_arrays(chain, "a", 1000)[1]) == 1001
        for n in (2827, 4000, 10**5):
            with pytest.raises(
                ValueError,
                match="write 4000205 vertex entries by generation 2827, above the limit of 4000000",
            ):
                enumerate_arrays(chain, "a", n)

    def test_extinct_start_at_a_huge_horizon(self):
        # the count check stops at its fixed point and the enumeration
        # once no outcome has a frontier: a million generations take no time
        model = Model(("x", "c"), {"x": [(1, ())], "c": [(HALF, ()), (HALF, ("c", "c"))]})
        prob, outcome, depth, mark = enumerate_arrays(model, "x", 10**6, cap=1)
        assert prob.tolist() == [1] and outcome.tolist() == depth.tolist() == mark.tolist() == [0]

    @pytest.mark.parametrize(
        "make", [make_binary, make_symmetric, make_asymmetric, make_subcritical, make_nondyadic]
    )
    def test_matches_seed_loop(self, make):
        # each oracle tree flattened to its vertices' depths and mark
        # indices in planar order
        model = make()
        for x0, n in itertools.product(model.types, range(4)):
            prob, outcome, depth, mark = enumerate_arrays(model, x0, n)
            want = seed_enumerate_population(model, x0, n)
            assert len(prob) == len(want), (x0, n)
            cuts = outcome_vertices(outcome, len(prob))
            for p, cut, (q, ref) in zip(prob.tolist(), cuts, want):
                vs = ref.tree.vertices
                assert depth[cut].tolist() == [len(v) for v in vs]
                assert mark[cut].tolist() == [model.index[ref.marks[v]] for v in vs]
                if isinstance(p, float):
                    # at horizon 0 the seed loop's 1 is an int
                    assert struct.pack("<d", p) == struct.pack("<d", q), (x0, n)
                else:
                    assert p == q and type(p) is type(q), (x0, n)

    def test_semigroup_identity(self, asymmetric):
        # E[sum of f over generation n] must equal (M^n f)(x0)
        M = mean_matrix(asymmetric)
        f = np.array([2.0, -1.0])
        for n in (1, 2, 3):
            Mn = np.linalg.matrix_power(M, n)
            for x0 in asymmetric.types:
                prob, outcome, depth, mark = enumerate_arrays(asymmetric, x0, n)
                at = depth == n
                direct = float(np.sum(prob.astype(float)[outcome[at]] * f[mark[at]]))
                want = float(Mn[asymmetric.index[x0]] @ f)
                assert abs(direct - want) <= 1e-10


class TestSimulation:
    def test_deterministic_given_seed(self, asymmetric):
        a = simulate(asymmetric, "A", 6, rng=42)
        b = simulate(asymmetric, "A", 6, rng=42)
        assert a.tree == b.tree and a.marks == b.marks

    def test_children_match_an_offspring_atom(self, asymmetric):
        atoms = {
            x: {cs for _, cs in asymmetric.offspring[x]}
            for x in asymmetric.types
        }
        rng = np.random.default_rng(7)
        for _ in range(50):
            mt = simulate(asymmetric, "A", 4, rng=rng)
            for v in mt.tree.vertices:
                if len(v) == 4:
                    continue
                d = mt.tree.degrees[v]
                kids = tuple(mt.marks[v + (i,)] for i in range(1, d + 1))
                assert kids in atoms[mt.marks[v]]

    def test_generation_two_histogram(self, binary):
        rng = np.random.default_rng(3)
        n = 4000
        counts = {0: 0, 2: 0, 4: 0}
        for _ in range(n):
            mt = simulate(binary, "a", 2, rng=rng)
            z = sum(1 for v in mt.tree.vertices if len(v) == 2)
            counts[z] += 1
        for z, p in [(0, 5 / 8), (2, 1 / 4), (4, 1 / 8)]:
            sd = (n * p * (1 - p)) ** 0.5
            assert abs(counts[z] - n * p) <= 4 * sd

    @pytest.mark.parametrize("make, x0", [(make_binary, "a"), (make_asymmetric, "A")])
    def test_generation_six_moments_match_the_shape_sum(self, make, x0):
        # E[Z_6] and E[C(Z_6, 2)] are the count moments of generation 6,
        # 6^k times the ultrametric moment, within 4 standard errors
        model = make()
        F = build_functional({"name": "count"}, model)
        rng = np.random.default_rng(0)
        z = np.array([
            sum(len(v) == 6 for v in simulate(model, x0, 6, rng=rng).tree.leaves)
            for _ in range(20_000)
        ], dtype=float)
        for k, sample in [(1, z), (2, z * (z - 1) / 2)]:
            want = 6**k * ultrametric_moment(model, k, F, 6, x0)
            stderr = sample.std(ddof=1) / np.sqrt(len(sample))
            assert abs(sample.mean() - want) <= 4 * stderr


class TestSimulationCap:
    def test_supercritical_model_fails_fast(self):
        # ten children each: 111,111 vertices by generation 5
        model = Model(("a",), {"a": [(1.0, ("a",) * 10)]})
        with pytest.raises(ValueError, match="generation 5"):
            simulate(model, "a", 40, rng=0)

    def test_tree_under_the_cap_keeps_its_stream(self, binary):
        # one uniform per vertex below the last generation, nothing more
        rng = np.random.default_rng(8)
        mt = simulate(binary, "a", 6, rng=rng)
        inner = sum(1 for v in mt.tree.vertices if len(v) < 6)
        ref = np.random.default_rng(8)
        ref.random(inner)
        assert rng.random() == ref.random()


def seed_simulate(model, x0, n_gen, rng):
    """The seed's simulator, one rng.random() and one np.searchsorted per
    vertex, kept as the reference."""
    tables = {}
    for x in model.types:
        probs = np.array([float(p) for p, _ in model.offspring[x]])
        tables[x] = (np.cumsum(probs), [cs for _, cs in model.offspring[x]])
    degrees = {}
    marks = {(): x0}
    frontier = [()]
    for _ in range(1, n_gen + 1):
        nxt = []
        for v in frontier:
            cum, kids = tables[marks[v]]
            a = int(np.searchsorted(cum, rng.random(), side="right"))
            a = min(a, len(kids) - 1)
            cs = kids[a]
            degrees[v] = len(cs)
            for i, c in enumerate(cs, start=1):
                marks[v + (i,)] = c
                nxt.append(v + (i,))
        frontier = nxt
    for v in frontier:
        degrees[v] = 0
    return MarkedTree(PlanarTree(degrees), marks)


def make_tenths():
    # exact tenths, whose float sums end at 0.9999999999999999 as the
    # floats' do: the last atom takes every uniform past them
    tenth = Fraction(1, 10)
    return Model(("a",), {"a": [(tenth, ("a",) * (i % 3)) for i in range(9)] + [(tenth, ("a", "a"))]})


def make_ties():
    # a zero-probability atom between two others ties the cumulative sums,
    # and ten atoms of 0.1 sum to 0.9999999999999999, so the clamp matters
    return Model(
        ("a", "b"),
        {
            "a": [(0.5, ()), (0.0, ("b",)), (0.5, ("a", "b"))],
            "b": [(0.1, ("a",) * (i % 3)) for i in range(9)] + [(0.1, ("b",) * 3)],
        },
    )


class TestSeedOracle:
    """simulate draws one uniform array per generation and picks atoms by
    bisect; trees, marks and the generator state after it must be the
    seed's, vertex for vertex."""

    @pytest.mark.parametrize(
        "make, x0",
        [
            (make_binary, "a"),
            (make_symmetric, "B"),
            (make_asymmetric, "A"),
            (make_asymmetric, "B"),
            (make_subcritical, "a"),
            (make_ties, "a"),
            (make_ties, "b"),
            (make_tenths, "a"),
        ],
    )
    def test_trees_marks_and_stream(self, make, x0):
        model = make()
        rng = np.random.default_rng(21)
        ref = np.random.default_rng(21)
        sizes = set()
        for G in [0, 1, 2, 3, 5, 8, 13] * 12:
            got = simulate(model, x0, G, rng=rng)
            want = seed_simulate(model, x0, G, ref)
            assert got.tree.degrees == want.tree.degrees
            assert got.tree.vertices == want.tree.vertices
            assert got.marks == want.marks
            assert rng.bit_generator.state == ref.bit_generator.state
            sizes.add(got.tree.size)
        assert len(sizes) > 3
        assert rng.random() == ref.random()

    def test_uniform_past_the_last_cumulative_sum(self):
        # ten atoms of 0.1, as floats or Fractions, sum to the largest
        # double below one; a uniform of that value falls past the table
        # and takes the last atom
        class Top(np.random.Generator):
            def random(self, size=None):
                u = np.nextafter(1.0, 0.0)
                return u if size is None else np.full(size, u)

        for make, x0, size in [(make_ties, "b", 1 + 3 + 9 + 27), (make_tenths, "a", 1 + 2 + 4 + 8)]:
            model = make()
            got = simulate(model, x0, 3, rng=Top(np.random.PCG64(0)))
            want = seed_simulate(model, x0, 3, Top(np.random.PCG64(0)))
            assert got.tree == want.tree and got.marks == want.marks
            assert got.tree.size == size

    def test_seed_argument_is_a_fresh_stream(self, asymmetric):
        got = simulate(asymmetric, "A", 6, rng=5)
        want = seed_simulate(asymmetric, "A", 6, np.random.default_rng(5))
        assert got.tree == want.tree and got.marks == want.marks

    def test_bad_start_rejected(self, binary):
        with pytest.raises(ValueError, match="n_gen"):
            simulate(binary, "a", -1, rng=0)
        with pytest.raises(ValueError, match="'zz'"):
            simulate(binary, "zz", 3, rng=0)
        with pytest.raises(ValueError, match="unknown start type"):
            simulate(binary, ["a"], 3, rng=0)


class TestBuiltTrees:
    """simulate builds its trees past the public checks; each must be a
    tree PlanarTree accepts, with the same vertex and leaf order."""

    @staticmethod
    def assert_public(tree):
        public = PlanarTree(dict(tree.degrees))
        assert tree == public
        assert tree.vertices == public.vertices
        assert tree.leaves == public.leaves

    @pytest.mark.parametrize(
        "make, x0",
        [(make_binary, "a"), (make_symmetric, "A"), (make_asymmetric, "B"), (make_subcritical, "a")],
    )
    def test_simulated_trees(self, make, x0):
        model = make()
        rng = np.random.default_rng(4)
        for G in [0, 1, 2, 4, 7] * 8:
            self.assert_public(simulate(model, x0, G, rng=rng).tree)


def survival_rows(model, n_values, x0=None):
    eig = eigenpair(model)
    return kolmogorov_rows(model, n_values, x0, eig, sigma_squared(model, eig))


class TestSurvival:
    def test_binary_exact_values(self, binary):
        curve = _extinction_curve(binary, [1, 2])
        assert curve[1]["a"] == 0.5
        assert curve[2]["a"] == 0.625
        assert 1.0 - curve[2]["a"] == 0.375

    def test_subcritical_geometric(self, subcritical):
        curve = _extinction_curve(subcritical, [1, 5, 10, 20])
        for n in (1, 5, 10, 20):
            assert 1.0 - curve[n]["a"] == 0.5**n

    def test_survival_decreasing(self, asymmetric):
        curve = _extinction_curve(asymmetric, range(8))
        vals = [1.0 - curve[n]["A"] for n in range(8)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0

    def test_negative_generation_rejected(self, binary):
        with pytest.raises(ValueError):
            _extinction_curve(binary, [-1])

    def test_scaled_survival_approaches_limit(self, binary, asymmetric):
        rows = survival_rows(binary, [10_000])
        assert abs(rows[0]["observed"] - rows[0]["limit"]) <= 0.01
        assert rows[0]["limit"] == 2.0
        for row in survival_rows(asymmetric, [5000]):
            want = {"kolmogorov:A": 2 * 0.75 / 1.125, "kolmogorov:B": 2 * 1.5 / 1.125}[row["path"]]
            assert abs(row["limit"] - want) <= 1e-9
            assert abs(row["observed"] - row["limit"]) / row["limit"] <= 0.01

    def test_zero_variance_limit_is_none(self):
        chain = Model(("a",), {"a": [(1, ("a",))]})
        rows = survival_rows(chain, [5])
        assert rows[0]["limit"] is None
        assert rows[0]["observed"] == 5.0

    def test_type_filter(self, asymmetric):
        rows = survival_rows(asymmetric, [10, 20], x0="B")
        assert [r["n"] for r in rows] == [10, 20]
        assert all(r["path"] == "kolmogorov:B" for r in rows)
