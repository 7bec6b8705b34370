"""Moment identities: shape sum vs enumeration vs recursion, rescalings."""

import itertools
import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from branchlab import moments, process
from branchlab.cli import build_functional
from branchlab.moments import (
    BranchFunctional,
    BruteForceMoments,
    MomentQuery,
    PathFunctional,
    as_functional,
    many_to_one,
    moment_bruteforce,
    moment_m2f,
    moment_recursive,
    rescaled_moment,
    ultrametric_moment,
)
from branchlab.process import Model, mean_matrix
from branchlab.spine import build_kernel
from branchlab.trees import PlanarTree, TreeShape, distance_matrix, is_ancestor, meet

from conftest import seed_enumerate_population


def count_F(shape, lt, bt):
    return 1.0


def typed_F(shape, lt, bt):
    # touches heights, leaf types and branch types all at once
    w = {"A": 1.3, "B": 0.7, "a": 1.1}
    val = 1.0
    for l, t in zip(shape.leaf_heights, lt):
        val *= w[t] / (1.0 + l)
    for b, t in zip(shape.branch_heights, bt):
        val *= 1.0 + 0.5 * b * w[t]
    return val


class TestShapeSumVsEnumeration:
    def test_binary_grid(self, binary):
        bf = BruteForceMoments(binary, "a", horizon=3)
        for k in (1, 2, 3):
            for R in (1, 2, 3):
                for psi in ("unit", "harmonic"):
                    for F in (count_F, typed_F):
                        q = MomentQuery(k=k, x0="a", F=F, R=R, psi=psi)
                        want = bf.moment(k, F, R)
                        got = moment_m2f(binary, q)
                        assert abs(got - want) <= 1e-12, (k, R, psi)

    def test_asymmetric_grid(self, asymmetric):
        for x0 in asymmetric.types:
            bf = BruteForceMoments(asymmetric, x0, horizon=3)
            for k in (1, 2):
                for R in (2, 3):
                    for psi in ("unit", "harmonic"):
                        q = MomentQuery(k=k, x0=x0, F=typed_F, R=R, psi=psi)
                        want = bf.moment(k, typed_F, R)
                        got = moment_m2f(asymmetric, q)
                        assert abs(got - want) <= 1e-12, (x0, k, R, psi)

    def test_weight_independence(self, asymmetric):
        q = MomentQuery(k=2, x0="A", F=typed_F, R=3)
        vals = [
            moment_m2f(asymmetric, q, kernel=build_kernel(asymmetric, psi))
            for psi in ("unit", "harmonic", {"A": 0.7, "B": 1.9})
        ]
        assert abs(vals[0] - vals[1]) <= 1e-12
        assert abs(vals[0] - vals[2]) <= 1e-12

    def test_support_monotonicity(self, binary):
        # once R covers the support, enlarging it changes nothing
        F = lambda shape, lt, bt: float(shape.height <= 1)
        v1 = moment_m2f(binary, MomentQuery(k=2, x0="a", F=F, R=1))
        v3 = moment_m2f(binary, MomentQuery(k=2, x0="a", F=F, R=3))
        assert v1 == v3

    @pytest.mark.parametrize("name", ["binary", "symmetric", "asymmetric", "subcritical", "nondyadic"])
    def test_radii_match_one_call_per_radius(self, request, name):
        # unsorted, repeated and zero radii; a plain and a batched F
        model = request.getfixturevalue(name)
        Rs = [3, 0, 2, 2, 1]
        weighted = build_functional({"name": "count", "weights": {model.types[0]: 0.7}}, model)
        nonzero = 0
        for k, psi, F in itertools.product((1, 2, 3), ("unit", "harmonic"), (typed_F, weighted)):
            kernel = build_kernel(model, psi)
            q = MomentQuery(k=k, x0=model.types[-1], F=F, R=max(Rs), psi=psi)
            got = moments.moment_m2f_radii(model, q, Rs, kernel)
            want = [moment_m2f(model, MomentQuery(k, q.x0, F, R, psi), kernel) for R in Rs]
            assert list(map(float.hex, got)) == list(map(float.hex, want)), (k, psi)
            nonzero += sum(v != 0.0 for v in got)
        assert nonzero >= 20

    def test_negative_radius_refused(self, binary):
        q = MomentQuery(k=2, x0="a", F=count_F, R=2)
        with pytest.raises(ValueError, match="R must be nonnegative"):
            moments.moment_m2f_radii(binary, q, [2, -1])

    def test_horizon_guard(self, binary):
        bf = BruteForceMoments(binary, "a", horizon=2)
        with pytest.raises(ValueError):
            bf.moment(1, count_F, 3)


def reference_table(bf, k):
    """The table by filtering every vertex k-subset of the oracle's trees,
    in planar order."""
    tab = {}
    for prob, mt in seed_enumerate_population(bf.model, bf.x0, bf.horizon):
        p = float(prob)
        marks = mt.marks
        for combo in itertools.combinations(mt.tree.vertices, k):
            # in planar order an ancestor pair, if any, occurs at
            # consecutive positions
            if any(
                combo[i] == combo[i + 1][: len(combo[i])] for i in range(k - 1)
            ):
                continue
            l = tuple(len(v) for v in combo)
            ms = tuple(meet(combo[i], combo[i + 1]) for i in range(k - 1))
            key = (
                l,
                tuple(len(m) for m in ms),
                tuple(marks[v] for v in combo),
                tuple(marks[m] for m in ms),
            )
            tab[key] = tab.get(key, 0.0) + p
    return tab


def bits(table):
    return [(key, struct.pack("<d", w)) for key, w in table.items()]


class TestBruteForceTable:
    @pytest.mark.parametrize(
        "model, k, horizon",
        [
            (m, k, 3)
            for m in ("binary", "symmetric", "asymmetric")
            for k in (1, 2, 3, 4)
        ]
        # the asymmetric model has 29,634 outcomes at horizon 4 (about 45 s)
        + [(m, 2, 4) for m in ("binary", "symmetric")]
        # float probabilities that round: the summation order shows
        + [("nondyadic", k, 3) for k in (1, 2, 3)],
    )
    def test_matches_subset_filter(self, request, model, k, horizon):
        m = request.getfixturevalue(model)
        bf = BruteForceMoments(m, m.types[0], horizon=horizon)
        got = bf.table(k)
        assert bits(got) == bits(reference_table(bf, k))
        # every non-ancestral k-subset carries its outcome's weight once
        want = Fraction(0)
        for prob, mt in seed_enumerate_population(m, m.types[0], horizon):
            free = sum(
                1
                for combo in itertools.combinations(mt.tree.vertices, k)
                if not any(
                    is_ancestor(u, v) for u, v in itertools.combinations(combo, 2)
                )
            )
            want += prob * free
        assert abs(math.fsum(got.values()) - float(want)) <= 1e-12 * float(want)

    def test_tables_build_no_tree(self, monkeypatch, asymmetric):
        # the tables read the enumerated arrays: no PlanarTree or
        # MarkedTree is made
        def refuse(*args, **kwargs):
            raise AssertionError("a tree was built")

        with monkeypatch.context() as patch:
            patch.setattr(PlanarTree, "_built", refuse)
            patch.setattr(process, "MarkedTree", refuse)
            bf = BruteForceMoments(asymmetric, "B", horizon=3)
            for k in (1, 2, 3):
                bf.table(k)

    def test_cached_and_k_checked(self, binary):
        bf = BruteForceMoments(binary, "a", horizon=2)
        assert bf.table(2) is bf.table(2)
        with pytest.raises(ValueError):
            bf.table(0)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_boundaries_change_no_bit(self, monkeypatch, chunk):
        # one-vertex groups and one-first-vertex ranges, then ranges that
        # cut across outcomes: the adds stay in tuple order either way.
        # Thirds make the sums inexact, so another order shows in the bits
        monkeypatch.setattr(moments, "_VERTEX_CHUNK", chunk)
        monkeypatch.setattr(moments, "_TABLE_CHUNK", chunk)
        third = Fraction(1, 3)
        thirds = Model(
            ("A", "B"),
            {
                "A": [(third, ("A", "B")), (third, ("B",)), (third, ())],
                "B": [(third, ("A", "A")), (2 * third, ())],
            },
        )
        bf = BruteForceMoments(thirds, "A", horizon=3)
        for k in (1, 2, 3, 4):
            assert bits(bf.table(k)) == bits(reference_table(bf, k)), k

    @pytest.mark.parametrize("horizon, k", [(0, 2), (0, 3), (1, 3)])
    def test_no_incomparable_tuple(self, binary, horizon, k):
        bf = BruteForceMoments(binary, "a", horizon=horizon)
        assert bf.table(k) == {}
        assert bf.moment(k, count_F, horizon) == 0.0

    def test_key_codes_stay_in_int64(self):
        # the key radix (5 depths x 1,024 marks)^(2k-1) at k = 4 passes
        # 2^63; a pair's radix 5^2 * 1024^2 holds 2^20, so codes wrapped
        # mod 2^64 would lose their high digits and merge keys
        nt = 1024
        types = [f"t{i}" for i in range(nt)]
        model = Model(
            types,
            {
                x: [(Fraction(1), (types[(2 * i + 1) % nt], types[(2 * i + 2) % nt]))]
                for i, x in enumerate(types)
            },
        )
        bf = BruteForceMoments(model, types[0], horizon=4)
        assert bits(bf.table(4)) == bits(reference_table(bf, 4))


def seed_moment(bf, k, F, R):
    """BruteForceMoments.moment as first written, kept as the oracle: one
    TreeShape per table key and F called on it, summed in table order."""
    total = 0.0
    for (l, b, lt, bt), w in bf.table(k).items():
        if max(l) <= R:
            total += w * F(TreeShape(l, b), lt, bt)
    return total


def named_functionals(model):
    """cli.build_functional's named functionals, plain and with leaf
    weights, keyed by the smallest k they accept."""
    weights = dict(zip(model.types, (0.7, 1.3)))
    out = []
    for spec in ({"name": "count"}, {"name": "height_indicator", "r": 2}):
        out += [(1, spec), (1, dict(spec, weights=weights))]
    pair = {"name": "pair_indicator", "r": 2}
    out += [(2, pair), (2, dict(pair, weights=weights))]
    return [(k, build_functional(spec, model, k=k)) for k, spec in out]


class TestMomentEvaluation:
    """moment evaluates the table through trees.shape_values and adds
    w * value from 0.0 in table order, the bits of the per-key loop."""

    @pytest.mark.parametrize("name", ["binary", "symmetric", "asymmetric"])
    def test_matches_per_key_loop(self, request, name):
        model = request.getfixturevalue(name)
        Fs = [(1, typed_F), (1, count_F)] + named_functionals(model)
        nonzero = 0
        for x0 in model.types:
            bf = BruteForceMoments(model, x0, horizon=3)
            for k, R in itertools.product((1, 2, 3), (1, 2, 3)):
                for k_min, F in Fs:
                    if k < k_min:
                        continue
                    got, want = bf.moment(k, F, R), seed_moment(bf, k, F, R)
                    assert float.hex(got) == float.hex(want), (x0, k, R, F)
                    nonzero += got != 0.0
        assert nonzero > 50

    def test_batched_called_once_per_leaf_types(self, asymmetric):
        # only the batched form runs, once per distinct leaf-type tuple of
        # the rows with every leaf height at most R, on their distinct shapes
        bf = BruteForceMoments(asymmetric, "A", horizon=3)
        named = build_functional({"name": "count", "weights": {"A": 0.7}}, asymmetric)
        calls = []

        def F(shape, lt, bt):
            raise AssertionError("the scalar form was called")

        def batched(L, B, lt):
            calls.append((lt, len(L), int(L.max())))
            return named.batched(L, B, lt)

        F.batched = batched
        for k, R in itertools.product((1, 2, 3), (1, 2, 3)):
            calls.clear()
            got = bf.moment(k, F, R)
            rows = [key for key in bf.table(k) if max(key[0]) <= R]
            assert [lt for lt, _, _ in calls] == list(dict.fromkeys(key[2] for key in rows))
            n_shapes = len({key[:2] for key in rows})
            assert all(n == n_shapes and top <= R for _, n, top in calls)
            assert float.hex(got) == float.hex(seed_moment(bf, k, named, R))
            if k == 3 and R == 2:
                assert len(calls) > 1 and len(rows) < len(bf.table(k))

    def test_plain_called_once_per_row_up_to_R(self, asymmetric):
        bf = BruteForceMoments(asymmetric, "B", horizon=3)
        seen = []

        def F(shape, lt, bt):
            seen.append((shape.leaf_heights, shape.branch_heights, lt, bt))
            return typed_F(shape, lt, bt)

        for k, R in itertools.product((1, 2, 3), (1, 2)):
            seen.clear()
            bf.moment(k, F, R)
            rows = [key for key in bf.table(k) if max(key[0]) <= R]
            assert sorted(seen) == sorted(rows)
            assert len(rows) < len(bf.table(k))

    def test_negative_R_refused(self, monkeypatch, binary):
        # as moment_m2f refuses it, where both returned 0.0
        bf = BruteForceMoments(binary, "a", horizon=2)
        # moment_bruteforce refuses before it enumerates
        monkeypatch.setattr(moments, "enumerate_arrays", None)
        for k in (1, 2):
            with pytest.raises(ValueError, match="^R must be nonnegative$"):
                bf.moment(k, count_F, -1)
            q = MomentQuery(k=k, x0="a", F=count_F, R=-1)
            for route in (moment_bruteforce, moment_m2f):
                with pytest.raises(ValueError, match="^R must be nonnegative$"):
                    route(binary, q)

    def test_no_row_up_to_R(self, binary):
        bf = BruteForceMoments(binary, "a", horizon=3)
        assert bf.table(3) and bf.moment(3, count_F, 1) == 0.0


class TestSingleVertexSums:
    def path_weight(self, path):
        w = {"A": 1.25, "B": 0.8}
        val = w[path[-1]]
        for a, b in zip(path, path[1:]):
            if a == b:
                val *= 1.1
        return val

    def test_matches_enumeration(self, asymmetric):
        for psi in ("unit", "harmonic"):
            ker = build_kernel(asymmetric, psi)
            for n in (1, 2, 3):
                for x0 in asymmetric.types:
                    direct = 0.0
                    for p, mt in seed_enumerate_population(asymmetric, x0, n):
                        for v in mt.tree.vertices:
                            if len(v) != n:
                                continue
                            path = tuple(
                                mt.marks[v[:j]] for j in range(n + 1)
                            )
                            direct += float(p) * self.path_weight(path)
                    got = many_to_one(ker, x0, n, self.path_weight)
                    assert abs(got - direct) <= 1e-12, (psi, n, x0)

    def test_counts_generation_sizes(self, asymmetric):
        ker = build_kernel(asymmetric, "harmonic")
        M = mean_matrix(asymmetric)
        for n in (1, 4, 7):
            want = float(np.linalg.matrix_power(M, n)[0] @ np.ones(2))
            got = many_to_one(ker, "A", n, lambda path: 1.0)
            assert abs(got - want) <= 1e-10


class TestProductRecursion:
    def test_pair_functional(self, binary, asymmetric):
        stem = lambda s, t: (1.0 + s) * float(s <= 2)
        left = PathFunctional(lambda l, t: float(l <= 1))
        right = PathFunctional(lambda l, t: l * float(l <= 1))
        func = BranchFunctional(stem, (left, right))
        assert func.k == 2
        for model, x0 in [(binary, "a"), (asymmetric, "A"), (asymmetric, "B")]:
            q = MomentQuery(k=2, x0=x0, F=func, R=4)
            got = moment_recursive(model, q)
            q2 = MomentQuery(k=2, x0=x0, F=as_functional(func), R=4)
            want = moment_m2f(model, q2)
            assert abs(got - want) <= 1e-12, x0

    def test_pair_vs_bruteforce(self, asymmetric):
        stem = lambda s, t: float(s <= 1) * (1.2 if t == "A" else 0.9)
        leaf = lambda l, t: float(l <= 1) * (1.0 if t == "A" else 2.0)
        func = BranchFunctional(stem, (PathFunctional(leaf),) * 2)
        q = MomentQuery(k=2, x0="A", F=as_functional(func), R=3)
        want = moment_bruteforce(asymmetric, q)
        got = moment_recursive(
            asymmetric, MomentQuery(k=2, x0="A", F=func, R=3)
        )
        assert abs(got - want) <= 1e-12

    def test_nested_triple(self, asymmetric):
        inner = BranchFunctional(
            lambda s, t: float(s <= 1),
            (
                PathFunctional(lambda l, t: float(l <= 1)),
                PathFunctional(lambda l, t: float(l <= 1) * (1 + l)),
            ),
        )
        func = BranchFunctional(
            lambda s, t: float(s <= 1) * (0.5 if t == "B" else 1.0),
            (inner, PathFunctional(lambda l, t: float(l <= 2))),
        )
        assert func.k == 3
        # total support: stem 1 + child 1 + inner stem 1 + child 1 + leaf 1
        q = MomentQuery(k=3, x0="A", F=func, R=5)
        got = moment_recursive(asymmetric, q)
        want = moment_m2f(
            asymmetric, MomentQuery(k=3, x0="A", F=as_functional(func), R=5)
        )
        assert abs(got - want) <= 1e-12

    def test_structure_mismatch_is_zero(self):
        leaf = PathFunctional(lambda l, t: 1.0)
        F = as_functional(leaf)
        assert F(TreeShape((1, 1), (0,)), ("a", "a"), ("a",)) == 0.0
        pair = BranchFunctional(lambda s, t: 1.0, (leaf, leaf))
        G = as_functional(pair)
        assert G(TreeShape((2,), ()), ("a",), ()) == 0.0
        # three blocks at the lowest meet, but the functional has two
        assert (
            G(TreeShape((1, 1, 1), (0, 0)), ("a",) * 3, ("a",) * 2) == 0.0
        )

    def test_needs_product_form(self, binary):
        with pytest.raises(TypeError):
            moment_recursive(
                binary, MomentQuery(k=1, x0="a", F=count_F, R=2)
            )
        with pytest.raises(ValueError):
            BranchFunctional(lambda s, t: 1.0, (PathFunctional(lambda l, t: 1.0),))


def _leaf(r, w):
    return PathFunctional(lambda h, y: (w if y == "A" else 1.0) * (1.0 + 0.25 * h) if h <= r else 0.0)


def pinned_functionals():
    """k -> (product functional, R covering its support)."""
    pair = BranchFunctional(lambda s, y: (0.5 + 0.125 * s) * (s <= 1), (_leaf(1, 1.3), _leaf(1, 0.45)))
    inner = BranchFunctional(lambda s, y: 1.0 if s <= 0 else 0.0, (_leaf(1, 1.3), _leaf(0, 0.45)))
    triple = BranchFunctional(
        lambda s, y: 0.75 if s <= 0 and y == "B" else float(s <= 0), (_leaf(1, 0.7), inner)
    )
    return {1: (_leaf(2, 1.3), 2), 2: (pair, 3), 3: (triple, 3)}


# (model, k, x0) -> hex of (moment_recursive, moment_m2f, brute force),
# recorded while leaves and branch points were two classes and the shape
# routes called a closure of as_functional.  Brute force differs where the
# functional weighs its leaves unequally: the README's convention trap
PINNED_PRODUCT_BITS = {
    ("asymmetric", 1, "A"): ("0x1.e333333333333p+1", "0x1.e333333333333p+1", "0x1.e333333333333p+1"),
    ("asymmetric", 1, "B"): ("0x1.7cccccccccccdp+2", "0x1.7cccccccccccdp+2", "0x1.7cccccccccccdp+2"),
    ("asymmetric", 2, "A"): ("0x1.642d1eb851eb8p+0", "0x1.642d1eb851eb8p+0", "0x1.8a6d1eb851eb8p+0"),
    ("asymmetric", 2, "B"): ("0x1.3d3cf5c28f5c2p+2", "0x1.3d3cf5c28f5c2p+2", "0x1.6ef68f5c28f5cp+2"),
    ("asymmetric", 3, "A"): ("0x1.95126e978d4fcp-4", "0x1.95126e978d4fep-4", "0x1.95126e978d4fep-4"),
    ("asymmetric", 3, "B"): ("0x1.c1f8b43958104p+0", "0x1.c1f8b43958104p+0", "0x1.b07fae147ae14p+1"),
    ("nondyadic", 1, "A"): ("0x1.bb4395810624fp+1", "0x1.bb4395810624ep+1", "0x1.bb4395810624dp+1"),
    ("nondyadic", 1, "B"): ("0x1.7c962fc962fc9p+1", "0x1.7c962fc962fc9p+1", "0x1.7c962fc962fc9p+1"),
    ("nondyadic", 2, "A"): ("0x1.d7fd3a06d3a06p-1", "0x1.d7fd3a06d3a07p-1", "0x1.fe52fc962fc95p-1"),
    ("nondyadic", 2, "B"): ("0x1.bd1d0369d036ap-1", "0x1.bd1d0369d0369p-1", "0x1.d458bf258bf23p-1"),
    ("nondyadic", 3, "A"): ("0x1.a4e52bd3c3610p-3", "0x1.a4e52bd3c3610p-3", "0x1.60f559b3d07c9p-3"),
    ("nondyadic", 3, "B"): ("0x1.986e978d4fdf1p-3", "0x1.986e978d4fdf2p-3", "0x1.2621cac083126p-2"),
}


class TestProductNode:
    """Leaves and branch points are one node type, itself a shape functional."""

    def test_as_functional_is_the_identity(self):
        for func, _ in pinned_functionals().values():
            assert as_functional(func) is func

    def test_no_blocks_is_a_leaf(self):
        f = lambda h, y: 2.0 + h
        node = BranchFunctional(f)
        assert node.blocks == () and node.k == 1
        assert node == PathFunctional(f)
        assert node(TreeShape((3,), ()), ("a",), ()) == 5.0
        # a leaf sees one-leaf shapes only
        assert node(TreeShape((1, 1), (0,)), ("a", "a"), ("a",)) == 0.0
        with pytest.raises(ValueError, match="no blocks or at least two"):
            BranchFunctional(f, (node,))

    @pytest.mark.parametrize("psi", ["unit", "harmonic"])
    def test_leaf_node_matches_path_functional(self, asymmetric, psi):
        f = lambda h, y: (1.3 if y == "A" else 0.45) * (1.0 + 0.25 * h) if h <= 2 else 0.0
        plain = lambda shape, lt, bt: f(shape.leaf_heights[0], lt[0])
        for x0 in asymmetric.types:
            bf = BruteForceMoments(asymmetric, x0, 3)
            want = (moment_m2f(asymmetric, MomentQuery(1, x0, plain, 3, psi)).hex(), bf.moment(1, plain, 3).hex())
            recursion = set()
            for node in (BranchFunctional(f), PathFunctional(f)):
                q = MomentQuery(k=1, x0=x0, F=node, R=3, psi=psi)
                assert (moment_m2f(asymmetric, q).hex(), bf.moment(1, node, 3).hex()) == want, x0
                recursion.add(moment_recursive(asymmetric, q).hex())
            assert len(recursion) == 1

    def test_node_is_its_own_shape_functional(self, asymmetric):
        # the node called directly, and a plain closure around it as the
        # shape routes saw it before, give the same bits
        for k, (func, R) in pinned_functionals().items():
            closure = lambda shape, lt, bt, func=func: func(shape, lt, bt)
            for x0 in asymmetric.types:
                bf = BruteForceMoments(asymmetric, x0, R)
                for F in (as_functional(func), closure):
                    q = MomentQuery(k=k, x0=x0, F=F, R=R, psi="harmonic")
                    got = (moment_m2f(asymmetric, q).hex(), bf.moment(k, F, R).hex())
                    assert got == PINNED_PRODUCT_BITS["asymmetric", k, x0][1:], (k, x0)

    @pytest.mark.parametrize("name, psi", [("asymmetric", "harmonic"), ("nondyadic", "unit")])
    def test_pinned_bits(self, request, name, psi):
        model = request.getfixturevalue(name)
        for k, (func, R) in pinned_functionals().items():
            for x0 in model.types:
                q = MomentQuery(k=k, x0=x0, F=func, R=R, psi=psi)
                got = (
                    moment_recursive(model, q),
                    moment_m2f(model, q),
                    BruteForceMoments(model, x0, R).moment(k, func, R),
                )
                assert tuple(v.hex() for v in got) == PINNED_PRODUCT_BITS[name, k, x0], (k, x0)


class TestStartAndSizeRefusals:
    """The spine routes refuse what brute force refuses, as ValueErrors."""

    @pytest.mark.parametrize(
        "route",
        [
            lambda m, F: moment_m2f(m, MomentQuery(k=2, x0="z", F=F, R=2)),
            lambda m, F: moments.moment_m2f_radii(m, MomentQuery(k=2, x0="z", F=F, R=2), [1, 2]),
            lambda m, F: rescaled_moment(m, 2, F, 3, "z"),
            lambda m, F: ultrametric_moment(m, 2, F, 3, "z"),
            lambda m, F: moment_recursive(m, MomentQuery(k=2, x0="z", F=F, R=2)),
            lambda m, F: moment_bruteforce(m, MomentQuery(k=2, x0="z", F=F, R=2)),
        ],
        ids=["m2f", "m2f_radii", "rescaled", "ultrametric", "recursive", "bruteforce"],
    )
    def test_unknown_start_type(self, binary, route):
        pair = BranchFunctional(lambda s, y: 1.0, (PathFunctional(lambda h, y: 1.0),) * 2)
        with pytest.raises(ValueError, match="^unknown start type 'z'$"):
            route(binary, pair)

    def test_recursion_refuses_negative_radius(self, binary):
        # it returned 0.0, where brute force and the shape sum refuse
        q = MomentQuery(k=1, x0="a", F=PathFunctional(lambda h, y: 1.0), R=-1)
        with pytest.raises(ValueError, match="^R must be nonnegative$"):
            moment_recursive(binary, q)

    @pytest.mark.parametrize("k", [0, -1])
    def test_ultrametric_refuses_k_below_one(self, binary, k):
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            ultrametric_moment(binary, k, count_F, 3, "a")


class TestRescaledMoments:
    def test_pair_height_indicator_exact_value(self, binary):
        # n * value = S(n) / (2 n^3) with S(n) = sum of min(l1, l2)
        n = 6
        F = lambda shape, lt, bt: float(shape.height <= 1.0)
        got = n * rescaled_moment(binary, 2, F, n, "a", R=1.0)
        S = sum(min(l1, l2) for l1 in range(1, 7) for l2 in range(1, 7))
        assert S == 91
        assert abs(got - Fraction(91, 432)) <= 1e-12

    def test_single_leaf_matches_survival_sum(self, binary):
        # k = 1: n * value = n^{-1} sum_{l <= n} E[Z_l] = (n+1)/n
        n = 50
        F = lambda shape, lt, bt: 1.0
        got = n * rescaled_moment(binary, 1, F, n, "a", R=1.0)
        assert abs(got - (n + 1) / n) <= 1e-10

    def test_generation_slice_pair_exact(self, binary, symmetric):
        F = lambda shape, lt, bt: 1.0
        for model, x0 in [(binary, "a"), (symmetric, "A")]:
            got = 17 * ultrametric_moment(model, 2, F, 17, x0)
            assert abs(got - 0.5) <= 1e-12

    def test_generation_slice_pair_indicator(self, binary):
        def F(shape, lt, bt):
            return float(distance_matrix(shape)[1, 2] <= 1.0)

        got = 16 * ultrametric_moment(binary, 2, F, 16, "a")
        assert abs(got - 0.25) <= 1e-12

    def test_generation_slice_single_counts(self, asymmetric):
        M = mean_matrix(asymmetric)
        n = 30
        F = lambda shape, lt, bt: 1.0
        want = float(np.linalg.matrix_power(M, n)[0] @ np.ones(2))
        got = n * ultrametric_moment(asymmetric, 1, F, n, "A")
        assert abs(got - want) <= 1e-10

    def test_hopeless_sizes_refused_before_summing(self, binary):
        # k = 2 at n = 10^4 sums 3.3e11 shapes, about 40 h at 2.2e6 a second
        with pytest.raises(ValueError, match=r"10000\^3 = 1e\+12 height tuples"):
            rescaled_moment(binary, 2, count_F, 10**4, "a")
        with pytest.raises(ValueError, match=r"1000000001\^1 = 1e\+09 height tuples"):
            ultrametric_moment(binary, 2, count_F, 10**9 + 1, "a")
        with pytest.raises(ValueError, match=r"40\^7 = 1.64e\+11 height tuples"):
            moment_m2f(binary, MomentQuery(k=4, x0="a", F=count_F, R=40))

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_rejected(self, binary, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            rescaled_moment(binary, 2, count_F, n, "a")
        with pytest.raises(ValueError, match="n must be at least 1"):
            ultrametric_moment(binary, 2, count_F, n, "a")
