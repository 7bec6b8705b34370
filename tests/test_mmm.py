"""Measured metric spaces: monomial statistics and zero-mass points."""

import numpy as np
import pytest

from branchlab.mmm import (
    FiniteMmmSpace,
    generation_slice,
    monomial,
    tree_to_mmm,
)
from branchlab.process import MarkedTree, simulate
from branchlab.trees import PlanarTree, count_deficient_tuples


def cherry_marked():
    tree = PlanarTree({(): 2, (1,): 0, (2,): 0})
    return MarkedTree(tree, {(): "A", (1,): "B", (2,): "A"})


def line_space():
    # three points on a line, unit masses
    dist = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
    return FiniteMmmSpace(["p0", "p1", "p2"], 0, dist, [1, 1, 1])


class TestValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            FiniteMmmSpace(["a", "b"], 0, [[0, 1], [2, 0]], [1, 1])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            FiniteMmmSpace(["a", "b"], 0, [[0.1, 1], [1, 0]], [1, 1])

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            FiniteMmmSpace(["a", "b"], 0, [[0, -1], [-1, 0]], [1, 1])

    def test_triangle_violation_rejected(self):
        dist = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        with pytest.raises(ValueError, match="triangle"):
            FiniteMmmSpace(["a", "b", "c"], 0, dist, [1, 1, 1])

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            FiniteMmmSpace(["a", "b"], 0, [[0, 1], [1, 0]], [1, -1])

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            FiniteMmmSpace(["a"], 2, [[0]], [1])

    def test_json_roundtrip(self):
        space = tree_to_mmm(cherry_marked())
        back = FiniteMmmSpace.from_json(space.to_json())
        assert back.points == space.points
        assert back.root == space.root
        assert np.array_equal(back.dist, space.dist)
        assert np.array_equal(back.mass, space.mass)
        assert back.mark == space.mark


class TestConstructors:
    def test_cherry_space(self):
        space = tree_to_mmm(cherry_marked())
        assert space.points == ["", "1", "2"]
        want = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]], dtype=float)
        assert np.array_equal(space.dist, want)
        assert np.array_equal(space.mass, [1, 1, 1])
        assert space.mark == ["A", "B", "A"]

    def test_edge_and_mass_scales(self):
        space = tree_to_mmm(cherry_marked(), edge_scale=0.5, mass_scale=2.0)
        assert space.dist[1, 2] == 1.0
        assert np.array_equal(space.mass, [2, 2, 2])

    def test_generation_slice(self):
        tree = PlanarTree({(): 2, (1,): 2, (2,): 0, (1, 1): 0, (1, 2): 0})
        mt = MarkedTree(tree, {v: "a" for v in tree.vertices})
        space = generation_slice(mt, 2)
        assert space.points == ["root", "1.1", "1.2"]
        assert np.array_equal(space.mass, [0, 1, 1])
        # meet at height 1, so the pair distance is 2 (2 - 1) / 2
        assert space.dist[1, 2] == 1.0
        assert space.dist[0, 1] == 1.0 and space.dist[0, 2] == 1.0

    def test_generation_zero_rejected(self):
        with pytest.raises(ValueError):
            generation_slice(cherry_marked(), 0)

    def test_empty_generation_keeps_root(self):
        mt = MarkedTree(PlanarTree({(): 0}), {(): "a"})
        space = generation_slice(mt, 3)
        assert space.points == ["root"]
        assert space.support().size == 0
        assert monomial(space, 2, lambda D, m: 1.0) == (0.0, 0.0)


class TestMonomials:
    def test_exhaustive_pair_count(self):
        tree = PlanarTree({(): 2, (1,): 2, (2,): 0, (1, 1): 0, (1, 2): 0})
        mt = MarkedTree(tree, {v: "a" for v in tree.vertices})
        space = generation_slice(mt, 2)
        val, err = monomial(space, 2, lambda D, m: 1.0)
        assert val == 4.0 and err == 0.0

    def test_single_point_statistic_is_mass_sum(self):
        space = tree_to_mmm(cherry_marked())
        val, _ = monomial(space, 1, lambda D, m: D[0, 1])
        # depths 0, 1, 1
        assert val == 2.0

    def test_mark_dependence(self):
        space = tree_to_mmm(cherry_marked())
        val, _ = monomial(space, 1, lambda D, m: float(m[0] == "A"))
        assert val == 2.0

    def test_nonancestor_pairs_match_tree_count(self, binary):
        # a pair is comparable iff the distance equals the depth difference
        def nonanc(D, marks):
            return float(D[1, 2] > abs(D[0, 1] - D[0, 2]) + 1e-12)

        rng = np.random.default_rng(5)
        for _ in range(6):
            mt = simulate(binary, "a", 4, rng=rng)
            space = tree_to_mmm(mt)
            val, _ = monomial(space, 2, nonanc)
            want = mt.tree.size**2 - count_deficient_tuples(mt.tree, 2)
            assert val == want

    def test_subsampled_mode_tracks_exhaustive(self, binary):
        mt = simulate(binary, "a", 7, rng=np.random.default_rng(4))
        space = tree_to_mmm(mt)
        assert space.size > 20
        phi = lambda D, m: float(D[1, 2] <= 4.0)
        exact, err0 = monomial(space, 2, phi)
        assert err0 == 0.0
        est, err = monomial(space, 2, phi, cap=10, n_sub=200, rng=9)
        assert err > 0.0
        assert abs(est - exact) <= 4 * err


class TestRestrictions:
    """Spaces that differ only by zero-mass points or point order."""

    def test_zero_mass_points_never_contribute(self):
        space = line_space()
        # the ghost duplicates the root's position but carries no mass
        dist = np.pad(space.dist, ((0, 1), (0, 1)))
        dist[3, :3] = dist[:3, 3] = space.dist[0]
        padded = FiniteMmmSpace(
            space.points + ["ghost"],
            space.root,
            dist,
            np.concatenate([space.mass, [0.0]]),
        )
        phi = lambda D, m: 1.0 + D[1, 2]
        assert monomial(padded, 2, phi) == monomial(space, 2, phi)

    def test_relabeling_invariance(self):
        space = tree_to_mmm(cherry_marked())
        perm = [0, 2, 1]
        moved = FiniteMmmSpace(
            [space.points[i] for i in perm],
            0,
            space.dist[np.ix_(perm, perm)],
            space.mass[perm],
            [space.mark[i] for i in perm],
        )
        phi = lambda D, m: D[1, 2] + float(m[0] == "B")
        a = monomial(space, 2, phi)[0]
        b = monomial(moved, 2, phi)[0]
        assert abs(a - b) <= 1e-12


def seed_tree_to_mmm_dist(tree, edge_scale):
    """The seed's per-pair loop over tuple words, kept as the reference."""
    vs = tree.vertices
    n = len(vs)
    depth = np.array([len(v) for v in vs], dtype=float)
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            m = 0
            for a, b in zip(vs[i], vs[j]):
                if a != b:
                    break
                m += 1
            dist[i, j] = dist[j, i] = edge_scale * (depth[i] + depth[j] - 2.0 * m)
    return dist


def seed_generation_slice_dist(tree, n):
    """The seed's per-pair loop for a generation slice, kept as the reference."""
    gen = [v for v in tree.vertices if len(v) == n]
    m = len(gen)
    dist = np.zeros((m + 1, m + 1))
    for i in range(m):
        dist[0, i + 1] = dist[i + 1, 0] = 1.0
        for j in range(i + 1, m):
            mt = 0
            for a, b in zip(gen[i], gen[j]):
                if a != b:
                    break
                mt += 1
            dist[i + 1, j + 1] = dist[j + 1, i + 1] = 2.0 * (n - mt) / n
    return dist


def hex_matrix(D):
    return [float(v).hex() for v in D.reshape(-1)]


class TestSeedOracle:
    """Spaces built on trees.meet_distances against the seed's loops, bit
    for bit, on simulated one- and two-type trees."""

    @pytest.mark.parametrize("model_name, x0", [("binary", "a"), ("asymmetric", "A")])
    def test_whole_trees_and_slices(self, request, model_name, x0):
        model = request.getfixturevalue(model_name)
        rng = np.random.default_rng(8)
        empty = 0
        for _ in range(40):
            mt = simulate(model, x0, 5, rng=rng)
            space = tree_to_mmm(mt, edge_scale=0.3, mass_scale=1.5)
            want = seed_tree_to_mmm_dist(mt.tree, 0.3)
            assert hex_matrix(space.dist) == hex_matrix(want)
            assert space.points == [".".join(map(str, v)) for v in mt.tree.vertices]
            assert space.mark == [mt.marks[v] for v in mt.tree.vertices]
            for n in (1, 2, 3, 5):
                sl = generation_slice(mt, n, mass_scale=0.7)
                assert hex_matrix(sl.dist) == hex_matrix(seed_generation_slice_dist(mt.tree, n))
                gen = [v for v in mt.tree.vertices if len(v) == n]
                assert sl.points == ["root"] + [".".join(map(str, v)) for v in gen]
                assert list(sl.mass) == [0.0] + [0.7] * len(gen)
                empty += not gen
        assert empty > 0
