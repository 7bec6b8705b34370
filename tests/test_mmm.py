"""Measured metric spaces: monomial statistics and zero-mass points."""

import itertools

import numpy as np
import pytest

from branchlab import mmm
from branchlab.mmm import (
    FiniteMmmSpace,
    generation_slice,
    monomial,
    phi_values,
    tree_to_mmm,
)
from branchlab.process import MarkedTree, simulate
from branchlab.trees import PlanarTree, count_deficient_tuples, meet_distances

from conftest import (
    make_asymmetric,
    make_binary,
    make_subcritical,
    make_symmetric,
    seed_enumerate_population,
)


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

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_scales_must_be_finite_and_nonnegative(self, bad):
        mt = cherry_marked()
        with pytest.raises(ValueError, match="edge_scale"):
            tree_to_mmm(mt, edge_scale=bad)
        with pytest.raises(ValueError, match="mass_scale"):
            tree_to_mmm(mt, mass_scale=bad)
        with pytest.raises(ValueError, match="mass_scale"):
            generation_slice(mt, 1, mass_scale=bad)

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

    def test_contour_space_counts_time_points_by_height(self):
        # the k = 1 monomial of a walk's contour space, rooted at its start
        # at height 0, counts the time points at height <= r
        rng = np.random.default_rng(7)
        f = np.concatenate([[0.0], np.abs(np.cumsum(rng.choice([-1.0, 1.0], 40)))])
        d = meet_distances(f, np.minimum(f[:-1], f[1:]))
        space = FiniteMmmSpace([f"t{i}" for i in range(len(f))], 0, d, np.ones(len(f)))
        for r in (0.0, 1.0, 3.0):
            val, _ = monomial(space, 1, lambda D, m, r=r: float(D[0, 1] <= r))
            assert val == float(np.sum(f <= r))

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

    @pytest.mark.parametrize(
        "model_name, x0, sizes", [("binary", "a", {0, 2}), ("asymmetric", "A", {0, 1, 2})]
    )
    def test_every_horizon_to_thirty(self, request, model_name, x0, sizes):
        # four trees per horizon G = 1..30, sliced at G and at generation 1:
        # empty, one-point (binary generations are even) and wider ones
        model = request.getfixturevalue(model_name)
        rng = np.random.default_rng(30)
        seen = set()
        for G in list(range(1, 31)) * 4:
            mt = simulate(model, x0, G, rng=rng)
            for n in {1, G}:
                sl = generation_slice(mt, n, mass_scale=0.7)
                gen = [v for v in mt.tree.vertices if len(v) == n]
                assert hex_matrix(sl.dist) == hex_matrix(seed_generation_slice_dist(mt.tree, n))
                assert sl.points == ["root"] + [".".join(map(str, v)) for v in gen]
                assert sl.mark == [mt.marks[v] for v in [()] + gen]
                assert [v.hex() for v in sl.mass.tolist()] == [v.hex() for v in [0.0] + [0.7] * len(gen)]
                seen.add(min(len(gen), 2))
            if mt.tree.size <= 200:
                space = tree_to_mmm(mt, edge_scale=1.0 / G)
                assert hex_matrix(space.dist) == hex_matrix(seed_tree_to_mmm_dist(mt.tree, 1.0 / G))
                assert space.mark == [mt.marks[v] for v in mt.tree.vertices]
        assert seen == sizes


class TestBuiltSpaces:
    """tree_to_mmm and generation_slice build their spaces past the
    public checks; each must be one FiniteMmmSpace accepts as it stands."""

    @pytest.mark.parametrize(
        "make, x0",
        [(make_binary, "a"), (make_symmetric, "A"), (make_asymmetric, "B"), (make_subcritical, "a")],
    )
    def test_public_constructor_accepts_them(self, make, x0):
        model = make()
        rng = np.random.default_rng(9)
        trees = [simulate(model, x0, 6, rng=rng) for _ in range(30)]
        trees += [mt for _, mt in seed_enumerate_population(model, x0, 2)]
        for mt in trees:
            spaces = [tree_to_mmm(mt), tree_to_mmm(mt, edge_scale=0.3, mass_scale=1.5)]
            spaces += [generation_slice(mt, n, mass_scale=0.7) for n in (1, 2, 6)]
            for sp in spaces:
                public = FiniteMmmSpace(sp.points, sp.root, sp.dist, sp.mass, sp.mark)
                assert public.points == sp.points and public.root == sp.root
                assert hex_matrix(public.dist) == hex_matrix(sp.dist)
                assert hex_matrix(public.mass) == hex_matrix(sp.mass)
                assert public.mark == sp.mark


def seed_space_error(dist):
    """The seed's FiniteMmmSpace checks, kept as the reference: the message
    of the first failing check, or None."""
    n = len(dist)
    if not np.allclose(dist, dist.T, atol=1e-9):
        return "distance matrix must be symmetric"
    if np.any(np.abs(np.diag(dist)) > 1e-12):
        return "distance matrix must have zero diagonal"
    if np.any(dist < 0):
        return "distances must be nonnegative"
    if n <= 300:
        for p in range(n):
            if np.any(dist > dist[:, p][:, None] + dist[p, :][None, :] + 1e-9):
                return "triangle inequality fails"
    return None


def space_error(dist):
    try:
        FiniteMmmSpace([str(i) for i in range(len(dist))], 0, dist, np.ones(len(dist)))
    except ValueError as e:
        return str(e)
    return None


def line_metric(n):
    x = np.arange(n, dtype=float)
    return np.abs(x[:, None] - x[None, :])


def decision_corpus():
    """Distance matrices that pass or fail each check, named."""
    out = [("empty root", np.zeros((1, 1))), ("pair", line_metric(2))]
    base = line_metric(5)
    for name, value in [("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)]:
        for i, j in [(0, 1), (1, 3), (2, 2)]:
            d = base.copy()
            d[i, j] = value
            out.append((f"{name} at {i},{j}", d))
            d = d.copy()
            d[j, i] = value
            out.append((f"{name} at {i},{j} both", d))
    d = np.full((3, 3), np.inf)
    np.fill_diagonal(d, 0.0)
    out.append(("all infinite", d))
    d = base.copy()
    d[0, 3], d[3, 0] = np.inf, -np.inf
    out.append(("inf against -inf", d))
    for delta in (2e-9, 5e-10, 1e-7, 1e-4):
        d = base.copy()
        d[1, 4] += delta
        out.append((f"asymmetry {delta}", d))
        d = base * 1e6
        d[1, 4] += delta * 1e6
        out.append((f"relative asymmetry {delta}", d))
    for delta in (2e-12, 5e-13, -2e-12):
        d = base.copy()
        d[3, 3] = delta
        out.append((f"diagonal {delta}", d))
    d = base.copy()
    d[0, 2] = d[2, 0] = -0.5
    out.append(("negative", d))
    d = base.copy()
    d[0, 2] = d[2, 0] = -0.0
    out.append(("negative zero", d))
    # each off-diagonal pair too long for the path through its neighbours
    for i in range(5):
        for j in range(i + 2, 5):
            for excess in (2e-9, 5e-10):
                d = base.copy()
                d[i, j] = d[j, i] = base[i, j] + excess
                out.append((f"triangle {i},{j} +{excess}", d))
    # points at 2 from each other and 0.5 from one hub: only the hub, as
    # the intermediate point, shows the violation
    for hub in range(5):
        d = np.full((5, 5), 2.0)
        d[hub, :] = d[:, hub] = 0.5
        np.fill_diagonal(d, 0.0)
        out.append((f"hub at {hub}", d))
    for n in (299, 300, 301):
        d = line_metric(n)
        d[0, n - 1] = d[n - 1, 0] = n
        out.append((f"violation at n={n}", d))
        out.append((f"line n={n}", line_metric(n)))
    return out


class TestSpaceChecks:
    """The spelled-out symmetry test and the blocked triangle check decide
    and word every case as the seed's checks do."""

    @pytest.mark.parametrize("block", [None, 1, 50, 75])
    def test_decision_corpus(self, monkeypatch, block):
        if block is not None:
            # one, two or three of the five points at a time, the last
            # block partial for two and three
            monkeypatch.setattr(mmm, "_TRIANGLE_BLOCK", block)
        seen = set()
        for name, dist in decision_corpus():
            if block is not None and len(dist) > 5:
                continue
            want = seed_space_error(dist)
            assert space_error(dist) == want, name
            seen.add(want)
        assert seen == {
            None,
            "distance matrix must be symmetric",
            "distance matrix must have zero diagonal",
            "distances must be nonnegative",
            "triangle inequality fails",
        }

    def test_simulated_tree_metrics_accepted(self, asymmetric):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mt = simulate(asymmetric, "A", 6, rng=rng)
            space = tree_to_mmm(mt)
            assert seed_space_error(space.dist) is None


def seed_monomial(space, k, phi, cap=2_000_000, n_sub=64, rng=None):
    """The seed's monomial, one matrix built per tuple, kept as the reference."""
    support = space.support()
    ns = len(support)
    if ns == 0:
        return 0.0, 0.0
    dist, mass, mark, root = space.dist, space.mass, space.mark, space.root

    def build(ids):
        D = np.zeros((k + 1, k + 1))
        for a in range(k):
            D[0, a + 1] = D[a + 1, 0] = dist[root, ids[a]]
            for b in range(a + 1, k):
                D[a + 1, b + 1] = D[b + 1, a + 1] = dist[ids[a], ids[b]]
        return D

    if ns**k <= cap:
        total = 0.0
        for ids in itertools.product(support, repeat=k):
            w = 1.0
            for i in ids:
                w *= mass[i]
            total += w * phi(build(ids), tuple(mark[i] for i in ids))
        return float(total), 0.0
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    weights = mass[support]
    total_mass = float(weights.sum())
    probs = weights / total_mass
    value = 0.0
    var = 0.0
    for lead in support:
        draws = rng.choice(support, size=(n_sub, k - 1), p=probs)
        vals = np.empty(n_sub)
        for t in range(n_sub):
            ids = (lead,) + tuple(draws[t])
            vals[t] = phi(build(ids), tuple(mark[i] for i in ids))
        scale = float(mass[lead]) * total_mass ** (k - 1)
        value += scale * float(vals.mean())
        var += scale**2 * float(vals.var(ddof=1)) / n_sub
    return float(value), float(np.sqrt(var))


def every_entry(D, marks):
    # reads each entry of D with its own weight, and the marks
    w = np.arange(1.0, D.size + 1.0).reshape(D.shape) ** 0.5
    return float((D * w).sum()) + 0.25 * sum(m == "A" for m in marks)


def skewed_space(n, seed):
    """A tree metric nudged off symmetry (within 1e-9) and off a zero
    diagonal (within 1e-12), with uneven masses, a massless point, a root
    inside the support and marks."""
    rng = np.random.default_rng(seed)
    l = rng.uniform(0.5, 3.0, n)
    b = np.minimum(l[:-1], l[1:]) * rng.uniform(0.0, 0.9, n - 1)
    d = meet_distances(l, b)
    np.fill_diagonal(d, 0.0)
    d[np.triu_indices(n, 1)] += 1e-10 * rng.random(n * (n - 1) // 2)
    d[np.diag_indices(n)] = 1e-13 * rng.random(n)
    mass = rng.uniform(0.2, 1.7, n)
    mass[n // 2] = 0.0
    marks = [("A", "B", None)[i % 3] for i in range(n)]
    return FiniteMmmSpace([str(i) for i in range(n)], n // 3, d, mass, marks)


def marked_batched(D, marks):
    # reads the marks, the root row and one leaf pair, per row
    w = {"A": 1.5, "B": 0.5, None: 1.0}[marks[0]] + 0.25 * (marks[-1] == "A")
    return w * D[:, 0, -1] * np.where(D[:, 1, -1] <= 2.0, 1.0, 0.375)


def marked_phi(D, marks):
    # the scalar form, as cli.build_phi derives it; the seed's monomial
    # calls it, the library the batched form
    return float(marked_batched(D[None], marks)[0])


marked_phi.batched = marked_batched


class TestPhiValues:
    """The one evaluator of distance-matrix test functions."""

    @staticmethod
    def stack(n, k):
        # row t carries t in entry (0, 1), so a call shows which rows it saw
        D = np.random.default_rng(n + k).uniform(0.0, 3.0, size=(n, k + 1, k + 1))
        D[:, 0, 1] = np.arange(n)
        return D

    def test_batched_called_once_per_distinct_tuple(self):
        D = self.stack(9, 2)
        a, b, c = ("A", "B"), ("B", "B"), (None, "A")
        marks = [b, a, b, c, a, a, b, c, b]
        calls = []

        def batched(Ds, mk):
            calls.append((mk, Ds[:, 0, 1].tolist()))
            return marked_batched(Ds, mk)

        phi = lambda D, m: pytest.fail("the scalar form is not called")
        phi.batched = batched
        got = phi_values(phi, D, marks)
        assert calls == [
            (b, [0.0, 2.0, 6.0, 8.0]),
            (a, [1.0, 4.0, 5.0]),
            (c, [3.0, 7.0]),
        ]
        want = [marked_phi(Dt, mk) for Dt, mk in zip(D, marks)]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]

    def test_one_tuple_hands_the_whole_stack(self):
        D = self.stack(5, 3)
        seen = []

        def batched(Ds, mk):
            seen.append((Ds, mk))
            return np.arange(len(Ds), dtype=float)

        phi = lambda D, m: 0.0
        phi.batched = batched
        # equal tuples that are distinct objects count as one
        marks = [("A", "B", "A")] + [tuple(["A", "B", "A"]) for _ in range(4)]
        assert phi_values(phi, D, marks).tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(seen) == 1 and seen[0][0] is D and seen[0][1] == ("A", "B", "A")

    def test_plain_phi_called_once_per_row(self):
        D = self.stack(7, 2)
        marks = [("A", "B"), ("B", "B")] * 3 + [(None, None)]
        calls = []

        def phi(Dt, mk):
            calls.append((float(Dt[0, 1]), mk))
            return marked_phi(Dt, mk)

        got = phi_values(phi, D, marks)
        assert calls == list(zip(range(7), marks))
        assert got.tolist() == [marked_phi(Dt, mk) for Dt, mk in zip(D, marks)]

    def test_batched_values_must_be_one_per_row(self):
        phi = lambda D, m: 1.0
        phi.batched = lambda D, m: 1.0
        with pytest.raises(ValueError, match="one per row"):
            phi_values(phi, self.stack(4, 2), [("A", "A")] * 4)


class TestMonomialOracle:
    """Batched tuple matrices give the seed's per-tuple sums bit for bit."""

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_against_seed(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(mmm, "_MONOMIAL_CHUNK", chunk)
        phis = [
            every_entry,
            lambda D, m: float(D[0, -1] <= 1.7),
            lambda D, m: 1.0,
            lambda D, m: np.float64(D[0, 1]) * (2 if m[0] == "B" else 1),
            marked_phi,
        ]
        for n, k in [(1, 1), (2, 3), (5, 1), (5, 2), (5, 3), (9, 2), (13, 3)]:
            space = skewed_space(n, n + k)
            for phi in phis:
                got = monomial(space, k, phi)
                want = seed_monomial(space, k, phi)
                assert got[0].hex() == want[0].hex() and got[1] == want[1] == 0.0

    @staticmethod
    def assert_seed_sum(space, k):
        for phi in (every_entry, lambda D, m: float(D[1, 2] <= 2.0), marked_phi):
            got = monomial(space, k, phi)
            assert got[0].hex() == seed_monomial(space, k, phi)[0].hex()

    @pytest.mark.parametrize("ns", [63, 64, 65, 70, 91])
    def test_chunk_boundaries(self, ns):
        # 3969, 4096, 4225, 4900 and 8281 pairs: below, at and past one
        # chunk, the running total carried across
        self.assert_seed_sum(skewed_space(ns + 1, ns), 2)

    @pytest.mark.parametrize("ns", [16, 17])
    def test_chunk_boundaries_of_triples(self, ns):
        # 4096 and 4913 triples: at and past one chunk
        self.assert_seed_sum(skewed_space(ns + 1, ns), 3)

    def test_simulated_slices_and_trees(self, asymmetric):
        rng = np.random.default_rng(31)
        for _ in range(25):
            mt = simulate(asymmetric, "A", 6, rng=rng)
            for space in (generation_slice(mt, 6, mass_scale=0.3), tree_to_mmm(mt, 0.5)):
                for k in (1, 2):
                    got = monomial(space, k, every_entry)
                    assert got[0].hex() == seed_monomial(space, k, every_entry)[0].hex()

    @pytest.mark.parametrize("k", [2, 3])
    def test_subsampling_path(self, k):
        space = skewed_space(9, 4)
        rng = np.random.default_rng(12)
        ref = np.random.default_rng(12)
        for phi in (every_entry, marked_phi):
            got = monomial(space, k, phi, cap=20, n_sub=5, rng=rng)
            want = seed_monomial(space, k, phi, cap=20, n_sub=5, rng=ref)
            assert [v.hex() for v in got] == [v.hex() for v in want]
            assert rng.random() == ref.random()

    def test_bad_sizes_rejected(self):
        space = line_space()
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be at least 1"):
                monomial(space, k, lambda D, m: 1.0)
        for n_sub in (0, 1):
            with pytest.raises(ValueError, match="n_sub"):
                monomial(space, 2, lambda D, m: 1.0, cap=4, n_sub=n_sub, rng=0)
        # the exhaustive path never reads n_sub
        assert monomial(space, 2, lambda D, m: 1.0, n_sub=1) == (9.0, 0.0)
