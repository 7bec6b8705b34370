"""Tree encodings: bijections, distances, enumeration counts."""

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from branchlab import trees
from branchlab.trees import (
    PlanarTree,
    TreeShape,
    count_deficient_tuples,
    count_shapes,
    decode_heights,
    distance_matrix,
    encode_heights,
    fold,
    generate_trees,
    is_ancestor,
    meet,
    meet_distances,
    product_batches,
    shape_batches,
    tree_to_string,
)

from conftest import batch_shapes

# the full family with height <= 4 and <= 3 leaves, used as a cross-oracle
FAMILY = list(generate_trees(4, 3))


def bfs_distances(tree, source):
    """Graph distance from `source` to every vertex, by plain BFS."""
    adj = {v: [] for v in tree.vertices}
    for v in tree.vertices:
        if v:
            adj[v].append(v[:-1])
            adj[v[:-1]].append(v)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@st.composite
def discrete_shapes(draw, max_k=5, max_h=12):
    k = draw(st.integers(1, max_k))
    if k == 1:
        return TreeShape((draw(st.integers(0, max_h)),), ())
    l = tuple(
        draw(st.lists(st.integers(1, max_h), min_size=k, max_size=k))
    )
    b = tuple(
        draw(st.integers(0, min(l[i], l[i + 1]) - 1)) for i in range(k - 1)
    )
    return TreeShape(l, b)


class TestBasics:
    def test_meet(self):
        assert meet((1, 2, 1), (1, 2, 3)) == (1, 2)
        assert meet((1,), (2,)) == ()
        assert meet((1, 1), (1, 1, 2)) == (1, 1)

    def test_is_ancestor(self):
        assert is_ancestor((), (1, 2))
        assert is_ancestor((1,), (1,))
        assert not is_ancestor((1, 2), (1,))
        assert not is_ancestor((1,), (2, 1))

    def test_planar_order_is_tuple_order(self):
        # depth-first left-to-right traversal must equal sorted order
        for tree in FAMILY:
            walk = []
            stack = [()]
            while stack:
                v = stack.pop()
                walk.append(v)
                for i in range(tree.degrees[v], 0, -1):
                    stack.append(v + (i,))
            assert walk == tree.vertices

    def test_leaves_listed_on_first_read(self):
        for tree in FAMILY:
            fresh = PlanarTree(dict(tree.degrees))
            assert not hasattr(fresh, "__dict__") and fresh._leaves is None
            # equality and hashing do not depend on whether leaves was read
            assert fresh == tree and hash(fresh) == hash(tree)
            want = [v for v in tree.vertices if tree.degrees[v] == 0]
            assert fresh.leaves == want and fresh.leaves is fresh.leaves
            assert fresh == tree

    def test_invalid_trees_rejected(self):
        with pytest.raises(ValueError):
            PlanarTree({})
        with pytest.raises(ValueError):
            PlanarTree({(1,): 0})
        with pytest.raises(ValueError):
            PlanarTree({(): 1})  # missing child
        with pytest.raises(ValueError):
            PlanarTree({(): 1, (2,): 0})  # child index out of range
        with pytest.raises(ValueError):
            PlanarTree({(): 1, (1,): -1})

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            TreeShape((2, 2), (2,))  # meet not below both leaves
        with pytest.raises(ValueError):
            TreeShape((1, 2), (1,))
        with pytest.raises(ValueError):
            TreeShape((2, 2), ())
        with pytest.raises(ValueError):
            TreeShape((-1,), ())
        with pytest.raises(ValueError):
            TreeShape((), ())

    def test_float_shapes(self):
        t = TreeShape((1.0, 1.5), (0.5,))
        assert t.leaf_heights == (1.0, 1.5)
        assert not t.is_discrete
        assert TreeShape((2, 3), (1,)).is_discrete


class TestFold:
    # builtin sum compensates from Python 3.12 on; fold never does
    def test_tenths_fold_below_one(self):
        assert fold([0.1] * 10).hex() == "0x1.fffffffffffffp-1"
        assert fold(np.full(10, 0.1)).hex() == "0x1.fffffffffffffp-1"

    def test_cancellation_loses_the_small_term(self):
        assert fold([1e16, 1.0, -1e16]) == 0.0
        assert fold(np.array([1e16, 1.0, -1e16])) == 0.0

    def test_negative_zero_folds_to_positive_zero(self):
        assert not np.signbit(fold([-0.0]))
        assert not np.signbit(fold(np.array([-0.0, -0.0])))
        assert np.signbit(fold(np.array([[-0.0, -1.0]]))).tolist() == [False, True]

    def test_start_is_the_first_term(self):
        assert fold([1.0, -1e16], 1e16).hex() == fold([1e16, 1.0, -1e16]).hex()
        assert fold(np.array([1.0, -1e16]), 1e16) == 0.0
        assert fold([], 2.5) == fold(np.array([]), 2.5) == 2.5

    def test_columns_fold_separately_in_row_order(self):
        a = np.array([[1e16, 0.1], [1.0, 0.1], [-1e16, 0.1]])
        got = fold(a)
        assert got.shape == (2,)
        assert got[0] == 0.0 and got[1].hex() == (0.1 + 0.1 + 0.1).hex()
        assert fold(a, np.array([1.0, 0.0]))[0] == 0.0
        assert fold(np.zeros((0, 3)), 1.5).tolist() == [1.5] * 3

    def test_generator_is_folded_left(self):
        assert fold(x / 10 for x in [1] * 10).hex() == "0x1.fffffffffffffp-1"
        vecs = (np.array([v, 1.0]) for v in [1e16, 1.0, -1e16])
        assert fold(vecs).tolist() == [0.0, 3.0]

    @given(st.lists(st.floats(-1e300, 1e300), max_size=30))
    def test_fold_is_the_plain_loop(self, values):
        total = 0.0
        for v in values:
            total += v
        assert fold(values).hex() == fold(np.array(values, dtype=float)).hex() == total.hex()


class TestHeightEncoding:
    def test_counts_match_closed_form(self):
        assert count_shapes(2, 2) == 5
        assert count_shapes(1, 2) == 3
        assert count_shapes(3, 2) == 13
        for k in (1, 2, 3):
            for R in (0, 1, 2, 3, 4):
                assert sum(1 for _ in batch_shapes(k, R)) == count_shapes(k, R)

    @pytest.mark.parametrize("rows", [1, 7, 2048])
    def test_batches_follow_the_nested_product_order(self, monkeypatch, rows):
        # leaf heights in product order, then each leaf row's meets in
        # product order, whatever the batch size
        monkeypatch.setattr(trees, "SHAPE_BATCH_ROWS", rows)
        for k in (1, 2, 3, 4):
            for R in (0, 1, 2, 3, 5):
                if k == 1:
                    want = [((l0,), ()) for l0 in range(R + 1)]
                else:
                    want = [
                        (l, b)
                        for l in itertools.product(range(1, R + 1), repeat=k)
                        for b in itertools.product(
                            *[range(min(l[i], l[i + 1])) for i in range(k - 1)]
                        )
                    ]
                batches = list(shape_batches(k, R))
                assert all(len(L) <= max(rows, R ** (k - 1)) for L, _ in batches)
                got = [
                    (tuple(l), tuple(b))
                    for L, B in batches
                    for l, b in zip(L.tolist(), B.tolist())
                ]
                assert got == want, (k, R)
                for l, b in got:  # every row is a checked shape
                    TreeShape(l, b)

    def test_product_batches(self):
        for width in (0, 1, 2, 3):
            for n in (0, 1, 3):
                got = [tuple(r) for A in product_batches(2, 2 + n, width, 4) for r in A.tolist()]
                assert got == list(itertools.product(range(2, 2 + n), repeat=width))

    def test_enumeration_has_no_duplicates(self):
        seen = set(batch_shapes(3, 3))
        assert len(seen) == count_shapes(3, 3)

    def test_roundtrip_exhaustive(self):
        # shape -> tree -> shape over the whole k <= 3, height <= 4 grid
        for k in (1, 2, 3):
            for shape in batch_shapes(k, 4):
                tree = decode_heights(shape)
                assert len(tree.leaves) == k
                assert encode_heights(tree) == shape

    def test_decode_matches_independent_generator(self):
        # every tree with <= 3 leaves and height <= 4, built two ways
        from_shapes = set()
        for k in (1, 2, 3):
            for shape in batch_shapes(k, 4):
                from_shapes.add(decode_heights(shape))
        assert from_shapes == set(FAMILY)
        assert len(FAMILY) == 281

    def test_encode_then_decode_is_identity_on_trees(self):
        for tree in FAMILY:
            assert decode_heights(encode_heights(tree)) == tree

    def test_decode_rejects_float_shapes(self):
        with pytest.raises(ValueError):
            decode_heights(TreeShape((1.5, 2.0), (0.5,)))

    @given(discrete_shapes())
    def test_roundtrip_random(self, shape):
        assert encode_heights(decode_heights(shape)) == shape


class TestDistances:
    def test_matches_bfs_on_family(self):
        for tree in FAMILY:
            shape = encode_heights(tree)
            D = distance_matrix(shape)
            leaves = tree.leaves
            points = [()] + leaves
            for i, src in enumerate(points):
                dist = bfs_distances(tree, src)
                for j, dst in enumerate(points):
                    assert D[i, j] == dist[dst]

    @given(discrete_shapes())
    def test_metric_axioms(self, shape):
        D = distance_matrix(shape)
        n = D.shape[0]
        assert np.allclose(D, D.T)
        assert np.all(np.diag(D) == 0)
        for i, j, m in itertools.product(range(n), repeat=3):
            assert D[i, j] <= D[i, m] + D[m, j] + 1e-9


def seed_distance_matrix(shape):
    """The seed's per-pair loop at meet factor two, kept as the reference."""
    l = shape.leaf_heights
    b = shape.branch_heights
    k = len(l)
    D = np.zeros((k + 1, k + 1))
    for j in range(k):
        D[0, j + 1] = D[j + 1, 0] = l[j]
    for i in range(k):
        low = l[i]
        for j in range(i + 1, k):
            low = min(low, b[j - 1])
            D[i + 1, j + 1] = D[j + 1, i + 1] = l[i] + l[j] - 2 * low
    return D


def hex_matrix(D):
    return [float(v).hex() for v in np.asarray(D, dtype=float).reshape(-1)]


def same_bits(a, b):
    """Equal shapes and equal float bits, as hex_matrix compares them, at
    numpy speed for large matrices."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def seed_meet_distances(l, b):
    """The row loop meet_distances ran before its padded triangle, one
    running minimum per row, kept as the reference."""
    l = np.asarray(l, dtype=float)
    b = np.asarray(b, dtype=float)
    n = l.shape[-1]
    D = np.zeros(l.shape + (n,))
    for i in range(n - 1):
        low = np.minimum.accumulate(b[..., i:], axis=-1)
        D[..., i, i + 1:] = l[..., i, None] + l[..., i + 1:] - 2.0 * low
        D[..., i + 1:, i] = D[..., i, i + 1:]
    return D


def tied_heights(rng, batch, n):
    """Leaf and meet heights on a coarse grid, so that meets tie with
    each other and with leaves, with a few arbitrary floats among them."""
    l = rng.integers(0, 6, batch + (n,)) * 0.375
    b = rng.integers(0, 6, batch + (max(n - 1, 0),)) * 0.375
    l.reshape(-1)[::7] = rng.uniform(0.0, 3.0, l.reshape(-1)[::7].shape)
    return l, b


class TestMeetDistances:
    def test_matches_seed_row_loop(self):
        rng = np.random.default_rng(11)
        for n in range(301):
            l, b = tied_heights(rng, (), n)
            assert same_bits(meet_distances(l, b), seed_meet_distances(l, b)), n
        # a batch of 64 takes the row-step minimum up to n = 7
        for batch in [(3,), (2, 3), (64,)]:
            for n in [0, 1, 2, 3, 4, 7, 40, 300]:
                l, b = tied_heights(rng, batch, n)
                got = meet_distances(l, b)
                assert got.shape == batch + (n, n) and got.flags.c_contiguous
                assert same_bits(got, seed_meet_distances(l, b)), (batch, n)

    @pytest.mark.parametrize("block", [1, 40, 100])
    def test_row_blocks(self, monkeypatch, block):
        # max(1, block // l.size) rows per block: one row, a few, or a
        # ragged last block
        monkeypatch.setattr(trees, "_MEET_BLOCK", block)
        rng = np.random.default_rng(block)
        for batch, n in [((), 2), ((), 13), ((2,), 9), ((2, 3), 6)]:
            l, b = tied_heights(rng, batch, n)
            assert same_bits(meet_distances(l, b), seed_meet_distances(l, b)), (batch, n)

    def test_distance_matrix_matches_seed_loop(self):
        rng = np.random.default_rng(2)
        shapes = [encode_heights(tree) for tree in FAMILY]
        for k in (1, 2, 3, 5):
            for _ in range(20):
                l = rng.uniform(0.0, 1.0, k)
                b = rng.uniform(0.0, 1.0, k - 1) * np.minimum(l[:-1], l[1:])
                shapes.append(TreeShape(tuple(l), tuple(b)))
        for shape in shapes:
            want = seed_distance_matrix(shape)
            assert hex_matrix(distance_matrix(shape)) == hex_matrix(want)

    def test_pairwise_meets_of_planar_subsets(self):
        # the meet of two sorted words is the lowest consecutive meet
        # between them, ancestors and repeats included
        rng = np.random.default_rng(3)
        for tree in FAMILY[::7]:
            for _ in range(3):
                size = int(rng.integers(1, tree.size + 1))
                picks = np.sort(rng.choice(tree.size, size=size))
                words = [tree.vertices[i] for i in picks]
                D = meet_distances(
                    [len(v) for v in words],
                    [len(meet(u, v)) for u, v in zip(words, words[1:])],
                )
                for (i, u), (j, v) in itertools.product(enumerate(words), repeat=2):
                    assert D[i, j] == len(u) + len(v) - 2 * len(meet(u, v))

    def test_leading_axes_are_batch_axes(self):
        rng = np.random.default_rng(4)
        L = rng.uniform(0.0, 1.0, (2, 3, 4))
        B = rng.uniform(0.0, 1.0, (2, 3, 3))
        D = meet_distances(L, B)
        assert D.shape == (2, 3, 4, 4)
        for a, c in itertools.product(range(2), range(3)):
            assert hex_matrix(D[a, c]) == hex_matrix(meet_distances(L[a, c], B[a, c]))

    def test_contour_distance_of_a_path(self):
        # with b = minimum(f[:-1], f[1:]), D[i, j] = f_i + f_j - 2 min f[i..j],
        # the seed's row-by-row contour distances, bit for bit
        rng = np.random.default_rng(6)
        paths = [np.cumsum(rng.choice([-1.0, 1.0], n)) * 0.37 for n in (2, 9, 40)]
        t = np.linspace(0.0, 1.0, 201)
        paths += [np.sin(np.pi * t) * (1.3 + np.cos(17 * t)), np.zeros(3), np.array([0.5])]
        for f in paths:
            want = np.zeros((len(f), len(f)))
            for i in range(len(f)):
                running = np.minimum.accumulate(f[i:])
                want[i, i:] = f[i] + f[i:] - 2.0 * running
                want[i:, i] = want[i, i:]
            got = meet_distances(f, np.minimum(f[:-1], f[1:]))
            assert hex_matrix(got) == hex_matrix(want)
        tent = meet_distances([0.0, 1.0, 0.0, 1.0, 0.0], [0.0] * 4)
        assert tent[0, 4] == 0.0 and tent[1, 3] == 2.0 and tent[0, 3] == 1.0

    def test_wrong_meet_count_rejected(self):
        with pytest.raises(ValueError):
            meet_distances([1.0, 2.0, 3.0], [0.5])


class TestDeficientTuples:
    def test_small_examples(self):
        cherry = PlanarTree({(): 2, (1,): 0, (2,): 0})
        path = PlanarTree({(): 1, (1,): 1, (1, 1): 0})
        assert count_deficient_tuples(cherry, 2) == 7
        assert count_deficient_tuples(path, 2) == 9
        # cherry: only the two orderings of the two leaves are non-deficient
        assert cherry.size ** 2 - 7 == 2
        # the 3-vertex path is a chain, so every pair is deficient
        assert path.size ** 2 - 9 == 0

    def test_bound_on_family(self):
        # deficient count <= k! * size^(k-1) * (height+1)
        for idx, tree in enumerate(FAMILY):
            n, h = tree.size, tree.height
            assert count_deficient_tuples(tree, 2) <= 2 * n * (h + 1)
            if idx % 7 == 0:
                assert count_deficient_tuples(tree, 3) <= 6 * n**2 * (h + 1)

    def test_k1_has_none(self):
        for tree in FAMILY[:20]:
            assert count_deficient_tuples(tree, 1) == 0


class TestStringCodec:
    def test_known_strings(self):
        assert tree_to_string(PlanarTree({(): 0})) == "()"
        assert tree_to_string(PlanarTree({(): 2, (1,): 0, (2,): 0})) == "(()())"
        assert tree_to_string(PlanarTree({(): 1, (1,): 1, (1, 1): 0})) == "((()))"
        left_path = PlanarTree({(): 2, (1,): 1, (1, 1): 0, (2,): 0})
        assert tree_to_string(left_path) == "((())())"

    def test_distinct_on_family(self):
        strings = [tree_to_string(tree) for tree in FAMILY]
        assert len(set(strings)) == len(FAMILY)
        for tree, s in zip(FAMILY, strings):
            assert s.count("(") == s.count(")") == tree.size
