"""Word-indexed rooted planar trees and their leaf-height encodings.

A vertex is a tuple of positive integers: the path of child indices from the
root, which is the empty tuple.  A tree is stored as the map from each vertex
to its out-degree; the vertex set is prefix-closed and child indices are
contiguous.  Sorting vertices as Python tuples gives the planar
(depth-first) order, and the meet of two vertices is their longest common
prefix.

A tree with k leaves is encoded by the pair (l, b) where l lists the leaf
heights in planar order and b[i] is the height of the meet of leaves i and
i+1.  Such a pair comes from a tree exactly when b[i] < min(l[i], l[i+1]),
and the correspondence is a bijection.
"""

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PlanarTree",
    "TreeShape",
    "shape_values",
    "meet",
    "is_ancestor",
    "decode_heights",
    "encode_heights",
    "meet_distances",
    "distance_matrix",
    "product_batches",
    "shape_batches",
    "count_shapes",
    "count_deficient_tuples",
    "generate_trees",
    "tree_to_string",
    "fold",
]


def meet(v, w):
    """Longest common prefix of two vertices."""
    n = 0
    for a, b in zip(v, w):
        if a != b:
            break
        n += 1
    return v[:n]


def is_ancestor(v, w):
    """True when v is a (weak) ancestor of w, i.e. a prefix of it."""
    return w[: len(v)] == v


class PlanarTree:
    """A rooted planar tree given by a prefix-closed map vertex -> out-degree."""

    __slots__ = ("degrees", "vertices", "_leaves")

    def __init__(self, degrees):
        if not degrees:
            raise ValueError("a planar tree contains at least its root")
        degrees = {tuple(v): int(d) for v, d in degrees.items()}
        if () not in degrees:
            raise ValueError("missing root vertex")
        for v, d in degrees.items():
            if d < 0:
                raise ValueError(f"negative out-degree at {v!r}")
            if v:
                parent = v[:-1]
                if parent not in degrees:
                    raise ValueError(f"vertex {v!r} has no parent")
                if not 1 <= v[-1] <= degrees[parent]:
                    raise ValueError(f"vertex {v!r} is outside its parent's degree")
        # each non-root vertex fills a distinct child slot of its parent,
        # so no child is missing exactly when the slots are all filled
        if len(degrees) - 1 != sum(degrees.values()):
            raise ValueError("some vertex has fewer children than its out-degree")
        self._own(degrees)

    @classmethod
    def _built(cls, degrees):
        """The tree of a degree dict built complete by construction: tuple
        keys, int values, prefix-closed, every child slot filled.  Takes
        ownership of the dict and checks none of that."""
        tree = cls.__new__(cls)
        tree._own(degrees)
        return tree

    def _own(self, degrees):
        self.degrees = degrees
        self.vertices = sorted(degrees)
        self._leaves = None

    @property
    def leaves(self):
        """The leaves in planar order, listed on first read."""
        if self._leaves is None:
            self._leaves = [v for v in self.vertices if self.degrees[v] == 0]
        return self._leaves

    @property
    def size(self):
        return len(self.degrees)

    @property
    def height(self):
        return max(len(v) for v in self.degrees)

    def __eq__(self, other):
        return isinstance(other, PlanarTree) and self.degrees == other.degrees

    def __hash__(self):
        return hash(frozenset(self.degrees.items()))

    def __repr__(self):
        return f"PlanarTree({tree_to_string(self)!r})"


@dataclass(frozen=True)
class TreeShape:
    """Leaf heights and consecutive-meet heights of a k-leaf tree.

    Entries may be ints (an actual tree) or floats (a point of the
    continuum shape space).  The constraint b[i] < min(l[i], l[i+1]) is
    enforced either way; for k = 1 the single leaf may sit at height 0.
    """

    leaf_heights: tuple
    branch_heights: tuple

    def __post_init__(self):
        l = tuple(self.leaf_heights)
        b = tuple(self.branch_heights)
        object.__setattr__(self, "leaf_heights", l)
        object.__setattr__(self, "branch_heights", b)
        if len(l) < 1:
            raise ValueError("need at least one leaf")
        if len(b) != len(l) - 1:
            raise ValueError("need exactly k-1 meet heights for k leaves")
        if any(x < 0 for x in l) or any(x < 0 for x in b):
            raise ValueError("heights must be nonnegative")
        for i, bi in enumerate(b):
            if not bi < min(l[i], l[i + 1]):
                raise ValueError(
                    f"meet height {bi} at position {i} must be below both "
                    f"neighbouring leaf heights"
                )

    @property
    def k(self):
        return len(self.leaf_heights)

    @property
    def height(self):
        return max(self.leaf_heights)

    @property
    def is_discrete(self):
        return all(
            isinstance(x, (int, np.integer))
            for x in self.leaf_heights + self.branch_heights
        )


def fold(values, start=0.0):
    """The left fold start + v0 + v1 + ... over the first axis of values.

    This is the package's one summation rule: every sum whose bits reach an
    output adds its terms one at a time, in a fixed order, through here.  An
    ndarray is folded by a sequential cumsum seeded with start (np.sum adds
    pairwise), giving one float per column; any other iterable by a plain
    left reduce (builtin sum compensates from Python 3.12 on).  A fold from
    0.0 never ends in -0.0, so terms of -0.0 change no bit.
    """
    if isinstance(values, np.ndarray):
        acc = np.concatenate([np.full((1,) + values.shape[1:], start), values])
        total = np.cumsum(acc, axis=0, out=acc)[-1]
        return float(total) if total.ndim == 0 else total
    return functools.reduce(operator.add, values, start)


def _per_row(f, L, *args):
    """f(L, *args) as a float array of len(L) values, one per row of L; any
    other shape is a ValueError, where numpy would broadcast a scalar or a
    length-1 array."""
    vals = np.asarray(f(L, *args), dtype=float)
    if vals.shape != (len(L),):
        raise ValueError(
            f"a batched function must return {len(L)} values, one per row, "
            f"not an array of shape {vals.shape}"
        )
    return vals


def shape_values(F, L, B, keys, live=None):
    """Values of a shape functional F on N shapes: one (N,) float array
    per typed key.

    L and B hold (N, k) leaf heights and (N, k-1) meet heights, keys the
    (leaf_types, branch_types) label tuples, and live, an optional
    (len(keys), N) bool mask, the entries wanted (all when None).  A plain
    F(shape, leaf_types, branch_types) is called once per wanted entry,
    with one TreeShape per row; other entries are 0.0.  If F has an
    attribute batched(L, B, leaf_types), that is called instead, once per
    distinct leaf-type tuple of the keys with a wanted entry, on all rows;
    it must return one float per row (else a ValueError), ignore branch
    types and give F's bits row by row, and a float array it returns is
    handed through uncopied.  Keys with no wanted entry get zeros.
    """
    batched = getattr(F, "batched", None)
    if batched is not None:
        wanted = [True] * len(keys) if live is None else live.any(axis=1).tolist()
        by_lt, out = {}, []
        for (lt, _), want in zip(keys, wanted):
            if want and lt not in by_lt:
                by_lt[lt] = _per_row(batched, L, B, lt)
            out.append(by_lt[lt] if want else np.zeros(len(L)))
        return out
    shapes = [TreeShape(tuple(l), tuple(b)) for l, b in zip(L.tolist(), B.tolist())]
    vals = np.zeros((len(keys), len(L)))
    if live is None:
        live = np.ones(vals.shape, dtype=bool)
    for j, r in zip(*(ix.tolist() for ix in np.nonzero(live))):
        vals[j, r] = F(shapes[r], *keys[j])
    return list(vals)


def encode_heights(tree):
    """TreeShape of a planar tree: leaf heights and consecutive meets."""
    leaves = tree.leaves
    l = tuple(len(v) for v in leaves)
    b = tuple(len(meet(u, v)) for u, v in zip(leaves, leaves[1:]))
    return TreeShape(l, b)


def decode_heights(shape):
    """The unique planar tree whose leaf-height encoding is `shape`.

    Builds the first root-to-leaf path, then glues one branch per further
    leaf onto the right-most vertex at the prescribed meet height.  That
    vertex is always the current leaf truncated at the meet height.
    """
    if not shape.is_discrete:
        raise ValueError("only integer shapes correspond to trees")
    l = shape.leaf_heights
    b = shape.branch_heights
    degrees = {}
    for j in range(l[0]):
        degrees[(1,) * j] = 1
    leaf = (1,) * l[0]
    degrees[leaf] = 0
    for bi, li in zip(b, l[1:]):
        attach = leaf[:bi]
        degrees[attach] += 1
        cur = attach + (degrees[attach],)
        for _ in range(li - bi - 1):
            degrees[cur] = 1
            cur = cur + (1,)
        degrees[cur] = 0
        leaf = cur
    return PlanarTree(degrees)


# entries in one block of meet_distances' padded triangle, batch axes
# included: bounds its temporaries beside D, and keeps them below the
# sizes at which a fresh allocation costs more than the arithmetic
_MEET_BLOCK = 2**14


def meet_distances(l, b):
    """D[i, j] = l_i + l_j - 2 min(b[i..j-1]) for planar-ordered points of
    heights l whose neighbours i, i+1 meet at height b[i]; leading axes are
    batch axes.  Sorted tuple words meet at their lowest consecutive meet,
    so this is graph distance on leaves, vertex sets and generation slices,
    and with b = minimum(f[:-1], f[1:]) the contour distance of a path f.

    The range minima of a block of points i come from one running minimum
    over j of a triangle padded with +inf: entry (j, i) holds b[j - 1] for
    j > i and +inf else.  The points lead and the batch axes follow, so
    that each numpy step covers whole batches.
    """
    l = np.asarray(l, dtype=float)
    b = np.asarray(b, dtype=float)
    n = l.shape[-1]
    if b.shape != l.shape[:-1] + (max(n - 1, 0),):
        raise ValueError("need one meet height between each pair of neighbours")
    D = np.zeros(l.shape + (n,))
    if n < 2:
        return D
    # .T reverses the batch axes too; D is symmetric in its last two
    Dt = D.T
    lt = np.ascontiguousarray(l.T)
    pad = np.empty(lt.shape)
    pad[0] = np.inf
    pad[1:] = b.T
    point = np.arange(n).reshape((n,) + (1,) * l.ndim)
    step = max(1, _MEET_BLOCK // l.size)
    for s in range(0, n - 1, step):
        e = min(s + step, n - 1)
        above = point[s:] > point[s:e].swapaxes(0, 1)
        low = np.where(above, pad[s:, None], np.inf)
        # the running minimum over j: accumulate makes one inner call per
        # scan (one i of one batch row), so many short scans take one
        # np.minimum per step of j instead
        if low[0].size > 32 * len(low):
            for j in range(1, len(low)):
                np.minimum(low[j - 1], low[j], out=low[j])
        else:
            np.minimum.accumulate(low, axis=0, out=low)
        # U[j, i] = (l_j + l_i) - 2 low[j, i] = D[i, j] for j > i
        np.multiply(low, 2.0, out=low)
        U = np.add(lt[s:, None], lt[None, s:e])
        np.subtract(U, low, out=U)
        square = U[: e - s]
        Dt[s:e, s:e] = np.where(above[: e - s], square, square.swapaxes(0, 1))
        Dt[e:, s:e] = U[e - s :]
        Dt[s:e, e:] = U[e - s :].swapaxes(0, 1)
    diagonal = np.arange(n)
    Dt[diagonal, diagonal] = 0.0
    return D


def distance_matrix(shape):
    """Graph distances between the root (row 0) and the leaves of a shape."""
    return meet_distances((0,) + shape.leaf_heights, (0,) + shape.branch_heights)


# rows per batch of shape_batches: bounds the memory of the batched shape
# sum, whose largest table holds n_types^(2k-1) floats per row
SHAPE_BATCH_ROWS = 2048
# floats in one tie pattern's weight table (typed keys x rows x start
# types), above which the shape sum refuses instead of exhausting memory
SHAPE_TABLE_FLOATS = 2**24


def product_batches(lo, hi, width, rows=SHAPE_BATCH_ROWS):
    """itertools.product(range(lo, hi), repeat=width) as int arrays of
    shape (N, width), in order, in batches of at most `rows` rows."""
    base = hi - lo
    total = base**width if base > 0 else int(width == 0)
    powers = base ** np.arange(width - 1, -1, -1)
    for start in range(0, total, rows):
        t = np.arange(start, min(start + rows, total))
        yield lo + (t[:, None] // powers) % base


def shape_batches(k, R):
    """All integer k-leaf shapes with every leaf height <= R, in order, as
    int arrays of leaf heights (N, k) and meet heights (N, k-1), in batches
    of at most max(SHAPE_BATCH_ROWS, R^(k-1)) rows.

    For k = 1 the heights 0..R each give one shape.  For k >= 2 every leaf
    height ranges over 1..R and each meet height over 0..min-1, so the
    total count is sum over l of prod_i min(l[i], l[i+1]).

    Each batch takes whole leaf-height rows, expanding meet position i
    over range(min(l[i], l[i+1])) for i = 0, 1, ..., which keeps the
    product order of the meets within each leaf-height row.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if R < 0:
        raise ValueError("R must be nonnegative")
    rows = SHAPE_BATCH_ROWS
    if k == 1:
        for L in product_batches(0, R + 1, 1, rows):
            yield L, np.zeros((len(L), 0), dtype=int)
        return
    # one leaf-height row has at most R^(k-1) meet rows
    for L in product_batches(1, R + 1, k, max(1, rows // max(1, R ** (k - 1)))):
        yield _expand_meets(L, np.minimum(L[:, :-1], L[:, 1:]))


def _expand_meets(L, M):
    """Each row r of L repeated once per meet tuple b with 0 <= b[i] <
    M[r, i], beside those tuples: (rows of L, int array B of the b).

    Rows come in the order of L, and the tuples of one row in product
    order, meet position 0 slowest.  L is gathered once, at the end.
    """
    src = np.arange(len(L))
    B = np.zeros((len(L), 0), dtype=int)
    for i in range(M.shape[1]):
        m = M[src, i]
        at = np.repeat(np.arange(len(src)), m)
        b = np.arange(len(at)) - np.repeat(np.cumsum(m) - m, m)
        src, B = src[at], np.column_stack([B[at], b])
    return L[src], B


def count_shapes(k, R):
    """Closed-form count of the shapes of shape_batches(k, R)."""
    if k == 1:
        return R + 1
    total = 0
    for l in itertools.product(range(1, R + 1), repeat=k):
        prod = 1
        for i in range(k - 1):
            prod *= min(l[i], l[i + 1])
        total += prod
    return total


def count_deficient_tuples(tree, k):
    """Number of k-tuples of vertices (repeats allowed) spanning < k leaves.

    A tuple is deficient exactly when it has a repeated vertex or contains
    an ancestor pair.
    """
    vs = tree.vertices
    count = 0
    for combo in itertools.product(vs, repeat=k):
        if len(set(combo)) < k:
            count += 1
            continue
        if any(
            is_ancestor(u, v) or is_ancestor(v, u)
            for u, v in itertools.combinations(combo, 2)
        ):
            count += 1
    return count


def generate_trees(max_height, max_leaves):
    """All planar trees with height <= max_height and <= max_leaves leaves.

    Direct recursive construction, independent of the height encoding; used
    as an oracle against decode_heights/shape_batches.
    """
    cache = {}

    def upto(h):
        got = cache.get(h)
        if got is not None:
            return got
        out = [({(): 0}, 1)]
        if h > 0:
            smaller = upto(h - 1)

            def extend(chosen, budget):
                if chosen:
                    degrees = {(): len(chosen)}
                    for i, (sub, _) in enumerate(chosen, start=1):
                        for v, d in sub.items():
                            degrees[(i,) + v] = d
                    yield degrees, sum(n for _, n in chosen)
                if len(chosen) >= max_leaves:
                    return
                for sub, n in smaller:
                    if n <= budget:
                        yield from extend(chosen + [(sub, n)], budget - n)

            out = out + list(extend([], max_leaves))
        cache[h] = out
        return out

    for degrees, _ in upto(max_height):
        yield PlanarTree(degrees)


def tree_to_string(tree):
    """Canonical parenthesis string: one '(...)' per vertex, children inside."""
    out = []
    stack = [((), 0)]
    while stack:
        v, i = stack.pop()
        if i == 0:
            out.append("(")
        if i < tree.degrees[v]:
            stack.append((v, i + 1))
            stack.append((v + (i + 1,), 0))
        else:
            out.append(")")
    return "".join(out)
