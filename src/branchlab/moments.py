"""k-point moments of branching populations, by three independent routes.

The k-point moment of a functional F is the expected sum of
F(shape, leaf types, branch types) over all k-tuples of distinct vertices
spanning k leaves, the shape being the leaf-height encoding of the spanned
subtree.  Routes:

  * brute force: enumerate every population outcome up to a horizon and
    sum over vertex tuples;
  * shape sum: weighted spine expectations summed over k-leaf shapes;
  * recursion: for product functionals (BranchFunctional nodes), a stem
    sum feeding a leaf or a branch point whose blocks' moments are
    computed recursively.  A node is itself a shape functional, so the
    other routes take the same object and call it.

The rescaled variants divide heights by n and renormalise, so that the
values can be compared against continuum limits.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .process import OUTCOME_CAP, _check_start, enumerate_arrays
from .spine import build_kernel, shape_sum
from .trees import _check_shape_box, fold, product_batches, shape_batches, shape_values

__all__ = [
    "MomentQuery",
    "BruteForceMoments",
    "moment_bruteforce",
    "moment_m2f",
    "moment_m2f_radii",
    "many_to_one",
    "PathFunctional",
    "BranchFunctional",
    "as_functional",
    "moment_recursive",
    "rescaled_moment",
    "ultrametric_moment",
]


@dataclass
class MomentQuery:
    """What to compute: tuple size k, start type, weight choice, functional, support radius.

    F is called as F(shape, leaf_types, branch_types) and must vanish on
    shapes with a leaf height above R; a BranchFunctional node is such an
    F, and the one F that moment_recursive takes.
    """

    k: int
    x0: str
    F: Callable
    R: int
    psi: object = "unit"


# BruteForceMoments.table walks outcomes in groups of at most _VERTEX_CHUNK
# vertices (or one larger outcome), and a group's vertex tuples in ranges
# of first vertices with at most _TABLE_CHUNK tuples and tuple prefixes
# (or one first vertex's), so its arrays hold O(chunk) integers besides a
# group's pairs.  Chunks of 2**12 and 2**14 ran within a few percent of
# these and raised the peak memory of perfbench's exact_verify by a tenth.
_VERTEX_CHUNK = 2**10
_TABLE_CHUNK = 2**13


class BruteForceMoments:
    """Exact k-point moments by exhaustive enumeration of the population.

    Builds, per k, a table mapping (leaf heights, meet heights, leaf
    types, branch types) to total probability weight, once; evaluating a
    functional is then a weighted sum of its trees.shape_values.  Feasible
    only while the outcome count stays under the cap.

    The table reads the per-vertex arrays of enumerate_arrays (depth and
    type index, outcome by outcome in planar order) in groups of
    consecutive outcomes, and builds no tree.  A vertex's subtree is the
    index interval [i, end[i]), so the k-tuples with no ancestor pair are
    exactly the increasing index tuples with i_{t+1} >= end[i_t] inside
    one outcome; ancestral tuples are never visited.  The pairs
    (i, j >= end[i]) are listed once, each with its meet: the ancestor
    of j one level above the shallowest vertex of [end[i], j].  Longer
    tuples chain the pair blocks of their last vertex.  Each tuple's key
    is an integer code, found in a sorted array of the codes seen; only
    new codes are sorted and mapped to their key tuple, in first-seen
    order.  Its outcome's probability is added to its key one tuple at a
    time (np.add.at) in lexicographic order, so the table's key order and
    every float are those of filtering all vertex k-subsets in that
    order.
    """

    def __init__(self, model, x0, horizon, cap=OUTCOME_CAP):
        self.model = model
        self.x0 = x0
        self.horizon = horizon
        self._population = enumerate_arrays(model, x0, horizon, cap=cap)
        self._tables = {}

    def table(self, k):
        tab = self._tables.get(k)
        if tab is not None:
            return tab
        if k < 1:
            raise ValueError("k must be at least 1")
        labels = np.array(self.model.types, dtype=object)
        prob, outcome, depth, mark = self._population
        vprob = prob.astype(float)[outcome]
        D = int(depth.max()) + 1
        slots = {}  # key -> its entry of acc, in first-seen order
        acc = np.zeros(0)
        # the codes seen, sorted, and their slots, then a code past them all
        seen, seen_slot = np.array([2**63 - 1]), np.array([-1])
        for group in _outcome_groups(outcome, len(prob)):
            walk = _PlanarWalk(depth[group], mark[group], vprob[group], len(labels), D, k)
            for cols, code in walk.tuple_chunks():
                if not walk.shared:
                    seen, seen_slot = seen[-1:], seen_slot[-1:]
                at = np.searchsorted(seen, code)
                new = np.flatnonzero(seen[at] != code)
                if len(new):
                    # the codes not seen yet, keyed in the order they first occur
                    new = new[np.sort(np.unique(code[new], return_index=True)[1])]
                    fresh = [slots.setdefault(key, len(slots)) for key in walk.keys(cols, new, labels)]
                    order = np.argsort(np.append(seen, code[new]))
                    seen = np.append(seen, code[new])[order]
                    seen_slot = np.append(seen_slot, fresh)[order]
                    at = np.searchsorted(seen, code)
                    acc = np.concatenate([acc, np.zeros(len(slots) - len(acc))])
                # adds one at a time in index order: each key's float is
                # 0.0 + p_1 + p_2 + ... over its tuples in lexicographic order
                np.add.at(acc, seen_slot[at], walk.prob[cols[0]])
        tab = self._tables[k] = dict(zip(slots, acc.tolist()))
        return tab

    def moment(self, k, F, R):
        """The fold of w * F over the table rows with leaf heights <= R, in
        table order; one shape_values call evaluates F on the rows'
        distinct shapes, each row's (key, shape) entry wanted once."""
        _check_radius(R)
        if R > self.horizon:
            raise ValueError("support radius exceeds the enumeration horizon")
        rows = [(key, w) for key, w in self.table(k).items() if max(key[0]) <= R]
        slots, shapes = {}, {}
        j = [slots.setdefault(key[2:], len(slots)) for key, _ in rows]
        r = [shapes.setdefault(key[:2], len(shapes)) for key, _ in rows]
        L = np.array([l for l, _ in shapes]).reshape(len(shapes), k)
        B = np.array([b for _, b in shapes], dtype=L.dtype).reshape(len(shapes), k - 1)
        live = np.zeros((len(slots), len(shapes)), dtype=bool)
        live[j, r] = True
        vals = np.array(shape_values(F, L, B, list(slots), live)).reshape(live.shape)[j, r]
        return fold(np.array([w for _, w in rows]) * vals)


def _check_radius(R):
    """The one refusal of a negative support radius, for every route."""
    if R < 0:
        raise ValueError("R must be nonnegative")


def _outcome_groups(outcome, n):
    """Vertex slices of consecutive outcomes of the n in `outcome`, at most
    _VERTEX_CHUNK vertices each, or one larger outcome."""
    start = np.concatenate([[0], np.cumsum(np.bincount(outcome, minlength=n))])
    a = 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(start, start[a] + _VERTEX_CHUNK, "right")) - 1)
        yield slice(start[a], start[b])
        a = b


class _PlanarWalk:
    """The non-ancestral k-tuples of consecutive outcomes, over slices of
    enumerate_arrays's per-vertex arrays in planar order: depth, mark index
    and its outcome's float probability.

    Codes take depth digits below D.  Derived for k >= 2, per vertex:
    subtree end `end` (the next vertex at the same depth or shallower) and
    outcome end `stop` (the next root); per pair (i, j) with end[i] <= j <
    stop[i], listed by i, then j: the last vertex J and the meet vertex
    `meet`.  Roots have depth 0, so no interval crosses into the next
    outcome.
    """

    def __init__(self, depth, mark, prob, nt, D, k):
        self.k = k
        self.depth = depth = depth.astype(np.int64)
        self.mark = mark = mark.astype(np.int64)
        self.prob = prob
        # the digits (depth, mark) of a vertex as one code, and a pair's radix
        self.vcode, self.vradix, self.pradix = depth * nt + mark, D * nt, D * D * nt * nt
        # a code names one key in every chunk of every walk with this D and
        # nt; past int64, _tuples renumbers them chunk by chunk
        self.shared = self.vradix * self.pradix ** (k - 1) <= 2**62
        if k == 1:
            return
        n = len(depth)
        pos = np.arange(n)
        at = depth == np.arange(D)[:, None]
        # after[t, i]: the first vertex after i at depth t or shallower
        after = np.minimum.accumulate(np.where(at, pos, n)[:, ::-1], axis=1)[:, ::-1]
        after = np.minimum.accumulate(after, axis=0)
        after = np.concatenate([after[:, 1:], np.full((D, 1), n)], axis=1)
        self.end = after[depth, pos]
        self.stop = after[0]
        self.cnt = self.stop - self.end
        self.off = np.cumsum(self.cnt) - self.cnt
        I = np.repeat(pos, self.cnt)
        self.J = J = self.end[I] + np.arange(len(I)) - self.off[I]
        # the meet of i and j is one level above the shallowest vertex of
        # [end[i], j], i.e. j's ancestor up[t, j] at that level t (the last
        # vertex at depth t up to j); later i sit lower, so one running
        # minimum restarts at every i
        up = np.maximum.accumulate(np.where(at, pos, 0), axis=1)
        base = (n - I) * D
        low = np.minimum.accumulate(base + depth[J]) - base
        self.meet = w = up[low - 1, J]
        # the digits (depth j, depth w, mark j, mark w) of a pair
        self.pcode = ((depth[J] * D + depth[w]) * nt + mark[J]) * nt + mark[w]

    def tuple_chunks(self):
        """(columns, codes) of the tuples in lexicographic order, split by
        first vertex into ranges of at most _TABLE_CHUNK tuples and tuple
        prefixes; columns are the first vertex, then the pair index of
        each later vertex."""
        n = len(self.depth)
        tuples = np.ones(n, dtype=np.int64)
        work = tuples.copy()
        for _ in range(self.k - 1):
            c = np.concatenate([[0], np.cumsum(tuples)])
            tuples = c[self.stop] - c[self.end]
            work += tuples
        work = np.concatenate([[0], np.cumsum(work)])
        full = np.concatenate([[0], np.cumsum(tuples)])
        a = 0
        while a < n:
            b = int(np.searchsorted(work, work[a] + _TABLE_CHUNK, "right")) - 1
            b = max(a + 1, b)
            if full[b] > full[a]:
                yield self._tuples(np.arange(a, b))
            a = b

    def _tuples(self, first):
        cols, last, code = [first], first, self.vcode[first]
        for _ in range(self.k - 1):
            c = self.cnt[last]
            rep = np.repeat(np.arange(len(last)), c)
            p = np.arange(len(rep)) + np.repeat(self.off[last] - np.cumsum(c) + c, c)
            if not self.shared:
                # keep codes inside int64: renumber the distinct prefixes
                code = np.unique(code, return_inverse=True)[1]
            code = code[rep] * self.pradix + self.pcode[p]
            cols = [col[rep] for col in cols] + [p]
            last = self.J[p]
        return cols, code

    def keys(self, cols, rows, labels):
        """The table keys of the tuples at `rows`."""
        pairs = [c[rows] for c in cols[1:]]
        V = np.stack([cols[0][rows]] + [self.J[p] for p in pairs], axis=1)
        W = np.stack([self.meet[p] for p in pairs], axis=1) if pairs else V[:, :0]
        return zip(
            map(tuple, self.depth[V].tolist()),
            map(tuple, self.depth[W].tolist()),
            map(tuple, labels[self.mark[V]].tolist()),
            map(tuple, labels[self.mark[W]].tolist()),
        )


def moment_bruteforce(model, query, cap=OUTCOME_CAP):
    """k-point moment via full population enumeration to horizon R (the reference route)."""
    R = int(query.R)
    _check_radius(R)
    return BruteForceMoments(model, query.x0, R, cap=cap).moment(query.k, query.F, R)


def moment_m2f(model, query, kernel=None):
    """k-point moment as a weighted spine sum over k-leaf shapes.

    Equals the brute-force value for every psi; the shape sum runs over
    leaf heights up to R, which covers the support of F.
    """
    return moment_m2f_radii(model, query, [query.R], kernel)[0]


def moment_m2f_radii(model, query, Rs, kernel=None):
    """moment_m2f at query.R = R for each R in Rs, with the bits of one
    call per R, from one shape sum over leaf heights up to max(Rs): the
    shapes up to R are those rows, in the same order."""
    _check_start(model, query.x0)
    if kernel is None:
        kernel = build_kernel(model, query.psi)
    psi_x = float(kernel.psi[model.index[query.x0]])
    Rs = [int(R) for R in Rs]
    _check_radius(min(Rs))
    batches = shape_batches(query.k, max(Rs))
    return [psi_x * t for t in shape_sum(kernel, batches, query.F, query.x0, radii=Rs)]


def many_to_one(kernel, x0, n, F):
    """Expected sum of F(type path) over generation-n vertices.

    F sees the whole length-(n+1) tuple of types from the ancestor to the
    vertex.  Computed through the weighted spine chain, so the value is
    independent of the kernel's weight.
    """
    model = kernel.model
    nt = len(model.types)
    types = model.types
    i0 = model.index[x0]
    step = kernel.step
    total = 0.0
    for tail in itertools.product(range(nt), repeat=n):
        path = (i0,) + tail
        w = 1.0
        for a, b in zip(path, path[1:]):
            w *= step[a, b]
            if w == 0.0:
                break
        if w == 0.0:
            continue
        total += w * F(tuple(types[i] for i in path)) / kernel.psi[path[-1]]
    return float(kernel.psi[i0]) * total


@dataclass(frozen=True)
class BranchFunctional:
    """Product functional: a stem part times one functional per block.

    With no blocks the node is a leaf: stem(leaf_height, leaf_type) weighs
    its one leaf.  Otherwise stem(stem_height, branch_type) weighs the
    lowest meet of all leaves, and the blocks (two or more nodes) weigh
    the subtrees above it, left to right.  A node is itself a shape
    functional, F(shape, leaf_types, branch_types): zero on shapes whose
    branch structure does not match its nesting.
    """

    stem: Callable[[int, str], float]
    blocks: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if len(self.blocks) == 1:
            raise ValueError("a branch functional needs no blocks or at least two")

    @property
    def k(self):
        return sum(blk.k for blk in self.blocks) or 1

    def __call__(self, shape, lt, bt):
        return _eval_product(self, shape.leaf_heights, shape.branch_heights, lt, bt)


def PathFunctional(f):
    """The one-leaf node: f(leaf height, leaf type) weighs the leaf."""
    return BranchFunctional(f)


def _eval_product(func, l, b, lt, bt):
    if not b:
        # one leaf: the stem runs up to it
        return 0.0 if func.blocks else func.stem(l[0], lt[0])
    s = min(b)
    cuts = [j for j, bj in enumerate(b) if bj == s]
    if len(cuts) + 1 != len(func.blocks):
        return 0.0
    val = func.stem(s, bt[cuts[0]])
    start = 0
    for blk, end in zip(func.blocks, cuts + [len(b)]):
        val *= _eval_product(
            blk,
            tuple(x - s - 1 for x in l[start : end + 1]),
            tuple(x - s - 1 for x in b[start:end]),
            lt[start : end + 1],
            bt[start:end],
        )
        if val == 0.0:
            return 0.0
        start = end + 1
    return val


def as_functional(func):
    """The F(shape, lt, bt) form of a product functional: the node itself."""
    return func


def _recursive_vector(kernel, func, R):
    """Vector over start types of the k-point moment of a product functional.

    A stem sum into the node's end vertex: a leaf ends there (inner weight
    one), a branch point weighs its distinct-children assignments by the
    block moments, computed recursively.
    """
    model = kernel.model
    nt = len(model.types)
    d = len(func.blocks)
    vecs = [_recursive_vector(kernel, blk, R) for blk in func.blocks]
    inner = np.ones(nt)
    if d:
        for y, x in enumerate(model.types):
            acc = 0.0
            for p, cs in model.offspring[x]:
                if len(cs) < d:
                    continue
                ids = [model.index[c] for c in cs]
                for pick in itertools.permutations(ids, d):
                    term = float(p)
                    for vec_i, zi in zip(vecs, pick):
                        term *= vec_i[zi]
                        if term == 0.0:
                            break
                    acc += term
            inner[y] = acc
    fact = math.factorial(d)
    out = np.zeros(nt)
    for n in range(R + 1):
        Bn = kernel.matrix_power(n, biased=True)
        for y in range(nt):
            sval = func.stem(n, model.types[y])
            if sval:
                out += Bn[:, y] * (sval * inner[y] / (fact * kernel.psi[y]))
    return kernel.psi * out


def moment_recursive(model, query):
    """k-point moment of a product-form functional by branch recursion.

    query.F must be a BranchFunctional node, whose nesting the recursion
    reads; stems are summed up to height R, so the functional has to
    vanish beyond that.  Agrees with moment_m2f on the same query whenever
    the functional's total support fits under R.
    """
    if not isinstance(query.F, BranchFunctional):
        raise TypeError("moment_recursive needs a product-form functional")
    _check_start(model, query.x0)
    R = int(query.R)
    _check_radius(R)
    kernel = build_kernel(model, query.psi)
    vec = _recursive_vector(kernel, query.F, R)
    return float(vec[model.index[query.x0]])


def rescaled_moment(model, k, F, n, x0, R=1.0, kernel=None):
    """n^{-2k} times the k-point moment of F(shape / n) up to height R * n.

    F is a shape functional that sees heights already divided by n.  Uses
    the harmonic weight internally; n times the result approaches
    h(x0) (sigma^2 / 2)^{k-1} times the continuum shape integral of F
    averaged over leaf types.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    _check_start(model, x0)
    if kernel is None:
        kernel = build_kernel(model, "harmonic")
    R_disc = int(math.floor(R * n + 1e-9))
    psi_x = float(kernel.psi[model.index[x0]])
    total = shape_sum(kernel, shape_batches(k, R_disc), F, x0, scale=1.0 / n)
    return psi_x * total / float(n) ** (2 * k)


def ultrametric_moment(model, k, F, n, x0, kernel=None):
    """n^{-k} times the k-point moment over generation-n vertices only.

    All leaf heights sit at n; heights are divided by n before F sees
    them, so leaves sit at 1 and meets in [0, 1).  n times the result
    approaches h(x0) (sigma^2 / 2)^{k-1} times the integral of F over
    uniform meet heights in [0, 1]^{k-1}.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    _check_start(model, x0)
    _check_shape_box(n, k - 1)
    if kernel is None:
        kernel = build_kernel(model, "harmonic")
    psi_x = float(kernel.psi[model.index[x0]])
    batches = ((np.full((len(B), k), n), B) for B in product_batches(0, n, k - 1))
    total = shape_sum(kernel, batches, F, x0, scale=1.0 / n)
    return psi_x * total / float(n) ** k
