"""Finite rooted measured metric spaces with marks, and their moment statistics.

A space is a finite point set with a distinguished root, a pseudo-distance
matrix, a nonnegative mass per point and an optional mark per point.  The
k-th monomial statistic of a test function phi sums, over all k-tuples of
points drawn with repetition, the product of masses times
phi(distance matrix including the root row, marks).  Points of zero mass
never contribute, so a space can be restricted by zeroing masses while
its points and distances stay as they are.
"""

import itertools

import numpy as np

from .trees import _per_row, fold, meet_distances, product_batches

__all__ = [
    "FiniteMmmSpace",
    "tree_to_mmm",
    "generation_slice",
    "phi_values",
    "monomial",
]

_TRIANGLE_CHECK_LIMIT = 300
# elements per temporary of the blocked triangle check
_TRIANGLE_BLOCK = 2**16


def _is_symmetric(dist):
    """np.allclose(dist, dist.T, atol=1e-9) spelled out: equal entries
    (infinities included) are close, NaN never is."""
    t = dist.T
    if (dist == t).all():
        return True
    with np.errstate(invalid="ignore"):
        close = (np.abs(dist - t) <= 1e-9 + 1e-5 * np.abs(t)) & np.isfinite(t) | (dist == t)
    return bool(close.all())


def _satisfies_triangle(dist):
    """No d[i, j] above d[i, p] + d[p, j] + 1e-9, checked for blocks of
    intermediate points p at a time."""
    n = len(dist)
    step = max(1, _TRIANGLE_BLOCK // max(n * n, 1))
    for p in range(0, n, step):
        via = dist[:, p : p + step].T[:, :, None] + dist[p : p + step, None, :] + 1e-9
        if (dist > via).any():
            return False
    return True


class FiniteMmmSpace:
    """Finite rooted mark-measured metric space.

    Parameters
    ----------
    root : int index of the root point
    dist : (n, n) array-like, symmetric, zero diagonal, nonnegative.
        Triangle inequality is verified for spaces up to
        300 points and trusted beyond that.
    mass : (n,) nonnegative weights; the root may carry zero mass.
    mark : optional sequence of labels (or None entries), one per point.
    """

    def __init__(self, root, dist, mass, mark=None):
        dist = np.asarray(dist, dtype=float)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("distance matrix must be square")
        n = len(dist)
        if not _is_symmetric(dist):
            raise ValueError("distance matrix must be symmetric")
        if np.any(np.abs(np.diag(dist)) > 1e-12):
            raise ValueError("distance matrix must have zero diagonal")
        if np.any(dist < 0):
            raise ValueError("distances must be nonnegative")
        if n <= _TRIANGLE_CHECK_LIMIT and not _satisfies_triangle(dist):
            raise ValueError("triangle inequality fails")
        mass = np.asarray(mass, dtype=float)
        if mass.shape != (n,) or np.any(mass < 0):
            raise ValueError("mass must be a nonnegative vector over points")
        if not 0 <= root < n:
            raise ValueError("root index out of range")
        self.mark = list(mark) if mark is not None else [None] * n
        if len(self.mark) != n:
            raise ValueError("mark must have one label per point")
        self.root = int(root)
        self.dist = dist
        self.mass = mass

    @classmethod
    def _built(cls, root, dist, mass, mark):
        """A space whose parts are right by construction: a meet_distances
        metric (float, symmetric, zero diagonal, a triangle-respecting tree
        metric), a nonnegative float mass vector and a mark list, all of
        one length.  Takes ownership; checks none of that."""
        space = cls.__new__(cls)
        space.root = root
        space.dist = dist
        space.mass = mass
        space.mark = mark
        return space

    @property
    def size(self):
        return len(self.mass)

    def support(self):
        """Indices of points with positive mass."""
        return np.flatnonzero(self.mass > 0)


def _word_distances(words):
    """Graph distances between distinct sorted tuple words, the root first.

    The words are the columns of one int array, padded with zeros.  Child
    indices are positive, so a word and the next one differ at the first
    position past their common prefix, and their meet height is the count
    of leading positions where the two columns agree.
    """
    if len(words) < 2:
        # the root of an empty generation: no meets to find
        return np.zeros((len(words), len(words)))
    cols = np.array(list(itertools.zip_longest(*words, fillvalue=0)), dtype=np.intp)
    cols = cols.reshape(-1, len(words))
    agree = np.logical_and.accumulate(cols[:, 1:] == cols[:, :-1], axis=0)
    return meet_distances(np.count_nonzero(cols, axis=0), agree.sum(axis=0))


def _check_scale(name, value):
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be a finite nonnegative number, got {value!r}")


def tree_to_mmm(marked_tree, edge_scale=1.0, mass_scale=1.0):
    """The whole vertex set as a space: graph distance times edge_scale, one
    mass_scale of mass per vertex, marks carried over."""
    _check_scale("edge_scale", edge_scale)
    _check_scale("mass_scale", mass_scale)
    vs = marked_tree.tree.vertices
    mass = np.full(len(vs), float(mass_scale))
    marks = list(map(marked_tree.marks.__getitem__, vs))
    return FiniteMmmSpace._built(0, edge_scale * _word_distances(vs), mass, marks)


def generation_slice(marked_tree, n, mass_scale=1.0):
    """Generation-n vertices at mutual distance (2 (n - meet height)) / n.

    The root is kept as an extra zero-mass point at distance 1 from every
    generation-n vertex.  An empty generation gives the root alone.
    """
    if n < 1:
        raise ValueError("the generation must be at least 1")
    _check_scale("mass_scale", mass_scale)
    gen = [v for v in marked_tree.tree.vertices if len(v) == n]
    words = [()] + gen
    mass = np.full(len(words), float(mass_scale))
    mass[0] = 0.0
    marks = list(map(marked_tree.marks.__getitem__, words))
    return FiniteMmmSpace._built(0, _word_distances(words) / n, mass, marks)


# k-tuples per batched distance build in monomial: bounds its memory
_MONOMIAL_CHUNK = 4096


def _tuple_matrices(dist, root, ids):
    """The (k+1) x (k+1) matrices of the k-tuples in the rows of ids: the
    upper triangle read off dist with the root as point 0, mirrored below
    a zero diagonal."""
    T, k = ids.shape
    pts = np.empty((T, k + 1), dtype=np.intp)
    pts[:, 0] = root
    pts[:, 1:] = ids
    upper = np.triu_indices(k + 1, 1)
    vals = dist[pts[:, upper[0]], pts[:, upper[1]]]
    D = np.zeros((T, k + 1, k + 1))
    D[:, upper[0], upper[1]] = vals
    D[:, upper[1], upper[0]] = vals
    return D


def _mark_tuples(mark, ids):
    """The k-tuple of marks of each row of ids, built column by column."""
    return list(zip(*(map(mark.__getitem__, col) for col in ids.T.tolist())))


def phi_values(phi, D, marks):
    """Values of a distance-matrix test function on N matrices, as an (N,)
    float array.

    D holds (N, k+1, k+1) distance matrices whose row 0 is the root, and
    marks is a list of one k-tuple of mark labels per matrix.  A plain
    phi(D, marks) is called once per row, in row order, on a view into D.
    If phi has an attribute batched(D, marks), that is called instead,
    once per distinct mark tuple in first-seen order, on the stack of that
    tuple's rows (D itself when every row has the same tuple); it must
    return one float per row (else a ValueError) and give phi's bits row
    by row.
    """
    batched = getattr(phi, "batched", None)
    if batched is None:
        return np.fromiter(map(phi, D, marks), dtype=float, count=len(D))
    if marks and marks.count(marks[0]) == len(marks):
        # one tuple on every row; count compares by identity first
        return _per_row(batched, D, marks[0])
    distinct = list(dict.fromkeys(marks))
    code = {mk: c for c, mk in enumerate(distinct)}
    codes = np.fromiter(map(code.__getitem__, marks), dtype=np.intp, count=len(D))
    out = np.empty(len(D))
    for c, mk in enumerate(distinct):
        rows = np.flatnonzero(codes == c)
        out[rows] = _per_row(batched, D[rows], mk)
    return out


def monomial(space, k, phi, cap=2_000_000, n_sub=64, rng=None):
    """k-th monomial statistic: sum over point tuples (with repetition) of
    the mass product times phi(D, marks).

    phi(D, marks) sees the (k+1) x (k+1) distance matrix whose row 0 is
    the root and a k-tuple of marks; D may be a view into a batch of such
    matrices, so phi must not keep it.  Exhaustive while the tuple count
    is at most `cap`; beyond that, stratified subsampling over the first
    coordinate with n_sub >= 2 draws per point.  Returns (value, stderr)
    with stderr 0.0 in the exhaustive case.  phi is evaluated through
    phi_values on a block of tuples at a time, so a batched phi is called
    once per distinct mark tuple of a block.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k!r}")
    support = space.support()
    ns = len(support)
    if ns == 0:
        return 0.0, 0.0
    dist = space.dist
    mass = space.mass
    mark = space.mark
    root = space.root

    if ns**k <= cap:
        total = 0.0
        # tuples in product order, chunk by chunk
        for t in product_batches(0, ns, k, _MONOMIAL_CHUNK):
            ids = support[t]
            w = mass[ids[:, 0]]
            for a in range(1, k):
                w = w * mass[ids[:, a]]
            D = _tuple_matrices(dist, root, ids)
            total = fold(w * phi_values(phi, D, _mark_tuples(mark, ids)), total)
        return total, 0.0

    if n_sub < 2:
        raise ValueError(f"n_sub must be at least 2, got {n_sub!r}")
    rng = np.random.default_rng(rng)
    weights = mass[support]
    total_mass = float(weights.sum())
    probs = weights / total_mass
    value = 0.0
    var = 0.0
    for lead in support:
        draws = rng.choice(support, size=(n_sub, k - 1), p=probs)
        ids = np.hstack([np.full((n_sub, 1), lead), draws])
        D = _tuple_matrices(dist, root, ids)
        vals = phi_values(phi, D, _mark_tuples(mark, ids))
        scale = float(mass[lead]) * total_mass ** (k - 1)
        value += scale * float(vals.mean())
        var += scale**2 * float(vals.var(ddof=1)) / n_sub
    return float(value), float(np.sqrt(var))
