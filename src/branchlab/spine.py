"""Weighted spine calculus for a positive weight on types.

Given a model and a weight psi > 0 on types, this module builds the
factorial-weighted offspring moments

    m_d(x) = E_x[ d! * e_d(psi(xi_1), ..., psi(xi_N)) ],

the spine step lambda(x) = m_1(x) / psi(x) with its transition matrix, and
the joint law of the d subtree root types at a branch point (size-biased by
psi, sampled at distinct children without order).  On top of that it
evaluates expectations of functionals of a fixed k-leaf shape under the
spine-tree measure, with or without the correction factor that turns those
expectations into genuine k-point moments of the population.
"""

import itertools
import math

import numpy as np

from .process import eigenpair
from .trees import SHAPE_TABLE_FLOATS, fold, shape_values

__all__ = [
    "SpineKernel",
    "build_kernel",
    "elementary_symmetric",
    "shape_sum",
]


def elementary_symmetric(values, d):
    """e_d of a finite list of numbers, by the one-pass recurrence."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    e = [1.0] + [0.0] * d
    for v in values:
        for j in range(min(d, len(e) - 1), 0, -1):
            e[j] += v * e[j - 1]
    return e[d]


class SpineKernel:
    """All spine quantities of (model, psi), plus a matrix power cache.

    Attributes
    ----------
    psi : array over types
    m : array of shape (max_brood + 1, n_types); m[d] is the d-th
        factorial-weighted offspring moment, m[0] = 1.
    lam : array; the one-step spine weight m[1] / psi.
    transition : stochastic matrix of the spine chain (rows with m[1] = 0
        are zero).
    chi : dict d >= 2 -> list over types of {type index tuple:
        probability}; the joint subtree-root-type law at a degree-d branch
        point.  Rows with m[d] = 0 are empty.
    """

    def __init__(self, model, psi_values):
        self.model = model
        psi = np.asarray(psi_values, dtype=float)
        if psi.shape != (len(model.types),) or np.any(psi <= 0):
            raise ValueError("psi must be a positive vector over the types")
        self.psi = psi
        nt = len(model.types)
        dmax = model.max_brood
        m = np.zeros((max(dmax, 1) + 1, nt))
        m[0] = 1.0
        for i, x in enumerate(model.types):
            for d in range(1, dmax + 1):
                m[d, i] = fold(
                    float(p)
                    * math.factorial(d)
                    * elementary_symmetric(
                        [psi[model.index[c]] for c in cs], d
                    )
                    for p, cs in model.offspring[x]
                )
        self.m = m
        self.lam = m[1] / psi
        P = np.zeros((nt, nt))
        for i, x in enumerate(model.types):
            for p, cs in model.offspring[x]:
                for c in cs:
                    j = model.index[c]
                    P[i, j] += float(p) * psi[j]
            if m[1, i] > 0:
                P[i] /= m[1, i]
            else:
                P[i] = 0.0
        self.transition = P
        self.chi = {
            d: [self._chi_row(x, d) for x in model.types]
            for d in range(2, dmax + 1)
        }
        # biased one-step matrix: diag(lam) times the transition
        self.step = self.lam[:, None] * P
        self._pow = {True: [np.eye(nt)], False: [np.eye(nt)]}

    def _chi_row(self, x, d):
        model = self.model
        i = model.index[x]
        if self.m[d, i] == 0:
            return {}
        nt = len(model.types)
        row = {}
        for p, cs in model.offspring[x]:
            if len(cs) < d:
                continue
            counts = [0] * nt
            for c in cs:
                counts[model.index[c]] += 1
            for z in itertools.product(range(nt), repeat=d):
                need = [0] * nt
                for t in z:
                    need[t] += 1
                # falling factorials count ordered picks of distinct children
                w = 1.0
                for t in range(nt):
                    for r in range(need[t]):
                        w *= counts[t] - r
                    if w == 0:
                        break
                if w == 0:
                    continue
                for t in z:
                    w *= self.psi[t]
                row[z] = row.get(z, 0.0) + float(p) * w
        total = self.m[d, i]
        row = {z: w / total for z, w in row.items() if w != 0.0}
        if abs(sum(row.values()) - 1.0) >= 1e-9:
            raise ValueError(
                f"branch-type law of {x!r} at degree {d} does not sum to one"
            )
        return row

    def matrix_power(self, n, biased=True):
        """n-th power of the biased step (or plain transition) matrix, cached."""
        base = self.step if biased else self.transition
        powers = self._pow[bool(biased)]
        while len(powers) <= n:
            powers.append(powers[-1] @ base)
        return powers[n]


def build_kernel(model, psi="unit"):
    """SpineKernel for a named or explicit weight.

    psi may be "unit", "harmonic" (the Perron right eigenvector normalised
    against the left one), a mapping from each type label, and no other,
    to a positive number, or a positive vector in type order.
    """
    if isinstance(psi, str):
        if psi == "unit":
            vals = np.ones(len(model.types))
        elif psi == "harmonic":
            vals = eigenpair(model).h
        else:
            raise ValueError(f"unknown weight preset {psi!r}")
    elif isinstance(psi, dict):
        missing = [x for x in model.types if x not in psi]
        unknown = [x for x in psi if x not in model.index]
        if missing or unknown:
            raise ValueError(
                f"psi must map every model type to a weight: missing {missing}, "
                f"unknown {unknown}"
            )
        vals = np.array([float(psi[x]) for x in model.types])
    else:
        vals = np.asarray(psi, dtype=float)
    return SpineKernel(model, vals)


def _pattern(b):
    """Nested lowest-meet tie pattern of meet heights b: () for one leaf,
    else the tuple of the patterns of the blocks above the lowest meet,
    which are split at every meet equal to it.  It depends only on the
    weak order of b."""
    if not b:
        return ()
    s = min(b)
    cuts = [j for j, bj in enumerate(b) if bj == s]
    return tuple(
        _pattern(b[a + 1 : c]) for a, c in zip([-1] + cuts, cuts + [len(b)])
    )


def _leaf_count(pattern):
    return sum(map(_leaf_count, pattern)) if pattern else 1


def _pattern_groups(B):
    """(pattern, row indices) for each distinct pattern of the rows of B.
    Rows whose meets compare alike pair by pair share a pattern, so each
    round takes the first row left and every row ordered like it."""
    order = np.sign(B[:, :, None] - B[:, None, :])
    groups = {}
    left = np.ones(len(B), dtype=bool)
    while left.any():
        row = int(left.argmax())
        alike = (order == order[row]).all(axis=(1, 2))
        left &= ~alike
        pattern = _pattern(tuple(B[row].tolist()))
        groups[pattern] = groups.get(pattern, False) | alike
    return [(pattern, np.flatnonzero(rows)) for pattern, rows in groups.items()]


def _table(kernel, pattern, L, B, biased, powers, start):
    """Typed keys and weights of N shapes sharing one tie pattern.

    Returns (keys, W): keys lists every (leaf types, branch types) pair
    of type-label tuples the pattern admits, in the order _row_values sums
    them, and W[j] holds the spine-tree probability of keys[j] on each row,
    times (when biased) the correction factor of the typed skeleton, as
    an (N, X) array over the start types (X = n_types) or at start index
    `start` (X = 1).  A multi-leaf shape is split at its lowest meet s:
    the blocks above it are tables over start types, combined per branch
    type y as q * w_1[z_1] * w_2[z_2] ... summed over the chi row in its
    order, times the stem column Ms[:, y] m_d / (d! psi): the float
    operations of a per-key scalar loop, vectorised over keys and rows.
    Keys a row cannot have get weight zero.  Raises ValueError, before
    allocating anything, when the table would hold more than
    SHAPE_TABLE_FLOATS floats.
    """
    types = kernel.model.types
    nt = len(types)
    at = slice(None) if start is None else slice(start, start + 1)
    N = len(L)
    floats = _key_count(kernel, pattern) * N * (nt if start is None else 1)
    if floats > SHAPE_TABLE_FLOATS:
        raise ValueError(
            f"shape sum with n_types = {nt} at k = {L.shape[1]} needs a weight table of "
            f"{floats:.3g} floats, above the budget of {SHAPE_TABLE_FLOATS:.3g}; "
            f"use fewer types or a smaller k"
        )
    if not pattern:
        M = powers[L[:, 0]][:, at, :]
        if biased:
            M = M / kernel.psi
        return [((x,), ()) for x in types], M.transpose(2, 0, 1)
    sizes = [_leaf_count(p) for p in pattern]
    s = B[:, sizes[0] - 1]
    subs = []
    a = 0
    for p, size in zip(pattern, sizes):
        c = a + size - 1
        sub_l = L[:, a : c + 1] - s[:, None] - 1
        sub_b = B[:, a:c] - s[:, None] - 1
        subs.append(_table(kernel, p, sub_l, sub_b, biased, powers, None))
        a = c + 1
    d = len(pattern)
    Ms = powers[s][:, at, :]
    keys, W = [], []
    for y, row in enumerate(kernel.chi.get(d, [{}] * nt)):
        coef = 1.0
        if biased and row:
            coef = kernel.m[d, y] / (math.factorial(d) * kernel.psi[y])
        if not row or coef == 0.0:
            continue
        inner = 0.0
        for z, q in row.items():
            term = float(q)
            for j, ((_, Wj), zj) in enumerate(zip(subs, z)):
                axes = [1] * d + [N]
                axes[j] = len(Wj)
                term = term * Wj[:, :, zj].reshape(axes)
            inner = inner + term
        W.append(inner.reshape(-1, N, 1) * (Ms[:, :, y] * coef))
        for combo in itertools.product(*(ks for ks, _ in subs)):
            lt, bt = combo[0]
            for lt_j, bt_j in combo[1:]:
                lt += lt_j
                bt += (types[y],) + bt_j
            keys.append((lt, bt))
    if not keys:
        return [], np.zeros((0, N, nt if start is None else 1))
    return keys, np.concatenate(W)


def _key_count(kernel, pattern):
    """An upper bound on the typed keys _table lists for a tie pattern:
    n_types for a leaf, else the branch types with a chi row times the
    product over blocks."""
    if not pattern:
        return len(kernel.model.types)
    rows = sum(map(bool, kernel.chi.get(len(pattern), ())))
    return rows * math.prod(_key_count(kernel, p) for p in pattern)


def _row_values(kernel, L, B, F, i0, biased, scale):
    """Expectation of F over the typed skeletons of every row's shape: per
    row, the fold over typed keys in key order of w * F, skipping keys of
    weight zero.

    F sees heights times `scale` (unscaled when None), through
    trees.shape_values on all rows of one tie pattern at a time, with the
    keys of nonzero weight live.
    """
    out = np.zeros(len(L))
    # the heights F sees
    Lf = L if scale is None else scale * L
    Bf = B if scale is None else scale * B
    powers = np.stack(
        [kernel.matrix_power(h, biased) for h in range(int(L.max(initial=0)) + 1)]
    )
    for pattern, rows in _pattern_groups(B):
        keys, W = _table(kernel, pattern, L[rows], B[rows], biased, powers, i0)
        if not keys:
            continue
        W = W[:, :, 0]
        live = W != 0.0
        vals = shape_values(F, Lf[rows], Bf[rows], keys, live)
        with np.errstate(invalid="ignore", over="ignore"):
            terms = np.where(live, W * vals, 0.0)
        out[rows] = fold(terms)
    return out


def shape_sum(kernel, batches, F, x0, with_bias=True, scale=None, radii=None):
    """Sum over shapes of the expectation of F over their typed skeletons,
    for shapes given as batches of (N, k) integer leaf heights and (N, k-1)
    meet heights, folded (trees.fold) in row order.

    F is called as F(shape, leaf_types, branch_types) with type labels in
    planar order; branch_types[i] is the type at the meet of leaves i and
    i+1.  With with_bias=True each term also carries the correction factor
    of the typed skeleton, so that psi(x0) times the sum over all shapes
    is the k-point moment.  Shapes whose branch degrees the model cannot
    produce contribute zero.

    Every row of one tie pattern is evaluated in one numpy pass, with the
    float operations and summation order of the per-shape scalar loop,
    so the total has its bits.  F sees heights multiplied by `scale` when
    one is given and is evaluated by trees.shape_values, so an F with a
    batched(L, B, lt) form is called once per leaf-type tuple on all rows
    of a tie pattern.  A tie pattern whose weight table (typed keys x
    rows x start types) would pass trees.SHAPE_TABLE_FLOATS floats is a
    ValueError naming n_types, k and the size; many types at k >= 3 reach
    it first, since a row has up to n_types^(2k-1) typed keys.
    With radii, one such sum per radius over the rows with every leaf
    height at most it, from one evaluation of each row.
    """
    i0 = kernel.model.index[x0]
    totals = np.zeros(1 if radii is None else len(radii))
    for L, B in batches:
        if len(L):
            vals = _row_values(kernel, L, B, F, i0, with_bias, scale)
            keep = [...] if radii is None else [L.max(axis=1) <= R for R in radii]
            for i, rows in enumerate(keep):
                totals[i] = fold(vals[rows], totals[i])
    return float(totals[0]) if radii is None else totals.tolist()
