"""Continuum limit objects: shape-space integrals, the continuum random
tree moment formula, the Poisson point process representation of its
ultrametric companion, random-walk excursions, and a harness comparing
finite-n moments against their limits.

Conventions.  A continuum k-leaf shape is a point (l, b) with
b[i] < min(l[i], l[i+1]); the flat measure on that region is the limit of
counting shapes, and its ultrametric companion fixes l at all-ones and
lets b range over the unit cube.  Distance matrices carry the factor-two
meet convention throughout, so root distances are the leaf heights and
leaf-to-leaf distances are l_i + l_j - 2 min b.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import moments, spine
from .mmm import phi_values
from .process import _extinction_curve, eigenpair, is_critical, sigma_squared
from .trees import _expand_meets, _per_row, fold, meet_distances, product_batches, shape_values

__all__ = [
    "lambda_k_integral",
    "lambda_tilde_k_integral",
    "LimitQuery",
    "crt_moment",
    "cpp_moment",
    "cpp_monomial_samples",
    "cpp_monomial_mc",
    "sample_excursions",
    "donsker_crt_check",
    "ConvergenceReport",
    "REPORT_COLUMNS",
    "convergence_report",
    "kolmogorov_rows",
]


# midpoints per grid, counted over the whole box of n_cells^dim: a bound
# on time only, since both grids are walked a batch of leaf (or meet)
# cells at a time and never hold the box
_GRID_POINT_LIMIT = 10**7


def _check_step(grid_step):
    if (
        isinstance(grid_step, bool)
        or not isinstance(grid_step, numbers.Real)
        or not 0 < grid_step < math.inf
    ):
        raise ValueError(f"grid_step must be a positive number, got {grid_step!r}")


def _check_grid(n_cells, dim):
    if n_cells**dim > _GRID_POINT_LIMIT:
        raise ValueError(
            f"a {dim}-dimensional grid of {n_cells} cells per axis has "
            f"{n_cells**dim:.3g} points, above the limit of "
            f"{_GRID_POINT_LIMIT:.0e}; use a larger grid_step"
        )


def lambda_k_integral(
    k,
    f,
    R=1.0,
    method="mc",
    n_samples=100_000,
    grid_step=0.01,
    rng=None,
):
    """Integral of f over k-leaf shapes with every leaf height in [0, R].

    f(L, B) is batched: it takes (N, k) leaf heights and (N, k-1) meet
    heights and returns N values.
    method "mc" returns (estimate, stderr) from uniform sampling of the
    bounding box; "grid" returns (midpoint-rule value, 0.0), calling f
    once per trees.product_batches batch of leaf cells.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_step(grid_step)
    dim = 2 * k - 1
    if method == "mc":
        rng = np.random.default_rng(rng)
        L = rng.uniform(0.0, R, size=(n_samples, k))
        B = rng.uniform(0.0, R, size=(n_samples, k - 1))
        idx = np.flatnonzero(np.all(B < np.minimum(L[:, :-1], L[:, 1:]), axis=1))
        vals = np.zeros(n_samples)
        if idx.size:
            vals[idx] = _per_row(f, L[idx], B[idx])
        box = float(R) ** dim
        est = box * float(vals.mean())
        err = box * float(vals.std(ddof=1)) / math.sqrt(n_samples)
        return est, err
    if method == "grid":
        n_cells = max(1, int(round(R / grid_step)))
        _check_grid(n_cells, dim)
        mids = (np.arange(n_cells) + 0.5) * (R / n_cells)
        # below[j] is the number of midpoints less than mids[j] (j unless
        # subnormal cells tie neighbours), so meet cell b is in the region
        # exactly when b < below[min(l_i, l_i+1)]: the walk yields the
        # points, in the order, that masking the whole box keeps
        below = np.searchsorted(mids, mids)
        total = 0.0
        for I in product_batches(0, n_cells, k):
            L, B = _expand_meets(mids[I], below[np.minimum(I[:, :-1], I[:, 1:])])
            total = fold(_per_row(f, L, mids[B]), total)
        return (R / n_cells) ** dim * total, 0.0
    raise ValueError(f"unknown method {method!r}")


def lambda_tilde_k_integral(
    k,
    f,
    method="mc",
    n_samples=100_000,
    grid_step=0.001,
    rng=None,
):
    """Integral of f(ones, b) over meet heights b in the unit cube.

    Same batched integrand as lambda_k_integral, with every leaf height
    one, called once per batch of meet cells on the grid; for k = 1 the
    value is exactly f at the single shape.
    """
    _check_step(grid_step)
    if k == 1:
        return float(_per_row(f, np.ones((1, 1)), np.zeros((1, 0)))[0]), 0.0
    dim = k - 1
    if method == "mc":
        B = np.random.default_rng(rng).uniform(0.0, 1.0, size=(n_samples, dim))
        vals = _per_row(f, np.broadcast_to(np.ones(k), (n_samples, k)), B)
        return float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(n_samples)
    if method == "grid":
        n_cells = max(1, int(round(1.0 / grid_step)))
        _check_grid(n_cells, dim)
        mids = (np.arange(n_cells) + 0.5) / n_cells
        total = 0.0
        for I in product_batches(0, n_cells, dim):
            ones = np.broadcast_to(np.ones(k), (len(I), k))
            total = fold(_per_row(f, ones, mids[I]), total)
        return total / n_cells**dim, 0.0
    raise ValueError(f"unknown method {method!r}")


@dataclass
class LimitQuery:
    """Inputs of a continuum moment: tuple size, test function, variance,
    mark distribution and support radius.

    phi(D, marks) sees the (k+1) x (k+1) distance matrix (row 0 is the
    root) and a k-tuple of mark labels; it must vanish whenever a root
    distance exceeds R.  It is evaluated through mmm.phi_values, so a phi
    with a batched(D, marks) form, as cli.build_phi's carry, is called on
    a stack of matrices at a time.  mark_probs maps labels to
    probabilities; None means a single unmarked class.  A mark law that is
    not finite, nonnegative and summing to 1 within 2**-26 is a ValueError.
    """

    k: int
    phi: object
    sigma_sq: float = 1.0
    mark_probs: dict = field(default=None)
    R: float = 1.0

    def __post_init__(self):
        # Generator.choice's checks, at its tolerance sqrt(eps) = 2**-26,
        # once for every route that reads the mark law; a nan fails the
        # first test, an infinity the second
        if self.mark_probs is not None:
            probs = np.array([self.mark_probs[c] for c in sorted(self.mark_probs)], dtype=float)
            if not ((probs >= 0).all() and abs(probs.sum() - 1.0) <= 2**-26):
                raise ValueError(
                    f"mark_probs must be finite, nonnegative and sum to 1: {self.mark_probs}"
                )


def _type_tuples(labels, probs, k):
    """Every k-tuple of labels, in product order, with its probability."""
    out = []
    for combo in itertools.product(labels, repeat=k):
        p = 1.0
        for c in combo:
            p *= probs[c]
        out.append((combo, p))
    return out


# points per batched distance build in _symmetrized_integrand: bounds its memory
_INTEGRAND_CHUNK = 1024


def _symmetrized_integrand(query):
    if query.mark_probs is None:
        marks = [((None,) * query.k, 1.0)]
    else:
        marks = _type_tuples(sorted(query.mark_probs), query.mark_probs, query.k)
    perms = [
        np.array((0,) + s) for s in itertools.permutations(range(1, query.k + 1))
    ]

    def g(L, B):
        out = np.empty(len(L))
        for s in range(0, len(L), _INTEGRAND_CHUNK):
            chunk = slice(s, s + _INTEGRAND_CHUNK)
            n = len(out[chunk])
            root = np.zeros((n, 1))  # height 0, meets leaf 1 at 0
            D = meet_distances(np.hstack([root, L[chunk]]), np.hstack([root, B[chunk]]))
            # leaf order by leaf order, mark tuple by mark tuple
            out[chunk] = fold(
                p * phi_values(query.phi, Dp, [mk] * n)
                for Dp in (D[:, perm[:, None], perm] for perm in perms)
                for mk, p in marks
            )
        return out

    return g


def crt_moment(query, method="grid", n_samples=200_000, grid_step=0.02, rng=None):
    """Continuum tree moment: (sigma^2/2)^(k-1) times the shape integral of
    phi summed over leaf orderings, with marks drawn independently.

    Returns (value, stderr); stderr is 0.0 for the grid method.  The shape
    integral is truncated at leaf heights R, which is exact as long as phi
    vanishes beyond that radius.  phi is called leaf order by leaf order
    and mark tuple by mark tuple on a chunk of points at a time, not
    point by point.
    """
    g = _symmetrized_integrand(query)
    val, err = lambda_k_integral(
        query.k,
        g,
        R=query.R,
        method=method,
        n_samples=n_samples,
        grid_step=grid_step,
        rng=rng,
    )
    pref = (query.sigma_sq / 2.0) ** (query.k - 1)
    return pref * val, pref * err


def cpp_moment(query, grid_step=0.001):
    """Moment of the ultrametric companion: (sigma^2/2)^k times the unit-cube
    integral of phi over meet heights, summed over leaf orderings.

    Deterministic midpoint rule; leaf heights are pinned at one, so the
    root sits at distance one from every point.  phi is called as in
    crt_moment.
    """
    g = _symmetrized_integrand(query)
    val, _ = lambda_tilde_k_integral(query.k, g, method="grid", grid_step=grid_step)
    return (query.sigma_sq / 2.0) ** query.k * val


def _position_keys(combs, t):
    # exact: rng.random's t is a multiple of 2^-53; combs below 1023 keep keys below 2^63
    return (combs << 53) | (t * 2.0**53).astype(np.int64)


def _draw_combs(rng, a, k, m):
    """m combs' lengths Z, Gamma(k + 1) (the exponential length size-biased
    by Z^k), then their atom counts, position fractions and depth uniforms.
    Returns Z, the sorted atom keys and their depths: the uniforms are
    i.i.d., so they go to the sorted atoms as drawn."""
    Z = rng.standard_gamma(k + 1, size=m)
    combs = np.arange(m, dtype=np.int64).repeat(rng.poisson(Z * (a - 1.0)))
    keys = np.sort(_position_keys(combs, rng.random(len(combs))))
    return Z, keys, _depths(rng.random(len(keys)), a)


def _depths(u, a):
    # inverse of the depth law's distribution function on (1/a, 1]
    return 1.0 / (a - u * (a - 1.0))


def _range_distances(depths, lo, hi):
    """Twice the largest of depths[lo[q]:hi[q]] for each q, zero where the
    range is empty.  One reduceat over the interleaved bounds; depths gets
    a trailing zero so that every bound indexes into it."""
    bounds = np.empty(2 * len(lo), dtype=np.intp)
    bounds[0::2] = lo
    bounds[1::2] = hi
    top = np.maximum.reduceat(np.append(depths, 0.0), bounds)[0::2]
    return np.where(hi > lo, 2.0 * top, 0.0)


# a chunk holds _COMB_CHUNK / max(a comb's expected atoms, its inner
# tuples) combs, 1 to 1023, so O(_COMB_CHUNK) floats on average
_COMB_CHUNK = 2**12


def cpp_monomial_samples(
    query,
    n_samples=100_000,
    eps=1e-3,
    n_inner=8,
    rng=None,
):
    """Per-sample monomial estimates of the comb, as an array.

    Each sample draws the comb, then n_inner uniform k-tuples of positions;
    the estimate per sample is (sigma^2/2)^k k! times the mean of
    phi(D, marks).  The comb's length Z is drawn size-biased by Z^k, so
    this is unbiased for ((sigma^2/2) Z)^k times that mean under the
    exponential length, and bounded where that weight is heavy-tailed
    (per-sample sd 0.21 against 1.07 for the pair indicator at k = 3,
    r = 1, eps 0.1).  Marks are drawn independently per point.  Choose eps
    below half of any distance threshold phi probes (the comb's law below
    depth eps is cut off).  D may be a view into a batch of matrices, so
    phi must not keep it.

    The draws come a block of m combs at a time, in this order: m
    Gamma(k + 1) lengths Z, their Poisson atom counts, a uniform per atom
    for its position as a fraction t of its Z, a uniform per atom for its
    depth, (m, n_inner, k) inner positions as fractions of Z, then (m,
    n_inner, k) marks.  Each atom and point has the exact int64 key
    (comb << 53) | t 2^53; one sort and one searchsorted place every point
    among its comb's atoms.  m is min(samples left, 1023, _COMB_CHUNK over
    the larger of (k + 1)(1/eps - 1) and n_inner), at least one, so the
    bits follow from (query, n_samples, eps, n_inner, rng) and _COMB_CHUNK;
    another _COMB_CHUNK draws other blocks and other bits.  phi is
    evaluated through mmm.phi_values on a block's inner tuples in sample
    order (a plain phi once per tuple, a batched one once per distinct
    mark tuple), and each sample's inner values are summed in order.
    Memory is O(_COMB_CHUNK) floats on average, or one comb's atoms and
    inner points when that is more, whatever n_samples and eps are.
    """
    k = query.k
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k!r}")
    if n_inner < 1:
        raise ValueError(f"n_inner must be at least 1, got {n_inner!r}")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    rng = np.random.default_rng(rng)
    ests = np.empty(n_samples)
    done = 0
    while done < n_samples:
        chunk = _comb_chunk(query, rng, 1.0 / eps, n_inner, n_samples - done)
        ests[done : done + len(chunk)] = chunk
        done += len(chunk)
    return ests


def _comb_chunk(query, rng, a, n_inner, most):
    """The estimates of the next block of samples, at most `most`."""
    k = query.k
    m = min(most, 1023, max(1, int(_COMB_CHUNK / max((k + 1) * (a - 1.0), n_inner))))
    _, keys, depths = _draw_combs(rng, a, k, m)
    combs = np.arange(m, dtype=np.int64)[:, None, None]
    # atoms lo < position <= hi lie in [index(lo), index(hi))
    idx = keys.searchsorted(_position_keys(combs, rng.random((m, n_inner, k))), side="right")
    idx = idx.reshape(m * n_inner, k)
    if query.mark_probs is None:
        mks = [(None,) * k] * (m * n_inner)
    else:
        labels = sorted(query.mark_probs)
        # Generator.choice's cdf and draw, once per block; LimitQuery
        # made its checks
        cdf = np.array([query.mark_probs[c] for c in labels], dtype=float).cumsum()
        cdf /= cdf[-1]
        marks = cdf.searchsorted(rng.random((m * n_inner, k)), side="right")
        # a row of label indices, read as a number in base len(labels), is
        # the place of its tuple in product order
        table = list(itertools.product(labels, repeat=k))
        codes = marks @ len(labels) ** np.arange(k - 1, -1, -1)
        mks = list(map(table.__getitem__, codes.tolist()))
    # leaf pairs i < j; D holds leaf i in row i + 1, the root in row 0
    I, J = np.triu_indices(k, 1)
    left, right = idx[:, I].reshape(-1), idx[:, J].reshape(-1)
    d = _range_distances(depths, np.minimum(left, right), np.maximum(left, right))
    D = np.zeros((m * n_inner, k + 1, k + 1))
    D[:, 0, 1:] = D[:, 1:, 0] = 1.0
    D[:, I + 1, J + 1] = D[:, J + 1, I + 1] = d.reshape(m * n_inner, len(I))
    vals = phi_values(query.phi, D, mks).reshape(m, n_inner)
    return (query.sigma_sq / 2.0) ** k * math.factorial(k) * (fold(vals.T) / n_inner)


def cpp_monomial_mc(query, n_samples=100_000, eps=1e-3, n_inner=8, rng=None):
    """Monte Carlo k-th monomial of the comb: (estimate, stderr); the
    stderr needs n_samples >= 2."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be at least 2, got {n_samples!r}")
    ests = cpp_monomial_samples(
        query, n_samples=n_samples, eps=eps, n_inner=n_inner, rng=rng
    )
    # moments about the first sample: exact, with stderr 0, when every
    # sample is equal, as they are for a phi blind to the comb
    dev = ests - ests[0]
    return float(ests[0] + dev.mean()), float(dev.std(ddof=1)) / math.sqrt(len(ests))


def sample_excursions(n_excursions, n_steps, rng=None):
    """Uniform nonnegative simple-walk excursions, as height rows.

    n_steps must be even, 2m; each row holds the 2m+1 heights of a walk
    with m up and m down steps, nonnegative throughout, zero at both ends,
    uniform among all such walks.  Built by rotating a uniformly shuffled
    step sequence with one extra down step at its first minimum, then
    dropping that step.  The draws are one (n_excursions, n_steps + 1)
    block of uniforms, one key per step.
    """
    if n_steps % 2 or n_steps <= 0:
        raise ValueError("n_steps must be positive and even")
    m = n_steps // 2
    rng = np.random.default_rng(rng)
    n = 2 * m + 1
    # one uniform key per step, the first m steps up: the steps sorted by
    # key are a uniform shuffle.  The keys are multiples of 2^-53, so
    # keys * 2^53 is an exact integer; shifted up one bit, it carries the
    # step in its low bit, and one sort of the packed keys gives the
    # shuffled steps (tied keys, about n^2 / 2^54 likely per row, have
    # no defined order in an argsort either)
    packed = rng.random((n_excursions, n))
    packed *= 2.0**53
    packed = packed.astype(np.int64)
    packed <<= 1
    packed[:, :m] |= 1
    packed.sort(axis=1)
    c = np.cumsum((packed & 1).astype(np.int32) * 2 - 1, axis=1, dtype=np.int32)
    # the walk rotated to start after its first minimum j: heights c - c[j]
    # up to the end, where it reads -1 - c[j], then on from there
    j = np.argmin(c, axis=1).tolist()
    out = np.zeros((n_excursions, n_steps + 1), dtype=np.int32)
    for r, jr in enumerate(j):
        out[r, 1 : n - jr] = c[r, jr + 1 :] - c[r, jr]
        out[r, n - jr :] = c[r, :jr] - (c[r, jr] + 1)
    return out


# excursions per sample_excursions call of donsker_crt_check, a memory
# bound; the draws do not depend on it
_DONSKER_BATCH = 250


def donsker_crt_check(
    R=1.0,
    sigma_sq=1.0,
    n_excursions=10_000,
    n_steps=10_000,
    l_max=300.0,
    rng=None,
):
    """Estimate the k = 1 continuum tree moment from rescaled walk excursions.

    The test function is the indicator of root distance <= R, whose limit
    moment equals R.  Excursion lengths are importance-sampled
    proportionally to 1/sqrt(l) up to l_max and each excursion contributes
    its occupation sum; the walk is rescaled diffusively and distances
    carry the 2/sigma factor that turns the excursion into the continuum
    tree's contour.  Returns (estimate, stderr).  The l_max truncation
    biases the estimate low by about 2 u^2 / sqrt(2 pi l_max) with
    u = R sigma / 2.
    """
    rng = np.random.default_rng(rng)
    sigma = math.sqrt(sigma_sq)
    a = 2.0 / sigma
    N = n_excursions
    u = (np.arange(N) + rng.random(N)) / N
    lengths = l_max * u**2
    weights = np.sqrt(l_max / (2.0 * math.pi)) / lengths
    ests = np.empty(N)
    for start in range(0, N, _DONSKER_BATCH):
        stop = min(start + _DONSKER_BATCH, N)
        S = sample_excursions(stop - start, n_steps, rng)
        scale = a * np.sqrt(lengths[start:stop] / n_steps)
        H = S[:, :n_steps] * scale[:, None]
        occ = (H <= R).astype(float).sum(axis=1) * (lengths[start:stop] / n_steps)
        ests[start:stop] = a * weights[start:stop] * occ
    return float(ests.mean()), float(ests.std(ddof=1)) / math.sqrt(N)


@dataclass
class ConvergenceReport:
    """Rows (keyed by REPORT_COLUMNS) of finite-size values against their
    limit, plus run diagnostics."""

    rows: list
    critical: bool
    perron: float
    sigma_sq: float


REPORT_COLUMNS = ("n", "observed", "limit", "rel_error", "path", "order")


def _observed_orders(rows):
    """Set each row's "order", ln(e_prev / e) / ln(n / n_prev) with e the
    rel_error, against the previous row of the same path; None on the first
    row of a path, where either error is missing or 0, where either n is 0
    (survival rows take n = 0) or where the two n are equal."""
    last = {}
    for row in rows:
        prev = last.get(row["path"])
        row["order"] = None
        if (
            prev
            and prev["rel_error"] and row["rel_error"]
            and prev["n"] and row["n"] and prev["n"] != row["n"]
        ):
            row["order"] = math.log(prev["rel_error"] / row["rel_error"]) / math.log(
                row["n"] / prev["n"]
            )
        last[row["path"]] = row
    return rows


def kolmogorov_rows(model, n_values, x0, eig, sig2):
    """Report rows of the scaled survival n * P_x(alive at n) against its
    Kolmogorov limit 2 h(x) / sigma^2, one per (n, type) in increasing n,
    or per n for x0 alone when x0 is not None.  eig and sig2 are the
    model's eigenpair and branching variance; limits are left empty when
    the model is not critical or sigma^2 vanishes.  Each type is a path of
    its own for the observed order."""
    shown = is_critical(eig) and sig2 > 0
    curve = _extinction_curve(model, n_values)
    rows = []
    for n in sorted(set(n_values)):
        for x in [x0] if x0 is not None else model.types:
            obs = n * (1.0 - curve[n][x])
            limit = 2.0 * float(eig.h[model.index[x]]) / sig2 if shown else None
            rows.append(
                {
                    "n": n,
                    "observed": obs,
                    "limit": limit,
                    "rel_error": abs(obs - limit) / limit if limit else None,
                    "path": f"kolmogorov:{x}",
                }
            )
    return _observed_orders(rows)


def _mark_average(F, types):
    """Batched integrand: p * F folded over the leaf-type tuples of types,
    in order.  Each tuple is evaluated on its own by trees.shape_values, so
    memory holds a few arrays over a batch of grid points at a time, not
    one per tuple."""

    def mark_avg(L, B):
        return fold(p * shape_values(F, L, B, [(lt, None)])[0] for lt, p in types)

    return mark_avg


def _limit_integral(k, F, types, R, mode, grid_step):
    """Grid shape integral of the mark average of F: over shapes of
    height at most R ("rescaled") or over unit-cube meets ("ultrametric")."""
    mark_avg = _mark_average(F, types)
    if mode == "rescaled":
        step = grid_step if grid_step is not None else (0.02 if k > 1 else 1e-4)
        return lambda_k_integral(k, mark_avg, R=R, method="grid", grid_step=step)[0]
    step = grid_step if grid_step is not None else 1e-3
    return lambda_tilde_k_integral(k, mark_avg, method="grid", grid_step=step)[0]


def convergence_report(
    model,
    k,
    F,
    n_values,
    x0,
    R=1.0,
    mode="rescaled",
    grid_step=None,
    kolmogorov_ns=(),
):
    """Finite-n rescaled moments against the continuum limit, as report rows.

    mode "rescaled" compares n times the height-truncated rescaled moment
    with h(x0) (sigma^2/2)^(k-1) times the shape integral of F, averaged
    over independent leaf marks; mode "ultrametric" does the same over
    generation-n tuples against the unit-cube meet integral.  F is a shape
    functional F(shape, leaf_types, branch_types), evaluated on the finite
    side and on the limit grid by trees.shape_values; it must ignore
    branch types (the limit passes None), and for "rescaled" it must
    vanish on shapes higher than R.  Through a batched(L, B, lt) form, as
    the functionals of cli.build_functional carry, the limit makes one
    call per leaf-type tuple on each batch of grid points.  Kolmogorov
    survival rows are appended for the given generations.  Each row's
    "order" is its observed convergence order against the previous row of
    its path (_observed_orders).  Off criticality the limit columns are
    left empty.  An unknown mode, k < 1 or an R that is negative or not
    finite is a ValueError.
    """
    if mode not in ("rescaled", "ultrametric"):
        raise ValueError(f"unknown mode {mode!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k!r}")
    if not 0.0 <= R < math.inf:
        raise ValueError(f"R must be a finite nonnegative number, got {R!r}")
    eig = eigenpair(model)
    sig2 = sigma_squared(model, eig)
    critical = is_critical(eig)
    kernel = spine.build_kernel(model, eig.h)
    hx = float(eig.h[model.index[x0]])

    limit = None
    if critical:
        pi = {x: float(eig.pi[i]) for i, x in enumerate(model.types)}
        types = _type_tuples(model.types, pi, k)
        integral = _limit_integral(k, F, types, R, mode, grid_step)
        limit = hx * (sig2 / 2.0) ** (k - 1) * integral

    rows = []
    for n in n_values:
        if mode == "rescaled":
            obs = n * moments.rescaled_moment(model, k, F, n, x0, R=R, kernel=kernel)
        else:
            obs = n * moments.ultrametric_moment(model, k, F, n, x0, kernel=kernel)
        rel = None if limit in (None, 0.0) else abs(obs - limit) / abs(limit)
        rows.append(
            {
                "n": n,
                "observed": obs,
                "limit": limit,
                "rel_error": rel,
                "path": f"{mode}:k={k}",
            }
        )
    rows = _observed_orders(rows) + kolmogorov_rows(model, kolmogorov_ns, x0, eig, sig2)
    return ConvergenceReport(
        rows=rows, critical=critical, perron=eig.perron, sigma_sq=sig2
    )
