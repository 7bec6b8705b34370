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
import json
import math

import numpy as np

from .process import eigenpair

__all__ = [
    "SpineKernel",
    "build_kernel",
    "elementary_symmetric",
    "delta_k",
    "q_expectation",
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
    """All spine quantities of (model, psi), plus power and table caches.

    Attributes
    ----------
    psi : array over types
    m : array of shape (max_brood + 1, n_types); m[d] is the d-th
        factorial-weighted offspring moment, m[0] = 1.
    lam : array; the one-step spine weight m[1] / psi.
    transition : stochastic matrix of the spine chain (rows with m[1] = 0
        are zero).
    chi : dict d -> list over types of {type index tuple: probability};
        the joint subtree-root-type law at a degree-d branch point.  Rows
        with m[d] = 0 are empty.
    """

    def __init__(self, model, psi_values):
        self.model = model
        psi = np.asarray(psi_values, dtype=float)
        if psi.shape != (len(model.types),) or np.any(psi <= 0):
            raise ValueError("psi must be a positive vector over the types")
        self.psi = psi
        nt = len(model.types)
        dmax = model.max_brood
        m = np.zeros((dmax + 1, nt))
        m[0] = 1.0
        for i, x in enumerate(model.types):
            for d in range(1, dmax + 1):
                m[d, i] = sum(
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
        if dmax >= 1:
            self.chi[1] = [
                {(j,): P[i, j] for j in range(nt) if P[i, j] > 0}
                for i in range(nt)
            ]
        # biased one-step matrix: diag(lam) times the transition
        self.step = self.lam[:, None] * P
        self._pow = {True: [np.eye(nt)], False: [np.eye(nt)]}
        self._blocks = {}
        self._branch_points = {}

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

    def block_table(self, l, b, biased=True):
        """Assignment table of a block shape over all start types, cached.

        A tuple of (leaf type labels, branch type labels, weights), the
        weights a tuple of floats over start types.  Shapes summed by
        q_expectation read the tables of the blocks above their lowest
        meet, which have fewer leaves, so only those are kept.
        """
        key = (l, b, bool(biased))
        table = self._blocks.get(key)
        if table is None:
            if len(l) == 1:
                table = []
                Mn = self.matrix_power(l[0], biased)
                for y, x in enumerate(self.model.types):
                    vec = Mn[:, y]
                    if biased:
                        vec = vec / self.psi[y]
                    if np.any(vec):
                        table.append(((x,), (), tuple(vec.tolist())))
            else:
                table = [
                    (lt, bt, tuple(vec.tolist()))
                    for (lt, bt), vec in _combine(self, l, b, biased).items()
                ]
            table = self._blocks[key] = tuple(table)
        return table

    def _branch_point(self, s, d, biased):
        """Per branch type y, what a degree-d branch at height s adds, cached.

        None where the branch is impossible, else (chi row items with
        float weights, stem column into y over start types as an array
        and as a list of floats).  The column carries, when biased, the
        correction factor m_d / (d! psi) of the branch point.
        """
        key = (s, d, bool(biased))
        cols = self._branch_points.get(key)
        if cols is None:
            Ms = self.matrix_power(s, biased)
            chi_d = self.chi.get(d, [{}] * len(self.model.types))
            cols = []
            for y, row in enumerate(chi_d):
                col = None
                if row:
                    coef = 1.0
                    if biased:
                        coef = self.m[d, y] / (math.factorial(d) * self.psi[y])
                    if coef != 0.0:
                        col = Ms[:, y] * coef
                if col is None or not np.any(col):
                    cols.append(None)
                else:
                    items = [(z, float(q)) for z, q in row.items()]
                    cols.append((items, col, col.tolist()))
            self._branch_points[key] = cols
        return cols

    def to_json(self):
        """Dump every table for inspection; chi keys become type-label strings."""
        types = self.model.types
        data = {
            "types": list(types),
            "psi": self.psi.tolist(),
            "m": self.m.tolist(),
            "lam": self.lam.tolist(),
            "transition": self.transition.tolist(),
            "chi": {
                str(d): {
                    x: {
                        ",".join(types[t] for t in z): w
                        for z, w in rows[i].items()
                    }
                    for i, x in enumerate(types)
                }
                for d, rows in sorted(self.chi.items())
            },
        }
        return json.dumps(data, indent=2)


def build_kernel(model, psi="unit"):
    """SpineKernel for a named or explicit weight.

    psi may be "unit", "harmonic" (the Perron right eigenvector normalised
    against the left one), a mapping from labels to positive numbers, or a
    positive vector in type order.
    """
    if isinstance(psi, str):
        if psi == "unit":
            vals = np.ones(len(model.types))
        elif psi == "harmonic":
            vals = eigenpair(model).h
        else:
            raise ValueError(f"unknown weight preset {psi!r}")
    elif isinstance(psi, dict):
        vals = np.array([float(psi[x]) for x in model.types])
    else:
        vals = np.asarray(psi, dtype=float)
    return SpineKernel(model, vals)


def delta_k(kernel, marked_tree):
    """Correction factor attached to a typed skeleton tree.

    Product over all vertices of lambda, times m_d / (d! psi lambda) at
    each branch point and 1 / (psi lambda) at each leaf.  Defined only
    when lambda is positive on every vertex type present.
    """
    model = kernel.model
    tree = marked_tree.tree
    marks = marked_tree.marks
    val = 1.0
    for v in tree.vertices:
        i = model.index[marks[v]]
        lam = kernel.lam[i]
        if lam <= 0:
            raise ValueError(
                f"type {marks[v]!r} has zero spine weight; the factor is undefined"
            )
        val *= lam
        d = tree.degrees[v]
        if d >= 2:
            val *= kernel.m[d, i] / (math.factorial(d) * kernel.psi[i] * lam)
        elif d == 0:
            val *= 1.0 / (kernel.psi[i] * lam)
    return val


def _blocks_at_minimum(b):
    s = min(b)
    blocks = []
    start = 0
    for j, bj in enumerate(b):
        if bj == s:
            blocks.append((start, j))
            start = j + 1
    blocks.append((start, len(b)))
    return s, blocks


def _combine(kernel, l, b, biased, i0=None):
    """Table of a shape with two or more leaves, split at its lowest meet.

    Maps (leaf type labels, branch type labels) to the spine-tree
    probability of seeing those types on the shape, multiplied (when
    biased) by the full correction factor of the typed skeleton.  The
    blocks above the lowest meet come from the kernel's block tables and
    are combined at the branch point, mirroring the first-branch
    decomposition of trees.  Values are vectors over start types, or the
    floats at start type index i0 when it is given.
    """
    s, blocks = _blocks_at_minimum(b)
    subtables = [
        kernel.block_table(
            tuple(x - s - 1 for x in l[a : c + 1]),
            tuple(x - s - 1 for x in b[a:c]),
            biased,
        )
        for a, c in blocks
    ]
    types = kernel.model.types
    out = {}
    for y, point in enumerate(kernel._branch_point(s, len(blocks), biased)):
        if point is None:
            continue
        row, col, col_list = point
        if i0 is not None:
            col = col_list[i0]
        at_y = (types[y],)
        for combo in itertools.product(*subtables):
            inner = 0.0
            for z, q in row:
                term = q
                for (_, _, w), zi in zip(combo, z):
                    term *= w[zi]
                    if term == 0.0:
                        break
                inner += term
            if inner == 0.0:
                continue
            lt, bt, _ = combo[0]
            for lt_i, bt_i, _ in combo[1:]:
                lt += lt_i
                bt += at_y + bt_i
            key = (lt, bt)
            prev = out.get(key)
            out[key] = col * inner if prev is None else prev + col * inner
    return out


def q_expectation(kernel, shape, F, x0, with_bias=True):
    """Expectation of F over typed skeletons of a fixed shape.

    F is called as F(shape, leaf_types, branch_types) with type labels in
    planar order; branch_types[i] is the type at the meet of leaves i and
    i+1.  With with_bias=True each term also carries the correction factor
    of the typed skeleton, so that psi(x0) times the result summed over
    shapes gives the k-point moment.  Shapes whose branch degrees the
    model cannot produce contribute zero.
    """
    if not shape.is_discrete:
        raise ValueError("spine expectations need an integer shape")
    i0 = kernel.model.index[x0]
    l, b = shape.leaf_heights, shape.branch_heights
    if len(l) == 1:
        table = {
            (lt, bt): w[i0] for lt, bt, w in kernel.block_table(l, b, with_bias)
        }
    else:
        table = _combine(kernel, l, b, with_bias, i0)
    total = 0.0
    for (lt, bt), w in table.items():
        if w != 0.0:
            total += w * F(shape, lt, bt)
    return total
