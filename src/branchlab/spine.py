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
    """All spine quantities of (model, psi), plus a matrix power cache.

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


def _assignment_table(kernel, l, b, biased):
    """dict (leaf type idxs, branch type idxs) -> weight vector over start types.

    The weight vector entry at x is the spine-tree probability of seeing
    those types on the given shape started from x, multiplied (when
    biased) by the full correction factor of the typed skeleton.  Shapes
    are split at the lowest meet height, mirroring the first-branch
    decomposition of trees.
    """
    nt = len(kernel.model.types)
    if len(l) == 1:
        Mn = kernel.matrix_power(l[0], biased)
        out = {}
        for y in range(nt):
            vec = Mn[:, y]
            if biased:
                vec = vec / kernel.psi[y]
            if np.any(vec):
                out[((y,), ())] = vec
        return out
    s, blocks = _blocks_at_minimum(b)
    d = len(blocks)
    subtables = []
    for a, c in blocks:
        sub_l = tuple(x - s - 1 for x in l[a : c + 1])
        sub_b = tuple(x - s - 1 for x in b[a:c])
        subtables.append(_assignment_table(kernel, sub_l, sub_b, biased))
    Ms = kernel.matrix_power(s, biased)
    chi_d = kernel.chi.get(d, [{}] * nt)
    out = {}
    for y in range(nt):
        row = chi_d[y]
        if not row:
            continue
        if biased:
            coef = kernel.m[d, y] / (math.factorial(d) * kernel.psi[y])
            if coef == 0.0:
                continue
        else:
            coef = 1.0
        col = Ms[:, y] * coef
        if not np.any(col):
            continue
        for combo in itertools.product(*[list(t.items()) for t in subtables]):
            inner = 0.0
            for z, q in row.items():
                term = q
                for (_, vec_i), zi in zip(combo, z):
                    term *= vec_i[zi]
                    if term == 0.0:
                        break
                inner += term
            if inner == 0.0:
                continue
            lt = tuple(
                t for (key_i, _) in combo for t in key_i[0]
            )
            bt_parts = []
            for idx, (key_i, _) in enumerate(combo):
                if idx:
                    bt_parts.append((y,))
                bt_parts.append(key_i[1])
            bt = tuple(t for part in bt_parts for t in part)
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
    model = kernel.model
    table = _assignment_table(
        kernel, shape.leaf_heights, shape.branch_heights, with_bias
    )
    i0 = model.index[x0]
    types = model.types
    total = 0.0
    for (lt, bt), vec in table.items():
        w = float(vec[i0])
        if w != 0.0:
            total += w * F(
                shape,
                tuple(types[t] for t in lt),
                tuple(types[t] for t in bt),
            )
    return total
