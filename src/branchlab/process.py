"""Finite-type branching processes.

A model assigns to each type a finite offspring law: a list of atoms, each
an ordered tuple of child types with a probability.  This module covers
simulation, exact enumeration of all populations up to a horizon, the mean
matrix with its Perron eigenpair, the branching variance, and extinction
probabilities by generation.
"""

import bisect
import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .trees import PlanarTree, fold

__all__ = [
    "Model",
    "MarkedTree",
    "Eigenpair",
    "simulate",
    "enumerate_arrays",
    "mean_matrix",
    "eigenpair",
    "is_critical",
    "sigma_squared",
]

# outcomes per generation above which enumeration refuses, unless the
# caller passes another cap
OUTCOME_CAP = 200_000
# vertex entries that enumeration may write, summed over its generations,
# whatever the cap: the largest enumeration of the tests, the shipped
# configs and the benchmark (asymmetric from A, horizon 4) writes 593,370
_ENUMERATE_VERTEX_LIMIT = 4_000_000


class Model:
    """Offspring laws over a finite type space.

    Parameters
    ----------
    types : sequence of str
        Type labels; order fixes the indexing of all vectors and matrices.
    offspring : dict
        Maps each label to an iterable of (probability, children) pairs,
        children being an ordered tuple of labels.  Probabilities must sum
        to one per type (tolerance 1e-12) and may be Fractions, in which
        case exact enumeration stays exact.
    """

    def __init__(self, types, offspring):
        self.types = tuple(types)
        if len(set(self.types)) != len(self.types):
            raise ValueError("duplicate type labels")
        if set(offspring) != set(self.types):
            raise ValueError("offspring must cover exactly the declared types")
        self.index = {x: i for i, x in enumerate(self.types)}
        laws = {}
        for x in self.types:
            atoms = tuple((p, tuple(cs)) for p, cs in offspring[x])
            if not atoms:
                raise ValueError(f"type {x!r} has no offspring atoms")
            total = sum(p for p, _ in atoms)
            if abs(total - 1) > 1e-12:
                raise ValueError(f"offspring probabilities of {x!r} sum to {total}")
            for p, cs in atoms:
                if p < 0:
                    raise ValueError("negative probability")
                for c in cs:
                    if c not in self.index:
                        raise ValueError(f"unknown child type {c!r}")
            laws[x] = atoms
        self.offspring = laws
        # simulate's draw table per type: the left-to-right float sums of
        # the probabilities (the bits of np.cumsum) without the last one,
        # so a uniform past them all takes the last atom, and per atom its
        # children as (child word suffix, type) pairs
        self._draws = {
            x: (
                list(itertools.accumulate(float(p) for p, _ in atoms))[:-1],
                [tuple(((i,), c) for i, c in enumerate(cs, start=1)) for _, cs in atoms],
            )
            for x, atoms in laws.items()
        }

    @property
    def max_brood(self):
        return max(
            len(cs) for atoms in self.offspring.values() for _, cs in atoms
        )

    def to_json(self):
        data = {
            "types": list(self.types),
            "offspring": {
                x: [
                    {"prob": float(p), "children": list(cs)}
                    for p, cs in self.offspring[x]
                ]
                for x in self.types
            },
        }
        return json.dumps(data, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Parse the JSON schema {"types": [...], "offspring": {label: [{"prob": p, "children": [...]}]}},
        with float probabilities.  Any other shape (types or children not
        a list of strings, offspring not an object of atom lists, an atom
        without exactly "prob" and "children", a "prob" not a JSON number)
        is a ValueError naming the key, its owner and the value's type."""
        data = json.loads(text)
        if not isinstance(data, dict) or set(data) != {"types", "offspring"}:
            raise ValueError("model JSON must have exactly 'types' and 'offspring'")
        types, laws = data["types"], data["offspring"]
        if not _is_labels(types):
            raise _shape_error("model key 'types'", "a list of type labels", types)
        if not isinstance(laws, dict):
            raise _shape_error("model key 'offspring'", "an object of atom lists", laws)
        offspring = {}
        for x, atoms in laws.items():
            if not isinstance(atoms, list):
                raise _shape_error(f"offspring of {x!r}", "a list of atoms", atoms)
            law = []
            for a in atoms:
                if not isinstance(a, dict) or set(a) != {"prob", "children"}:
                    want = "an object with exactly 'prob' and 'children'"
                    raise _shape_error(f"offspring of {x!r}: an atom", want, a)
                p, cs = a["prob"], a["children"]
                if isinstance(p, bool) or not isinstance(p, (int, float)):
                    raise _shape_error(f"offspring of {x!r}: 'prob'", "a number", p)
                if not _is_labels(cs):
                    raise _shape_error(f"offspring of {x!r}: 'children'", "a list of type labels", cs)
                law.append((float(p), tuple(cs)))
            offspring[x] = law
        return cls(tuple(types), offspring)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_json(fh.read())


def _is_labels(value):
    return isinstance(value, list) and all(isinstance(c, str) for c in value)


def _shape_error(where, want, value):
    return ValueError(f"{where} must be {want}, got {type(value).__name__} {value!r}")


@dataclass
class MarkedTree:
    """A planar tree together with a type label on every vertex."""

    tree: PlanarTree
    marks: dict

    def __post_init__(self):
        if set(self.marks) != set(self.tree.degrees):
            raise ValueError("marks must cover exactly the tree's vertices")

    @classmethod
    def _built(cls, tree, marks):
        """A marked tree whose marks cover its vertices by construction;
        takes ownership of both and skips the check."""
        mt = cls.__new__(cls)
        mt.tree = tree
        mt.marks = marks
        return mt


@dataclass
class Eigenpair:
    """Perron data of the mean matrix.

    h and pi are the right and left eigenvectors in model type order,
    normalised so that pi sums to one and pi . h = 1.
    """

    h: np.ndarray
    pi: np.ndarray
    perron: float


# vertices are tuple words in two dicts, about 430 bytes each, so a tree
# at the limit takes about 45 MB; the largest tree the tests, the shipped
# configs and the benchmark draw has under a thousand vertices
_SIMULATE_VERTEX_LIMIT = 10**5


def _check_start(model, x0, n_gen=0):
    """ValueError for a negative n_gen or an x0 that is not a model type."""
    if n_gen < 0:
        raise ValueError(f"n_gen must be nonnegative, got {n_gen!r}")
    if x0 not in model.types:
        raise ValueError(f"unknown start type {x0!r}")


def simulate(model, x0, n_gen, rng=None):
    """Sample a population tree run for n_gen generations from one x0 ancestor.

    Vertices in generation n_gen are recorded with out-degree zero; their
    offspring are not sampled.  rng may be a seed or a numpy Generator.
    The draws are one uniform per vertex below generation n_gen,
    generation by generation, each generation in planar order; a vertex
    takes the first atom whose cumulative probability exceeds its uniform,
    and the last atom when no float sum does.  Raises ValueError for a
    negative n_gen or an unknown x0, and as soon as a generation takes the
    tree past _SIMULATE_VERTEX_LIMIT vertices.
    """
    _check_start(model, x0, n_gen)
    rng = np.random.default_rng(rng)
    draws = model._draws
    degrees = {}
    marks = {(): x0}
    frontier = [((), x0)]
    for gen in range(1, n_gen + 1):
        if not frontier:
            break
        nxt = []
        # one uniform per frontier vertex, the same stream as one call each
        for (v, x), u in zip(frontier, rng.random(len(frontier)).tolist()):
            cum, kids = draws[x]
            cs = kids[bisect.bisect_right(cum, u)]
            degrees[v] = len(cs)
            for i, c in cs:
                w = v + i
                marks[w] = c
                nxt.append((w, c))
        frontier = nxt
        if len(marks) > _SIMULATE_VERTEX_LIMIT:
            raise ValueError(
                f"simulated tree has {len(marks)} vertices by generation {gen}, "
                f"above the limit of {_SIMULATE_VERTEX_LIMIT}; lower n_gen "
                f"(a supercritical model grows without bound)"
            )
    for v, _ in frontier:
        degrees[v] = 0
    return MarkedTree._built(PlanarTree._built(degrees), marks)


def enumerate_arrays(model, x0, n_gen, cap=OUTCOME_CAP):
    """All possible populations up to generation n_gen, as flat arrays.

    Returns (prob, outcome, depth, mark): per outcome its probability, a
    float array if the model holds only floats, else an object array
    (exact for Fractions); per vertex its outcome id, depth and type
    index, outcome by outcome in planar order.  Each generation follows
    every outcome by each combination of atoms for its frontier (its
    deepest vertices, in planar order), the last atom varying fastest,
    and multiplies in their probabilities left to right; an np.repeat
    puts the children right after their frontier parent.  Raises
    ValueError first when a generation has more than `cap` outcomes, or
    when the vertex arrays of all generations would hold more than
    _ENUMERATE_VERTEX_LIMIT entries; refuses n_gen and x0 as simulate does.
    """
    _check_start(model, x0, n_gen)
    _check_outcome_count(model, x0, n_gen, cap)
    atoms = [a for x in model.types for a in model.offspring[x]]
    exact = not all(isinstance(p, float) for p, _ in atoms)
    aprob = np.array([p for p, _ in atoms], dtype=object if exact else float)
    n_atoms = np.array([len(model.offspring[x]) for x in model.types])
    size = np.array([len(cs) for _, cs in atoms])
    mtype = np.min_scalar_type(len(model.types) - 1)
    kids = np.array([model.index[c] for _, cs in atoms for c in cs], dtype=mtype)
    prob, outcome = np.ones(1, dtype=aprob.dtype), np.zeros(1, dtype=np.uint8)
    depth = np.zeros(1, dtype=np.min_scalar_type(n_gen))
    mark = np.array([model.index[x0]], dtype=mtype)
    for g in range(n_gen):
        front = np.flatnonzero(depth == g)
        if not len(front):
            break
        P = len(prob)
        fo, na = outcome[front], n_atoms[mark[front]]
        width = np.bincount(fo, minlength=P)
        pos = np.arange(len(front)) - (np.cumsum(width) - width)[fo]
        # stride[f]: the atom combinations of the frontier after f
        stride, combos = np.empty(len(front), np.int64), np.ones(P, np.int64)
        for i in range(int(width.max()) - 1, -1, -1):
            at = np.flatnonzero(pos == i)
            stride[at] = combos[fo[at]]
            combos[fo[at]] *= na[at]
        # copy each outcome once per combination of its frontier's atoms
        parent = np.repeat(np.arange(P), combos)
        combo = _ranges(np.zeros(P, np.int64), combos)
        count = np.bincount(outcome, minlength=P)[parent]
        take = _ranges(np.searchsorted(outcome, parent), count)
        outcome = np.repeat(np.arange(len(parent), dtype=np.min_scalar_type(len(parent))), count)
        # the copies of frontier vertices: their frontier index and atom
        hit = depth[take] == g
        f, row = np.searchsorted(front, take[hit]), outcome[hit]
        atom = (np.cumsum(n_atoms) - n_atoms)[mark[front[f]]] + combo[row] // stride[f] % na[f]
        prob = prob[parent]
        for i in range(int(width.max())):
            at = np.flatnonzero(pos[f] == i)
            prob[row[at]] = prob[row[at]] * aprob[atom[at]]
        reps = np.ones(len(take), np.int64)
        reps[hit] += size[atom]
        outcome, depth, mark = (np.repeat(a, reps) for a in (outcome, depth[take], mark[take]))
        child = np.ones(len(depth), bool)
        child[np.cumsum(reps) - reps] = False
        depth[child] = g + 1
        mark[child] = kids[_ranges((np.cumsum(size) - size)[atom], size[atom])]
    return prob, outcome, depth, mark


def _ranges(start, count):
    """The concatenation of range(s, s + c) over the pairs (s, c)."""
    end = np.cumsum(count)
    return np.repeat(start - end + count, count) + np.arange(int(count.sum()))


def _check_outcome_count(model, x0, n_gen, cap):
    """ValueError unless every generation up to n_gen has at most `cap`
    outcomes from x0, and the vertex arrays that enumerate_arrays builds
    for those generations hold at most _ENUMERATE_VERTEX_LIMIT entries in
    all.  Generation g has N_x0(g) outcomes holding V_x0(g) vertices in
    all, where N_x(0) = V_x(0) = 1, and an atom of x whose children c
    have (N_c(g - 1), V_c(g - 1)) gives the product of their N_c outcomes
    holding one root each plus the V_c of every child times the N of its
    siblings.  Counts never decrease (every type has an atom), so the
    loop stops at the first generation past a bound, or at the first that
    changes no count, as no later one does; it counts only the types x0
    can reach, so no type grows far beyond that."""
    reach = {x0}
    new = [x0]
    while new:
        new = [c for x in new for _, cs in model.offspring[x] for c in cs if c not in reach]
        reach.update(new)
    counts = dict.fromkeys(reach, (1, 1))
    entries = 0
    for g in range(1, n_gen + 1):
        last, counts = counts, {x: _atom_counts(model.offspring[x], counts) for x in reach}
        outcomes, vertices = counts[x0]
        if outcomes > cap:
            raise ValueError(
                f"enumeration would exceed cap={cap}: generation {g} has "
                f"{outcomes} outcomes; raise the cap or lower the horizon"
            )
        entries += vertices
        if entries > _ENUMERATE_VERTEX_LIMIT:
            raise ValueError(
                f"enumeration would write {entries} vertex entries by generation {g}, "
                f"above the limit of {_ENUMERATE_VERTEX_LIMIT}; lower the horizon"
            )
        if counts == last:
            return


def _atom_counts(atoms, counts):
    """(outcomes, vertices) one generation on from a type with these atoms,
    given the (outcomes, vertices) of each child type before it."""
    outcomes = vertices = 0
    for _, cs in atoms:
        n, v = 1, 0
        for c in cs:
            nc, vc = counts[c]
            n, v = n * nc, v * nc + n * vc
        outcomes += n
        vertices += n + v
    return outcomes, vertices


def mean_matrix(model):
    """M[i, j] = expected number of type-j children of a type-i parent."""
    n = len(model.types)
    M = np.zeros((n, n))
    for i, x in enumerate(model.types):
        for p, cs in model.offspring[x]:
            for c in cs:
                M[i, model.index[c]] += float(p)
    return M


def _is_primitive(M):
    # some power of the support pattern must be strictly positive;
    # (n-1)^2 + 1 is the classical exponent bound
    n = M.shape[0]
    A = (M > 0).astype(int)
    B = A.copy()
    for _ in range((n - 1) ** 2 + 1):
        if B.all():
            return True
        B = ((B @ A) > 0).astype(int)
    return bool(B.all())


def _power_iterate(M):
    n = M.shape[0]
    v = np.ones(n) / n
    for _ in range(100_000):
        w = M @ v
        s = w.sum()
        if s <= 0:
            raise ValueError("mean matrix has a zero power on positive vectors")
        w = w / s
        if np.max(np.abs(w - v)) <= 1e-12:
            return w, float(s)
        v = w
    raise ValueError("power iteration did not reach tolerance 1e-12")


def eigenpair(model):
    """Perron eigenvalue and eigenvectors of the mean matrix.

    Power iteration on both M and its transpose, until successive
    normalised vectors differ by at most 1e-12 (at most 10^5 steps);
    requires the matrix to be irreducible and aperiodic.  Warns when the
    model is not critical (see is_critical).
    """
    M = mean_matrix(model)
    if not _is_primitive(M):
        raise ValueError("mean matrix must be irreducible and aperiodic")
    h, perron = _power_iterate(M)
    pi, _ = _power_iterate(M.T)
    pi = pi / pi.sum()
    h = h / float(pi @ h)
    scale = max(1.0, perron)
    if np.max(np.abs(M @ h - perron * h)) > 1e-10 * scale * max(1.0, h.max()):
        raise ValueError("right eigenvector residual too large")
    if np.max(np.abs(M.T @ pi - perron * pi)) > 1e-10 * scale:
        raise ValueError("left eigenvector residual too large")
    eig = Eigenpair(h=h, pi=pi, perron=perron)
    if not is_critical(eig):
        warnings.warn(
            f"model is not critical: perron root {perron!r}", stacklevel=2
        )
    return eig


CRITICAL_TOL = 1e-9  # the one criticality threshold, read through is_critical


def is_critical(eig):
    """Whether the Perron root of an eigenpair is within CRITICAL_TOL of one."""
    return abs(eig.perron - 1.0) <= CRITICAL_TOL


def sigma_squared(model, eig=None):
    """Branching variance sum_x pi(x) E_x[sum over ordered child pairs of h(c_i) h(c_j)]."""
    if eig is None:
        eig = eigenpair(model)

    def pairs(cs):
        hs = [float(eig.h[model.index[c]]) for c in cs]
        s1 = fold(hs)
        return s1 * s1 - fold(v * v for v in hs)

    return fold(
        float(eig.pi[i]) * fold(float(p) * pairs(cs) for p, cs in model.offspring[x])
        for i, x in enumerate(model.types)
    )


def _extinction_curve(model, n_values):
    want = set(n_values)
    if any(n < 0 for n in want):
        raise ValueError("generations must be nonnegative")
    out = {}
    s = {x: 0.0 for x in model.types}
    if 0 in want:
        out[0] = dict(s)
    for n in range(1, max(want, default=0) + 1):
        s = {
            x: fold(
                float(p) * math.prod(s[c] for c in cs)
                for p, cs in model.offspring[x]
            )
            for x in model.types
        }
        if n in want:
            out[n] = dict(s)
    return out

