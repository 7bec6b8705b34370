"""Workloads of the branchlab benchmark: seeded inputs, jobs and their checks.

A workload is a fixed list of jobs.  Each job draws its inputs from the
workload seed (start type, per-type leaf weights, a radius, a Monte Carlo
seed), writes the config the program reads, runs one call into the
program and checks what comes back.  Every menu a seed draws from was
chosen so that the draw never changes the amount of work: x0 is drawn
only where every start type costs the same, radii only enter as
comparisons, and the weights only scale values.

Checks (any problem marks the job as failed in that pass):

  * exact routes (brute force, shape sum, recursion) agree to 1e-9
    absolute;
  * finite-n exact values match golden.json, recorded from the seed
    commit, to 1e-12 relative.  Golden entries are stored per tuple of
    leaf types, so the value for any drawn weights is a weighted sum of
    recorded numbers;
  * Monte Carlo results are z-gated against closed forms;
  * grid limits are compared with closed forms within a tolerance that
    covers their first-order grid bias, so a later exact limit passes;
  * every pass of a run must reproduce the first pass exactly (CLI output
    bytes with the `git` header masked, library values bit for bit).
"""

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from branchlab import cli, limits, mmm, moments, process

EXACT_ABS = 1e-9
GOLDEN_REL = 1e-12
Z_GATE = 5.0
# brute-force enumeration cap of verify-m2f (the CLI's own default)
VERIFY_CAP = 200_000
# comb sampler: mark cut-off and inner draws per sample
CPP_EPS = 0.1
CPP_N_INNER = 8
# excursion length cut-off of donsker_crt_check
DONSKER_L_MAX = 300.0

MODELS = {
    "binary": {
        "types": ["a"],
        "offspring": {
            "a": [
                {"prob": 0.5, "children": []},
                {"prob": 0.5, "children": ["a", "a"]},
            ]
        },
    },
    "symmetric": {
        "types": ["A", "B"],
        "offspring": {
            "A": [
                {"prob": 0.5, "children": []},
                {"prob": 0.5, "children": ["A", "B"]},
            ],
            "B": [
                {"prob": 0.5, "children": []},
                {"prob": 0.5, "children": ["A", "B"]},
            ],
        },
    },
    "asymmetric": {
        "types": ["A", "B"],
        "offspring": {
            "A": [
                {"prob": 0.25, "children": ["A", "A"]},
                {"prob": 0.25, "children": ["B"]},
                {"prob": 0.5, "children": []},
            ],
            "B": [
                {"prob": 0.5, "children": ["A", "A", "B"]},
                {"prob": 0.5, "children": []},
            ],
        },
    },
}

# Closed-form Perron data per model: h and pi in type order, sigma^2.
CONSTANTS = {
    "binary": ((1.0,), (1.0,), 1.0),
    "symmetric": ((1.0, 1.0), (0.5, 0.5), 1.0),
    "asymmetric": ((0.75, 1.5), (2.0 / 3.0, 1.0 / 3.0), 1.125),
}

WEIGHTS = tuple(0.5 + i / 8 for i in range(9))

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def types_of(model):
    return tuple(MODELS[model]["types"])


def type_tuples(model, k):
    return list(itertools.product(types_of(model), repeat=k))


def weighted(golden, key, weights, k):
    """Value of a golden entry for the given leaf weights."""
    basis = golden[key]
    total = 0.0
    for t, v in basis.items():
        w = 1.0
        for x in t.split(","):
            w *= weights[x]
        total += w * v
    if len(next(iter(basis)).split(",")) != k:
        raise KeyError(f"golden entry {key} has the wrong tuple size")
    return total


def rel_close(value, ref, rel=GOLDEN_REL):
    return abs(value - ref) <= rel * max(abs(ref), 1e-300)


def mask_git(text):
    """CLI output with the per-commit `git` header value removed."""
    out = []
    for line in text.splitlines():
        if line.startswith("# git="):
            line = "# git=*"
        elif line.lstrip().startswith('"git":'):
            line = line.split(":")[0] + ": *"
        out.append(line)
    return "\n".join(out)


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, buf.getvalue()


def z_score(value, ref, stderr):
    if stderr > 0:
        return (value - ref) / stderr
    return 0.0 if value == ref else math.inf


@dataclass
class Inputs:
    x0: str
    weights: dict
    r: float
    mc_seed: int


class Job:
    """One call into the program with seeded inputs and a check.

    Subclasses set `model` (or None), `x0_menu` and `r_menu`, and
    implement configure/run/check.  golden_keys lists the golden entries
    the job reads, for every x0 and radius a seed can draw, as
    (key, k, compute) with compute(types tuple) giving one basis value.
    """

    model = None
    x0_menu = (None,)
    r_menu = (None,)

    def __init__(self, name):
        self.name = name

    def draw(self, rng):
        types = types_of(self.model) if self.model else ("a",)
        x0 = rng.choice(self.x0_menu)
        weights = {t: rng.choice(WEIGHTS) for t in types}
        r = rng.choice(self.r_menu)
        return Inputs(x0, weights, r, rng.randrange(2**31))

    def configure(self, inputs, workdir, ctx):
        self.inp = inputs
        self.workdir = workdir
        self.ctx = ctx

    def write_config(self, cfg):
        path = os.path.join(self.workdir, f"{self.name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, sort_keys=True)
        return path

    def fingerprint(self, result):
        return result

    def golden_keys(self):
        return []


class CliJob(Job):
    """A job that runs one CLI subcommand on its generated config."""

    command = None

    def argv(self):
        return [self.command, "--config", self.path, "--format", "json"]

    def run(self):
        return run_cli(self.argv())

    def fingerprint(self, result):
        return result[0], mask_git(result[1])


def closed_moment_constants(model, x0, weights):
    h, pi, sig2 = CONSTANTS[model]
    types = types_of(model)
    hx = h[types.index(x0)]
    pw = sum(p * weights[t] for p, t in zip(pi, types))
    return hx, pw, sig2


# ----------------------------------------------------------------------
# exact routes


class VerifyJob(CliJob):
    """`verify-m2f`: brute force against the spine shape sum, both weights."""

    command = "verify-m2f"

    def __init__(self, name, model, x0_menu, ks, horizon):
        super().__init__(name)
        self.model = model
        self.x0_menu = tuple(x0_menu)
        self.ks = list(ks)
        self.Rs = list(range(1, horizon + 1))
        self.horizon = horizon

    def configure(self, inputs, workdir, ctx):
        super().configure(inputs, workdir, ctx)
        self.path = self.write_config(
            {
                "model": f"{self.model}.json",
                "x0": inputs.x0,
                "ks": self.ks,
                "Rs": self.Rs,
                "psis": ["unit", "harmonic"],
                "functional": {"name": "count", "weights": inputs.weights},
                "cap": VERIFY_CAP,
                "tol": EXACT_ABS,
            }
        )

    def key(self, x0, k, R):
        return f"bruteforce/{self.model}/{x0}/H={self.horizon}/k={k}/R={R}"

    def check(self, result):
        code, text = result
        problems = [] if code == 0 else [f"exit code {code}"]
        rows = json.loads(text)["rows"]
        if len(rows) != 2 * len(self.ks) * len(self.Rs):
            problems.append(f"{len(rows)} rows")
        for row in rows:
            k, R = row["k"], row["R"]
            bf, ss = row["bruteforce"], row["shape_sum"]
            if not abs(bf - ss) <= EXACT_ABS:
                problems.append(f"k={k} R={R} {row['psi']}: |bf-ss|={abs(bf - ss):.3g}")
            ref = weighted(self.ctx.golden, self.key(self.inp.x0, k, R), self.inp.weights, k)
            if not rel_close(bf, ref):
                problems.append(f"k={k} R={R}: bruteforce {bf!r} != golden {ref!r}")
        return problems

    def golden_keys(self):
        for x0 in self.x0_menu:
            for k in self.ks:
                for R in self.Rs:
                    yield self.key(x0, k, R), k, self._golden_fn(x0, k, R)

    def _golden_fn(self, x0, k, R):
        def compute(t):
            model = process.Model.from_json(json.dumps(MODELS[self.model]))
            bf = moments.BruteForceMoments(model, x0, self.horizon, cap=VERIFY_CAP)
            return bf.moment(k, lambda s, lt, bt: 1.0 if lt == t else 0.0, R)

        return compute


def product_functional(k, stem_r, leaf_r, leaf_weights):
    """Product functional for moment_recursive.

    k = 2: stem [s <= stem_r] into two leaves; k = 3: the right block is
    itself a branch with stem [s <= 0].  leaf_weights lists one
    function of the leaf type per leaf, left to right.
    """
    def stem(s, y, a=stem_r):
        return 1.0 if s <= a else 0.0

    def leaf(wf):
        return moments.PathFunctional(lambda h, y: wf(y) if h <= leaf_r else 0.0)

    leaves = [leaf(wf) for wf in leaf_weights]
    if k == 2:
        return moments.BranchFunctional(stem, leaves)
    inner = moments.BranchFunctional(lambda s, y: 1.0 if s <= 0 else 0.0, leaves[1:])
    return moments.BranchFunctional(stem, (leaves[0], inner))


class RecursionJob(Job):
    """`moment_recursive` on a product functional, optionally against the
    shape sum of the same functional."""

    def __init__(self, name, model, x0_menu, k, stem_r, leaf_menu, R, cross_check):
        super().__init__(name)
        self.model = model
        self.x0_menu = tuple(x0_menu)
        self.r_menu = tuple(leaf_menu)
        self.k = k
        self.stem_r = stem_r
        self.R = R
        self.cross_check = cross_check
        depth = stem_r + 1 + (0 if k == 2 else 1)
        if depth + max(leaf_menu) > R:
            raise ValueError("functional support exceeds R")

    def _functional(self, leaf_weights, leaf_r):
        return product_functional(self.k, self.stem_r, leaf_r, leaf_weights)

    def run(self):
        model = self.ctx.models[self.model]
        w = self.inp.weights
        F = self._functional([lambda y: w[y]] * self.k, int(self.inp.r))
        q = moments.MomentQuery(k=self.k, x0=self.inp.x0, F=F, R=self.R, psi="harmonic")
        rec = moments.moment_recursive(model, q)
        ss = None
        if self.cross_check:
            q2 = moments.MomentQuery(
                k=self.k, x0=self.inp.x0, F=moments.as_functional(F), R=self.R, psi="harmonic"
            )
            ss = moments.moment_m2f(model, q2)
        return rec, ss

    def key(self, x0, r):
        return f"recursive/{self.model}/{x0}/k={self.k}/stem={self.stem_r}/leaf={r}/R={self.R}"

    def check(self, result):
        rec, ss = result
        problems = []
        if ss is not None and not abs(rec - ss) <= EXACT_ABS:
            problems.append(f"|recursive-shape_sum|={abs(rec - ss):.3g}")
        ref = weighted(self.ctx.golden, self.key(self.inp.x0, self.inp.r), self.inp.weights, self.k)
        if not rel_close(rec, ref):
            problems.append(f"recursive {rec!r} != golden {ref!r}")
        return problems

    def golden_keys(self):
        for x0 in self.x0_menu:
            for r in self.r_menu:
                yield self.key(x0, r), self.k, self._golden_fn(x0, r)

    def _golden_fn(self, x0, r):
        def compute(t):
            model = process.Model.from_json(json.dumps(MODELS[self.model]))
            fs = [(lambda y, ti=ti: 1.0 if y == ti else 0.0) for ti in t]
            q = moments.MomentQuery(
                k=self.k, x0=x0, F=self._functional(fs, int(r)), R=self.R, psi="harmonic"
            )
            return moments.moment_recursive(model, q)

        return compute


# ----------------------------------------------------------------------
# rescaled and ultrametric moments against their limits

# First-order bias of the midpoint-rule limit column for the height
# indicator, as a multiple of grid_step / r (measured at the seed commit:
# -1.47 for k = 2, -2.2 to -2.35 for k = 3).  The check allows 1.5 times
# that in either direction.
RESCALED_BIAS = {2: 1.5, 3: 2.4}


class ConvergenceJob(CliJob):
    """`convergence`: exact finite-n moments and the grid limit column."""

    command = "convergence"

    def __init__(self, name, model, x0_menu, k, mode, n_values, grid_step, r_menu):
        super().__init__(name)
        self.model = model
        self.x0_menu = tuple(x0_menu)
        self.k = k
        self.mode = mode
        self.n_values = list(n_values)
        self.grid_step = grid_step
        self.r_menu = tuple(r_menu)
        self.fname = "height_indicator" if mode == "rescaled" else "pair_indicator"

    def configure(self, inputs, workdir, ctx):
        super().configure(inputs, workdir, ctx)
        self.path = self.write_config(
            {
                "model": f"{self.model}.json",
                "x0": inputs.x0,
                "k": self.k,
                "mode": self.mode,
                "n_values": self.n_values,
                "R": 1.0,
                "grid_step": self.grid_step,
                "functional": {"name": self.fname, "r": inputs.r, "weights": inputs.weights},
            }
        )

    def key(self, x0, n, r):
        return f"convergence/{self.model}/{x0}/{self.mode}/k={self.k}/n={n}/{self.fname}={r}"

    def closed_limit(self):
        hx, pw, sig2 = closed_moment_constants(self.model, self.inp.x0, self.inp.weights)
        r = self.inp.r
        if self.mode == "rescaled":
            integral = r**3 / 3 if self.k == 2 else 2 * r**5 / 15
            tol = 1.5 * RESCALED_BIAS[self.k] * self.grid_step / r
        else:
            integral = r / 2
            tol = (self.k - 1) * self.grid_step / (r / 2)
        return hx * (sig2 / 2) ** (self.k - 1) * pw**self.k * integral, tol

    def check(self, result):
        code, text = result
        problems = [] if code == 0 else [f"exit code {code}"]
        rows = json.loads(text)["rows"]
        if [row["n"] for row in rows] != self.n_values:
            problems.append("rows do not match n_values")
        closed, tol = self.closed_limit()
        for row in rows:
            ref = weighted(self.ctx.golden, self.key(self.inp.x0, row["n"], self.inp.r), self.inp.weights, self.k)
            if not rel_close(row["observed"], ref):
                problems.append(f"n={row['n']}: observed {row['observed']!r} != golden {ref!r}")
            limit = row["limit"]
            if limit is None or not abs(limit - closed) <= tol * closed:
                problems.append(f"n={row['n']}: limit {limit!r} vs closed form {closed!r} (tol {tol:.3g})")
        return problems

    def golden_keys(self):
        for x0 in self.x0_menu:
            for r in self.r_menu:
                for n in self.n_values:
                    yield self.key(x0, n, r), self.k, self._golden_fn(x0, n, r)

    def _golden_fn(self, x0, n, r):
        # the same arithmetic as cli.build_functional
        def compute(t):
            model = process.Model.from_json(json.dumps(MODELS[self.model]))
            if self.mode == "rescaled":
                def F(shape, lt, bt):
                    return 1.0 if lt == t and shape.height <= r else 0.0

                return n * moments.rescaled_moment(model, self.k, F, n, x0, R=1.0)

            def F(shape, lt, bt):
                d = shape.leaf_heights[0] + shape.leaf_heights[1] - 2 * shape.branch_heights[0]
                return 1.0 if lt == t and d <= r else 0.0

            return n * moments.ultrametric_moment(model, self.k, F, n, x0)

        return compute


# ----------------------------------------------------------------------
# continuum limits and their samplers


class CppJob(CliJob):
    """`cpp`: comb-sampler Monte Carlo and the grid formula."""

    command = "cpp"

    def __init__(self, name, k, n_samples, grid_step, r_menu):
        super().__init__(name)
        self.k = k
        self.n_samples = n_samples
        self.grid_step = grid_step
        self.r_menu = tuple(r_menu)
        if CPP_EPS >= min(r_menu) / 2:
            raise ValueError("eps must stay below half of every radius")

    def configure(self, inputs, workdir, ctx):
        super().configure(inputs, workdir, ctx)
        self.path = self.write_config(
            {
                "k": self.k,
                "sigma_sq": 1.0,
                "phi": {"name": "pair_indicator", "r": inputs.r},
                "n_samples": self.n_samples,
                "eps": CPP_EPS,
                "n_inner": CPP_N_INNER,
                "grid_step": self.grid_step,
                "z_max": Z_GATE,
            }
        )

    def argv(self, threads=1):
        return super().argv() + ["--seed", str(self.inp.mc_seed), "--threads", str(threads)]

    def closed(self):
        r = self.inp.r
        # (1/2)^k times the ordered-pair sum of the unit-cube indicator
        # integrals: r/2 per adjacent pair, (r/2)^2 for leaves 1 and 3
        return r / 4 if self.k == 2 else r / 4 + r * r / 16

    def check(self, result):
        code, text = result
        problems = [] if code == 0 else [f"exit code {code}"]
        out = json.loads(text)
        closed = self.closed()
        tol = math.factorial(self.k) * 0.5**self.k * (self.k - 1) * self.grid_step
        if not abs(out["formula"] - closed) <= tol:
            problems.append(f"formula {out['formula']!r} vs closed form {closed!r}")
        z = z_score(out["estimate"], closed, out["stderr"])
        if not abs(z) <= Z_GATE:
            problems.append(f"estimate {out['estimate']!r} z={z:.2f} against {closed!r}")
        return problems


def root_indicator(r):
    return lambda D, marks: 1.0 if D[0, 1] <= r and D[0, 2] <= r else 0.0


class CrtJob(Job):
    """`crt_moment` at k = 2 for the root-distance indicator, closed form r^3/3."""

    def __init__(self, name, method, r_menu, n_samples=None, grid_step=None):
        super().__init__(name)
        self.method = method
        self.r_menu = tuple(r_menu)
        self.n_samples = n_samples
        self.grid_step = grid_step

    def run(self):
        q = limits.LimitQuery(k=2, phi=root_indicator(self.inp.r), R=1.0)
        if self.method == "mc":
            return limits.crt_moment(
                q, method="mc", n_samples=self.n_samples, rng=self.inp.mc_seed
            )
        return limits.crt_moment(q, method="grid", grid_step=self.grid_step)

    def check(self, result):
        value, stderr = result
        closed = self.inp.r**3 / 3
        if self.method == "mc":
            z = z_score(value, closed, stderr)
            return [] if abs(z) <= Z_GATE else [f"{value!r} z={z:.2f} against {closed!r}"]
        # first-order grid bias, about -1.9 grid_step / r at the seed commit
        tol = 3.0 * self.grid_step / self.inp.r
        if not abs(value - closed) <= tol * closed:
            return [f"{value!r} vs closed form {closed!r} (tol {tol:.3g})"]
        return []


class DonskerJob(Job):
    """`donsker_crt_check`: excursion estimate of the k = 1 moment, which is R."""

    def __init__(self, name, n_excursions, n_steps, r_menu):
        super().__init__(name)
        self.n_excursions = n_excursions
        self.n_steps = n_steps
        self.r_menu = tuple(r_menu)

    def run(self):
        return limits.donsker_crt_check(
            R=self.inp.r,
            n_excursions=self.n_excursions,
            n_steps=self.n_steps,
            l_max=DONSKER_L_MAX,
            rng=self.inp.mc_seed,
        )

    def check(self, result):
        value, stderr = result
        r = self.inp.r
        # documented truncation bias 2 u^2 / sqrt(2 pi l_max), u = R sigma / 2
        bias = 2 * (r / 2) ** 2 / math.sqrt(2 * math.pi * DONSKER_L_MAX)
        if not abs(value - r) <= Z_GATE * stderr + bias:
            return [f"{value!r} +- {stderr:.3g} against {r!r}"]
        return []


# ----------------------------------------------------------------------
# simulation and metric-measure statistics


class SimulateJob(Job):
    """`process.simulate` trees to generation G, each reduced by
    `mmm.generation_slice` and a k = 2 `mmm.monomial`; small trees also go
    through `mmm.tree_to_mmm`.

    Trees are drawn until the pass has consumed `budget` work units, so
    the work per pass does not depend on the seed beyond the last tree.
    A unit is the cost of simulating one vertex; the per-tree, per-slice
    point and per-tuple weights in `units` are the costs measured at the
    seed commit (115, 25 and 6 us against 7.9 us per vertex).  Checks:
    the mean weighted generation size against many_to_one (golden), the
    mean weighted pair count within radius r against G^2 times
    ultrametric_moment (live and golden), and the slice distances
    against tree_to_mmm distances.
    """

    subset_max_vertices = 150

    @staticmethod
    def units(vertices, slice_points):
        return 15 + vertices + 3 * slice_points + 0.8 * slice_points**2

    def __init__(self, name, model, x0, G, budget, subset_budget, r_menu):
        super().__init__(name)
        self.model = model
        self.x0_menu = (x0,)
        self.G = G
        self.budget = budget
        self.subset_budget = subset_budget
        self.r_menu = tuple(r_menu)

    def size_key(self, x0):
        return f"many_to_one/{self.model}/{x0}/G={self.G}"

    def pair_key(self, x0, r):
        return f"pairs/{self.model}/{x0}/G={self.G}/r={r}"

    def _pair_functional(self, weights, r):
        def F(shape, lt, bt):
            d = shape.leaf_heights[0] + shape.leaf_heights[1] - 2 * shape.branch_heights[0]
            return weights(lt) if d <= r else 0.0

        return F

    def configure(self, inputs, workdir, ctx):
        super().configure(inputs, workdir, ctx)
        model = ctx.models[self.model]
        w = inputs.weights
        G = self.G
        self.size_ref = weighted(ctx.golden, self.size_key(inputs.x0), w, 1)
        F = self._pair_functional(lambda lt: w[lt[0]] * w[lt[1]], inputs.r)
        kernel = moments.build_kernel(model, "harmonic")
        live = G * G * moments.ultrametric_moment(model, 2, F, G, inputs.x0, kernel=kernel)
        self.pair_ref = live
        golden = weighted(ctx.golden, self.pair_key(inputs.x0, inputs.r), w, 2)
        self.ref_problems = [] if rel_close(live, golden) else [f"pair reference {live!r} != golden {golden!r}"]

    def run(self):
        model = self.ctx.models[self.model]
        x0, G, r = self.inp.x0, self.G, self.inp.r
        w = self.inp.weights

        def phi(D, marks):
            return w[marks[0]] * w[marks[1]] if D[1, 2] <= r else 0.0

        rng = np.random.default_rng(self.inp.mc_seed)
        n = subset_units = subset = 0
        units = 0.0
        sx = sxx = sy = syy = 0.0
        worst = 0.0
        while units < self.budget:
            t = process.simulate(model, x0, G, rng=rng)
            size = t.tree.size
            sl = mmm.generation_slice(t, G)
            marks = sl.mark[1:]
            m = len(marks)
            value, _ = mmm.monomial(sl, 2, phi)
            x = sum(w[c] for c in marks)
            y = (value - sum(w[c] ** 2 for c in marks)) / 2
            n += 1
            sx += x
            sxx += x * x
            sy += y
            syy += y * y
            units += self.units(size, m)
            if m and size <= self.subset_max_vertices and subset_units < self.subset_budget:
                sp = mmm.tree_to_mmm(t, edge_scale=1.0 / G)
                idx = [0] + [i for i, v in enumerate(t.tree.vertices) if len(v) == G]
                worst = max(worst, float(np.abs(sp.dist[np.ix_(idx, idx)] - sl.dist).max()))
                subset += 1
                subset_units += size * size
        return n, units, sx, sxx, sy, syy, subset, worst

    def check(self, result):
        n, units, sx, sxx, sy, syy, subset, worst = result
        problems = list(self.ref_problems)
        for label, s, ss, ref in (("size", sx, sxx, self.size_ref), ("pairs", sy, syy, self.pair_ref)):
            mean = s / n
            var = max(ss - n * mean * mean, 0.0) / (n - 1)
            z = z_score(mean, ref, math.sqrt(var / n))
            if not abs(z) <= Z_GATE:
                problems.append(f"{label}: mean {mean:.6g} over {n} trees, z={z:.2f} against {ref:.6g}")
        if subset == 0 or not worst <= 1e-12:
            problems.append(f"tree_to_mmm vs slice: {subset} trees, max diff {worst:.3g}")
        return problems

    def golden_keys(self):
        for x0 in self.x0_menu:
            yield self.size_key(x0), 1, self._size_fn(x0)
            for r in self.r_menu:
                yield self.pair_key(x0, r), 2, self._pair_fn(x0, r)

    def _size_fn(self, x0):
        def compute(t):
            model = process.Model.from_json(json.dumps(MODELS[self.model]))
            kernel = moments.build_kernel(model, "unit")
            return moments.many_to_one(kernel, x0, self.G, lambda path: 1.0 if path[-1] == t[0] else 0.0)

        return compute

    def _pair_fn(self, x0, r):
        def compute(t):
            model = process.Model.from_json(json.dumps(MODELS[self.model]))
            F = self._pair_functional(lambda lt: 1.0 if lt == t else 0.0, r)
            return self.G**2 * moments.ultrametric_moment(model, 2, F, self.G, x0)

        return compute


# ----------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    jobs: list
    largest: str  # the named heaviest job, reported as largest_case_s
    models: tuple


def workloads(small=False):
    """The three workloads; small=True shrinks every job for the self-test."""
    s = small
    height_r = (0.7, 0.8, 0.9)  # grid-aligned limits, never l/n for the n used
    pair_r = (0.75, 0.85, 0.95)  # never a finite-n pair distance
    exact = Workload(
        "exact_verify",
        [
            VerifyJob("verify_binary_R4", "binary", ["a"], [1, 2], 3 if s else 4),
            VerifyJob("verify_symmetric_R4", "symmetric", ["A", "B"], [1, 2], 3 if s else 4),
            VerifyJob("verify_binary_k3", "binary", ["a"], [1, 2, 3], 3),
            VerifyJob("verify_symmetric_k3", "symmetric", ["A", "B"], [1, 2, 3], 3),
            VerifyJob("verify_asymmetric_k3", "asymmetric", ["A"], [1, 2, 3], 3),
            VerifyJob("verify_asymmetric_B_k1", "asymmetric", ["B"], [1], 2 if s else 3),
            RecursionJob("recursion_symmetric_k2", "symmetric", ["A", "B"], 2, 1, (1, 2), 4, True),
            RecursionJob("recursion_asymmetric_k3", "asymmetric", ["A", "B"], 3, 1, (0, 1), 4, True),
        ],
        largest="verify_symmetric_R4",
        models=("binary", "symmetric", "asymmetric"),
    )
    rescaled = Workload(
        "rescaled_sweep",
        [
            ConvergenceJob("conv_binary_k2", "binary", ["a"], 2, "rescaled", [12] if s else [12, 24], 0.05, height_r),
            ConvergenceJob("conv_symmetric_k2", "symmetric", ["A", "B"], 2, "rescaled", [12] if s else [12, 24], 0.05, height_r),
            ConvergenceJob("conv_binary_k3", "binary", ["a"], 3, "rescaled", [4] if s else [4, 6], 0.1, height_r),
            ConvergenceJob("conv_symmetric_k3", "symmetric", ["A", "B"], 3, "rescaled", [4] if s else [4, 6], 0.1, height_r),
            ConvergenceJob("ultra_asymmetric_k2", "asymmetric", ["A", "B"], 2, "ultrametric", [25, 50] if s else [25, 50, 100], 1e-3, pair_r),
            ConvergenceJob("ultra_asymmetric_k3", "asymmetric", ["A", "B"], 3, "ultrametric", [10], 0.01, pair_r),
            RecursionJob("recursion_symmetric_R40", "symmetric", ["A", "B"], 2, 19, (19, 20), 40, False),
        ],
        largest="conv_symmetric_k3",
        models=("binary", "symmetric", "asymmetric"),
    )
    # the Monte Carlo routes share one workload: comb sampler, integrators
    # and excursions in limits, simulate in process, and mmm
    mc = Workload(
        "comb_mc",
        [
            CppJob("cpp_k2", 2, 1000 if s else 4000, 1e-3, (0.8, 1.0, 1.2)),
            CppJob("cpp_k3", 3, 500 if s else 3000, 0.01, (0.8, 1.0, 1.2)),
            CrtJob("crt_mc", "mc", (0.8, 0.9, 1.0), n_samples=10_000 if s else 30_000),
            CrtJob("crt_grid", "grid", (0.8, 0.9, 1.0), grid_step=0.05 if s else 0.025),
            DonskerJob("donsker", 500 if s else 1500, 1000 if s else 2000, (0.8, 1.0, 1.2)),
            SimulateJob("simulate_binary", "binary", "a", 20, 20_000 if s else 80_000, 5_000 if s else 40_000, (0.75, 1.05, 1.35)),
            SimulateJob("simulate_asymmetric", "asymmetric", "A", 20, 20_000 if s else 80_000, 5_000 if s else 40_000, (0.75, 1.05, 1.35)),
        ],
        largest="cpp_k3",
        models=("binary", "asymmetric"),
    )
    return {w.name: w for w in (exact, rescaled, mc)}


class Context:
    """What set-up hands the jobs: loaded models and golden values."""

    def __init__(self, models, golden):
        self.models = models
        self.golden = golden


def setup(workload, seed, workdir):
    """Write models and configs, load them, check the Perron data.

    Returns (context, problems); problems lists any mismatch between the
    program's eigenpair and the closed-form constants.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    draws = [job.draw(rng) for job in workload.jobs]
    golden = load_golden()
    models, problems = {}, []
    for name in workload.models:
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(MODELS[name], fh, sort_keys=True)
        model = process.Model.from_file(path)
        eig = process.eigenpair(model)
        h, pi, sig2 = CONSTANTS[name]
        got = (eig.h, eig.pi, process.sigma_squared(model, eig))
        if not (np.allclose(got[0], h, atol=EXACT_ABS) and np.allclose(got[1], pi, atol=EXACT_ABS)
                and abs(got[2] - sig2) <= EXACT_ABS):
            problems.append(f"{name}: eigenpair {got} != {CONSTANTS[name]}")
        # the first kernel builds belong to set-up; the jobs build their own
        for psi in ("unit", "harmonic"):
            moments.build_kernel(model, psi)
        models[name] = model
    ctx = Context(models, golden)
    for job, inputs in zip(workload.jobs, draws):
        job.configure(inputs, workdir, ctx)
    return ctx, problems


def perturb(workload_name):
    """Bias one result the workload checks, so the self-test can see the
    checks fail: 1e-6 relative on an exact value, or a 50% shift of the
    comb sampler's estimates."""
    def scaled(fn, factor):
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs) * factor

        return wrapper

    if workload_name == "exact_verify":
        cls = moments.BruteForceMoments
        cls.moment = scaled(cls.moment, 1 + 1e-6)
    elif workload_name == "rescaled_sweep":
        moments.rescaled_moment = scaled(moments.rescaled_moment, 1 + 1e-6)
    else:
        limits.cpp_monomial_samples = scaled(limits.cpp_monomial_samples, 1.5)
