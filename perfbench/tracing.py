"""Outside-in tracing of branchlab: spans and work counts recorded around
the public functions of each layer, by wrappers installed at run time.
Nothing under src/ is edited; uninstall() puts every original back.

A span has a name, a start, an end and a parent.  A layer's self time is
its span's duration minus the time of the traced spans nested inside it.
Spans of hot functions (called thousands of times per pass) are only
aggregated, not kept one by one; all others are kept in memory and
written out at the end of the run.  Work counts that the program does not
expose are computed from the inputs and results the wrappers see.
"""

import contextlib
import functools
import inspect
import math
import statistics
import threading
import time
import weakref

from branchlab import cli, limits, mmm, moments, process, spine, trees


class Tracer:
    def __init__(self):
        self.spans = []  # (pass, name, start, end, parent index or -1)
        self.passes = []  # per pass: (stats, counts)
        self._stack = []
        self._thread = threading.get_ident()
        self._installed = []
        self._bf_seen = weakref.WeakKeyDictionary()
        self._bf_counts = {}
        self.errors = set()
        self._monomial_sig = None
        self.stats = None
        self.counts = None

    # -- passes and spans ------------------------------------------------

    def begin_pass(self):
        self.stats = {}
        self.counts = {}

    def end_pass(self):
        self.passes.append((self.stats, self.counts))
        self.stats = self.counts = None

    @property
    def active(self):
        return self.stats is not None and threading.get_ident() == self._thread

    def enter(self, name, hot=False):
        idx = -1
        if not hot:
            parent = self._stack[-1][3] if self._stack else -1
            idx = len(self.spans)
            self.spans.append([len(self.passes), name, 0.0, 0.0, parent])
        frame = [name, 0.0, 0.0, idx]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def leave(self, frame):
        end = time.perf_counter()
        name, start, child, idx = frame
        self._stack.pop()
        dur = end - start
        if idx >= 0:
            self.spans[idx][2] = start
            self.spans[idx][3] = end
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    @contextlib.contextmanager
    def span(self, name):
        frame = self.enter(name)
        try:
            yield
        finally:
            self.leave(frame)

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name, hot=False, after=None):
        """after(args, kwargs, result, duration, shapes counted before the
        call) records work counts; its errors are kept, never raised."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            shapes = tracer.counts.get("trees.shapes", 0)
            frame = tracer.enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer.leave(frame)
            if after is not None:
                try:
                    after(args, kwargs, result, dur, shapes)
                except Exception as e:  # a changed signature must not fail the job
                    tracer.errors.add(f"{name}: cannot count work ({type(e).__name__}: {e})")
            return result

        return wrapper

    def wrap_generator(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.active:
                yield from it
                return
            while True:
                frame = tracer.enter(name, hot=True)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.leave(frame)
                tracer.count(counter, 1)
                yield item

        return wrapper

    def patch(self, owner, attr, wrapper):
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced function in every namespace that binds it."""
        if self._installed:
            return
        plan = [
            (owner, attr, lambda fn, n=name, h=hot, a=after: self.wrap(fn, n, h, a))
            for owners, attr, name, hot, after in self._plan()
            for owner in owners
        ]
        plan.append((moments, "enumerate_shapes", lambda fn: self.wrap_generator(
            fn, "trees.enumerate_shapes", "trees.shapes")))
        for attr in ("lambda_k_integral", "lambda_tilde_k_integral"):
            plan.append((limits, attr, self._wrap_integral))
        for owner, attr, make in plan:
            if hasattr(owner, attr):
                self.patch(owner, attr, make(getattr(owner, attr)))
            else:
                self.errors.add(f"{getattr(owner, '__name__', owner)}.{attr} is gone: not traced")

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _plan(self):
        c = self.count
        return [
            ((process, moments), "enumerate_population", "process.enumerate", False,
             lambda a, k, r, d, b: c("process.enumerate.outcomes", len(r))),
            ((process, spine, limits), "eigenpair", "process.eigenpair", False, None),
            ((process,), "simulate", "process.simulate", True,
             lambda a, k, r, d, b: c("process.simulate.vertices", r.tree.size)),
            ((spine, moments), "build_kernel", "spine.build_kernel", False, None),
            ((spine, moments), "q_expectation", "spine.q_expectation", True, None),
            ((trees, limits), "distance_matrix", "trees.distance_matrix", True, None),
            ((moments,), "moment_m2f", "moments.m2f", False, self._after_m2f),
            ((moments,), "rescaled_moment", "moments.rescaled", False, None),
            ((moments,), "ultrametric_moment", "moments.ultrametric", False, None),
            ((moments,), "moment_recursive", "moments.recursive", False, None),
            ((moments.BruteForceMoments,), "moment", "moments.bruteforce", False, None),
            ((moments.BruteForceMoments,), "table", "moments.bruteforce", False, self._after_table),
            ((limits,), "crt_moment", "limits.crt", False, None),
            ((limits,), "cpp_moment", "limits.cpp_formula", False, None),
            ((limits,), "cpp_monomial_samples", "limits.cpp_samples", False,
             lambda a, k, r, d, b: c("limits.cpp_samples.samples", len(r))),
            ((limits,), "sample_excursions", "limits.excursions", False,
             lambda a, k, r, d, b: c("limits.excursions.steps", r.shape[0] * (r.shape[1] - 1))),
            ((limits,), "donsker_crt_check", "limits.donsker", False, None),
            ((limits,), "convergence_report", "limits.convergence", False, None),
            ((mmm,), "tree_to_mmm", "mmm.build", True, None),
            ((mmm,), "generation_slice", "mmm.build", True, None),
            ((mmm,), "monomial", "mmm.monomial", True, self._after_monomial),
            ((cli,), "main", "cli", False, None),
        ]

    # -- work counts ---------------------------------------------------------

    def _after_m2f(self, args, kwargs, result, dur, shapes_before):
        model = args[0] if args else kwargs["model"]
        shapes = self.counts.get("trees.shapes", 0) - shapes_before
        kind = "one_type" if len(model.types) == 1 else "two_type"
        self.count(f"m2f.shapes.{kind}", shapes)
        self.count(f"m2f.seconds.{kind}", dur)

    def _after_table(self, args, kwargs, result, dur, before):
        bf, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
        seen = self._bf_seen.setdefault(bf, set())
        if k in seen:
            return
        seen.add(k)
        key = (bf.model.to_json(), bf.x0, bf.horizon, k)
        counts = self._bf_counts.get(key)
        if counts is None:
            counts = self._bf_counts[key] = _tuple_counts(bf.outcomes, k)
        self.count("moments.bruteforce.vertex_tuples", counts[0])
        self.count("moments.bruteforce.useful", counts[1])

    def _after_monomial(self, args, kwargs, result, dur, before):
        if self._monomial_sig is None:
            self._monomial_sig = inspect.signature(mmm.monomial)
        bound = self._monomial_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        ns = len(a["space"].support())
        tuples = ns ** a["k"] if ns ** a["k"] <= a["cap"] else ns * a["n_sub"]
        self.count("mmm.monomial.tuples", tuples)

    def _wrap_integral(self, fn):
        sig = inspect.signature(fn)
        tilde = fn.__name__ == "lambda_tilde_k_integral"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            inside = [0]
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                f = a["f"]

                def counted(l, b):
                    inside[0] += len(l) if getattr(l, "ndim", 1) == 2 else 1
                    return f(l, b)

                a["f"] = counted
                k = a["k"]
                if a["method"] == "mc":
                    points = a["n_samples"]
                elif tilde:
                    points = 1 if k == 1 else max(1, int(round(1.0 / a["grid_step"]))) ** (k - 1)
                else:
                    points = max(1, int(round(a["R"] / a["grid_step"]))) ** (2 * k - 1)
                args, kwargs = bound.args, bound.kwargs
            except (TypeError, KeyError) as e:  # signature changed: time it, count nothing
                tracer.errors.add(f"limits.integral: cannot count work ({type(e).__name__}: {e})")
                points = 0
            frame = tracer.enter("limits.integral")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
                tracer.count("limits.integral.points", points)
                tracer.count("limits.integral.inside", inside[0])

        return wrapper


def _tuple_counts(outcomes, k):
    """(vertex k-subsets, non-ancestral k-subsets) summed over outcomes.

    Non-ancestral subsets are antichains; their generating polynomial
    satisfies A(v) = x + prod over children of A(c), truncated at x^k.
    """
    total = useful = 0
    for _, mt in outcomes:
        tree = mt.tree
        total += math.comb(tree.size, k)
        poly = {}
        for v in reversed(tree.vertices):
            p = [1] + [0] * k
            for i in range(1, tree.degrees[v] + 1):
                c = poly.pop(v + (i,))
                q = [0] * (k + 1)
                for a, pa in enumerate(p):
                    if pa:
                        for b in range(k + 1 - a):
                            q[a + b] += pa * c[b]
                p = q
            p[1] += 1
            poly[v] = p
        useful += poly[()][k]
    return total, useful


def _ratio(num, den):
    return num / den if den > 0 else 0.0


# (name, unit) of every per-layer metric, in print order
LAYER_METRICS = [
    ("moments.bruteforce.busy_s", "s"),
    ("moments.bruteforce.vertex_tuples", "count"),
    ("moments.bruteforce.tuples_per_s", "1/s"),
    ("moments.bruteforce.useful_ratio", "1"),
    ("process.enumerate.busy_s", "s"),
    ("process.enumerate.outcomes", "count"),
    ("process.eigenpair.calls", "count"),
    ("process.eigenpair.busy_s", "s"),
    ("spine.build_kernel.calls", "count"),
    ("spine.build_kernel.busy_s", "s"),
    ("spine.q_expectation.calls", "count"),
    ("spine.q_expectation.busy_s", "s"),
    ("moments.m2f.busy_s", "s"),
    ("moments.m2f.shapes_per_s.one_type", "1/s"),
    ("moments.m2f.shapes_per_s.two_type", "1/s"),
    ("moments.rescaled.busy_s", "s"),
    ("moments.ultrametric.busy_s", "s"),
    ("moments.recursive.busy_s", "s"),
    ("trees.shapes", "count"),
    ("trees.enumerate_shapes.busy_s", "s"),
    ("trees.distance_matrix.calls", "count"),
    ("trees.distance_matrix.busy_s", "s"),
    ("limits.integral.busy_s", "s"),
    ("limits.integral.points", "count"),
    ("limits.integral.points_per_s", "1/s"),
    ("limits.integral.useful_ratio", "1"),
    ("limits.cpp_samples.busy_s", "s"),
    ("limits.cpp_samples.samples", "count"),
    ("limits.cpp_samples.us_per_sample", "us"),
    ("limits.excursions.busy_s", "s"),
    ("limits.excursions.steps_per_s", "1/s"),
    ("process.simulate.busy_s", "s"),
    ("process.simulate.vertices", "count"),
    ("process.simulate.vertices_per_s", "1/s"),
    ("mmm.build.busy_s", "s"),
    ("mmm.monomial.busy_s", "s"),
    ("mmm.monomial.tuples", "count"),
    ("mmm.monomial.tuples_per_s", "1/s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.cpp.thread_speedup", "1"),
    ("trace.overhead_ratio", "1"),
]


def pass_metrics(stats, counts):
    """Per-layer metrics of one traced pass.  busy_s is self time; the
    per-second rates divide a work count by the inclusive span time, except
    the brute-force rate: `moment` and `table` share one span name and one
    calls the other, so it divides by self time to count each second once."""

    def st(name):
        return stats.get(name, (0, 0.0, 0.0))

    def cnt(key):
        return counts.get(key, 0)

    m = {}
    for name in (
        "moments.bruteforce", "process.enumerate", "process.eigenpair", "spine.build_kernel",
        "spine.q_expectation", "moments.m2f", "moments.rescaled", "moments.ultrametric",
        "moments.recursive", "trees.enumerate_shapes", "trees.distance_matrix", "limits.integral",
        "limits.cpp_samples", "limits.excursions", "process.simulate", "mmm.build", "mmm.monomial",
    ):
        m[f"{name}.busy_s"] = st(name)[2]
    for name in ("process.eigenpair", "spine.build_kernel", "spine.q_expectation", "trees.distance_matrix"):
        m[f"{name}.calls"] = st(name)[0]
    tuples = cnt("moments.bruteforce.vertex_tuples")
    m["moments.bruteforce.vertex_tuples"] = tuples
    m["moments.bruteforce.tuples_per_s"] = _ratio(tuples, st("moments.bruteforce")[2])
    m["moments.bruteforce.useful_ratio"] = _ratio(cnt("moments.bruteforce.useful"), tuples)
    m["process.enumerate.outcomes"] = cnt("process.enumerate.outcomes")
    for kind in ("one_type", "two_type"):
        m[f"moments.m2f.shapes_per_s.{kind}"] = _ratio(cnt(f"m2f.shapes.{kind}"), cnt(f"m2f.seconds.{kind}"))
    m["trees.shapes"] = cnt("trees.shapes")
    points = cnt("limits.integral.points")
    m["limits.integral.points"] = points
    m["limits.integral.points_per_s"] = _ratio(points, st("limits.integral")[1])
    m["limits.integral.useful_ratio"] = _ratio(cnt("limits.integral.inside"), points)
    samples = cnt("limits.cpp_samples.samples")
    m["limits.cpp_samples.samples"] = samples
    m["limits.cpp_samples.us_per_sample"] = 1e6 * _ratio(st("limits.cpp_samples")[1], samples)
    m["limits.excursions.steps_per_s"] = _ratio(cnt("limits.excursions.steps"), st("limits.excursions")[1])
    vertices = cnt("process.simulate.vertices")
    m["process.simulate.vertices"] = vertices
    m["process.simulate.vertices_per_s"] = _ratio(vertices, st("process.simulate")[1])
    mt = cnt("mmm.monomial.tuples")
    m["mmm.monomial.tuples"] = mt
    m["mmm.monomial.tuples_per_s"] = _ratio(mt, st("mmm.monomial")[1])
    m["cli.calls"] = st("cli")[0]
    m["cli.self_s"] = st("cli")[2]
    return m


def layer_metrics(tracer):
    """Median over the traced passes of every per-pass layer metric."""
    per_pass = [pass_metrics(stats, counts) for stats, counts in tracer.passes]
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
