"""branchlab benchmark: one workload, one seed, a fixed run length.

    python3 perfbench/run.py --workload exact_verify --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from src/.  The
run first times several fresh set-up processes (setup_s), then repeats
the workload's fixed job list, one job at a time, until --seconds have
passed, checking every result.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics.  The last line of stdout is one JSON
object; human-readable lines come before it.  See perfbench/README.md.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5
MIN_PASSES = 2
READY = "READY"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="shrunken jobs, for the self-test")
    p.add_argument("--perturb", action="store_true", help="bias one result, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def workdir_for(pid):
    return os.path.join(ROOT, ".perfbench", "work", str(pid))


def time_setup(args):
    """Seconds from spawning a fresh process to its first job being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.small:
        cmd.append("--small")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
    if line != READY or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def upper_percentile(values):
    """(percentile, value) of the highest percentile at or above the median
    with at least ten samples above it, or None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name, values, unit):
    med = statistics.median(values)
    up = upper_percentile(values)
    tail = f"p{up[0]:.0f} {up[1]:.4f} {unit}" if up else "too few for an upper percentile with 10 beyond it"
    samples = " ".join(f"{v:.3f}" for v in values)
    return f"  {name:<16} {med:.4f} {unit}  median of n={len(values)}; {tail}\n  {'':<16} samples: {samples}"


class Runner:
    def __init__(self, args, jobs_mod, trace_mod):
        self.args = args
        self.jobs = jobs_mod
        self.trace = trace_mod
        self.workload = jobs_mod.workloads(small=args.small)[args.workload]
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: " + "; ".join(problems))

    def run_pass(self, tracer=None):
        """Run every job once; returns (wall, largest-job time, results)."""
        results = []
        largest = None
        t0 = time.perf_counter()
        for job in self.workload.jobs:
            tj = time.perf_counter()
            with tracer.span(f"job:{job.name}") if tracer else contextlib.nullcontext():
                try:
                    res = job.run()
                except Exception:
                    res = traceback.format_exc()
            if job.name == self.workload.largest:
                largest = time.perf_counter() - tj
            results.append((job, res))
        return time.perf_counter() - t0, largest, results

    def check(self, results, pass_no):
        for job, res in results:
            label = f"pass {pass_no} {job.name}"
            if isinstance(res, str):
                self.record(label, [f"raised\n{res}"])
                continue
            try:
                problems = job.check(res)
                fp = job.fingerprint(res)
                if job.name not in self.first:
                    self.first[job.name] = fp
                elif fp != self.first[job.name]:
                    problems.append("output differs from the first pass")
            except Exception:
                problems = [f"check raised\n{traceback.format_exc()}"]
            self.record(label, problems)

    def thread_speedup(self, deadline):
        """k = 2 cpp job at --threads 1 and 2, alternating; threads-1 time
        over threads-2 time, or None when the CLI rejects --threads."""
        job = next(j for j in self.workload.jobs if j.name == "cpp_k2")
        times = {1: [], 2: []}
        outputs = {}
        while len(times[2]) < 2 or time.perf_counter() < deadline:
            for threads in (1, 2):
                t0 = time.perf_counter()
                code, text = self.jobs.run_cli(job.argv(threads))
                times[threads].append(time.perf_counter() - t0)
                if code == 2 and not text:
                    return None
                outputs.setdefault(threads, self.jobs.mask_git(text))
        self.record("cpp_k2 --threads 2", [] if outputs[1] == outputs[2] else ["output depends on the thread count"])
        return statistics.median(times[1]) / statistics.median(times[2])


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "branchlab", "__init__.py")):
        print(f"no branchlab sources under {ROOT}/src: run from a branchlab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_probe:
        return setup_probe(args)

    setup_times = [time_setup(args) for _ in range(SETUP_PROBES)]

    import jobs as jobs_mod
    import tracing as trace_mod

    runner = Runner(args, jobs_mod, trace_mod)
    workdir = workdir_for(os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, runner, workdir, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_probe(args):
    import jobs as jobs_mod

    workload = jobs_mod.workloads(small=args.small)[args.workload]
    workdir = workdir_for(os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        jobs_mod.setup(workload, args.seed, workdir)
        print(READY, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure(args, runner, workdir, setup_times):
    jobs_mod, trace_mod = runner.jobs, runner.trace
    workload = runner.workload
    _, setup_problems = jobs_mod.setup(workload, args.seed, workdir)
    runner.record("set-up", setup_problems)
    if args.perturb:
        jobs_mod.perturb(workload.name)

    tracer = trace_mod.Tracer() if args.trace else None
    speedup_share = 0.25 if args.trace and workload.name == "comb_mc" else 0.0
    start = time.perf_counter()
    pass_deadline = start + args.seconds * (1.0 - speedup_share)
    walls, largest, traced_walls = [], [], []
    pass_no = 0
    last = 0.0
    # start no pass the last one says would end past the deadline, so a run
    # lasts --seconds however long a pass takes
    while pass_no < MIN_PASSES or time.perf_counter() + last < pass_deadline:
        traced = bool(args.trace) and pass_no % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_pass()
        try:
            wall, big, results = runner.run_pass(tracer if traced else None)
        finally:
            if traced:
                tracer.end_pass()
                tracer.uninstall()
        last = wall
        (traced_walls if traced else walls).append(wall)
        if not traced:
            largest.append(big)
        runner.check(results, pass_no)
        pass_no += 1

    speedup = 0.0
    if args.trace and workload.name == "comb_mc":
        speedup = runner.thread_speedup(start + args.seconds)

    failed_ratio = runner.failed / runner.attempted
    print(f"branchlab benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={pass_no}")
    print(f"  jobs: {', '.join(j.name for j in workload.jobs)}; largest case: {workload.largest}")
    for p in runner.problems:
        print(f"FAILED {p}", file=sys.stderr)

    if args.trace:
        metrics = trace_mod.layer_metrics(tracer)
        if speedup is None:
            print("  cli.cpp.thread_speedup not measured: the CLI rejects --threads")
        metrics["cli.cpp.thread_speedup"] = speedup or 0.0
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        units = dict(trace_mod.LAYER_METRICS)
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in trace_mod.LAYER_METRICS}
        print(f"  per-layer metrics (median over {len(traced_walls)} traced passes; "
              f"busy_s is self time):")
        for name, m in out.items():
            print(f"  {workload.name:<18} {name:<38} {m['value']:.6g} {units[name]}")
        for err in sorted(tracer.errors):
            print(f"  trace warning: {err}")
        write_trace(args, workload, tracer, out)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "largest_case_s": {"value": statistics.median(largest), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "pass_ratio": {"value": 1.0 - failed_ratio, "unit": "1"},
        }
        print(describe("wall_s", walls, "s"))
        print(describe("largest_case_s", largest, "s") + f" ({workload.largest})")
        print(describe("setup_s", setup_times, "s"))
        print(f"  {'peak_rss_mb':<16} {peak_mb:.1f} MB")
        print(f"  {'pass_ratio':<16} {1.0 - failed_ratio:.6g}  "
              f"(failed_ratio {failed_ratio:.6g}: {runner.failed} of {runner.attempted} job runs failed)")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": out,
    }))
    return 0


def write_trace(args, workload, tracer, metrics):
    path = os.path.join(ROOT, ".perfbench", "trace", f"{workload.name}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({
            "workload": workload.name,
            "seed": args.seed,
            "span_fields": ["pass", "name", "start", "end", "parent"],
            "spans": tracer.spans,
            "passes": [{"stats": s, "counts": c} for s, c in tracer.passes],
            "metrics": metrics,
        }, fh)
    print(f"  spans written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
