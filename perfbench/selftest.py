"""Self-test of the benchmark, at small job sizes (about a minute).

    python3 perfbench/selftest.py

For every workload it checks that an untraced run prints every
end-to-end metric of BENCHMARK.json with its unit and passes every job,
that a traced run prints every per-layer metric with its unit, and that
a run with one result deliberately perturbed reports failures
(pass_ratio below 1, i.e. failed_ratio above 0).  It also checks that
the benchmark refuses to run, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "5", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(label, result, specs, errors):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(got) != set(want):
        errors.append(f"{label}: metrics {sorted(set(got) ^ set(want))} missing or unexpected")
    for name, unit in want.items():
        if name in got and got[name]["unit"] != unit:
            errors.append(f"{label}: {name} has unit {got[name]['unit']!r}, not {unit!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    errors = []
    for w in (x["name"] for x in spec["workloads"]):
        plain = result_of(run(["--workload", w, "--trace", "0", "--small"]))
        expect_metrics(f"{w} --trace 0", plain, spec["end_to_end"], errors)
        if not plain["correct"] or plain["failed"] or plain["metrics"]["pass_ratio"]["value"] != 1.0:
            errors.append(f"{w}: unperturbed run reports failures")
        traced = result_of(run(["--workload", w, "--trace", "1", "--small"]))
        expect_metrics(f"{w} --trace 1", traced, spec["per_layer"], errors)
        bad = result_of(run(["--workload", w, "--trace", "0", "--small", "--perturb"]))
        if bad["correct"] or not bad["failed"] or not bad["metrics"]["pass_ratio"]["value"] < 1.0:
            errors.append(f"{w}: perturbed run reports no failure")
        print(f"{w}: ok" if not errors else f"{w}: {len(errors)} problem(s) so far", flush=True)

    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"]], cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append("the benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("ok" if not errors else f"{len(errors)} failure(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
