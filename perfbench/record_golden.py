"""Record perfbench/golden.json: the exact finite-n values the benchmark
checks against, computed by the program at the commit it runs in.

    python3 perfbench/record_golden.py

Each entry is stored per tuple of leaf types (the value of the
functional restricted to that tuple), for every start type and radius a
seed can draw and for both the full and the --small job sizes.  The
committed file was recorded at the seed commit; re-record it only when a
job's parameters change, and only from a commit whose exact values are
trusted, because every later commit is compared against it.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import jobs  # noqa: E402


def main():
    requests = {}
    for small in (False, True):
        for workload in jobs.workloads(small=small).values():
            for job in workload.jobs:
                for key, k, compute in job.golden_keys():
                    requests.setdefault(key, (job.model, k, compute))
    golden = {}
    for i, key in enumerate(sorted(requests)):
        model, k, compute = requests[key]
        t0 = time.perf_counter()
        golden[key] = {",".join(t): compute(t) for t in jobs.type_tuples(model, k)}
        print(f"[{i + 1}/{len(requests)}] {key} ({time.perf_counter() - t0:.2f} s)", flush=True)
    with open(jobs.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
