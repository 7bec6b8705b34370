"""Re-measure the ROADMAP's hand-measured baselines, naming the model.

    python3 perfbench/baselines.py          # about two minutes on 2 cores

Prints one line per case: the rescaled k = 2 shape sum at n = 40 and the
k = 3 shape sum at n = 12 on each model, the comb sampler's cost per
sample, the 10^6-point k = 2 shape-space grid (scalar and vectorized
integrand), and the cpp thread pool (k = 2, 20k samples, threads 1
against threads 2).  Each case is timed once.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import jobs  # noqa: E402
from branchlab import limits, moments, process, trees  # noqa: E402


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main():
    models = {
        name: process.Model.from_json(json.dumps(spec))
        for name, spec in jobs.MODELS.items()
    }

    def height(shape, lt, bt):
        return 1.0 if shape.height <= 1.0 else 0.0

    for k, n in ((2, 40), (3, 12)):
        for name, model in models.items():
            x0 = model.types[0]
            kernel = moments.build_kernel(model, "harmonic")
            t = timed(lambda: moments.rescaled_moment(model, k, height, n, x0, kernel=kernel))
            shapes = trees.count_shapes(k, n)
            print(f"rescaled shape sum k={k} n={n} {name:<10} {t:8.3f} s  "
                  f"{shapes} shapes, {shapes / t:8.0f} shapes/s", flush=True)

    q = limits.LimitQuery(k=2, phi=lambda D, m: 1.0 if D[1, 2] <= 1.0 else 0.0)
    n_samples = 10_000
    t = timed(lambda: limits.cpp_monomial_samples(q, n_samples=n_samples, eps=0.1, rng=1))
    print(f"comb sampler k=2 eps=0.1 n_inner=8     {1e6 * t / n_samples:8.1f} us/sample", flush=True)

    def scalar(l, b):
        return 1.0 if max(l) <= 1.0 else 0.0

    def vector(L, B):
        return (L.max(axis=1) <= 1.0).astype(float)

    for label, f, vec in (("scalar", scalar, False), ("vectorized", vector, True)):
        t = timed(lambda: limits.lambda_k_integral(2, f, method="grid", grid_step=0.01, vectorized=vec))
        print(f"k=2 shape grid step 0.01 (10^6 points) {label:<10} {t:8.3f} s", flush=True)

    path = os.path.join(HERE, "..", ".perfbench", "baseline_cpp.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write('{"k": 2, "phi": {"name": "pair_indicator", "r": 1.0}, "n_samples": 20000, "eps": 0.1}')
    for threads in (1, 2):
        t = timed(lambda: jobs.run_cli(["cpp", "--config", path, "--threads", str(threads)]))
        print(f"cpp k=2 20k samples --threads {threads}        {t:8.3f} s", flush=True)
    os.remove(path)


if __name__ == "__main__":
    main()
