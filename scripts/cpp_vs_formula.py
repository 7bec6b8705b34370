"""Comb-sampler robustness across atom spacings.

For one moment query the Monte Carlo comb estimate is compared with the
closed-form unit-cube integral at several values of the atom spacing
eps.  The estimate must not depend on eps: each row carries a z-score
against the formula and the script exits nonzero when any |z| passes
the gate.

Example:
    python scripts/cpp_vs_formula.py --k 2 --phi pair_indicator --r 1.0 \
        --eps 0.5 0.2 0.1 --n-samples 20000 --seed 0
"""

import argparse
import sys

from branchlab.cli import build_phi
from branchlab.limits import LimitQuery, cpp_moment, cpp_monomial_mc


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description="comb sampler against the closed-form moment, sweeping eps"
    )
    ap.add_argument("--k", type=int, default=1, help="tuple size")
    ap.add_argument("--sigma-sq", type=float, default=1.0)
    ap.add_argument("--phi", default="ones", choices=("ones", "pair_indicator"))
    ap.add_argument("--r", type=float, default=1.0, help="pair threshold")
    ap.add_argument("--eps", type=float, nargs="+", default=[0.5, 0.2, 0.1])
    ap.add_argument("--n-samples", type=int, default=20_000)
    ap.add_argument("--n-inner", type=int, default=8, help="tuples per sampled comb")
    ap.add_argument("--grid-step", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--z-max", type=float, default=4.0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    phi = build_phi({"name": args.phi, "r": args.r}, args.k)
    query = LimitQuery(k=args.k, phi=phi, sigma_sq=args.sigma_sq)
    want = cpp_moment(query, grid_step=args.grid_step)
    print(f"# formula={want:.10g} n_samples={args.n_samples} n_inner={args.n_inner}")
    print(f"{'eps':>8} {'estimate':>14} {'stderr':>12} {'z':>8}")
    worst = 0.0
    for j, eps in enumerate(args.eps):
        est, err = cpp_monomial_mc(
            query,
            n_samples=args.n_samples,
            eps=eps,
            n_inner=args.n_inner,
            rng=args.seed + j,
        )
        z = (est - want) / err if err > 0 else float("inf") * (est != want)
        worst = max(worst, abs(z))
        print(f"{eps:>8.4g} {est:>14.8g} {err:>12.3g} {z:>+8.2f}")
    if worst > args.z_max:
        print(f"FAIL: max |z| {worst:.2f} > {args.z_max}", file=sys.stderr)
        return 3
    print(f"# max |z| {worst:.2f} within gate {args.z_max}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
