"""Doubling study of rescaled moments against their continuum limit.

Runs the finite-size moment at n0, 2 n0, 4 n0, ... and prints the
relative error at each level together with the observed convergence
order between consecutive levels.  Both columns are deterministic: the
finite-size value is an exact spine shape sum and the limit is a
midpoint-rule shape integral, so rerunning the study reproduces every
digit.

Example:
    python scripts/convergence_study.py --model configs/binary_gw.json \
        --x0 a --k 2 --n0 10 --levels 3 --functional height_indicator --r 1.0
"""

import argparse
import math
import sys
from pathlib import Path

from branchlab.cli import build_functional, csv_text
from branchlab.limits import REPORT_COLUMNS, convergence_report
from branchlab.process import Model


def parse_weights(text, model):
    if text is None:
        return None
    out = {}
    for item in text.split(","):
        label, _, value = item.partition("=")
        if label not in model.types:
            raise SystemExit(f"unknown type in --weights: {label!r}")
        out[label] = float(value)
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description="doubling study of rescaled moments against the limit"
    )
    ap.add_argument("--model", required=True, help="model JSON path")
    ap.add_argument("--x0", default=None, help="root type (default: first)")
    ap.add_argument("--k", type=int, default=1, help="tuple size")
    ap.add_argument("--mode", choices=("rescaled", "ultrametric"), default="rescaled")
    ap.add_argument(
        "--functional",
        default="height_indicator",
        choices=("count", "height_indicator", "pair_indicator"),
    )
    ap.add_argument("--r", type=float, default=1.0, help="functional radius")
    ap.add_argument("--weights", default=None, help="leaf weights, e.g. A=1.4,B=0.6")
    ap.add_argument("--n0", type=int, default=10, help="smallest population scale")
    ap.add_argument("--levels", type=int, default=4, help="number of doublings")
    ap.add_argument("--R", type=float, default=1.0, help="height truncation")
    ap.add_argument("--grid-step", type=float, default=None)
    ap.add_argument("--out", default=None, help="also write the rows as CSV")
    return ap.parse_args(argv)


def run_study(args):
    model = Model.from_json(Path(args.model).read_text())
    x0 = args.x0 if args.x0 is not None else model.types[0]
    spec = {"name": args.functional, "r": args.r}
    if args.weights is not None:
        spec["weights"] = parse_weights(args.weights, model)
    if args.levels < 1:
        raise ValueError(f"levels must be at least 1, got {args.levels}")
    F = build_functional(spec, model, k=args.k)
    n_values = [args.n0 * 2**j for j in range(args.levels)]
    return convergence_report(
        model,
        args.k,
        F,
        n_values,
        x0,
        R=args.R,
        mode=args.mode,
        grid_step=args.grid_step,
    )


def main(argv=None):
    args = parse_args(argv)
    try:
        report = run_study(args)
    except ValueError as e:  # ConfigError included
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"# perron={report.perron:.6g} sigma_sq={report.sigma_sq:.6g}")
    if not report.critical:
        print("# model is not critical; no limit column")
    print(f"{'n':>8} {'observed':>16} {'limit':>16} {'rel_error':>12} {'order':>8}")
    prev_err = None
    for row in report.rows:
        limit = "" if row["limit"] is None else f"{row['limit']:.10g}"
        rel = row["rel_error"]
        order = ""
        if rel is not None and prev_err not in (None, 0.0) and rel > 0.0:
            order = f"{math.log2(prev_err / rel):8.2f}"
        rel_s = "" if rel is None else f"{rel:.6g}"
        print(f"{row['n']:>8} {row['observed']:>16.10g} {limit:>16} {rel_s:>12} {order:>8}")
        prev_err = rel
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(csv_text({}, REPORT_COLUMNS, report.rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
