"""Command-line front end.

Subcommands: model-check, simulate, verify-m2f, moments, convergence,
survival, cpp.  Every command reads a JSON config (--config), validated
against a fixed key set with unknown keys rejected, and writes to stdout
or --out.  Outputs start with comment headers recording the seed, the git
state and the config hash; the same (config, seed) pair always produces
byte-identical output, except for the runtime_ms field of moment records.
Warnings raised while a command runs go to stderr as "warning: <message>"
lines, each distinct message once.

Exit codes: 0 success, 1 runtime or usage errors, 2 model-property
failures (e.g. a non-critical model in model-check), 3 verification
failures (an identity or statistical check did not hold).
"""

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np

from . import limits, moments, process, spine, trees

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_MODEL = 2
EXIT_VERIFY = 3


class ConfigError(ValueError):
    pass


def _load_config(args, required, optional=()):
    """The JSON object at --config, checked against its key set, and the
    header meta of the output: (cfg, meta)."""
    try:
        with open(args.config, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}")
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    allowed = set(required) | set(optional)
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = set(required) - set(cfg)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    sha = hashlib.sha256(raw).hexdigest()
    return cfg, {"seed": args.seed, "git": _git_describe(), "config_sha256": sha}


def _cfg_int(cfg, key, default=None, many=False, least=None):
    """cfg[key] (or default) as an int, or as a list of ints when many,
    each at least `least` when one is given.

    Integral numbers pass (3, 3.0, 1e5); anything else (2.5, "3", true,
    null) is a ConfigError naming the key, where int() would truncate or
    coerce it.
    """
    value = cfg.get(key, default)
    if many and not isinstance(value, (list, tuple)):
        raise ConfigError(f"config key {key!r} must be a list of integers, got {value!r}")
    out = []
    for v in value if many else [value]:
        if isinstance(v, float) and v.is_integer():
            v = int(v)
        if isinstance(v, bool) or not isinstance(v, int):
            kind = "a list of integers" if many else "an integer"
            raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")
        if least is not None and v < least:
            what = " entries" if many else ""
            raise ConfigError(f"config key {key!r}{what} must be at least {least}, got {value!r}")
        out.append(v)
    return out if many else out[0]


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _cfg_float(cfg, key, default=None):
    """cfg[key] (or default) as a float; a missing key without default, or
    anything but a number (a string, true, null), is a ConfigError naming
    the key."""
    if key not in cfg and default is None:
        raise ConfigError(f"missing config key {key!r}")
    value = cfg.get(key, default)
    if not _is_number(value):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}")
    return float(value)


def _cfg_x0(cfg, model, default=None):
    """cfg["x0"] (or default), a ConfigError naming x0 unless it is one of
    the model's types."""
    x0 = cfg.get("x0", default)
    if x0 not in model.types:
        raise ConfigError(
            f"config key 'x0' must be one of the model types {list(model.types)}, got {x0!r}"
        )
    return x0


def _cfg_marks(cfg):
    """The mark distribution: None, or an object mapping labels to
    numbers; limits.LimitQuery checks that they are a probability law."""
    marks = cfg.get("marks")
    if marks is not None and not (
        isinstance(marks, dict) and all(map(_is_number, marks.values()))
    ):
        raise ConfigError(f"config key 'marks' must map labels to numbers, got {marks!r}")
    return marks


@contextlib.contextmanager
def _warnings_to_stderr():
    """Record the warnings raised in the block; print each distinct one to
    stderr as "warning: <message>", leaving stdout untouched."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


def _load_model(cfg, args):
    model_path = cfg["model"]
    if not isinstance(model_path, str) or not model_path:
        raise ConfigError(f"config key 'model' must be a model file path, got {model_path!r}")
    if not os.path.isabs(model_path):
        model_path = os.path.join(os.path.dirname(os.path.abspath(args.config)), model_path)
    return process.Model.from_file(model_path)


@functools.cache
def _git_describe():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def csv_text(meta, header, rows):
    """CSV with one "# key=value" comment line per meta entry, in order,
    then the header and one line per row dict, None as an empty cell."""
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in header))
    return "\n".join(lines) + "\n"


def _emit(args, meta, payload, table=None, csv_meta=None):
    """Write a command's output: as JSON, meta and payload; as CSV, the
    meta and csv_meta comment lines, then table = (header, rows), or with
    no table one key/value row per sorted payload entry (lists as JSON);
    to --out when given, else to stdout."""
    if args.format == "json":
        text = json.dumps({"meta": meta, **payload}, indent=2, sort_keys=True) + "\n"
    else:
        if table is None:
            rows = [
                {"key": k, "value": json.dumps(v) if isinstance(v, list) else v}
                for k, v in sorted(payload.items())
            ]
            table = (["key", "value"], rows)
        text = csv_text({**meta, **(csv_meta or {})}, *table)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _leaf_weights(spec, model):
    weights = spec.get("weights")
    if weights is None:
        return None
    if not isinstance(weights, dict) or not all(map(_is_number, weights.values())):
        raise ConfigError(
            f"functional key 'weights' must map types to numbers, got {weights!r}"
        )
    unknown = set(weights) - set(model.types)
    if unknown:
        raise ConfigError(f"functional weights for unknown types: {sorted(unknown)}")
    return {x: float(weights.get(x, 1.0)) for x in model.types}


def build_functional(spec, model, k=None):
    """Shape functional from a config dict: {"name": ..., parameters}.

    Names: "count" (constant one), "height_indicator" with "r" (one when
    every leaf height is at most r), "pair_indicator" with "r" (one when
    the first two leaves sit within distance r; needs k >= 2, checked
    here when the smallest k is given).  All accept "weights", a
    per-leaf-type factor.

    Each is written once, as a batched leaf-type form F.batched(L, B, lt):
    (N, k) leaf heights, (N, k-1) meet heights and one leaf-type tuple
    give N values.  The result is the scalar F(shape, lt, bt) that calls
    it on one row, so the two forms give the same bits by construction.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"config key 'functional' must be an object, got {spec!r}")
    allowed = {"name", "r", "weights"}
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"unknown functional keys: {sorted(unknown)}")
    name = spec.get("name", "count")
    if name == "pair_indicator" and k is not None and k < 2:
        raise ConfigError("pair_indicator needs k >= 2")
    weights = _leaf_weights(spec, model) or dict.fromkeys(model.types, 1.0)
    # the leaf weights multiplied left to right
    wprod = lambda lt: math.prod(weights[x] for x in lt)
    if name == "count":
        batched = lambda L, B, lt: np.full(len(L), wprod(lt))
    elif name == "height_indicator":
        r = _cfg_float(spec, "r")
        batched = lambda L, B, lt: np.where(L.max(axis=1) <= r, wprod(lt), 0.0)
    elif name == "pair_indicator":
        r = _cfg_float(spec, "r")

        def batched(L, B, lt):
            if L.shape[1] < 2:
                raise ConfigError("pair_indicator needs k >= 2")
            d = L[:, 0] + L[:, 1] - 2 * B[:, 0]
            return np.where(d <= r, wprod(lt), 0.0)

    else:
        raise ConfigError(f"unknown functional {name!r}")

    def F(shape, lt, bt):
        return float(batched(np.array([shape.leaf_heights]), np.array([shape.branch_heights]), lt)[0])

    F.batched = batched
    return F


def build_phi(spec, k):
    """Distance-matrix test function of k points for the continuum commands.

    Names: "ones", "pair_indicator" with "r" (one when the first two
    sampled points sit within distance r; needs k >= 2).

    Each is written once, as a batched form phi.batched(D, marks): an
    (N, k+1, k+1) stack of distance matrices and one k-tuple of marks give
    N values, which mmm.phi_values calls.  The result is the scalar
    phi(D, marks) that calls it on one matrix, so the two forms give the
    same bits by construction.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"config key 'phi' must be an object, got {spec!r}")
    allowed = {"name", "r"}
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"unknown phi keys: {sorted(unknown)}")
    name = spec.get("name", "ones")
    if name == "ones":
        batched = lambda D, marks: np.ones(len(D))
    elif name == "pair_indicator":
        if k < 2:
            raise ConfigError("pair_indicator needs k >= 2")
        r = _cfg_float(spec, "r")
        batched = lambda D, marks: np.where(D[:, 1, 2] <= r, 1.0, 0.0)
    else:
        raise ConfigError(f"unknown phi {name!r}")

    def phi(D, marks):
        return float(batched(D[None], marks)[0])

    phi.batched = batched
    return phi


def cmd_model_check(args):
    cfg, meta = _load_config(args, required=("model",))
    model = _load_model(cfg, args)
    try:
        eig = process.eigenpair(model)
    except ValueError as e:
        _emit(args, meta, {"error": str(e), "critical": False})
        return EXIT_MODEL
    critical = process.is_critical(eig)
    payload = {
        "types": list(model.types),
        "perron": eig.perron,
        "critical": critical,
        "h": [float(v) for v in eig.h],
        "pi": [float(v) for v in eig.pi],
        "sigma_sq": process.sigma_squared(model, eig),
    }
    _emit(args, meta, payload)
    return EXIT_OK if critical else EXIT_MODEL


def cmd_simulate(args):
    cfg, meta = _load_config(args, required=("model", "x0", "n_gen"))
    model = _load_model(cfg, args)
    mt = process.simulate(model, cfg["x0"], _cfg_int(cfg, "n_gen"), rng=args.seed)
    tree = trees.tree_to_string(mt.tree)
    rows = [
        {"vertex": ".".join(map(str, v)), "type": mt.marks[v]}
        for v in mt.tree.vertices
    ]
    payload = {"tree": tree, "rows": rows}
    _emit(args, meta, payload, table=(["vertex", "type"], rows), csv_meta={"tree": tree})
    return EXIT_OK


def cmd_verify_m2f(args):
    cfg, meta = _load_config(
        args,
        required=("model",),
        optional=("x0", "ks", "Rs", "psis", "functional", "cap", "tol"),
    )
    model = _load_model(cfg, args)
    x0 = _cfg_x0(cfg, model, model.types[0])
    ks = _cfg_int(cfg, "ks", [1, 2, 3], many=True, least=1)
    Rs = _cfg_int(cfg, "Rs", [1, 2, 3], many=True, least=0)
    psis = cfg.get("psis", ["unit", "harmonic"])
    if not isinstance(psis, list) or not all(isinstance(p, str) for p in psis):
        raise ConfigError(f"config key 'psis' must be a list of weight names, got {psis!r}")
    for key, values in (("ks", ks), ("Rs", Rs), ("psis", psis)):
        if not values:
            raise ConfigError(f"config key {key!r} must not be empty: nothing would be checked")
    tol = _cfg_float(cfg, "tol", 1e-9)
    cap = _cfg_int(cfg, "cap", process.OUTCOME_CAP)
    F = build_functional(cfg.get("functional", {"name": "count"}), model, k=min(ks))
    rows = []
    failed = False
    # the kernels first: a bad psi fails before brute force runs
    kernels = {psi: spine.build_kernel(model, psi) for psi in psis}
    bf = moments.BruteForceMoments(model, x0, max(Rs), cap=cap)
    for k in ks:
        # one shape sum per (k, psi) serves every R
        q = moments.MomentQuery(k=k, x0=x0, F=F, R=max(Rs))
        shape_sums = {psi: moments.moment_m2f_radii(model, q, Rs, kernels[psi]) for psi in psis}
        for i, R in enumerate(Rs):
            reference = bf.moment(k, F, R)
            for psi in psis:
                val = shape_sums[psi][i]
                diff = abs(val - reference)
                ok = diff <= tol
                failed = failed or not ok
                rows.append(
                    {
                        "k": k,
                        "R": R,
                        "psi": psi,
                        "bruteforce": reference,
                        "shape_sum": val,
                        "abs_diff": diff,
                        "status": "ok" if ok else "FAIL",
                    }
                )
    header = ["k", "R", "psi", "bruteforce", "shape_sum", "abs_diff", "status"]
    _emit(args, meta, {"rows": rows, "tol": tol}, table=(header, rows))
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_moments(args):
    cfg, meta = _load_config(
        args,
        required=("model", "x0", "k", "R"),
        optional=("psi", "functional", "route", "cap"),
    )
    k = _cfg_int(cfg, "k", least=1)
    R = _cfg_int(cfg, "R", least=0)
    cap = _cfg_int(cfg, "cap", process.OUTCOME_CAP)
    model = _load_model(cfg, args)
    x0 = _cfg_x0(cfg, model)
    psi = cfg.get("psi", "unit")
    routes = cfg.get("route", "both")
    if routes == "both":
        routes = ["m2f", "bruteforce"]
    elif isinstance(routes, str):
        routes = [routes]
    if not isinstance(routes, list) or not routes:
        raise ConfigError(
            f"config key 'route' must be a route name or a non-empty list of them, got {routes!r}"
        )
    # every name is checked before any route runs
    for route in routes:
        if route not in ("m2f", "bruteforce"):
            raise ConfigError(f"unknown route {route!r}")
    F = build_functional(cfg.get("functional", {"name": "count"}), model, k=k)
    q = moments.MomentQuery(k=k, x0=x0, F=F, R=R, psi=psi)
    records = []
    for route in routes:
        t0 = time.perf_counter()
        if route == "m2f":
            value = moments.moment_m2f(model, q)
        else:
            value = moments.moment_bruteforce(model, q, cap=cap)
        ms = int(round(1000 * (time.perf_counter() - t0)))
        records.append(
            {
                "k": k,
                "n": None,
                "psi": psi if isinstance(psi, str) else "custom",
                "value": value,
                "path": route,
                "runtime_ms": ms,
            }
        )
    header = ["k", "n", "psi", "value", "path", "runtime_ms"]
    _emit(args, meta, {"records": records}, table=(header, records))
    return EXIT_OK


def cmd_convergence(args):
    cfg, meta = _load_config(
        args,
        required=("model", "x0", "k", "n_values"),
        optional=("mode", "R", "functional", "kolmogorov_ns", "grid_step"),
    )
    k = _cfg_int(cfg, "k", least=1)
    n_values = _cfg_int(cfg, "n_values", many=True, least=1)
    kolmogorov_ns = tuple(_cfg_int(cfg, "kolmogorov_ns", (), many=True, least=1))
    model = _load_model(cfg, args)
    x0 = _cfg_x0(cfg, model)
    F = build_functional(
        cfg.get("functional", {"name": "height_indicator", "r": 1.0}), model, k=k
    )
    report = limits.convergence_report(
        model,
        k,
        F,
        n_values,
        x0,
        R=_cfg_float(cfg, "R", 1.0),
        mode=cfg.get("mode", "rescaled"),
        grid_step=_cfg_float(cfg, "grid_step") if "grid_step" in cfg else None,
        kolmogorov_ns=kolmogorov_ns,
    )
    payload = {
        "critical": report.critical,
        "perron": report.perron,
        "sigma_sq": report.sigma_sq,
        "rows": report.rows,
    }
    csv_meta = {
        "critical": _fmt(report.critical),
        "perron": _fmt(report.perron),
        "sigma_sq": _fmt(report.sigma_sq),
    }
    _emit(args, meta, payload, table=(limits.REPORT_COLUMNS, report.rows), csv_meta=csv_meta)
    return EXIT_OK


def cmd_survival(args):
    cfg, meta = _load_config(args, required=("model", "n_values"), optional=("x0",))
    model = _load_model(cfg, args)
    x0 = _cfg_x0(cfg, model) if cfg.get("x0") is not None else None
    n_values = _cfg_int(cfg, "n_values", many=True, least=1)
    eig = process.eigenpair(model)
    rows = limits.kolmogorov_rows(model, n_values, x0, eig, process.sigma_squared(model, eig))
    payload = {"critical": process.is_critical(eig), "rows": rows}
    _emit(args, meta, payload, table=(limits.REPORT_COLUMNS, rows))
    return EXIT_OK


def cmd_cpp(args):
    cfg, meta = _load_config(
        args,
        required=("k",),
        optional=("sigma_sq", "phi", "n_samples", "eps", "n_inner", "marks", "grid_step", "z_max"),
    )
    k = _cfg_int(cfg, "k", least=1)
    sigma_sq = _cfg_float(cfg, "sigma_sq", 1.0)
    spec = cfg.get("phi", {"name": "ones"})
    phi = build_phi(spec, k)
    marks = _cfg_marks(cfg)
    try:
        query = limits.LimitQuery(k=k, phi=phi, sigma_sq=sigma_sq, mark_probs=marks)
    except ValueError as e:
        # LimitQuery's message starts with the field it refuses
        field, rule = str(e).split(" ", 1)
        key = "marks" if field == "mark_probs" else field
        raise ConfigError(f"config key {key!r} {rule}") from None
    # the stderr needs two samples
    n_samples = _cfg_int(cfg, "n_samples", 100_000, least=2)
    eps = _cfg_float(cfg, "eps", 1e-3)
    # the comb has no atoms below depth eps, so it misplaces distances below 2 eps
    if spec.get("name") == "pair_indicator" and not eps < spec["r"] / 2:
        raise ConfigError(
            f"config key 'eps' must be below pair_indicator's r/2 = {spec['r'] / 2!r}, got {eps!r}"
        )
    n_inner = _cfg_int(cfg, "n_inner", 8, least=1)
    z_max = _cfg_float(cfg, "z_max", 3.0)
    # a nan would fail every z, as a verification failure
    if not z_max > 0:
        raise ConfigError(f"config key 'z_max' must be a positive number, got {z_max!r}")
    formula = limits.cpp_moment(query, grid_step=_cfg_float(cfg, "grid_step", 1e-3))
    estimate, stderr = limits.cpp_monomial_mc(
        query, n_samples=n_samples, eps=eps, n_inner=n_inner, rng=args.seed
    )
    # a phi blind to the comb gives every sample the same value, stderr 0
    if stderr > 0:
        z = (estimate - formula) / stderr
    else:
        z = 0.0 if estimate == formula else float("inf")
    payload = {
        "k": k,
        "sigma_sq": sigma_sq,
        "n_samples": n_samples,
        "eps": eps,
        "estimate": estimate,
        "stderr": stderr,
        "formula": formula,
        "z": z,
    }
    _emit(args, meta, payload)
    return EXIT_OK if abs(z) <= z_max else EXIT_VERIFY


@functools.cache
def _parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="branchlab",
        description="moment identities and scaling limits of finite-type "
        "critical branching processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "model-check": (cmd_model_check, "criticality and eigenpair diagnostics"),
        "simulate": (cmd_simulate, "sample one population tree"),
        "verify-m2f": (cmd_verify_m2f, "brute force against the shape-sum identity"),
        "moments": (cmd_moments, "k-point moment records"),
        "convergence": (cmd_convergence, "rescaled moments against their limits"),
        "survival": (cmd_survival, "scaled survival against the Kolmogorov limit"),
        "cpp": (cmd_cpp, "comb sampler against the closed-form moment"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument(
            "--threads", type=int, default=1, help="ignored; kept for old command lines"
        )
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.format is None:
        args.format = {
            "model-check": "json",
            "moments": "json",
            "cpp": "json",
        }.get(args.command, "csv")
    try:
        with _warnings_to_stderr():
            return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
