"""Acceptance gate: ten end-to-end checks, one printed line each.

Every check pins its tolerance and its runtime budget; the excursion
check at the end only warns, since it rides on a slowly decaying
truncation bias.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from branchlab.limits import (
    LimitQuery,
    convergence_report,
    cpp_monomial_mc,
    crt_moment,
    donsker_crt_check,
    lambda_k_integral,
)
from branchlab.moments import (
    BranchFunctional,
    BruteForceMoments,
    MomentQuery,
    PathFunctional,
    as_functional,
    many_to_one,
    moment_m2f,
    moment_recursive,
)
from branchlab.limits import kolmogorov_rows
from branchlab.process import eigenpair, sigma_squared
from branchlab.spine import build_kernel
from branchlab.trees import (
    count_deficient_tuples,
    count_shapes,
    decode_heights,
    encode_heights,
    generate_trees,
)

from conftest import (
    batch_shapes,
    make_asymmetric,
    make_binary,
    make_symmetric,
    seed_enumerate_population,
)


def _report(capsys, name, ok, detail, warn_only=False):
    status = "PASS" if ok else ("WARN" if warn_only else "FAIL")
    with capsys.disabled():
        print(f"[{status}] {name}: {detail}")
    if not warn_only:
        assert ok, f"{name}: {detail}"


def count_F(shape, lt, bt):
    return 1.0


def typed_F(shape, lt, bt):
    w = {"A": 1.3, "B": 0.7, "a": 1.1}
    val = 1.0
    for l, t in zip(shape.leaf_heights, lt):
        val *= w[t] / (1.0 + l)
    for b, t in zip(shape.branch_heights, bt):
        val *= 1.0 + 0.5 * b * w[t]
    return val


def history_weight(path):
    w = {"A": 1.25, "B": 0.8, "a": 1.1}
    val = w[path[-1]]
    for a, b in zip(path, path[1:]):
        if a == b:
            val *= 1.1
    return val


def test_a01_shape_sum_equals_bruteforce(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    worst = 0.0
    cells = 0
    for model, x0 in [(make_binary(), "a"), (make_symmetric(), "A")]:
        bf = BruteForceMoments(model, x0, horizon=3)
        kernels = {p: build_kernel(model, p) for p in ("unit", "harmonic")}
        for k in (1, 2, 3):
            for R in (1, 2, 3):
                for psi in ("unit", "harmonic"):
                    for F in (count_F, typed_F):
                        want = bf.moment(k, F, R)
                        q = MomentQuery(k=k, x0=x0, F=F, R=R, psi=psi)
                        got = moment_m2f(model, q, kernel=kernels[psi])
                        worst = max(worst, abs(got - want))
                        cells += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= budget
    _report(
        capsys,
        "A1 shape sum vs brute force",
        ok,
        f"max |diff| {worst:.2e} over {cells} cells "
        f"(tol 1e-09, {elapsed:.1f}s of {budget:.0f}s)",
    )


def test_a02_single_vertex_sums(capsys):
    worst = 0.0
    cells = 0
    for model in (make_binary(), make_symmetric()):
        kernels = [build_kernel(model, p) for p in ("unit", "harmonic")]
        for n in (1, 2, 3, 4):
            for x0 in model.types:
                direct = Fraction(0)
                for p, mt in seed_enumerate_population(model, x0, n):
                    for v in mt.tree.vertices:
                        if len(v) == n:
                            path = tuple(mt.marks[v[:j]] for j in range(n + 1))
                            direct += p * Fraction(str(history_weight(path)))
                for ker in kernels:
                    got = many_to_one(ker, x0, n, history_weight)
                    worst = max(worst, abs(got - float(direct)))
                    cells += 1
    ok = worst <= 1e-12
    _report(
        capsys,
        "A2 weighted single-vertex sums",
        ok,
        f"max |diff| {worst:.2e} over {cells} cases (tol 1e-12)",
    )


def test_a03_branch_recursion(capsys):
    worst = 0.0
    pair = BranchFunctional(
        lambda s, t: float(s <= 1) * (1.0 + 0.3 * (t == "A")),
        (
            PathFunctional(lambda l, t: float(l <= 1) * (1.2 if t == "A" else 0.9)),
            PathFunctional(lambda l, t: float(l <= 1)),
        ),
    )
    triple = BranchFunctional(
        lambda s, t: float(s <= 1),
        (
            BranchFunctional(
                lambda s, t: float(s <= 0),
                (
                    PathFunctional(lambda l, t: float(l <= 1)),
                    PathFunctional(lambda l, t: float(l <= 1) * (1 + l)),
                ),
            ),
            PathFunctional(lambda l, t: float(l <= 1)),
        ),
    )
    cases = []
    for model, x0 in [
        (make_binary(), "a"),
        (make_asymmetric(), "A"),
        (make_asymmetric(), "B"),
    ]:
        for func in (pair, triple):
            q = MomentQuery(k=func.k, x0=x0, F=func, R=4)
            got = moment_recursive(model, q)
            want = moment_m2f(
                model, MomentQuery(k=func.k, x0=x0, F=as_functional(func), R=4)
            )
            worst = max(worst, abs(got - want))
            cases.append(func.k)
        # enumeration visits each leaf set once in planar order while the
        # recursion weighs both leaf orders; the cross-check functional must
        # therefore not distinguish left from right
        sym_pair = BranchFunctional(
            lambda s, t: float(s <= 1) * (1.0 + 0.3 * (t == "A")),
            (PathFunctional(lambda l, t: float(l <= 1) * (1.2 if t == "A" else 0.9)),)
            * 2,
        )
        q = MomentQuery(k=2, x0=x0, F=as_functional(sym_pair), R=3)
        bf = BruteForceMoments(model, x0, horizon=3)
        want = bf.moment(2, q.F, 3)
        got = moment_recursive(model, MomentQuery(k=2, x0=x0, F=sym_pair, R=3))
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-9
    _report(
        capsys,
        "A3 branch recursion",
        ok,
        f"max |diff| {worst:.2e} over {len(cases)} functionals "
        f"plus enumeration cross-checks (tol 1e-09)",
    )


def test_a04_survival_scaling(capsys):
    budget = 1.0
    results = []
    for model, tol in [(make_binary(), 0.05), (make_symmetric(), 0.1)]:
        t0 = time.perf_counter()
        eig = eigenpair(model)
        rows = kolmogorov_rows(model, [10_000], None, eig, sigma_squared(model, eig))
        elapsed = time.perf_counter() - t0
        for row in rows:
            err = abs(row["observed"] - row["limit"])
            results.append((err, tol, elapsed))
    ok = all(err <= tol and el <= budget for err, tol, el in results)
    worst = max(err for err, _, _ in results)
    slowest = max(el for _, _, el in results)
    _report(
        capsys,
        "A4 scaled survival at n=10^4",
        ok,
        f"max |n P - 2 h / sigma^2| {worst:.4f} "
        f"(tol 0.05 / 0.1, {slowest:.2f}s of {budget:.0f}s per model)",
    )


def test_a05_single_leaf_rescaling(capsys):
    budget = 10.0
    t0 = time.perf_counter()
    worst = 0.0
    sym_w = {"A": 1.4, "B": 0.6}

    def F_binary(shape, lt, bt):
        return float(shape.height <= 1.0)

    def F_sym(shape, lt, bt):
        return sym_w[lt[0]] * float(shape.height <= 1.0)

    cases = [(make_binary(), "a", F_binary)]
    sym = make_symmetric()
    cases += [(sym, x0, F_sym) for x0 in sym.types]
    for model, x0, F in cases:
        rep = convergence_report(model, 1, F, [100], x0)
        worst = max(worst, rep.rows[0]["rel_error"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.02 and elapsed <= budget
    _report(
        capsys,
        "A5 single-leaf moment at n=100",
        ok,
        f"max rel err {worst:.4f} (tol 0.02, {elapsed:.1f}s of {budget:.0f}s)",
    )


def test_a06_pair_rescaling(capsys):
    budget = 600.0
    t0 = time.perf_counter()

    def F_height(shape, lt, bt):
        return float(shape.height <= 1.0)

    worst_resc = 0.0
    for model, x0 in [(make_binary(), "a"), (make_symmetric(), "A")]:
        rep = convergence_report(
            model, 2, F_height, [40], x0, grid_step=0.01
        )
        worst_resc = max(worst_resc, rep.rows[0]["rel_error"])
    elapsed_resc = time.perf_counter() - t0

    from branchlab.trees import distance_matrix

    def F_pair(shape, lt, bt):
        return float(distance_matrix(shape)[1, 2] <= 1.0)

    slice_budget = 10.0
    t1 = time.perf_counter()
    worst_slice = 0.0
    for model, x0 in [(make_binary(), "a"), (make_symmetric(), "A")]:
        rep = convergence_report(
            model, 2, F_pair, [100], x0, mode="ultrametric"
        )
        worst_slice = max(worst_slice, rep.rows[0]["rel_error"])
    elapsed_slice = time.perf_counter() - t1

    ok = (
        worst_resc <= 0.10
        and elapsed_resc <= budget
        and worst_slice <= 0.05
        and elapsed_slice <= slice_budget
    )
    _report(
        capsys,
        "A6 pair moments at n=40 / n=100",
        ok,
        f"rescaled rel err {worst_resc:.4f} (tol 0.10, {elapsed_resc:.1f}s), "
        f"generation slice rel err {worst_slice:.4f} "
        f"(tol 0.05, {elapsed_slice:.1f}s)",
    )


def test_a07_comb_sampler(capsys):
    checks = []
    q1 = LimitQuery(k=1, phi=lambda D, m: float(D[0, 1] <= 1.0))
    est, err = cpp_monomial_mc(q1, n_samples=100_000, eps=0.5, rng=0)
    checks.append((est, err, 0.5))
    q2 = LimitQuery(k=2, phi=lambda D, m: float(D[1, 2] <= 1.0))
    est2, err2 = cpp_monomial_mc(q2, n_samples=100_000, eps=0.1, rng=0)
    checks.append((est2, err2, 0.25))
    # a zero stderr (phi one on every comb) must come with the exact value
    zs = [(e - want) / s if s else (0.0 if e == want else float("inf")) for e, s, want in checks]
    rels = [s / want for _, s, want in checks]
    ok = all(abs(z) <= 3.0 for z in zs) and all(r <= 0.01 for r in rels)
    _report(
        capsys,
        "A7 comb sampler vs formula",
        ok,
        f"z scores {zs[0]:+.2f}, {zs[1]:+.2f} (gate 3.0); "
        f"rel stderr {max(rels):.4f} (gate 0.01) at 10^5 samples",
    )


def test_a08_shape_volume_mc(capsys):
    f = lambda L, B: np.ones(L.shape[0])
    est, err = lambda_k_integral(2, f, method="mc", n_samples=1_000_000, rng=0)
    z = (est - 1 / 3) / err
    ok = abs(est - 1 / 3) <= 3 * err
    _report(
        capsys,
        "A8 pair shape volume",
        ok,
        f"MC {est:.6f} vs 1/3, z {z:+.2f} at 10^6 samples (gate 3 stderr)",
    )


def test_a09_encoding_bijection(capsys):
    shapes = 0
    fails = 0
    from_shapes = set()
    for k in (1, 2, 3):
        for shape in batch_shapes(k, 4):
            tree = decode_heights(shape)
            if encode_heights(tree) != shape:
                fails += 1
            from_shapes.add(tree)
            shapes += 1
    family = list(generate_trees(4, 3))
    for tree in family:
        if decode_heights(encode_heights(tree)) != tree:
            fails += 1
    if from_shapes != set(family):
        fails += 1
    if shapes != sum(count_shapes(k, 4) for k in (1, 2, 3)):
        fails += 1
    bound_viol = 0
    for idx, tree in enumerate(family):
        n, h = tree.size, tree.height
        if count_deficient_tuples(tree, 2) > 2 * n * (h + 1):
            bound_viol += 1
        if idx % 7 == 0 and count_deficient_tuples(tree, 3) > 6 * n**2 * (h + 1):
            bound_viol += 1
    ok = fails == 0 and bound_viol == 0
    _report(
        capsys,
        "A9 height-encoding bijection",
        ok,
        f"{shapes} shapes and {len(family)} trees round-tripped, "
        f"{fails} failures; deficient-tuple bound violations {bound_viol}",
    )


def test_a10_excursion_limit(capsys):
    est, err = donsker_crt_check(
        R=1.0,
        sigma_sq=1.0,
        n_excursions=10_000,
        n_steps=10_000,
        l_max=300.0,
        rng=7,
    )
    want, _ = crt_moment(
        LimitQuery(k=1, phi=lambda D, m: float(D[0, 1] <= 1.0), R=1.0),
        method="grid",
        grid_step=1e-4,
    )
    rel = abs(est - want) / want
    ok = rel <= 0.10
    _report(
        capsys,
        "A10 excursion contour limit",
        ok,
        f"walk estimate {est:.4f}±{err:.4f} vs {want:.4f}, "
        f"rel err {rel:.4f} (gate 0.10, warn only)",
        warn_only=True,
    )
