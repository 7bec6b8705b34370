"""Continuum limits: shape integrals, the Poisson comb, walk excursions."""

import contextlib
import itertools
import math
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from branchlab.cli import ConfigError, build_functional, build_phi, csv_text
from branchlab.limits import (
    REPORT_COLUMNS,
    LimitQuery,
    convergence_report,
    cpp_moment,
    cpp_monomial_mc,
    cpp_monomial_samples,
    crt_moment,
    donsker_crt_check,
    lambda_k_integral,
    lambda_tilde_k_integral,
    sample_excursions,
)
from branchlab.limits import _draw_combs, _observed_orders, _range_distances
from branchlab import limits
from branchlab.process import eigenpair, sigma_squared
from branchlab.trees import TreeShape, _per_row, count_shapes, fold


def ones_f(L, B):
    return np.ones(len(L))


class TestShapeIntegrals:
    def test_pair_volume_grid(self):
        # integral of min(l1, l2) over the unit square is 1/3
        val, err = lambda_k_integral(2, ones_f, method="grid", grid_step=0.005)
        assert err == 0.0
        assert abs(val - 1 / 3) <= 5e-3

    def test_grid_total_is_the_left_fold_of_its_values(self, asymmetric):
        # builtin sum compensates from Python 3.12 on, and on these values
        # it ends in other bits (0x1.6976666666666p+10) than this loop
        spec = {"name": "height_indicator", "r": 0.9, "weights": {"A": 0.7, "B": 1.3}}
        F = build_functional(spec, asymmetric, k=2)
        eig = eigenpair(asymmetric)
        pi = {x: float(eig.pi[i]) for i, x in enumerate(asymmetric.types)}
        f = limits._mark_average(F, limits._type_tuples(asymmetric.types, pi, 2))
        seen = []

        def g(L, B):
            seen.append(_per_row(f, L, B))
            return seen[-1]

        got, _ = lambda_k_integral(2, g, method="grid", grid_step=0.05)
        total = _left_sum(seen[0].tolist())
        assert len(seen[0]) == 2470
        assert total.hex() == "0x1.6976666666558p+10"
        assert got.hex() == ((1.0 / 20) ** 3 * total).hex()

    def test_huge_grids_rejected(self):
        with pytest.raises(ValueError, match="grid_step"):
            lambda_k_integral(3, ones_f, method="grid", grid_step=0.02)
        with pytest.raises(ValueError, match="grid_step"):
            lambda_tilde_k_integral(4, ones_f, method="grid", grid_step=1e-3)

    @pytest.mark.parametrize("step", [0, 0.0, -0.5, "0.05", None, True, float("nan"), math.inf])
    def test_grid_step_must_be_a_positive_number(self, step):
        for integrate in (lambda_k_integral, lambda_tilde_k_integral):
            for k in (1, 2):
                with pytest.raises(ValueError, match="grid_step"):
                    integrate(k, ones_f, method="grid", grid_step=step)

    def test_pair_volume_mc(self):
        val, err = lambda_k_integral(2, ones_f, method="mc", rng=8)
        assert 0 < err < 2.5e-3
        assert abs(val - 1 / 3) <= 4 * err

    def test_truncated_meet_height(self):
        # cutting the meet at 1/2 leaves 7/24 of the volume
        f = lambda L, B: B[:, 0] <= 0.5
        val, _ = lambda_k_integral(2, f, method="grid", grid_step=0.005)
        assert abs(val - 7 / 24) <= 5e-3

    def test_single_leaf_is_leaf_height_integral(self):
        val, _ = lambda_k_integral(1, ones_f, method="grid", grid_step=1e-3)
        assert abs(val - 1.0) <= 1e-9
        val2, _ = lambda_k_integral(1, ones_f, R=2.5, method="grid", grid_step=1e-3)
        assert abs(val2 - 2.5) <= 1e-9

    def test_wrong_shaped_return_raises(self):
        # a per-point lambda handed a batch returns one row, not N values
        per_point = lambda l, b: l[0] + 0.25 * b[0]
        for bad in (per_point, lambda L, B: 1.0, lambda L, B: L):
            for method in ("grid", "mc"):
                with pytest.raises(ValueError, match="values, one per row"):
                    lambda_k_integral(2, bad, method=method, grid_step=0.1, n_samples=50)
                with pytest.raises(ValueError, match="values, one per row"):
                    lambda_tilde_k_integral(2, bad, method=method, grid_step=0.1, n_samples=50)
        with pytest.raises(ValueError, match="values, one per row"):
            lambda_tilde_k_integral(1, lambda L, B: 7.25)
        with pytest.raises(ValueError, match="values, one per row"):
            lambda_k_integral(2, lambda L, B: L[:, :1], method="grid", grid_step=0.1)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            lambda_k_integral(0, ones_f)
        with pytest.raises(ValueError):
            lambda_k_integral(2, ones_f, method="simpson")


class TestUnitCubeIntegrals:
    def test_single_leaf_is_point_evaluation(self):
        f = lambda L, B: np.full(len(L), 7.25)
        assert lambda_tilde_k_integral(1, f) == (7.25, 0.0)

    def test_linear_integrand_is_exact_on_grid(self):
        f = lambda L, B: B[:, 0]
        val, _ = lambda_tilde_k_integral(2, f, method="grid", grid_step=1e-3)
        assert abs(val - 0.5) <= 1e-12

    def test_indicator_with_aligned_threshold(self):
        f = lambda L, B: (B[:, 0] >= 0.5).astype(float)
        val, _ = lambda_tilde_k_integral(2, f, method="grid", grid_step=1e-3)
        assert abs(val - 0.5) <= 1e-12

    def test_product_integrand_three_leaves(self):
        f = lambda L, B: B[:, 0] * B[:, 1]
        val, _ = lambda_tilde_k_integral(3, f, method="grid", grid_step=0.01)
        assert abs(val - 0.25) <= 1e-9

    def test_mc_agrees(self):
        f = lambda L, B: B[:, 0] >= 0.5
        val, err = lambda_tilde_k_integral(2, f, method="mc", n_samples=40_000, rng=5)
        assert abs(val - 0.5) <= 4 * err


class TestTreeMoment:
    def test_single_leaf_indicator(self):
        q = LimitQuery(k=1, phi=lambda D, m: float(D[0, 1] <= 1.0), R=1.0)
        val, _ = crt_moment(q, method="grid", grid_step=1e-4)
        assert abs(val - 1.0) <= 1e-9
        q2 = LimitQuery(k=1, phi=lambda D, m: float(D[0, 1] <= 2.0), R=2.0)
        val2, _ = crt_moment(q2, method="grid", grid_step=1e-4)
        assert abs(val2 - 2.0) <= 1e-9

    def test_pair_height_indicator(self):
        # both leaf orderings contribute: 2 * (1/2) * 1/3
        phi = lambda D, m: float(D[0, 1] <= 1.0 and D[0, 2] <= 1.0)
        q = LimitQuery(k=2, phi=phi, sigma_sq=1.0, R=1.0)
        val, _ = crt_moment(q, method="grid", grid_step=0.01)
        assert abs(val - 1 / 3) <= 7e-3
        mc, err = crt_moment(q, method="mc", n_samples=200_000, rng=2)
        assert abs(mc - 1 / 3) <= 4 * err

    def test_variance_prefactor(self):
        phi = lambda D, m: float(D[0, 1] <= 1.0 and D[0, 2] <= 1.0)
        base, _ = crt_moment(LimitQuery(k=2, phi=phi), method="grid", grid_step=0.05)
        double, _ = crt_moment(
            LimitQuery(k=2, phi=phi, sigma_sq=2.0), method="grid", grid_step=0.05
        )
        assert abs(double - 2.0 * base) <= 1e-12

    def test_leaf_symmetrization(self):
        # phi reading only the first leaf equals phi reading only the second
        qa = LimitQuery(k=2, phi=lambda D, m: float(D[0, 1] <= 0.7))
        qb = LimitQuery(k=2, phi=lambda D, m: float(D[0, 2] <= 0.7))
        va, _ = crt_moment(qa, method="grid", grid_step=0.05)
        vb, _ = crt_moment(qb, method="grid", grid_step=0.05)
        assert abs(va - vb) <= 1e-12

    def test_independent_marks(self):
        phi = lambda D, m: float(m[0] == "A") * float(D[0, 1] <= 1.0)
        q = LimitQuery(k=1, phi=phi, mark_probs={"A": 0.3, "B": 0.7}, R=1.0)
        val, _ = crt_moment(q, method="grid", grid_step=1e-4)
        assert abs(val - 0.3) <= 1e-9


class TestCombMoment:
    def test_single_leaf(self):
        q = LimitQuery(k=1, phi=lambda D, m: float(D[0, 1] <= 1.0))
        assert abs(cpp_moment(q) - 0.5) <= 1e-12
        q2 = LimitQuery(k=1, phi=lambda D, m: float(D[0, 1] <= 1.0), sigma_sq=9 / 8)
        assert abs(cpp_moment(q2) - 9 / 16) <= 1e-12

    def test_pair_indicator(self):
        for r, want in [(1.0, 0.25), (0.8, 0.2)]:
            q = LimitQuery(k=2, phi=lambda D, m, r=r: float(D[1, 2] <= r))
            assert abs(cpp_moment(q) - want) <= 1e-12


def seed_combs(rng, eps, k, m):
    """A block of m combs, drawn in the batched comb's order: m lengths Z
    Gamma(k + 1) (the exponential length size-biased by Z^k), their
    Poisson atom counts of mean Z (1/eps - 1), one uniform per atom for its
    position as a fraction of its Z, then one uniform per atom mapped to a
    depth of intensity ds / s^2 on (eps, 1].  Each comb's positions are
    sorted and its depths kept in draw order: the depth uniforms are
    i.i.d. and independent of position."""
    a = 1.0 / eps
    Z = rng.standard_gamma(k + 1, size=m)
    counts = rng.poisson(Z * (a - 1.0))
    t = rng.random(counts.sum())
    u = rng.random(counts.sum())
    combs = []
    for z, stop, count in zip(Z, np.cumsum(counts), counts):
        depths = 1.0 / (a - u[stop - count : stop] * (a - 1.0))
        combs.append(SimpleNamespace(Z=float(z), positions=np.sort(t[stop - count : stop]), depths=depths))
    return combs


def seed_blocks(k, eps, n_inner, n_samples):
    """The block sizes of the batched comb: each min(samples left, 1023,
    _COMB_CHUNK over the larger of a comb's expected atoms
    (k + 1)(1/eps - 1) and its n_inner inner tuples), at least one."""
    full = min(1023, max(1, int(limits._COMB_CHUNK / max((k + 1) * (1.0 / eps - 1.0), n_inner))))
    return [min(full, n_samples - done) for done in range(0, n_samples, full)]


def comb_distances(comb, us, vs):
    """Comb distances of the pairs (us[q], vs[q]) by _range_distances over
    the atoms with positions in (min, max], as the batched comb indexes
    them."""
    i = np.searchsorted(comb.positions, us, side="right")
    j = np.searchsorted(comb.positions, vs, side="right")
    return _range_distances(comb.depths, np.minimum(i, j), np.maximum(i, j))


def scalar_cpp_distance(sample, u, v):
    """Comb distance of one pair, the reference for comb_distances: twice
    the deepest atom strictly between the two points (positions in
    (min, max]), zero when there is none."""
    if u == v:
        return 0.0
    lo, hi = (u, v) if u < v else (v, u)
    i1 = int(np.searchsorted(sample.positions, lo, side="right"))
    i2 = int(np.searchsorted(sample.positions, hi, side="right"))
    if i2 <= i1:
        return 0.0
    return 2.0 * float(sample.depths[i1:i2].max())


class TestCombSampler:
    def test_eps_validated(self):
        q = LimitQuery(k=1, phi=lambda D, m: 1.0)
        with pytest.raises(ValueError, match="eps"):
            cpp_monomial_samples(q, n_samples=2, eps=0.0, rng=0)
        with pytest.raises(ValueError, match="eps"):
            cpp_monomial_samples(q, n_samples=2, eps=1.5, rng=0)

    def test_sample_layout(self):
        # keys (comb << 53) | t 2^53, sorted: by comb, then by position
        Z, keys, depths = _draw_combs(np.random.default_rng(4), 1.0 / 0.05, 2, 50)
        combs, t = keys >> 53, (keys & (2**53 - 1)) / 2.0**53
        assert len(Z) == 50 and np.all(Z > 0)
        assert len(keys) > 0 and len(depths) == len(keys)
        assert np.all(np.diff(keys) >= 0)
        assert np.all((depths > 0.05) & (depths <= 1.0))
        assert np.all((combs >= 0) & (combs < 50))
        assert np.all((t >= 0) & (t < 1))

    def test_atom_count_intensity(self):
        # E[count | Z] = Z (1/eps - 1)
        rng = np.random.default_rng(6)
        a = 1.0 / 0.2
        resid = []
        for _ in range(3):
            Z, keys, _ = _draw_combs(rng, a, 1, 1000)
            resid.append(np.bincount(keys >> 53, minlength=1000) - Z * (a - 1.0))
        resid = np.concatenate(resid)
        assert abs(resid.mean()) <= 4 * resid.std(ddof=1) / np.sqrt(len(resid))

    def test_length_size_biased(self):
        # Z is Gamma(k + 1), carrying the weight Z^k, so a constant phi
        # gives every sample exactly (sigma^2/2)^k k!
        rng = np.random.default_rng(8)
        for k in (1, 2, 3):
            Z = np.concatenate([_draw_combs(rng, 5.0, k, 1000)[0] for _ in range(4)])
            assert abs(Z.mean() - (k + 1)) <= 4 * Z.std(ddof=1) / np.sqrt(len(Z))
            q = LimitQuery(k=k, phi=lambda D, m: 1.0, sigma_sq=1.3)
            got = cpp_monomial_samples(q, n_samples=50, eps=0.2, n_inner=3, rng=k)
            assert set(got.tolist()) == {(1.3 / 2.0) ** k * math.factorial(k)}

    def test_distance_hand_case(self):
        s = SimpleNamespace(positions=np.array([1.0, 2.0, 3.0]), depths=np.array([0.3, 0.9, 0.5]))
        cases = [(0.5, 2.5, 1.8), (2.5, 0.5, 1.8), (2.1, 2.9, 0.0), (1.5, 3.0, 1.8), (2.2, 2.2, 0.0)]
        for u, v, want in cases:
            assert scalar_cpp_distance(s, u, v) == want
        us, vs, want = map(np.array, zip(*cases))
        assert comb_distances(s, us, vs).tolist() == want.tolist()

    def test_empty_comb(self):
        s = SimpleNamespace(positions=np.array([]), depths=np.array([]))
        assert scalar_cpp_distance(s, 0.1, 0.9) == 0.0
        assert comb_distances(s, np.array([0.1, 0.5]), np.array([0.9, 0.5])).tolist() == [0.0, 0.0]

    def test_batch_distances_match_scalar(self):
        s = seed_combs(np.random.default_rng(13), 0.1, 2, 1)[0]
        rng = np.random.default_rng(14)
        # positions are fractions of the comb's length
        us = rng.random(40)
        vs = rng.random(40)
        batch = comb_distances(s, us, vs)
        for i in range(40):
            assert batch[i] == scalar_cpp_distance(s, us[i], vs[i])

    def test_monomial_estimates_match_formula(self):
        q1 = LimitQuery(k=1, phi=lambda D, m: float(D[0, 1] <= 1.0))
        est, err = cpp_monomial_mc(q1, n_samples=20_000, eps=0.5, rng=0)
        # the root distance is always 1, so phi is one, and the size-biased
        # length leaves no variance: every sample is the formula
        assert (est, err) == (0.5, 0.0)
        q2 = LimitQuery(k=2, phi=lambda D, m: float(D[1, 2] <= 1.0))
        est2, err2 = cpp_monomial_mc(q2, n_samples=20_000, eps=0.1, rng=0)
        assert 0 < err2 < 0.01
        assert abs(est2 - 0.25) <= 4 * err2

    def test_estimates_stable_in_eps(self):
        q = LimitQuery(k=2, phi=lambda D, m: float(D[1, 2] <= 1.0))
        a, ea = cpp_monomial_mc(q, n_samples=15_000, eps=0.1, rng=123)
        b, eb = cpp_monomial_mc(q, n_samples=15_000, eps=0.05, rng=123)
        assert abs(a - b) <= 3 * np.hypot(ea, eb)

    def test_marked_comb(self):
        phi = lambda D, m: float(m[0] == "A")
        q = LimitQuery(k=1, phi=phi, mark_probs={"A": 0.3, "B": 0.7})
        est, err = cpp_monomial_mc(q, n_samples=10_000, eps=0.4, rng=3)
        assert abs(est - 0.15) <= 4 * err


def seed_cpp_monomial_samples(query, n_samples, eps, n_inner, rng):
    """The comb draws a block of seed_blocks at a time, then estimates one
    sample and one matrix per inner tuple at a time, with distances from
    the scalar reference; kept as the oracle of the batched sampler."""
    k = query.k
    if query.mark_probs is not None:
        labels = sorted(query.mark_probs)
        probs = np.array([query.mark_probs[c] for c in labels])
    ests = []
    for m in seed_blocks(k, eps, n_inner, n_samples):
        combs = seed_combs(rng, eps, k, m)
        us = rng.random((m, n_inner, k))
        if query.mark_probs is not None:
            marks = rng.choice(len(labels), size=(m, n_inner, k), p=probs)
        for c, sample in enumerate(combs):
            acc = 0.0
            for t in range(n_inner):
                D = np.zeros((k + 1, k + 1))
                D[0, 1:] = D[1:, 0] = 1.0
                for i, j in itertools.combinations(range(k), 2):
                    D[i + 1, j + 1] = D[j + 1, i + 1] = scalar_cpp_distance(
                        sample, us[c, t, i], us[c, t, j]
                    )
                if query.mark_probs is None:
                    mk = (None,) * k
                else:
                    mk = tuple(labels[x] for x in marks[c, t])
                acc += query.phi(D, mk)
            ests.append((query.sigma_sq / 2.0) ** k * math.factorial(k) * (acc / n_inner))
    return np.array(ests)


def _every_comb_entry(D, marks):
    # each entry of D with its own weight, and the first mark
    w = np.arange(1.0, D.size + 1.0).reshape(D.shape) ** 0.5
    return float((D * w).sum()) * (1.5 if marks[0] == "A" else 1.0)


def named_pair_indicator(r, k, batched):
    """cli.build_phi's pair indicator, or its scalar form alone, and the
    seed's scalar lambda for the reference side."""
    phi = build_phi({"name": "pair_indicator", "r": r}, k)
    assert callable(phi.batched)
    seed = lambda D, marks: 1.0 if D[1, 2] <= r else 0.0
    return (phi if batched else (lambda D, m: phi(D, m))), seed


class TestCombOracle:
    """The batched comb draws what the seed draws and gives its bits."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("marks", [None, {"A": 0.3, "B": 0.7}])
    @pytest.mark.parametrize("n_inner", [1, 3, 8])
    def test_against_seed(self, k, marks, n_inner):
        q = LimitQuery(k=k, phi=_every_comb_entry, sigma_sq=1.3, mark_probs=marks)
        rng = np.random.default_rng(40 + k)
        ref = np.random.default_rng(40 + k)
        # eps 0.05 gives 19 Z atoms on average, none in one comb of twenty
        got = limits.cpp_monomial_samples(q, n_samples=60, eps=0.05, n_inner=n_inner, rng=rng)
        want = seed_cpp_monomial_samples(q, 60, 0.05, n_inner, ref)
        assert _hex_matrix(got) == _hex_matrix(want)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("marks", [None, {"A": 0.3, "B": 0.7}])
    @pytest.mark.parametrize("batched", [False, True])
    def test_named_pair_indicator(self, k, marks, batched):
        # the seed calls the parent's lambda per inner tuple; the library
        # calls the batched form per chunk, or the plain one per tuple
        phi, seed = named_pair_indicator(0.9, k, batched)
        q = LimitQuery(k=k, phi=phi, sigma_sq=1.3, mark_probs=marks)
        rng = np.random.default_rng(60 + k)
        ref = np.random.default_rng(60 + k)
        got = limits.cpp_monomial_samples(q, n_samples=120, eps=0.05, n_inner=8, rng=rng)
        want = seed_cpp_monomial_samples(replace(q, phi=seed), 120, 0.05, 8, ref)
        assert _hex_matrix(got) == _hex_matrix(want)
        assert rng.bit_generator.state == ref.bit_generator.state
        # an indicator's mean over eight inner tuples, times the constant
        # (sigma^2/2)^k k!, takes at most nine values; most of them occur
        scale = (q.sigma_sq / 2.0) ** k * math.factorial(k)
        assert 5 < len(set(got.tolist())) and set(got.tolist()) <= {scale * (j / 8) for j in range(9)}

    @pytest.mark.parametrize(
        "marks",
        [
            {"A": 0.3, "B": 0.7},
            # a zero-probability label ties two cdf entries
            {"A": 0.2, "B": 0.0, "C": 0.3, "D": 0.5},
            {"x": 1 / 3, "y": 1 / 3, "z": 1 / 3},
            # sums to 0.9999999999999999 left to right: choice rescales the cdf
            {"a": 0.7, "b": 0.2, "c": 0.1},
        ],
    )
    def test_mark_draws_are_choice_draws(self, marks):
        # the comb draws a block's marks with Generator.choice's cdf and
        # searchsorted; the seed calls rng.choice on the block: every mark
        # tuple and the stream after must be the same
        def recording(seen):
            def phi(D, m):
                seen.append(m)
                return 1.0

            return phi

        for seed in range(50):
            got, want = [], []
            rng = np.random.default_rng(seed)
            ref = np.random.default_rng(seed)
            q = LimitQuery(k=3, phi=recording(got), mark_probs=marks)
            limits.cpp_monomial_samples(q, n_samples=6, eps=0.5, n_inner=3, rng=rng)
            seed_cpp_monomial_samples(replace(q, phi=recording(want)), 6, 0.5, 3, ref)
            assert got == want, seed
            assert rng.bit_generator.state == ref.bit_generator.state, seed
            assert all(marks[c] > 0 for m in got for c in m)

    @pytest.mark.parametrize(
        "marks",
        [
            {"A": -0.5, "B": 1.5},
            {"A": 0.3, "B": 0.6},
            {"A": float("nan"), "B": 1.0},
            {"A": float("inf"), "B": 0.0},
            {},
        ],
    )
    @pytest.mark.parametrize(
        "route",
        [
            lambda q: crt_moment(q, grid_step=0.1),
            lambda q: cpp_moment(q, grid_step=0.1),
            lambda q: limits.cpp_monomial_samples(q, n_samples=4, eps=0.5, n_inner=2, rng=1),
        ],
        ids=["crt", "cpp_formula", "comb"],
    )
    def test_bad_mark_probs_rejected(self, marks, route):
        # the laws Generator.choice refuses, refused where the query is
        # built, so no route reads them
        with pytest.raises(ValueError, match="mark_probs"):
            route(LimitQuery(k=1, phi=lambda D, m: 1.0, mark_probs=marks))

    def test_indicator_phi(self):
        q = LimitQuery(k=3, phi=lambda D, m: float(D[1, 3] <= 0.4), sigma_sq=0.9)
        got = limits.cpp_monomial_samples(q, n_samples=200, eps=0.1, n_inner=8, rng=3)
        want = seed_cpp_monomial_samples(q, 200, 0.1, 8, np.random.default_rng(3))
        assert _hex_matrix(got) == _hex_matrix(want)
        assert 0 < np.count_nonzero(got) < len(got)

    @pytest.mark.parametrize(
        "eps, n_samples, chunk, split",
        [
            (1e-3, 12, None, True),
            (0.5, 300, None, False),
            (0.1, 300, 64, True),
            (1e-3, 6, 64, True),
            (0.1, 300, 512, True),
        ],
        ids=["eps-1e-3", "eps-0.5", "small-chunks-eps-0.1", "small-chunks-eps-1e-3", "blocks-eps-0.1"],
    )
    def test_eps_range_and_chunks(self, monkeypatch, eps, n_samples, chunk, split):
        # eps 1e-3 gives about four thousand atoms per comb at k = 3, so
        # each of twelve combs is a block of its own at the default 2^12;
        # eps 0.5 gives four on average and none in one comb of sixteen, so
        # eight inner tuples set the block at 2^12 / 8 = 512 combs and 300
        # samples are one block; at a chunk of 64 the 36 atoms a comb
        # carries at eps 0.1 make every comb a block, and at 512 the blocks
        # hold 14 combs, the last six
        if chunk is not None:
            monkeypatch.setattr(limits, "_COMB_CHUNK", chunk)
        chunks = []
        chunk_estimates = limits._comb_chunk

        def counted(*args):
            chunks.append(chunk_estimates(*args))
            return chunks[-1]

        monkeypatch.setattr(limits, "_comb_chunk", counted)
        q = LimitQuery(k=3, phi=_every_comb_entry, sigma_sq=1.3, mark_probs={"A": 0.3, "B": 0.7})
        rng = np.random.default_rng(50)
        ref = np.random.default_rng(50)
        got = limits.cpp_monomial_samples(q, n_samples=n_samples, eps=eps, n_inner=8, rng=rng)
        want = seed_cpp_monomial_samples(q, n_samples, eps, 8, ref)
        assert _hex_matrix(got) == _hex_matrix(want)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert sum(map(len, chunks)) == n_samples
        assert (len(chunks) > 1) == split
        assert list(map(len, chunks)) == seed_blocks(3, eps, 8, n_samples)

    def test_bad_sizes_rejected(self):
        q = LimitQuery(k=2, phi=lambda D, m: 1.0)
        with pytest.raises(ValueError, match="n_inner"):
            limits.cpp_monomial_samples(q, n_samples=4, n_inner=0, rng=0)
        for n in (0, 1):
            with pytest.raises(ValueError, match="n_samples"):
                cpp_monomial_mc(q, n_samples=n, rng=0)
        for k in (0, -1):
            with pytest.raises(ValueError, match="k must be at least 1"):
                limits.cpp_monomial_samples(LimitQuery(k=k, phi=q.phi), n_samples=4, rng=0)
        # per-realization samples may be few; only the stderr needs two
        assert limits.cpp_monomial_samples(q, n_samples=0, rng=0).shape == (0,)
        assert limits.cpp_monomial_samples(q, n_samples=1, rng=0).shape == (1,)


def pair_indicator_closed_form(k, r, sigma_sq):
    """The comb's k-th monomial of the pair indicator, r <= 2: leaves i < j
    sit within r with probability (r/2)^(j - i), and the k! leaf orders
    place the first two sampled points d apart in 2 (k - d) (k - 2)! of
    them."""
    pairs = fold(2 * (k - d) * (r / 2.0) ** d for d in range(1, k))
    return (sigma_sq / 2.0) ** k * math.factorial(k - 2) * pairs


class TestCombPastK3:
    """The batched comb at k = 2 to 6 against closed forms, and its block
    sizes and keys at their bounds."""

    @pytest.mark.parametrize("r", [1.0, 0.5])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_closed_form_is_the_grid_value(self, k, r):
        # at step 0.05 the threshold 1 - r/2 falls on a cell edge, where
        # the midpoint rule is exact for an indicator of min(b) >= 1 - r/2
        q = LimitQuery(k=k, phi=build_phi({"name": "pair_indicator", "r": r}, k), sigma_sq=1.3)
        want = pair_indicator_closed_form(k, r, 1.3)
        assert abs(cpp_moment(q, grid_step=0.05) - want) <= 1e-12 * want

    @pytest.mark.parametrize("r", [1.0, 0.5])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_pair_indicator_z_gate(self, k, r):
        q = LimitQuery(k=k, phi=build_phi({"name": "pair_indicator", "r": r}, k), sigma_sq=1.3)
        est, err = cpp_monomial_mc(q, n_samples=3000, eps=0.1, n_inner=8, rng=k)
        assert err > 0
        assert abs(est - pair_indicator_closed_form(k, r, 1.3)) <= 4 * err

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_ones_is_exact(self, k):
        q = LimitQuery(k=k, phi=build_phi({"name": "ones"}, k), sigma_sq=1.3)
        est, err = cpp_monomial_mc(q, n_samples=500, eps=0.1, n_inner=8, rng=k)
        assert (est, err) == ((1.3 / 2.0) ** k * math.factorial(k), 0.0)

    def test_blocks_stop_at_1023_combs_and_keys_below_2_63(self, monkeypatch):
        # at eps 0.5 a k = 2 comb carries three atoms on average and one
        # inner tuple, so 2^12 / 3 = 1365 combs would fit a chunk; the
        # block stops at 1023, whose keys (comb << 53) | t 2^53 stay below
        # 2^63 with no wrap
        chunks, calls = [], []
        chunk_estimates, position_keys = limits._comb_chunk, limits._position_keys

        def counted(*args):
            chunks.append(chunk_estimates(*args))
            return chunks[-1]

        def recorded(combs, t):
            calls.append((combs, t, position_keys(combs, t)))
            return calls[-1][2]

        monkeypatch.setattr(limits, "_comb_chunk", counted)
        monkeypatch.setattr(limits, "_position_keys", recorded)
        q = LimitQuery(k=2, phi=_every_comb_entry, sigma_sq=1.3)
        rng = np.random.default_rng(7)
        ref = np.random.default_rng(7)
        got = limits.cpp_monomial_samples(q, n_samples=2500, eps=0.5, n_inner=1, rng=rng)
        want = seed_cpp_monomial_samples(q, 2500, 0.5, 1, ref)
        assert _hex_matrix(got) == _hex_matrix(want)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert list(map(len, chunks)) == [1023, 1023, 454]
        # atoms and inner points of each block
        assert len(calls) == 6
        for combs, t, keys in calls:
            assert keys.dtype == np.int64
            assert keys.min() >= 0 and keys.max() < 1023 * 2**53 < 2**63
            combs, t = np.broadcast_arrays(combs, t)
            exact = [(c << 53) + int(x * 2**53) for c, x in zip(combs.ravel().tolist(), t.ravel().tolist())]
            assert keys.ravel().tolist() == exact


def seed_sample_excursions(n_excursions, n_steps, rng):
    """The seed's excursions: argsort of the keys, a modular rotation and
    a second cumsum; kept as the oracle of the packed-key sort."""
    m = n_steps // 2
    n = 2 * m + 1
    base = np.concatenate([np.ones(m, dtype=np.int32), -np.ones(m + 1, dtype=np.int32)])
    keys = rng.random((n_excursions, n))
    steps = base[np.argsort(keys, axis=1)]
    j = np.argmin(np.cumsum(steps, axis=1), axis=1)
    order = (j[:, None] + 1 + np.arange(n)[None, :]) % n
    h = np.cumsum(np.take_along_axis(steps, order, axis=1), axis=1)
    out = np.zeros((n_excursions, n_steps + 1), dtype=np.int32)
    out[:, 1:] = h[:, : n - 1]
    return out


class TestExcursions:
    @pytest.mark.parametrize(
        "n_excursions, n_steps, seed",
        [(1, 2, 0), (1, 40, 1), (9, 2, 2), (50, 10, 3), (250, 2000, 4)],
    )
    def test_against_seed(self, n_excursions, n_steps, seed):
        rng = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        got = sample_excursions(n_excursions, n_steps, rng)
        want = seed_sample_excursions(n_excursions, n_steps, ref)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            sample_excursions(2, 5)
        with pytest.raises(ValueError):
            sample_excursions(2, 0)

    def test_walk_shape(self):
        S = sample_excursions(50, 10, rng=2)
        assert S.shape == (50, 11)
        assert np.all(S[:, 0] == 0) and np.all(S[:, -1] == 0)
        assert np.all(S >= 0)
        assert np.all(np.abs(np.diff(S, axis=1)) == 1)

    def test_uniform_over_small_excursions(self):
        # 2m = 6 steps: exactly 5 excursions, hit uniformly
        S = sample_excursions(5000, 6, rng=11)
        counts = Counter(map(tuple, S.tolist()))
        assert len(counts) == 5
        chi2 = sum((c - 1000) ** 2 / 1000 for c in counts.values())
        assert chi2 < 18.5  # 99.9% point of chi2 with 4 dof


def _hex_matrix(D):
    return [float(v).hex() for v in np.asarray(D).reshape(-1)]


class TestWalkLimit:
    def test_default_indicator(self):
        est, err = donsker_crt_check(
            R=1.0, n_excursions=800, n_steps=1200, l_max=100.0, rng=3
        )
        assert 0 < err < 0.15
        assert abs(est - 1.0) <= 0.25

    def test_indicator_radius(self):
        est, _ = donsker_crt_check(
            R=0.5,
            n_excursions=800,
            n_steps=1200,
            l_max=100.0,
            rng=3,
        )
        assert abs(est - 0.5) <= 0.2


class TestReports:
    def test_report_rows_roundtrip(self, binary):
        rows = [
            {"n": 5, "observed": 0.5, "limit": 1.0, "rel_error": 0.5, "path": "a:k=1", "order": 0.75},
            {"n": 9, "observed": 0.25, "limit": None, "rel_error": None, "path": "b", "order": None},
        ]
        assert csv_text({"seed": 3, "critical": "true"}, REPORT_COLUMNS, rows) == (
            "# seed=3\n"
            "# critical=true\n"
            "n,observed,limit,rel_error,path,order\n"
            "5,0.5,1,0.5,a:k=1,0.75\n"
            "9,0.25,,,b,\n"
        )
        # a real report: twelve significant digits survive the round trip
        F = lambda shape, lt, bt: float(shape.height <= 1.0)
        rep = convergence_report(binary, 1, F, [30], "a", kolmogorov_ns=(100,))
        lines = csv_text({}, REPORT_COLUMNS, rep.rows).splitlines()
        assert lines == [
            "n,observed,limit,rel_error,path,order",
            "30,1.03333333333,1,0.0333333333333,rescaled:k=1,",
            "100,1.87915597412,2,0.0604220129385,kolmogorov:a,",
        ]
        for line, want in zip(lines[1:], rep.rows):
            for c, cell in zip(REPORT_COLUMNS, line.split(",")):
                if isinstance(want[c], float):
                    assert float(cell) == pytest.approx(want[c], rel=1e-11)

    def test_rescaled_single_leaf(self, binary):
        F = lambda shape, lt, bt: float(shape.height <= 1.0)
        rep = convergence_report(binary, 1, F, [30], "a")
        assert rep.critical and abs(rep.sigma_sq - 1.0) <= 1e-9
        row = rep.rows[0]
        assert abs(row["limit"] - 1.0) <= 1e-9
        assert abs(row["observed"] - 31 / 30) <= 1e-10
        assert row["path"] == "rescaled:k=1"

    def test_ultrametric_pair_indicator(self, symmetric):
        from branchlab.trees import distance_matrix

        def F(shape, lt, bt):
            return float(distance_matrix(shape)[1, 2] <= 1.0)

        rep = convergence_report(
            symmetric, 2, F, [24], "A", mode="ultrametric"
        )
        row = rep.rows[0]
        assert abs(row["limit"] - 0.25) <= 1e-9
        assert row["rel_error"] <= 1e-12

    def test_observed_orders(self):
        # per path; empty on a path's first row, on a missing or zero
        # error at either end, next to n = 0 and between equal n
        rows = _observed_orders(
            [
                {"n": 0, "rel_error": 1.0, "path": "p"},
                {"n": 10, "rel_error": 0.4, "path": "p"},
                {"n": 100, "rel_error": 0.5, "path": "q"},
                {"n": 20, "rel_error": 0.1, "path": "p"},
                {"n": 1000, "rel_error": 0.05, "path": "q"},
                {"n": 20, "rel_error": 0.05, "path": "p"},
                {"n": 40, "rel_error": 0.0, "path": "p"},
                {"n": 80, "rel_error": 0.01, "path": "p"},
                {"n": 160, "rel_error": None, "path": "p"},
                {"n": 320, "rel_error": 0.01, "path": "p"},
                {"n": 10, "rel_error": 0.5, "path": "q"},
            ]
        )
        orders = [r["order"] for r in rows[1:]]
        assert rows[0]["order"] is None
        assert orders[0] is None and orders[1] is None
        assert orders[2] == math.log(0.4 / 0.1) / math.log(20 / 10) == 2.0
        assert orders[3] == pytest.approx(1.0, rel=1e-15)
        assert orders[4:9] == [None] * 5
        # a smaller n than the row before still gives an order
        assert orders[9] == pytest.approx(math.log(0.1) / math.log(0.01), rel=1e-15)

    def test_orders_of_the_binary_k2_study(self, binary):
        # the doubling table n = 10, 20, 40 of configs/convergence_binary_k2.json
        F = build_functional({"name": "height_indicator", "r": 1.0}, binary, k=2)
        rep = convergence_report(binary, 2, F, [10, 20, 40], "a", kolmogorov_ns=(100, 1000, 10000))
        orders = [r["order"] for r in rep.rows]
        assert orders[0] is None and orders[3] is None
        assert orders[1] == pytest.approx(0.801220135886, abs=1e-9)
        assert orders[2] == pytest.approx(0.649382723377, abs=1e-9)
        assert orders[4] == pytest.approx(0.846235491898, abs=1e-9)
        assert orders[5] == pytest.approx(0.894858391953, abs=1e-9)
        for prev, row in zip(rep.rows[:3], rep.rows[1:3]):
            want = math.log(prev["rel_error"] / row["rel_error"]) / math.log(2)
            assert row["order"] == pytest.approx(want, rel=1e-12)

    def test_survival_rows_appended(self, binary):
        F = lambda shape, lt, bt: float(shape.height <= 1.0)
        rep = convergence_report(
            binary, 1, F, [10], "a", kolmogorov_ns=(1000,)
        )
        tail = rep.rows[-1]
        assert tail["path"] == "kolmogorov:a"
        assert tail["limit"] == 2.0
        assert tail["rel_error"] <= 0.05

    def test_off_criticality_leaves_limits_empty(self, subcritical):
        F = lambda shape, lt, bt: float(shape.height <= 1.0)
        with pytest.warns(UserWarning, match="not critical") as caught:
            rep = convergence_report(
                subcritical, 1, F, [8], "a", kolmogorov_ns=(16,)
            )
        # one eigenpair serves the moment and the survival rows
        assert sum("not critical" in str(w.message) for w in caught) == 1
        assert not rep.critical
        assert all(r["limit"] is None for r in rep.rows)
        assert all(r["rel_error"] is None for r in rep.rows)

    def test_default_k3_grid_fails_fast(self, binary):
        # the default step 0.02 would need 50^5 points in five dimensions
        calls = []

        def F(shape, lt, bt):
            calls.append(shape)
            return 1.0

        with pytest.raises(ValueError, match="grid_step"):
            convergence_report(binary, 3, F, [4], "a")
        assert calls == []

    def test_unknown_mode_rejected(self, binary):
        F = lambda shape, lt, bt: 1.0
        with pytest.raises(ValueError):
            convergence_report(binary, 1, F, [5], "a", mode="diagonal")

    @pytest.mark.parametrize(
        "k, mode, match",
        [
            (1, "diagonal", "unknown mode 'diagonal'"),
            (2, "Rescaled", "unknown mode 'Rescaled'"),
            (0, "rescaled", "k must be at least 1"),
            (0, "ultrametric", "k must be at least 1"),
            (-1, "ultrametric", "k must be at least 1"),
        ],
    )
    @pytest.mark.parametrize("model_name", ["binary", "subcritical"])
    def test_bad_mode_or_k_rejected_before_eigenpair(
        self, request, monkeypatch, model_name, k, mode, match
    ):
        # off criticality too, where the limit column is never computed
        model = request.getfixturevalue(model_name)

        def no_eigenpair(*args, **kwargs):
            raise AssertionError("eigenpair ran before the inputs were checked")

        monkeypatch.setattr(limits, "eigenpair", no_eigenpair)
        F = lambda shape, lt, bt: 1.0
        with pytest.raises(ValueError, match=match):
            convergence_report(model, k, F, [5], "a", mode=mode)


# The seed's per-point integrators and integrands, kept as the reference:
# the batched integrators must reproduce their float bits.


def _left_sum(values):
    # the seed's builtin sum as it adds on Python 3.10 and 3.11; from 3.12
    # on builtin sum compensates
    total = 0.0
    for v in values:
        total += v
    return total


def _reference_lambda_k(k, f, R=1.0, method="mc", n_samples=100_000, grid_step=0.01, rng=None):
    dim = 2 * k - 1
    if method == "mc":
        rng = np.random.default_rng(rng)
        L = rng.uniform(0.0, R, size=(n_samples, k))
        B = rng.uniform(0.0, R, size=(n_samples, k - 1))
        ok = np.all(B < np.minimum(L[:, :-1], L[:, 1:]), axis=1)
        vals = np.zeros(n_samples)
        for i in np.flatnonzero(ok):
            vals[i] = f(L[i], B[i])
        box = float(R) ** dim
        return box * float(vals.mean()), box * float(vals.std(ddof=1)) / math.sqrt(n_samples)
    n_cells = max(1, int(round(R / grid_step)))
    mids = (np.arange(n_cells) + 0.5) * (R / n_cells)
    axes = np.meshgrid(*([mids] * dim), indexing="ij")
    pts = np.stack([a.reshape(-1) for a in axes], axis=1)
    L = pts[:, :k]
    B = pts[:, k:]
    ok = np.all(B < np.minimum(L[:, :-1], L[:, 1:]), axis=1)
    cell = (R / n_cells) ** dim
    return cell * _left_sum(float(f(L[i], B[i])) for i in np.flatnonzero(ok)), 0.0


def _reference_lambda_tilde(k, f, method="mc", n_samples=100_000, grid_step=0.001, rng=None):
    ones = np.ones(k)
    if k == 1:
        return float(f(ones, np.zeros(0))), 0.0
    dim = k - 1
    if method == "mc":
        rng = np.random.default_rng(rng)
        B = rng.uniform(0.0, 1.0, size=(n_samples, dim))
        vals = np.array([f(ones, B[i]) for i in range(n_samples)])
        return float(vals.mean()), float(vals.std(ddof=1)) / math.sqrt(n_samples)
    n_cells = max(1, int(round(1.0 / grid_step)))
    mids = (np.arange(n_cells) + 0.5) / n_cells
    axes = np.meshgrid(*([mids] * dim), indexing="ij")
    B = np.stack([a.reshape(-1) for a in axes], axis=1)
    return _left_sum(float(f(ones, B[i])) for i in range(B.shape[0])) / n_cells**dim, 0.0


def _reference_symmetrized(query):
    if query.mark_probs is None:
        marks = [((None,) * query.k, 1.0)]
    else:
        marks = []
        for combo in itertools.product(sorted(query.mark_probs), repeat=query.k):
            p = 1.0
            for c in combo:
                p *= query.mark_probs[c]
            if p > 0:
                marks.append((combo, p))
    perms = [np.array((0,) + s) for s in itertools.permutations(range(1, query.k + 1))]

    def g(l, b):
        # the seed's per-pair loop at meet factor two, root in row 0
        k = len(l)
        D = np.zeros((k + 1, k + 1))
        for j in range(k):
            D[0, j + 1] = D[j + 1, 0] = l[j]
        for i in range(k):
            low = l[i]
            for j in range(i + 1, k):
                low = min(low, b[j - 1])
                D[i + 1, j + 1] = D[j + 1, i + 1] = l[i] + l[j] - 2 * low
        total = 0.0
        for perm in perms:
            Dp = D[np.ix_(perm, perm)]
            for mk, p in marks:
                total += p * query.phi(Dp, mk)
        return total

    return g


def _reference_report_limit(model, k, F_cont, x0, R=1.0, mode="rescaled", grid_step=None):
    eig = eigenpair(model)
    sig2 = sigma_squared(model, eig)
    integral = _reference_limit_integral(model, k, F_cont, R, mode, grid_step)
    return float(eig.h[model.index[x0]]) * (sig2 / 2.0) ** (k - 1) * integral


def _reference_limit_integral(model, k, F_cont, R=1.0, mode="rescaled", grid_step=None):
    eig = eigenpair(model)
    pi = {x: float(eig.pi[i]) for i, x in enumerate(model.types)}

    def mark_avg(l, b):
        shape = TreeShape(tuple(l), tuple(b))
        total = 0.0
        for lt in itertools.product(model.types, repeat=k):
            p = 1.0
            for c in lt:
                p *= pi[c]
            total += p * F_cont(shape, lt, None)
        return total

    if mode == "rescaled":
        step = grid_step if grid_step is not None else (0.02 if k > 1 else 1e-4)
        integral, _ = _reference_lambda_k(k, mark_avg, R=R, method="grid", grid_step=step)
    else:
        step = grid_step if grid_step is not None else 1e-3
        integral, _ = _reference_lambda_tilde(k, mark_avg, method="grid", grid_step=step)
    return integral


def _bits(pair):
    return tuple(float(v).hex() for v in pair)


def _marked_phi(D, m, r=0.9):
    # products, not sums, so that a one-ulp change of a grid point shows
    w = {"A": 1.5, "B": 0.5, "C": 4.0, None: 1.0}
    value = D[1, -1] * D[0, -1] if len(D) > 2 else D[0, 1]
    return w[m[0]] * float(D[0, 1] <= r) * value


class TestSeedOracle:
    """Batched integrators against the seed's per-point ones, bit for bit."""

    # grid steps keep each k below a few thousand in-region points
    STEPS = {1: 1e-3, 2: 0.05, 3: 0.125}
    MARKS = (None, {"A": 0.3, "B": 0.7}, {"A": 0.25, "B": 0.75, "C": 0.0})
    # the library's chunk, and one that splits every batch below many times
    CHUNKS = (limits._INTEGRAND_CHUNK, 7)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("marks", range(3))
    def test_crt_moment(self, monkeypatch, k, marks):
        q = LimitQuery(k=k, phi=_marked_phi, sigma_sq=1.3, mark_probs=self.MARKS[marks], R=0.9)
        pref = (q.sigma_sq / 2.0) ** (k - 1)
        g = _reference_symmetrized(q)
        for method, kw in (
            ("grid", {"grid_step": self.STEPS[k]}),
            ("mc", {"n_samples": 1500, "rng": 11}),
        ):
            val, err = _reference_lambda_k(k, g, R=q.R, method=method, **kw)
            want = (pref * val, pref * err)
            assert val != 0.0
            for chunk in self.CHUNKS:
                monkeypatch.setattr(limits, "_INTEGRAND_CHUNK", chunk)
                assert _bits(crt_moment(q, method=method, **kw)) == _bits(want)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("marks", range(3))
    def test_cpp_moment(self, monkeypatch, k, marks):
        # every root distance is one here
        phi = lambda D, m: _marked_phi(D, m, r=1.0)
        q = LimitQuery(k=k, phi=phi, sigma_sq=0.8, mark_probs=self.MARKS[marks])
        step = {1: 1e-3, 2: 1e-3, 3: 0.02}[k]
        val, _ = _reference_lambda_tilde(k, _reference_symmetrized(q), method="grid", grid_step=step)
        want = (q.sigma_sq / 2.0) ** k * val
        assert want != 0.0
        for chunk in self.CHUNKS:
            monkeypatch.setattr(limits, "_INTEGRAND_CHUNK", chunk)
            assert float(cpp_moment(q, grid_step=step)).hex() == want.hex()

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("marks", [None, {"A": 0.3, "B": 0.7}])
    @pytest.mark.parametrize("batched", [False, True])
    def test_named_pair_indicator(self, monkeypatch, k, marks, batched):
        phi, seed = named_pair_indicator(0.6, k, batched)
        q = LimitQuery(k=k, phi=phi, sigma_sq=1.3, mark_probs=marks, R=0.9)
        g = _reference_symmetrized(replace(q, phi=seed))
        step = {2: 0.05, 3: 0.125}[k]
        val, _ = _reference_lambda_k(k, g, R=q.R, method="grid", grid_step=step)
        crt = (q.sigma_sq / 2.0) ** (k - 1) * val
        # every leaf sits at height one: meets of at least 0.7 pass
        val, _ = _reference_lambda_tilde(k, g, method="grid", grid_step=step / 2)
        comb = (q.sigma_sq / 2.0) ** k * val
        assert crt != 0.0 and comb != 0.0
        for chunk in self.CHUNKS:
            monkeypatch.setattr(limits, "_INTEGRAND_CHUNK", chunk)
            assert float(crt_moment(q, method="grid", grid_step=step)[0]).hex() == crt.hex()
            assert float(cpp_moment(q, grid_step=step / 2)).hex() == comb.hex()

    def test_batch_larger_than_one_chunk(self):
        # 10^4 grid points in one call, at the library's own chunk size
        phi = lambda D, m: _marked_phi(D, m, r=1.0)
        q = LimitQuery(k=2, phi=phi, sigma_sq=0.8, mark_probs=self.MARKS[1])
        assert limits._INTEGRAND_CHUNK < 10**4
        val, _ = _reference_lambda_tilde(2, _reference_symmetrized(q), method="grid", grid_step=1e-4)
        want = (q.sigma_sq / 2.0) ** 2 * val
        assert float(cpp_moment(q, grid_step=1e-4)).hex() == want.hex()

    @pytest.mark.parametrize(
        "tilde, k, kw",
        [
            (False, 2, {"method": "grid", "grid_step": 0.03, "R": 0.9}),
            (False, 3, {"method": "grid", "grid_step": 0.15, "R": 0.9}),
            (False, 2, {"method": "mc", "n_samples": 500, "rng": 3, "R": 0.9}),
            (True, 2, {"method": "grid", "grid_step": 1e-3}),
            (True, 3, {"method": "grid", "grid_step": 0.02}),
            (True, 3, {"method": "mc", "n_samples": 500, "rng": 3}),
        ],
    )
    def test_points_handed_to_the_integrand(self, tilde, k, kw):
        # the same points, bit for bit and in the same order
        seen, want = [], []

        def batched(L, B):
            seen.extend(np.concatenate([L, B], axis=1).tolist())
            return np.zeros(len(L))

        def per_point(l, b):
            want.append(np.concatenate([l, b]).tolist())
            return 0.0

        if tilde:
            lambda_tilde_k_integral(k, batched, **kw)
            _reference_lambda_tilde(k, per_point, **kw)
        else:
            lambda_k_integral(k, batched, **kw)
            _reference_lambda_k(k, per_point, **kw)
        assert len(want) > 100 and seen == want

    def test_unit_cube_mc(self):
        f = lambda l, b: float(len(b) and b[0] <= 0.4) + l[-1] * (1.0 + b.sum())
        fv = lambda L, B: (B[:, :1] <= 0.4).any(axis=1) + L[:, -1] * (1.0 + B.sum(axis=1))
        for k in (1, 2, 3):
            want = _reference_lambda_tilde(k, f, method="mc", n_samples=3000, rng=4)
            got = lambda_tilde_k_integral(k, fv, method="mc", n_samples=3000, rng=4)
            assert _bits(got) == _bits(want)

    @pytest.mark.parametrize(
        "model_name, x0, k, mode, step",
        [
            ("binary", "a", 1, "rescaled", None),
            ("symmetric", "B", 2, "rescaled", 0.05),
            ("asymmetric", "A", 2, "rescaled", 0.05),
            ("asymmetric", "B", 2, "ultrametric", None),
            ("asymmetric", "A", 3, "ultrametric", 0.05),
        ],
    )
    def test_convergence_report_limit(self, request, model_name, x0, k, mode, step):
        model = request.getfixturevalue(model_name)
        weights = {"a": 1.0, "A": 1.4, "B": 0.6}

        def F(shape, lt, bt):
            w = 1.0
            for x in lt:
                w *= weights[x]
            inside = mode == "ultrametric" or shape.height <= 0.8
            return w * inside * shape.leaf_heights[0] * math.prod(shape.branch_heights)

        rep = convergence_report(model, k, F, [4], x0, R=0.8, mode=mode, grid_step=step)
        want = _reference_report_limit(model, k, F, x0, R=0.8, mode=mode, grid_step=step)
        assert want != 0.0
        assert float(rep.rows[0]["limit"]).hex() == want.hex()

    # the named functionals take their batched form through the limit
    NAMED_STEPS = {("rescaled", 1): 1e-3, ("rescaled", 2): 0.05, ("rescaled", 3): 0.125,
                   ("ultrametric", 2): 1e-3, ("ultrametric", 3): 0.05}
    WEIGHTS = {"a": 1.3, "A": 1.4, "B": 0.6}

    @pytest.mark.parametrize("mode, k", list(NAMED_STEPS))
    @pytest.mark.parametrize("name", ["count", "height_indicator", "pair_indicator"])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize(
        "model_name, x0",
        [("binary", "a"), ("symmetric", "B"), ("asymmetric", "A"), ("subcritical", "a")],
    )
    def test_named_functional_limit(self, request, model_name, x0, weighted, name, mode, k):
        model = request.getfixturevalue(model_name)
        # every leaf sits at height one in ultrametric mode
        spec = {"name": name, "r": 0.7 if mode == "rescaled" else 1.0}
        if weighted:
            spec["weights"] = {x: self.WEIGHTS[x] for x in model.types}
        if model_name == "subcritical":
            warns = pytest.warns(UserWarning, match="not critical")
        else:
            warns = contextlib.nullcontext()
        if name == "pair_indicator" and k == 1:
            F = build_functional(spec, model)
            with warns, pytest.raises(ConfigError, match="pair_indicator needs k >= 2"):
                convergence_report(model, k, F, [4], x0, R=0.8, mode=mode)
            return
        F = build_functional(spec, model, k=k)
        assert callable(F.batched)
        step = self.NAMED_STEPS[mode, k]
        if model_name == "subcritical":
            # no limit column off criticality: check the integral itself
            with warns:
                eig = eigenpair(model)
                want = _reference_limit_integral(model, k, F, R=0.8, mode=mode, grid_step=step)
            pi = {x: float(eig.pi[i]) for i, x in enumerate(model.types)}
            types = limits._type_tuples(model.types, pi, k)
            got = limits._limit_integral(k, F, types, 0.8, mode, step)
        else:
            rep = convergence_report(model, k, F, [4], x0, R=0.8, mode=mode, grid_step=step)
            got = rep.rows[0]["limit"]
            want = _reference_report_limit(model, k, F, x0, R=0.8, mode=mode, grid_step=step)
        assert want != 0.0
        assert float(got).hex() == want.hex()

    @pytest.mark.parametrize("name", ["count", "height_indicator", "pair_indicator"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_named_batched_at_the_threshold(self, asymmetric, name, weighted):
        # rows exactly at height == r and d == r, and one ulp on either side
        r = 0.5
        up, down = np.nextafter(r, 1.0), np.nextafter(r, 0.0)
        L = np.array(
            [[0.5, 0.25, 0.125], [0.375, 0.25, 0.125], [up, 0.25, 0.125], [down, 0.25, 0.125],
             [0.25, 0.5, 0.5], [0.375, 0.25, 0.0625], [0.4375, 0.25, 0.125]]
        )
        B = np.array(
            [[0.0, 0.0], [0.0625, 0.0], [0.0, 0.0], [0.0, 0.0],
             [0.125, 0.25], [0.0625 + 2**-30, 0.0], [0.09375, 0.0]]
        )
        d = L[:, 0] + L[:, 1] - 2 * B[:, 0]
        assert L.max(axis=1)[0] == r and d[1] == r and d[6] == r
        spec = {"name": name, "r": r}
        if weighted:
            spec["weights"] = {"A": 1.4, "B": 0.6}
        F = build_functional(spec, asymmetric, k=3)
        for lt in [("A", "A", "B"), ("B", "A", "B")]:
            got = F.batched(L, B, lt)
            want = [F(TreeShape(tuple(l), tuple(b)), lt, None) for l, b in zip(L, B)]
            assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
            # the threshold itself is inside
            w = got.max()
            assert w > 0.0
            if name == "height_indicator":
                assert got[0] == w and got[3] == w and got[2] == 0.0
            if name == "pair_indicator":
                assert got[1] == w and got[6] == w

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("name", ["ones", "pair_indicator"])
    def test_named_phi_scalar_and_batched(self, k, name):
        # against the parent's lambdas, on matrices with d(1, 2) at r and
        # one ulp on either side
        r = 0.5
        seed = {
            "ones": lambda D, marks: 1.0,
            "pair_indicator": lambda D, marks: 1.0 if D[1, 2] <= r else 0.0,
        }[name]
        rng = np.random.default_rng(k)
        D = rng.uniform(0.0, 2.0, size=(9, k + 1, k + 1))
        D[:3, 1, 2] = [r, np.nextafter(r, 1.0), np.nextafter(r, 0.0)]
        D[3:, 1, 2] = [0.0, 2.0, 0.25, 0.75, r, 1.5]
        phi = build_phi({"name": name, "r": r}, k)
        for mk in [(None,) * k, ("A",) * k, ("B",) + ("A",) * (k - 1)]:
            want = [float(seed(Dt, mk)).hex() for Dt in D]
            assert [float(phi(Dt, mk)).hex() for Dt in D] == want
            assert [float(v).hex() for v in phi.batched(D, mk)] == want
        if name == "pair_indicator":
            assert want == [v.hex() for v in (1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0)]

    def test_named_pair_indicator_batched_needs_two_leaves(self, binary):
        F = build_functional({"name": "pair_indicator", "r": 1.0}, binary)
        with pytest.raises(ConfigError, match="pair_indicator needs k >= 2"):
            F.batched(np.full((3, 1), 0.5), np.zeros((3, 0)), ("a",))


# The rescaled grid branch of lambda_k_integral as it was before the grid
# walked only its in-region midpoints, verbatim with its helpers: every
# point of the (2k-1)-dimensional box, then masked to the region.

_SEED_GRID_POINT_LIMIT = 10**7


def _seed_check_grid(n_cells, dim):
    if n_cells**dim > _SEED_GRID_POINT_LIMIT:
        raise ValueError(
            f"a {dim}-dimensional grid of {n_cells} cells per axis has "
            f"{n_cells**dim:.3g} points, above the limit of "
            f"{_SEED_GRID_POINT_LIMIT:.0e}; use a larger grid_step"
        )


def _seed_midpoint_grid(mids, dim):
    axes = np.meshgrid(*([mids] * dim), indexing="ij")
    return np.stack([a.reshape(-1) for a in axes], axis=1)


def _seed_grid_total(f, L, B):
    return _left_sum(map(float, _per_row(f, L, B))) if len(L) else 0.0


def seed_lambda_k_integral(k, f, R=1.0, grid_step=0.01):
    dim = 2 * k - 1
    n_cells = max(1, int(round(R / grid_step)))
    _seed_check_grid(n_cells, dim)
    pts = _seed_midpoint_grid((np.arange(n_cells) + 0.5) * (R / n_cells), dim)
    L = pts[:, :k]
    B = pts[:, k:]
    ok = np.all(B < np.minimum(L[:, :-1], L[:, 1:]), axis=1)
    cell = (R / n_cells) ** dim
    return cell * _seed_grid_total(f, L[ok], B[ok]), 0.0


def _nowhere_zero(L, B):
    # at least one at every point, so any point outside the region, or
    # one missing inside it, moves the sum
    return 2.0 + np.sin(L.sum(axis=1)) * np.cos(0.5 + B.sum(axis=1))


def _polynomial(L, B):
    # at least three on unit-cube meets; no transcendental, so each row's
    # bits do not depend on the length of the batch it arrives in
    return 3.0 + L.sum(axis=1) * (1.0 - 0.5 * B.sum(axis=1))


def _recorded(calls, f=ones_f):
    # f, keeping a contiguous copy of the rows of every call
    def g(L, B):
        calls.append((L.copy(order="K"), B.copy(order="K")))
        return f(L, B)

    return g


class TestInRegionGrid:
    """The in-region walk against the seed's masked box grid, bit for bit."""

    # R / step for an odd and an even cell count, and for a step that does
    # not divide R
    CELLS = {1: (101, 100, 100.4), 2: (21, 20, 20.4), 3: (9, 10, 9.4)}

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("R", [1.0, 2.5, 0.3])
    @pytest.mark.parametrize("cells", range(3))
    def test_bits_match_the_box_grid(self, k, R, cells):
        step = R / self.CELLS[k][cells]
        want = seed_lambda_k_integral(k, _nowhere_zero, R=R, grid_step=step)
        got = lambda_k_integral(k, _nowhere_zero, R=R, method="grid", grid_step=step)
        assert want[0] != 0.0
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize(
        "k, R, step",
        # the last: subnormal cells, where rounding ties neighbouring
        # midpoints, so that a meet index may not reach its leaf index
        [(1, 0.9, 0.1), (2, 0.9, 0.1), (3, 0.9, 0.1), (2, 1e-322, 5e-324)],
    )
    def test_integrand_gets_the_box_grids_kept_rows(self, k, R, step):
        # one call, on the rows the mask kept, in order, as contiguous arrays
        got, want = [], []
        lambda_k_integral(k, _recorded(got), R=R, method="grid", grid_step=step)
        seed_lambda_k_integral(k, _recorded(want), R=R, grid_step=step)
        assert len(got) == len(want) == 1
        if k > 1:
            assert len(want[0][0]) < round(R / step) ** (2 * k - 1)
        for a, b in zip(got[0], want[0]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.flags.c_contiguous and b.flags.c_contiguous
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("k, cells", [(3, 50), (3, 26), (2, 216), (1, 10**7 + 1)])
    def test_same_grids_refused(self, k, cells):
        step = 1.0 / cells
        with pytest.raises(ValueError) as want:
            seed_lambda_k_integral(k, ones_f, grid_step=step)
        with pytest.raises(ValueError) as got:
            lambda_k_integral(k, ones_f, method="grid", grid_step=step)
        assert str(got.value) == str(want.value)

    def test_largest_k3_grid_runs(self):
        # 25 cells per axis, 25^5 box points at the limit: the unit
        # integrand counts the in-region ones, the integer shapes of
        # heights 1..24 shifted down by one
        val, _ = lambda_k_integral(3, ones_f, method="grid", grid_step=0.04)
        assert val == (1.0 / 25) ** 5 * count_shapes(3, 24)

    def test_grid_of_several_batches(self):
        # 25^3 leaf cells, walked 2048 at a time: eight calls whose rows,
        # joined, are the box grid's kept rows, folded to the same bits
        got, want = [], []
        val = lambda_k_integral(3, _recorded(got, _polynomial), method="grid", grid_step=0.04)
        ref = seed_lambda_k_integral(3, _recorded(want, _polynomial), grid_step=0.04)
        assert len(got) == 8 and len(want) == 1
        assert _bits(val) == _bits(ref)
        for joined, whole in zip(map(np.concatenate, zip(*got)), want[0]):
            assert joined.shape == whole.shape and joined.tobytes() == whole.tobytes()

    def test_unit_cube_grid_of_several_batches(self):
        # 100^2 meet cells, walked 2048 at a time: five calls on the
        # reference's points, in its order, folded to the same bits
        got, want = [], []

        def per_point(l, b):
            want.append(np.concatenate([l, b]))
            return float(_polynomial(l[None], b[None])[0])

        val = lambda_tilde_k_integral(3, _recorded(got, _polynomial), method="grid", grid_step=0.01)
        ref = _reference_lambda_tilde(3, per_point, method="grid", grid_step=0.01)
        assert len(got) == 5
        assert _bits(val) == _bits(ref)
        rows = np.concatenate([np.hstack(call) for call in got])
        assert rows.shape == (10**4, 5) and rows.tobytes() == np.array(want).tobytes()
