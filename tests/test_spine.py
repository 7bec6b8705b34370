"""Weighted spine chain: moments m_d, branch-type laws, shape expectations."""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest

from branchlab import moments, spine
from branchlab.cli import build_functional
from branchlab.process import Model, eigenpair, sigma_squared
from branchlab.spine import SpineKernel, build_kernel, elementary_symmetric, shape_sum
from branchlab.trees import TreeShape, shape_batches, shape_values

from conftest import (
    make_asymmetric,
    make_binary,
    make_subcritical,
    make_symmetric,
)


def make_triple():
    # a -> (a, a, b) surely; b is sterile.  With psi = (1, 2) the factorial
    # moments of a are easy to check by hand.
    return Model(("a", "b"), {"a": [(1, ("a", "a", "b"))], "b": [(1, ())]})


class TestElementarySymmetric:
    def test_small_cases(self):
        vals = [1.0, 2.0, 3.0]
        assert elementary_symmetric(vals, 0) == 1.0
        assert elementary_symmetric(vals, 1) == 6.0
        assert elementary_symmetric(vals, 2) == 11.0
        assert elementary_symmetric(vals, 3) == 6.0
        assert elementary_symmetric(vals, 4) == 0.0
        assert elementary_symmetric([], 1) == 0.0
        with pytest.raises(ValueError):
            elementary_symmetric(vals, -1)


class TestKernelTables:
    def test_binary_unit_moments(self, binary):
        ker = build_kernel(binary, "unit")
        assert ker.m[0, 0] == 1.0
        assert abs(ker.m[1, 0] - 1.0) <= 1e-15
        assert abs(ker.m[2, 0] - 1.0) <= 1e-15
        assert abs(ker.lam[0] - 1.0) <= 1e-15
        assert ker.transition == np.array([[1.0]])

    def test_triple_model_hand_values(self):
        ker = build_kernel(make_triple(), {"a": 1, "b": 2})
        ia = 0
        assert abs(ker.m[1, ia] - 4.0) <= 1e-14
        assert abs(ker.m[2, ia] - 10.0) <= 1e-14
        assert abs(ker.m[3, ia] - 12.0) <= 1e-14
        # sterile type has no offspring moments beyond m_0
        assert ker.m[1, 1] == 0.0 and ker.m[2, 1] == 0.0
        # one-step law: each a-child picked w.p. psi/m1
        assert np.allclose(ker.transition[ia], [0.5, 0.5], atol=1e-14)
        assert np.all(ker.transition[1] == 0.0)
        row = ker.chi[2][ia]
        assert abs(row[(0, 0)] - 0.2) <= 1e-14
        assert abs(row[(0, 1)] - 0.4) <= 1e-14
        assert abs(row[(1, 0)] - 0.4) <= 1e-14
        assert ker.chi[2][1] == {}

    def test_childless_model(self):
        # no type has children, so max_brood is 0; m still has the rows m_0
        # and m_1 = 0 that lam and the transition read, and the shape sum
        # gives brute force's moments: 1 at k = 1, 0 above
        model = Model(("a",), {"a": [(1, ())]})
        ker = build_kernel(model, "unit")
        assert ker.m.tolist() == [[1.0], [0.0]]
        assert ker.lam.tolist() == [0.0] and ker.transition.tolist() == [[0.0]]
        assert ker.chi == {}
        F = build_functional({"name": "count"}, model)
        bf = moments.BruteForceMoments(model, "a", 3)
        for k in (1, 2, 3):
            q = moments.MomentQuery(k=k, x0="a", F=F, R=3)
            got = moments.moment_m2f_radii(model, q, [0, 1, 2, 3], ker)
            assert list(got) == [bf.moment(k, F, R) for R in range(4)] == [float(k == 1)] * 4

    def test_chi_rows_are_exchangeable_laws(self, asymmetric):
        ker = build_kernel(asymmetric, "harmonic")
        for d, rows in ker.chi.items():
            for row in rows:
                if not row:
                    continue
                assert abs(sum(row.values()) - 1.0) <= 1e-9
                for z, q in row.items():
                    assert abs(q - row[z[::-1]]) <= 1e-12

    def test_harmonic_weight_gives_unit_rate(
        self, binary, symmetric, asymmetric
    ):
        for model in (binary, symmetric, asymmetric):
            ker = build_kernel(model, "harmonic")
            assert np.allclose(ker.lam, 1.0, atol=1e-9)
            assert np.allclose(ker.transition.sum(axis=1), 1.0, atol=1e-9)

    def test_subcritical_halved_rate(self, subcritical):
        with pytest.warns(UserWarning, match="not critical"):
            ker = build_kernel(subcritical, "harmonic")
        assert abs(ker.lam[0] - 0.5) <= 1e-9

    def test_branching_variance_is_mean_quadratic_moment(self, asymmetric):
        # sigma^2 equals the pi-average of m_2 under the harmonic weight
        eig = eigenpair(asymmetric)
        ker = build_kernel(asymmetric, eig.h)
        want = float(eig.pi @ ker.m[2])
        assert abs(sigma_squared(asymmetric, eig) - want) <= 1e-9

    def test_psi_forms_agree(self, asymmetric):
        by_dict = build_kernel(asymmetric, {"A": 0.75, "B": 1.5})
        by_vec = build_kernel(asymmetric, [0.75, 1.5])
        assert np.allclose(by_dict.step, by_vec.step, atol=1e-15)

    @pytest.mark.parametrize(
        "psi, needle",
        [
            ({"A": 1.0}, "missing ['B'], unknown []"),
            ({"A": 1, "B": 1, "C": 2}, "missing [], unknown ['C']"),
            ({"B": 1, "C": 2}, "missing ['A'], unknown ['C']"),
        ],
    )
    def test_psi_mapping_names_missing_and_unknown_types(self, asymmetric, psi, needle):
        # a missing type was a bare KeyError; an unknown one was ignored
        with pytest.raises(ValueError, match="psi must map every model type") as e:
            build_kernel(asymmetric, psi)
        assert needle in str(e.value)

    def test_psi_validation(self, binary):
        with pytest.raises(ValueError):
            SpineKernel(binary, np.array([0.0]))
        with pytest.raises(ValueError):
            SpineKernel(binary, np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            build_kernel(binary, "perron")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_psi_must_be_finite(self, asymmetric, bad):
        # NaN passed the positivity test and the routes returned nan; an
        # infinite weight did too, with numpy warnings on the way
        message = "^psi must be a positive finite vector over the types$"
        for psi in ([1.0, bad], {"A": bad, "B": 1.0}, np.array([bad, 1.0])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=message):
                    build_kernel(asymmetric, psi)

    def test_matrix_power_cache(self, asymmetric):
        ker = build_kernel(asymmetric, "unit")
        want = np.linalg.matrix_power(ker.step, 5)
        assert np.allclose(ker.matrix_power(5), want, atol=1e-12)
        wantP = np.linalg.matrix_power(ker.transition, 4)
        assert np.allclose(ker.matrix_power(4, biased=False), wantP, atol=1e-12)
        assert ker.matrix_power(5) is ker.matrix_power(5)

    def test_kernel_tables(self, binary, asymmetric):
        ker = build_kernel(binary, "unit")
        assert ker.lam.tolist() == [1.0]
        assert ker.transition.tolist() == [[1.0]]
        assert ker.chi[2] == [{(0, 0): 1.0}]
        ker = build_kernel(asymmetric, "harmonic")
        assert set(ker.chi) == {2, 3}
        for row in ker.chi[2]:
            if row:
                assert abs(sum(row.values()) - 1.0) <= 1e-9


def one_shape(ker, l, b, F, x0, with_bias=True):
    """shape_sum over the single shape with leaf heights l and meets b."""
    L = np.array([l])
    B = np.array([b], dtype=int).reshape(1, -1)
    return shape_sum(ker, [(L, B)], F, x0, with_bias)


class TestSpineExpectation:
    def test_single_leaf_at_height_zero(self, asymmetric):
        ker = build_kernel(asymmetric, "harmonic")
        F = lambda shape, lt, bt: 1.0
        got = one_shape(ker, (0,), (), F, "B")
        assert abs(got - 1 / 1.5) <= 1e-9

    def test_binary_cherry(self, binary):
        ker = build_kernel(binary, "unit")
        F = lambda shape, lt, bt: 1.0
        got = one_shape(ker, (1, 1), (0,), F, "a")
        assert abs(got - 0.5) <= 1e-14

    def test_unreachable_degree_is_zero(self, binary):
        ker = build_kernel(binary, "unit")
        F = lambda shape, lt, bt: 1.0
        got = one_shape(ker, (1, 1, 1), (0, 0), F, "a")
        assert got == 0.0

    def test_unbiased_tables_are_probabilities(self, asymmetric):
        ker = build_kernel(asymmetric, "unit")
        F = lambda shape, lt, bt: 1.0
        for x0 in asymmetric.types:
            got = one_shape(ker, (3,), (), F, x0, with_bias=False)
            assert abs(got - 1.0) <= 1e-12
            got = one_shape(ker, (2, 1), (0,), F, x0, with_bias=False)
            assert abs(got - 1.0) <= 1e-12

    def test_type_marginals_match_transition(self, asymmetric):
        # P(leaf type = y) on a path shape is the unbiased n-step matrix
        ker = build_kernel(asymmetric, "unit")
        n = 4
        P4 = ker.matrix_power(n, biased=False)
        for y, label in enumerate(asymmetric.types):
            F = lambda shape, lt, bt, lab=label: float(lt[0] == lab)
            got = one_shape(ker, (n,), (), F, "A", with_bias=False)
            assert abs(got - P4[0, y]) <= 1e-12


# The shape tables and per-shape loops as first written: every block table
# is built from its sub-blocks as a dict of vectors over start types, and
# each moment sums the per-shape expectation shape by shape in the order of
# the nested itertools enumeration.  Kept as the reference the batched shape sum must
# reproduce in key order, row order and float bits.  Tables are memoized
# per (kernel, shape, bias flag) only to keep the suite fast.


def reference_shapes(k, R):
    if k == 1:
        for l0 in range(R + 1):
            yield TreeShape((l0,), ())
        return
    for l in itertools.product(range(1, R + 1), repeat=k):
        ranges = [range(min(l[i], l[i + 1])) for i in range(k - 1)]
        for b in itertools.product(*ranges):
            yield TreeShape(l, b)


def _reference_blocks_at_minimum(b):
    s = min(b)
    blocks = []
    start = 0
    for j, bj in enumerate(b):
        if bj == s:
            blocks.append((start, j))
            start = j + 1
    blocks.append((start, len(b)))
    return s, blocks


@functools.lru_cache(maxsize=None)
def reference_assignment_table(kernel, l, b, biased):
    nt = len(kernel.model.types)
    if len(l) == 1:
        Mn = kernel.matrix_power(l[0], biased)
        out = {}
        for y in range(nt):
            vec = Mn[:, y]
            if biased:
                vec = vec / kernel.psi[y]
            if np.any(vec):
                out[((y,), ())] = vec
        return out
    s, blocks = _reference_blocks_at_minimum(b)
    d = len(blocks)
    subtables = []
    for a, c in blocks:
        sub_l = tuple(x - s - 1 for x in l[a : c + 1])
        sub_b = tuple(x - s - 1 for x in b[a:c])
        subtables.append(reference_assignment_table(kernel, sub_l, sub_b, biased))
    Ms = kernel.matrix_power(s, biased)
    chi_d = kernel.chi.get(d, [{}] * nt)
    out = {}
    for y in range(nt):
        row = chi_d[y]
        if not row:
            continue
        if biased:
            coef = kernel.m[d, y] / (math.factorial(d) * kernel.psi[y])
            if coef == 0.0:
                continue
        else:
            coef = 1.0
        col = Ms[:, y] * coef
        if not np.any(col):
            continue
        for combo in itertools.product(*[list(t.items()) for t in subtables]):
            inner = 0.0
            for z, q in row.items():
                term = q
                for (_, vec_i), zi in zip(combo, z):
                    term *= vec_i[zi]
                    if term == 0.0:
                        break
                inner += term
            if inner == 0.0:
                continue
            lt = tuple(t for (key_i, _) in combo for t in key_i[0])
            bt_parts = []
            for idx, (key_i, _) in enumerate(combo):
                if idx:
                    bt_parts.append((y,))
                bt_parts.append(key_i[1])
            bt = tuple(t for part in bt_parts for t in part)
            key = (lt, bt)
            prev = out.get(key)
            out[key] = col * inner if prev is None else prev + col * inner
    return out


def reference_q_expectation(kernel, shape, F, x0, with_bias=True):
    model = kernel.model
    table = reference_assignment_table(
        kernel, shape.leaf_heights, shape.branch_heights, with_bias
    )
    i0 = model.index[x0]
    types = model.types
    total = 0.0
    for (lt, bt), vec in table.items():
        w = float(vec[i0])
        if w != 0.0:
            total += w * F(
                shape,
                tuple(types[t] for t in lt),
                tuple(types[t] for t in bt),
            )
    return total


def reference_m2f(kernel, k, F, R, x0):
    total = 0.0
    for shape in reference_shapes(k, R):
        total += reference_q_expectation(kernel, shape, F, x0)
    return float(kernel.psi[kernel.model.index[x0]]) * total


def scaled(shape, a):
    """The shape with every height multiplied by a."""
    return TreeShape(
        tuple(a * x for x in shape.leaf_heights),
        tuple(a * x for x in shape.branch_heights),
    )


def reference_rescaled(kernel, k, F_cont, n, x0):
    def F(shape, lt, bt):
        return F_cont(scaled(shape, 1.0 / n), lt, bt)

    return reference_m2f(kernel, k, F, n, x0) / float(n) ** (2 * k)


def reference_ultrametric(kernel, k, F_cont, n, x0):
    total = 0.0
    for b in itertools.product(range(n), repeat=k - 1):
        shape = TreeShape((n,) * k, b)
        small = scaled(shape, 1.0 / n)
        total += reference_q_expectation(
            kernel, shape, lambda _s, lt, bt: F_cont(small, lt, bt), x0
        )
    psi_x = float(kernel.psi[kernel.model.index[x0]])
    return psi_x * total / float(n) ** k


def rough_functional(shape, lt, bt):
    """Depends on heights and on every leaf and branch type, with weights
    no binary fraction rounds away, so any change in which terms meet or
    in what order they are summed shows in the last bits."""
    v = 1.0 + 0.1 * sum(shape.leaf_heights) + 0.03 * sum(shape.branch_heights)
    for i, x in enumerate(lt):
        v *= (1.3 if x in ("a", "A") else 0.7) + 0.01 * i
    for x in bt:
        v *= 1.1 if x in ("a", "A") else 0.9
    return v


class TestBatchedTablesMatchReference:
    @pytest.mark.parametrize(
        "make", [make_binary, make_symmetric, make_asymmetric, make_subcritical]
    )
    def test_every_small_shape_bit_for_bit(self, make):
        model = make()
        # one kernel for every shape, bias flag and start type, so that a
        # power cache keyed too coarsely would hand one of them another's
        # matrices
        ker = build_kernel(model, (0.75, 1.5)[: len(model.types)])
        compared = 0
        for k in range(1, 5):
            shapes = list(reference_shapes(k, 4))
            L = np.array([s.leaf_heights for s in shapes])
            B = np.array([s.branch_heights for s in shapes], dtype=int).reshape(len(shapes), -1)
            for with_bias in (True, False):
                for i0, x0 in enumerate(model.types):
                    # one batched pass over every shape with k leaves
                    got = spine._row_values(ker, L, B, rough_functional, i0, with_bias, None)
                    for shape, value in zip(shapes, got.tolist()):
                        want = reference_q_expectation(
                            ker, shape, rough_functional, x0, with_bias
                        )
                        assert value.hex() == want.hex(), (shape, with_bias, x0)
                        compared += value != 0.0
        assert compared > 0

    @pytest.mark.parametrize("make", [make_binary, make_symmetric, make_asymmetric])
    def test_rescaled_and_ultrametric_bit_for_bit(self, make):
        model = make()
        ker = build_kernel(model, "harmonic")
        for x0 in model.types:
            for k, ns in ((1, (5,)), (2, (4, 7)), (3, (3, 4))):
                for n in ns:
                    got = moments.rescaled_moment(
                        model, k, rough_functional, n, x0, kernel=ker
                    )
                    want = reference_rescaled(ker, k, rough_functional, n, x0)
                    assert got.hex() == want.hex(), ("rescaled", x0, k, n)
                    got = moments.ultrametric_moment(
                        model, k, rough_functional, n, x0, kernel=ker
                    )
                    want = reference_ultrametric(ker, k, rough_functional, n, x0)
                    assert got.hex() == want.hex(), ("ultrametric", x0, k, n)


def quiet_kernel(model, psi):
    # the subcritical model warns at every harmonic kernel build
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_kernel(model, psi)


def named_functionals(model):
    """Every named functional of the CLI with weights off, on, and with a
    negative weight: (label, F, smallest k)."""
    weights = [None, {x: 0.75 + 0.5 * i for i, x in enumerate(model.types)}]
    weights.append({x: -1.25 + 2.0 * i for i, x in enumerate(model.types)})
    out = []
    for w in weights:
        for spec, k_min in (
            ({"name": "count"}, 1),
            ({"name": "height_indicator", "r": 0.75}, 1),
            ({"name": "pair_indicator", "r": 0.6}, 2),
        ):
            spec = dict(spec, **({} if w is None else {"weights": w}))
            F = build_functional(spec, model)
            assert callable(F.batched)
            out.append((f"{spec}", F, k_min))
    return out


def nan_where_weightless(shape, lt, bt):
    """NaN on asymmetric-model keys of weight zero: two leaves of type B
    one step above their meet, which no branch point produces; elsewhere
    a value depending on heights and leaf types."""
    (l0, l1), (b0,) = shape.leaf_heights, shape.branch_heights
    if lt == ("B", "B") and l0 == l1 == b0 + 1:
        return math.nan
    return 1.0 + 0.1 * l0 - 0.2 * l1 + 0.05 * b0 + (lt[0] == "A")


def _nan_where_weightless_batched(L, B, lt):
    out = 1.0 + 0.1 * L[:, 0] - 0.2 * L[:, 1] + 0.05 * B[:, 0] + (lt[0] == "A")
    if lt == ("B", "B"):
        tip = (L[:, 0] == L[:, 1]) & (L[:, 0] == B[:, 0] + 1)
        out = np.where(tip, math.nan, out)
    return out


class TestShapeSumMatchesPerShapeLoops:
    """moment_m2f, rescaled_moment and ultrametric_moment against the
    per-shape loops they replaced, in float hex: named functionals through
    their batched form, plain callables through the per-key adapter."""

    MODELS = [make_binary, make_symmetric, make_asymmetric, make_subcritical]

    @staticmethod
    def compare(model, F, ks):
        ker = quiet_kernel(model, "harmonic")
        kernels = {psi: quiet_kernel(model, psi) for psi in ("unit", "harmonic")}
        for x0 in model.types:
            for k in ks:
                for n in {1: (1, 6), 2: (1, 5), 3: (1, 3)}[k]:
                    got = moments.rescaled_moment(model, k, F, n, x0, kernel=ker)
                    want = reference_rescaled(ker, k, F, n, x0)
                    assert got.hex() == want.hex(), ("rescaled", x0, k, n)
                for n in {1: (1, 5), 2: (1, 7), 3: (1, 4)}[k]:
                    got = moments.ultrametric_moment(model, k, F, n, x0, kernel=ker)
                    want = reference_ultrametric(ker, k, F, n, x0)
                    assert got.hex() == want.hex(), ("ultrametric", x0, k, n)
                for psi, kern in kernels.items():
                    q = moments.MomentQuery(k=k, x0=x0, F=F, R=3, psi=psi)
                    got = moments.moment_m2f(model, q, kernel=kern)
                    want = reference_m2f(kern, k, F, 3, x0)
                    assert got.hex() == want.hex(), ("m2f", psi, x0, k)

    @pytest.mark.parametrize("make", MODELS)
    def test_named_functionals(self, make):
        model = make()
        for label, F, k_min in named_functionals(model):
            try:
                self.compare(model, F, range(k_min, 4))
            except AssertionError as e:
                raise AssertionError(f"{label}: {e}") from None

    @pytest.mark.parametrize("make", MODELS)
    def test_plain_callable_reading_branch_types(self, make):
        assert not hasattr(rough_functional, "batched")
        self.compare(make(), rough_functional, (1, 2, 3))

    @pytest.mark.parametrize("make", MODELS)
    def test_branch_functional(self, make):
        model = make()
        top = model.types[0]
        leaf = moments.PathFunctional(lambda h, x: 1.5 - 0.25 * h + (x == top))
        stem = lambda s, y: 0.5 + 0.125 * s * (1 + (y == top))
        pair = moments.BranchFunctional(stem, (leaf, leaf))
        for func in (pair, moments.BranchFunctional(stem, (leaf, pair))):
            F = moments.as_functional(func)
            kern = quiet_kernel(model, "unit")
            for x0 in model.types:
                q = moments.MomentQuery(k=func.k, x0=x0, F=F, R=4)
                got = moments.moment_m2f(model, q, kernel=kern)
                assert got.hex() == reference_m2f(kern, func.k, F, 4, x0).hex()

    @pytest.mark.parametrize("batched", [False, True])
    def test_weightless_keys_are_skipped(self, asymmetric, batched):
        F = lambda shape, lt, bt: nan_where_weightless(shape, lt, bt)
        if batched:
            F.batched = _nan_where_weightless_batched
        for psi in ("unit", "harmonic"):
            kern = build_kernel(asymmetric, psi)
            for x0 in asymmetric.types:
                q = moments.MomentQuery(k=2, x0=x0, F=F, R=4, psi=psi)
                got = moments.moment_m2f(asymmetric, q, kernel=kern)
                want = reference_m2f(kern, 2, F, 4, x0)
                assert not math.isnan(want)
                assert got.hex() == want.hex(), (psi, x0)


def asymmetric_tables(model):
    """(L, B, keys, live) per tie pattern of the 3-leaf shapes of height
    at most 3: the typed keys, live where the spine weight is nonzero,
    with every key of leaf types (B, B, B) masked as well."""
    ker = build_kernel(model, "unit")
    (L, B), = shape_batches(3, 3)
    powers = np.stack([ker.matrix_power(h) for h in range(4)])
    out = []
    for pattern, rows in spine._pattern_groups(B):
        keys, W = spine._table(ker, pattern, L[rows], B[rows], True, powers, 0)
        live = W[:, :, 0] != 0.0
        live[[lt == ("B", "B", "B") for lt, _ in keys]] = False
        out.append((L[rows], B[rows], keys, live))
    return out


class TestShapeValues:
    """trees.shape_values on masked typed keys of the asymmetric model."""

    def test_masks_have_holes(self, asymmetric):
        dead_keys = 0
        for _, _, keys, live in asymmetric_tables(asymmetric):
            assert live.any() and not live.all()
            dead_keys += int((~live.any(axis=1)).sum())
        assert dead_keys > 0

    def test_named_functional_equals_its_scalar_form(self, asymmetric):
        for L, B, keys, live in asymmetric_tables(asymmetric):
            # integer heights, as the shape sum sees them, and divided by n
            for Lf, Bf in ((L, B), (L / 5, B / 5)):
                for label, F, _ in named_functionals(asymmetric):
                    vals = shape_values(F, Lf, Bf, keys, live)
                    assert len(vals) == len(keys)
                    for j, r in zip(*np.nonzero(live)):
                        shape = TreeShape(tuple(Lf[r].tolist()), tuple(Bf[r].tolist()))
                        want = F(shape, *keys[j])
                        assert float(vals[j][r]).hex() == want.hex(), (label, keys[j], shape)
                    for j in np.flatnonzero(~live.any(axis=1)):
                        assert not vals[j].any()

    def test_plain_functional_skips_masked_entries(self, asymmetric):
        for L, B, keys, live in asymmetric_tables(asymmetric):
            wanted = {
                (tuple(L[r].tolist()), tuple(B[r].tolist())) + keys[j]
                for j, r in zip(*np.nonzero(live))
            }
            seen = []

            def F(shape, lt, bt):
                entry = (shape.leaf_heights, shape.branch_heights, lt, bt)
                if entry not in wanted:
                    raise AssertionError(f"called on a masked entry {entry}")
                seen.append(entry)
                return rough_functional(shape, lt, bt)

            vals = np.array(shape_values(F, L, B, keys, live))
            assert len(seen) == len(set(seen)) == len(wanted)
            assert not vals[~live].any()
            for j, r in zip(*np.nonzero(live)):
                shape = TreeShape(tuple(L[r].tolist()), tuple(B[r].tolist()))
                assert vals[j, r] == rough_functional(shape, *keys[j])

    def test_batched_called_once_per_leaf_type_tuple(self, asymmetric):
        for L, B, keys, live in asymmetric_tables(asymmetric):
            calls, results = [], {}

            def F(shape, lt, bt):
                raise AssertionError("the scalar form is not called")

            def batched(L_, B_, lt):
                assert L_ is L and B_ is B
                calls.append(lt)
                results[lt] = np.full(len(L_), float(len(calls)))
                return results[lt]

            F.batched = batched
            vals = shape_values(F, L, B, keys, live)
            live_lts = [lt for (lt, _), row in zip(keys, live) if row.any()]
            assert calls == list(dict.fromkeys(live_lts))
            assert ("B", "B", "B") not in calls and len(calls) == 7
            # keys sharing a leaf-type tuple share its array, uncopied
            for (lt, _), row, v in zip(keys, live, vals):
                if row.any():
                    assert v is results[lt]
                else:
                    assert not v.any()

    def test_batched_must_return_one_value_per_row(self, binary):
        # a scalar or a length-1 array would broadcast over the rows
        for bad in (
            lambda L, B, lt: 1.0,
            lambda L, B, lt: np.ones(1),
            lambda L, B, lt: np.ones((len(L), 1)),
        ):
            F = lambda shape, lt, bt: 1.0
            F.batched = bad
            q = moments.MomentQuery(k=2, x0="a", F=F, R=3)
            with pytest.raises(ValueError, match="values, one per row"):
                moments.moment_m2f(binary, q)


def make_ring(m):
    # m types on a ring: die w.p. 1/2, else two children whose types are
    # independently uniform on i - 1, i, i + 1
    types = [f"r{i}" for i in range(m)]
    return Model(
        types,
        {
            x: [(0.5, ())]
            + [
                (1 / 18, (types[(i + a) % m], types[(i + b) % m]))
                for a in (-1, 0, 1)
                for b in (-1, 0, 1)
            ]
            for i, x in enumerate(types)
        },
    )


class TestTableBudget:
    def test_many_types_refused_before_allocating(self):
        # 32^5 typed keys per row at k = 3, so even one row is past the
        # budget; the first tie pattern refused has 73 rows
        with pytest.raises(ValueError, match=r"n_types = 32 at k = 3 .* 2\.45e\+09 floats"):
            moments.rescaled_moment(make_ring(32), 3, lambda s, lt, bt: 1.0, 4, "r0")

    def test_budget_is_per_table(self, monkeypatch, binary):
        q = moments.MomentQuery(k=2, x0="a", F=lambda s, lt, bt: 1.0, R=3)
        want = moments.moment_m2f(binary, q)
        # one type: the largest tie pattern of two leaves up to height 3
        # has 14 rows of one key each
        monkeypatch.setattr(spine, "SHAPE_TABLE_FLOATS", 14)
        assert moments.moment_m2f(binary, q) == want
        monkeypatch.setattr(spine, "SHAPE_TABLE_FLOATS", 13)
        with pytest.raises(ValueError, match="n_types = 1 at k = 2 .* 14 floats"):
            moments.moment_m2f(binary, q)
