import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (ALPHA, GradedValue, at_order, augment, banded_gram,
                      block_constant_matrix, build_limit_table,
                      closed_form_ratio_matrix, cyclic_ratio_from_kt,
                      cyclic_ratio_scalar, generic_ratio, generic_tables,
                      projection_kernel, ratio_table_one_shot, sym_nonneg)
from permclass.classify import ModelParams, fit
from permclass.cyclic import (build_ratio_table, per_alpha_cyclic, ratio_approx,
                              ratio_approx_matrix, ratio_from_kt)
from permclass.limit import DegenerateConfigurationError, LimitTable
from permclass import cyclic, kernels
from permclass.cyclic import _fit_core, _FitCore
from permclass.exact import per_alpha_exact, ratio_exact_matrix
from permclass.datasets import gen_chequerboard
from permclass.kernels import (GramMatrix, Kernel, gram, kernel_block, kernel_column,
                               kernel_self_batch)


# -- graded series arithmetic -------------------------------------------


class TestGradedValue:
    def test_limits(self):
        assert GradedValue(0, 2.5).limit() == 2.5
        assert GradedValue(1, 7.0).limit() == 0.0
        assert GradedValue.of(0.0).limit() == 0.0
        with pytest.raises(DegenerateConfigurationError):
            GradedValue(-1, 3.0).limit()

    def test_add_aligns_leads(self):
        # alpha * 2 + 3 -> 3 + 2 alpha
        v = ALPHA * 2.0 + 3.0
        assert (v.lead, v.c0, v.c1) == (0, 3.0, 2.0)
        # terms more than one order down are dropped
        w = GradedValue(0, 1.0, 1.0) + GradedValue(3, 9.0)
        assert (w.lead, w.c0, w.c1) == (0, 1.0, 1.0)

    def test_mul_truncates(self):
        v = GradedValue(0, 2.0, 3.0) * GradedValue(1, 5.0, 7.0)
        assert (v.lead, v.c0, v.c1) == (1, 10.0, 29.0)

    def test_div(self):
        v = GradedValue(1, 6.0, 2.0) / GradedValue(0, 3.0, 1.0)
        assert v.lead == 1
        assert v.c0 == pytest.approx(2.0)
        assert v.c1 == pytest.approx((2.0 * 3.0 - 6.0 * 1.0) / 9.0)
        # scalar mixing
        assert (1.0 / GradedValue(0, 2.0)).c0 == 0.5

    def test_zero_division_raises(self):
        with pytest.raises(DegenerateConfigurationError, match="identically zero"):
            GradedValue(0, 1.0) / GradedValue.of(0.0)

    def test_zero_is_absorbing(self):
        z = GradedValue.of(0.0)
        assert (z * ALPHA).is_zero
        assert (z + GradedValue(0, 2.0)).c0 == 2.0
        assert (z / GradedValue(0, 2.0)).is_zero

    def test_cancellation_shifts_lead(self):
        v = GradedValue(0, 1.0, 4.0) + GradedValue(0, -1.0, 1.0)
        assert (v.lead, v.c0) == (1, 5.0)

    def test_at_matches_series(self):
        v = GradedValue(1, 2.0, 3.0)
        assert v.at(0.1) == pytest.approx(0.1 * (2.0 + 0.3))


# -- denominator tables --------------------------------------------------


def _leave_two_out(g, alpha):
    """The leave-two-out ratios r1_l2o that an order-3 finish forms for
    ``alpha`` and no table keeps, rebuilt from G: r1_l2o[i, j] is r1_loo[j]
    without its i term K(x_j, x_i)^2 / K(x_i, x_i), with 1.0 on the
    diagonal."""
    G = g.entries
    r1_l2o = build_ratio_table(g, alpha, order=3).r1_loo[None, :] - G * G / g.diagonal[:, None]
    np.fill_diagonal(r1_l2o, 1.0)
    return r1_l2o


def _table_arrays(table):
    """r1_loo, r2_loo, T, s3 and the four-cycle matrix M of a table (None
    where its order reads none); M is built here if no rows call has."""
    m3 = table._four_cycle_matrix() if table.order == 3 else None
    return table.r1_loo, table.r2_loo, table._t3, table._s3, m3


def test_table_constant_kernel():
    n, c, alpha = 5, 0.8, 1.3
    g = GramMatrix.from_matrix(np.full((n, n), c))
    table = build_ratio_table(g, alpha, order=3)
    assert np.allclose(table.r1_loo, c * (alpha + n - 1), rtol=1e-12)
    assert np.allclose(table.r2_loo, c * (alpha + n - 1), rtol=1e-12)
    off = ~np.eye(n, dtype=bool)
    assert np.allclose(_leave_two_out(g, alpha)[off], c * (alpha + n - 2), rtol=1e-12)


def test_table_diagonal_kernel():
    d = np.array([0.5, 1.5, 2.5])
    g = GramMatrix.from_matrix(np.diag(d))
    table = build_ratio_table(g, 0.7, order=3)
    assert np.allclose(table.r1_loo, 0.7 * d, rtol=1e-15)


def test_table_single_point():
    g = GramMatrix.from_matrix(np.array([[2.0]]))
    table = build_ratio_table(g, 1.1, order=2)
    assert table.r1_loo[0] == pytest.approx(1.1 * 2.0)


def test_table_positive_denominators(rng):
    g = GramMatrix.from_matrix(sym_nonneg(rng, 7))
    table = build_ratio_table(g, 0.4, order=3)
    assert (table.r1_loo > 0).all()
    assert (table.r2_loo > 0).all()
    assert (_leave_two_out(g, 0.4) > 0).all()


def test_table_zero_diagonal_names_point():
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="point index 1"):
        build_ratio_table(GramMatrix.from_matrix(m), 1.0)


def test_table_rejects_bad_alpha_and_order(rng):
    g = GramMatrix.from_matrix(sym_nonneg(rng, 3))
    with pytest.raises(ValueError, match="alpha"):
        build_ratio_table(g, 0.0)
    with pytest.raises(ValueError, match="order"):
        build_ratio_table(g, 1.0, order=4)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_table_builds_only_what_its_order_reads(rng, order):
    for n in (0, 5):
        table = build_ratio_table(GramMatrix.from_matrix(sym_nonneg(rng, n)), 0.9,
                                  order=order)
        if order < 2:
            assert table.r1_loo is None  # orders 0 and 1 read only the Gram diagonal
        else:
            assert table.r1_loo.shape == (n,)
        order_3_only = (table.r2_loo, table._t3, table._s3, table._dg)
        assert [t is not None for t in order_3_only] == [order == 3] * 4
        # the four-cycle matrix is built on first use, and then kept
        assert table._m3 is None
        if order == 3:
            m3 = table._four_cycle_matrix()
            assert m3.shape == (n, n) and table._four_cycle_matrix() is m3


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_core_finish_matches_fresh_build(rng, order):
    # one core finished for several alphas, repeats and per-class values
    # included, gives each alpha's fresh table and the one-pass formula bit
    # for bit, and no finish changes the core
    points = rng.normal(size=(9, 2))
    mats = [sym_nonneg(rng, 0), sym_nonneg(rng, 1), sym_nonneg(rng, 8),
            block_constant_matrix([3, 1, 2], [0.5, 2.0, 1.0]), banded_gram(rng, 7),
            gram(Kernel.exponential(0.7), points).entries]
    for M in mats:
        g = GramMatrix.from_matrix(M)
        core = _fit_core(g, order)
        before = [None if v is None else v.copy() for v in (core.d, core.q_sum, core.g_inner)]
        for alpha in (2.0, 0.25, 1.0, 0.1 + 0.2, 2.0):
            got = core.finish(alpha)
            fresh = build_ratio_table(g, alpha, order=order)
            one_pass = ratio_table_one_shot(M, alpha, order)
            for a, b, c, absent in zip(_table_arrays(got), _table_arrays(fresh), one_pass,
                                       [order < 2] + [order < 3] * 4):
                if absent:
                    assert a is None and b is None and c is None
                else:
                    assert np.array_equal(a, b) and np.array_equal(a, c)
            assert (got.alpha, got.order) == (fresh.alpha, fresh.order)
        after = (core.d, core.q_sum, core.g_inner)
        for x, y in zip(before, after):
            assert (x is None and y is None) or np.array_equal(x, y)


def _stacking_grams(rng):
    """Random (n = 0, 1, 2, 40), diagonal, constant, block-constant and
    banded Gram matrices."""
    return [sym_nonneg(rng, 0), sym_nonneg(rng, 1), sym_nonneg(rng, 2), sym_nonneg(rng, 40),
            np.diag(rng.uniform(0.5, 2.0, size=9)), np.full((8, 8), 0.7),
            block_constant_matrix([3, 1, 4], [0.6, 1.3, 0.9]), banded_gram(rng, 40)]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_stacked_finish_and_rows_equal_each_alphas_table(rng, order):
    # one finish for an array of alphas (repeats included, and a column of
    # a per-class array, as cross-validation passes them) stacks each
    # alpha's table along a leading axis, and one rows call answers every
    # alpha, bit for bit
    per_class = np.array([[2.0, 0.5], [0.25, 1.0], [1.0, 1.0], [0.1 + 0.2, 4.0], [2.0, 0.5]])
    for M in _stacking_grams(rng):
        n = M.shape[0]
        core = _fit_core(GramMatrix.from_matrix(M), order)
        Kt = _sparse_block(rng, 40, n)
        ktt = rng.uniform(0.5, 1.5, size=40)
        for alphas in per_class.T:
            stacked = core.finish(alphas)
            got = stacked.rows(Kt, ktt)
            assert got.shape == (len(alphas), 40)
            for j, alpha in enumerate(alphas):
                one = core.finish(alpha)
                assert stacked.alpha[j] == one.alpha
                for a, b in zip(_table_arrays(stacked), _table_arrays(one)):
                    assert (a is None and b is None) or np.array_equal(a[j], b)
                assert np.array_equal(got[j], one.rows(Kt, ktt))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_kernel_stacked_core_finish_and_rows_equal_each_kernels_tables(rng, order):
    # one core over a stack of K Gram matrices, one finish for an A x K array
    # of alphas (column k for kernel k, A = 3 != K = 4, so swapped axes fail
    # on shape) and one rows call over the stacked blocks give, at [j, k],
    # kernel k's own core, alpha j's own table and its rows, bit for bit; so
    # does a finish into a given buffer
    for n in (0, 1, 2, 9, 40):
        mats = [sym_nonneg(rng, n), np.diag(rng.uniform(0.5, 2.0, size=n)),
                np.full((n, n), 0.7), banded_gram(rng, n) if n > 2 else sym_nonneg(rng, n)]
        stack = GramMatrix(np.stack(mats), np.zeros((n, 1)))
        core = _fit_core(stack, order)
        alphas = np.array([[2.0, 1.0, 4.0, 0.25], [0.5, 1.0, 0.5, 3.0],
                           [0.25, 0.1 + 0.2, 2.0, 1.0]])
        Kt = np.stack([_sparse_block(rng, 30, n) for _ in mats])
        ktt = rng.uniform(0.5, 1.5, size=(len(mats), 30))
        stacked = core.finish(alphas)
        got = stacked.rows(Kt, ktt)
        assert got.shape == (3, len(mats), 30)
        if order == 3:
            buffer = np.full((*alphas.shape, n, n), np.nan)
            into = core.finish(alphas, out=buffer)
            assert into._t3.base is buffer
            assert np.array_equal(into.rows(Kt, ktt), got)
        for k, M in enumerate(mats):
            own = _fit_core(GramMatrix.from_matrix(M), order)
            for name in ("d", "q_sum", "g_inner"):
                a, b = getattr(core, name), getattr(own, name)
                assert (a is None and b is None) or np.array_equal(a[k], b)
            for j, alpha in enumerate(alphas[:, k]):
                one = own.finish(alpha)
                assert (stacked._dg is None and one._dg is None) or np.array_equal(
                    stacked._dg[k], one._dg)
                for a, b in zip(_table_arrays(stacked), _table_arrays(one)):
                    assert (a is None and b is None) or np.array_equal(a[j, k], b)
                assert np.array_equal(got[j, k], one.rows(Kt[k], ktt[k]))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_stacked_core_refuses_a_bad_diagonal_naming_its_point(order):
    good = np.eye(3)
    bad = np.eye(3)
    bad[2, 2] = 0.0
    with pytest.raises(ValueError, match="point index 2 has K"):
        _fit_core(GramMatrix(np.stack([good, bad]), np.zeros((3, 1))), order)
    with pytest.raises(ValueError, match="gram matrix row 1, column 0 is not finite"):
        _fit_core(GramMatrix(np.array([[1.0, 0.0], [np.inf, 1.0]]), np.zeros((2, 1))), order)


def _order_3_grams(rng):
    """Random Gram matrices at n = 0-3 and 40, and diagonal, constant,
    block-constant (through a projection kernel), banded and mostly zero
    off-diagonal ones."""
    points = rng.normal(size=(9, 2))
    blocks = block_constant_matrix([3, 1, 5], [0.6, 1.3, 0.9])
    sparse = sym_nonneg(rng, 12)
    drop = np.triu(rng.random((12, 12)) < 0.8, 1)
    sparse[drop | drop.T] = 0.0
    return [*(sym_nonneg(rng, n) for n in (0, 1, 2, 3, 40)),
            np.diag(rng.uniform(0.5, 2.0, size=9)), np.full((8, 8), 0.7),
            gram(projection_kernel(points, blocks), points).entries,
            banded_gram(rng, 40), sparse]


def test_order_3_rows_match_the_nested_sums(rng):
    # a block of at least n rows reads the four-cycle matrix M, one product
    # per alpha (M is built on that call), a shorter block the two-product
    # form, which builds no M; ratio_from_kt reads the nested sums over T.
    # At 1, n - 1, n and n + 1 rows each alpha's row, alone or in an
    # alphas x kernels stack (3 x 2), stays within 1e-13 of the nested sums,
    # every stacked slice is the one-alpha row bit for bit, and M's diagonal
    # is exactly 1
    alphas = np.array([[0.25, 0.1 + 0.2], [1.0, 4.0], [2.0, 0.5]])
    for M in _order_3_grams(rng):
        n = M.shape[0]
        mats = [M, sym_nonneg(rng, n)]
        stack = _fit_core(GramMatrix(np.stack(mats), np.zeros((n, 1))), 3)
        cores = [_fit_core(GramMatrix.from_matrix(m), 3) for m in mats]
        for q in sorted({1, max(n - 1, 0), n, n + 1}):
            Kt = np.stack([_sparse_block(rng, q, n) for _ in mats])
            ktt = rng.uniform(0.5, 1.5, size=(len(mats), q))
            stacked = stack.finish(alphas)
            got = stacked.rows(Kt, ktt)
            tables = [stacked] + [core.finish(a) for core in cores for a in (0.5, 2.0)]
            for k, core in enumerate(cores):
                for j, alpha in enumerate(alphas[:, k]):
                    one = core.finish(alpha)
                    row = one.rows(Kt[k], ktt[k])
                    tables.append(one)
                    assert np.array_equal(got[j, k], row)
                    ref = np.array([ratio_from_kt(one, kt, t) for kt, t in zip(Kt[k], ktt[k])])
                    np.testing.assert_allclose(row, ref, rtol=1e-13, atol=0.0)
            for table in tables[1:5]:
                assert table._m3 is None  # finished, never queried
            for table in tables[:1] + tables[5:]:
                assert (table._m3 is not None) == (0 < n <= q)
                if table._m3 is not None:
                    assert (np.diagonal(table._m3, axis1=-2, axis2=-1) == 1.0).all()


def test_kernel_stacked_order_3_rows_equal_each_one_alpha_fit(rng):
    # each [j, k] slice of an A x K (2 x 3) order-3 table's rows is the rows
    # of the table `fit` makes for kernel k and alpha j alone, bit for bit
    data = gen_chequerboard(4, seed=5)
    kernels = [Kernel.gaussian(0.4), Kernel.exponential(1.1), Kernel.gaussian(2.0)]
    alphas = np.array([[0.5, 1.0, 4.0], [2.0, 0.1 + 0.2, 0.25]])
    queries = rng.uniform(0.0, 3.0, size=(20, 2))
    for r in range(data.n_classes):
        pts = data.class_points(r)
        core = _fit_core(GramMatrix(np.stack([gram(k, pts).entries for k in kernels]), pts), 3)
        stacked = core.finish(alphas)
        Kt = np.stack([kernel_block(k, queries, pts) for k in kernels])
        ktt = np.stack([kernel_self_batch(k, queries) for k in kernels])
        got = stacked.rows(Kt, ktt)
        for k, kernel in enumerate(kernels):
            for j, alpha in enumerate(alphas[:, k]):
                one = fit(data, ModelParams(kernel=kernel, alphas=alpha, order=3)).classes[r]
                assert np.array_equal(got[j, k], one.rows(Kt[k], ktt[k]))


def _four_cycle_bracket_longdouble(T, G, Kt, alpha):
    """E[q, i] = Kt[q, i] + sum_{j != i} T[i, j] (Kt[q, j]
    + sum_{k not in {i, j}} G[j, k] Kt[q, k] / (alpha G[k, k])), every
    term formed and summed in np.longdouble."""
    T, G, Kt = (np.asarray(x, dtype=np.longdouble) for x in (T, G, Kt))
    n = G.shape[0]
    w = Kt / (np.longdouble(alpha) * np.diagonal(G))
    idx = np.arange(n)
    keep = (idx[None, None, :] != idx[:, None, None]) & (idx[None, None, :] != idx[None, :, None])
    tail = (G[None, None, :, :] * w[:, None, None, :] * keep[None]).sum(axis=-1)
    return Kt + (T[None] * (Kt[:, None, :] + tail)).sum(axis=-1)


def test_order_3_bracket_is_no_further_from_longdouble_than_before():
    # against a long-double evaluation of the nested sums over 200
    # configurations, the earlier form of the bracket, Kt + (Kt + P / a) T^T
    # - (Kt / (a d)) s3, which subtracts the k = i terms from a dense
    # product, is measured against Kt M, which subtracts nothing and is no
    # worse anywhere; and the ratios the earlier form gives against those
    # `rows` gives through M (a block of n rows or more) and through the
    # two-product form (one row at a time), which also subtracts the k = i
    # terms (its s3 sums the very products dg[i, j] T[i, j] that (Kt dg) T^T
    # holds) and matches the earlier form's mean and worst error
    rng = np.random.default_rng(20)
    errors = {"old": [], "m": [], "old ratio": [], "m ratio": [], "two ratio": []}
    for _ in range(200):
        n = int(rng.integers(2, 25))
        alpha = float(rng.choice([0.1, 0.5, 1.0, 4.0]))
        G = sym_nonneg(rng, n)
        Kt = rng.random((10, n))
        ktt = rng.uniform(0.5, 1.5, size=10)
        table = build_ratio_table(GramMatrix.from_matrix(G), alpha, order=3)
        T, d = table._t3, np.diagonal(G)
        ref = _four_cycle_bracket_longdouble(T, G, Kt, alpha)
        w = np.longdouble(alpha) / table.r2_loo.astype(np.longdouble)
        ref_ratio = np.longdouble(alpha) * ktt + (Kt * w * ref).sum(axis=-1)
        P = (Kt / d) @ G - Kt
        s3 = np.einsum("ij,ij->i", T, G)
        old = Kt + (Kt + P / alpha) @ T.T - (Kt / (alpha * d)) * s3
        m = Kt @ table._four_cycle_matrix()
        reps = -(-n // 10)  # a block of at least n rows reads M
        forms = {"old": (old, ref), "m": (m, ref),
                 "old ratio": (alpha * ktt + ((Kt * (alpha / table.r2_loo)) * old).sum(axis=-1),
                               ref_ratio),
                 "m ratio": (table.rows(np.tile(Kt, (reps, 1)), np.tile(ktt, reps))[:10],
                             ref_ratio),
                 "two ratio": (np.concatenate([table.rows(Kt[q:q + 1], ktt[q:q + 1])
                                               for q in range(10)]), ref_ratio)}
        for name, (form, exact) in forms.items():
            errors[name].extend(np.abs((form - exact) / exact).astype(float).ravel())
    mean = {name: float(np.mean(e)) for name, e in errors.items()}
    worst = {name: float(np.max(e)) for name, e in errors.items()}
    assert worst["m"] <= worst["old"] and worst["m"] < 2e-15
    for name in ("m ratio", "two ratio"):
        assert mean[name] <= mean["old ratio"] and worst[name] <= worst["old ratio"]


def test_stacked_rows_warn_once_per_call(caplog):
    import logging
    G = np.array([[1.0, 0.9], [0.9, 1.0]])
    table = _fit_core(GramMatrix.from_matrix(G), 2).finish(np.array([0.5, 1.0, 2.0]))
    Kt = np.tile([1.0, -1.0], (10, 1))
    with caplog.at_level(logging.WARNING, logger="permclass.cyclic"):
        values = table.rows(Kt, np.full(10, 0.1))
    assert (values[0] < 0.0).all() and (values[2] > 0.0).all()
    records = [r for r in caplog.records if r.name == "permclass.cyclic"]
    assert len(records) == 1
    assert f"{np.count_nonzero(values < 0.0)} of 30 order-2" in records[0].getMessage()


def _generic_table_arrays(M, alpha):
    r1, r12, r2 = generic_tables(M.tolist(), M.diagonal().tolist(), alpha, 3)
    r12 = np.array([[np.nan if v is None else v for v in row] for row in r12])
    return np.array(r1), r12, np.array(r2)


def _assert_tables_match_generic(M, alpha):
    g = GramMatrix.from_matrix(M)
    table = build_ratio_table(g, alpha, order=3)
    r1, r12, r2 = _generic_table_arrays(M, alpha)
    off = ~np.eye(M.shape[0], dtype=bool)
    np.testing.assert_allclose(table.r1_loo, r1, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(_leave_two_out(g, alpha)[off], r12[off], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(table.r2_loo, r2, rtol=1e-13, atol=0.0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 30),
       st.sampled_from([0.1, 0.5, 1.0, 3.0]))
def test_matrix_form_tables_match_generic_random(seed, n, alpha):
    _assert_tables_match_generic(sym_nonneg(np.random.default_rng(seed), n), alpha)


def test_matrix_form_tables_match_generic_structured(rng):
    for M in (sym_nonneg(rng, 60),
              np.diag(rng.uniform(0.5, 2.0, size=60)),
              np.full((60, 60), 0.7),
              block_constant_matrix([20, 1, 39], [0.6, 1.3, 0.9]),
              banded_gram(rng, 60)):
        for alpha in (0.2, 1.0, 4.0):
            _assert_tables_match_generic(M, alpha)


# -- ratio approximations ------------------------------------------------


@given(st.integers(0, 2**32 - 1), st.integers(0, 3),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_theorem_exact_at_full_order(seed, n, alpha):
    # order k = n reproduces the exact ratio
    rng = np.random.default_rng(seed)
    A = sym_nonneg(rng, n + 1)
    approx = ratio_approx_matrix(A, alpha, order=n)
    exact = ratio_exact_matrix(A, alpha)
    tol = 1e-12 if n <= 1 else 1e-10
    assert approx == pytest.approx(exact, rel=tol)


@given(st.integers(0, 2**32 - 1))
def test_theorem4_diagonal_all_orders(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    d = rng.uniform(0.5, 2.0, size=n)
    kt = rng.random(n)
    ktt = rng.uniform(0.5, 1.5)
    alpha = float(rng.uniform(0.3, 2.0))
    G = np.diag(d)
    exact = ratio_exact_matrix(augment(G, kt, ktt), alpha)
    closed = closed_form_ratio_matrix(G, kt, ktt, alpha, "diagonal")
    table = build_ratio_table(GramMatrix.from_matrix(G), alpha, order=3)
    for k in (1, 2, 3):
        assert ratio_from_kt(at_order(table, k), kt, ktt) == pytest.approx(exact, rel=1e-10)
    assert closed == pytest.approx(exact, rel=1e-10)


@given(st.integers(0, 2**32 - 1))
def test_theorem4_block_constant(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 4, size=int(rng.integers(1, 4))).tolist()
    levels = rng.uniform(0.3, 1.5, size=len(sizes)).tolist()
    G = block_constant_matrix(sizes, levels)
    n = G.shape[0]
    kt = rng.random(n)
    ktt = rng.uniform(0.5, 1.5)
    alpha = float(rng.uniform(0.3, 2.0))
    exact = ratio_exact_matrix(augment(G, kt, ktt), alpha)
    table = build_ratio_table(GramMatrix.from_matrix(G), alpha, order=3)
    for k in (2, 3):
        assert ratio_from_kt(at_order(table, k), kt, ktt) == pytest.approx(exact, rel=1e-10)
    closed = closed_form_ratio_matrix(G, kt, ktt, alpha, "block_constant")
    assert closed == pytest.approx(exact, rel=1e-10)


def test_two_cycle_not_exact_off_diagonal_case(rng):
    # constant training block with a generic query: order 1 must disagree
    G = np.full((4, 4), 0.8)
    kt = rng.random(4)
    table = build_ratio_table(GramMatrix.from_matrix(G), 1.0, order=3)
    exact = ratio_exact_matrix(augment(G, kt, 1.0), 1.0)
    r1 = ratio_from_kt(at_order(table, 1), kt, 1.0)
    assert abs(r1 - exact) / exact > 1e-6


def test_closed_form_constant_n2_displayed_formula():
    # alpha K(t,t) + alpha sum |K(t,x_i)|^2 / (c (alpha+1))
    #              + 2 K(t,x1) K(t,x2) / (c (alpha+1))
    c, alpha = 0.9, 1.0
    kt = np.array([0.4, 0.7])
    ktt = 1.0
    G = np.full((2, 2), c)
    expected = (alpha * ktt
                + alpha * (kt[0]**2 + kt[1]**2) / (c * (alpha + 1))
                + 2 * kt[0] * kt[1] / (c * (alpha + 1)))
    got = closed_form_ratio_matrix(G, kt, ktt, alpha, "constant")
    assert got == pytest.approx(expected, rel=1e-14)
    assert got == pytest.approx(ratio_exact_matrix(augment(G, kt, ktt), alpha),
                                rel=1e-12)


def test_closed_form_two_blocks_vs_brute(rng):
    G = block_constant_matrix([2, 1], [0.7, 1.2])
    kt = rng.random(3)
    ktt = 0.9
    got = closed_form_ratio_matrix(G, kt, ktt, 1.4, "block_constant")
    assert got == pytest.approx(ratio_exact_matrix(augment(G, kt, ktt), 1.4),
                                rel=1e-11)


def test_closed_form_structure_validation(rng):
    G = sym_nonneg(rng, 3)
    with pytest.raises(ValueError, match="diagonal"):
        closed_form_ratio_matrix(G, np.ones(3), 1.0, 1.0, "diagonal")
    with pytest.raises(ValueError, match="constant"):
        closed_form_ratio_matrix(np.diag([1.0, 2.0]), np.ones(2), 1.0, 1.0,
                                 "constant")


def test_appendix_block_telescoping_identity(rng):
    # within a block of size >= 3, the four-cycle tail collapses:
    #   sum_{j != i} K(t,xi) c K(xj,t) / (c a)
    #     = sum_{j != i} (1 / R1_l2o[i,j]) { K(t,xi) c K(xj,t)
    #         + sum_{m != i,j} K(t,xi) c c K(xm,t) / (c a) }
    c, alpha, size = 0.8, 0.9, 4
    G = block_constant_matrix([size], [c])
    kt = rng.random(size)
    r1_l2o = _leave_two_out(GramMatrix.from_matrix(G), alpha)
    i = 1
    lhs = sum(kt[i] * c * kt[j] / (c * alpha) for j in range(size) if j != i)
    rhs = 0.0
    for j in range(size):
        if j == i:
            continue
        tail = sum(kt[i] * c * c * kt[m] / (c * alpha)
                   for m in range(size) if m not in (i, j))
        rhs += (kt[i] * c * kt[j] + tail) / r1_l2o[i, j]
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_fast_path_matches_generic_recursion(rng):
    M = sym_nonneg(rng, 8)
    kt = rng.random(8)
    ktt, alpha = 1.1, 0.7
    table = build_ratio_table(GramMatrix.from_matrix(M), alpha, order=3)
    Gl, dl = M.tolist(), M.diagonal().tolist()
    r1, r12, r2 = generic_tables(Gl, dl, alpha, 3)
    for k in (0, 1, 2, 3):
        fast = ratio_from_kt(at_order(table, k), kt, ktt)
        slow = generic_ratio(ktt, kt.tolist(), Gl, dl, alpha, k, r1, r12, r2)
        assert fast == pytest.approx(slow, rel=1e-12)


def test_ratio_approx_kernel_route(rng):
    kern = Kernel.gaussian(1.0)
    pts = rng.normal(size=(6, 2))
    t = rng.normal(size=2)
    g = gram(kern, pts)
    table = build_ratio_table(g, 1.0, order=3)
    kt = kernel_column(kern, t, pts)
    for k in (0, 1, 2, 3):
        table_k = at_order(table, k)
        assert ratio_approx(t, table_k) == pytest.approx(
            ratio_from_kt(table_k, kt, 1.0) if k else 1.0, rel=1e-12)


def test_ratio_nonnegative_on_kernels(rng):
    kern = Kernel.exponential(0.6)
    pts = rng.normal(size=(12, 2))
    g = gram(kern, pts)
    tables = [build_ratio_table(g, 0.8, order=k) for k in (0, 1, 2, 3)]
    for _ in range(20):
        t = rng.normal(size=2) * 2
        for table in tables:
            assert ratio_approx(t, table) > 0


def test_penta_diagonal_near_exactness(rng):
    errs2, errs3 = [], []
    for _ in range(40):
        n = int(rng.integers(5, 11))
        A = banded_gram(rng, n)
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        exact = ratio_exact_matrix(A, alpha)
        table = build_ratio_table(GramMatrix.from_matrix(A[:n-1, :n-1]),
                                  alpha, order=3)
        kt, ktt = A[n-1, :n-1], A[n-1, n-1]
        errs2.append(abs(ratio_from_kt(at_order(table, 2), kt, ktt) - exact) / abs(exact))
        errs3.append(abs(ratio_from_kt(table, kt, ktt) - exact) / abs(exact))
    assert max(errs2) <= 1e-2
    assert max(errs3) <= 1e-3


def test_per_alpha_cyclic_telescoping(rng):
    # at order n the telescoped product recovers the exact permanent
    A = sym_nonneg(rng, 4)
    assert per_alpha_cyclic(A, 1.3, order=3) == pytest.approx(
        per_alpha_exact(A, 1.3), rel=1e-10)
    A8 = banded_gram(rng, 8)
    approx = per_alpha_cyclic(A8, 1.0, order=3)
    exact = per_alpha_exact(A8, 1.0)
    assert approx == pytest.approx(exact, rel=1e-3)


# -- batched queries -----------------------------------------------------


def _sparse_block(rng, q, n, zero_frac=0.3):
    Kt = rng.random((q, n))
    Kt[rng.random((q, n)) < zero_frac] = 0.0
    return Kt


def _assert_batch_matches_reference(M, Kt, ktt, alpha):
    for k in (0, 1, 2, 3):
        table = build_ratio_table(GramMatrix.from_matrix(M), alpha, order=k)
        batch = table.rows(Kt, ktt)
        ref = np.array([ratio_from_kt(table, kt, t) for kt, t in zip(Kt, ktt)])
        np.testing.assert_allclose(batch, ref, rtol=1e-12, atol=0.0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 6),
       st.sampled_from([0.1, 0.7, 1.0, 2.5]))
def test_batch_matches_reference_random(seed, n, q, alpha):
    rng = np.random.default_rng(seed)
    M = sym_nonneg(rng, n)
    _assert_batch_matches_reference(M, _sparse_block(rng, q, n),
                                    rng.uniform(0.5, 1.5, size=q), alpha)


def test_batch_matches_reference_structured(rng):
    grams = (sym_nonneg(rng, 15),
             np.diag(rng.uniform(0.5, 2.0, size=9)),
             np.full((8, 8), 0.7),
             block_constant_matrix([3, 1, 4], [0.6, 1.3, 0.9]),
             banded_gram(rng, 25))
    for M in grams:
        n = M.shape[0]
        for q in (1, 40):
            for alpha in (0.3, 1.0, 2.0):
                _assert_batch_matches_reference(M, _sparse_block(rng, q, n),
                                                rng.uniform(0.5, 1.5, size=q),
                                                alpha)


def test_batch_shape_and_table_checks(rng):
    table = build_ratio_table(GramMatrix.from_matrix(sym_nonneg(rng, 4)), 1.0,
                              order=1)
    with pytest.raises(ValueError, match="4 columns"):
        table.rows(np.ones((2, 3)), np.ones(2))
    empty = build_ratio_table(GramMatrix.from_matrix(np.zeros((0, 0))), 2.0, order=3)
    assert np.array_equal(empty.rows(np.zeros((3, 0)), np.ones(3)),
                          np.full(3, 2.0))


def test_batch_negative_values_one_warning(caplog):
    import logging
    G = np.array([[1.0, 0.9], [0.9, 1.0]])
    table = build_ratio_table(GramMatrix.from_matrix(G), 0.5, order=2)
    Kt = np.tile([1.0, -1.0], (200, 1))
    with caplog.at_level(logging.WARNING, logger="permclass.cyclic"):
        values = table.rows(Kt, np.full(200, 0.1))
    assert (values < 0.0).all()
    records = [r for r in caplog.records if r.name == "permclass.cyclic"]
    assert len(records) == 1
    assert "200 of 200 order-2" in records[0].getMessage()


# -- small-mass limits ---------------------------------------------------


def test_cyclic_limit_constant_kernel():
    n, c = 5, 0.7
    g = GramMatrix.from_matrix(np.full((n, n), c))
    for k in (1, 2, 3):
        assert cyclic_ratio_from_kt(g, np.full(n, c), c, k) == pytest.approx(
            c * n, abs=1e-12)
    assert cyclic_ratio_from_kt(g, np.full(n, c), c, 0) == 0.0


def test_cyclic_limit_diagonal_kernel(rng):
    # distinct points under a diagonal kernel: every order limits to 0
    g = GramMatrix.from_matrix(np.diag(rng.uniform(0.5, 2.0, size=4)))
    for k in (0, 1, 2, 3):
        assert cyclic_ratio_from_kt(g, np.zeros(4), 2.0, k) == 0.0


def test_cyclic_limit_two_cycle_formula(rng):
    M = sym_nonneg(rng, 6)
    kt = rng.random(6)
    expect = float((kt * kt / M.diagonal()).sum())
    got = cyclic_ratio_from_kt(GramMatrix.from_matrix(M), kt, 1.0, 1)
    assert got == pytest.approx(expect, rel=1e-12)


def test_cyclic_limit_exact_at_full_order(rng):
    from permclass.exact import cyp_exact
    M = sym_nonneg(rng, 4)
    exact = cyp_exact(M) / cyp_exact(M[:3, :3])
    got = cyclic_ratio_from_kt(GramMatrix.from_matrix(M[:3, :3]),
                               M[3, :3], M[3, 3], 3)
    assert got == pytest.approx(exact, rel=1e-10)


# -- grown limit tables vs the scalar GradedValue recursion --------------


def _assert_limit_matches_scalar(M, kt, ktt=0.9):
    """Tables of orders 0-3 grown one point at a time: after every step each
    limit over the points so far matches the scalar reference to 1e-12
    relative (exact zeros exactly), or both sides raise, ours saying
    "diverges".  The full tables are the ones a fresh build makes."""
    tables = [LimitTable(k) for k in (0, 1, 2, 3)]
    for p in range(M.shape[0]):
        for table in tables:
            table.grow(M[p, :p], M[p, p])
        sub, q = M[:p + 1, :p + 1], kt[:p + 1]
        for table in tables:
            try:
                expect = cyclic_ratio_scalar(sub, q, ktt, table.order)
            except DegenerateConfigurationError:
                with pytest.raises(DegenerateConfigurationError, match="diverges"):
                    table.ratio(q, ktt)
                continue
            assert table.ratio(q, ktt) == pytest.approx(
                expect, rel=1e-12, abs=0.0), (p, table.order)
    g = GramMatrix.from_matrix(M)
    for table in tables:
        try:
            got = table.ratio(kt, ktt)
        except DegenerateConfigurationError:
            with pytest.raises(DegenerateConfigurationError):
                cyclic_ratio_from_kt(g, kt, ktt, table.order)
            continue
        assert cyclic_ratio_from_kt(g, kt, ktt, table.order) == got


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.floats(0.0, 0.9))
def test_limit_matches_scalar_recursion(seed, n, sparsity):
    rng = np.random.default_rng(seed)
    M = sym_nonneg(rng, n)
    drop = rng.random((n, n)) < sparsity
    M[drop | drop.T] = 0.0
    np.fill_diagonal(M, rng.uniform(0.5, 1.5, size=n))
    _assert_limit_matches_scalar(M, rng.random(n) * (rng.random(n) >= sparsity))


def test_limit_matches_scalar_structured(rng):
    n = 9
    pattern = rng.random((n, n)) < 0.3
    zero_one = (pattern | pattern.T).astype(float)
    np.fill_diagonal(zero_one, 1.0)
    # blocks whose members arrive interleaved, as in a partition
    mixed = rng.permutation(n)
    for M in (np.diag(rng.uniform(0.5, 2.0, size=n)),
              np.full((n, n), 0.7),
              block_constant_matrix([4, 1, 4], [0.6, 1.3, 0.9]),
              block_constant_matrix([3, 2, 4], [1.0, 0.5, 1.0])[np.ix_(mixed, mixed)],
              zero_one,
              banded_gram(rng, n)):
        for kt in (rng.random(n), (rng.random(n) < 0.5).astype(float),
                   M[0], np.zeros(n)):
            _assert_limit_matches_scalar(M, kt)


def test_limit_sparse_case_needs_exact_exclusions():
    # one coupled pair among five points: summing over every index and then
    # subtracting the excluded terms, as the finite-alpha tables do, leaves
    # rounding residue where the exact sum is 0, which the series would
    # read as a leading term
    M = np.diag([1.9, 2.3, 1.1, 1.9, 1.9])
    M[1, 4] = M[4, 1] = 0.975
    off = ~np.eye(5, dtype=bool)
    residue = ((M / M.diagonal()) @ M - 2.0 * M)[off]
    assert np.count_nonzero(residue)
    kt = np.array([0.5, 0.5, 0.0, 0.0, 0.25])
    _assert_limit_matches_scalar(M, kt, 1.0)
    got = cyclic_ratio_from_kt(GramMatrix.from_matrix(M), kt, 1.0, 3)
    assert got == pytest.approx(0.38798920377867, rel=1e-12)
    # a coupled pair, the query touching one of them: no cycle through t
    # returns, so the limit is exactly 0, while the dense product minus the
    # k = i terms leaves rounding residue (3e-17 here)
    pair = np.array([[1.0, 0.7], [0.7, 1.9]])
    kt = np.array([0.3, 0.0])
    _assert_limit_matches_scalar(pair, kt, 1.0)
    assert cyclic_ratio_from_kt(GramMatrix.from_matrix(pair), kt, 1.0, 3) == 0.0


def test_limit_degenerate_path_raises_like_scalar():
    # x_0 - x_1 - x_2 in a path, the query touching both ends: the four-cycle
    # t -> x_0 -> x_1 -> x_2 -> t outweighs every term of x_0's denominator
    M = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
    kt = np.array([1.0, 0.0, 1.0])
    with pytest.raises(DegenerateConfigurationError):
        cyclic_ratio_scalar(M, kt, 1.0, 3)
    with pytest.raises(DegenerateConfigurationError, match="diverges"):
        cyclic_ratio_from_kt(GramMatrix.from_matrix(M), kt, 1.0, 3)
    _assert_limit_matches_scalar(M, kt, 1.0)


def test_limit_table_serves_many_queries(rng):
    M = sym_nonneg(rng, 7)
    g = GramMatrix.from_matrix(M)
    for k in (0, 1, 2, 3):
        table = build_limit_table(g, k)
        for _ in range(3):
            kt = rng.random(7)
            assert table.ratio(kt, 1.0) == cyclic_ratio_from_kt(g, kt, 1.0, k)
    with pytest.raises(ValueError, match="length 7"):
        table.ratio(np.ones(6), 1.0)


def test_limit_query_far_from_all_but_one_point():
    # a gaussian query next to x_0 and far from the rest: the k = i terms
    # are almost all of t0 (off w) at x_0, and taking them out by
    # subtraction alone would lose about half the significant digits
    pts = np.array([[0.0, 0.0], [2.0, 0.3], [2.2, 1.9], [0.4, 2.5]])
    kern = Kernel.gaussian(0.7)
    g = gram(kern, pts)
    kt = kernel_column(kern, np.array([0.05, -0.02]), pts)
    assert kt.max() / np.sort(kt)[-2] > 1e3
    for k in (2, 3):
        assert cyclic_ratio_from_kt(g, kt, 1.0, k) == pytest.approx(
            cyclic_ratio_scalar(g.entries, kt, 1.0, k), rel=1e-12, abs=0.0)


def test_limit_table_grows_checked_rows():
    table = LimitTable(3)
    table.grow(np.zeros(0), 1.0)
    with pytest.raises(ValueError, match="negative Gram entry"):
        table.grow(np.array([-0.1]), 1.0)
    with pytest.raises(ValueError, match="strictly positive"):
        table.grow(np.array([0.1]), 0.0)
    with pytest.raises(ValueError, match=r"strictly positive; point index 1 has K\(x, x\) = -1.0"):
        table.grow(np.array([0.1]), -1.0)
    with pytest.raises(ValueError, match="length 1"):
        table.grow(np.zeros(2), 1.0)
    for kt, ktt in (([np.nan], 1.0), ([0.1], np.inf), ([0.1], np.nan)):
        with pytest.raises(ValueError, match="non-finite Gram entry"):
            table.grow(np.array(kt), ktt)
    assert table.n == 1


def _limit_state(table):
    arrays = [table.d, table.s, table.s_terms, table.delta, table.r0, table.flat,
              *table.lone, table.off, table.s2, table.inner, table.t0]
    return (table.n, table.unit), [a.copy() for a in arrays]


def _assert_same_state(a, b):
    assert a[0] == b[0]
    for x, y in zip(a[1], b[1], strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_limit_table_refused_growth_changes_nothing(rng, order):
    # the 1-d fields live in buffers as the square ones do, so a refusal
    # must come before the first write; 8 points fill the first buffers,
    # so the refused ninth point would also have grown them.  Over a
    # diagonal of ones the table is unit, and a refused non-unit K(x, x)
    # must leave it so
    M = sym_nonneg(rng, 9)
    ones = M.copy()
    np.fill_diagonal(ones, 1.0)
    for M in (M, ones):
        table, twin = LimitTable(order), LimitTable(order)
        for p in range(8):
            table.grow(M[p, :p], M[p, p])
            twin.grow(M[p, :p], M[p, p])
        before = _limit_state(table)
        assert table.unit == (M is ones)
        row = M[8, :8]
        for kt, ktt in ((np.append(row[:-1], -0.1), 1.0), (np.append(row[:-1], np.nan), 1.0),
                        (row[:-1], 1.0), (np.append(row, 0.1), 1.0), (np.append(row, 0.1), 2.0),
                        (row, 0.0), (row, -1.0), (row, np.nan), (row, np.inf)):
            with pytest.raises(ValueError):
                table.grow(kt, ktt)
            _assert_same_state(_limit_state(table), before)
        # and the next point grows it as if nothing had been refused
        table.grow(row, M[8, 8])
        twin.grow(row, M[8, 8])
        _assert_same_state(_limit_state(table), _limit_state(twin))


def _limit_ratios(table, queries):
    """The table's ratio of each query over its points, as hex strings, or
    the error it raises."""
    out = []
    for kt in queries:
        try:
            out.append(table.ratio(kt[:table.n], 0.9).hex())
        except DegenerateConfigurationError:
            out.append("diverges")
    return out


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_limit_table_unit_diagonal_has_the_dividing_bits(rng, order):
    # a table whose every K(x, x) is exactly 1.0 skips its divisions by the
    # diagonal in `grow` and `ratio`; after every growth its fields and
    # ratios equal, bit for bit, those of a twin grown from the same rows
    # and made to divide.  Gaussian and exponential points, spread enough
    # that some kernel values underflow to 0 (lone and flat lanes), and a
    # diagonal of ones whose one entry of 2.5 arrives first, midway or last
    pts = rng.uniform(0.0, 4.0, size=(18, 2))
    queries = rng.uniform(0.0, 4.0, size=(4, 2))
    grams = {}
    for kernel in (Kernel.gaussian(0.3), Kernel.gaussian(1.5), Kernel.exponential(0.1),
                   Kernel.exponential(1.0)):
        grams[f"{kernel.family.value}-{kernel.tau}"] = (
            gram(kernel, pts).entries, [kernel_column(kernel, t, pts) for t in queries])
    G, cols = grams["gaussian-1.5"]
    for at in (0, 9, 17):
        M = G.copy()
        M[at, at] = 2.5
        grams[f"one-non-unit-at-{at}"] = M, cols
    for name, (M, cols) in grams.items():
        table, dividing = LimitTable(order), LimitTable(order)
        for p in range(M.shape[0]):
            table.grow(M[p, :p], M[p, p])
            dividing.unit = False
            dividing.grow(M[p, :p], M[p, p])
            assert table.unit == bool((M.diagonal()[:p + 1] == 1.0).all()), (name, p)
            assert not dividing.unit
            _assert_same_state((p, _limit_state(table)[1]), (p, _limit_state(dividing)[1]))
            kts = [*cols, np.zeros(18), M[p]]
            assert _limit_ratios(table, kts) == _limit_ratios(dividing, kts), (name, p)


def test_limit_table_chain_takes_then_skips_lone_lanes():
    # 15 points on a line, each reaching the points within distance 3: the
    # three pairs that arrive first each have one neighbour, so lone lanes
    # exist; from the ninth point on every point has at least two and the
    # lone-lane fix-up is skipped.  The ratios match the scalar series after
    # every growth, across the buffer sizes 8 -> 10 -> 12 -> 15
    x = np.arange(15.0)
    arrival = [0, 1, 6, 7, 12, 13, 14, 3, 9, 2, 4, 5, 8, 10, 11]
    M = np.clip(1.0 - np.abs(x[:, None] - x) / 3.5, 0.0, None)[np.ix_(arrival, arrival)]
    queries = [np.clip(1.0 - np.abs(x[arrival] - t) / 3.5, 0.0, None)
               for t in (0.5, 6.4, 12.9)]
    table = LimitTable(3)
    fixes, lone, rooms = [], [], []
    for p in range(15):
        table.grow(M[p, :p], M[p, p])
        fixes.append(bool((table.s_terms <= 1).any()))
        lone.append(table.lone[0].size)
        rooms.append(table._room)
        for kt in queries:
            q = kt[:p + 1]
            try:
                expect = cyclic_ratio_scalar(M[:p + 1, :p + 1], q, 0.9, 3)
            except DegenerateConfigurationError:
                with pytest.raises(DegenerateConfigurationError, match="diverges"):
                    table.ratio(q, 0.9)
                continue
            assert table.ratio(q, 0.9) == pytest.approx(expect, rel=1e-12, abs=0.0), p
    assert fixes == [True] * 8 + [False] * 7
    assert max(lone[:8]) > 0 and max(lone[8:]) == 0
    assert rooms == [8] * 8 + [10] * 2 + [12] * 2 + [15] * 3


def cyclic_ratio_smallalpha(g: GramMatrix, kt, ktt: float, order: int,
                            eps: float = 1e-6) -> float:
    """Numeric cross-check of the limit: Richardson step from eps to eps/10.

    Breaks down on degenerate configurations (that is what the series
    arithmetic is for).
    """
    vals = []
    for a in (eps, eps / 10.0):
        table = build_ratio_table(g, a, order=order)
        vals.append(ratio_from_kt(table, kt, ktt))
    return (10.0 * vals[1] - vals[0]) / 9.0


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
def test_cyclic_limit_matches_smallalpha(seed, k):
    rng = np.random.default_rng(seed)
    M = sym_nonneg(rng, 6)
    kt = rng.random(6)
    g = GramMatrix.from_matrix(M)
    graded = cyclic_ratio_from_kt(g, kt, 0.9, k)
    numeric = cyclic_ratio_smallalpha(g, kt, 0.9, k)
    assert graded == pytest.approx(numeric, rel=1e-4)


def test_cyclic_empty_context_raises():
    g = GramMatrix.from_matrix(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="empty"):
        cyclic_ratio_from_kt(g, np.zeros(0), 1.0, 1)


def test_negative_values_surfaced_and_logged(caplog):
    import logging
    # signed query columns (a non-kernel matrix route) can push the
    # three-cycle terms negative; the value must come back unclamped
    G = np.array([[1.0, 0.9], [0.9, 1.0]])
    kt = np.array([1.0, -1.0])
    table = build_ratio_table(GramMatrix.from_matrix(G), 0.5, order=2)
    with caplog.at_level(logging.WARNING, logger="permclass.cyclic"):
        value = ratio_from_kt(table, kt, 0.1)
    assert value < 0.0
    assert any("negative" in rec.message for rec in caplog.records)


def test_projection_normalization_general_matrix(rng):
    # the unit-total identity sum_t R^(k)(t; x) = n + alpha * rank needs
    # only symmetry and idempotence, so it holds for projections with
    # negative entries too (matrix-level route)
    Q, _ = np.linalg.qr(rng.normal(size=(8, 3)))
    P = Q @ Q.T
    P = 0.5 * (P + P.T)
    train = [0, 2, 4, 5, 7]
    n, nu = len(train), 3
    sub = P[np.ix_(train, train)]
    for alpha in (0.5, 1.3):
        table = build_ratio_table(GramMatrix.from_matrix(sub), alpha, order=3)
        for k in (1, 2, 3):
            table_k = at_order(table, k)
            total = sum(ratio_from_kt(table_k, P[t, train], P[t, t])
                        for t in range(8))
            assert total / (n + alpha * nu) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_fit_core_refuses_non_finite_gram(order):
    def raw(entries):
        return GramMatrix(entries=np.array(entries), points=np.zeros((2, 1)))

    # a NaN point gives NaN kernel values, which pass a `<= 0` diagonal test
    g = gram(Kernel.gaussian(1.0), [[np.nan], [0.0]])
    with pytest.raises(ValueError, match=r"strictly positive and finite; .* = nan"):
        build_ratio_table(g, 1.0, order)
    with pytest.raises(ValueError, match=r"strictly positive and finite; .* = inf"):
        build_ratio_table(raw([[np.inf, 0.5], [0.5, 1.0]]), 1.0, order)
    with pytest.raises(ValueError, match=r"gram matrix row 0, column 1 is not finite \(nan\)"):
        build_ratio_table(raw([[1.0, np.nan], [np.nan, 1.0]]), 1.0, order)
    with pytest.raises(ValueError, match=r"gram matrix row 0, column 1 is not finite \(-inf\)"):
        build_ratio_table(raw([[1.0, -np.inf], [-np.inf, 1.0]]), 1.0, order)


def _one_shot_core(G, order):
    """The one-pass formulas over one Gram matrix or a stack: the core's
    row sums of Qoff = G * G / d with a zero diagonal (None at orders 0 and
    1) and, at order 3, its g_inner, and the alpha = 1 table's dg and
    T^T = G / l2o with a zero diagonal, l2o[m, i] being r1_loo[m] less
    Qoff[m, i]."""
    if order < 2:
        return {"q_sum": None}
    d = np.diagonal(G, axis1=-2, axis2=-1)[..., None, :]
    diag = (..., *np.diag_indices(G.shape[-1]))
    qoff = G * G
    qoff /= d
    qoff[diag] = 0.0
    q_sum = qoff.sum(axis=-1)
    if order == 2:
        return {"q_sum": q_sum}
    inner = (G / d) @ G
    inner -= 2.0 * G
    dg = G / np.swapaxes(d, -1, -2)
    dg[diag] = 0.0
    l2o = (d[..., 0, :] + q_sum)[..., :, None] - qoff
    l2o[diag] = 1.0
    Tt = G / l2o
    Tt[diag] = 0.0
    return {"q_sum": q_sum, "g_inner": G * inner, "dg": dg, "Tt": Tt}


def _assert_one_shot_bits(g, orders):
    for order in orders:
        core = _fit_core(g, order)
        # alpha = 1 as a one-candidate array, over a stack of K kernels 1 x K
        table = core.finish(np.ones((1, *g.entries.shape[:-2])))
        got = {"q_sum": core.q_sum, "g_inner": core.g_inner, "dg": table._dg,
               "Tt": None if order < 3 else np.swapaxes(table._t3, -1, -2)[0]}
        for name, want in _one_shot_core(g.entries, order).items():
            assert (got[name] is None and want is None) or np.array_equal(got[name], want), \
                (order, name)


@pytest.mark.parametrize("block_entries", [kernels._BLOCK_ENTRIES, 40])
def test_blocked_q_sum_has_the_one_shot_bits(rng, monkeypatch, block_entries):
    # orders 2 and 3 sum Qoff's rows a block at a time through one scratch
    # (orders 0 and 1 make no Qoff):
    # the core's fields and the arrays an order-3 finish makes from G and d
    # equal the one-pass formulas, over one Gram matrix and stacks of 1-10
    # kernels, with sizes on either side of a whole block (and 1000 points,
    # crossing many)
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block_entries)
    edge = math.isqrt(block_entries)
    taus = np.geomspace(0.05, 20.0, 5)
    kernels_ = [Kernel(family, tau=tau) for tau in taus for family in ("gaussian", "exponential")]
    for n in (1, 2, edge - 1, edge + 1, 1000):
        for dim in (1, 2, 9, 50):
            pts = rng.normal(size=(n, dim))
            sq = kernels._sq_distances(pts)
            _assert_one_shot_bits(gram(kernels_[0], pts), (0, 2) if n == 1000 else (0, 2, 3))
            for k in (1, 2) if n == 1000 else range(1, 11):
                stack = GramMatrix(kernels._kernel_stack(kernels_[:k], pts, pts, sq), pts)
                _assert_one_shot_bits(stack, (2,) if n == 1000 else (2, 3))
    for n in (1, 2, edge - 1, edge + 1, 30):
        pts = np.arange(float(n))[:, None]
        _assert_one_shot_bits(gram(projection_kernel(pts, sym_nonneg(rng, n)), pts), (1, 3))


def _unit_and_other_diagonals(rng, pts):
    """Named Gram matrices and stacks over ``pts`` whose diagonals are
    exact ones, another constant, or a mix: the distance kernels',
    constant kernels', projections' and a raw matrix one ulp off the unit
    diagonal in one entry."""
    n = pts.shape[0]
    distance = [Kernel.gaussian(0.7), Kernel.exponential(1.3)]
    unit_projection = sym_nonneg(rng, n, 1.0, 1.0)
    nearly_unit = sym_nonneg(rng, n, 1.0, 1.0)
    nearly_unit[n // 2, n // 2] = np.nextafter(1.0, 2.0)
    index = np.arange(float(n))[:, None]
    sq = kernels._sq_distances(pts)
    grams = {
        "gaussian": gram(distance[0], pts),
        "exponential": gram(distance[1], pts),
        "constant-1": gram(Kernel.constant(1.0), pts),
        "constant-2.5": gram(Kernel.constant(2.5), pts),
        "unit-projection": gram(projection_kernel(index, unit_projection), index),
        "projection": gram(projection_kernel(index, sym_nonneg(rng, n)), index),
        "nearly-unit": GramMatrix.from_matrix(nearly_unit),
    }
    for name, ks in (("distance-stack", distance),
                     ("mixed-stack", [distance[0], Kernel.constant(2.5), distance[1]]),
                     ("constant-stack", [Kernel.constant(2.5), Kernel.constant(1.0)])):
        grams[name] = GramMatrix(kernels._kernel_stack(ks, pts, pts, sq), pts)
    return grams


@pytest.mark.parametrize("block_entries", [kernels._BLOCK_ENTRIES, 40])
def test_unit_diagonal_core_has_the_dividing_bits(rng, monkeypatch, block_entries):
    # the two-cycle pass and an order-3 finish skip their division by a
    # diagonal of exact ones: the core's fields and its tables, for one
    # alpha and for several, equal the one-pass formulas and the tables of
    # a core that divides, as they do on every other diagonal
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block_entries)
    pts = rng.normal(size=(23, 2))
    unit = {"gaussian", "exponential", "constant-1", "unit-projection", "distance-stack"}
    for name, g in _unit_and_other_diagonals(rng, pts).items():
        stacked = g.entries.ndim == 3
        # over a stack of K kernels, K + 1 candidates each, no two alphas equal
        k = g.entries.shape[0]
        alphas = (0.7, np.array([0.3, 1.0, 4.5])) if not stacked else (
            np.linspace(0.3, 4.5, (k + 1) * k).reshape(k + 1, k),)
        d = np.diagonal(g.entries, axis1=-2, axis2=-1).copy()
        for order in (0, 1, 2, 3):
            _assert_one_shot_bits(g, (order,))
            core = _fit_core(g, order)
            assert core.unit == (name in unit), name
            want = _one_shot_core(g.entries, order)
            reference = _FitCore(g, order, d, want["q_sum"], False, want.get("g_inner"))
            for alpha in alphas:
                got, ref = core.finish(alpha), reference.finish(alpha)
                for field in ("r1_loo", "r2_loo", "_t3", "_s3", "_dg"):
                    assert np.array_equal(getattr(got, field), getattr(ref, field)), \
                        (name, order, field)
                if order == 3:
                    # g_inner and dg equal the formulas that divide by d
                    G, diag = g.entries, (..., *np.diag_indices(g.n))
                    inner = (G / d[..., None, :]) @ G
                    inner -= 2.0 * G
                    inner *= G
                    assert np.array_equal(core.g_inner, inner), name
                    dg = G / d[..., :, None]
                    dg[diag] = 0.0
                    assert np.array_equal(got._dg, dg), name


def test_a_finite_gram_at_orders_0_and_1_is_not_scanned(rng, monkeypatch):
    # orders 0 and 1 test the Gram matrix for a non-finite entry by its sum
    # and scan it entry by entry only to name one: a finite Gram matrix or
    # stack makes no scan, and one whose finite entries sum past the float
    # range is scanned and passes
    calls = []
    check = cyclic._check_finite

    def spy(m, what):
        calls.append(what)
        check(m, what)

    monkeypatch.setattr(cyclic, "_check_finite", spy)
    pts = rng.normal(size=(30, 2))
    for g in _unit_and_other_diagonals(rng, pts).values():
        for order in (0, 1):
            _fit_core(g, order)
    assert calls == []
    for order in (0, 1):
        _fit_core(GramMatrix.from_matrix(np.full((3, 3), 1e308)), order)
    assert calls == ["gram matrix"] * 2


def test_rows_give_every_block_layout_the_bits_of_a_contiguous_copy(rng):
    # at orders 1 and 2 `rows` divides each query block by the Gram
    # diagonal, a diagonal of exact ones included; its results for
    # C-ordered blocks, row slices of a stack, a transposed block and a
    # block of every other column equal, bit for bit, those for a
    # C-contiguous copy of the same block, one alpha and several
    pts, queries = rng.normal(size=(23, 2)), rng.normal(size=(40, 2))
    gaussian, constant = Kernel.gaussian(0.7), Kernel.constant(2.5)
    sq = kernels._sq_distances(queries, pts)
    cases = {"gaussian": (gram(gaussian, pts), kernel_block(gaussian, queries, pts)),
             "constant-2.5": (gram(constant, pts), kernel_block(constant, queries, pts))}
    mixed = [gaussian, constant, Kernel.exponential(1.3)]
    stack = GramMatrix(kernels._kernel_stack(mixed, pts, pts, kernels._sq_distances(pts)), pts)
    cases["mixed-stack"] = (stack, kernels._kernel_stack(mixed, queries, pts, sq))
    for name, (g, block) in cases.items():
        stacked = g.entries.ndim == 3
        ktt = np.ones(block.shape[:-1])
        wide = np.repeat(block, 2, axis=-1)
        layouts = [block, block[..., 5:17, :], wide[..., ::2]]
        if not stacked:
            layouts.append(np.asfortranarray(block))
        # over the stack of 3 kernels, 2 candidates each
        alphas = ((np.array([[0.3, 1.0, 4.5], [1.0, 0.3, 2.0]]),) if stacked
                  else (0.7, np.array([0.3, 1.0, 4.5])))
        for order in (1, 2):
            core = _fit_core(g, order)
            assert core.unit == (name == "gaussian"), name
            for alpha in alphas:
                table = core.finish(alpha)
                for Kt in layouts:
                    rows = Kt.shape[-2]
                    assert np.array_equal(table.rows(Kt, ktt[..., :rows]),
                                          table.rows(np.ascontiguousarray(Kt),
                                                     ktt[..., :rows])), (name, order)


@pytest.mark.parametrize("order, n_squares", [(2, 0), (3, 1)])
def test_fit_core_makes_no_square_array_it_does_not_keep(rng, order, n_squares):
    # below order 3 the core and its finish make no n x n array; an order-3
    # core keeps only g_inner, the one O(n^3) product, made beside one
    # n x n temporary at a time (G / d, then 2 G), and its finish holds at
    # most two more at once (Qoff and l2o, l2o and T^T, then T^T and dg):
    # a fit peaks at the Gram matrix plus three arrays
    n = 600
    square = 8 * n * n
    g = gram(Kernel.gaussian(1.0), rng.normal(size=(n, 2)))
    tracemalloc.start()
    try:
        core = _fit_core(g, order)
        kept, core_peak = tracemalloc.get_traced_memory()
        core.finish(1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept <= (n_squares + 0.25) * square
    assert core_peak <= (2 * n_squares + 0.25) * square
    assert peak <= (3 * n_squares + 0.25) * square


def _table(order=2):
    return build_ratio_table(gram(Kernel.gaussian(1.0), np.arange(3.0)[:, None]), 1.0, order=order)


@pytest.mark.parametrize("call, message", [
    (lambda: ratio_from_kt(_table(), np.ones(2), 1.0),
     r"kernel column must have length 3, got \(2,\)"),
    (lambda: ratio_approx([0.5],
                          build_ratio_table(GramMatrix.from_matrix(np.eye(2)), 1.0, order=2)),
     "table was built from a raw matrix; use ratio_from_kt"),
    (lambda: ratio_approx_matrix([], 1.0, order=2),
     "ratio needs at least the added point on the diagonal"),
    (lambda: LimitTable(4), "order must be in 0..3, got 4"),
], ids=["column-length", "raw-matrix-table", "empty-matrix",
        "limit-table-order"])
def test_cyclic_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=message):
        call()
