import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (ALPHA, GradedValue, augment, banded_gram,
                      block_constant_matrix, build_limit_table,
                      closed_form_ratio_matrix, cyclic_ratio_from_kt,
                      cyclic_ratio_scalar, generic_ratio, generic_tables,
                      ratio_table_one_shot, sym_nonneg)
from permclass.cyclic import (DegenerateConfigurationError, LimitTable,
                              build_ratio_table, per_alpha_cyclic, ratio_approx,
                              ratio_approx_matrix, ratio_from_kt)
from permclass.cyclic import _fit_core
from permclass.exact import per_alpha_exact, ratio_exact_matrix
from permclass.kernels import GramMatrix, Kernel, gram, kernel_column


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
    ``alpha`` and no table keeps."""
    core = _fit_core(g, 3)
    return core._leave_two_out(core.finish(alpha).r1_loo)


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
    table = build_ratio_table(g, 1.1, order=1)
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


def test_insufficient_table_order(rng):
    g = GramMatrix.from_matrix(sym_nonneg(rng, 4))
    table = build_ratio_table(g, 1.0, order=1)
    with pytest.raises(ValueError, match="order"):
        ratio_from_kt(table, np.ones(4), 1.0, order=3)
    # one order above the built one is allowed
    ratio_from_kt(table, np.ones(4), 1.0, order=2)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_table_builds_only_what_its_order_reads(rng, order):
    for n in (0, 5):
        table = build_ratio_table(GramMatrix.from_matrix(sym_nonneg(rng, n)), 0.9,
                                  order=order)
        assert table.r1_loo.shape == (n,)
        order_3_only = (table.r2_loo, table._t3, table._s3)
        assert [t is not None for t in order_3_only] == [order == 3] * 3


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
        before = [None if v is None else v.copy()
                  for v in (core.d, core.q_sum, core.qoff, core.g_inner)]
        for alpha in (2.0, 0.25, 1.0, 0.1 + 0.2, 2.0):
            got = core.finish(alpha)
            fresh = build_ratio_table(g, alpha, order=order)
            one_pass = ratio_table_one_shot(M, alpha, order)
            r1_loo, r1_l2o, r2_loo, t3 = one_pass
            for a, b, c, absent in zip((got.r1_loo, got.r2_loo, got._t3),
                                       (fresh.r1_loo, fresh.r2_loo, fresh._t3),
                                       (r1_loo, r2_loo, t3), [False] + [order < 3] * 2):
                if absent:
                    assert a is None and b is None and c is None
                else:
                    assert np.array_equal(a, b) and np.array_equal(a, c)
            if order == 3:
                assert np.array_equal(core._leave_two_out(got.r1_loo), r1_l2o)
            assert (got.alpha, got.order) == (fresh.alpha, fresh.order)
        after = (core.d, core.q_sum, core.qoff, core.g_inner)
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
                for name in ("r1_loo", "r2_loo", "_t3", "_s3"):
                    a, b = getattr(stacked, name), getattr(one, name)
                    assert (a is None and b is None) or np.array_equal(a[j], b)
                if order == 3:
                    assert np.array_equal(core._leave_two_out(stacked.r1_loo)[j],
                                          core._leave_two_out(one.r1_loo))
                assert np.array_equal(got[j], one.rows(Kt, ktt))


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_kernel_stacked_core_finish_and_rows_equal_each_kernels_tables(rng, order):
    # one core over a stack of K Gram matrices, one finish for a K x A array
    # of alphas (row k for kernel k) and one rows call over the stacked
    # blocks give, at [k, j], kernel k's own core, alpha j's own table and
    # its rows, bit for bit; so does a finish into a given buffer
    for n in (0, 1, 2, 9, 40):
        mats = [sym_nonneg(rng, n), np.diag(rng.uniform(0.5, 2.0, size=n)),
                np.full((n, n), 0.7), banded_gram(rng, n) if n > 2 else sym_nonneg(rng, n)]
        stack = GramMatrix(np.stack(mats), np.zeros((n, 1)))
        core = _fit_core(stack, order)
        alphas = np.array([[2.0, 0.5, 0.25], [1.0, 1.0, 0.1 + 0.2], [4.0, 0.5, 2.0],
                           [0.25, 3.0, 1.0]])
        Kt = np.stack([_sparse_block(rng, 30, n) for _ in mats])
        ktt = rng.uniform(0.5, 1.5, size=(len(mats), 30))
        stacked = core.finish(alphas)
        got = stacked.rows(Kt, ktt)
        assert got.shape == (len(mats), 3, 30)
        if order == 3:
            buffer = np.full((*alphas.shape, n, n), np.nan)
            into = core.finish(alphas, out=buffer)
            assert into._t3 is buffer and np.array_equal(into.rows(Kt, ktt), got)
        for k, M in enumerate(mats):
            own = _fit_core(GramMatrix.from_matrix(M), order)
            for name in ("d", "q_sum", "qoff", "g_inner"):
                a, b = getattr(core, name), getattr(own, name)
                assert (a is None and b is None) or np.array_equal(a[k], b)
            for j, alpha in enumerate(alphas[k]):
                one = own.finish(alpha)
                for name in ("r1_loo", "r2_loo", "_t3", "_s3"):
                    a, b = getattr(stacked, name), getattr(one, name)
                    assert (a is None and b is None) or np.array_equal(a[k, j], b)
                assert np.array_equal(got[k, j], one.rows(Kt[k], ktt[k]))


def test_stacked_core_refuses_a_bad_diagonal_naming_its_point():
    good = np.eye(3)
    bad = np.eye(3)
    bad[2, 2] = 0.0
    with pytest.raises(ValueError, match="point index 2 has K"):
        _fit_core(GramMatrix(np.stack([good, bad]), np.zeros((3, 1))), 2)
    with pytest.raises(ValueError, match="gram matrix row 1, column 0 is not finite"):
        _fit_core(GramMatrix(np.array([[1.0, 0.0], [np.inf, 1.0]]), np.zeros((2, 1))), 2)


def test_order_3_rows_match_the_nested_sums(rng):
    # rows forms the alpha-free product once and one product with T^T per
    # alpha; each alpha's row, alone or stacked, stays within 1e-13 of the
    # single-query nested sums
    alphas = np.array([0.25, 1.0, 0.1 + 0.2, 4.0])
    for M in _stacking_grams(rng):
        n = M.shape[0]
        core = _fit_core(GramMatrix.from_matrix(M), 3)
        Kt = _sparse_block(rng, 40, n)
        ktt = rng.uniform(0.5, 1.5, size=40)
        stacked = core.finish(alphas).rows(Kt, ktt)
        for j, alpha in enumerate(alphas):
            one = core.finish(alpha)
            ref = np.array([ratio_from_kt(one, kt, t) for kt, t in zip(Kt, ktt)])
            np.testing.assert_allclose(one.rows(Kt, ktt), ref, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(stacked[j], ref, rtol=1e-13, atol=0.0)


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


def test_order_3_query_needs_order_3_table(rng):
    table = build_ratio_table(GramMatrix.from_matrix(sym_nonneg(rng, 4)), 1.0,
                              order=2)
    with pytest.raises(ValueError, match="rebuild with order 3"):
        ratio_from_kt(table, np.ones(4), 1.0, order=3)


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
        assert ratio_from_kt(table, kt, ktt, k) == pytest.approx(exact, rel=1e-10)
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
        assert ratio_from_kt(table, kt, ktt, k) == pytest.approx(exact, rel=1e-10)
    closed = closed_form_ratio_matrix(G, kt, ktt, alpha, "block_constant")
    assert closed == pytest.approx(exact, rel=1e-10)


def test_two_cycle_not_exact_off_diagonal_case(rng):
    # constant training block with a generic query: order 1 must disagree
    G = np.full((4, 4), 0.8)
    kt = rng.random(4)
    table = build_ratio_table(GramMatrix.from_matrix(G), 1.0, order=3)
    exact = ratio_exact_matrix(augment(G, kt, 1.0), 1.0)
    r1 = ratio_from_kt(table, kt, 1.0, 1)
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
        fast = ratio_from_kt(table, kt, ktt, k)
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
        assert ratio_approx(t, pts, table, order=k) == pytest.approx(
            ratio_from_kt(table, kt, 1.0, k) if k else 1.0, rel=1e-12)


def test_ratio_nonnegative_on_kernels(rng):
    kern = Kernel.exponential(0.6)
    pts = rng.normal(size=(12, 2))
    g = gram(kern, pts)
    table = build_ratio_table(g, 0.8, order=3)
    for _ in range(20):
        t = rng.normal(size=2) * 2
        for k in (0, 1, 2, 3):
            assert ratio_approx(t, pts, table, order=k) > 0


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
        errs2.append(abs(ratio_from_kt(table, kt, ktt, 2) - exact) / abs(exact))
        errs3.append(abs(ratio_from_kt(table, kt, ktt, 3) - exact) / abs(exact))
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
        ref = np.array([ratio_from_kt(table, kt, t, k) for kt, t in zip(Kt, ktt)])
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


def cyclic_ratio_smallalpha(g: GramMatrix, kt, ktt: float, order: int,
                            eps: float = 1e-6) -> float:
    """Numeric cross-check of the limit: Richardson step from eps to eps/10.

    Breaks down on degenerate configurations (that is what the series
    arithmetic is for).
    """
    vals = []
    for a in (eps, eps / 10.0):
        table = build_ratio_table(g, a, order=order)
        vals.append(ratio_from_kt(table, kt, ktt, order))
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
    table = build_ratio_table(GramMatrix.from_matrix(G), 0.5, order=3)
    with caplog.at_level(logging.WARNING, logger="permclass.cyclic"):
        value = ratio_from_kt(table, kt, 0.1, 2)
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
            total = sum(ratio_from_kt(table, P[t, train], P[t, t], k)
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
