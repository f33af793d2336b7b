import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import permclass.exact as exact_mod
from conftest import (augment, banded_gram, block_constant_matrix, cyp_oracle,
                      elimination_det, perm_oracle, projection_kernel, sym_nonneg)
from permclass.classify import LabeledDataset, ModelParams, fit, predict_infinite
from permclass.exact import (EXACT_SIZE_CAP, ExactSizeLimitError, Partition,
                             cyclic_ratio_exact, cyp_exact, ewens_probability,
                             iter_set_partitions, label_probability_exact,
                             partition_probability_exact, per_alpha_exact,
                             ratio_exact, ratio_exact_matrix, rising_factorial)
from permclass.exact import _CypTable, _cyp_subsets, _grown, _PerTable
from permclass.kernels import GramMatrix, Kernel


# -- per_alpha ---------------------------------------------------------


def test_per_all_ones_alpha_one():
    # alpha (alpha+1) (alpha+2) at alpha=1 is 6
    assert per_alpha_exact(np.ones((3, 3)), 1.0) == pytest.approx(6.0, rel=1e-14)


def test_per_identity_any_alpha():
    for n in (1, 2, 5):
        for alpha in (0.3, 1.0, 2.5):
            assert per_alpha_exact(np.eye(n), alpha) == pytest.approx(
                alpha**n, rel=1e-14)


def test_per_empty_matrix_is_one():
    assert per_alpha_exact(np.zeros((0, 0)), 3.0) == 1.0


def test_per_det_identity_vs_elimination(rng):
    for n in (3, 4, 5):
        A = rng.normal(size=(n, n))
        det = elimination_det(A)
        assert per_alpha_exact(A, -1.0) == pytest.approx((-1.0)**n * det,
                                                         rel=1e-10)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6),
       st.sampled_from([-1.0, 0.25, 0.5, 1.0, 2.0]))
def test_per_matches_enumeration(seed, n, alpha):
    A = np.random.default_rng(seed).normal(size=(n, n))
    expect = perm_oracle(A, alpha)
    assert per_alpha_exact(A, alpha) == pytest.approx(expect, rel=1e-11, abs=1e-12)


def test_per_size_cap():
    with pytest.raises(ExactSizeLimitError, match="exact size limit"):
        per_alpha_exact(np.eye(EXACT_SIZE_CAP + 1), 1.0)


_CAP_KERNEL = Kernel.gaussian(1.0)
_AT_CAP = np.arange(float(EXACT_SIZE_CAP)).reshape(-1, 1)  # plus a query: one too many
_PAST_CAP = np.arange(EXACT_SIZE_CAP + 1.0).reshape(-1, 1)
_PAST_CAP_CALLS = {
    "per_alpha_exact": lambda: per_alpha_exact(np.eye(EXACT_SIZE_CAP + 1), 1.0),
    "cyp_exact": lambda: cyp_exact(np.eye(EXACT_SIZE_CAP + 1)),
    "ratio_exact": lambda: ratio_exact([-1.0], _AT_CAP, _CAP_KERNEL, 1.0),
    "ratio_exact_matrix": lambda: ratio_exact_matrix(np.eye(EXACT_SIZE_CAP + 1), 1.0),
    "cyclic_ratio_exact": lambda: cyclic_ratio_exact([-1.0], _AT_CAP, _CAP_KERNEL),
    "label_probability_exact": lambda: label_probability_exact(
        _PAST_CAP, np.zeros(EXACT_SIZE_CAP + 1, dtype=int), [1.0], _CAP_KERNEL),
    "partition_probability_exact": lambda: partition_probability_exact(
        _PAST_CAP, Partition.from_blocks([range(EXACT_SIZE_CAP + 1)]), 1.0, _CAP_KERNEL),
    "fit": lambda: fit(LabeledDataset(points=_AT_CAP, labels=np.zeros(EXACT_SIZE_CAP, dtype=int)),
                       ModelParams(kernel=_CAP_KERNEL, order="exact")),
    "predict_infinite": lambda: predict_infinite(
        _AT_CAP, Partition.from_blocks([range(EXACT_SIZE_CAP)]), [-1.0],
        ModelParams(kernel=_CAP_KERNEL, lam=1.0, order="exact")),
}


@pytest.mark.parametrize("entry", sorted(_PAST_CAP_CALLS))
def test_every_exact_entry_point_refuses_past_the_one_cap(entry):
    # one cap, EXACT_SIZE_CAP = 11, for every exact entry point: a 12-point
    # matrix, or 11 points and a query, is refused by size
    assert EXACT_SIZE_CAP == 11
    with pytest.raises(ExactSizeLimitError, match="n = 12 exceeds the cap of 11; "
                                                  "use a cyclic approximation"):
        _PAST_CAP_CALLS[entry]()


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_superposition_identity(seed, n):
    # per_{a+b}(A) equals the sum over subsets of per_a(A[S]) per_b(A[S^c])
    rng = np.random.default_rng(seed)
    A = sym_nonneg(rng, n)
    a, b = 0.7, 1.6
    total = 0.0
    idx = list(range(n))
    for r in range(n + 1):
        for S in itertools.combinations(idx, r):
            Sc = [i for i in idx if i not in S]
            total += (per_alpha_exact(A[np.ix_(S, S)], a)
                      * per_alpha_exact(A[np.ix_(Sc, Sc)], b))
    assert per_alpha_exact(A, a + b) == pytest.approx(total, rel=1e-10)


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_cyp_is_small_alpha_limit(seed, n):
    # |per_a / a - cyp| <= a * per_1(|A|) for nonnegative A
    rng = np.random.default_rng(seed)
    A = sym_nonneg(rng, n)
    cyp = cyp_exact(A)
    bound = per_alpha_exact(A, 1.0) * 1.01
    for a in (1e-4, 1e-5):
        err = abs(per_alpha_exact(A, a) / a - cyp)
        assert err <= a * bound


# -- cyp ---------------------------------------------------------------


def test_cyp_constant_four_cycles():
    # brute enumeration of the 6 four-cycles gives (4-1)! c^4
    c = 1.3
    A = np.full((4, 4), c)
    expect = cyp_oracle(A)
    assert expect == pytest.approx(6 * c**4, rel=1e-14)
    assert cyp_exact(A) == pytest.approx(expect, rel=1e-13)


def test_cyp_single_entry():
    assert cyp_exact(np.array([[2.5]])) == 2.5


def test_cyp_two_by_two():
    A = np.array([[1.0, 3.0], [5.0, 2.0]])
    assert cyp_exact(A) == pytest.approx(15.0, rel=1e-15)


def test_cyp_empty_raises():
    with pytest.raises(ValueError, match="empty"):
        cyp_exact(np.zeros((0, 0)))


def test_empty_matrix_is_only_the_square_one():
    assert per_alpha_exact(np.zeros((0, 0)), 0.7) == 1.0
    assert per_alpha_exact([], 0.7) == 1.0
    for shape in ((3, 0), (0, 5)):
        with pytest.raises(ValueError, match=rf"must be square, got shape \({shape[0]}, {shape[1]}\)"):
            per_alpha_exact(np.zeros(shape), 0.7)
        with pytest.raises(ValueError, match="must be square"):
            cyp_exact(np.zeros(shape))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cyp_direct_forms_match_subset_dp(n):
    # cyp_exact skips the subset DP for n <= 3; its value must be the DP's
    # to the last bit, including the fused final dot at n = 3
    rng = np.random.default_rng(40 + n)
    mats = []
    for _ in range(2000):
        A = rng.random((n, n)) * 10.0 ** rng.uniform(-6, 6, size=(n, n))
        mats.append(A)
        mats.append((A + A.T) / 2)
        mats.append(np.where(rng.random((n, n)) < 0.4, 0.0, A))
        mats.append(rng.normal(size=(n, n)) * 1e3)
    mats += [np.ones((n, n)), np.full((n, n), 0.3), np.zeros((n, n)),
             np.eye(n) * 2.0, np.triu(np.ones((n, n)))]
    for A in mats:
        assert cyp_exact(A) == float(_cyp_subsets(A)[(1 << n) - 1])


@given(st.integers(0, 2**32 - 1), st.integers(1, 6))
def test_cyp_matches_enumeration(seed, n):
    A = np.random.default_rng(seed).normal(size=(n, n))
    assert cyp_exact(A) == pytest.approx(cyp_oracle(A), rel=1e-11, abs=1e-12)


# -- ratios ------------------------------------------------------------


def test_ratio_constant_kernel():
    # c (alpha + n) for any configuration under a constant kernel
    kern = Kernel.constant(0.8)
    pts = np.arange(5, dtype=float).reshape(-1, 1)
    for alpha in (0.5, 1.0, 2.0):
        assert ratio_exact([9.0], pts, kern, alpha) == pytest.approx(
            0.8 * (alpha + 5), rel=1e-12)


def test_ratio_diagonal_kernel_distinct_points():
    pts = np.arange(4, dtype=float).reshape(-1, 1)
    kern = projection_kernel(np.vstack([pts, [[9.0]]]), np.full(5, 2.0))
    assert ratio_exact([9.0], pts, kern, 1.5) == pytest.approx(1.5 * 2.0,
                                                               rel=1e-12)


def test_ratio_empty_context():
    kern = Kernel.gaussian(1.0)
    assert ratio_exact([0.0], np.zeros((0, 1)), kern, 2.0) == 2.0


def test_stacked_exact_table_equals_each_alphas_table(rng):
    # the exact order takes the same alpha arrays as the cyclic tables and
    # answers them one alpha at a time; n = 10 is the largest Gram whose
    # bordered matrix stays within the exact size cap
    grams = [sym_nonneg(rng, 0), sym_nonneg(rng, 1), sym_nonneg(rng, 2), sym_nonneg(rng, 10),
             np.diag(rng.uniform(0.5, 2.0, size=5)), np.full((4, 4), 0.7),
             block_constant_matrix([2, 1, 3], [0.6, 1.3, 0.9]), banded_gram(rng, 7)]
    per_class = np.array([[2.0, 0.5], [0.25, 1.0], [2.0, 0.5]])
    for M in grams:
        n = M.shape[0]
        core = _PerTable(GramMatrix.from_matrix(M))
        Kt = rng.random((2, n))
        ktt = rng.uniform(0.5, 1.5, size=2)
        for alphas in per_class.T:
            got = core.finish(alphas).rows(Kt, ktt)
            assert got.shape == (3, 2)
            for j, alpha in enumerate(alphas):
                assert np.array_equal(got[j], core.finish(alpha).rows(Kt, ktt))


def test_ratio_matrix_matches_kernel_route(rng):
    kern = Kernel.gaussian(1.0)
    pts = rng.normal(size=(4, 2))
    t = rng.normal(size=2)
    from permclass.kernels import gram
    g = gram(kern, np.vstack([pts, t]))
    assert ratio_exact_matrix(g.entries, 1.3) == pytest.approx(
        ratio_exact(t, pts, kern, 1.3), rel=1e-12)


def test_ratio_matrix_reads_the_whole_asymmetric_matrix(rng):
    # the last row and column differ: the ratio is per_a(A) / per_a(A[:-1, :-1]),
    # not a ratio of bordered Gram matrices built from either of them
    A = np.array([[1.0, 0.5, 0.2], [0.5, 2.0, 0.3], [0.4, 0.3, 1.5]])
    assert ratio_exact_matrix(A, 0.7) == pytest.approx(1.2106060606060605, rel=1e-14)
    for n in (1, 2, 4, 6):
        B = rng.random((n, n))
        assert ratio_exact_matrix(B, 1.3) == (per_alpha_exact(B, 1.3)
                                              / per_alpha_exact(B[:-1, :-1], 1.3))


def test_cyclic_ratio_single_point():
    # the only cycle through {t, x1} uses both off-diagonal entries
    kern = Kernel.gaussian(1.0)
    pts = np.array([[0.5]])
    k01 = math.exp(-0.25)
    assert cyclic_ratio_exact([0.0], pts, kern) == pytest.approx(
        k01 * k01 / 1.0, rel=1e-12)


def test_cyclic_ratio_constant_and_diagonal():
    pts = np.arange(4, dtype=float).reshape(-1, 1)
    assert cyclic_ratio_exact([9.0], pts, Kernel.constant(0.6)) == pytest.approx(
        0.6 * 4, rel=1e-12)
    with pytest.raises(ZeroDivisionError):
        # diagonal kernel, distinct points: cyp of the context is zero
        cyclic_ratio_exact([9.0], pts, projection_kernel(np.vstack([pts, [[9.0]]]),
                                                         np.ones(5)))


def test_cyp_table_reads_after_every_growth(rng):
    # ratios read between growths: a cyp{K(x)} cached before a growth must
    # not serve the grown table, and a second read reuses the cached value
    M = sym_nonneg(rng, 8)
    table = _CypTable()
    table.grow(M[0, :0], M[0, 0])
    for p in range(1, 8):
        G = M[:p, :p]
        for _ in range(2):
            kt, ktt = rng.random(p), rng.uniform(0.5, 1.5)
            assert table.ratio(kt, ktt) == cyp_exact(augment(G, kt, ktt)) / cyp_exact(G)
        table.grow(M[p, :p], M[p, p])
    np.testing.assert_array_equal(table.gram, M)


def test_cyp_table_checks(monkeypatch):
    with pytest.raises(ValueError, match="empty"):
        _CypTable().ratio(np.zeros(0), 1.0)
    with pytest.raises(ZeroDivisionError, match="cyp of the training configuration"):
        _grown(_CypTable(), np.eye(2)).ratio(np.ones(2), 1.0)
    with monkeypatch.context() as patch:
        # the cap is read when checked, so a smaller one shows both sides of it
        patch.setattr(exact_mod, "EXACT_SIZE_CAP", 3)
        full = _grown(_CypTable(), np.ones((3, 3)))
        with pytest.raises(ExactSizeLimitError, match="n = 4 exceeds the cap of 3"):
            full.ratio(np.ones(3), 1.0)
        assert _grown(_CypTable(), np.ones((2, 2))).ratio(np.ones(2), 1.0) == 2.0
    table = _CypTable()
    table.grow(np.zeros(0), 1.0)
    with pytest.raises(ValueError, match="negative Gram entry"):
        table.grow(np.array([-0.1]), 1.0)
    with pytest.raises(ValueError, match="non-finite Gram entry"):
        table.grow(np.array([np.nan]), 1.0)
    with pytest.raises(ValueError, match="non-finite Gram entry"):
        table.grow(np.array([0.5]), np.inf)
    assert table.gram.shape == (1, 1)


def test_cyclic_ratio_empty_raises():
    with pytest.raises(ValueError, match="empty"):
        cyclic_ratio_exact([0.0], np.zeros((0, 1)), Kernel.gaussian(1.0))


# -- label / partition probabilities ------------------------------------


def test_label_probability_single_point():
    p = label_probability_exact(np.array([[0.0]]), [0], [1.0, 1.0],
                                Kernel.gaussian(1.0))
    assert p == pytest.approx(0.5, rel=1e-14)


def test_label_probability_two_same_class():
    # per_1(J2) / per_2(J2) = 2 / 6
    p = label_probability_exact(np.array([[0.0], [0.0]]), [0, 0], [1.0, 1.0],
                                Kernel.constant(1.0))
    assert p == pytest.approx(perm_oracle(np.ones((2, 2)), 1.0)
                              / perm_oracle(np.ones((2, 2)), 2.0), rel=1e-13)
    assert p == pytest.approx(1.0 / 3.0, rel=1e-13)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_label_probability_normalizes(seed, n):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 2))
    kern = Kernel.gaussian(1.0)
    alphas = [0.8, 1.7]
    total = sum(label_probability_exact(pts, labels, alphas, kern)
                for labels in itertools.product([0, 1], repeat=n))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_label_probability_rejects_non_finite_points():
    with pytest.raises(ValueError, match="point row 1, column 0 is not finite"):
        label_probability_exact([[0.0], [np.nan]], [0, 1], [1.0, 1.0],
                                Kernel.gaussian(1.0))


@pytest.mark.parametrize("labels, match", [
    ([0, 1.7, 1], r"label 1 is not an integer class code \(1\.7\)"),
    ([0, np.nan, 1], r"label 1 is not an integer class code \(nan\)"),
    ([[0], [1], [1]], r"labels must be a 1-d array .* shape \(3, 1\)"),
    ([0, {}, 1], r"label 1 is not an integer class code \(\{\}\)"),
    ([0, 1, None], r"label 2 is not an integer class code \(None\)"),
    (["0", "1", "1"], r"label 0 is not an integer class code \('0'\)"),
    ([0, 1e20, 1], r"label 1 is not an integer class code \(1e\+20\)"),
    ([0, 1, 10**20], r"label 2 is not an integer class code \(1e\+20\)"),
    (np.array([False, True, True]), r"label 0 is not an integer class code \(False\)"),
    ([0, True, 1], r"label 1 is not an integer class code \(True\)"),
    ((0, 1, False), r"label 2 is not an integer class code \(False\)"),
    ([0.0, 1.0, True], r"label 2 is not an integer class code \(True\)"),
], ids=["fractional", "nan", "two-d", "mapping", "null", "strings", "past-int64",
        "int-past-int64", "bool-array", "bool-in-list", "bool-in-tuple", "bool-among-floats"])
def test_label_probability_rejects_bad_labels(labels, match):
    with pytest.raises(ValueError, match=match):
        label_probability_exact(np.zeros((3, 1)), labels, [1.0, 1.0], Kernel.gaussian(1.0))


def test_ratio_exact_rejects_non_finite_input():
    kern = Kernel.gaussian(1.0)
    with pytest.raises(ValueError, match="point row 1, column 0 is not finite"):
        ratio_exact([0.5], [[0.0], [np.nan]], kern, 1.0)
    with pytest.raises(ValueError, match=r"query row 0, column 1 is not finite \(inf\)"):
        ratio_exact([0.5, np.inf], [[0.0, 1.0]], kern, 1.0)


def test_cyclic_ratio_exact_rejects_non_finite_input():
    kern = Kernel.exponential(1.0)
    with pytest.raises(ValueError, match="point row 0, column 0 is not finite"):
        cyclic_ratio_exact([0.5], [[-np.inf], [1.0]], kern)
    with pytest.raises(ValueError, match=r"query row 0, column 0 is not finite \(nan\)"):
        cyclic_ratio_exact([np.nan], [[0.0], [1.0]], kern)


def test_partition_single_point():
    part = Partition.from_blocks([[0]])
    p = partition_probability_exact(np.array([[0.0]]), part, 2.7,
                                    Kernel.gaussian(1.0))
    assert p == pytest.approx(1.0, rel=1e-14)


def test_partition_probability_normalizes(rng):
    pts = rng.normal(size=(5, 2))
    kern = Kernel.gaussian(1.0)
    parts = list(iter_set_partitions(5))
    assert len(parts) == 52
    total = sum(partition_probability_exact(pts, b, 1.4, kern) for b in parts)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_partition_probability_rejects_non_finite_points():
    part = Partition.from_blocks([[0, 1], [2]])
    with pytest.raises(ValueError, match="point row 2, column 0 is not finite"):
        partition_probability_exact([[0.0], [1.0], [np.inf]], part, 1.0,
                                    Kernel.gaussian(1.0))


def test_partition_ewens_reduction():
    pts = np.arange(6, dtype=float).reshape(-1, 1)
    kern = Kernel.constant(1.0)
    for lam in (0.5, 1.0, 2.0):
        for part in iter_set_partitions(6):
            got = partition_probability_exact(pts, part, lam, kern)
            assert got == pytest.approx(ewens_probability(part.sizes, lam),
                                        abs=1e-12)


def test_partition_validation():
    with pytest.raises(ValueError, match="disjoint"):
        Partition.from_blocks([[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="cover"):
        Partition.from_blocks([[0, 2]])
    part = Partition.from_labels([0, 1, 0, 2])
    assert part.block_count == 3
    assert part.sizes == (2, 1, 1)


def test_rising_factorial():
    assert rising_factorial(1.0, 3) == 6.0
    assert rising_factorial(0.5, 0) == 1.0


def test_bell_counts():
    assert sum(1 for _ in iter_set_partitions(4)) == 15
    assert sum(1 for _ in iter_set_partitions(6)) == 203


def _zero_kernel(n):
    # a projection kernel whose every entry is zero: every alpha-permanent
    # of it is zero
    return projection_kernel(np.arange(float(n))[:, None], np.zeros((n, n)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: ratio_exact_matrix([], 1.0), ValueError,
     "ratio needs at least the added point on the diagonal"),
    (lambda: ratio_exact_matrix([[0.0, 0.0], [0.0, 1.0]], 1.0), ZeroDivisionError,
     "per_alpha of the leading block is zero"),
    (lambda: label_probability_exact(np.zeros((3, 1)), [0, 1], (1.0, 1.0), Kernel.gaussian(1.0)),
     ValueError, "labels must match the point count"),
    (lambda: label_probability_exact(np.arange(2.0)[:, None], [0, 2], (1.0, 1.0),
                                     Kernel.gaussian(1.0)),
     ValueError, r"labels must lie in 0\.\.1"),
    (lambda: label_probability_exact(np.arange(2.0)[:, None], [0, 1], (1.0, 1.0),
                                     _zero_kernel(2)),
     ZeroDivisionError, "per_alpha of the full configuration is zero"),
    (lambda: Partition(((0,), ())), ValueError, "partition blocks must be nonempty"),
    (lambda: partition_probability_exact(np.zeros((1, 1)), Partition.from_labels([0]), 0.0,
                                         Kernel.gaussian(1.0)),
     ValueError, "lambda must be positive and finite, got 0.0"),
    (lambda: partition_probability_exact(np.zeros((2, 1)), Partition.from_labels([0]), 1.0,
                                         Kernel.gaussian(1.0)),
     ValueError, "partition must cover exactly the given points"),
    (lambda: partition_probability_exact(np.arange(2.0)[:, None], Partition.from_labels([0, 1]),
                                         1.0, _zero_kernel(2)),
     ZeroDivisionError, "per_lambda of the full configuration is zero"),
], ids=["empty-matrix", "zero-leading-block", "label-count", "label-range", "zero-labelled",
        "empty-block", "lambda", "partition-size", "zero-partitioned"])
def test_exact_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match=message):
        call()
