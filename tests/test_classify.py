import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (augment, cyclic_ratio_scalar, knn_loop, projection_kernel,
                      sequential_partition_scalar)
from permclass import classify, kernels
from permclass.classify import (LabeledDataset, ModelParams, fit, knn_predict,
                                predict, predict_infinite, sequential_partition)
from permclass.classify import _fit_kernel, _kernel_blocks, _singleton_ratio, _weights
from permclass.cyclic import LimitTable, build_ratio_table, ratio_from_kt
from permclass.exact import ExactSizeLimitError, Partition, cyp_exact, ratio_exact
from permclass.kernels import Kernel, gram, kernel_block, kernel_column, kernel_self


def make_data(rng, n_per=(6, 5), spread=1.0):
    pts, labels = [], []
    for r, n in enumerate(n_per):
        pts.append(rng.normal(size=(n, 2)) * spread + 3.0 * r)
        labels.extend([r] * n)
    return LabeledDataset(points=np.vstack(pts), labels=np.array(labels),
                          n_classes=len(n_per))


def test_order_2_predict_matches_order_3_table(rng):
    # an order-2 fit builds only r1_loo, the one table order-2 queries read,
    # and it is bit for bit the r1_loo of a full order-3 table
    data = make_data(rng, (9, 7))
    params = ModelParams(kernel=Kernel.gaussian(1.2), alphas=(0.6, 1.7), order=2)
    model = fit(data, params)
    qs = rng.normal(size=(25, 2)) * 2.0
    raw = predict(model, qs).raw
    for r, table in enumerate(model.classes):
        assert table.r2_loo is None
        full = build_ratio_table(table.gram, table.alpha, order=3)
        Kt = kernel_block(params.kernel, qs, table.gram.points)
        assert np.array_equal(table.r1_loo, full.r1_loo)
        assert np.array_equal(raw[:, r], table.rows(Kt, np.ones(25)))


def test_fit_structure(rng):
    data = make_data(rng, (10, 10))
    model = fit(data, ModelParams(kernel=Kernel.gaussian(1.0), alphas=1.0))
    assert model.n_classes == 2
    assert all(table.n == 10 for table in model.classes)


def test_empty_class_rule():
    # one observed class, one declared-but-empty: constant kernel gives
    # p(class 1) = (alpha + n) / (2 alpha + n)
    n, alpha = 4, 1.0
    data = LabeledDataset(points=np.arange(n, dtype=float).reshape(-1, 1),
                          labels=np.zeros(n, dtype=int), n_classes=2)
    model = fit(data, ModelParams(kernel=Kernel.constant(1.0), alphas=alpha))
    table = predict(model, np.array([[0.5]]))
    assert table.probs[0, 0] == pytest.approx((alpha + n) / (2 * alpha + n), rel=1e-12)
    assert table.argmax[0] == 0


def test_refit_with_permuted_rows_identical(rng):
    data = make_data(rng)
    perm = rng.permutation(data.n)
    shuffled = LabeledDataset(points=data.points[perm], labels=data.labels[perm],
                              n_classes=2)
    queries = np.array([[0.0, 0.0], [1.0, 1.5], [3.0, 2.0]])
    t1 = predict(fit(data, ModelParams(kernel=Kernel.gaussian(1.0))), queries)
    t2 = predict(fit(shuffled, ModelParams(kernel=Kernel.gaussian(1.0))), queries)
    assert np.allclose(t1.probs, t2.probs, rtol=1e-12)
    assert np.array_equal(t1.argmax, t2.argmax)


def test_mirror_symmetry_gives_half():
    pts = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    data = LabeledDataset(points=pts, labels=np.array([0, 0, 1, 1]), n_classes=2)
    model = fit(data, ModelParams(kernel=Kernel.gaussian(1.0), alphas=1.0))
    table = predict(model, np.array([[0.0]]))
    assert table.probs[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert table.argmax[0] == 0  # tie resolves to the lowest class index


def test_posterior_rows_normalized(rng):
    data = make_data(rng)
    model = fit(data, ModelParams(kernel=Kernel.exponential(0.9), alphas=0.7))
    table = predict(model, rng.normal(size=(20, 2)) * 2 + 1.5)
    assert np.allclose(table.probs.sum(axis=1), 1.0, atol=1e-12)
    assert (table.raw > 0).all()
    assert np.array_equal(table.argmax, table.probs.argmax(axis=1))


def test_exchangeability_relabelling(rng):
    data = make_data(rng, (5, 7))
    swapped = LabeledDataset(points=data.points, labels=1 - data.labels,
                             n_classes=2)
    params = ModelParams(kernel=Kernel.gaussian(1.2), alphas=1.0)
    q = np.array([[1.0, 0.5]])
    a = predict(fit(data, params), q).probs[0]
    b = predict(fit(swapped, params), q).probs[0]
    assert np.allclose(a, b[::-1], rtol=1e-12)


def test_order_consistency_small_classes(rng):
    # with three points per class, order 3 equals the exact ratios
    data = make_data(rng, (3, 3))
    q = rng.normal(size=(4, 2)) + 1.0
    p3 = predict(fit(data, ModelParams(kernel=Kernel.gaussian(1.0), order=3)), q)
    pe = predict(fit(data, ModelParams(kernel=Kernel.gaussian(1.0),
                                       order="exact")), q)
    assert np.allclose(p3.probs, pe.probs, rtol=1e-10)


def test_order_consistency_moderate_classes(rng):
    data = make_data(rng, (8, 8))
    q = rng.normal(size=(6, 2)) + 1.5
    p3 = predict(fit(data, ModelParams(kernel=Kernel.gaussian(1.0), order=3)), q)
    pe = predict(fit(data, ModelParams(kernel=Kernel.gaussian(1.0),
                                       order="exact")), q)
    assert np.max(np.abs(p3.probs - pe.probs)) <= 0.05


def test_duplicate_query_is_allowed(rng):
    data = make_data(rng)
    model = fit(data, ModelParams(kernel=Kernel.gaussian(1.0)))
    table = predict(model, data.points[:1])
    assert np.isfinite(table.probs).all()


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_predict_matches_per_query_reference(rng, order, monkeypatch):
    # 4,096-entry blocks against 70 points per class hold 58 rows, so 150
    # queries span three blocks with a ragged last one
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 4096)
    assert [s.stop for s in kernels._query_steps(150, 70)] == [58, 116, 174]
    data = make_data(rng, (70, 70, 0), spread=1.5)
    params = ModelParams(kernel=Kernel.exponential(1.1), alphas=(0.8, 1.6, 0.5),
                         order=order)
    model = fit(data, params)
    queries = rng.normal(size=(150, 2)) * 2 + 1.5
    table = predict(model, queries)
    for q, t in enumerate(queries):
        ref = [ratio_from_kt(s, kernel_column(params.kernel, t, s.gram.points),
                             1.0) if len(s.gram.points) else s.alpha
               for s in model.classes]
        np.testing.assert_allclose(table.raw[q], ref, rtol=1e-12, atol=0.0)
    assert np.array_equal(table.argmax, table.probs.argmax(axis=1))


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]),
       st.sampled_from(["gaussian", "exponential"]))
def test_predict_properties(seed, order, family):
    rng = np.random.default_rng(seed)
    data = make_data(rng, (int(rng.integers(1, 9)), int(rng.integers(1, 9))))
    params = ModelParams(kernel=Kernel(family, tau=float(rng.uniform(0.5, 3.0))),
                         alphas=float(rng.uniform(0.2, 3.0)), order=order)
    queries = rng.normal(size=(7, 2)) * 2 + 1.5
    base = predict(fit(data, params), queries)
    assert np.allclose(base.probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    # permuting the training rows leaves every prediction unchanged
    perm = rng.permutation(data.n)
    shuffled = LabeledDataset(points=data.points[perm], labels=data.labels[perm],
                              n_classes=2)
    moved = predict(fit(shuffled, params), queries)
    np.testing.assert_allclose(moved.probs, base.probs, rtol=1e-12, atol=0.0)
    # relabelling the classes permutes the columns
    swapped = LabeledDataset(points=data.points, labels=1 - data.labels,
                             n_classes=2)
    relabelled = predict(fit(swapped, params), queries)
    np.testing.assert_allclose(relabelled.probs, base.probs[:, ::-1],
                               rtol=1e-12, atol=0.0)


def test_alphas_validation():
    data = LabeledDataset(points=np.zeros((2, 1)), labels=np.array([0, 1]),
                          n_classes=2)
    with pytest.raises(ValueError, match="positive"):
        fit(data, ModelParams(kernel=Kernel.gaussian(1.0), alphas=(1.0, 0.0)))
    with pytest.raises(ValueError, match="per-class"):
        fit(data, ModelParams(kernel=Kernel.gaussian(1.0), alphas=(1.0,) * 3))


def test_non_finite_model_parameters_raise():
    kern = Kernel.gaussian(1.0)
    for lam in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="lambda must be positive and finite"):
            ModelParams(kernel=kern, lam=lam)
    for alphas in (float("inf"), (1.0, float("nan")), (float("-inf"), 1.0)):
        with pytest.raises(ValueError, match="alphas must be finite"):
            ModelParams(kernel=kern, alphas=alphas)


@pytest.mark.parametrize("field, value, message", [
    ("alphas", True, r"alphas must be finite real numbers, got True"),
    ("alphas", "1.0", r"alphas must be finite real numbers, got '1.0'"),
    ("alphas", [1.0, True], r"alphas must be finite real numbers, got \[1.0, True\]"),
    ("alphas", np.array([True, False]), r"alphas must be finite real numbers"),
    ("alphas", {}, r"alphas must be finite real numbers, got \{\}"),
    ("alphas", {0.5: 1.0}, r"alphas must be finite real numbers, got \{0.5: 1.0\}"),
    ("alphas", [], r"alphas must be finite real numbers, got \[\]"),
    ("lam", True, r"lambda must be a real number, got True"),
    ("lam", "0.5", r"lambda must be a real number, got '0.5'"),
], ids=["bool-alpha", "str-alpha", "bool-in-alphas", "bool-array-alphas", "empty-mapping-alphas",
        "mapping-alphas", "empty-alphas", "bool-lambda", "str-lambda"])
def test_model_parameters_that_are_not_numbers_are_refused(field, value, message):
    # Python and numpy take a bool as 0 or 1, and a string would fail in a
    # comparison far from the field that holds it
    with pytest.raises(ValueError, match=message):
        ModelParams(kernel=Kernel.gaussian(1.0), **{field: value})
    spec = {"kernel": {"family": "gaussian", "tau": 1.0}, "alphas": 1.0,
            "alphas" if field == "alphas" else "lambda": value}
    with pytest.raises(ValueError, match=message):
        ModelParams.from_dict(spec)


def test_model_parameters_take_numpy_numbers():
    params = ModelParams(kernel=Kernel.gaussian(1.0), alphas=np.array([0.5, 2]),
                         lam=np.float64(0.5))
    assert params.to_dict()["alphas"] == [0.5, 2.0]
    assert ModelParams(kernel=Kernel.gaussian(1.0), alphas=(1, np.int64(2))).alpha_vector(2) \
        .tolist() == [1.0, 2.0]


@pytest.mark.parametrize("order", [0, 1, 2, 3, "exact"])
def test_stacked_weights_equal_each_candidates_predict(rng, order):
    # class tables finished for a live x classes array of per-class alphas,
    # one column per class, give each row's own predict weights bit for bit
    data = make_data(rng, (5, 4))
    kernel = Kernel.gaussian(0.8)
    alphas = np.array([[0.5, 2.0], [1.0, 1.0], [2.0, 0.5]])
    qs = rng.normal(size=(9, 2)) * 2.0
    cores = [_fit_kernel(gram(kernel, data.class_points(r)), order) for r in range(2)]
    blocks = [_kernel_blocks(kernel, qs, core.gram.points) for core in cores]
    raw = _weights([core.finish(alphas[:, r]) for r, core in enumerate(cores)],
                   np.ones(9), blocks)
    assert raw.shape == (3, 9, 2)
    for j, a in enumerate(alphas):
        model = fit(data, ModelParams(kernel=kernel, alphas=tuple(a), order=order))
        assert np.array_equal(raw[j], predict(model, qs).raw)


def test_predict_exact_matches_ratio_oracle(rng):
    data = make_data(rng, (4, 3))
    params = ModelParams(kernel=Kernel.gaussian(1.0), alphas=(0.6, 1.1),
                         order="exact")
    model = fit(data, params)
    t = rng.normal(size=2)
    table = predict(model, t[None, :])
    w = np.array([ratio_exact(t, data.class_points(r), params.kernel, a)
                  for r, a in enumerate((0.6, 1.1))])
    assert np.allclose(table.raw[0], w, rtol=1e-12)


def test_predict_exact_builds_each_denominator_once(rng, monkeypatch):
    import permclass.exact as exact_mod
    data = make_data(rng, (5, 4, 3))
    params = ModelParams(kernel=Kernel.exponential(0.9), alphas=(0.6, 1.1, 2.0),
                         order="exact")
    model = fit(data, params)
    qs = rng.normal(size=(7, 2))
    calls = []
    per_alpha = exact_mod.per_alpha_exact

    def counted(A, alpha):
        calls.append(np.shape(A)[0])
        return per_alpha(A, alpha)

    monkeypatch.setattr(exact_mod, "per_alpha_exact", counted)
    table = predict(model, qs)
    # m queries x k classes: one bordered matrix each, plus one
    # denominator per class (one per query and class before)
    assert len(calls) == 7 * 3 + 3
    monkeypatch.setattr(exact_mod, "per_alpha_exact", per_alpha)
    for r, a in enumerate((0.6, 1.1, 2.0)):
        pts = data.class_points(r)
        G = gram(params.kernel, pts).entries
        for q, got in zip(qs, table.raw[:, r]):
            assert got == ratio_exact(q, pts, params.kernel, a)
            kt = kernel_column(params.kernel, q, pts)
            assert got == (per_alpha(augment(G, kt, 1.0), a)
                           / per_alpha(G, a))


def test_exact_fit_refuses_a_class_no_query_can_join(rng):
    # a query borders its class's Gram matrix, so a class of 11 points needs
    # a 12-point permanent, past the cap of 11: the fit refuses it, naming
    # that size, where a class of 10 still fits and predicts
    params = ModelParams(kernel=Kernel.gaussian(1.0), order="exact")
    with pytest.raises(ExactSizeLimitError, match="n = 12 exceeds the cap of 11"):
        fit(make_data(rng, (3, 11)), params)
    model = fit(make_data(rng, (3, 10)), params)
    assert [table.gram.n for table in model.classes] == [3, 10]
    assert np.isfinite(predict(model, rng.normal(size=(2, 2))).probs).all()


def test_non_finite_training_points_rejected():
    with pytest.raises(ValueError, match=r"point row 2, column 1 is not finite \(nan\)"):
        LabeledDataset(points=[[0.0, 1.0], [1.0, 2.0], [2.0, np.nan]],
                       labels=[0, 1, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_queries_rejected(rng, bad):
    model = fit(make_data(rng), ModelParams(kernel=Kernel.gaussian(1.0)))
    queries = np.zeros((4, 2))
    queries[3, 0] = bad
    with pytest.raises(ValueError, match="query row 3, column 0 is not finite"):
        predict(model, queries)


# -- infinite-class mode --------------------------------------------------


def test_infinite_crp_weights_constant_kernel():
    part = Partition.from_blocks([[0, 1, 2], [3]])
    params = ModelParams(kernel=Kernel.constant(1.0), lam=0.7, order="exact")
    row = predict_infinite(np.zeros((4, 1)), part, np.array([0.0]), params)
    expect = np.array([3.0, 1.0, 0.7])
    assert np.allclose(row.probs, expect / expect.sum(), atol=1e-12)
    # graded evaluation agrees
    params3 = ModelParams(kernel=Kernel.constant(1.0), lam=0.7, order=3)
    row3 = predict_infinite(np.zeros((4, 1)), part, np.array([0.0]), params3)
    assert np.allclose(row3.probs, row.probs, atol=1e-12)


def test_infinite_small_lambda_joins_block():
    part = Partition.from_blocks([[0]])
    params = ModelParams(kernel=Kernel.constant(1.0), lam=1e-12, order="exact")
    row = predict_infinite(np.zeros((1, 1)), part, np.array([0.0]), params)
    assert row.probs[0] == pytest.approx(1.0, abs=1e-11)


def test_infinite_matches_exact_cyp_ratios(rng):
    kern = Kernel.gaussian(1.0)
    pts = rng.normal(size=(3, 1))
    part = Partition.from_blocks([[0, 1], [2]])
    params = ModelParams(kernel=kern, lam=0.5, order="exact")
    t = np.array([0.2])
    row = predict_infinite(pts, part, t, params)
    weights = []
    for block in part.blocks:
        sub = pts[list(block)]
        g = gram(kern, sub)
        aug = gram(kern, np.vstack([sub, t[None, :]]))
        weights.append(cyp_exact(aug.entries) / cyp_exact(g.entries))
    weights.append(0.5 * 1.0)
    weights = np.array(weights)
    assert np.allclose(row.raw, weights, rtol=1e-10)


def test_infinite_zero_cyp_block_named():
    pts = np.arange(2, dtype=float).reshape(-1, 1)
    kern = projection_kernel(np.vstack([pts, [[5.0]]]), np.ones(3))
    part = Partition.from_blocks([[0, 1]])
    params = ModelParams(kernel=kern, lam=1.0, order="exact")
    with pytest.raises(ZeroDivisionError, match="block 0"):
        predict_infinite(pts, part, np.array([5.0]), params)


def test_sequential_single_point():
    params = ModelParams(kernel=Kernel.gaussian(1.0), lam=1.0)
    part = sequential_partition(np.zeros((1, 2)), params)
    assert part.blocks == ((0,),)


def test_sequential_two_clusters_argmax(rng):
    pts = np.vstack([rng.normal(0, 0.01, size=(5, 1)),
                     rng.normal(10, 0.01, size=(5, 1))])
    params = ModelParams(kernel=Kernel.gaussian(0.5), lam=0.5, order=3)
    part = sequential_partition(pts, params)
    assert part.block_count == 2
    assert part.sizes == (5, 5)


def test_sequential_sampling_reproducible():
    params = ModelParams(kernel=Kernel.constant(1.0), lam=1.0, order="exact")
    pts = np.zeros((6, 1))
    a = sequential_partition(pts, params, rule="sample", seed=42)
    b = sequential_partition(pts, params, rule="sample", seed=42)
    assert a.blocks == b.blocks
    seen = {sequential_partition(pts, params, rule="sample", seed=s).blocks
            for s in range(30)}
    assert len(seen) > 1  # sampling really samples


def test_infinite_non_finite_input_rejected():
    params = ModelParams(kernel=Kernel.gaussian(1.0), lam=1.0)
    pts = np.array([[0.0], [0.1], [np.inf]])
    with pytest.raises(ValueError, match="point row 2, column 0 is not finite"):
        sequential_partition(pts, params)
    part = Partition.from_blocks([[0, 1]])
    with pytest.raises(ValueError, match="query row 0, column 0 is not finite"):
        predict_infinite(pts[:2], part, np.array([np.nan]), params)
    with pytest.raises(ValueError, match="point row 2, column 0"):
        predict_infinite(pts, Partition.from_blocks([[0, 1, 2]]),
                         np.array([0.0]), params)


def _partition_configs():
    rng = np.random.default_rng(2024)
    clusters = np.vstack([rng.normal(0.0, 0.3, size=(8, 2)),
                          rng.normal(2.0, 0.3, size=(8, 2))])[rng.permutation(16)]
    line = np.linspace(0.0, 3.0, 12).reshape(-1, 1)
    block = np.arange(12) % 3
    levels = projection_kernel(np.arange(12.0), np.where(
        block[:, None] == block, np.array([0.5, 1.0, 2.0])[block], 0.0))
    # spread points, a small tau and a small lambda: most blocks stay
    # singletons for many steps and some gain members, so steps weigh the
    # singleton lane beside tables and blocks leave the lane
    spread = rng.uniform(0.0, 3.0, size=(14, 2))
    return [("gaussian", Kernel.gaussian(0.8), clusters, 0.5),
            ("gaussian-chain", Kernel.gaussian(0.6), line, 0.3),
            ("constant", Kernel.constant(0.7), np.zeros((10, 1)), 0.5),
            ("block-constant", levels, np.arange(12.0).reshape(-1, 1), 0.8),
            ("gaussian-spread", Kernel.gaussian(0.4), spread, 0.01)]


@pytest.mark.parametrize("order", [0, 1, 2, 3, "exact"])
def test_sequential_partition_matches_scalar_path(order):
    for name, kern, pts, lam in _partition_configs():
        if order == "exact":
            pts = pts[:10]  # blocks stay within the exact size cap
        params = ModelParams(kernel=kern, lam=lam, order=order)
        assert (sequential_partition(pts, params).blocks
                == sequential_partition_scalar(pts, params).blocks), name
        for seed in (0, 1, 7):
            assert (sequential_partition(pts, params, rule="sample", seed=seed).blocks
                    == sequential_partition_scalar(pts, params, rule="sample",
                                                   seed=seed).blocks), (name, seed)


@pytest.mark.parametrize("block_entries", [64, 8])
def test_sequential_partition_reads_kernel_rows_a_cut_at_a_time(monkeypatch, block_entries):
    # with a small block budget the steps' cuts fall every few points (64
    # entries) or at every row (8): each cut's kernel rows are one
    # `kernel_block` call, no step calls `kernel_column`, and the
    # partitions equal the scalar path's at every order, by argmax and by
    # seeded sampling
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", block_entries)
    calls = []
    block = classify.kernel_block

    def spy(kernel, queries, points):
        calls.append((len(queries), len(points)))
        return block(kernel, queries, points)

    def refuse(*args):
        raise AssertionError("a partition step called kernel_column")

    monkeypatch.setattr(classify, "kernel_block", spy)
    monkeypatch.setattr(classify, "kernel_column", refuse)
    for order in (0, 1, 2, 3, "exact"):
        for name, kern, pts, lam in _partition_configs():
            if order == "exact":
                pts = pts[:10]  # blocks stay within the exact size cap
            n = pts.shape[0]
            cuts = [(len(range(n)[cut]), min(cut.stop, n)) for cut in kernels._query_steps(n, n)]
            assert len(cuts) > 1
            params = ModelParams(kernel=kern, lam=lam, order=order)
            for rule, seed in (("argmax", None), ("sample", 0), ("sample", 1), ("sample", 7)):
                calls.clear()
                got = sequential_partition(pts, params, rule=rule, seed=seed).blocks
                assert calls == cuts, (name, order)
                assert got == sequential_partition_scalar(pts, params, rule=rule,
                                                          seed=seed).blocks, (name, order, seed)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_predict_infinite_matches_scalar_weights(rng, order):
    # the second partition is mostly singleton blocks, which the singleton
    # lane weighs beside the tables of the others
    kern = Kernel.gaussian(0.7)
    pts = rng.normal(size=(9, 2))
    t = rng.normal(size=2)
    params = ModelParams(kernel=kern, lam=0.4, order=order)
    for part in (Partition.from_blocks([[0, 3, 4, 8], [1], [2, 5, 6, 7]]),
                 Partition.from_blocks([[0], [1, 6], [2], [3], [4, 5, 8], [7]])):
        row = predict_infinite(pts, part, t, params)
        expect = [cyclic_ratio_scalar(gram(kern, pts[list(b)]).entries,
                                      kernel_column(kern, t, pts[list(b)]), 1.0, order)
                  for b in part.blocks] + [0.4]
        np.testing.assert_allclose(row.raw, expect, rtol=1e-12, atol=0.0)


def test_singleton_lane_equals_a_one_point_table():
    # 60,000 seeded one-point blocks, 600 values of K(x, x) over six decades
    # with 100 of K(t, x) each over thirteen, k = 0, the smallest subnormal,
    # tiny k and k whose square underflows (to a subnormal, or to 0) among
    # them, and two subnormal K(x, x) over which k / d overflows: at every
    # order the lane's weights equal each one-point LimitTable's ratio bit
    # for bit, inf and NaN included
    rng = np.random.default_rng(60_000)
    d = 10.0 ** rng.uniform(-3.0, 3.0, 600)
    d[:2] = [1e-320, 5e-324]
    k = rng.random((600, 100)) * 10.0 ** rng.uniform(-12.0, 1.0, (600, 100))
    k[:, :7] = [0.0, 5e-324, 1e-300, 1e-200, 1e-170, 1e-160, 1.5e-155]
    for order in (0, 1, 2, 3):
        with np.errstate(over="ignore", invalid="ignore"):
            lane = np.broadcast_to(_singleton_ratio(order, k, d[:, None]), k.shape)
            want = np.empty(k.shape)
            for i, dx in enumerate(d):
                table = LimitTable(order)
                table.grow(np.zeros(0), dx)
                want[i] = [table.ratio(kx, 1.0) for kx in k[i, :, None]]
        assert lane.tobytes() == want.tobytes(), order


def test_infinite_needs_lambda_before_kernel_work():
    params = ModelParams(kernel=Kernel.gaussian(1.0))
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="needs lambda"):
            sequential_partition(np.zeros((n, 1)), params)
    # the query lies outside the projection kernel's ground set, which the
    # kernel would report had it been evaluated first
    kern = Kernel.projection(np.eye(2), [(0.0,), (1.0,)])
    with pytest.raises(ValueError, match="needs lambda"):
        predict_infinite(np.array([[0.0], [1.0]]), Partition.from_blocks([[0, 1]]),
                         np.array([5.0]), ModelParams(kernel=kern))


def test_sequential_bad_rule():
    params = ModelParams(kernel=Kernel.constant(1.0), lam=1.0)
    with pytest.raises(ValueError, match="rule"):
        sequential_partition(np.zeros((2, 1)), params, rule="best")


# -- kNN baseline ---------------------------------------------------------


def test_knn_majority_and_ties():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 1.0]])
    y = np.array([0, 0, 1])
    assert knn_predict(X, y, np.array([[0.05, 0.0]]), k=3)[0] == 0
    # 1-vs-1 vote among k=2 resolves to the lowest class code
    assert knn_predict(X, y, np.array([[0.6, 0.55]]), k=2)[0] == 0


@pytest.mark.parametrize("k", [1, 2, 4, 5, 60])
def test_knn_matches_per_query_loop_with_ties(k, monkeypatch):
    rng = np.random.default_rng(k)
    # integer grid points and half-integer queries tie many distances
    # exactly; 3,200-entry chunks against 50 training points split the 120
    # queries in two
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 3200)
    assert len(kernels._query_steps(120, 50)) == 2
    X = rng.integers(0, 5, size=(50, 2)).astype(float)
    y = rng.integers(0, 3, size=50)
    Q = rng.integers(0, 9, size=(120, 2)) / 2.0
    assert np.array_equal(knn_predict(X, y, Q, k=k), knn_loop(X, y, Q, k))


def test_knn_selection_breaks_heavy_ties_by_training_index():
    # 24 training points on a 3 x 3 integer grid (every site several times)
    # and queries on the grid and between its sites: most of a query's
    # distances tie, so the k-th nearest distance is shared by many points,
    # and only the lowest-indexed of them may vote, for every k up to n
    rng = np.random.default_rng(31)
    X = rng.integers(0, 3, size=(24, 2)).astype(float)
    y = rng.integers(0, 3, size=24)
    Q = np.vstack([rng.integers(0, 3, size=(30, 2)), rng.integers(0, 5, size=(30, 2)) / 2.0])
    for k in range(1, 26):
        assert np.array_equal(knn_predict(X, y, Q, k=k), knn_loop(X, y, Q, k))


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 200])
def test_knn_matches_one_shot_distances(d):
    # training rows are coordinate permutations of one another and queries
    # lie on the diagonal, so each query's distances are sums of the same
    # squares in different orders: near-ties that only the same summation
    # order as the per-query reduction ranks the same way
    rng = np.random.default_rng(200 + d)
    base = rng.normal(size=d) * 10.0
    X = np.array([rng.permutation(base) for _ in range(60)])
    y = np.arange(60) % 4
    Q = np.linspace(-3.0, 3.0, 150)[:, None] * np.ones(d)
    for k in (1, 3):
        assert np.array_equal(knn_predict(X, y, Q, k=k), knn_loop(X, y, Q, k))


def test_knn_rejects_dimension_mismatch():
    X = np.zeros((4, 3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        knn_predict(X, np.arange(4) % 2, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        knn_predict(X, np.arange(4) % 2, np.zeros((2, 4)))


def test_knn_rejects_an_empty_training_set():
    with pytest.raises(ValueError, match="needs at least one training point"):
        knn_predict(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros((3, 2)))


def test_knn_rejects_bad_k_and_labels():
    X = np.zeros((4, 2))
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be at least 1"):
            knn_predict(X, np.arange(4) % 2, X, k=k)
    for k in (2.5, 2.0, True, "2"):
        with pytest.raises(ValueError, match=f"k must be an integer, got {k!r}"):
            knn_predict(X, np.arange(4) % 2, X, k=k)
    assert knn_predict(X, np.arange(4) % 2, X, k=np.int64(3)).tolist() == [0, 0, 0, 0]
    with pytest.raises(ValueError, match="expected 4 labels"):
        knn_predict(X, [0, 1, 0], X)
    with pytest.raises(ValueError, match="label codes must be nonnegative"):
        knn_predict(X, [0, 1, -1, 0], X)
    with pytest.raises(ValueError, match=r"label 1 is not an integer class code \(1.5\)"):
        knn_predict(X, [0.0, 1.5, 1.0, 0.0], X)


def test_points_with_more_than_two_axes_rejected():
    cube = np.zeros((4, 2, 2))
    with pytest.raises(ValueError, match=r"point array must be 2-d .*\(4, 2, 2\)"):
        LabeledDataset(points=cube, labels=[0, 1, 0, 1])
    with pytest.raises(ValueError, match=r"point array must be 2-d"):
        knn_predict(cube, [0, 1, 0, 1], np.zeros((1, 4)))
    with pytest.raises(ValueError, match=r"query array must be 2-d"):
        knn_predict(np.zeros((4, 2)), [0, 1, 0, 1], np.zeros((1, 1, 2)))


def test_non_integral_labels_rejected():
    for labels, bad in (([0, 0.5, 1], 1), ([0, 1, 1.2], 2), ([0, np.nan, 1], 1)):
        with pytest.raises(ValueError, match=f"label {bad} is not an integer class code"):
            LabeledDataset(points=np.zeros((3, 1)), labels=labels)
    assert LabeledDataset(points=np.zeros((2, 1)), labels=[0.0, 1.0]).labels.tolist() == [0, 1]


def test_two_dimensional_labels_rejected():
    with pytest.raises(ValueError, match=r"labels must be a 1-d array .* shape \(3, 1\)"):
        LabeledDataset(points=np.zeros((3, 2)), labels=[[0], [1], [1]])


def test_exact_predict_over_many_blocks_equals_ratio_exact(rng, monkeypatch):
    # blocks of 2 queries for the 4- and 3-point classes, 8 for the empty
    # one, and distance row blocks of 2 and 2 rows
    monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", 8)
    data = make_data(rng, (4, 0, 3))
    qs = np.vstack([rng.normal(size=(19, 2)), data.points[:1]])
    alphas = (0.6, 1.3, 2.0)
    diagonal = projection_kernel(np.vstack([data.points, qs[:19]]), np.full(26, 0.7))
    for kernel in (Kernel.gaussian(0.9), Kernel.constant(1.5), diagonal):
        model = fit(data, ModelParams(kernel=kernel, alphas=alphas, order="exact"))
        raw = predict(model, qs).raw
        for r, a in enumerate(alphas):
            expect = [ratio_exact(q, data.class_points(r), kernel, a) for q in qs]
            assert np.array_equal(raw[:, r], expect), (kernel.family, r)


@pytest.mark.parametrize("order", [0, 1, 2, 3, "exact"])
def test_empty_class_weight_is_alpha_ktt(rng, order):
    # an empty class goes through the ordinary table path with a 0 x 0 Gram
    data = make_data(rng, (4, 0, 3))
    qs = rng.normal(size=(6, 2))
    for kernel in (Kernel.gaussian(0.9), Kernel.constant(2.5)):
        model = fit(data, ModelParams(kernel=kernel, alphas=(1.0, 0.7, 2.0), order=order))
        assert model.classes[1].gram.entries.shape == (0, 0)
        raw = predict(model, qs).raw[:, 1]
        assert np.array_equal(raw, np.full(6, 0.7 * kernel_self(kernel, qs[0])))


def test_knn_rejects_non_finite_points():
    X, y = np.zeros((4, 2)), np.arange(4) % 2
    X[2, 1] = np.nan
    with pytest.raises(ValueError, match="point row 2, column 1 is not finite"):
        knn_predict(X, y, np.zeros((3, 2)))
    Q = np.zeros((3, 2))
    Q[1, 0] = np.inf
    with pytest.raises(ValueError, match="query row 1, column 0 is not finite"):
        knn_predict(np.zeros((4, 2)), y, Q)


def test_knn_self_classification(rng):
    data = make_data(rng, (8, 8), spread=0.3)
    pred = knn_predict(data.points, data.labels, data.points, k=1)
    assert np.array_equal(pred, data.labels)


def test_all_zero_class_weights_is_an_error():
    # a ground-set point with zero self-similarity and no overlap with the
    # training block leaves every class weight at zero
    ground = [(0.0,), (1.0,), (2.0,)]
    P = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
    kern = Kernel.projection(P, ground)
    data = LabeledDataset(points=np.array(ground[:2]),
                          labels=np.array([0, 0]), n_classes=1)
    model = fit(data, ModelParams(kernel=kern, alphas=1.0, order="exact"))
    with pytest.raises(ValueError, match="degenerate kernel"):
        predict(model, np.array([[2.0]]))
    # a partition row too: the block weight and lambda K(t, t) are both 0
    params = ModelParams(kernel=kern, lam=1.0, order="exact")
    with pytest.raises(ValueError, match="degenerate kernel"):
        predict_infinite(np.array(ground[:2]), Partition.from_blocks([[0, 1]]),
                         np.array([2.0]), params)
    with pytest.raises(ValueError, match="degenerate kernel"):
        sequential_partition(np.array(ground), params)


def test_fit_on_empty_dataset_uses_empty_class_rule():
    data = LabeledDataset(points=np.zeros((0, 1)),
                          labels=np.zeros(0, dtype=int), n_classes=2)
    model = fit(data, ModelParams(kernel=Kernel.constant(1.0),
                                  alphas=(1.0, 3.0)))
    table = predict(model, np.array([[0.0]]))
    assert np.allclose(table.probs[0], [0.25, 0.75], atol=1e-12)


def test_weights_drops_each_table_before_pulling_the_next():
    # over a generator of tables, table r is already gone when table r + 1
    # is built, so one class's table is alive at a time
    alive = []

    class Table:
        alpha = 1.0

        def rows(self, Kt, ktt, n_queries):
            return Kt.sum(axis=-1)

    def track(table):
        alive.append(weakref.ref(table))
        return table

    def tables():
        for r in range(3):
            assert [ref() for ref in alive] == [None] * r
            yield track(Table())

    blocks = [[np.full((2, 3), r + 1.0)] for r in range(3)]
    raw = _weights(tables(), np.ones(2), blocks)
    assert raw.tolist() == [[3.0, 6.0, 9.0]] * 2
    assert [ref() for ref in alive] == [None] * 3


@pytest.mark.parametrize("order", [True, False, 3.0, 1.0, "3", 4, -1])
def test_model_params_refuse_an_order_that_is_not_an_int_0_to_3_or_exact(order):
    # True == 1 and 3.0 == 3, so a membership test alone let them through
    # and fitted an order-1 or order-3 model reported under the bad value
    with pytest.raises(ValueError, match=f"order must be 0..3 or 'exact', got {order!r}"):
        ModelParams(kernel=Kernel.gaussian(1.0), order=order)


@pytest.mark.parametrize("call, message", [
    (lambda: LabeledDataset(np.zeros((3, 1)), [0, 1]), "labels must match the point count"),
    (lambda: LabeledDataset(np.zeros((2, 1)), [0, 2], n_classes=2),
     "n_classes is smaller than the largest label code"),
    (lambda: ModelParams(kernel=Kernel.gaussian(1.0)).alpha_vector(0),
     "dataset declares zero classes"),
    (lambda: predict_infinite(np.zeros((3, 1)), Partition.from_labels([0, 0]), [0.0],
                              ModelParams(kernel=Kernel.gaussian(1.0), lam=1.0)),
     "partition must cover exactly the given points"),
], ids=["label-count", "n-classes", "zero-classes", "partition-size"])
def test_classify_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=message):
        call()
