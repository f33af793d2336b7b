import math

import numpy as np
import pytest

from permclass.datasets import (ExpressionMatrix, SplitPlan, chequerboard_label,
                                gen_chequerboard, gen_expression,
                                gen_grid_testset, gen_triangular,
                                load_expression_csv, load_features_csv,
                                make_splits, rank_genes_bw, save_features_csv,
                                splitmix64, two_axis_projection)


# -- chequerboard ---------------------------------------------------------


def test_chequerboard_counts():
    data = gen_chequerboard(10, seed=3)
    assert data.n == 90
    assert int((data.labels == 0).sum()) == 50
    assert int((data.labels == 1).sum()) == 40


def test_chequerboard_layout_rule():
    assert chequerboard_label([0.5, 0.5]) == 0
    assert chequerboard_label([1.5, 0.5]) == 1
    assert chequerboard_label([1.5, 1.5]) == 0
    assert chequerboard_label([2.5, 2.5]) == 0


def test_chequerboard_labels_match_cells():
    data = gen_chequerboard(4, seed=1)
    for p, label in zip(data.points, data.labels):
        assert label == chequerboard_label(p)
        assert 0.0 <= p[0] <= 3.0 and 0.0 <= p[1] <= 3.0


def test_chequerboard_deterministic():
    a = gen_chequerboard(1, seed=9)
    b = gen_chequerboard(1, seed=9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_grid_testset():
    pts, labels = gen_grid_testset(60)
    assert pts.shape == (3600, 2)
    pts3, labels3 = gen_grid_testset(3)
    assert pts3.shape == (9, 2)
    # centre points of the nine cells reproduce the layout
    expect = [chequerboard_label(p) for p in pts3]
    assert np.array_equal(labels3, expect)
    # cell-centred points never sit on a boundary
    frac = pts % 1.0
    assert (np.abs(frac) > 1e-9).all()


def test_grid_labels_match_the_per_point_rule():
    from permclass.datasets import _chequerboard_labels
    for resolution in (2, 3, 7, 60):
        pts, labels = gen_grid_testset(resolution)
        assert labels.dtype == int
        assert np.array_equal(labels, [chequerboard_label(p) for p in pts])
    # random points on and off the board, whole-number coordinates (cell
    # edges) and the far edge 3.0, which belongs to the last cell
    rng = np.random.default_rng(5)
    pts = np.vstack([rng.uniform(-1.0, 4.0, size=(500, 2)),
                     rng.integers(-1, 5, size=(100, 2)).astype(float),
                     [[3.0, 3.0], [3.0, 0.0], [0.0, 3.0], [2.999999, 3.0], [-0.0, 1.0]]])
    assert np.array_equal(_chequerboard_labels(pts), [chequerboard_label(p) for p in pts])


def test_grid_resolution_validation():
    with pytest.raises(ValueError, match="resolution"):
        gen_grid_testset(1)


# -- triangular -----------------------------------------------------------


def test_triangular_support_and_symmetry():
    draws = gen_triangular(100_000, 0.0, math.pi, seed=4)
    assert (draws > -math.pi).all() and (draws < math.pi).all()
    sigma = math.pi / math.sqrt(6.0)  # triangular sd = halfwidth / sqrt(6)
    assert abs(draws.mean()) < 3.0 * sigma / math.sqrt(draws.size)


def test_triangular_second_class_interval():
    draws = gen_triangular(1000, 2 * math.pi, math.pi, seed=5)
    assert (draws > math.pi).all() and (draws < 3 * math.pi).all()


def test_triangular_deterministic():
    assert np.array_equal(gen_triangular(10, 0.0, 1.0, seed=2),
                          gen_triangular(10, 0.0, 1.0, seed=2))


# -- gene ranking ----------------------------------------------------------


def _tiny_expr(values, labels):
    values = np.asarray(values, dtype=float)
    g, s = values.shape
    return ExpressionMatrix(values=values,
                            gene_ids=[f"G{i}" for i in range(g)],
                            sample_ids=[f"S{j}" for j in range(s)],
                            sample_labels=list(labels))


def test_rank_genes_infinite_score_first():
    # gene 0: constant within class, different across -> +inf
    # gene 1: constant everywhere -> 0 by convention
    # gene 2: noisy
    expr = _tiny_expr([[1, 1, 5, 5], [2, 2, 2, 2], [1.0, 1.2, 1.1, 0.9]],
                      ["a", "a", "b", "b"])
    ranked = rank_genes_bw(expr)
    assert ranked[0][0] == 0 and math.isinf(ranked[0][2])
    assert ranked[-1][0] == 1 and ranked[-1][2] == 0.0


def test_rank_genes_bss_wss_formula():
    vals = [[1.0, 2.0, 4.0, 5.0]]
    expr = _tiny_expr(vals, ["a", "a", "b", "b"])
    ranked = rank_genes_bw(expr)
    x = np.array(vals[0])
    overall = x.mean()
    bss = 2 * (x[:2].mean() - overall) ** 2 + 2 * (x[2:].mean() - overall) ** 2
    wss = ((x[:2] - x[:2].mean()) ** 2).sum() + ((x[2:] - x[2:].mean()) ** 2).sum()
    assert ranked[0][2] == pytest.approx(bss / wss, rel=1e-12)


def test_rank_genes_planted_informative():
    expr, planted = gen_expression(n_genes=100, n_samples=40, n_informative=5,
                                   shift=3.0, seed=6, class_sizes=(25, 15))
    top10 = {g for g, _, _ in rank_genes_bw(expr)[:10]}
    assert set(planted) <= top10


def test_rank_genes_affine_invariance(rng):
    expr, _ = gen_expression(n_genes=30, n_samples=20, n_informative=3,
                             seed=7, class_sizes=(12, 8))
    scores = {g: s for g, _, s in rank_genes_bw(expr)}
    scale = rng.uniform(0.5, 3.0, size=30)
    shift = rng.normal(size=30)
    transformed = _tiny_expr(expr.values * scale[:, None] + shift[:, None],
                             expr.sample_labels)
    scores2 = {g: s for g, _, s in rank_genes_bw(transformed)}
    for g in scores:
        assert scores2[g] == pytest.approx(scores[g], rel=1e-10)


def test_rank_genes_training_subset_only():
    expr, _ = gen_expression(n_genes=20, n_samples=20, n_informative=2,
                             seed=8, class_sizes=(12, 8))
    full = rank_genes_bw(expr)
    sub = rank_genes_bw(expr, sample_indices=[0, 1, 2, 3, 4, 12, 13, 14, 15])
    assert full != sub


def test_rank_genes_needs_two_classes():
    expr = _tiny_expr([[1.0, 2.0]], ["a", "a"])
    with pytest.raises(ValueError, match="two classes"):
        rank_genes_bw(expr)


# -- splits -----------------------------------------------------------------


def test_make_splits_shapes():
    plan = SplitPlan(repetitions=200, train_size=48, test_size=24, seed=0)
    splits = make_splits(72, plan)
    assert len(splits) == 200
    for train, test in splits[:10]:
        assert len(train) == 48 and len(test) == 24
        merged = np.sort(np.concatenate([train, test]))
        assert np.array_equal(merged, np.arange(72))


def test_make_splits_reproducible():
    plan = SplitPlan(repetitions=5, train_size=10, test_size=5, seed=3)
    a = make_splits(15, plan)
    b = make_splits(15, plan)
    for (t1, s1), (t2, s2) in zip(a, b):
        assert np.array_equal(t1, t2) and np.array_equal(s1, s2)


def test_make_splits_size_mismatch():
    with pytest.raises(ValueError, match="must equal"):
        make_splits(71, SplitPlan())


def test_splitmix_is_fixed():
    # pinned values so the split derivation can never drift silently
    assert splitmix64(0, 0) == 16294208416658607535
    assert splitmix64(42, 7) != splitmix64(42, 8)


# -- CSV round trips ---------------------------------------------------------


def test_features_csv_round_trip(tmp_path, rng):
    from permclass.classify import LabeledDataset
    data = LabeledDataset(points=rng.normal(size=(3, 2)),
                          labels=np.array([0, 1, 0]), n_classes=2,
                          class_names=("alpha", "beta"))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    save_features_csv(str(p1), data, header_lines=["x"])
    loaded = load_features_csv(str(p1))
    assert np.array_equal(loaded.points, data.points)
    assert loaded.class_names == ("alpha", "beta")
    save_features_csv(str(p2), loaded, header_lines=["x"])
    assert p1.read_bytes() == p2.read_bytes()


def test_features_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x0,x1,label\n1.0,2.0,a\n3.0,b\n")
    with pytest.raises(ValueError, match=":3"):
        load_features_csv(str(bad))
    nolabel = tmp_path / "nolabel.csv"
    nolabel.write_text("x0,x1\n1.0,2.0\n")
    with pytest.raises(ValueError, match="label"):
        load_features_csv(str(nolabel))
    load_features_csv(str(nolabel), require_label=False)


def test_features_csv_rejects_non_finite_cells(tmp_path):
    for cell in ("nan", "inf", "-inf"):
        bad = tmp_path / f"{cell}.csv"
        bad.write_text(f"x0,x1,label\n1.0,2.0,a\n3.0,{cell},b\n")
        with pytest.raises(ValueError, match=rf"{bad}:3: column 'x1' is not finite"):
            load_features_csv(str(bad))


def _write_expr(tmp_path, expr_text, label_text):
    e = tmp_path / "expr.csv"
    l = tmp_path / "labels.csv"
    e.write_text(expr_text)
    l.write_text(label_text)
    return str(e), str(l)


def test_expression_csv_round(tmp_path):
    e, l = _write_expr(
        tmp_path,
        "gene_id,S0,S1,S2\n# a comment\nG0,1.0,2.0,3.0\nG1,4.0,5.0,6.0\n",
        "sample,label\nS0,ALL\nS1,ALL\nS2,AML\n")
    expr = load_expression_csv(e, l)
    assert expr.n_genes == 2 and expr.n_samples == 3
    assert expr.sample_labels == ["ALL", "ALL", "AML"]


def test_expression_csv_drops_missing_rows(tmp_path, caplog):
    e, l = _write_expr(
        tmp_path,
        "gene_id,S0,S1\nG0,1.0,\nG1,2.0,3.0\n",
        "sample,label\nS0,a\nS1,b\n")
    expr = load_expression_csv(e, l)
    assert expr.gene_ids == ["G1"]


def test_expression_csv_rejects_infinite_cells(tmp_path):
    for cell in ("inf", "-inf", "Infinity"):
        e, l = _write_expr(
            tmp_path,
            f"gene_id,S0,S1\nG0,1.0,2.0\nG1,3.0,{cell}\n",
            "sample,label\nS0,a\nS1,b\n")
        with pytest.raises(ValueError, match=rf"{e}:3: sample 'S1' is not finite"):
            load_expression_csv(e, l)


def test_expression_csv_label_errors(tmp_path):
    e, l = _write_expr(
        tmp_path,
        "gene_id,S0,S1\nG0,1.0,2.0\n",
        "sample,label\nS0,a\n")
    with pytest.raises(ValueError, match="no label"):
        load_expression_csv(e, l)
    e2, l2 = _write_expr(
        tmp_path,
        "gene_id,S0\nG0,1.0\n",
        "sample,label\nS0,a\nS9,b\n")
    with pytest.raises(ValueError, match="unknown samples"):
        load_expression_csv(e2, l2)


def test_golub_shape_sidecar(tmp_path):
    # 72 samples with 47/25 labels are accepted as-is
    ids = [f"S{i:02d}" for i in range(72)]
    header = "gene_id," + ",".join(ids)
    row = "G0," + ",".join("1.0" for _ in ids)
    labels = "sample,label\n" + "\n".join(
        f"{s},{'ALL' if i < 47 else 'AML'}" for i, s in enumerate(ids))
    e, l = _write_expr(tmp_path, header + "\n" + row + "\n", labels + "\n")
    expr = load_expression_csv(e, l)
    assert expr.sample_labels.count("ALL") == 47
    assert expr.sample_labels.count("AML") == 25


def test_gen_expression_shape():
    expr, planted = gen_expression(seed=0)
    assert expr.values.shape == (500, 72)
    assert len(planted) == 5
    assert expr.sample_labels.count("ALL") == 47


def test_two_axis_projection_separates_classes():
    expr, _ = gen_expression(n_genes=60, n_samples=30, n_informative=4,
                             seed=9, class_sizes=(18, 12))
    coords = two_axis_projection(expr)
    assert coords.shape == (30, 2)
    codes, _ = expr.label_codes()
    m0 = coords[codes == 0, 0].mean()
    m1 = coords[codes == 1, 0].mean()
    assert abs(m0 - m1) > 1.0
