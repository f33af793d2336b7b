import math

import numpy as np
import pytest

from conftest import augment
from permclass.benchmarks import StudyConfig, accuracy_study, bench_orders
from permclass.classify import LabeledDataset, ModelParams, fit, predict
from permclass.cyclic import ratio_from_kt
from permclass.datasets import gen_triangular
from permclass.exact import ratio_exact_matrix
from permclass.kernels import Kernel


def test_bench_report_structure():
    report = bench_orders([16, 32], orders=(0, 1), queries=4, warmup=1,
                          target_time=1e-4, seed=0)
    assert report.sizes == [16, 32]
    by_order = {t.order: t for t in report.timings}
    assert set(by_order) == {0, 1}
    assert all(m > 0 for m in by_order[1].medians)
    assert by_order[1].slope is not None
    blob = report.to_dict()
    assert blob["timings"][0]["median_seconds"]


def test_bench_rejects_unsorted_sizes():
    with pytest.raises(ValueError, match="ascending"):
        bench_orders([32, 16])


def test_accuracy_study_smoke():
    cfg = StudyConfig(n=24, t_points=17, subsample=6, oracle_points=5, seed=5)
    report = accuracy_study(cfg)
    for k in (1, 2, 3):
        assert report.curves[k].shape == (17,)
        assert (report.curves[k] > 0).all()
        assert report.prob_curves[k].shape == (17,)
    # refinement: later orders sit closer together than earlier ones
    assert report.gap_32 < report.gap_21
    assert report.oracle_rel_err[3] < report.oracle_rel_err[1]
    summary = report.summary_dict()
    assert summary["config"]["central_peak"] == "|t| <= 0.5"
    assert summary["config"]["t_range"] == [-math.pi, math.pi]
    assert summary["config"]["class2_range"] == [math.pi, 3 * math.pi]
    assert summary["config"]["seed"] == 5


def test_accuracy_study_reads_its_curves_from_predict(monkeypatch):
    import permclass.benchmarks as bench_mod
    import permclass.cyclic as cyclic_mod
    cfg = StudyConfig(n=24, t_points=17, subsample=6, oracle_points=5, seed=5)
    reference_calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            reference_calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for mod in (cyclic_mod, bench_mod):
        for name in ("ratio_approx", "ratio_from_kt"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    answered = []
    rows = cyclic_mod.RatioTable.rows

    def recorded(table, Kt, ktt, *n_queries):
        answered.append((table, Kt, ktt, rows(table, Kt, ktt, *n_queries)))
        return answered[-1][-1]

    monkeypatch.setattr(cyclic_mod.RatioTable, "rows", recorded)
    report = accuracy_study(cfg)
    monkeypatch.undo()
    assert reference_calls == []
    # the curves are class 1's raw weights, bit for bit
    x1 = gen_triangular(cfg.n, 0.0, math.pi, seed=cfg.seed).reshape(-1, 1)
    x2 = gen_triangular(cfg.n, 2 * math.pi, math.pi, seed=cfg.seed + 1).reshape(-1, 1)
    data = LabeledDataset(points=np.vstack([x1, x2]),
                          labels=np.repeat([0, 1], cfg.n), n_classes=2)
    kernel = Kernel.gaussian(cfg.tau)
    for k in (1, 2, 3):
        model = fit(data, ModelParams(kernel=kernel, alphas=cfg.alpha, order=k))
        post = predict(model, report.t_grid.reshape(-1, 1))
        assert np.array_equal(report.curves[k], post.raw[:, 0])
        assert np.array_equal(report.prob_curves[k], post.probs[:, 0])
    # the oracle's order-k tables agree with the single-query sums
    oracle = [(t, Kt, ktt, got) for t, Kt, ktt, got in answered
              if t.gram.n == cfg.subsample]
    assert sorted(t.order for t, *_ in oracle) == [1, 2, 3]
    for table, Kt, ktt, got in oracle:
        ref = [ratio_from_kt(table, kt, tt) for kt, tt in zip(Kt, ktt)]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


def test_accuracy_study_refuses_a_grid_that_misses_the_central_peak(monkeypatch):
    import permclass.benchmarks as bench_mod
    fits = []
    monkeypatch.setattr(bench_mod, "fit", lambda *args: fits.append(args))
    for t_points in (0, 1, 2, 4, 6):
        with pytest.raises(ValueError, match=f"t_points = {t_points} puts no grid "
                                             r"point in the central peak \|t\| <= 0.5"):
            accuracy_study(StudyConfig(n=24, t_points=t_points))
    assert fits == []


def test_accuracy_study_refuses_fewer_points_than_the_oracle_subsample(monkeypatch):
    import permclass.benchmarks as bench_mod
    fits = []
    monkeypatch.setattr(bench_mod, "fit", lambda *args: fits.append(args))
    for n, subsample in ((5, 10), (5, 6), (0, 10)):
        with pytest.raises(ValueError, match=f"n = {n} is below the oracle subsample "
                                             f"of {subsample} points"):
            accuracy_study(StudyConfig(n=n, subsample=subsample))
    assert fits == []


def test_accuracy_study_computes_the_training_permanent_once(monkeypatch):
    import permclass.exact as exact_mod
    cfg = StudyConfig(n=24, t_points=17, subsample=6, oracle_points=5, seed=5)
    per_alpha, rows = exact_mod.per_alpha_exact, exact_mod._PerTable.rows
    calls, oracle = [], []

    def counted(A, alpha):
        calls.append(np.shape(A)[0])
        return per_alpha(A, alpha)

    def recorded(table, Kt, ktt):
        oracle.append((table.gram.entries, Kt, ktt, table.alpha, rows(table, Kt, ktt)))
        return oracle[-1][-1]

    monkeypatch.setattr(exact_mod, "per_alpha_exact", counted)
    monkeypatch.setattr(exact_mod._PerTable, "rows", recorded)
    accuracy_study(cfg)
    monkeypatch.undo()
    # the training permanent once, then one bordered matrix per oracle point
    assert calls == [cfg.subsample] + [cfg.subsample + 1] * cfg.oracle_points
    (G, Kt, ktt, alpha, got), = oracle
    assert len(got) == cfg.oracle_points
    for kt, tt, value in zip(Kt, ktt, got):
        assert value == ratio_exact_matrix(augment(G, kt, tt), alpha)
