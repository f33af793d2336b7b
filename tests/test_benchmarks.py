import numpy as np
import pytest

from conftest import augment
from permclass.benchmarks import StudyConfig, accuracy_study, bench_orders
from permclass.exact import ratio_exact_matrix


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
    assert summary["config"]["seed"] == 5


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
