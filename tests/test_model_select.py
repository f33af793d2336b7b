import math

import numpy as np
import pytest

from conftest import (cross_validate_reference, median_distance_one_shot,
                      projection_kernel, sym_nonneg)
import permclass.model_select as model_select
from permclass.classify import LabeledDataset, ModelParams, fit, predict
from permclass.datasets import gen_chequerboard, gen_grid_testset
from permclass.kernels import _BLOCK_ENTRIES, Kernel
from permclass.model_select import (OBJECTIVES, CandidateResult, CVSpec, cross_entropy,
                                    cross_validate, default_grid, error_rate,
                                    fold_assignment, median_pairwise_distance)
from permclass.model_select import _runs, _winner


def test_fold_assignment_deterministic():
    a = fold_assignment(20, 4, seed=7)
    b = fold_assignment(20, 4, seed=7)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = fold_assignment(20, 4, seed=8)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_fold_assignment_partitions():
    folds = fold_assignment(23, 5, seed=0)
    merged = np.sort(np.concatenate(folds))
    assert np.array_equal(merged, np.arange(23))
    sizes = sorted(len(f) for f in folds)
    assert sizes == [4, 4, 5, 5, 5]


def test_fold_assignment_stratified():
    labels = np.array([0] * 12 + [1] * 8)
    folds = fold_assignment(20, 4, seed=1, labels=labels, stratified=True)
    for f in folds:
        counts = np.bincount(labels[f], minlength=2)
        assert counts[0] == 3 and counts[1] == 2


def test_cross_entropy_values():
    probs = np.array([[1.0, 0.0]])
    assert cross_entropy(probs, [0]) == 0.0
    probs = np.array([[0.5, 0.5]])
    assert cross_entropy(probs, [1]) == pytest.approx(math.log(2.0), rel=1e-12)
    probs = np.array([[1.0, 0.0]])
    assert cross_entropy(probs, [1]) == pytest.approx(-math.log(1e-12), rel=1e-12)


def test_error_rate_range(rng):
    probs = rng.random((10, 3))
    probs /= probs.sum(axis=1, keepdims=True)
    e = error_rate(probs, rng.integers(0, 3, size=10))
    assert 0.0 <= e <= 1.0


def test_single_candidate_wins(rng):
    data = gen_chequerboard(2, seed=0)
    grid = [ModelParams(kernel=Kernel.exponential(0.5), alphas=1.0, order=1)]
    report = cross_validate(data, CVSpec(grid=grid, folds=3, seed=0))
    assert report.winner_index == 0


def test_tie_breaks_deterministically(rng):
    data = gen_chequerboard(2, seed=0)
    cand = ModelParams(kernel=Kernel.exponential(0.5), alphas=1.0, order=1)
    report = cross_validate(data, CVSpec(grid=[cand, cand], folds=3, seed=0))
    assert report.results[0].mean == report.results[1].mean
    assert report.winner_index == 0
    # a smaller tau wins an exact tie before list position
    small = ModelParams(kernel=Kernel.exponential(0.25), alphas=1.0, order=1)
    big = ModelParams(kernel=Kernel.exponential(0.5), alphas=1.0, order=1)
    rep2 = cross_validate(data, CVSpec(grid=[big, small], folds=3, seed=0))
    if rep2.results[0].mean == rep2.results[1].mean:
        assert rep2.winner is small


def test_invalid_candidate_is_isolated(rng):
    data = gen_chequerboard(2, seed=0)
    bad = ModelParams(kernel=Kernel.exponential(0.5), alphas=(1.0, 1.0, 1.0),
                      order=1)  # three alphas for two classes
    good = ModelParams(kernel=Kernel.exponential(0.5), alphas=1.0, order=1)
    report = cross_validate(data, CVSpec(grid=[bad, good], folds=3, seed=0))
    assert not report.results[0].valid
    assert report.results[0].mean == float("inf")
    assert report.winner_index == 1


def test_sweep_without_a_valid_candidate_has_no_winner():
    data = gen_chequerboard(2, seed=0)
    grid = [ModelParams(kernel=Kernel.exponential(0.5), alphas=(1.0, 1.0, 1.0), order=1),
            ModelParams(kernel=Kernel.exponential(0.5), alphas=-1.0, order=1)]
    with pytest.raises(ValueError, match="no candidate is valid; the first failed "
                                         "with ValueError: .*per-class alphas"):
        cross_validate(data, CVSpec(grid=grid, folds=3, seed=0))


def test_winner_breaks_equal_means_by_tau_then_alpha_then_position():
    def result(tau, alphas, mean):
        return CandidateResult(ModelParams(kernel=Kernel.gaussian(tau), alphas=alphas),
                               [mean], mean)
    results = [result(0.5, 1.0, 0.25),          # 0: a larger mean
               result(1.0, 0.5, 0.125),         # 1: the larger tau
               result(0.5, 2.0, 0.125),         # 2: the larger alpha
               result(0.5, (4.0, 1.0), 0.125),  # 3: per-class alphas, smallest 1
               result(0.5, 1.0, 0.125),         # 4: the same key as 3, later
               # 5: invalid, whatever its smaller tau
               CandidateResult(ModelParams(kernel=Kernel.gaussian(0.1)), [],
                               float("inf"), False, "ValueError: bad")]
    assert _winner(results, range(6)) == 3
    assert _winner(results, [4, 3]) == 3
    assert _winner(results, [1, 4]) == 4
    assert _winner(results, [0, 1, 2]) == 2
    assert _winner(results, [0, 1]) == 1
    assert _winner(results, [5, 0]) == 0


def test_winner_of_a_slice_with_no_valid_candidate_raises_its_own_first_message():
    # the exponential slice is valid but for its first candidate; the
    # gaussian slice is all invalid, and raises its own first message, the
    # one a sweep over it alone raises, not the grid's first failure
    data = gen_chequerboard(2, seed=0)
    exponential = [ModelParams(kernel=Kernel.exponential(0.5), alphas=a, order=3)
                   for a in (-1.0, 1.0)]
    gaussian = [ModelParams(kernel=Kernel.gaussian(0.5), alphas=a, order=3)
                for a in ((1.0, 1.0, 1.0), -1.0)]
    report = cross_validate(data, CVSpec(grid=exponential + gaussian, folds=3, seed=0))
    assert report.winner_index == _winner(report.results, range(2)) == 1
    with pytest.raises(ValueError) as alone:
        cross_validate(data, CVSpec(grid=gaussian, folds=3, seed=0))
    with pytest.raises(ValueError, match="no candidate is valid; the first failed "
                                         "with ValueError: .*per-class alphas") as merged:
        _winner(report.results, range(2, 4))
    assert str(merged.value) == str(alone.value)


def test_programming_errors_are_not_isolated(monkeypatch):
    # only ValueError/ArithmeticError mark a candidate invalid; anything
    # else is a bug and must surface instead of becoming an inf score,
    # whether it comes from the shared kernel stage or a candidate's alpha
    import permclass.model_select as ms
    from permclass.cyclic import _FitCore

    def broken(*args):
        raise TypeError("unsupported operand")

    data = gen_chequerboard(2, seed=0)
    grid = [ModelParams(kernel=Kernel.exponential(0.5), alphas=1.0, order=1)]
    for owner, stage in ((ms, "_fit_kernel"), (_FitCore, "finish")):
        with monkeypatch.context() as patch:
            patch.setattr(owner, stage, broken)
            with pytest.raises(TypeError, match="unsupported operand"):
                cross_validate(data, CVSpec(grid=grid, folds=3, seed=0))


def test_missing_class_fold_is_permitted():
    # 3 points of class 1 vs 9 of class 0 with 3 folds: some training
    # folds may see class 1 underrepresented; the run must not fail
    pts = np.vstack([np.random.default_rng(0).normal(size=(9, 2)),
                     np.random.default_rng(1).normal(size=(3, 2)) + 4.0])
    data = LabeledDataset(points=pts, labels=np.array([0] * 9 + [1] * 3),
                          n_classes=2)
    grid = [ModelParams(kernel=Kernel.gaussian(1.0), alphas=1.0, order=1)]
    report = cross_validate(data, CVSpec(grid=grid, folds=3, seed=5))
    assert report.results[0].valid


def test_objective_invariant_under_within_fold_permutation(rng):
    data = gen_chequerboard(3, seed=2)
    spec = CVSpec(grid=[ModelParams(kernel=Kernel.exponential(0.5), alphas=1.0,
                                    order=1)], folds=3, seed=11)
    base = cross_validate(data, spec)
    # permute rows within each fold's index set: fold contents unchanged
    folds = fold_assignment(data.n, 3, seed=11)
    perm = np.arange(data.n)
    shuffle_rng = np.random.default_rng(99)
    for f in folds:
        perm[f] = shuffle_rng.permutation(f)
    permuted = LabeledDataset(points=data.points[perm], labels=data.labels[perm],
                              n_classes=2, class_names=data.class_names)
    again = cross_validate(permuted, spec)
    assert again.results[0].mean == pytest.approx(base.results[0].mean,
                                                  abs=1e-12)


def test_default_grid_shape(rng):
    pts = rng.normal(size=(12, 2))
    grid = default_grid(pts)
    assert len(grid) == 2 * 5 * 5
    med = median_pairwise_distance(pts)
    taus = sorted({p.kernel.tau for p in grid})
    assert taus == sorted(s * med for s in (0.25, 0.5, 1.0, 2.0, 4.0))


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
def test_median_distance_matches_one_shot_formula(d):
    # 101 points split into row blocks at every d, 301 into several
    # triangular blocks; each of the 30-point sets has an odd pair count, so
    # its median is one distance
    rng = np.random.default_rng(300 + d)
    for n in (101,) + (30,) * 10 + (301,):
        pts = rng.normal(size=(n, d)) * rng.lognormal(size=d)
        assert median_pairwise_distance(pts) == median_distance_one_shot(pts)


def test_median_distance_rejects_non_finite_points():
    pts = np.zeros((5, 2))
    pts[3, 1] = np.nan
    with pytest.raises(ValueError, match="point row 3, column 1 is not finite"):
        median_pairwise_distance(pts)


def test_report_serializes(rng):
    import json
    data = gen_chequerboard(2, seed=0)
    grid = [ModelParams(kernel=Kernel.exponential(0.5), alphas=1.0, order=1)]
    report = cross_validate(data, CVSpec(grid=grid, folds=3, seed=0))
    blob = json.dumps(report.to_dict(), sort_keys=True)
    assert "winner" in blob


def test_spec_validation():
    good = [ModelParams(kernel=Kernel.gaussian(1.0))]
    with pytest.raises(ValueError, match="folds"):
        CVSpec(grid=good, folds=1)
    # 2.5 used to run as 2 folds and be reported as 2.5
    for folds in (2.5, 3.0, True, np.bool_(True), "3"):
        with pytest.raises(ValueError, match=rf"folds must be an integer, got {folds!r}"):
            CVSpec(grid=good, folds=folds)
    assert CVSpec(grid=good, folds=np.int64(3)).folds == 3
    with pytest.raises(ValueError, match="objective"):
        CVSpec(grid=good, objective="auc")
    with pytest.raises(ValueError, match="empty"):
        CVSpec(grid=[])


def test_family_selection_trend():
    # the two families' best CV scores sit within about one training error
    # of each other, so the selection split is sensitive to the fold
    # protocol: stratified folds (used here) select the exponential kernel
    # 11/20, unstratified folds flip the split to 4/16
    k1_selected = k2_selected = 0
    for seed in range(20):
        data = gen_chequerboard(10, seed=seed)
        grid = [ModelParams(kernel=Kernel(fam, tau=t), alphas=a, order=3)
                for fam in ("exponential", "gaussian")
                for t in (0.25, 0.5, 1.0, 2.0) for a in (0.5, 1.0, 2.0)]
        report = cross_validate(data, CVSpec(grid=grid, folds=10,
                                             objective="error", seed=seed,
                                             stratified=True))
        if report.winner.kernel.family.value == "exponential":
            k1_selected += 1
        else:
            k2_selected += 1
    assert k1_selected >= k2_selected


# -- the grouped sweep against one fit per candidate and fold ------------


def _assert_matches_reference(data, grid, folds=3, seed=0, stratified=(False, True)):
    """Equal reports for both objectives and the given fold protocols; the
    results keep the grid's order and its own parameter objects."""
    reports = []
    for objective in OBJECTIVES:
        for strat in stratified:
            spec = CVSpec(grid=grid, folds=folds, objective=objective, seed=seed,
                          stratified=strat)
            got = cross_validate(data, spec)
            assert got.to_dict() == cross_validate_reference(data, spec).to_dict()
            assert all(r.params is p for r, p in zip(got.results, grid))
            reports.append(got)
    return reports


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_grouped_cv_matches_reference_default_grid(order):
    data = gen_chequerboard(2, seed=order)
    _assert_matches_reference(data, default_grid(data.points, order=order))


def test_grouped_cv_matches_reference_exact_order():
    data = gen_chequerboard(1, seed=4)
    grid = [ModelParams(kernel=Kernel(fam, tau=t), alphas=a, order="exact")
            for fam in ("exponential", "gaussian") for t in (0.5, 2.0)
            for a in (0.5, 2.0, (1.0, 3.0))]
    _assert_matches_reference(data, grid)


def test_grouped_cv_matches_reference_scattered_and_repeated_kernels():
    data = gen_chequerboard(2, seed=7)
    grid = default_grid(data.points, tau_scales=(0.5, 2.0), alphas=(0.5, 1.0, 4.0),
                        order=2)
    grid = [grid[i] for i in np.random.default_rng(3).permutation(len(grid))]
    # the same object twice, and an equal kernel built separately
    twin = ModelParams(kernel=Kernel(grid[2].kernel.family, tau=grid[2].kernel.tau),
                       alphas=grid[2].alphas, order=2)
    grid = grid + [grid[5], twin, grid[0]]
    reports = _assert_matches_reference(data, grid)
    assert reports[0].results[-3].fold_scores == reports[0].results[5].fold_scores


def test_grouped_cv_matches_reference_per_class_alphas():
    data = gen_chequerboard(2, seed=8)
    grid = [ModelParams(kernel=Kernel.gaussian(t), alphas=a, order=order)
            for order in (1, 3) for t in (0.3, 1.0)
            for a in ((0.5, 2.0), 1.0, (2.0, 0.5), (0.5, 2.0))]
    _assert_matches_reference(data, grid)


def test_grouped_cv_isolates_invalid_candidates_like_reference():
    data = gen_chequerboard(2, seed=9)
    gauss = Kernel.gaussian(0.5)
    zero_diagonal = projection_kernel(data.points, np.zeros(data.n))  # Gram diagonal 0
    grid = [
        ModelParams(kernel=gauss, alphas=(1.0, 1.0, 1.0), order=3),  # wrong length
        ModelParams(kernel=gauss, alphas=1.0, order=3),
        ModelParams(kernel=zero_diagonal, alphas=1.0, order=2),
        ModelParams(kernel=gauss, alphas=-1.0, order=3),
        ModelParams(kernel=zero_diagonal, alphas=0.5, order=2),
        ModelParams(kernel=zero_diagonal, alphas=0.0, order=2),  # alpha error first
        ModelParams(kernel=gauss, alphas=2.0, order=3),
    ]
    report = _assert_matches_reference(data, grid)[0]
    assert [r.valid for r in report.results] == [False, True, False, False,
                                                 False, False, True]
    messages = [r.message for r in report.results]
    assert "per-class alphas" in messages[0]
    assert "positive" in messages[3] and "positive" in messages[5]
    assert "gram diagonal" in messages[2] and messages[2] == messages[4]


def test_grouped_cv_isolates_degenerate_candidates_like_reference():
    # exact order under diagonal kernels: a point whose K(x, x) is
    # 0 zeroes its class's alpha-permanent while it trains (ZeroDivisionError)
    # and every class weight while it is held out (degenerate weights)
    data = gen_chequerboard(1, seed=10)
    folds = fold_assignment(data.n, 3, seed=0)

    def zero_at(i):
        return projection_kernel(data.points, np.arange(data.n) != i)

    grid = [ModelParams(kernel=zero_at(folds[0][0]), alphas=1.0, order="exact"),
            ModelParams(kernel=zero_at(folds[2][0]), alphas=1.0, order="exact"),
            ModelParams(kernel=projection_kernel(data.points, np.ones(data.n)),
                        alphas=1.0, order="exact")]
    report = _assert_matches_reference(data, grid, stratified=(False,))[0]
    assert "degenerate kernel" in report.results[0].message
    assert report.results[1].message.startswith("ZeroDivisionError")
    assert report.results[2].valid


def test_grouped_cv_marks_every_alpha_of_a_zero_exact_denominator():
    # over a nonnegative Gram the exact-order denominator is zero for every
    # alpha > 0 or for none, so a zero one marks each alpha of the kernel,
    # as one fit per candidate does
    data = gen_chequerboard(1, seed=10)
    folds = fold_assignment(data.n, 3, seed=0)
    zero = projection_kernel(data.points, np.arange(data.n) != folds[2][0])
    grid = [ModelParams(kernel=zero, alphas=a, order="exact")
            for a in (0.5, 2.0, (1.0, 3.0))]
    grid.append(ModelParams(kernel=projection_kernel(data.points, np.ones(data.n)),
                            alphas=1.0, order="exact"))
    report = _assert_matches_reference(data, grid, stratified=(False,))[0]
    for r in report.results[:3]:
        assert not r.valid and r.message.startswith("ZeroDivisionError")
    assert report.results[3].valid


def test_grouped_cv_marks_only_the_alpha_whose_exact_denominator_underflows():
    # at alpha = 1e-300 every term alpha^cycles times a product of
    # narrow-kernel entries underflows to 0, at alpha = 1 the identity term
    # is 1: the exact order answers its alphas one at a time, so only the
    # tiny alpha's candidate is marked
    data = gen_chequerboard(1, seed=4)
    grid = [ModelParams(kernel=Kernel.gaussian(0.1), alphas=a, order="exact")
            for a in (1e-300, 1.0)]
    report = _assert_matches_reference(data, grid, stratified=(False,))[0]
    assert report.results[0].message.startswith("ZeroDivisionError")
    assert report.results[1].valid


def test_runs_bound_the_stacked_arrays(monkeypatch):
    # a run packs kernels with equal numbers of live candidates, fewest
    # first, while its stacked cores (per kernel: the classes' Gram matrices,
    # three such arrays at order 3, and the held-out blocks) and its
    # candidates' stacked tables (per candidate at order 3: each class's
    # T^T, and its four-cycle matrix M where a held-out block has at least
    # n_r rows; below order 3 each class's first held-out block) each stay
    # within _STACK_ENTRIES; ``step`` candidates of a lone kernel are
    # finished at a time
    k = [Kernel.gaussian(t) for t in (0.1, 0.2, 0.3, 0.4, 0.5)]
    groups = [(k[0], [0, 1, 2]), (k[1], [3, 4]), (k[2], [5, 6, 7]), (k[3], [8, 9]),
              (k[4], [10, 11, 12])]
    sizes, queries = [30, 40], 9
    per_kernel = 3 * (30**2 + 40**2) + queries * 70  # order 3
    per_candidate = 30**2 + 40**2  # 9 held-out rows build no M
    assert _runs(groups, sizes, queries, 3) == (
        [[groups[1], groups[3]], [groups[0], groups[2], groups[4]]],
        model_select._STACK_ENTRIES // per_candidate)
    # 35 rows reach the 30-point class, 45 both: their M count too
    assert _runs(groups, sizes, 35, 3)[1] == model_select._STACK_ENTRIES // (per_candidate + 900)
    assert _runs(groups, sizes, 45, 3)[1] == model_select._STACK_ENTRIES // (2 * per_candidate)
    # below order 3 a candidate counts its blocks' entries, at most one
    # block of rows per class
    rows = [_BLOCK_ENTRIES // 30, _BLOCK_ENTRIES // 40]
    assert _runs(groups, sizes, queries, 1)[1] == model_select._STACK_ENTRIES // (queries * 70)
    assert _runs(groups, sizes, 2000, 2)[1] == (model_select._STACK_ENTRIES
                                                 // (rows[0] * 30 + rows[1] * 40))
    # M is counted by all the held-out rows, not by one block's: 300 rows
    # against a 200-point class come in blocks of 81
    assert _BLOCK_ENTRIES // 200 < 200
    assert _runs(groups, [200], 300, 3)[1] == model_select._STACK_ENTRIES // (2 * 200**2)
    by_count = [groups[i] for i in (1, 3, 0, 2, 4)]
    assert _runs(groups, sizes, queries, "exact") == ([[g] for g in by_count], 1)
    # two kernels' cores fit, and so do two kernels of three candidates
    # (6 x 2,500 entries), but not three kernels
    monkeypatch.setattr(model_select, "_STACK_ENTRIES", 2 * per_kernel)
    runs, step = _runs(groups, sizes, queries, 3)
    assert runs == [[groups[1], groups[3]], [groups[0], groups[2]], [groups[4]]]
    assert step == 2 * per_kernel // per_candidate == 6
    # at 45 rows, where each candidate also holds both classes' M, two
    # kernels of two candidates (4 x 5,000 entries) fit, two of three
    # (6 x 5,000) do not
    per_kernel = 3 * (30**2 + 40**2) + 45 * 70
    monkeypatch.setattr(model_select, "_STACK_ENTRIES", 2 * per_kernel)
    runs, step = _runs(groups, sizes, 45, 3)
    assert runs == [[groups[1], groups[3]], [groups[0]], [groups[2]], [groups[4]]]
    assert step == 2 * per_kernel // (2 * per_candidate) == 4
    # at order 1 the candidates' bound binds first: two kernels' cores (the
    # Gram matrices and 40 held-out rows each) fit, but two kernels of two
    # candidates would stack four blocks of 40 x 70 entries
    monkeypatch.setattr(model_select, "_STACK_ENTRIES", 11000)
    runs, step = _runs(groups, sizes, 40, 1)
    assert 2 * (30**2 + 40**2 + 40 * 70) <= 11000 < 4 * 40 * 70
    assert runs == [[g] for g in by_count] and step == 3
    assert _runs(groups[1:2], [0, 0], queries, 3) == ([groups[1:2]], 11000)
    monkeypatch.setattr(model_select, "_STACK_ENTRIES", 1)
    assert _runs(groups, sizes, queries, 2) == ([[g] for g in by_count], 1)


@pytest.mark.parametrize("order", [1, 3])
def test_grouped_cv_matches_reference_in_bounded_runs(monkeypatch, order):
    # an order-1 candidate holds its q held-out rows against each class, q x
    # (n - q) entries: a budget of two candidates at order 1, and of less
    # than one at order 3, splits each kernel's five alphas into finishes
    data = gen_chequerboard(2, seed=11)
    q = data.n // 3  # three equal folds
    monkeypatch.setattr(model_select, "_STACK_ENTRIES", 2 * q * (data.n - q) if order == 1 else 1)
    seen = []
    runs = model_select._runs
    monkeypatch.setattr(model_select, "_runs",
                        lambda *args: seen.append(runs(*args)) or seen[-1])
    grid = default_grid(data.points, tau_scales=(0.5, 2.0),
                        alphas=(0.5, 1.0, (2.0, 0.5), 4.0, 1.0), order=order)
    _assert_matches_reference(data, grid)
    assert {step for _, step in seen} == {2 if order == 1 else 1}


def test_grouped_cv_stops_at_the_same_fold_as_reference():
    # class 0 has 11 points; the fold that holds out only class-1 points
    # trains on all 11, one more than the exact size cap allows with the
    # query, so exact candidates fail there after scoring the folds before
    folds = fold_assignment(16, 4, seed=0)
    labels = np.zeros(16, dtype=int)
    labels[folds[2]] = 1
    labels[folds[0][0]] = 1
    pts = np.random.default_rng(11).random((16, 2)) * 3
    data = LabeledDataset(points=pts, labels=labels, n_classes=2)
    grid = [ModelParams(kernel=Kernel.gaussian(1.0), alphas=a, order=o)
            for o in ("exact", 2) for a in (0.5, 2.0)]
    report = _assert_matches_reference(data, grid, folds=4, stratified=(False,))[0]
    for r in report.results[:2]:
        assert not r.valid and len(r.fold_scores) == 2
        assert r.message.startswith("ExactSizeLimitError")
    assert all(r.valid for r in report.results[2:])


def test_grouped_cv_matches_reference_with_a_class_missing_from_a_fold():
    folds = fold_assignment(15, 3, seed=2)
    labels = np.zeros(15, dtype=int)
    labels[folds[1][:3]] = 1  # every class-1 point is held out together
    pts = np.random.default_rng(12).normal(size=(15, 2))
    data = LabeledDataset(points=pts, labels=labels, n_classes=2)
    grid = [ModelParams(kernel=Kernel(fam, tau=1.0), alphas=a, order=order)
            for fam in ("exponential", "gaussian") for order in (0, 3)
            for a in (0.5, (1.0, 2.0))]
    report = _assert_matches_reference(data, grid, seed=2)[0]
    assert all(r.valid for r in report.results)


def test_grouped_cv_matches_reference_mixing_kernel_families():
    # constant and projection kernels build their Grams and blocks directly,
    # the distance kernels from one set of squared distances per fold
    data = gen_chequerboard(2, seed=13)
    m = sym_nonneg(np.random.default_rng(13), data.n)
    grid = [ModelParams(kernel=k, alphas=a, order=order)
            for order in (1, 3)
            for k in (Kernel.constant(0.8), Kernel.gaussian(0.5), projection_kernel(data.points, m),
                      Kernel.exponential(1.0), Kernel.gaussian(2.0))
            for a in (0.5, 2.0)]
    _assert_matches_reference(data, grid)


def test_cv_computes_squared_distances_once_per_class_and_fold(sq_distance_calls):
    # a Gram and a held-out block per class and fold, however many distance
    # kernels the grid holds; a grid of none computes no distance
    data = gen_chequerboard(2, seed=14)
    one = [ModelParams(kernel=Kernel.gaussian(1.0), alphas=1.0, order=3)]
    many = default_grid(data.points, order=3) + [
        ModelParams(kernel=Kernel.constant(1.0), alphas=1.0, order=1),
        ModelParams(kernel=Kernel.exponential(1.0), alphas=2.0, order=2)]
    constant = [ModelParams(kernel=Kernel.constant(1.0), alphas=a, order=3) for a in (0.5, 2.0)]
    for grid, expected in ((one, 2 * 2 * 4), (many, 2 * 2 * 4), (constant, 0)):
        sq_distance_calls.clear()
        cross_validate(data, CVSpec(grid=grid, folds=4, seed=1))
        assert len(sq_distance_calls) == expected


# -- one stacked pass per order against one fit per candidate and fold ----


def test_stacked_sweep_matches_reference_mixing_orders_and_families():
    # every order 0-3 and the exact order, both distance families, in a
    # scattered grid: one pass per order, the finite ones stacked over kernels
    data = gen_chequerboard(1, seed=15)
    grid = [ModelParams(kernel=Kernel(fam, tau=t), alphas=a, order=o)
            for o in (0, 1, 2, 3, "exact") for fam in ("gaussian", "exponential")
            for t in (0.4, 1.5) for a in (0.5, 2.0)]
    grid = [grid[i] for i in np.random.default_rng(15).permutation(len(grid))]
    _assert_matches_reference(data, grid)


def test_stacked_sweep_matches_reference_with_nine_held_out_rows():
    # nine held-out rows a fold: a candidate's cross-entropy is a mean of
    # nine terms, which numpy sums pairwise, and each stacked candidate's
    # mean must sum its own row in the same way as one table's
    data = gen_chequerboard(3, seed=16)
    grid = default_grid(data.points, tau_scales=(0.5, 1.0, 2.0), alphas=(0.5, 2.0), order=3)
    _assert_matches_reference(data, grid)


def test_stacked_sweep_matches_reference_with_unequal_alpha_counts():
    # kernels with one, two and three alphas, some of them per class, land
    # in runs of equal counts
    data = gen_chequerboard(2, seed=17)
    grid = [ModelParams(kernel=Kernel(fam, tau=t), alphas=a, order=o)
            for t, alphas in ((0.3, (0.5,)), (0.7, (0.5, 1.0, (2.0, 0.5))),
                              (1.5, (1.0, 4.0)), (3.0, ((0.5, 2.0), 1.0, 2.0)))
            for fam in ("gaussian", "exponential") for a in alphas for o in (2, 3)]
    _assert_matches_reference(data, grid)


def test_stacked_sweep_isolates_refused_and_degenerate_kernels_like_reference():
    # stacked with distance kernels, a projection kernel with a zero Gram
    # diagonal entry and one whose held-out row weighs nothing (K(t, .) = 0)
    # mark only their own candidates, at every finite order
    data = gen_chequerboard(2, seed=9)
    folds = fold_assignment(data.n, 3, seed=0)
    refused = projection_kernel(data.points, np.arange(data.n) != folds[1][0])
    degenerate = projection_kernel(data.points, np.arange(data.n) != folds[0][0])
    kernels = (Kernel.gaussian(0.5), refused, Kernel.exponential(1.0), degenerate)
    grid = [ModelParams(kernel=k, alphas=a, order=o)
            for o in (1, 2, 3) for k in kernels for a in (0.5, 2.0)]
    report = _assert_matches_reference(data, grid, stratified=(False,))[0]
    for params, r in zip(grid, report.results):
        if params.kernel is refused:
            assert not r.valid and "gram diagonal" in r.message and not r.fold_scores
        elif params.kernel is degenerate:
            assert not r.valid and r.message == ("ValueError: degenerate kernel: "
                                                 "every class weight is zero")
        else:
            assert r.valid


@pytest.mark.parametrize("entries", [1, 1000])
def test_stacked_sweep_matches_reference_in_runs_split_across_kernels(monkeypatch, entries):
    # a budget of one entry runs every kernel alone, one candidate a finish;
    # the larger ones split a pass into runs of a few kernels each (an
    # order-1 candidate counts its six held-out rows against each class)
    monkeypatch.setattr(model_select, "_STACK_ENTRIES", entries)
    seen = []
    runs = model_select._runs
    monkeypatch.setattr(model_select, "_runs",
                        lambda *args: seen.append(runs(*args)) or seen[-1])
    data = gen_chequerboard(2, seed=18)
    grid = default_grid(data.points, tau_scales=(0.5, 1.0, 2.0), alphas=(0.5, 2.0),
                        order=3) + default_grid(data.points, tau_scales=(0.5, 1.0, 2.0),
                                                alphas=(1.0, 4.0, 0.5, 2.0), order=1)
    _assert_matches_reference(data, grid)
    widest = max(len(run) for pass_runs, _ in seen for run in pass_runs)
    assert widest == 1 if entries == 1 else 1 < widest < 6
    assert all(len(pass_runs) > 1 for pass_runs, _ in seen)


def test_stacked_sweep_reads_each_gram_diagonal_once_per_class_run_and_fold(monkeypatch):
    # a run builds each class's stacked core once and checks its Gram
    # matrices nowhere else: with no refused kernel `_gram_diagonal` runs
    # once per class, run and fold, not once more per kernel
    import permclass.cyclic as cyclic
    calls = []
    gram_diagonal = cyclic._gram_diagonal
    monkeypatch.setattr(cyclic, "_gram_diagonal",
                        lambda G: calls.append(G.shape) or gram_diagonal(G))
    seen = []
    runs = model_select._runs
    monkeypatch.setattr(model_select, "_runs",
                        lambda *args: seen.append(runs(*args)) or seen[-1])
    data = gen_chequerboard(2, seed=19)
    grid = default_grid(data.points, order=3) + default_grid(
        data.points, tau_scales=(0.5, 2.0), alphas=(1.0, 4.0), order=1)
    report = cross_validate(data, CVSpec(grid=grid, folds=4, seed=1))
    assert all(r.valid for r in report.results)
    n_runs = sum(len(pass_runs) for pass_runs, _ in seen)
    assert n_runs == 4 * 2  # every kernel of an order in one run
    assert len(calls) == data.n_classes * n_runs
    assert all(shape[0] > 1 for shape in calls)


def test_stacked_sweep_isolates_a_kernel_refused_while_its_stack_is_built():
    # a projection kernel whose ground set lacks one data point fails while
    # the stack is built, not while it is checked: at a Gram when the point
    # trains, at K(t, t) or a block when it is held out; stacked with
    # distance kernels at orders 1-3 it marks only its own candidates
    data = gen_chequerboard(2, seed=20)
    missing = int(fold_assignment(data.n, 3, seed=0)[0][0])
    stratified = fold_assignment(data.n, 3, seed=0, labels=data.labels, stratified=True)
    assert missing not in stratified[0]  # it trains there: a Gram refuses it
    partial = projection_kernel(np.delete(data.points, missing, axis=0),
                                sym_nonneg(np.random.default_rng(20), data.n - 1))
    kernels = (Kernel.gaussian(0.5), partial, Kernel.exponential(1.0))
    grid = [ModelParams(kernel=k, alphas=a, order=o)
            for o in (1, 2, 3) for k in kernels for a in (0.5, 2.0)]
    for report in _assert_matches_reference(data, grid):
        for params, r in zip(grid, report.results):
            if params.kernel is partial:
                assert not r.valid and not r.fold_scores
                assert "not in the projection kernel ground set" in r.message
            else:
                assert r.valid


# -- which order-3 blocks read the four-cycle matrix ----------------------


def test_grouped_cv_matches_reference_with_blocks_on_both_sides_of_n_r():
    # 12 held-out rows a fold against training classes of about 19 and 5
    # points: order-3 rows answers the large class in two products and the
    # small one through its four-cycle matrix, in the stacked sweep as in
    # one fit and predict
    rng = np.random.default_rng(21)
    labels = rng.permutation([0] * 28 + [1] * 8)
    data = LabeledDataset(points=rng.random((36, 2)) * 3, labels=labels, n_classes=2)
    for stratified in (False, True):
        for heldout in fold_assignment(36, 3, 0, labels=labels, stratified=stratified):
            train = np.bincount(np.delete(labels, heldout), minlength=2)
            assert train[1] <= len(heldout) < train[0]
    grid = [ModelParams(kernel=Kernel(fam, tau=t), alphas=a, order=3)
            for fam in ("gaussian", "exponential") for t in (0.5, 1.5) for a in (0.5, (2.0, 1.0))]
    _assert_matches_reference(data, grid)


def _four_cycle_builds(monkeypatch) -> list:
    """A list that gains the alpha shape of each four-cycle matrix built."""
    import permclass.cyclic as cyclic
    builds = []
    four_cycle_matrix = cyclic.RatioTable._four_cycle_matrix

    def counted(table):
        if table._m3 is None:
            builds.append(np.shape(table.alpha))
        return four_cycle_matrix(table)

    monkeypatch.setattr(cyclic.RatioTable, "_four_cycle_matrix", counted)
    return builds


def test_table1_sweep_builds_no_four_cycle_matrix_and_a_grid_predict_one_per_class(monkeypatch):
    # `reproduce table1`'s cross-validation (9 held-out rows against classes
    # of about 40 points) builds no M; its 3,600-row grid predict builds
    # one per class and reads it for every block
    builds = _four_cycle_builds(monkeypatch)
    data = gen_chequerboard(10, seed=9)
    queries, _ = gen_grid_testset(60)
    for family in ("exponential", "gaussian"):
        grid = [ModelParams(kernel=Kernel(family, tau=t), alphas=a)
                for t in (0.125, 0.25, 0.35, 0.5, 1.0) for a in (0.5, 1.0, 2.0)]
        report = cross_validate(data, CVSpec(grid=grid, folds=10, seed=9))
        assert builds == []
        predict(fit(data, report.winner), queries)
        assert builds == [(), ()]
        builds.clear()


def test_order_3_predict_picks_the_four_cycle_matrix_by_queries_not_block_rows(monkeypatch):
    # against a 150-point class a query block holds 109 rows: 320 queries
    # read that class's M in every block, 100 at a time read two products
    # per block, and both forms give the same weights to rounding
    builds = _four_cycle_builds(monkeypatch)
    rng = np.random.default_rng(5)
    data = LabeledDataset(points=rng.random((180, 2)) * 3, labels=[0] * 150 + [1] * 30,
                          n_classes=2)
    queries = rng.random((320, 2)) * 3
    assert _BLOCK_ENTRIES // 150 < 150
    params = ModelParams(kernel=Kernel.gaussian(0.5), alphas=1.0, order=3)
    whole = predict(fit(data, params), queries).raw
    assert builds == [(), ()]
    builds.clear()
    pieces = np.concatenate([predict(fit(data, params), queries[lo:lo + 100]).raw
                             for lo in range(0, 320, 100)])
    # the 30-point class's M, once per fit of 100 queries, none for the last 20
    assert builds == [()] * 3
    np.testing.assert_allclose(pieces, whole, rtol=1e-12, atol=0)


@pytest.mark.parametrize("call, message", [
    (lambda: fold_assignment(2, 3, 0), "cannot split 2 items into 3 folds"),
    (lambda: median_pairwise_distance([[0.5, 1.0]]), "need at least two points"),
], ids=["fewer-items-than-folds", "one-point-median"])
def test_model_select_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError, match=message):
        call()
