import pytest

import permclass.experiments as experiments
from conftest import DEFAULT_TABLE_SEEDS
from permclass.experiments import run_chequerboard
from permclass.model_select import CVSpec, cross_validate


@pytest.fixture
def sweeps(monkeypatch, sq_distance_calls):
    """A list that gains each `experiments.cross_validate` call's dataset,
    report and count of squared-distance computations."""
    calls = []

    def spy(data, spec):
        before = len(sq_distance_calls)
        report = cross_validate(data, spec)
        calls.append((data, report, len(sq_distance_calls) - before))
        return report

    monkeypatch.setattr(experiments, "cross_validate", spy)
    return calls


@pytest.mark.parametrize("seed", DEFAULT_TABLE_SEEDS)
def test_one_sweep_chooses_what_a_sweep_per_family_chooses(sweeps, seed):
    # both families' grids in one sweep, family-major: each family's slice
    # of the report is a sweep over that family alone, bit for bit, and its
    # winner is the row's choice
    res = run_chequerboard(seed=seed, per_cell=3, grid_resolution=6, folds=4)
    [(data, merged, _)] = sweeps
    grid = merged.spec.grid
    width = len(grid) // 2
    for f, (row, family) in enumerate(zip(res.rows, ("exponential", "gaussian"))):
        part = grid[f * width:(f + 1) * width]
        assert {p.kernel.family.value for p in part} == {family}
        alone = cross_validate(data, CVSpec(grid=part, folds=4, seed=seed))
        assert (merged.to_dict()["candidates"][f * width:(f + 1) * width]
                == alone.to_dict()["candidates"])
        best = alone.winner
        assert row.chosen == {"tau": best.kernel.tau, "alpha": best.alphas,
                              "family": family}


def test_one_sweep_per_chequerboard(sweeps):
    # a Gram and a held-out block per class (2) and fold (4) for all ten
    # kernels of both families; a sweep per family computed twice that
    run_chequerboard(seed=0, per_cell=3, grid_resolution=6, folds=4)
    assert [count for _, _, count in sweeps] == [2 * 2 * 4]
