"""Synthetic generators, expression CSV ingestion, and microarray preprocessing.

Generators are pure functions of their parameters and seed.  CSV formats
are those of `files`, whose feature-CSV reader and writer are re-exported
here: decimal doubles, UTF-8, comma delimiter, lines starting with '#'
ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classify import LabeledDataset
from .files import _float_row, _rows_of, load_features_csv, save_features_csv

__all__ = [
    "ExpressionMatrix",
    "SplitPlan",
    "chequerboard_label",
    "gen_chequerboard",
    "gen_grid_testset",
    "gen_triangular",
    "gen_expression",
    "rank_genes_bw",
    "make_splits",
    "splitmix64",
    "load_features_csv",
    "save_features_csv",
    "load_expression_csv",
    "two_axis_projection",
]


def _info(msg: str, *args) -> None:
    """Report on this module's logger, which `logging` makes (and is loaded
    for) only when a first report is made."""
    import logging
    logging.getLogger(__name__).info(msg, *args)


GRID_SIDE = 3.0


def chequerboard_label(point) -> int:
    """0 for corner/centre cells, 1 for the others, on the 3 x 3 board."""
    x, y = float(point[0]), float(point[1])
    ix = min(int(math.floor(x)), 2)
    iy = min(int(math.floor(y)), 2)
    return 0 if (ix + iy) % 2 == 0 else 1


def gen_chequerboard(per_cell: int, seed: int) -> LabeledDataset:
    """Uniform points in each unit cell of the 3 x 3 chequerboard.

    9 * per_cell points in [0, 3]^2; five cells carry class 1 (codes 0)
    and four carry class 2 (codes 1).
    """
    if per_cell < 1:
        raise ValueError(f"per_cell must be >= 1, got {per_cell}")
    rng = np.random.default_rng(seed)
    pts, labels = [], []
    for ix in range(3):
        for iy in range(3):
            block = rng.random((per_cell, 2)) + np.array([ix, iy], dtype=float)
            pts.append(block)
            labels.extend([(ix + iy) % 2] * per_cell)
    return LabeledDataset(points=np.vstack(pts), labels=np.array(labels),
                          n_classes=2, class_names=("1", "2"))


def gen_grid_testset(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-centred grid over (0, 3)^2 with true chequerboard labels."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    step = GRID_SIDE / resolution
    centers = (np.arange(resolution) + 0.5) * step
    xx, yy = np.meshgrid(centers, centers, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    return pts, _chequerboard_labels(pts)


def _chequerboard_labels(points: np.ndarray) -> np.ndarray:
    """`chequerboard_label` of every row of ``points`` in one expression."""
    cells = np.minimum(np.floor(points[:, :2]), 2).astype(int)
    return (cells[:, 0] + cells[:, 1]) % 2


def gen_triangular(n: int, center: float, halfwidth: float, seed: int) -> np.ndarray:
    """Symmetric triangular draws on (center - halfwidth, center + halfwidth).

    Inverse CDF of a seeded uniform stream: u <= 1/2 maps to sqrt(u/2)
    and u > 1/2 to 1 - sqrt((1 - u)/2) on the unit interval.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not halfwidth > 0:
        raise ValueError(f"halfwidth must be positive, got {halfwidth}")
    u = np.random.default_rng(seed).random(n)
    z = np.where(u <= 0.5, np.sqrt(u / 2.0), 1.0 - np.sqrt((1.0 - u) / 2.0))
    return center - halfwidth + 2.0 * halfwidth * z


@dataclass
class ExpressionMatrix:
    """Gene expression levels, genes as rows and samples as columns."""

    values: np.ndarray
    gene_ids: list[str]
    sample_ids: list[str]
    sample_labels: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        g, s = self.values.shape
        if len(self.gene_ids) != g:
            raise ValueError("gene_ids must match the row count")
        if len(self.sample_ids) != s or len(self.sample_labels) != s:
            raise ValueError("sample ids/labels must match the column count")

    @property
    def n_genes(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def label_codes(self) -> tuple[np.ndarray, tuple[str, ...]]:
        names = sorted(set(self.sample_labels))
        lookup = {v: i for i, v in enumerate(names)}
        return np.array([lookup[v] for v in self.sample_labels]), tuple(names)


def gen_expression(n_genes: int = 500, n_samples: int = 72,
                   n_informative: int = 5, shift: float = 3.0,
                   seed: int = 0,
                   class_sizes: tuple[int, int] = (47, 25),
                   class_names: tuple[str, str] = ("ALL", "AML"),
                   ) -> tuple[ExpressionMatrix, np.ndarray]:
    """Synthetic expression matrix with planted informative genes.

    Background is unit-variance noise; each informative gene's mean shifts
    by ``shift`` standard deviations in the second class.  Returns the
    matrix and the planted gene indices.
    """
    if sum(class_sizes) != n_samples:
        raise ValueError("class sizes must sum to the sample count")
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_genes, n_samples))
    informative = np.sort(rng.choice(n_genes, size=n_informative, replace=False))
    labels = [class_names[0]] * class_sizes[0] + [class_names[1]] * class_sizes[1]
    mask = np.array([lbl == class_names[1] for lbl in labels])
    for gi in informative:
        values[gi, mask] += shift
    width = len(str(n_genes))
    gene_ids = [f"G{i:0{width}d}" for i in range(n_genes)]
    sample_ids = [f"S{j:02d}" for j in range(n_samples)]
    expr = ExpressionMatrix(values=values, gene_ids=gene_ids,
                            sample_ids=sample_ids, sample_labels=labels)
    return expr, informative


def rank_genes_bw(expr: ExpressionMatrix,
                  sample_indices: Sequence[int] | None = None) -> list[tuple[int, str, float]]:
    """Rank genes by between-group over within-group sum of squares.

    score_g = sum_r n_r (mean_{r,g} - mean_g)^2
            / sum_r sum_{i in r} (x_{i,g} - mean_{r,g})^2

    Zero within-group variance with signal scores +inf (ranked first);
    the all-constant 0/0 case scores 0.  Both are logged.  Descending
    sort, ties by gene index.  Restricting to ``sample_indices`` ranks
    within a training subset only.
    """
    idx = (np.arange(expr.n_samples) if sample_indices is None
           else np.asarray(sample_indices, dtype=int))
    values = expr.values[:, idx]
    labels = [expr.sample_labels[i] for i in idx]
    names = sorted(set(labels))
    if len(names) < 2:
        raise ValueError("gene ranking needs at least two classes")
    groups = [np.array([i for i, l in enumerate(labels) if l == name]) for name in names]
    for name, gidx in zip(names, groups):
        if gidx.size < 2:
            raise ValueError(f"class {name!r} needs at least two samples")
    overall = values.mean(axis=1)
    bss = np.zeros(expr.n_genes)
    wss = np.zeros(expr.n_genes)
    for gidx in groups:
        sub = values[:, gidx]
        mu = sub.mean(axis=1)
        bss += gidx.size * (mu - overall) ** 2
        wss += ((sub - mu[:, None]) ** 2).sum(axis=1)
    scores = np.empty(expr.n_genes)
    for g in range(expr.n_genes):
        if wss[g] == 0.0:
            if bss[g] == 0.0:
                scores[g] = 0.0
                _info("gene %s is constant everywhere; score pinned to 0", expr.gene_ids[g])
            else:
                scores[g] = np.inf
                _info("gene %s has zero within-class variance; score +inf", expr.gene_ids[g])
        else:
            scores[g] = bss[g] / wss[g]
    order = sorted(range(expr.n_genes), key=lambda g: (-scores[g], g))
    return [(g, expr.gene_ids[g], float(scores[g])) for g in order]


def splitmix64(seed: int, index: int) -> int:
    """Fixed per-repetition seed derivation (splitmix64 of seed + index)."""
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return (z ^ (z >> 31)) & mask


@dataclass
class SplitPlan:
    """Repeated train/test splitting plan."""

    repetitions: int = 200
    train_size: int = 48
    test_size: int = 24
    seed: int = 0

    def __post_init__(self):
        if self.repetitions < 1 or self.train_size < 1 or self.test_size < 1:
            raise ValueError("repetitions and sizes must be positive")


def make_splits(n: int, plan: SplitPlan) -> list[tuple[np.ndarray, np.ndarray]]:
    """Reproducible uniform splits into (train, test) index arrays.

    Each repetition uses its own splitmix64-derived seed, so repetitions
    can be evaluated in parallel without changing the draws.
    """
    if plan.train_size + plan.test_size != n:
        raise ValueError(
            f"train + test sizes ({plan.train_size} + {plan.test_size}) "
            f"must equal n = {n}")
    out = []
    for rep in range(plan.repetitions):
        rng = np.random.default_rng(splitmix64(plan.seed, rep))
        perm = rng.permutation(n)
        out.append((np.sort(perm[:plan.train_size]),
                    np.sort(perm[plan.train_size:])))
    return out


# ---------------------------------------------------------------------------
# expression CSV ingestion
# ---------------------------------------------------------------------------


def load_expression_csv(expr_path: str, labels_path: str) -> ExpressionMatrix:
    """Genes-as-rows CSV plus a two-column sample,label sidecar.

    The expression header is ``gene_id`` followed by sample ids; the
    sidecar must cover exactly those samples.  Gene rows with missing
    values are dropped and logged; an infinite value is an error that
    names its line and sample.
    """
    erows = _rows_of(expr_path)
    if not erows:
        raise ValueError(f"{expr_path}: no data rows")
    _, header = erows[0]
    if len(header) < 2:
        raise ValueError(f"{expr_path}: need a gene id column plus samples")
    sample_ids = header[1:]
    gene_ids, data = [], []
    for lineno, row in erows[1:]:
        # a row of the wrong width is refused, missing values or not
        if len(row) == len(header) and any(v == "" or v.upper() in ("NA", "NAN")
                                           for v in row[1:]):
            _info("dropping gene %s (line %d): missing values", row[0], lineno)
            continue
        data.append(_float_row(expr_path, lineno, row, header, slice(1, None), "sample"))
        gene_ids.append(row[0])
    lrows = _rows_of(labels_path)
    label_map: dict[str, str] = {}
    for lineno, row in lrows:
        if row[0] == "sample" and len(row) == 2:
            continue
        if len(row) != 2:
            raise ValueError(f"{labels_path}:{lineno}: expected sample,label")
        label_map[row[0]] = row[1]
    missing = [s for s in sample_ids if s not in label_map]
    if missing:
        raise ValueError(f"{labels_path}: no label for samples {missing}")
    unknown = sorted(set(label_map) - set(sample_ids))
    if unknown:
        raise ValueError(f"{labels_path}: labels for unknown samples {unknown}")
    return ExpressionMatrix(values=np.array(data), gene_ids=gene_ids,
                            sample_ids=sample_ids,
                            sample_labels=[label_map[s] for s in sample_ids])


def two_axis_projection(expr: ExpressionMatrix) -> np.ndarray:
    """Samples as points: centroid-axis coordinate and first principal
    component of the residual, for plot-ready CSV output."""
    codes, _ = expr.label_codes()
    X = expr.values.T  # samples x genes
    centroids = np.array([X[codes == r].mean(axis=0) for r in np.unique(codes)])
    axis = centroids[1] - centroids[0]
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise ValueError("class centroids coincide")
    axis /= norm
    centered = X - X.mean(axis=0)
    coord1 = centered @ axis
    residual = centered - np.outer(coord1, axis)
    _, _, vt = np.linalg.svd(residual, full_matrices=False)
    coord2 = residual @ vt[0]
    return np.column_stack([coord1, coord2])
