"""Hyperparameter selection by k-fold cross-validation.

Candidates are full model configurations; folds are a deterministic
function of (n, folds, seed).  The winner minimizes the mean objective
across folds, with ties broken by smaller tau, then smaller alpha, then
candidate position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classify import (_BLOCK_ENTRIES, LabeledDataset, ModelParams, _fit_kernel,
                       _normalised, _query_steps, _weights)
from .cyclic import EXACT_ORDER
from .kernels import (Kernel, _as_rows, _SharedDistances, _sq_distances,
                      kernel_self_batch)

__all__ = [
    "CVSpec",
    "CandidateResult",
    "CVReport",
    "fold_assignment",
    "cross_validate",
    "cross_entropy",
    "error_rate",
    "median_pairwise_distance",
    "default_grid",
]

PROB_FLOOR = 1e-12

OBJECTIVES = ("error", "xent")


@dataclass
class CVSpec:
    grid: list[ModelParams]
    folds: int = 10
    objective: str = "error"
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError(f"need at least 2 folds, got {self.folds}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if not self.grid:
            raise ValueError("candidate grid is empty")


@dataclass
class CandidateResult:
    params: ModelParams
    fold_scores: list[float]
    mean: float
    valid: bool = True
    message: str = ""


@dataclass
class CVReport:
    spec: CVSpec
    results: list[CandidateResult]
    winner_index: int
    n: int

    @property
    def winner(self) -> ModelParams:
        return self.results[self.winner_index].params

    def to_dict(self) -> dict:
        return {
            "folds": self.spec.folds,
            "objective": self.spec.objective,
            "seed": self.spec.seed,
            "stratified": self.spec.stratified,
            "n": self.n,
            "candidates": [
                {
                    "params": r.params.to_dict(),
                    "fold_scores": r.fold_scores,
                    "mean": r.mean,
                    "valid": r.valid,
                    "message": r.message,
                }
                for r in self.results
            ],
            "winner_index": self.winner_index,
            "winner": self.winner.to_dict(),
        }


def fold_assignment(n: int, folds: int, seed: int,
                    labels: np.ndarray | None = None,
                    stratified: bool = False) -> list[np.ndarray]:
    """Deterministic fold index sets; optionally stratified by class."""
    if n < folds:
        raise ValueError(f"cannot split {n} items into {folds} folds")
    rng = np.random.default_rng(seed)
    if not stratified or labels is None:
        perm = rng.permutation(n)
        return [np.sort(part) for part in np.array_split(perm, folds)]
    buckets: list[list[int]] = [[] for _ in range(folds)]
    slot = 0
    for r in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == r))
        for i in idx:
            buckets[slot % folds].append(int(i))
            slot += 1
    return [np.sort(np.array(b, dtype=int)) for b in buckets]


def error_rate(probs, truth) -> float:
    """Fraction of argmax labels, one row of ``probs`` per query, that miss
    the truth."""
    y = np.asarray(truth, dtype=int)
    return float(np.mean(np.asarray(probs).argmax(axis=1) != y))


def cross_entropy(probs, truth) -> float:
    """Mean -log p(true class), probabilities floored at 1e-12."""
    y = np.asarray(truth, dtype=int)
    p = np.asarray(probs)[np.arange(len(y)), y]
    return float(np.mean(-np.log(np.maximum(p, PROB_FLOOR))))


def _objective_fn(name: str):
    return error_rate if name == "error" else cross_entropy


def _tie_key(params: ModelParams) -> tuple[float, float]:
    tau = params.kernel.tau if params.kernel.tau is not None else float("inf")
    alphas = params.alphas
    alpha = float(alphas) if np.isscalar(alphas) else float(min(alphas))
    return (tau, alpha)


def _kernel_groups(grid: list[ModelParams]) -> list[tuple[Kernel, object, list[int]]]:
    """Candidate positions grouped by equal (kernel, order), in order of
    first appearance; equal kernels need not be adjacent in the grid."""
    groups: list[tuple[Kernel, object, list[int]]] = []
    for i, params in enumerate(grid):
        for kernel, order, members in groups:
            if kernel == params.kernel and order == params.order:
                members.append(i)
                break
        else:
            groups.append((params.kernel, params.order, [i]))
    return groups


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# one stacked finish takes as many alphas as keep its alpha-stacked arrays
# within this many entries each (8 MB of float64)
_STACK_ENTRIES = 1 << 20


def _alpha_chunks(live: list[int], cores: list, order) -> list[list[int]]:
    """The live candidates of a group in runs of those whose alphas one
    stacked finish answers together.  Per alpha, an order-3 table stacks
    n_r x n_r arrays for every class and any table's ``rows`` stacks its
    query block; the exact order gains nothing from stacking (its ``rows``
    loops over the alphas) and takes one alpha at a time, so that a zero
    denominator per_alpha{K(x)} marks only its own candidate."""
    if order == EXACT_ORDER:
        return [[i] for i in live]
    per_alpha = sum(core.gram.n ** 2 for core in cores) if order == 3 else _BLOCK_ENTRIES
    step = max(1, _STACK_ENTRIES // max(per_alpha, 1))
    return [live[k:k + step] for k in range(0, len(live), step)]


def cross_validate(data: LabeledDataset, spec: CVSpec) -> CVReport:
    """Mean objective per candidate across folds; argmin wins.

    Candidates that share a kernel and an order share everything that does
    not depend on alpha.  For each fold and each such group, the class
    Gram matrices, their table cores (O(sum_r n_r^2), or O(sum_r n_r^3)
    at order 3) and the held-out kernel blocks are built once.  Across the
    groups, each fold computes every class's squared distances, of its
    training points and of the held-out points against them, once, on the
    first exponential or gaussian kernel (`kernels._SharedDistances`); each
    such kernel's Grams and blocks transform a copy, bit for bit `gram` and
    `kernel_block`, so a sweep computes 2 x classes x folds distance
    matrices however many kernels its grid holds.  Each
    class's core is then finished once for the alphas of the group's live
    candidates, stacked along a leading axis (O(sum_r n_r^2) per alpha),
    and one ``rows`` call per held-out block answers every alpha; each
    candidate's slice of the raw weights is the one-alpha result bit for
    bit, and only its normalisation and objective are its own, so a
    negative order >= 2 ratio is logged once per stacked call, not once
    per candidate.  The alphas are stacked in runs (`_alpha_chunks`) that
    bound the stacked arrays: an order-3 sweep over large classes
    finishes them a few at a time, and the exact order one at a time.

    A fold missing a class entirely is fine (the empty-class rule covers
    it).  A candidate whose evaluation raises ValueError or ArithmeticError
    (bad parameters, exact size limits, degenerate configurations or
    weights) is marked invalid with an infinite score instead of aborting
    the sweep; any other exception is a bug and propagates.  A bad alpha
    is reported before any Gram is built, as in a single fit.  An error in
    the shared kernel stage marks every candidate of the group that is
    still valid, at that fold, and an error in a stacked finish or its
    rows marks the candidates of that run.  After the alpha checks the
    only alpha-dependent error there is the exact order's zero
    per_alpha{K(x)}, and its runs hold one candidate each.  A sweep
    in which no candidate is valid has no winner and raises ValueError
    with the first candidate's message.
    """
    folds = fold_assignment(data.n, spec.folds, spec.seed,
                            labels=data.labels, stratified=spec.stratified)
    objective = _objective_fn(spec.objective)
    all_idx = np.arange(data.n)
    # every candidate fits and scores the same folds: build each one once
    splits = [(data.subset(np.setdiff1d(all_idx, heldout)),
               data.points[heldout], data.labels[heldout]) for heldout in folds]
    grid = spec.grid
    scores: list[list[float]] = [[] for _ in grid]
    failed: list[str | None] = [None] * len(grid)
    alphas: list[np.ndarray | None] = [None] * len(grid)
    for i, params in enumerate(grid):
        try:
            alphas[i] = params.alpha_vector(data.n_classes)
        except (ValueError, ArithmeticError) as exc:  # candidate-level isolation
            failed[i] = _failure(exc)
    groups = _kernel_groups(grid)
    for train, queries, truth in splits:
        # each class's distances, computed for the fold's first distance kernel
        shared = [_SharedDistances(train.class_points(r), queries)
                  for r in range(data.n_classes)]
        for kernel, order, members in groups:
            live = [i for i in members if failed[i] is None]
            if not live:
                continue
            try:
                cores = _fit_kernel((s.gram(kernel) for s in shared), order)
                ktt = kernel_self_batch(kernel, queries)
                blocks = []
                for s in shared:
                    block = s.block(kernel)
                    blocks.append([block[rows] for rows in
                                   _query_steps(*block.shape)])
            except (ValueError, ArithmeticError) as exc:
                for i in live:
                    failed[i] = _failure(exc)
                continue
            for run in _alpha_chunks(live, cores, order):
                try:
                    # each class finished for its column of the run x classes alphas;
                    # the stacked tables are freed once their weights are read
                    run_alphas = np.array([alphas[i] for i in run])
                    raw = _weights([core.finish(run_alphas[:, r]) for r, core in enumerate(cores)],
                                   ktt, blocks)
                except (ValueError, ArithmeticError) as exc:
                    for i in run:
                        failed[i] = _failure(exc)
                    continue
                for j, i in enumerate(run):
                    try:
                        scores[i].append(objective(_normalised(raw[j]).probs, truth))
                    except (ValueError, ArithmeticError) as exc:
                        failed[i] = _failure(exc)
    if all(f is not None for f in failed):
        raise ValueError(f"no candidate is valid; the first failed with {failed[0]}")
    results = [CandidateResult(params, scores[i], float(np.mean(scores[i])))
               if failed[i] is None else
               CandidateResult(params, scores[i], float("inf"), False, failed[i])
               for i, params in enumerate(grid)]
    order = sorted(range(len(results)),
                   key=lambda i: (results[i].mean, *_tie_key(results[i].params), i))
    return CVReport(spec=spec, results=results, winner_index=order[0], n=data.n)


def median_pairwise_distance(points) -> float:
    pts = _as_rows(points, "point")
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    d2 = _sq_distances(pts, pts)
    iu = np.triu_indices(n, k=1)
    return float(np.median(np.sqrt(d2[iu])))


def default_grid(points, tau_scales: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
                 alphas: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
                 order: int | str = 3) -> list[ModelParams]:
    """Scale-aware default grid for both distance kernel families: tau
    multiples of the median pairwise distance crossed with a logarithmic
    alpha grid."""
    med = median_pairwise_distance(points)
    grid = []
    for fam in ("exponential", "gaussian"):
        for ts in tau_scales:
            kernel = Kernel(fam, tau=ts * med)
            for a in alphas:
                grid.append(ModelParams(kernel=kernel, alphas=a, order=order))
    return grid
