"""Hyperparameter selection by k-fold cross-validation.

Candidates are full model configurations; folds are a deterministic
function of (n, folds, seed).  The winner minimizes the mean objective
across folds, with ties broken by smaller tau, then smaller alpha, then
candidate position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classify import _DEGENERATE, LabeledDataset, ModelParams, _fit_kernel, _normalised, _weights
from .cyclic import EXACT_ORDER, _reads_four_cycle_matrix
from . import kernels
from .kernels import (_DISTANCE_FAMILIES, GramMatrix, Kernel, _as_rows, _block_rows,
                      _is_integer, _kernel_stack, _query_steps, kernel_self_batch)

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
        if not _is_integer(self.folds):
            raise ValueError(f"folds must be an integer, got {self.folds!r}")
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
    return float(_error_rates(np.asarray(probs), truth))


def cross_entropy(probs, truth) -> float:
    """Mean -log p(true class), probabilities floored at 1e-12."""
    return float(_cross_entropies(np.asarray(probs), truth))


def _error_rates(probs: np.ndarray, truth) -> np.ndarray:
    """`error_rate` of each table of a stack (leading axes) at once."""
    y = np.asarray(truth, dtype=int)
    return np.mean(probs.argmax(axis=-1) != y, axis=-1)


def _cross_entropies(probs: np.ndarray, truth) -> np.ndarray:
    """`cross_entropy` of each table of a stack (leading axes) at once; each
    row's mean is the same sum in the same order as one table's."""
    y = np.asarray(truth, dtype=int)
    # advanced indexing leaves a stack's leading axis innermost; in C order
    # each row's mean sums its terms as one table's does (pairwise from 8)
    p = np.ascontiguousarray(probs[..., np.arange(len(y)), y])
    return np.mean(-np.log(np.maximum(p, PROB_FLOOR)), axis=-1)


def _objective_fn(name: str):
    """The objective over a stack of probability tables, one score each."""
    return _error_rates if name == "error" else _cross_entropies


def _tie_key(params: ModelParams) -> tuple[float, float]:
    tau = params.kernel.tau if params.kernel.tau is not None else float("inf")
    alphas = params.alphas
    alpha = float(alphas) if np.isscalar(alphas) else float(min(alphas))
    return (tau, alpha)


def _winner(results: list[CandidateResult], positions: Sequence[int]) -> int:
    """The position, among ``positions`` of ``results``, of the candidate
    with the smallest mean, ties broken by smaller tau, then smaller alpha,
    then position.  A slice with no valid candidate has no winner: it
    raises ValueError with its first candidate's message.  A candidate's
    fold scores do not depend on what else its sweep holds, so the winner
    of one family's slice of a sweep over several families is the winner of
    a sweep over that family alone."""
    if not any(results[i].valid for i in positions):
        raise ValueError("no candidate is valid; the first failed with "
                         f"{results[positions[0]].message}")
    return sorted(positions,
                  key=lambda i: (results[i].mean, *_tie_key(results[i].params), i))[0]


def _order_passes(grid: list[ModelParams]) -> dict[object, list[tuple[Kernel, list[int]]]]:
    """Candidate positions grouped by equal kernel within each order, orders
    and kernels in order of first appearance; equal kernels need not be
    adjacent in the grid."""
    passes: dict[object, list[tuple[Kernel, list[int]]]] = {}
    for i, params in enumerate(grid):
        groups = passes.setdefault(params.order, [])
        for kernel, members in groups:
            if kernel == params.kernel:
                members.append(i)
                break
        else:
            groups.append((params.kernel, [i]))
    return passes


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# a run of one pass stacks as many kernels and candidates as keep its stacked
# cores, and separately its candidates' stacked tables, within this many
# entries each (8 MB of float64)
_STACK_ENTRIES = 1 << 20


def _runs(groups: list[tuple[Kernel, list[int]]], sizes: list[int], n_queries: int,
          order) -> tuple[list[list[tuple[Kernel, list[int]]]], int]:
    """A pass's (kernel, live candidates) groups in runs that one stacked
    core and finish answer, and how many candidates of a lone kernel one
    finish takes.

    A stacked table is finished for an A x K array (A alphas per kernel), so
    a run's kernels have equal candidate counts (groups are taken fewest first).
    Per kernel, a stacked core holds each class's n_r x n_r Gram matrix and
    held-out block (at order 3 also g_inner, and its finish Qoff, then dg);
    per candidate, the stacked tables hold each class's T^T at order 3, and
    M where the held-out rows reach n_r, and each class's first block below.  A run takes
    whole kernels while both totals stay within `_STACK_ENTRIES`.  The
    exact order gains nothing from stacking (its
    ``rows`` loops over the alphas), so it takes one kernel and one
    candidate at a time, and a zero denominator per_alpha{K(x)} marks only
    its own candidate."""
    squares = sum(n * n for n in sizes)
    per_kernel = (3 if order == 3 else 1) * squares + n_queries * sum(sizes)
    blocks = [(min(n_queries, _block_rows(n)), n) for n in sizes]
    per_candidate = max(sum(n * n * (1 + _reads_four_cycle_matrix(n_queries, n))
                            if order == 3 else q * n for q, n in blocks), 1)
    runs: list[list[tuple[Kernel, list[int]]]] = []
    for kernel, live in sorted(groups, key=lambda group: len(group[1])):
        run = runs[-1] if runs else None
        if (order != EXACT_ORDER and run and len(run[0][1]) == len(live)
                and (len(run) + 1) * per_kernel <= _STACK_ENTRIES
                and (len(run) + 1) * len(live) * per_candidate <= _STACK_ENTRIES):
            run.append((kernel, live))
        else:
            runs.append([(kernel, live)])
    step = 1 if order == EXACT_ORDER else max(1, _STACK_ENTRIES // per_candidate)
    return runs, step


class _Sweep:
    """A sweep's alphas, fold scores and failures per candidate, which
    `run` fills one stacked run at a time, its objective, and each class's
    buffer for the T^T of its order-3 stacked tables, reused from run to
    run: at `reproduce table1`'s size a fresh one is a few hundred kB that
    the allocator hands back to the system and faults in again at every
    run (thousands of page faults per command)."""

    def __init__(self, grid: list[ModelParams], n_classes: int, objective):
        self.scores: list[list[float]] = [[] for _ in grid]
        self.failed: list[str | None] = [None] * len(grid)
        self.alphas: list[np.ndarray | None] = [None] * len(grid)
        for i, params in enumerate(grid):
            try:
                self.alphas[i] = params.alpha_vector(n_classes)
            except (ValueError, ArithmeticError) as exc:  # candidate-level isolation
                self.failed[i] = _failure(exc)
        self.objective = objective
        self._work = [np.empty(0) for _ in range(n_classes)]

    def _fail(self, members, exc: Exception) -> None:
        for i in members:
            self.failed[i] = _failure(exc)

    def _finish(self, core, alpha: np.ndarray, r: int, order):
        """``core.finish(alpha)``, at order 3 into class r's buffer."""
        if order != 3:
            return core.finish(alpha)
        shape = (*alpha.shape, core.gram.n, core.gram.n)
        size = math.prod(shape)
        if self._work[r].size < size:
            self._work[r] = np.empty(size)
        return core.finish(alpha, out=self._work[r][:size].reshape(shape))

    def run(self, run, order, step: int, classes, queries, truth) -> None:
        """Score one run of a fold's pass as one stack: each class's Gram
        matrices and then its core, K(t, t), and each class's held-out
        blocks, all stacked along a leading kernel axis, then finished
        together, a lone kernel's ``step`` candidates at a time.  A refusal
        there marks a lone kernel's candidates and reruns a run of several
        one kernel at a time, so that only the refused kernel is marked."""
        run_kernels = [kernel for kernel, _ in run]
        try:
            cores = [_fit_kernel(GramMatrix(_kernel_stack(run_kernels, x, x, sq), x), order)
                     for x, sq, _ in classes]
            ktt = np.stack([kernel_self_batch(kernel, queries) for kernel in run_kernels])
            blocks = [_kernel_stack(run_kernels, queries, x, held) for x, _, held in classes]
        except (ValueError, ArithmeticError) as exc:  # kernel-level isolation
            if len(run) == 1:
                self._fail(run[0][1], exc)
            else:
                for group in run:
                    self.run([group], order, step, classes, queries, truth)
            return
        blocks = [[b[..., rows, :] for rows in _query_steps(*b.shape[-2:])] for b in blocks]
        # `_runs` stacks several kernels only while all their candidates
        # fit in one finish of ``step``
        width = max(1, step // len(run))
        for lo in range(0, len(run[0][1]), width):
            members = np.column_stack([live[lo:lo + width] for _, live in run])
            try:
                # candidates x kernels x classes alphas; each class's core is
                # finished for its slice just before its blocks are read
                alpha = np.array([self.alphas[i] for i in members.ravel()])
                alpha = alpha.reshape(*members.shape, -1)
                raw = _weights((self._finish(core, alpha[..., r], r, order)
                                for r, core in enumerate(cores)), ktt, blocks)
            except (ValueError, ArithmeticError) as exc:
                self._fail(members.ravel(), exc)
                continue
            members = members.ravel()
            raw = raw.reshape(members.size, *raw.shape[-2:])
            valid = (raw.sum(axis=-1) > 0).all(axis=-1)
            self._fail(members[~valid], ValueError(_DEGENERATE))
            if valid.any():
                probs = _normalised(raw if valid.all() else raw[valid]).probs
                for i, score in zip(members[valid], self.objective(probs, truth)):
                    self.scores[i].append(float(score))


def cross_validate(data: LabeledDataset, spec: CVSpec) -> CVReport:
    """Mean objective per candidate across folds; argmin wins.

    Each fold runs one pass per order over that order's live candidates.
    Every class's squared distances, of its training points and of the
    held-out points against them, are computed once per fold if the grid
    holds a distance kernel, and `kernels._kernel_stack` transforms them
    into each distance kernel's slot with `gram`'s own transform, bit for
    bit `gram` and `kernel_block`.  Each run of a pass builds its kernels' class
    Gram matrices, K(t, t) and held-out blocks stacked along a leading
    kernel axis, and one table core per class over the stack
    (O(sum_r n_r^2) per kernel, O(sum_r n_r^3) at order 3 as one batched
    product), a lone kernel as a stack of one.  Each core is finished once
    for an A x K array of alphas (O(sum_r n_r^2) per candidate), one
    ``rows`` call per class and held-out block answers every candidate (the
    held-out rows are cut by `predict`'s rule, `kernels._query_steps`), and
    normalisation and the objective run as array operations over them.  Each candidate's
    weights, probabilities and scores are the one-fit results bit for bit;
    a negative order >= 2 ratio is logged once per stacked call.  Runs
    (`_runs`) bound the stacked arrays.

    A fold missing a class entirely is fine (the empty-class rule covers
    it).  A candidate whose evaluation raises ValueError or ArithmeticError
    (bad parameters, exact size limits, degenerate configurations or
    weights) is marked invalid with an infinite score instead of aborting
    the sweep; any other exception is a bug and propagates.  A bad alpha
    is reported before any Gram is built, as in a single fit.  An error in
    a run's stacked build reruns each of its kernels alone, where it marks
    the refused kernel's candidates still valid, at that fold, with the
    error one fit and predict of that kernel raise.  An error in a stacked
    finish or its rows marks the candidates of that finish; after the alpha
    checks the only alpha-dependent error there is the exact order's zero
    per_alpha{K(x)}, and its finishes hold one candidate each.  A
    candidate with a held-out row whose weights total zero or less gets
    `predict`'s message.  A sweep in which no candidate is valid has no
    winner and raises ValueError with the first candidate's message
    (`_winner`).
    """
    folds = fold_assignment(data.n, spec.folds, spec.seed,
                            labels=data.labels, stratified=spec.stratified)
    objective = _objective_fn(spec.objective)
    grid = spec.grid
    sweep = _Sweep(grid, data.n_classes, objective)
    failed, scores = sweep.failed, sweep.scores
    passes = _order_passes(grid)
    distance = any(params.kernel.family in _DISTANCE_FAMILIES for params in grid)
    for heldout in folds:
        queries, truth = data.points[heldout], data.labels[heldout]
        train = np.delete(np.arange(data.n), heldout)
        # per class: its points, their squared distances and the held-out ones'
        classes = []
        for r in range(data.n_classes):
            x = data.points[train[data.labels[train] == r]]
            classes.append((x, kernels._sq_distances(x), kernels._sq_distances(queries, x))
                           if distance else (x, None, None))
        sizes = [x.shape[0] for x, _, _ in classes]
        for order, groups in passes.items():
            live = [(kernel, [i for i in members if failed[i] is None])
                    for kernel, members in groups]
            runs, step = _runs([g for g in live if g[1]], sizes, len(truth), order)
            for run in runs:
                sweep.run(run, order, step, classes, queries, truth)
    results = [CandidateResult(params, scores[i], float(np.mean(scores[i])))
               if failed[i] is None else
               CandidateResult(params, scores[i], float("inf"), False, failed[i])
               for i, params in enumerate(grid)]
    return CVReport(spec=spec, results=results, n=data.n,
                    winner_index=_winner(results, range(len(results))))


def median_pairwise_distance(points) -> float:
    """Median of ||x_i - x_j|| over the pairs i < j, from the symmetric
    squared distances (only their upper triangle is summed) gathered in
    row-major order through a boolean mask, not two index arrays."""
    pts = _as_rows(points, "point")
    n = pts.shape[0]
    if n < 2:
        raise ValueError("need at least two points")
    return float(np.median(np.sqrt(kernels._sq_distances(pts)[~np.tri(n, dtype=bool)])))


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
