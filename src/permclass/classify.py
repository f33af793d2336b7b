"""Permanental classification, finite and infinite class counts.

Finite mode: a new point joins class r with probability proportional to
the permanental ratio R(t; x^(r)) at that class's mass, or to
alpha_r K(t, t) when the class is still empty.  Infinite mode: a new
point joins block b with probability proportional to the cyclic ratio
C(t; x^(b)) and opens a new block with probability proportional to
lambda K(t, t).  Proportionality is turned into probabilities by
dividing by the total; ties in the argmax go to the lowest class index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cyclic import EXACT_ORDER, MAX_ORDER, LimitTable, RatioTable, _fit_core, _FitCore
from .exact import Partition, _CypTable, _grown, _PerTable
from .kernels import (GramMatrix, Kernel, _as_rows, _entry, _label_codes, _sq_distances,
                      gram, kernel_block, kernel_column, kernel_self, kernel_self_batch)

__all__ = [
    "LabeledDataset",
    "ModelParams",
    "FittedModel",
    "PosteriorTable",
    "fit",
    "predict",
    "predict_infinite",
    "sequential_partition",
    "knn_predict",
]


# Queries are evaluated in blocks of at most this many kernel entries per
# class, so the block's Q x n temporaries stay a few hundred kB whatever the
# query count: unblocked, `reproduce table1` (3,600 grid queries) peaks about
# 8 MB higher.  Blocks this size are still large enough for matrix products.
# `knn_predict` takes its queries in chunks of the same Q x n size
# (`_sq_distances` bounds its own n x d temporaries).
_BLOCK_ENTRIES = 4096


@dataclass
class LabeledDataset:
    """Feature vectors with class labels.

    ``labels`` holds integer class codes 0..k-1.  ``n_classes`` can exceed
    the number of observed codes so that subsets keep the full class list.
    """

    points: np.ndarray
    labels: np.ndarray
    n_classes: int = 0
    class_names: tuple[str, ...] = ()

    def __post_init__(self):
        self.points = _as_rows(self.points, "point")
        self.labels = _label_codes(self.labels)
        if self.labels.shape[0] != self.points.shape[0]:
            raise ValueError("labels must match the point count")
        observed = int(self.labels.max()) + 1 if self.labels.size else 0
        if self.n_classes == 0:
            self.n_classes = observed
        if self.n_classes < observed:
            raise ValueError("n_classes is smaller than the largest label code")
        if not self.class_names:
            self.class_names = tuple(str(r + 1) for r in range(self.n_classes))
        if len(self.class_names) != self.n_classes:
            raise ValueError(f"n_classes = {self.n_classes} but class_names "
                             f"has {len(self.class_names)}")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def class_points(self, r: int) -> np.ndarray:
        return self.points[self.labels == r]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=int)
        return LabeledDataset(points=self.points[idx], labels=self.labels[idx],
                              n_classes=self.n_classes, class_names=self.class_names)


@dataclass
class ModelParams:
    """Model configuration: kernel, per-class masses, block rate, order.

    ``alphas`` is either one shared positive mass or a per-class sequence;
    ``lam`` is the new-block rate for the infinite-class model; ``order``
    is 0..3 for the cyclic approximations or "exact" for the oracle path
    (four-cycle by default).
    """

    kernel: Kernel
    alphas: float | Sequence[float] = 1.0
    lam: float | None = None
    order: int | str = MAX_ORDER

    def __post_init__(self):
        if self.order != EXACT_ORDER and self.order not in (0, 1, 2, 3):
            raise ValueError(f"order must be 0..3 or '{EXACT_ORDER}', got {self.order!r}")
        if self.lam is not None and not 0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        if not np.isfinite(np.asarray(self.alphas, dtype=float)).all():
            raise ValueError(f"alphas must be finite, got {self.alphas}")

    def alpha_vector(self, k: int) -> np.ndarray:
        """Per-class masses for ``k`` classes, checked before any Gram."""
        if k == 0:
            raise ValueError("dataset declares zero classes")
        if np.isscalar(self.alphas):
            out = np.full(k, float(self.alphas))
        else:
            out = np.asarray(self.alphas, dtype=float)
            if out.shape != (k,):
                raise ValueError(f"expected {k} per-class alphas, got {out.shape}")
        if (out <= 0).any():
            raise ValueError("all alphas must be positive")
        return out

    def to_dict(self) -> dict:
        alphas = (float(self.alphas) if np.isscalar(self.alphas)
                  else [float(a) for a in self.alphas])
        out = {"kernel": self.kernel.to_dict(), "alphas": alphas, "order": self.order}
        if self.lam is not None:
            out["lambda"] = self.lam
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        return cls(kernel=Kernel.from_dict(_entry(d, "kernel", "model params")),
                   alphas=_entry(d, "alphas", "model params"),
                   lam=d.get("lambda"), order=d.get("order", MAX_ORDER))


@dataclass
class FittedModel:
    """Immutable fitted state; predictions are pure and thread-safe.

    ``classes[r]`` is class r's table: a `cyclic.RatioTable` at orders 0-3,
    the exact order's `exact._PerTable` otherwise.  Each carries the class's
    Gram matrix ``gram`` (its ``points`` are the class's points) and mass
    ``alpha``, and answers ``rows(Kt, ktt)`` for a block of queries.
    """

    params: ModelParams
    classes: list[RatioTable | _PerTable]
    class_names: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def _fit_kernel(grams: Iterable[GramMatrix], order) -> list[_FitCore | _PerTable]:
    """Each class's alpha-free table core from its Gram matrix, whose
    ``finish(alpha)`` is the class's table: a `cyclic._FitCore` at orders
    0-3, an `exact._PerTable` otherwise.  `fit` passes `gram` of each
    class's points as a generator, so each Gram is built just before its
    core and the first refusal stops the rest; cross-validation passes a
    generator of each class's stack of a run's Gram matrices the same way."""
    return [_PerTable(g) if order == EXACT_ORDER else _fit_core(g, order) for g in grams]


def fit(data: LabeledDataset, params: ModelParams) -> FittedModel:
    """Build per-class Gram matrices and denominator tables.

    Cost is O(sum_r n_r^2) at orders 0-2 and O(sum_r n_r^3) at order 3,
    the one order whose tables need the leave-two-out ratios; the exact
    order builds only the Gram matrices and refuses a class too large for
    any query to join.  The tables are built as an alpha-free core per
    class (the Gram diagonal, the two-cycle terms and, at order 3, the
    O(n^3) product), which is then finished for the class's alpha in
    O(n_r^2).  Cross-validation builds one core over a stack of kernels'
    Gram matrices, a stack of one kernel included, and finishes it once for
    their candidates' alphas, into one stacked table whose slices are bit
    for bit the tables `fit` makes.
    An empty class gets a 0 x 0 Gram matrix and table, whose ratio is the
    empty-class weight alpha K(t, t).
    """
    alphas = params.alpha_vector(data.n_classes)
    cores = _fit_kernel((gram(params.kernel, data.class_points(r))
                         for r in range(data.n_classes)), params.order)
    return FittedModel(params=params,
                       classes=[core.finish(a) for core, a in zip(cores, alphas)],
                       class_names=data.class_names)


@dataclass
class PosteriorTable:
    """Class or block probabilities, their raw weights and the argmax: one
    row per query (2-d arrays, an int array of argmaxes) or, for a single
    infinite-mode query, 1-d arrays and an int."""

    probs: np.ndarray
    raw: np.ndarray
    argmax: np.ndarray | int


_DEGENERATE = "degenerate kernel: every class weight is zero"


def _normalised(raw: np.ndarray) -> PosteriorTable:
    """Posterior of raw weights, one row (1-d), one row per query (2-d) or
    such tables stacked along leading axes, each row divided by its total."""
    if raw.ndim == 1:  # a partition step: plain scalar work beats the 2-d reductions
        total = raw.sum()
        if not total > 0:
            raise ValueError(_DEGENERATE)
        probs = raw / total
        return PosteriorTable(probs=probs, raw=raw, argmax=int(probs.argmax()))
    total = raw.sum(axis=-1, keepdims=True)
    if not (total > 0).all():
        raise ValueError(_DEGENERATE)
    probs = raw / total
    return PosteriorTable(probs=probs, raw=raw, argmax=probs.argmax(axis=-1))


def _query_steps(n_queries: int, n_points: int) -> list[slice]:
    """The rows of each query block against a class of ``n_points``."""
    step = max(1, _BLOCK_ENTRIES // max(n_points, 1))
    return [slice(lo, lo + step) for lo in range(0, n_queries, step)]


def _kernel_blocks(kernel: Kernel, qs: np.ndarray, pts: np.ndarray):
    """Kernel blocks of the queries against one class, in query order."""
    for rows in _query_steps(qs.shape[0], pts.shape[0]):
        yield kernel_block(kernel, qs[rows], pts)


def _weights(tables: Iterable, ktt: np.ndarray, blocks) -> np.ndarray:
    """Raw class weights from the queries' K(t, t) and, per class, its table
    and an iterable of the query kernel blocks: one row per query and one
    column per class, behind leading candidate axes when the tables are
    finished for an array of alphas (one call to each table's ``rows`` per
    block serves every candidate).  Over tables of stacked Gram matrices,
    ``ktt`` and the blocks carry the stack's leading kernel axis.  The
    tables are read one class at a time, so a generator of them keeps one
    class's table alive at once."""
    raw = None
    for r, table in enumerate(tables):
        if raw is None:
            raw = np.empty((*np.shape(table.alpha), ktt.shape[-1], len(blocks)))
        lo = 0
        for Kt in blocks[r]:
            hi = lo + Kt.shape[-2]
            raw[..., lo:hi, r] = table.rows(Kt, ktt[..., lo:hi])
            lo = hi
    return raw


def predict(model: FittedModel, queries) -> PosteriorTable:
    """Posterior table for a batch of query points.

    Kernel blocks are evaluated one at a time as they are read, so the
    query count does not set the memory peak.
    """
    qs = _as_rows(queries, "query")
    kernel = model.params.kernel
    blocks = [_kernel_blocks(kernel, qs, table.gram.points) for table in model.classes]
    return _normalised(_weights(model.classes, kernel_self_batch(kernel, qs), blocks))


def _new_table(order) -> LimitTable | _CypTable:
    """An empty growable table for a block's cyclic-ratio weight: the
    alpha -> 0 `LimitTable` at orders 0-3, the exact table otherwise."""
    return _CypTable() if order == EXACT_ORDER else LimitTable(int(order))


def _block_row(members: list[list[int]], tables: list, col: np.ndarray, ktt: float,
               lam: float) -> PosteriorTable:
    """Posterior over the blocks, ``members[j]`` weighed through
    ``tables[j]``, plus a new block, for a query whose kernel values against
    every point are ``col``."""
    raw = np.empty(len(tables) + 1)
    for j, (block, table) in enumerate(zip(members, tables)):
        try:
            raw[j] = table.ratio(col[block], ktt)
        except ZeroDivisionError as err:
            raise ZeroDivisionError(f"block {j} ({sorted(block)}): {err}") from None
    raw[-1] = lam * ktt
    return _normalised(raw)


def predict_infinite(points, partition: Partition, t,
                     params: ModelParams) -> PosteriorTable:
    """Posterior over existing blocks plus a new block for one query.

    Entry j < #B is block j of the partition; the last entry is the new
    block, with weight lambda K(t, t).  The table's arrays are 1-d and its
    argmax is an int.
    """
    if params.lam is None:  # before any kernel work
        raise ValueError("infinite-class prediction needs lambda")
    pts = _as_rows(points, "point")
    t = _as_rows(np.reshape(t, (1, -1)), "query")[0]
    if partition.n != pts.shape[0]:
        raise ValueError("partition must cover exactly the given points")
    kernel = params.kernel
    members = [list(b) for b in partition.blocks]
    tables = [_grown(_new_table(params.order), gram(kernel, pts[b]).entries)
              for b in members]
    return _block_row(members, tables, kernel_column(kernel, t, pts),
                      kernel_self(kernel, t), params.lam)


def sequential_partition(points, params: ModelParams, rule: str = "argmax",
                         seed: int | None = None) -> Partition:
    """Grow a partition one point at a time by repeated block prediction.

    ``rule`` is "argmax" (deterministic) or "sample" (seeded, reproducible).
    Each new point's kernel column is evaluated once and sliced per block.
    Blocks keep their tables and the block that gains the point grows its
    table in place, so a step at order 3 costs a few matrix-vector products
    per block plus one O(n_b^2) table update (n_b a block's size): an
    order-3 partition of N points costs O(N^3) in all.
    """
    if rule not in ("argmax", "sample"):
        raise ValueError(f"rule must be 'argmax' or 'sample', got {rule!r}")
    if params.lam is None:  # before any kernel work
        raise ValueError("infinite-class prediction needs lambda")
    rng = np.random.default_rng(seed) if rule == "sample" else None
    pts = _as_rows(points, "point")
    if pts.shape[0] < 2:
        return Partition.from_blocks([[0]] if pts.shape[0] else [])
    kernel = params.kernel
    members, tables = [[0]], [_new_table(params.order)]
    tables[0].grow(np.zeros(0), kernel_self(kernel, pts[0]))
    for i in range(1, pts.shape[0]):
        ktt = kernel_self(kernel, pts[i])
        col = kernel_column(kernel, pts[i], pts[:i])
        row = _block_row(members, tables, col, ktt, params.lam)
        if rule == "argmax":
            choice = row.argmax
        else:
            choice = int(rng.choice(len(row.probs), p=row.probs))
        if choice == len(tables):
            members.append([])
            tables.append(_new_table(params.order))
        tables[choice].grow(col[members[choice]], ktt)
        members[choice].append(i)
    return Partition.from_blocks(members)


def knn_predict(train_points, train_labels, queries, k: int = 5) -> np.ndarray:
    """Plain k-nearest-neighbour baseline, majority vote.

    Distance ties resolve by training index (as a stable sort would) and
    vote ties by lowest class code, so results are deterministic.  The
    neighbours are selected, not sorted: every point nearer than the k-th
    smallest distance, then the lowest-indexed points at that distance.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    X = _as_rows(train_points, "point")
    if X.shape[0] == 0:
        raise ValueError("k-nearest-neighbour vote needs at least one training point")
    y = _label_codes(train_labels)
    if y.shape != (X.shape[0],):
        raise ValueError(f"expected {X.shape[0]} labels, one per point, got shape {y.shape}")
    Q = _as_rows(queries, "query")
    out = np.empty(Q.shape[0], dtype=int)
    one_hot = (y[:, None] == np.arange(int(y.max()) + 1)).astype(float)
    k = min(k, X.shape[0])
    step = max(1, _BLOCK_ENTRIES // X.shape[0])
    for lo in range(0, Q.shape[0], step):
        dist = _sq_distances(Q[lo:lo + step], X)
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1, None]
        nearer = dist < kth
        tied = dist == kth
        tied &= np.cumsum(tied, axis=1) <= k - nearer.sum(axis=1, keepdims=True)
        out[lo:lo + step] = ((nearer | tied) @ one_hot).argmax(axis=1)
    return out
