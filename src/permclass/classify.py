"""Permanental classification, finite and infinite class counts.

Finite mode: a new point joins class r with probability proportional to
the permanental ratio R(t; x^(r)) at that class's mass, or to
alpha_r K(t, t) when the class is still empty.  Infinite mode: a new
point joins block b with probability proportional to the cyclic ratio
C(t; x^(b)) and opens a new block with probability proportional to
lambda K(t, t).  Proportionality is turned into probabilities by
dividing by the total; ties in the argmax go to the lowest class index.

Each mode loads its own tables where it first builds one: the finite
mode's (`cyclic`) in `fit` and `predict`, the infinite mode's (`limit`) in
`sequential_partition` and `predict_infinite`, and the exact order's
(`exact`) on that order alone, so a start loads only its own mode's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .kernels import (GramMatrix, Kernel, _as_rows, _entry, _is_real, _label_codes,
                      _query_steps, gram, kernel_block, kernel_column, kernel_self,
                      kernel_self_batch)

if TYPE_CHECKING:  # each mode's tables load on their first use
    from .cyclic import RatioTable, _FitCore
    from .exact import _PerTable

__all__ = [
    "LabeledDataset",
    "ModelParams",
    "FittedModel",
    "PosteriorTable",
    "Partition",
    "fit",
    "predict",
    "predict_infinite",
    "sequential_partition",
]

MAX_ORDER = 3
EXACT_ORDER = "exact"


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
        if type(self.order) not in (int, str) or self.order not in (0, 1, 2, 3, EXACT_ORDER):
            raise ValueError(f"order must be 0..3 or '{EXACT_ORDER}', got {self.order!r}")
        if self.lam is not None and not _is_real(self.lam):
            raise ValueError(f"lambda must be a real number, got {self.lam!r}")
        if self.lam is not None and not 0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        alphas = (self.alphas if np.iterable(self.alphas) and not isinstance(self.alphas, str)
                  else [self.alphas])
        # a mapping iterates over its keys, and an empty list would pass all()
        if (isinstance(alphas, Mapping) or not len(alphas)
                or not all(_is_real(a) and math.isfinite(a) for a in alphas)):
            raise ValueError(f"alphas must be finite real numbers, got {self.alphas!r}")

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


def _fit_kernel(g: GramMatrix, order) -> _FitCore | _PerTable:
    """A class's alpha-free core from its Gram matrix or a stack of them,
    whose ``finish(alpha)`` is its table: a `cyclic._FitCore` at orders
    0-3, an `exact._PerTable` otherwise."""
    if order == EXACT_ORDER:
        from .exact import _PerTable
        return _PerTable(g)
    from .cyclic import _fit_core
    return _fit_core(g, order)


def _tables(data: LabeledDataset, params: ModelParams):
    """Each class's table, its Gram matrix and core built as it is pulled,
    so a consumer that drops each table holds one class's Gram at a time.
    The alphas are checked at the call, before any Gram."""
    alphas = params.alpha_vector(data.n_classes)
    return (_fit_kernel(gram(params.kernel, data.class_points(r)), params.order).finish(a)
            for r, a in enumerate(alphas))


def fit(data: LabeledDataset, params: ModelParams) -> FittedModel:
    """Build per-class Gram matrices and denominator tables.

    Cost is O(sum_r n_r^2) at orders 0-2 and O(sum_r n_r^3) at order 3,
    the one order whose tables need the leave-two-out ratios; the exact
    order builds only the Gram matrices and refuses a class too large for
    any query to join.  Each class's table is an alpha-free core finished
    for its alpha in O(n_r^2), built after the class before it; at orders
    0-2 it keeps one n_r x n_r array, the Gram matrix.  An empty class gets
    a 0 x 0 Gram matrix and table, whose ratio is alpha K(t, t).
    """
    return FittedModel(params=params, classes=list(_tables(data, params)),
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


def _kernel_blocks(kernel: Kernel, qs: np.ndarray, pts: np.ndarray):
    """Kernel blocks of the queries against one class, in query order."""
    for rows in _query_steps(qs.shape[0], pts.shape[0]):
        yield kernel_block(kernel, qs[rows], pts)


def _weights(tables: Iterable, ktt: np.ndarray, blocks) -> np.ndarray:
    """Raw class weights from the queries' K(t, t) and, per class, its table
    and an iterable of the query kernel blocks: one row per query and one
    column per class, behind leading candidate axes when the tables are
    finished for an array of alphas (one call to each table's ``rows`` per
    block serves every candidate, told the query count).  Over tables of
    stacked Gram matrices, ``ktt`` and the blocks carry the stack's leading
    kernel axis, which the weights keep after the candidate axis (A x K
    alphas give (A, K, Q, classes)).  Each table is dropped before the next
    is pulled, so over a generator one class's table is alive at once."""
    raw = None
    r = 0
    for table in tables:
        if raw is None:
            raw = np.empty((*np.shape(table.alpha), ktt.shape[-1], len(blocks)))
        lo = 0
        for Kt in blocks[r]:
            hi = lo + Kt.shape[-2]
            raw[..., lo:hi, r] = table.rows(Kt, ktt[..., lo:hi], ktt.shape[-1])
            lo = hi
        del table  # else held while the next is built
        r += 1
    return raw


def _posterior(kernel: Kernel, tables: Iterable, class_points, queries) -> PosteriorTable:
    """Posterior table of a batch of queries from each class's table and
    points; kernel blocks are made one at a time as they are read."""
    qs = _as_rows(queries, "query")
    blocks = [_kernel_blocks(kernel, qs, pts) for pts in class_points]
    return _normalised(_weights(tables, kernel_self_batch(kernel, qs), blocks))


def predict(model: FittedModel, queries) -> PosteriorTable:
    """Posterior table for a batch of query points."""
    return _posterior(model.params.kernel, model.classes,
                      [table.gram.points for table in model.classes], queries)


@dataclass(frozen=True)
class Partition:
    """Set partition of {0..n-1} into disjoint nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("partition blocks must be nonempty")
            if seen & set(b):
                raise ValueError("partition blocks must be disjoint")
            seen |= set(b)
        if seen != set(range(len(seen))):
            raise ValueError("partition blocks must cover 0..n-1 without gaps")

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        canon = tuple(sorted((tuple(sorted(int(i) for i in b)) for b in blocks),
                             key=lambda b: b[0]))
        return cls(canon)

    @classmethod
    def from_labels(cls, assignments: Sequence[int]) -> "Partition":
        groups: dict[int, list[int]] = {}
        for i, a in enumerate(assignments):
            groups.setdefault(int(a), []).append(i)
        return cls.from_blocks(groups.values())

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)


def predict_infinite(points, partition: Partition, t,
                     params: ModelParams) -> PosteriorTable:
    """Posterior over existing blocks plus a new block for one query.

    Entry j < #B is block j of the partition; the last entry is the new
    block, with weight lambda K(t, t).  The table's arrays are 1-d and its
    argmax is an int.  Blocks are weighed as `sequential_partition` weighs
    them, each grown from its Gram matrix in index order.
    """
    if params.lam is None:  # before any kernel work
        raise ValueError("infinite-class prediction needs lambda")
    pts = _as_rows(points, "point")
    t = _as_rows(np.reshape(t, (1, -1)), "query")[0]
    if partition.n != pts.shape[0]:
        raise ValueError("partition must cover exactly the given points")
    from .limit import _Blocks
    kernel = params.kernel
    blocks = _Blocks(params.order)
    for j, b in enumerate(partition.blocks):
        G = gram(kernel, pts[list(b)]).entries
        blocks.open(b[0], G[0, 0])
        for p in range(1, len(b)):
            blocks.add(j, b[p], G[p, :p], G[p, p])
    return _normalised(blocks.weights(kernel_column(kernel, t, pts),
                                      kernel_self(kernel, t), params.lam))


def sequential_partition(points, params: ModelParams, rule: str = "argmax",
                         seed: int | None = None) -> Partition:
    """Grow a partition one point at a time by repeated block prediction.

    ``rule`` is "argmax" (deterministic) or "sample" (seeded, reproducible).
    The points' kernel rows are made a block at a time: the steps are cut
    as `kernels._query_steps` cuts N queries against N points, each cut's
    rows against the points up to its last is one `kernel_block` (the
    floats `kernel_column` gives), and K(x, x) is one `kernel_self_batch`.
    A step's kernel column is a row of its cut, sliced per block.  Blocks
    of one point are weighed together in one vector operation (see
    `limit._Blocks`); larger blocks keep their tables, and the block that gains
    the point grows its table in place.  So a step at order 3 costs a few
    matrix-vector products per block of two or more points plus one
    O(n_b^2) table update (n_b a block's size): an order-3 partition of N
    points costs O(N^3) in all.
    """
    if rule not in ("argmax", "sample"):
        raise ValueError(f"rule must be 'argmax' or 'sample', got {rule!r}")
    if params.lam is None:  # before any kernel work
        raise ValueError("infinite-class prediction needs lambda")
    rng = np.random.default_rng(seed) if rule == "sample" else None
    pts = _as_rows(points, "point")
    n = pts.shape[0]
    if n < 2:
        return Partition.from_blocks([[0]] if n else [])
    from .limit import _Blocks
    kernel = params.kernel
    self_k = kernel_self_batch(kernel, pts).tolist()
    blocks = _Blocks(params.order)
    blocks.open(0, self_k[0])
    for cut in _query_steps(n, n):
        lo, hi = cut.start, min(cut.stop, n)
        rows = kernel_block(kernel, pts[lo:hi], pts[:hi])
        for i in range(max(lo, 1), hi):
            col, ktt = rows[i - lo, :i], self_k[i]
            row = _normalised(blocks.weights(col, ktt, params.lam))
            if rule == "argmax":
                choice = row.argmax
            else:
                choice = int(rng.choice(len(row.probs), p=row.probs))
            if choice == len(blocks.tables):
                blocks.open(i, ktt)
            else:
                blocks.add(choice, i, col[blocks.members[choice]], ktt)
    return Partition.from_blocks(blocks.members)
