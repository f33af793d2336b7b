"""Exact alpha-permanents, cyclic product sums, and exact ratios.

This is the oracle layer: everything here is exact up to floating point
and feasible only at desk scale.  The alpha-permanent

    per_a(A) = sum_sigma a^{#sigma} prod_i A[i, sigma(i)]

sums over all permutations weighted by alpha to the number of cycles;
alpha = 1 is the ordinary permanent and per_{-1}(A) = (-1)^n det(A).
The cyclic product sum cyp(A) restricts the sum to single-cycle
permutations and equals lim_{a->0+} per_a(A) / a.

Rather than enumerating n! permutations, both quantities are computed by
a cycle-sum dynamic program over subsets:

    cyp(A[S])   via paths from min(S) through S (Held-Karp style),
    per_a(A[S]) = a * sum_{C <= S, min(S) in C} cyp(A[C]) per_a(A[S \\ C]),

which costs O(2^n n^2) + O(3^n) and is validated in the test suite
against a literal permutation enumerator.  Sizes are capped at
`EXACT_SIZE_CAP` = 11 and exceeding the cap raises; there is never a
silent fallback to an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cyclic import _alpha_arg
from .kernels import (GramMatrix, Kernel, _as_rows, _as_square, _check_kernel_row,
                      _label_codes, gram, kernel_column, kernel_self)

__all__ = [
    "EXACT_SIZE_CAP",
    "ExactSizeLimitError",
    "Partition",
    "per_alpha_exact",
    "cyp_exact",
    "ratio_exact",
    "ratio_exact_matrix",
    "cyclic_ratio_exact",
    "label_probability_exact",
    "partition_probability_exact",
    "iter_set_partitions",
    "ewens_probability",
    "rising_factorial",
]

EXACT_SIZE_CAP = 11


class ExactSizeLimitError(ValueError):
    """Raised when a matrix exceeds the exact size limit."""


def _check_cap(n: int):
    if n > EXACT_SIZE_CAP:
        raise ExactSizeLimitError(
            f"exact size limit: n = {n} exceeds the cap of {EXACT_SIZE_CAP}; "
            "use a cyclic approximation"
        )


def _cyp_subsets(A: np.ndarray) -> np.ndarray:
    """cyp(A[S]) for every nonempty subset S, indexed by bitmask.

    f[S, j] accumulates products over paths that start at min(S), visit
    all of S, and end at j; closing the path back to min(S) gives the
    cycle sum.  Rows of f are full length n with zeros off-support, so
    the transition is a single dot with a column of A.
    """
    n = A.shape[0]
    cols = [np.ascontiguousarray(A[:, j]) for j in range(n)]
    size = 1 << n
    f = np.zeros((size, n))
    cyp = np.empty(size)
    cyp[0] = np.nan
    lowbit = [0] * size
    for s in range(n):
        f[1 << s, s] = 1.0
    for S in range(1, size):
        low = (S & -S).bit_length() - 1
        lowbit[S] = low
        rest = S & ~(1 << low)
        if rest:
            j = rest
            while j:
                jb = j & -j
                jidx = jb.bit_length() - 1
                f[S, jidx] = f[S ^ jb] @ cols[jidx]
                j ^= jb
        cyp[S] = f[S] @ cols[low]
    return cyp


_SPLIT_CACHE: dict[int, list] = {}


def _split_pairs(n: int) -> list:
    """For each subset S: masks C containing min(S) paired with S \\ C."""
    if n in _SPLIT_CACHE:
        return _SPLIT_CACHE[n]
    size = 1 << n
    pairs: list = [None] * size
    for S in range(1, size):
        lowb = S & -S
        rest = S ^ lowb
        cs, rs = [], []
        T = rest
        while True:
            cs.append(T | lowb)
            rs.append(rest ^ T)
            if T == 0:
                break
            T = (T - 1) & rest
        pairs[S] = (np.array(cs, dtype=np.intp), np.array(rs, dtype=np.intp))
    _SPLIT_CACHE[n] = pairs
    return pairs


def per_alpha_exact(A, alpha: float) -> float:
    """Exact alpha-permanent of a square matrix; the 0 x 0 case is 1."""
    m = _as_square(A)
    n = m.shape[0]
    if n == 0:
        return 1.0
    _check_cap(n)
    cyp = _cyp_subsets(m)
    pairs = _split_pairs(n)
    size = 1 << n
    per = np.empty(size)
    per[0] = 1.0
    a = float(alpha)
    for S in range(1, size):
        cmask, rmask = pairs[S]
        per[S] = a * (cyp[cmask] @ per[rmask])
    return float(per[size - 1])


def cyp_exact(A) -> float:
    """Sum of cyclic products: permutations with a single cycle.

    Undefined for the empty matrix (raises); the 1 x 1 case is A[0, 0].
    """
    return _cyp_square(_as_square(A))


def _cyp_square(m: np.ndarray) -> float:
    """`cyp_exact` of a matrix that `_as_square` has already passed."""
    n = m.shape[0]
    if n == 0:
        raise ValueError("cyclic product sum is undefined for an empty matrix")
    _check_cap(n)
    if n <= 3:
        return _cyp_small(m)
    cyp = _cyp_subsets(m)
    return float(cyp[(1 << n) - 1])


def _cyp_small(m: np.ndarray) -> float:
    """cyp(A) for n <= 3 from the subset DP's own products, without its loop:
    a11; a12 a21; a13 a32 a21 + a12 a23 a31.

    The DP ends in a dot over the path sums, which BLAS may evaluate as a
    fused multiply-add, so the two n = 3 terms are added by a dot too,
    where a plain ``x + y`` can differ from the DP in the last bit.  Every
    value is bit-identical to `_cyp_subsets` for finite entries.
    """
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    if n == 2:
        return float(m[0, 1] * m[1, 0])
    return float(np.dot((m[0, 2] * m[2, 1], m[0, 1] * m[1, 2]), (m[1, 0], m[2, 0])))


def _bordered(G: np.ndarray, kt: np.ndarray, ktt: float) -> np.ndarray:
    """``G`` with one more row and column: ``kt`` off the diagonal, ``ktt`` on it."""
    n = G.shape[0]
    out = np.empty((n + 1, n + 1))
    out[:n, :n] = G
    out[n, :n] = out[:n, n] = kt
    out[n, n] = ktt
    return out


def ratio_exact(t, points, kernel: Kernel, alpha: float) -> float:
    """Exact permanental ratio per_a{K(x u t)} / per_a{K(x)}.

    The empty point set gives alpha * K(t, t).
    """
    pts = _as_rows(points, "point")
    t = _as_rows(np.reshape(t, (1, -1)), "query")[0]
    table = _PerTable(gram(kernel, pts), alpha)
    return float(table.rows([kernel_column(kernel, t, pts)], [kernel_self(kernel, t)])[0])


@dataclass(frozen=True)
class _PerTable:
    """The exact order's table for one class: its Gram matrix and, once
    finished, its alpha, or a 1-d array of alphas.  It answers `finish` and
    `rows` as a `cyclic._FitCore` and its `cyclic.RatioTable` do, within
    `EXACT_SIZE_CAP` points for the bordered matrix, which is checked when
    the table is made.
    """

    gram: GramMatrix
    alpha: float | np.ndarray | None = None

    def __post_init__(self):
        _check_cap(self.gram.n + 1)

    def finish(self, alpha) -> "_PerTable":
        return _PerTable(self.gram, _alpha_arg(alpha))

    def rows(self, Kt, ktt, n_queries=None) -> np.ndarray:
        """Exact ratios for a block of queries, ``Kt[q, i] = K(t_q, x_i)``
        and ``ktt[q] = K(t_q, t_q)`` (a 0 x 0 Gram matrix gives alpha K(t, t)):
        shape (Q,) for one alpha, (A, Q) for A alphas, one alpha at a time.
        Over a stack of one Gram matrix, as cross-validation builds it,
        ``Kt`` and ``ktt`` gain its leading axis and alpha is an A x 1 array
        (candidates before the kernel), giving shape (A, 1, Q).

        The denominator per_a{K(x)} is computed once per call and alpha, and
        each query's matrix borders the Gram matrix.
        """
        G = self.gram.entries
        if G.ndim == 3:
            G, Kt, ktt = G[0], Kt[0], ktt[0]
        out = []
        for alpha in np.ravel(self.alpha).tolist():
            denom = per_alpha_exact(G, alpha)
            if denom == 0.0:
                raise ZeroDivisionError("per_alpha of the training configuration is zero")
            out.append([per_alpha_exact(_bordered(G, kt, tt), alpha) / denom
                        for kt, tt in zip(Kt, ktt)])
        return np.reshape(out, np.shape(self.alpha) + (len(ktt),))


def ratio_exact_matrix(A, alpha: float) -> float:
    """Exact ratio per_a(A) / per_a(A[:-1, :-1]) for any square A, its last
    index the added point (A's last row and column need not agree)."""
    m = _as_square(A)
    n = m.shape[0]
    if n == 0:
        raise ValueError("ratio needs at least the added point on the diagonal")
    _check_cap(n)
    denom = per_alpha_exact(m[: n - 1, : n - 1], alpha)
    if denom == 0.0:
        raise ZeroDivisionError("per_alpha of the leading block is zero")
    return per_alpha_exact(m, alpha) / denom


class _CypTable:
    """The exact order's growable table: the Gram matrix of its points, in
    the order they were added, and its cyclic product sum, computed on the
    first `ratio` after a growth.  It answers `grow` and `ratio` as
    `cyclic.LimitTable` does, within `EXACT_SIZE_CAP` points for the
    bordered matrix.
    """

    def __init__(self):
        self.gram = np.zeros((0, 0))
        self._cyp: float | None = None

    def grow(self, kt, ktt: float) -> None:
        """Add a point with kernel values ``kt`` against the current points
        and K(x, x) = ``ktt``."""
        kt = np.asarray(kt, dtype=float)
        _check_kernel_row(kt, ktt)
        self.gram = _bordered(self.gram, kt, ktt)
        self._cyp = None

    def ratio(self, kt, ktt: float) -> float:
        """cyp{K(x u t)} / cyp{K(x)} for a query with kernel values ``kt``
        against the points and K(t, t) = ``ktt``."""
        _check_cap(self.gram.shape[0] + 1)
        if self._cyp is None:
            self._cyp = _cyp_square(self.gram)
        if self._cyp == 0.0:
            raise ZeroDivisionError("cyp of the training configuration is zero")
        return _cyp_square(_bordered(self.gram, kt, ktt)) / self._cyp


def _grown(table, G: np.ndarray):
    """``table``, a `_CypTable` or a `cyclic.LimitTable`, grown by the points
    of the Gram matrix ``G`` in index order."""
    for p in range(G.shape[0]):
        table.grow(G[p, :p], G[p, p])
    return table


def cyclic_ratio_exact(t, points, kernel: Kernel) -> float:
    """Exact cyclic ratio cyp{K(x u t)} / cyp{K(x)} for n >= 1."""
    pts = _as_rows(points, "point")
    t = _as_rows(np.reshape(t, (1, -1)), "query")[0]
    _check_cap(pts.shape[0] + 1)  # before an oversized Gram is built
    table = _grown(_CypTable(), gram(kernel, pts).entries)
    return table.ratio(kernel_column(kernel, t, pts), kernel_self(kernel, t))


def label_probability_exact(points, labels, alphas: Sequence[float],
                            kernel: Kernel) -> float:
    """Probability of a label vector given features, all factors exact.

    prod_r per_{a_r}{K(x^(r))} / per_{a_.}{K(x)} with the convention that
    the permanent over an empty class is 1.
    """
    pts = _as_rows(points, "point")
    y = _label_codes(labels)
    n = pts.shape[0]
    if y.shape[0] != n:
        raise ValueError("labels must match the point count")
    k = len(alphas)
    if n and (y.min() < 0 or y.max() >= k):
        raise ValueError(f"labels must lie in 0..{k - 1}")
    _check_cap(n)
    num = 1.0
    for r in range(k):
        idx = np.flatnonzero(y == r)
        if idx.size:
            g = gram(kernel, pts[idx])
            num *= per_alpha_exact(g.entries, alphas[r])
    total = gram(kernel, pts)
    denom = per_alpha_exact(total.entries, float(sum(alphas)))
    if denom == 0.0:
        raise ZeroDivisionError("per_alpha of the full configuration is zero")
    return num / denom


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


def partition_probability_exact(points, partition: Partition, lam: float,
                                kernel: Kernel) -> float:
    """Probability of an unlabelled partition under the infinite-class model.

    lambda^{#B} prod_b cyp{K(x^(b))} / per_lambda{K(x)}.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    pts = _as_rows(points, "point")
    n = pts.shape[0]
    if partition.n != n:
        raise ValueError("partition must cover exactly the given points")
    _check_cap(n)
    num = lam**partition.block_count
    for b in partition.blocks:
        g = gram(kernel, pts[list(b)])
        num *= cyp_exact(g.entries)
    denom = per_alpha_exact(gram(kernel, pts).entries, lam)
    if denom == 0.0:
        raise ZeroDivisionError("per_lambda of the full configuration is zero")
    return num / denom


def iter_set_partitions(n: int) -> Iterator[Partition]:
    """All set partitions of {0..n-1} via restricted growth strings."""
    if n == 0:
        yield Partition(())
        return

    def grow(code: list[int], maxb: int) -> Iterator[list[int]]:
        if len(code) == n:
            yield code
            return
        for b in range(maxb + 2):
            yield from grow(code + [b], max(maxb, b))

    for code in grow([0], 0):
        yield Partition.from_labels(code)


def rising_factorial(x: float, n: int) -> float:
    """x (x + 1) ... (x + n - 1); empty product is 1."""
    out = 1.0
    for i in range(n):
        out *= x + i
    return out


def ewens_probability(sizes: Sequence[int], lam: float) -> float:
    """Ewens sampling probability of a partition with the given block sizes."""
    n = int(sum(sizes))
    out = lam ** len(sizes) / rising_factorial(lam, n)
    for s in sizes:
        out *= math.factorial(int(s) - 1)
    return out
