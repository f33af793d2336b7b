"""Shared fixtures and independent oracle implementations.

The oracles here (permutation enumeration, elimination determinant) are
deliberately separate from the package code so the two sides of every
exactness check stay independent.  The scalar order-k recursion over
floats or `GradedValue` series (truncated power series in alpha) is the
reference that the package's matrix-vector evaluation of the alpha -> 0
limit is tested against.  The closed-form ratio over diagonal, constant
and block-constant training matrices, where orders >= 2 are exact, is the
structured reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from numbers import Real

import numpy as np
import pytest
from hypothesis import settings

from permclass import kernels
from permclass.classify import LabeledDataset, fit, predict
from permclass.cyclic import (DegenerateConfigurationError, LimitTable, RatioTable,
                              build_ratio_table)
from permclass.exact import Partition, _grown, cyp_exact
from permclass.kernels import (GramMatrix, Kernel, KernelFamily, _as_square, gram,
                               kernel_column, kernel_self)
from permclass.model_select import (CandidateResult, CVReport, _tie_key, cross_entropy,
                                    error_rate, fold_assignment)

settings.register_profile("suite", deadline=None, max_examples=25)
settings.load_profile("suite")

# the chequerboard draws whose tables the family-selection tests compare
DEFAULT_TABLE_SEEDS = tuple(range(10))


def perm_oracle(A, alpha: float) -> float:
    """Sum over permutations of alpha^cycles * product, by enumeration."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n == 0:
        return 1.0
    total = []
    for sigma in itertools.permutations(range(n)):
        prod = 1.0
        for i in range(n):
            prod *= A[i, sigma[i]]
        seen = [False] * n
        cycles = 0
        for i in range(n):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = sigma[j]
        total.append(alpha**cycles * prod)
    return math.fsum(total)


def cyp_oracle(A) -> float:
    """Sum over single-cycle permutations only, by enumeration."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    total = []
    for sigma in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for i in range(n):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = sigma[j]
        if cycles != 1:
            continue
        prod = 1.0
        for i in range(n):
            prod *= A[i, sigma[i]]
        total.append(prod)
    return math.fsum(total)


def elimination_det(A) -> float:
    """Determinant by Gaussian elimination with partial pivoting."""
    m = [row[:] for row in np.asarray(A, dtype=float).tolist()]
    n = len(m)
    det = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[pivot][col] == 0.0:
            return 0.0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def sym_nonneg(rng, n, diag_lo=0.5, diag_hi=1.5):
    """Random symmetric elementwise nonnegative matrix with a safe diagonal."""
    B = rng.random((n, n))
    M = (B + B.T) / 2.0
    np.fill_diagonal(M, rng.uniform(diag_lo, diag_hi, size=n))
    return M


def augment(G, kt, ktt):
    """Stack the query as the last row/column."""
    n = G.shape[0]
    out = np.empty((n + 1, n + 1))
    out[:n, :n] = G
    out[n, :n] = kt
    out[:n, n] = kt
    out[n, n] = ktt
    return out


def banded_gram(rng, n):
    """Bandwidth-2 Gram of 1-D points spaced >= 1 under a gaussian kernel;
    entries beyond the band are below 1e-4 of the diagonal, so the
    truncation is faithful."""
    gaps = 1.0 + rng.random(n - 1)
    pos = np.concatenate([[0.0], np.cumsum(gaps)])
    A = np.zeros((n, n))
    for i in range(n):
        A[i, i] = 1.0
        for off in (1, 2):
            if i + off < n:
                v = math.exp(-((pos[i + off] - pos[i]) ** 2))
                A[i, i + off] = A[i + off, i] = v
    return A


def projection_kernel(points, matrix) -> Kernel:
    """Explicit kernel whose Gram matrix over the rows of ``points`` is
    ``matrix``, or the diagonal matrix of ``matrix`` when it is 1-d: the
    diagonal, zero-diagonal and block-constant covariances of the tests."""
    m = np.asarray(matrix, dtype=float)
    return Kernel.projection(np.diag(m) if m.ndim == 1 else m, points)


def block_constant_matrix(sizes, levels):
    n = sum(sizes)
    G = np.zeros((n, n))
    i0 = 0
    for s, c in zip(sizes, levels):
        G[i0:i0 + s, i0:i0 + s] = c
        i0 += s
    return G


# -- truncated power series in alpha (the reference arithmetic) -----------


@dataclass(frozen=True)
class GradedValue:
    """Value of the form alpha^lead (c0 + c1 alpha + O(alpha^2)).

    Two coefficients are tracked, which is enough to extract the constant
    term of every ratio formula here: intermediate leads dip to -1 only
    through the innermost uni-cycle denominators and are lifted back by
    the leading alpha factor.  The exact zero is canonically
    ``GradedValue(0, 0.0, 0.0)``.  If leading coefficients ever cancel,
    the lead is shifted and the next coefficient is no longer tracked;
    the recursions here only ever add nonnegative terms, so this is a
    safety net rather than a code path.
    """

    lead: int
    c0: float
    c1: float = 0.0

    @staticmethod
    def of(value: float) -> "GradedValue":
        return _normalize(0, float(value), 0.0)

    @property
    def is_zero(self) -> bool:
        return self.c0 == 0.0 and self.c1 == 0.0

    def limit(self) -> float:
        """Value at alpha -> 0+."""
        if self.is_zero or self.lead > 0:
            return 0.0
        if self.lead == 0:
            return self.c0
        raise DegenerateConfigurationError(
            "ratio diverges in the small-mass limit (leading power "
            f"{self.lead}); the configuration is degenerate"
        )

    def at(self, alpha: float) -> float:
        """Evaluate the tracked part at a concrete alpha (for diagnostics)."""
        return alpha**self.lead * (self.c0 + self.c1 * alpha)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a, b = (self, other) if self.lead <= other.lead else (other, self)
        gap = b.lead - a.lead
        if gap == 0:
            return _normalize(a.lead, a.c0 + b.c0, a.c1 + b.c1)
        if gap == 1:
            return _normalize(a.lead, a.c0, a.c1 + b.c0)
        return a

    __radd__ = __add__

    def __neg__(self):
        return GradedValue(self.lead, -self.c0, -self.c1)

    def __sub__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _lift(other) + (-self)

    def __mul__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return _ZERO
        return _normalize(self.lead + other.lead,
                          self.c0 * other.c0,
                          self.c0 * other.c1 + self.c1 * other.c0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise DegenerateConfigurationError(
                "division by a quantity that is identically zero to tracked "
                "order; the configuration is degenerate"
            )
        if self.is_zero:
            return _ZERO
        b0, b1 = other.c0, other.c1
        return _normalize(self.lead - other.lead,
                          self.c0 / b0,
                          (self.c1 * b0 - self.c0 * b1) / (b0 * b0))

    def __rtruediv__(self, other):
        return _lift(other) / self


def _normalize(lead: int, c0: float, c1: float) -> GradedValue:
    if c0 == 0.0:
        if c1 == 0.0:
            return GradedValue(0, 0.0, 0.0)
        return GradedValue(lead + 1, c1, 0.0)
    return GradedValue(lead, c0, c1)


def _lift(x):
    if isinstance(x, GradedValue):
        return x
    if isinstance(x, Real):
        return GradedValue.of(float(x))
    return NotImplemented


_ZERO = GradedValue(0, 0.0, 0.0)
ALPHA = GradedValue(1, 1.0, 0.0)


# -- scalar order-k recursion (floats or GradedValue) ----------------------


def generic_tables(Gl, dl, alpha, order):
    """Leave-one-out and leave-two-out denominators as nested Python sums."""
    n = len(dl)
    r1_loo = []
    for i in range(n):
        s = math.fsum(Gl[i][m] * Gl[i][m] / dl[m] for m in range(n) if m != i)
        r1_loo.append(alpha * dl[i] + s)
    if order < 3:
        return r1_loo, None, None
    r1_l2o = []
    for i in range(n):
        row = []
        for j in range(n):
            if j == i:
                row.append(None)
                continue
            s = math.fsum(Gl[j][m] * Gl[j][m] / dl[m]
                          for m in range(n) if m != i and m != j)
            row.append(alpha * dl[j] + s)
        r1_l2o.append(row)
    r2_loo = []
    for i in range(n):
        acc = alpha * dl[i]
        for m in range(n):
            if m == i:
                continue
            gim = Gl[i][m]
            inner = math.fsum(Gl[m][l] * Gl[l][i] / dl[l]
                              for l in range(n) if l != i and l != m)
            acc = acc + (alpha * gim * gim + gim * inner) / r1_l2o[i][m]
        r2_loo.append(acc)
    return r1_loo, r1_l2o, r2_loo


def generic_ratio(ktt, ktl, Gl, dl, alpha, order, r1_loo, r1_l2o, r2_loo):
    """Order-k ratio as the displayed nested sums."""
    n = len(dl)
    total = alpha * ktt
    if order == 0 or n == 0:
        return total
    if order == 1:
        return total + math.fsum(ktl[i] * ktl[i] / dl[i] for i in range(n))
    if order == 2:
        for i in range(n):
            kti = ktl[i]
            inner = math.fsum(Gl[i][j] * ktl[j] / dl[j] for j in range(n) if j != i)
            total = total + (alpha * kti * kti + kti * inner) / r1_loo[i]
        return total
    for i in range(n):
        kti = ktl[i]
        bracket = kti * kti
        for j in range(n):
            if j == i:
                continue
            gij = Gl[i][j]
            if gij == 0.0 or kti == 0.0:
                continue
            tail = sum((kti * gij * Gl[j][k] * ktl[k]) / (alpha * dl[k])
                       for k in range(n) if k != i and k != j)
            bracket = bracket + (kti * gij * ktl[j] + tail) / r1_l2o[i][j]
        total = total + alpha * bracket / r2_loo[i]
    return total


def cyclic_ratio_scalar(G, kt, ktt, order) -> float:
    """alpha -> 0+ limit of the order-k ratio by scalar series arithmetic."""
    G = np.asarray(G, dtype=float)
    Gl, dl = G.tolist(), G.diagonal().tolist()
    ktl = np.asarray(kt, dtype=float).tolist()
    tables = generic_tables(Gl, dl, ALPHA, order)
    value = generic_ratio(float(ktt), ktl, Gl, dl, ALPHA, order, *tables)
    if not isinstance(value, GradedValue):
        value = GradedValue.of(value)
    return value.limit()


def at_order(table: RatioTable, order: int) -> RatioTable:
    """The order-``order`` table over ``table``'s Gram matrix and alpha: a
    table answers only at its own order, so reading one training set at
    several orders takes one table per order."""
    return build_ratio_table(table.gram, table.alpha, order=order)


def build_limit_table(g: GramMatrix, order: int) -> LimitTable:
    """The alpha -> 0+ table of an order-k ratio over a Gram matrix, grown
    one point at a time as a partition block grows."""
    if g.n == 0:
        raise ValueError("cyclic ratio is undefined for an empty point set")
    return _grown(LimitTable(order), g.entries)


def cyclic_ratio_from_kt(g: GramMatrix, kt, ktt: float, order: int) -> float:
    """alpha -> 0+ limit of the order-k ratio, through a fresh table."""
    return build_limit_table(g, order).ratio(kt, ktt)


def sequential_partition_scalar(points, params, rule="argmax", seed=None) -> Partition:
    """Sequential partition that rebuilds every block's Gram and series
    recursion at every step, one scalar at a time."""
    rng = np.random.default_rng(seed) if rule == "sample" else None
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    kernel = params.kernel
    blocks: list[list[int]] = []
    for i in range(pts.shape[0]):
        if not blocks:
            blocks.append([i])
            continue
        t = pts[i]
        ktt = kernel_self(kernel, t)
        raw = []
        for block in blocks:
            sub = pts[block]
            G = gram(kernel, sub).entries
            kt = kernel_column(kernel, t, sub)
            if params.order == "exact":
                aug = augment(G, kt, ktt)
                raw.append(cyp_exact(aug) / cyp_exact(G))
            else:
                raw.append(cyclic_ratio_scalar(G, kt, ktt, int(params.order)))
        raw = np.array(raw + [params.lam * ktt])
        probs = raw / raw.sum()
        if rule == "argmax":
            choice = int(np.argmax(probs))
        else:
            choice = int(rng.choice(len(probs), p=probs))
        if choice == len(blocks):
            blocks.append([i])
        else:
            blocks[choice].append(i)
    return Partition.from_blocks(blocks)


def sq_distances_one_shot(a, b) -> np.ndarray:
    """Squared distances reduced from one m x n x d difference array: the
    formula `kernels._sq_distances` must reproduce bit for bit."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def median_distance_one_shot(points) -> float:
    """Median over i < j of ||x_i - x_j|| from the one-shot squared distances."""
    d2 = sq_distances_one_shot(points, points)
    return float(np.median(np.sqrt(d2[np.triu_indices(d2.shape[0], k=1)])))


def gram_one_shot(kernel, points) -> np.ndarray:
    """Distance-family Gram entries from one n x n x d difference array and
    a symmetrised copy: the formula the row-blocked `gram` must reproduce
    bit for bit."""
    sq = sq_distances_one_shot(points, points)
    sq = 0.5 * (sq + sq.T)
    if kernel.family is KernelFamily.GAUSSIAN:
        entries = np.exp(-sq / kernel.tau**2)
    else:
        entries = np.exp(-np.sqrt(np.maximum(sq, 0.0)) / kernel.tau)
    np.fill_diagonal(entries, 1.0)
    return entries


def knn_loop(train_points, train_labels, queries, k) -> np.ndarray:
    """k-nearest-neighbour vote one query at a time: stable distance order,
    lowest class code on a tied vote."""
    X = np.asarray(train_points, dtype=float)
    y = np.asarray(train_labels, dtype=int)
    Q = np.asarray(queries, dtype=float)
    n_classes = int(y.max()) + 1 if y.size else 0
    out = np.empty(Q.shape[0], dtype=int)
    for qi, q in enumerate(Q):
        dist = ((X - q) ** 2).sum(axis=1)
        nearest = np.argsort(dist, kind="stable")[:k]
        out[qi] = int(np.argmax(np.bincount(y[nearest], minlength=n_classes)))
    return out


def ratio_table_one_shot(G, alpha, order):
    """(r1_loo, r2_loo, t3, s3, m3) in one pass over a raw Gram matrix
    (None where the order reads none), each alpha-dependent expression in
    the order `build_ratio_table`'s core and finish must keep bit for bit
    (``a * G * G`` is ``(a * G) * G``); s3 is the diagonal of dg t3^T, a
    dot product per row, and m3 the four-cycle matrix I + t3^T +
    (dg t3^T) (1 / alpha) with a unit diagonal, dg being G with each row
    divided by its diagonal entry and its diagonal zeroed."""
    if order < 2:
        return None, None, None, None, None
    G = np.asarray(G, dtype=float)
    d = G.diagonal().copy()
    a = float(alpha)
    Qoff = (G * G) / d[None, :]
    np.fill_diagonal(Qoff, 0.0)
    r1_loo = a * d + Qoff.sum(axis=1)
    if order == 2:
        return r1_loo, None, None, None, None
    r1_l2o = r1_loo[None, :] - Qoff.T
    np.fill_diagonal(r1_l2o, 1.0)
    inner = (G / d) @ G
    inner -= 2.0 * G
    C = a * G * G
    C += G * inner
    C /= r1_l2o.T
    np.fill_diagonal(C, 0.0)
    t3 = G / r1_l2o
    np.fill_diagonal(t3, 0.0)
    dg = G / d[:, None]
    np.fill_diagonal(dg, 0.0)
    m3 = dg @ np.ascontiguousarray(t3.T)
    m3 *= 1.0 / a
    m3 += t3.T
    np.fill_diagonal(m3, 1.0)
    # t3 laid out as `finish` keeps it, the transpose of a contiguous t3^T,
    # so that each row's dot product reads the same strides
    s3 = (dg[:, None, :] @ np.ascontiguousarray(t3.T).T[:, :, None])[:, 0, 0]
    return r1_loo, a * d + C.sum(axis=0), t3, s3, m3


def cross_validate_reference(data, spec):
    """Cross-validation one candidate at a time, each refitting every fold
    through `fit` and `predict`: the report the grouped sweep must
    reproduce exactly."""
    folds = fold_assignment(data.n, spec.folds, spec.seed,
                            labels=data.labels, stratified=spec.stratified)
    objective = error_rate if spec.objective == "error" else cross_entropy
    all_idx = np.arange(data.n)
    kept = [np.setdiff1d(all_idx, heldout) for heldout in folds]
    splits = [(LabeledDataset(data.points[idx], data.labels[idx], data.n_classes,
                              data.class_names), data.points[heldout], data.labels[heldout])
              for idx, heldout in zip(kept, folds)]
    results = []
    for params in spec.grid:
        scores = []
        valid, message = True, ""
        try:
            for train, queries, truth in splits:
                table = predict(fit(train, params), queries)
                scores.append(objective(table.probs, truth))
            mean = float(np.mean(scores))
        except (ValueError, ArithmeticError) as exc:
            valid, message, mean = False, f"{type(exc).__name__}: {exc}", float("inf")
        results.append(CandidateResult(params, scores, mean, valid, message))
    order = sorted(range(len(results)),
                   key=lambda i: (results[i].mean, *_tie_key(results[i].params), i))
    return CVReport(spec=spec, results=results, winner_index=order[0], n=data.n)


# -- closed forms for structured training matrices ---------------------


class GramStructure(str, Enum):
    DIAGONAL = "diagonal"
    CONSTANT = "constant"
    BLOCK_CONSTANT = "block_constant"


def _blocks_of(G: np.ndarray) -> list[list[int]]:
    """Connected components of the nonzero pattern (union by scanning)."""
    n = G.shape[0]
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if G[i, j] != 0.0:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda b: b[0])


def _validate_structure(G: np.ndarray, structure: GramStructure) -> list[tuple[list[int], float]]:
    n = G.shape[0]
    if structure is GramStructure.DIAGONAL:
        off = G.copy()
        np.fill_diagonal(off, 0.0)
        if np.count_nonzero(off):
            raise ValueError("matrix is not diagonal")
        return [([i], float(G[i, i])) for i in range(n)]
    if structure is GramStructure.CONSTANT:
        if n == 0:
            return []
        c = float(G[0, 0])
        if c == 0.0 or not np.all(G == c):
            raise ValueError("matrix is not constant with a nonzero level")
        return [(list(range(n)), c)]
    blocks = []
    for b in _blocks_of(G):
        sub = G[np.ix_(b, b)]
        c = float(sub[0, 0])
        if c == 0.0 or not np.all(sub == c):
            raise ValueError(f"block {b} is not constant with a nonzero level")
        blocks.append((b, c))
    for bi, (b, _) in enumerate(blocks):
        for b2, _ in blocks[bi + 1:]:
            if np.count_nonzero(G[np.ix_(b, b2)]):
                raise ValueError("cross-block entries must be zero")
    return blocks


def closed_form_ratio_matrix(G, kt, ktt: float, alpha: float,
                             structure: GramStructure | str) -> float:
    """Closed-form ratio for a structured training matrix.

    For diagonal, constant, or block-constant K(x) the order >= 2
    approximations coincide with the exact ratio:

        a K(t,t) + sum_b [ a sum_{i in b} K(t,x_i)^2
                           + sum_{i != j in b} K(t,x_i) K(t,x_j) ]
                          / ( c_b (a + |b| - 1) )

    The diagonal case reduces to a K(t,t) + sum_i K(t,x_i)^2 / K(x_i,x_i)
    where even the two-cycle approximation is already exact.
    """
    structure = GramStructure(structure)
    m = _as_square(G)
    ktv = np.asarray(kt, dtype=float)
    if ktv.shape != (m.shape[0],):
        raise ValueError("kernel column must match the matrix size")
    blocks = _validate_structure(m, structure)
    a = float(alpha)
    total = a * float(ktt)
    for b, c in blocks:
        v = ktv[b]
        s1 = float(v @ v)
        s = float(v.sum())
        cross = s * s - s1
        total += (a * s1 + cross) / (c * (a + len(b) - 1))
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def sq_distance_calls(monkeypatch):
    """A list that gains one entry per `kernels._sq_distances` call."""
    calls = []
    sq_distances = kernels._sq_distances
    monkeypatch.setattr(kernels, "_sq_distances", lambda a, b=None, kernel=None:
                        calls.append(1) or sq_distances(a, b, kernel))
    return calls
