"""Polynomial-time cyclic approximations to permanental ratios.

The ratio R_n(t; x) = per_a{K(x u t)} / per_a{K(x)} expands by the length
of the cycle containing t.  Truncating at cycles of length k + 1, with the
inner leave-one-out ratios approximated at order k - 1, gives the order-k
approximation:

    k = 0 (uni-cycle):   a K(t,t)
    k = 1 (two-cycle):   a K(t,t) + sum_i K(t,x_i)^2 / K(x_i,x_i)
    k = 2 (three-cycle): adds terms K(t,x_i) K(x_i,x_j) K(x_j,t)
    k = 3 (four-cycle):  adds terms through K(t,x_i) K(x_i,x_j) K(x_j,x_k) K(x_k,t)

Per query the cost is O(1), O(n), O(n^2), O(n^3) for k = 0..3 when the
nested sums are evaluated as displayed (`ratio_from_kt`, the reference),
with denominators taken from tables built once per training set
(leave-one-out and leave-two-out ratios at the next lower order).
`RatioTable.rows` evaluates the same sums for a block of queries as
matrix products; the fit-time tables absorb the inner index, so order 3 costs
O(n^2) per query there.  Order k = n is exact and larger exact sizes are
served by the oracle layer, not here.

The a -> 0+ limits C^(k) follow from the same recursion with every
quantity a truncated power series in a, so configurations where the naive
limit is 0/0 (e.g. diagonal kernels over distinct points) still get their
finite limiting value.  A `LimitTable` holds the series' alpha-free
coefficients with every division by a denominator already made; it grows
one point at a time in O(n^2), so a partition block updates its table in
place, and `LimitTable.ratio` costs one dot product at order 1 and one or two
matrix-vector products at orders 2 and 3.  Kernel values are nonnegative,
so every sum whose zero test decides a leading power is formed by addition
alone and its zero test is exact.  The one subtraction, which takes the
k = i terms out of a dense order-3 product, is kept only where its result
is a sizeable part of the sum it came from; elsewhere that sum is formed
again without those terms.  The scalar series `GradedValue`, run
through the displayed nested sums (in the test suite), is the reference
the tables are checked against.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import (GramMatrix, _check_finite, _check_kernel_row,
                      kernel_column, kernel_self)

__all__ = [
    "MAX_ORDER",
    "EXACT_ORDER",
    "DegenerateConfigurationError",
    "RatioTable",
    "build_ratio_table",
    "ratio_approx",
    "ratio_from_kt",
    "ratio_approx_matrix",
    "per_alpha_cyclic",
    "LimitTable",
]

MAX_ORDER = 3
EXACT_ORDER = "exact"


class DegenerateConfigurationError(ArithmeticError):
    """A small-mass limit hit a quantity that vanishes identically."""


log = logging.getLogger(__name__)


def _surface(value: float, order: int) -> float:
    # it is open whether orders >= 2 stay nonnegative off the kernel cone;
    # negative values are reported, never clamped
    if value < 0.0:
        log.warning("order-%d ratio approximation is negative (%.6g)",
                    order, value)
    return value


# ---------------------------------------------------------------------------
# denominator tables
# ---------------------------------------------------------------------------


@dataclass
class RatioTable:
    """Fit-time denominators for a fixed training configuration.

    r1_loo[i]     two-cycle ratio of x_i against the other points,
    r2_loo[i]     three-cycle ratio of x_i against the other points.

    r1_loo is built at every order; it lets the single-query
    `ratio_from_kt` serve queries up to order 2 from a lower-order table,
    while `rows` serves exactly the table's order.  r2_loo and the
    four-cycle weights (over the leave-two-out ratios of
    `_FitCore._leave_two_out`, which the table does not keep) are built
    only at order 3, the one order that reads them, and are ``None``
    otherwise.  All entries are strictly positive for positive alpha and a
    positive Gram diagonal.  Tables
    depend only on the training points, never on the query, and are
    immutable once built.

    ``alpha`` is one mass or, for a table finished for several candidates
    at once, a 1-d array of them; every alpha-dependent entry then has a
    leading axis with one slice per candidate, bit for bit that candidate's
    own table, and `rows` answers for every candidate in one pass.  Over a
    stack of K Gram matrices (one per kernel, as cross-validation builds
    them) ``alpha`` is a K x A array, row k the alphas of kernel k's A
    candidates, and the entries gain both leading axes; each kernel's
    values broadcast over its candidates, so no per-kernel array is copied
    per candidate.  Such a stacked table serves `rows` only, not the
    single-query `ratio_from_kt`.
    """

    gram: GramMatrix
    alpha: float | np.ndarray
    order: int
    r1_loo: np.ndarray
    r2_loo: np.ndarray | None = None
    _lists: dict = field(default_factory=dict, repr=False)
    _t3: np.ndarray | None = field(default=None, repr=False)
    _s3: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.gram.n

    def rows(self, Kt, ktt) -> np.ndarray:
        """Ratios at the table's order for a block of queries, one per row of ``Kt``.

        ``Kt[q, i] = K(t_q, x_i)`` and ``ktt[q] = K(t_q, t_q)``; over a
        stack of Gram matrices both gain its leading kernel axis.  The
        sums are those of `ratio_from_kt`, written as matrix products over
        the block; results agree with it to rounding.  Orders 2 and 3 form
        the alpha-free product P = (Kt / d) G - Kt once per call and kernel;
        order 3 then reads its four-cycle bracket Kt + (Kt + P / alpha) T^T -
        (Kt / (alpha d)) s3 (s3 the row sums of T * G) through one more
        product per candidate.  The result has shape (Q,) for a table of
        one alpha, (A, Q) for A alphas and (K, A, Q) over a stack of K Gram
        matrices, each row the one-alpha result bit for bit.  Negative
        order >= 2 values are returned as computed and reported in one
        warning per call.
        """
        order = self.order
        n = self.n
        Kt = np.asarray(Kt, dtype=float)
        if Kt.ndim != self.gram.entries.ndim or Kt.shape[-1] != n:
            raise ValueError(f"kernel block must have {n} columns, got shape {Kt.shape}")
        # alpha broadcast against a block: (1, 1) for one alpha, (A, 1, 1) for A
        a = np.asarray(self.alpha)[..., None, None]

        def each(x):
            return _per_candidate(x, self.gram)

        out = a[..., 0] * each(np.asarray(ktt, dtype=float))
        if order == 0 or n == 0:
            return out
        G = self.gram.entries
        d = self.gram.diagonal[..., None, :]
        if order == 1:
            return out + each((Kt * Kt / d).sum(axis=-1))
        # P[q, i] = sum_{j != i} K(x_i, x_j) K(t_q, x_j) / d_j, the same for every alpha
        P = (Kt / d) @ G - Kt
        Kt, P, d = each(Kt), each(P), each(d)
        if order == 2:
            out = out + ((a * Kt * Kt + Kt * P) / self.r1_loo[..., None, :]).sum(axis=-1)
        else:
            # the bracket of the four-cycle sum, without the k = i and k = j
            # terms: one product with T^T per candidate
            Tt = np.swapaxes(self._t3, -1, -2)
            E = Kt + (Kt + P / a) @ Tt - (Kt / (a * d)) * self._s3[..., None, :]
            out = out + ((a * Kt / self.r2_loo[..., None, :]) * E).sum(axis=-1)
        negative = int(np.count_nonzero(out < 0.0))
        if negative:
            # it is open whether orders >= 2 stay nonnegative off the kernel cone
            log.warning("%d of %d order-%d ratio approximations are negative",
                        negative, out.size, order)
        return out

    def _python_lists(self) -> dict:
        """Python-list copies for the single-query reference sums, made on
        first use so that batched prediction never pays for them."""
        if not self._lists:
            self._lists = {"G": self.gram.entries.tolist(),
                           "d": self.gram.diagonal.tolist(),
                           "r1_loo": self.r1_loo.tolist()}
        return self._lists


@dataclass
class _FitCore:
    """The alpha-free part of a `RatioTable`, shared by every alpha.

    d        the Gram diagonal,
    q_sum    row sums of Qoff[i, m] = K(x_i, x_m)^2 / K(x_m, x_m), m != i,
    qoff     Qoff itself (order 3 only; below it only its row sums are read),
    g_inner  G[m, i] times the leave-two-out product
             sum_{l != i, m} K(x_m, x_l) K(x_l, x_i) / K(x_l, x_l)
             (order 3 only).

    Over a stack of Gram matrices every field has the stack's leading
    kernel axis.
    """

    gram: GramMatrix
    order: int
    d: np.ndarray
    q_sum: np.ndarray
    qoff: np.ndarray | None = None
    g_inner: np.ndarray | None = None

    def finish(self, alpha, out: np.ndarray | None = None) -> RatioTable:
        """The table for one alpha > 0, for a 1-d array of alphas stacked
        along a leading axis or, over a stack of K Gram matrices, for a
        K x A array (row k for kernel k): O(n^2) elementwise work on the
        core per alpha, each slice bit for bit the one-alpha table.  At
        order 3 the four-cycle weights are written into ``out`` when it is
        given (an array of their shape, alpha's shape + (n, n)), else into
        a new array; cross-validation reuses one from run to run."""
        alpha = _alpha_arg(alpha)
        a = np.asarray(alpha)[..., None]  # (1,) for one alpha, (A, 1) for A

        def each(x):
            return _per_candidate(x, self.gram)

        ad = a * each(self.d)
        r1_loo = ad + each(self.q_sum)
        table = RatioTable(self.gram, alpha, self.order, r1_loo)
        if self.order == 3:
            G = each(self.gram.entries)
            r1_l2o = self._leave_two_out(r1_loo)
            # C[m, i] is the three-cycle term of x_i through x_m; the product
            # groups as (a * G) * G, and a * (G * G) would round differently
            C = np.multiply(a[..., None], G, out=out)
            C *= G
            C += each(self.g_inner)
            C /= np.swapaxes(r1_l2o, -1, -2)
            diag = (..., *np.diag_indices(self.gram.n))
            C[diag] = 0.0
            table.r2_loo = ad + C.sum(axis=-2)
            t3 = np.divide(G, r1_l2o, out=C)  # into C's buffer, not read again
            t3[diag] = 0.0
            table._t3 = t3
            # row sums of t3 * G: the k = i terms the four-cycle bracket leaves out
            table._s3 = np.einsum("...ij,...ij->...i", t3, G)
        return table

    def _leave_two_out(self, r1_loo: np.ndarray) -> np.ndarray:
        """r1_l2o[..., i, j], the two-cycle ratio of x_j against the points
        minus {i, j}: r1_loo[..., j] without its i term.  The diagonal
        entries are inert placeholders (1.0).  Only `finish` needs it, so no
        table keeps it."""
        qoff = _per_candidate(self.qoff, self.gram)
        r1_l2o = r1_loo[..., None, :] - np.swapaxes(qoff, -1, -2)
        r1_l2o[(..., *np.diag_indices(self.gram.n))] = 1.0
        return r1_l2o


def _per_candidate(x: np.ndarray, g: GramMatrix) -> np.ndarray:
    """Per-kernel values broadcast over each kernel's candidates: over a
    stack of Gram matrices ``g``, a candidate axis (of length 1) after the
    kernel axis, which is a view; over one Gram matrix, ``x`` itself."""
    return x[:, None] if g.entries.ndim == 3 else x


def _alpha_arg(alpha):
    """A table's alpha as given to ``finish``: a float, or a float array for
    a table finished for several candidates at once."""
    return np.asarray(alpha, dtype=float) if np.ndim(alpha) else float(alpha)


def _gram_diagonal(G: np.ndarray) -> np.ndarray:
    """A copy of the diagonal of a Gram matrix, or of each of a stack of
    them, refusing an entry that is not strictly positive and finite."""
    d = np.diagonal(G, axis1=-2, axis2=-1).copy()
    good = (d > 0) & (d < np.inf)
    if not good.all():
        at = tuple(np.argwhere(~good)[0])
        raise ValueError(
            f"gram diagonal must be strictly positive and finite; point index {int(at[-1])} "
            f"has K(x, x) = {d[at]}"
        )
    return d


def _fit_core(g: GramMatrix, order: int) -> _FitCore:
    """Everything of an order-``order`` table that does not depend on alpha:
    O(n^2), plus one O(n^3) matrix product at order 3, for one Gram matrix
    or for each of a stack of them in one pass."""
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    G = g.entries
    d = _gram_diagonal(G)
    Qoff = G * G
    Qoff /= d[..., None, :]
    Qoff[(..., *np.diag_indices(g.n))] = 0.0
    core = _FitCore(g, order, d, Qoff.sum(axis=-1))
    if not np.isfinite(core.q_sum).all():
        # a NaN or infinite entry makes its row's sum so; finding it is O(n^2)
        _check_finite(G, "gram matrix")
    if order == 3:
        core.qoff = Qoff
        inner = (G / d[..., None, :]) @ G
        inner -= 2.0 * G
        core.g_inner = G * inner
    return core


def build_ratio_table(g: GramMatrix, alpha: float, order: int = MAX_ORDER) -> RatioTable:
    """Precompute the fit-time denominators that order-``order`` queries read.

    r1_loo, the one table that orders 1 and 2 read, costs O(n^2) and is
    built at every order, so `ratio_from_kt` can also serve a single query
    one order above the table's own up to order 2; `RatioTable.rows` serves
    exactly the table's order.  Only order 3 adds the leave-two-out table and
    the three-cycle leave-one-out table, at O(n^2) and O(n^3), the latter
    as one matrix product; an order-3 query needs a table built at order 3.

    The build is an alpha-free core (`_fit_core`: the diagonal, the
    two-cycle terms and their row sums, and at order 3 the O(n^3) product)
    finished for one alpha by O(n^2) elementwise work (`_FitCore.finish`),
    so tables for several alphas over one Gram matrix can share one core,
    or be finished from it together as one stacked table.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return _fit_core(g, order).finish(alpha)


def _require(table: RatioTable, order: int):
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    # a query reads the tables one order below its own, except that order 3
    # reads the leave-two-out tables, which only an order-3 build makes
    needed = 3 if order == 3 else order - 1
    if table.order < needed:
        hint = "3" if needed == 3 else f">= {needed}"
        raise ValueError(
            f"table was built at order {table.order} and cannot serve "
            f"order-{order} queries; rebuild with order {hint}"
        )


def ratio_from_kt(table: RatioTable, kt, ktt: float, order: int | None = None) -> float:
    """Order-k ratio given the query's kernel column and diagonal value.

    This is the matrix-level entry point: `kt[i] = K(t, x_i)` and
    ``ktt = K(t, t)``.  Values can be negative only if a caller feeds a
    non-kernel matrix; they are returned as computed, never clamped.
    """
    if order is None:
        order = table.order
    _require(table, order)
    a = table.alpha
    n = table.n
    kt = np.asarray(kt, dtype=float)
    if kt.shape != (n,):
        raise ValueError(f"kernel column must have length {n}, got {kt.shape}")
    base = a * float(ktt)
    if order == 0 or n == 0:
        return base
    lists = table._python_lists()
    dl = lists["d"]
    ktl = kt.tolist()
    if order == 1:
        return base + math.fsum(ktl[i] * ktl[i] / dl[i] for i in range(n))
    if order == 2:
        Gl = lists["G"]
        r1 = lists["r1_loo"]
        total = base
        for i in range(n):
            kti = ktl[i]
            if kti == 0.0:
                continue
            gi = Gl[i]
            inner = 0.0
            for j in range(n):
                if j == i:
                    continue
                gij = gi[j]
                if gij == 0.0:
                    continue
                inner += gij * ktl[j] / dl[j]
            total += (a * kti * kti + kti * inner) / r1[i]
        return _surface(total, 2)
    return _surface(_four_cycle(table, kt, base), 3)


def _four_cycle(table: RatioTable, kt: np.ndarray, base: float) -> float:
    G = table.gram.entries
    d = table.gram.diagonal
    a = table.alpha
    w = kt / (a * d)
    T = table._t3
    e3 = T @ kt
    e4 = np.einsum("ij,jk,k->i", T, G, w, optimize=False)
    # remove the k = i and k = j terms included by the dense contraction
    e4 -= w * (T * G).sum(axis=1)
    e4 -= T @ (d * w)
    coeff = a * kt / table.r2_loo
    return base + float(coeff @ (kt + e3 + e4))


def ratio_approx(t, points, table: RatioTable, order: int | None = None) -> float:
    """Order-k approximation of R_n(t; x) for a query feature vector."""
    kernel = table.gram.kernel
    if kernel is None:
        raise ValueError("table was built from a raw matrix; use ratio_from_kt "
                         "with an explicit kernel column")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.shape[0] != table.n:
        raise ValueError("point set does not match the table's training size")
    ktt = kernel_self(kernel, t)
    if order == 0:
        _require(table, 0)
        return table.alpha * ktt
    kt = kernel_column(kernel, t, table.gram.points)
    return ratio_from_kt(table, kt, ktt, order)


def ratio_approx_matrix(A, alpha: float, order: int = MAX_ORDER) -> float:
    """Order-k ratio over a raw symmetric matrix, last index the query."""
    m = GramMatrix.from_matrix(A).entries
    n = m.shape[0] - 1
    if n < 0:
        raise ValueError("ratio needs at least the added point on the diagonal")
    table = build_ratio_table(GramMatrix.from_matrix(m[:n, :n]), alpha, order=order)
    return ratio_from_kt(table, m[n, :n], float(m[n, n]), order)


def per_alpha_cyclic(A, alpha: float, order: int = MAX_ORDER) -> float:
    """Approximate per_a(A) as a telescoping product of order-k ratios.

    per_a(A) = prod_m R_{m-1}(x_m; x_{1..m-1}) with each factor replaced
    by its order-k approximation; polynomial cost, unlike the exact sum.
    """
    m = GramMatrix.from_matrix(A).entries
    out = 1.0
    for size in range(1, m.shape[0] + 1):
        out *= ratio_approx_matrix(m[:size, :size], alpha, order)
    return out


# ---------------------------------------------------------------------------
# the alpha -> 0 limit
# ---------------------------------------------------------------------------


def _sum_without(v: np.ndarray) -> np.ndarray:
    """out[i] = sum over m != i of v[m].

    The excluded term is left out by adding prefix and suffix sums, never
    subtracted from the full sum: subtraction leaves rounding residue where
    the exact result is 0, and a zero test would read that residue as a
    positive term.
    """
    out = np.zeros_like(v)
    np.cumsum(v[:-1], out=out[1:])
    out[:-1] += np.cumsum(v[:0:-1])[::-1]
    return out


class LimitTable:
    """The alpha-free tables of the alpha -> 0+ recursion for one point set.

    The recursion's denominators are series in alpha: r1_loo = s + a d,
    r1_l2o[i, j] = s2[i, j] + a d_j and r2_loo = r0 + a r1 + O(a^2).  The
    table keeps their coefficients with every division by them done, so a
    query is a few matrix-vector products (`ratio`).  With
    Q[i, m] = K(x_i, x_m)^2 / K(x_m, x_m) for m != i:

    d         the Gram diagonal;
    off, s    the Gram matrix with its diagonal zeroed, and the row sums of
              Q (order >= 2);
    s_terms   the number of positive entries in each row of Q (order 3,
              as are the rest);
    s2        s2[i, j] = sum over m not in {i, j} of Q[j, m];
    inner     inner[m, i] = sum over l of off[m, l] off[l, i] / d_l;
    t0        off / s2 where s2 > 0, and off where s2 = 0;
    delta     row sums of t0 * off: the k = i terms a query leaves out;
    r0        r0[i] = sum over m of off[i, m] inner[m, i] / s2[i, m] where
              s2 > 0, and of off[i, m]^2 / d_m where s2 = 0; it is stored
              with inf for 0, so that dividing by it drops those lanes;
    flat      the i with r0 = 0: every term of r2_loo[i] starts at alpha^1,
              and r1 there is d + delta;
    lone      the (i, j) with off[i, j] > 0 and s2[i, j] = 0 (x_i is x_j's
              only neighbour), and off there.

    Kernel values are nonnegative, so a sum of them is exactly 0 only if
    none of its terms is positive.  Every value above is built by adding
    terms, never by subtracting, so its zero test is exact, and where s2
    can be 0 follows from the counts ``s_terms``.  `grow` adds a point in
    O(n^2); the square arrays live in buffers with spare room, so a point
    costs no copy of them.
    """

    _SQUARE = ("off", "s2", "inner", "t0")

    def __init__(self, order: int):
        if order not in (0, 1, 2, 3):
            raise ValueError(f"order must be in 0..3, got {order}")
        self.order = order
        self.n = 0
        self.d = self.s = self.delta = self.r0 = np.zeros(0)
        self.s_terms = np.zeros(0, dtype=int)
        for name in self._SQUARE:
            setattr(self, name, np.zeros((0, 0)))
        self.flat = np.zeros(0, dtype=int)
        self.lone = (self.flat, self.flat, np.zeros(0))
        self._room = 0
        self._buffers: dict[str, np.ndarray] = {}

    def _reserve(self, n: int) -> None:
        """Buffers for at least ``n`` points, grown by a quarter at a time."""
        if n <= self._room:
            return
        room = max(n, self._room + self._room // 4, 8)
        names = self._SQUARE if self.order == 3 else ("off",)
        old, m = self._buffers, self.n
        self._buffers = {name: np.zeros((room, room)) for name in names}
        for name, buf in old.items():
            self._buffers[name][:m, :m] = buf[:m, :m]
        self._room = room

    def _border(self, name: str, row, col, corner: float) -> np.ndarray:
        """Write the new point's row and column; returns the grown view."""
        n = self.n
        buf = self._buffers[name]
        buf[n, :n] = row
        buf[:n, n] = col
        buf[n, n] = corner
        view = buf[:n + 1, :n + 1]
        setattr(self, name, view)
        return view

    def grow(self, kt, ktt: float) -> None:
        """Add a point with kernel values ``kt`` against the current points
        and K(x, x) = ``ktt``: O(n^2) work, and no term is ever subtracted."""
        n = self.n
        a = np.asarray(kt, dtype=float)
        if a.shape != (n,):
            raise ValueError(f"kernel row must have length {n}, got {a.shape}")
        if ktt <= 0:  # False for NaN, which the next check names
            raise ValueError(f"gram diagonal must be strictly positive; point "
                             f"index {n} has K(x, x) = {ktt}")
        _check_kernel_row(a, ktt)
        dp, d = float(ktt), self.d
        self.d = np.append(d, dp)
        if self.order >= 2:
            self._reserve(n + 1)
            q_col = a * a / dp           # Q[j, p] for the new point p
            q_row = a * a / d            # Q[p, m]
            s = self.s
            self.s = np.append(s + q_col, q_row.sum())
            off = self._border("off", a, a, 0.0)
            if self.order == 3:
                self._grow_order3(a, dp, d, s, q_col, q_row, off)
        self.n += 1

    def _grow_order3(self, a, dp, d, s, q_col, q_row, off) -> None:
        n = self.n
        b = self._buffers
        self.s_terms = np.append(self.s_terms + (q_col > 0),
                                 np.count_nonzero(q_row))
        # p lies outside every old pair {i, j}, so s2 gains Q[j, p]
        b["s2"][:n, :n] += q_col
        corner = q_row.sum()
        s2 = self._border("s2", s, _sum_without(q_row), corner)
        # inner gains the rank-one term through p
        b["inner"][:n, :n] += np.multiply.outer(a, a / dp)
        new = (a / d) @ off[:n, :n]
        inner = self._border("inner", new, new, corner)
        t0 = self.t0 = b["t0"][:n + 1, :n + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(off, s2, out=t0)
        # s2[i, j] is 0 only in a column j with at most one positive Q[j, m]
        cols = np.flatnonzero(self.s_terms <= 1)
        rows, at = np.nonzero(s2[:, cols] == 0)
        cols = cols[at]
        t0[rows, cols] = off[rows, cols]
        self.delta = np.einsum("ij,ij->i", t0, off)
        r0 = np.einsum("ij,ij->i", t0, inner)
        keep = off[rows, cols] > 0
        lr, lc = rows[keep], cols[keep]
        self.lone = (lr, lc, off[lr, lc])
        if lr.size:
            r0 += np.bincount(lr, off[lr, lc] ** 2 / self.d[lc], minlength=n + 1)
        self.flat = np.flatnonzero(r0 == 0)
        r0[self.flat] = np.inf
        self.r0 = r0

    def ratio(self, kt, ktt: float) -> float:
        """alpha -> 0+ limit of the order-k ratio for one query.

        ``kt[i] = K(t, x_i)`` and ``ktt = K(t, t)``; the order is the table's.
        The a K(t, t) term vanishes in the limit.  Order 1 is one dot product,
        order 2 one matrix-vector product and order 3 two, plus one more for
        the few points whose k = i terms must be left out of a sum exactly.
        """
        n = self.n
        kt = np.asarray(kt, dtype=float)
        if kt.shape != (n,):
            raise ValueError(f"kernel column must have length {n}, got {kt.shape}")
        order = self.order
        if order == 0:
            return 0.0
        w = kt / self.d
        if order == 1:
            return float(kt @ w)
        # u[i] = sum_{j != i} K(x_i, x_j) K(t, x_j) / d_j
        u = self.off @ w
        if order == 2:
            # over r1_loo = s + a d; a lone point (s = 0) keeps its two-cycle
            # term K(t, x_i)^2 / d_i, unless a three-cycle term reaches it
            c0 = kt * u
            _diverges((self.s == 0) & (c0 > 0))
            return float(np.divide(c0, self.s, out=kt * w, where=self.s > 0).sum())
        return _four_cycle_limit(self, kt, w, u)


def _diverges(lanes: np.ndarray) -> None:
    """Raise if a term of leading power alpha^-1 is left at any of ``lanes``."""
    if lanes.any():
        raise DegenerateConfigurationError(
            "ratio diverges in the small-mass limit: a term of point "
            f"{int(np.flatnonzero(lanes)[0])} outweighs every term of its "
            "denominator; the configuration is degenerate")


def _four_cycle_limit(table: LimitTable, kt, w, u) -> float:
    """The order-3 limit: the sum over i of a B_i / r2_loo[i].

    The bracket B_i = B_-1[i] / a + B_0[i] + O(a) sums, over j != i, the
    four-cycle terms K(t, x_i) K(x_i, x_j) K(x_j, x_k) K(x_k, t) / (a d_k)
    (k not in {i, j}) and the three-cycle terms K(t, x_i) K(x_i, x_j)
    K(x_j, t), each over r1_l2o[i, j].
    """
    n = table.n
    lr, lc, lv = table.lone
    # B_-1 / kt = t0 (off w) - w delta + Z w, Z being off on the lone lanes:
    # the subtraction takes the k = i terms out of the dense product
    v = table.t0 @ u
    b = v - w * table.delta
    lone_w = np.bincount(lr, lv * w[lc], minlength=n)
    b += lone_w
    # the difference is trusted where it keeps at least a quarter of v, so
    # that rounding moves it by a few units of v's last place at most; the
    # other lanes (whose exact value may be 0) are summed again with every
    # term k = i left out, never subtracted
    redo = np.flatnonzero((4.0 * b < v) & (kt > 0))
    if redo.size:
        w_out = w.copy()
        w_out[redo] = 0.0
        others = w[redo][:, None] * (1.0 - np.eye(redo.size))
        U = (table.off @ w_out)[:, None] + table.off[:, redo] @ others
        b[redo] = np.einsum("ij,ji->i", table.t0[redo], U) + lone_w[redo]
    b *= kt
    total = float((b / table.r0).sum())
    flat = table.flat
    if flat.size:
        _diverges(b[flat] > 0)
        # every term starts one power of alpha later: B_0 over r1 = d + delta
        ktf = kt[flat]
        b0 = ktf * (ktf + table.t0[flat] @ kt)
        total += float((b0 / (table.d[flat] + table.delta[flat])).sum())
    return total
