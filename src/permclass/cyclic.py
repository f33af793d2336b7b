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
matrix products, in O(n^2) per query at order 3.  Order k = n is exact;
larger exact sizes are served by the oracle layer.

The a -> 0+ limits C^(k) follow from the same recursion with every
quantity a truncated power series in a, so configurations where the naive
limit is 0/0 (e.g. diagonal kernels over distinct points) still get their
finite limiting value.  A `LimitTable` holds the series' alpha-free
coefficients with every division by a denominator already made; it grows
one point at a time in O(n^2), a row block of its square tables at a time,
so a partition block updates its table in place, and `LimitTable.ratio`
costs one dot product at order 1 and one or two matrix-vector products at
orders 2 and 3.  A one-point table's ratio has a closed form (see
`LimitTable`), by which a partition weighs all its one-point blocks in one
vector operation instead of keeping tables for them.  Kernel values are nonnegative,
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

from .kernels import (GramMatrix, _block_rows, _check_finite, _check_kernel_row,
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

    ``unit`` is whether every entry of the Gram diagonal is exactly 1.0, on
    which `rows` skips its division by the diagonal (x / 1.0 = x).

    A table holds what its own order's sums read, and both `rows` and
    `ratio_from_kt` answer at that order; the rest is ``None``.  Orders 0
    and 1 read only the Gram diagonal, order 2 also r1_loo, and order 3
    r2_loo and the four-cycle weights: T = G / r1_l2o off the diagonal
    (r1_l2o, the leave-two-out ratios, is not kept), s3 and dg (see
    `_FitCore.finish`), and the four-cycle matrix M, built on `rows`' first block
    of a query set of n rows or more.  r1_loo and r2_loo are strictly positive for
    positive alpha and a positive Gram diagonal.

    ``alpha`` is one mass or, for a table finished for several candidates
    at once, a 1-d array of them; every alpha-dependent entry then has a
    leading axis with one slice per candidate, bit for bit that candidate's
    own table, and `rows` answers for every candidate in one pass.  Over a
    stack of K Gram matrices (one per kernel, as cross-validation builds
    them) ``alpha`` is an A x K array, column k the alphas of kernel k's A
    candidates, and the entries gain both leading axes, candidate before
    kernel; a kernel's arrays, which carry only the kernel axis, broadcast
    over its candidates by numpy's trailing-axis rule, so no per-kernel
    array is copied per candidate.  Such a stacked table serves `rows`
    only, not the single-query `ratio_from_kt`.
    """

    gram: GramMatrix
    alpha: float | np.ndarray
    order: int
    r1_loo: np.ndarray | None = None
    r2_loo: np.ndarray | None = None
    unit: bool = False
    _lists: dict = field(default_factory=dict, repr=False)
    _t3: np.ndarray | None = field(default=None, repr=False)
    _s3: np.ndarray | None = field(default=None, repr=False)
    _dg: np.ndarray | None = field(default=None, repr=False)
    _m3: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.gram.n

    def rows(self, Kt, ktt, n_queries: int | None = None) -> np.ndarray:
        """Ratios at the table's order for a block of queries, one per row of ``Kt``.

        ``Kt[q, i] = K(t_q, x_i)`` and ``ktt[q] = K(t_q, t_q)``; over a
        stack of Gram matrices both gain its leading kernel axis.  The
        sums are those of `ratio_from_kt`, written as matrix products over
        the block; results agree with it to rounding.  Order 2 forms the
        alpha-free product P = (Kt / d) G - Kt once per call and kernel;
        order 3 its four-cycle bracket from Kt M for a query set of
        ``n_queries`` >= n rows (default: the block), else from Kt dg,
        once per call and kernel, and Kt T^T.  The result has shape (Q,)
        for a table of one alpha, (A, Q) for A alphas and (A, K, Q) for an
        A x K array over a stack of K Gram matrices, each row the one-alpha
        result bit for bit.  Negative order >= 2 values are returned as
        computed and reported in one warning per call.
        """
        order = self.order
        n = self.n
        Kt = np.asarray(Kt, dtype=float)
        if Kt.ndim != self.gram.entries.ndim or Kt.shape[-1] != n:
            raise ValueError(f"kernel block must have {n} columns, got shape {Kt.shape}")
        # alpha against a block: (1, 1) for one alpha, (A, 1, 1) or (A, K, 1, 1)
        a = np.asarray(self.alpha)[..., None, None]
        out = a[..., 0] * np.asarray(ktt, dtype=float)
        if order == 0 or n == 0:
            return out
        G = self.gram.entries
        # a diagonal of exact ones divides nothing, so it is skipped: x / 1.0 = x
        d = None if self.unit else self.gram.diagonal[..., None, :]
        if order == 1:
            return out + (Kt * Kt if d is None else Kt * Kt / d).sum(axis=-1)
        if order == 2:
            # P[q, i] = sum_{j != i} K(x_i, x_j) K(t_q, x_j) / d_j, the same for every alpha
            P = (Kt if d is None else Kt / d) @ G - Kt
            out = out + ((a * Kt * Kt + Kt * P) / self.r1_loo[..., None, :]).sum(axis=-1)
        else:
            # the four-cycle bracket E: Kt M, or without M (for fewer rows)
            # Kt + (Kt + (Kt dg) / a) T^T less the k = i terms Kt s3 / a
            if _reads_four_cycle_matrix(Kt.shape[-2] if n_queries is None else n_queries, n):
                E = Kt @ self._four_cycle_matrix()
            else:
                E = (Kt @ self._dg) / a
                E += Kt
                E = E @ np.swapaxes(self._t3, -1, -2)
                E += Kt
                E -= Kt * (self._s3[..., None, :] / a)
            out = out + ((Kt * (a / self.r2_loo[..., None, :])) * E).sum(axis=-1)
        negative = int(np.count_nonzero(out < 0.0))
        if negative:
            # it is open whether orders >= 2 stay nonnegative off the kernel cone
            log.warning("%d of %d order-%d ratio approximations are negative",
                        negative, out.size, order)
        return out

    def _four_cycle_matrix(self) -> np.ndarray:
        """M = I + T^T + (dg T^T) / alpha with a unit diagonal (no k = i
        terms): one O(n^3) product per alpha, made on first use and kept."""
        if self._m3 is None:
            Tt = np.swapaxes(self._t3, -1, -2)
            m3 = self._dg @ Tt
            m3 *= 1.0 / np.asarray(self.alpha)[..., None, None]
            m3 += Tt
            m3[(..., *np.diag_indices(self.n))] = 1.0
            self._m3 = m3
        return self._m3

    def _python_lists(self) -> dict:
        """Python-list copies of what the order-1 and order-2 single-query sums
        read, made on first use so that batched prediction never pays for them."""
        if not self._lists:
            self._lists = {"d": self.gram.diagonal.tolist()}
            if self.order == 2:
                self._lists.update(G=self.gram.entries.tolist(), r1_loo=self.r1_loo.tolist())
        return self._lists


@dataclass
class _FitCore:
    """The alpha-free part of a `RatioTable`, shared by every alpha.

    d        the Gram diagonal,
    q_sum    row sums of Qoff[i, m] = K(x_i, x_m)^2 / K(x_m, x_m), m != i (orders 2-3),
    unit     whether every entry of d is exactly 1.0,
    g_inner  G[m, i] times the leave-two-out product
             sum_{l != i, m} K(x_m, x_l) K(x_l, x_i) / K(x_l, x_l)
             (order 3 only).

    Beside the Gram matrix the core keeps only g_inner, its one O(n^3)
    product; `finish` makes the rest from G and d, in O(n^2) per alpha.  On a
    diagonal of exact ones nothing is divided by it, with the same bits
    (x / 1.0 = x): Qoff is G * G, g_inner's product is G @ G and `finish`'s
    dg is a copy of G.
    Over a stack of Gram matrices every array has the stack's kernel axis.
    """

    gram: GramMatrix
    order: int
    d: np.ndarray
    q_sum: np.ndarray | None
    unit: bool
    g_inner: np.ndarray | None = None

    def finish(self, alpha, out: np.ndarray | None = None) -> RatioTable:
        """The table for one alpha > 0, for a 1-d array of alphas stacked
        along a leading axis or, over a stack of K Gram matrices, for an
        A x K array (column k for kernel k), before which the core's kernel
        axis broadcasts: O(n^2) elementwise work on the core per alpha,
        each slice bit for bit the one-alpha table.  At order 3 T^T is
        written into ``out`` when it is given (alpha's shape + (n, n)),
        else into a new array; cross-validation reuses one."""
        alpha = _alpha_arg(alpha)
        a = np.asarray(alpha)[..., None]  # (1,) for one alpha, (A, 1) or (A, K, 1)
        table = RatioTable(self.gram, alpha, self.order, unit=self.unit)
        if self.order < 2:
            return table
        ad = a * self.d
        r1_loo = table.r1_loo = ad + self.q_sum
        if self.order == 3:
            G = self.gram.entries
            # r1_l2o^T: l2o[m, i] is x_m's two-cycle ratio against the points
            # minus {i, m}, r1_loo[m] less q[m, i] = Qoff[m, i] (1.0 on the diagonal)
            q = G * G
            if not self.unit:
                q /= self.d[..., None, :]
            l2o = r1_loo[..., :, None] - q
            del q
            diag = (..., *np.diag_indices(self.gram.n))
            l2o[diag] = 1.0
            # C[m, i] is the three-cycle term of x_i through x_m; the product
            # groups as (a * G) * G, and a * (G * G) would round differently
            C = np.multiply(a[..., None], G, out=out)
            C *= G
            C += self.g_inner
            C /= l2o
            C[diag] = 0.0
            table.r2_loo = ad + C.sum(axis=-2)
            # T^T = G / r1_l2o^T (G is symmetric), contiguous, into C's buffer
            Tt = np.divide(G, l2o, out=C)
            Tt[diag] = 0.0
            del l2o
            table._t3 = np.swapaxes(Tt, -1, -2)
            # dg: G / d by rows (a copy of G on a unit diagonal, in the layout the
            # division makes), zero diagonal, once per kernel; s3[i] = (dg T^T)[i, i],
            # the k = i terms, from the very products dg[i, j] T[i, j] that (Kt dg) T^T sums
            dg = G.copy(order="K") if self.unit else G / self.d[..., :, None]
            dg[diag] = 0.0
            table._s3 = (dg[..., None, :] @ table._t3[..., None])[..., 0, 0]
            table._dg = dg
        return table


def _reads_four_cycle_matrix(n_queries: int, n: int) -> bool:
    """Whether an order-3 table of n points reads ``n_queries`` queries
    by M: its O(n^3) build saves one O(n^2) product per query."""
    return n_queries >= n


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
    O(n^2), plus one O(n^3) product at order 3, for one Gram matrix or a
    stack.  Orders 0 and 1 keep only the diagonal, and test the Gram matrix
    for a non-finite entry by its sum.  At orders 2 and 3 Qoff's rows are
    summed a `_block_rows` block at a time in a reused scratch, with the
    same bits, so the only n x n array made and kept is order 3's g_inner.
    On a diagonal of exact ones (the distance kernels') Qoff and g_inner
    skip their divisions by it, which changes no bit."""
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    G = g.entries
    d = _gram_diagonal(G)
    unit = bool((d == 1.0).all())
    if order < 2:
        with np.errstate(over="ignore"):  # finite entries may sum past the float range
            finite = math.isfinite(G.sum())
        if not finite:
            # a NaN or infinite entry makes the sum so; finding it is O(n^2)
            _check_finite(G, "gram matrix")
        return _FitCore(g, order, d, None, unit)
    n = g.n
    step = _block_rows(d.size)
    Qoff = np.empty((*d.shape[:-1], min(step, n), n))
    q_sum = np.empty(d.shape)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        Q = Qoff[..., :hi - lo, :]
        np.multiply(G[..., lo:hi, :], G[..., lo:hi, :], out=Q)
        if not unit:
            Q /= d[..., None, :]
        at = np.arange(hi - lo)
        Q[..., at, at + lo] = 0.0
        Q.sum(axis=-1, out=q_sum[..., lo:hi])
    if not np.isfinite(q_sum).all():
        # a NaN or infinite entry makes its row's sum so; finding it is O(n^2)
        _check_finite(G, "gram matrix")
    if order == 2:
        return _FitCore(g, order, d, q_sum, unit)
    inner = (G if unit else G / d[..., None, :]) @ G
    inner -= 2.0 * G
    inner *= G
    return _FitCore(g, order, d, q_sum, unit, inner)


def build_ratio_table(g: GramMatrix, alpha: float, order: int = MAX_ORDER) -> RatioTable:
    """Precompute the fit-time denominators that order-``order`` queries
    read (see `RatioTable`): O(n^2), plus one O(n^3) product at order 3.
    The build is an alpha-free core (`_fit_core`) finished for one alpha in
    O(n^2) (`_FitCore.finish`), so alphas over one Gram matrix can share a
    core, or be finished from it together as one stacked table."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return _fit_core(g, order).finish(alpha)


def ratio_from_kt(table: RatioTable, kt, ktt: float) -> float:
    """The ratio at the table's order from the query's kernel values.

    This is the matrix-level entry point: `kt[i] = K(t, x_i)` and
    ``ktt = K(t, t)``.  Values can be negative only if a caller feeds a
    non-kernel matrix; they are returned as computed, never clamped.
    """
    order = table.order
    a = table.alpha
    n = table.n
    kt = np.asarray(kt, dtype=float)
    if kt.shape != (n,):
        raise ValueError(f"kernel column must have length {n}, got {kt.shape}")
    base = a * float(ktt)
    if order == 0 or n == 0:
        return base
    if order == 3:
        return _surface(_four_cycle(table, kt, base), 3)
    lists = table._python_lists()
    dl = lists["d"]
    ktl = kt.tolist()
    if order == 1:
        return base + math.fsum(ktl[i] * ktl[i] / dl[i] for i in range(n))
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


def ratio_approx(t, table: RatioTable) -> float:
    """Approximation of R_n(t; x) at a query at the table's order, x the
    table's points."""
    kernel = table.gram.kernel
    if kernel is None:
        raise ValueError("table was built from a raw matrix; use ratio_from_kt "
                         "with an explicit kernel column")
    ktt = kernel_self(kernel, t)
    if table.order == 0:
        return table.alpha * ktt
    kt = kernel_column(kernel, t, table.gram.points)
    return ratio_from_kt(table, kt, ktt)


def ratio_approx_matrix(A, alpha: float, order: int = MAX_ORDER) -> float:
    """Order-k ratio over a raw symmetric matrix, last index the query."""
    m = GramMatrix.from_matrix(A).entries
    n = m.shape[0] - 1
    if n < 0:
        raise ValueError("ratio needs at least the added point on the diagonal")
    table = build_ratio_table(GramMatrix.from_matrix(m[:n, :n]), alpha, order=order)
    return ratio_from_kt(table, m[n, :n], float(m[n, n]))


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
    positive term.  The suffix sums are accumulated straight into ``out``,
    read backwards.
    """
    out = np.empty_like(v)
    if v.size:
        v[:0:-1].cumsum(out=out[-2::-1])
        out[-1] = 0.0
        out[1:] += v[:-1].cumsum()
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
              only neighbour), and off there;
    unit      whether every K(x, x) grown so far is exactly 1.0 (the
              distance kernels'): `grow` and `ratio` then skip their
              divisions by d, with the same bits (x / 1.0 = x).

    Kernel values are nonnegative, so a sum of them is exactly 0 only if
    none of its terms is positive.  Every value above is built by adding
    terms, never by subtracting, so its zero test is exact, and where s2
    can be 0 follows from the counts ``s_terms``.  `grow` adds a point in
    O(n^2) in place, into buffers with spare room: it forms the new point's
    squared kernel row and its sum once, updates the square tables a
    `_block_rows` block of rows at a time, and skips the lone-lane and flat
    work when ``s_terms`` and r0 show there is none.

    With one point x the tables are empty of pairs, and the ratio of a
    query with k = K(t, x) is, bit for bit: 0 at order 0, k (k / d) at
    orders 1 and 2, and (k k) / d + 0 (k / d) at order 3, where x is a flat
    lane (r0 = 0, delta = 0) and the empty pair sum is 0 (k / d).
    """

    _BUFFERS = {0: ("d",), 1: ("d",), 2: ("d", "s", "off"),
                3: ("d", "s", "s_terms", "off", "s2", "inner", "t0")}

    def __init__(self, order: int):
        if order not in (0, 1, 2, 3):
            raise ValueError(f"order must be in 0..3, got {order}")
        self.order = order
        self.n = 0
        self.unit = True
        self.d = self.s = self.delta = self.r0 = np.zeros(0)
        self.s_terms = np.zeros(0, dtype=int)
        self.off = self.s2 = self.inner = self.t0 = np.zeros((0, 0))
        self.flat = np.zeros(0, dtype=int)
        self.lone = self._no_lone = (self.flat, self.flat, np.zeros(0))
        self._room = 0
        self._buffers: dict[str, np.ndarray] = {}

    def _reserve(self, n: int) -> None:
        """Buffers for at least ``n`` points, grown by a quarter at a time."""
        if n <= self._room:
            return
        room = max(n, self._room + self._room // 4, 8)
        for name in self._BUFFERS[self.order]:
            value = getattr(self, name)
            buf = self._buffers[name] = np.zeros((room,) * value.ndim, value.dtype)
            part = (slice(self.n),) * value.ndim
            buf[part] = value
            setattr(self, name, buf[part])
        self._room = room

    def _border(self, name: str, corner, row=None, col=None) -> np.ndarray:
        """Write the new point's entry (and row and column if square);
        returns the grown view."""
        n = self.n
        buf = self._buffers[name]
        if row is None:
            buf[n] = corner
            view = buf[:n + 1]
        else:
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
        dp, d = float(ktt), self.d
        # a unit diagonal divides nothing, with the same bits: x / 1.0 = x
        unit = self.unit and dp == 1.0
        if self.order >= 2:
            aa = a * a
            q_col = aa if unit else aa / dp  # Q[j, p] for the new point p
            q_row = aa if unit else aa / d   # Q[p, m]
            corner = q_row.sum()             # s, s2 and inner at (p, p)
            finite = corner < math.inf       # an inf or NaN entry makes the sum so
        else:
            finite = a.max(initial=0.0) < math.inf
        # a.min is NaN if any entry is; the row is scanned again only to name
        # a refusal (or to pass a finite row whose squares overflow)
        if not (finite and a.min(initial=0.0) >= 0.0 and dp < math.inf):
            _check_kernel_row(a, ktt)
        self._reserve(n + 1)
        self._border("d", dp)
        if self.order >= 2:
            off = self._border("off", 0.0, a, a)
            if self.order == 3:
                a_dp, a_d = (a, a) if unit else (a / dp, a / d)
                self._grow_order3(a, a_dp, a_d, q_col, q_row, corner, off)
            self.s[:n] += q_col  # after order 3 read old s
            self._border("s", corner)
        self.n += 1
        self.unit = unit

    def _grow_order3(self, a, a_dp, a_d, q_col, q_row, corner, off) -> None:
        n = self.n
        self.s_terms[:n] += q_col > 0
        s_terms = self._border("s_terms", np.count_nonzero(q_row))
        # s2[i, j] is 0 only in a column j with at most one positive Q[j, m]
        few = s_terms.min() <= 1
        # the new row and column of s2 and inner; their old entries gain the
        # terms through p in `_grow_rows`
        s2 = self._border("s2", corner, self.s, _sum_without(q_row))
        new = a_d @ off[:n, :n]
        inner = self._border("inner", corner, new, new)
        t0 = self.t0 = self._buffers["t0"][:n + 1, :n + 1]
        self.delta, r0 = np.empty(n + 1), np.empty(n + 1)
        lone = self._no_lone
        if few:
            # t0 is off where s2 = 0, a lone lane where off > 0 there; the row
            # sums read t0 after this fix
            with np.errstate(divide="ignore", invalid="ignore"):
                self._grow_rows(a, a_dp, q_col, None)
            cols = np.flatnonzero(s_terms <= 1)
            rows, at = np.nonzero(s2[:, cols] == 0)
            cols = cols[at]
            t0[rows, cols] = off[rows, cols]
            keep = off[rows, cols] > 0
            lr, lc = rows[keep], cols[keep]
            lone = (lr, lc, off[lr, lc])
            np.einsum("ij,ij->i", t0, off, out=self.delta)
            np.einsum("ij,ij->i", t0, inner, out=r0)
        else:
            self._grow_rows(a, a_dp, q_col, r0)
        self.lone = lr, lc, lv = lone
        if lr.size:
            r0 += np.bincount(lr, lv ** 2 / self.d[lc], minlength=n + 1)
        self.flat = self._no_lone[0]
        if np.count_nonzero(r0) < r0.size:  # some r0 is 0
            self.flat = np.flatnonzero(r0 == 0)
            r0[self.flat] = np.inf
        self.r0 = r0

    def _grow_rows(self, a, a_dp, q_col, r0) -> None:
        """The square tables' updates for a new point p, a `_block_rows`
        block of rows at a time, so each block is read from memory once:
        s2 gains Q[j, p] (p lies outside every old pair {i, j}), inner the
        rank-one term through p (formed in t0's rows), t0 = off / s2 and,
        given ``r0``, the row sums delta and r0.  Every entry has the bits
        of the whole-matrix passes."""
        n = self.n
        off, s2, inner, t0 = self.off, self.s2, self.inner, self.t0
        step = _block_rows(n + 1)
        for lo in range(0, n + 1, step):
            rows, old = slice(lo, lo + step), slice(lo, min(lo + step, n))
            s2[old, :n] += q_col
            inner[old, :n] += np.multiply.outer(a[old], a_dp, out=t0[old, :n])
            np.divide(off[rows], s2[rows], out=t0[rows])
            if r0 is not None:
                np.einsum("ij,ij->i", t0[rows], off[rows], out=self.delta[rows])
                np.einsum("ij,ij->i", t0[rows], inner[rows], out=r0[rows])

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
        w = kt if self.unit else kt / self.d
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
    if lr.size:
        lone_w = np.bincount(lr, lv * w[lc], minlength=n)
        b += lone_w
    # the difference is trusted where it keeps at least a quarter of v, so
    # that rounding moves it by a few units of v's last place at most; the
    # other lanes (whose exact value may be 0) are summed again with every
    # term k = i left out, never subtracted
    lanes = 4.0 * b < v
    if lanes.any():
        redo = np.flatnonzero(lanes & (kt > 0))
        w_out = w.copy()
        w_out[redo] = 0.0
        others = w[redo][:, None] * (1.0 - np.eye(redo.size))
        U = (table.off @ w_out)[:, None] + table.off[:, redo] @ others
        again = np.einsum("ij,ji->i", table.t0[redo], U)
        if lr.size:
            again += lone_w[redo]
        b[redo] = again
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
