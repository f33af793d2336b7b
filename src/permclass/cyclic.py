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
`ratio_batch` evaluates the same sums for a block of queries as matrix
products; the fit-time tables absorb the inner index, so order 3 costs
O(n^2) per query there.  Order k = n is exact and larger exact sizes are
served by the oracle layer, not here.

The a -> 0+ limits C^(k) are evaluated by running the same recursion over
truncated power series in a, so configurations where the naive limit is
0/0 (e.g. diagonal kernels over distinct points) still get their finite
limiting value.  `build_limit_table` and `limit_ratio` run it over arrays
of series, with every excluded index (m != i, k not in {i, j}) left out of
its sum rather than subtracted afterwards, so exact zeros stay exact.
Order 3 then costs O(n^3) per point set and O(n^2) per query.  The scalar
series `GradedValue` defines the arithmetic; run through the displayed
nested sums (in the test suite) it is the reference the array evaluation
is checked against.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Real

import numpy as np

from .kernels import GramMatrix, Kernel, gram, kernel_column, kernel_self

__all__ = [
    "MAX_ORDER",
    "EXACT_ORDER",
    "DegenerateConfigurationError",
    "GradedValue",
    "ALPHA",
    "RatioTable",
    "build_ratio_table",
    "ratio_approx",
    "ratio_from_kt",
    "ratio_batch",
    "ratio_approx_matrix",
    "per_alpha_cyclic",
    "LimitTable",
    "build_limit_table",
    "limit_ratio",
    "cyclic_ratio_approx",
    "cyclic_ratio_from_kt",
    "GramStructure",
    "closed_form_ratio",
    "closed_form_ratio_matrix",
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
# truncated power series in alpha
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# denominator tables
# ---------------------------------------------------------------------------


@dataclass
class RatioTable:
    """Fit-time denominators for a fixed training configuration.

    r1_loo[i]     two-cycle ratio of x_i against the other points,
    r1_l2o[i, j]  two-cycle ratio of x_j against the points minus {i, j}
                  (diagonal entries are inert placeholders),
    r2_loo[i]     three-cycle ratio of x_i against the other points.

    r1_loo is built at every order and serves queries up to order 2;
    r1_l2o, r2_loo and the four-cycle weights are built only at order 3,
    the one order that reads them, and are ``None`` otherwise.  All
    entries are strictly positive for positive alpha and a positive Gram
    diagonal.  Tables depend only on the training points, never on the
    query, and are immutable once built.
    """

    gram: GramMatrix
    alpha: float
    order: int
    r1_loo: np.ndarray
    r1_l2o: np.ndarray | None = None
    r2_loo: np.ndarray | None = None
    _lists: dict = field(default_factory=dict, repr=False)
    _t3: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.gram.n

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
    """

    gram: GramMatrix
    order: int
    d: np.ndarray
    q_sum: np.ndarray
    qoff: np.ndarray | None = None
    g_inner: np.ndarray | None = None


def _fit_core(g: GramMatrix, order: int) -> _FitCore:
    """Everything of an order-``order`` table that does not depend on alpha:
    O(n^2), plus one O(n^3) matrix product at order 3."""
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    G = g.entries
    d = G.diagonal().copy()
    bad = np.flatnonzero(d <= 0)
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"gram diagonal must be strictly positive; point index {i} has "
            f"K(x, x) = {d[i]}"
        )
    Qoff = (G * G) / d[None, :]
    np.fill_diagonal(Qoff, 0.0)
    core = _FitCore(g, order, d, Qoff.sum(axis=1))
    if order == 3:
        core.qoff = Qoff
        inner = (G / d) @ G
        inner -= 2.0 * G
        core.g_inner = G * inner
    return core


def _finish(core: _FitCore, alpha: float) -> RatioTable:
    """The table for one alpha > 0: O(n^2) elementwise work on the core."""
    G = core.gram.entries
    d = core.d
    a = float(alpha)
    r1_loo = a * d + core.q_sum
    table = RatioTable(core.gram, a, core.order, r1_loo)
    if core.order == 3:
        # r1_l2o[i, j] removes the i term from r1_loo[j]
        r1_l2o = r1_loo[None, :] - core.qoff.T
        np.fill_diagonal(r1_l2o, 1.0)
        # C[m, i] is the three-cycle term of x_i through x_m; the product
        # groups as (a * G) * G, and a * (G * G) would round differently
        C = a * G * G
        C += core.g_inner
        C /= r1_l2o.T
        np.fill_diagonal(C, 0.0)
        table.r1_l2o = r1_l2o
        table.r2_loo = a * d + C.sum(axis=0)
        t3 = G / r1_l2o
        np.fill_diagonal(t3, 0.0)
        table._t3 = t3
    return table


def build_ratio_table(g: GramMatrix, alpha: float, order: int = MAX_ORDER) -> RatioTable:
    """Precompute the fit-time denominators that order-``order`` queries read.

    r1_loo, the one table that orders 1 and 2 read, costs O(n^2) and is
    built at every order, so a table also serves queries one order above
    its own up to order 2.  Only order 3 adds the leave-two-out table and
    the three-cycle leave-one-out table, at O(n^2) and O(n^3), the latter
    as one matrix product; an order-3 query needs a table built at order 3.

    The build is an alpha-free core (`_fit_core`: the diagonal, the
    two-cycle terms and their row sums, and at order 3 the O(n^3) product)
    finished for one alpha by O(n^2) elementwise work (`_finish`), so
    tables for several alphas over one Gram matrix can share one core.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return _finish(_fit_core(g, order), alpha)


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


def ratio_batch(table: RatioTable, Kt, ktt, order: int | None = None) -> np.ndarray:
    """Order-k ratios for a block of queries, one per row of ``Kt``.

    ``Kt[q, i] = K(t_q, x_i)`` and ``ktt[q] = K(t_q, t_q)``.  The sums are
    those of `ratio_from_kt`, written as matrix products over the block;
    results agree with it to rounding.  Negative order >= 2 values are
    returned as computed and reported in one warning per call.
    """
    if order is None:
        order = table.order
    _require(table, order)
    a = table.alpha
    n = table.n
    Kt = np.asarray(Kt, dtype=float)
    if Kt.ndim != 2 or Kt.shape[1] != n:
        raise ValueError(f"kernel block must have {n} columns, got shape {Kt.shape}")
    out = a * np.broadcast_to(np.asarray(ktt, dtype=float), Kt.shape[:1])
    if order == 0 or n == 0:
        return out
    G = table.gram.entries
    d = table.gram.diagonal
    if order == 1:
        return out + (Kt * Kt / d).sum(axis=1)
    if order == 2:
        inner = (Kt / d) @ G - Kt           # sum_{j != i} K(x_i, x_j) K(t, x_j) / d_j
        out = out + ((a * Kt * Kt + Kt * inner) / table.r1_loo).sum(axis=1)
    else:
        T = table._t3
        W = Kt / (a * d)
        # the bracket of the four-cycle sum, without the k = i and k = j terms
        E = Kt + Kt @ T.T + (W @ G - W * d) @ T.T - W * np.einsum("ij,ij->i", T, G)
        out = out + ((a * Kt / table.r2_loo) * E).sum(axis=1)
    negative = int(np.count_nonzero(out < 0.0))
    if negative:
        # it is open whether orders >= 2 stay nonnegative off the kernel cone
        log.warning("%d of %d order-%d ratio approximations are negative",
                    negative, out.size, order)
    return out


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
    """Order-k ratio over a raw matrix, last index treated as the query."""
    m = np.asarray(A, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"need a nonempty square matrix, got shape {m.shape}")
    n = m.shape[0] - 1
    table = build_ratio_table(GramMatrix.from_matrix(m[:n, :n]), alpha, order=order)
    return ratio_from_kt(table, m[n, :n], float(m[n, n]), order)


def per_alpha_cyclic(A, alpha: float, order: int = MAX_ORDER) -> float:
    """Approximate per_a(A) as a telescoping product of order-k ratios.

    per_a(A) = prod_m R_{m-1}(x_m; x_{1..m-1}) with each factor replaced
    by its order-k approximation; polynomial cost, unlike the exact sum.
    """
    m = np.asarray(A, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    out = 1.0
    for size in range(m.shape[0]):
        table = build_ratio_table(GramMatrix.from_matrix(m[:size, :size]),
                                  alpha, order=order)
        out *= ratio_from_kt(table, m[size, :size], float(m[size, size]), order)
    return out


# ---------------------------------------------------------------------------
# the alpha -> 0 limit over arrays of truncated series
# ---------------------------------------------------------------------------


_NO_LEAD = 1 << 30  # stands in for the lead of an exact zero in a minimum


@dataclass(frozen=True)
class _Series:
    """Arrays of `GradedValue`: entry-wise alpha^lead (c0 + c1 alpha).

    Normalisation and division follow `GradedValue` entry by entry; the
    exact zero is lead 0, c0 = c1 = 0, so an entry is zero iff c0 == 0.
    """

    lead: np.ndarray
    c0: np.ndarray
    c1: np.ndarray

    @staticmethod
    def normalized(lead, c0, c1) -> "_Series":
        z0 = np.equal(c0, 0.0)
        shift = z0 & np.not_equal(c1, 0.0)
        return _Series(np.where(shift, lead + 1, np.where(z0, 0, lead)),
                       np.where(shift, c1, c0), np.where(z0, 0.0, c1))

    @staticmethod
    def of(c0, c1) -> "_Series":
        """The values c0 + c1 alpha."""
        return _Series.normalized(0, c0, c1)

    def times_alpha(self) -> "_Series":
        return _Series(np.where(self.c0 == 0.0, 0, self.lead + 1), self.c0, self.c1)

    def __truediv__(self, other: "_Series") -> "_Series":
        b0, b1 = other.c0, other.c1
        if (b0 == 0.0).any():
            raise DegenerateConfigurationError(
                "division by a quantity that is identically zero to tracked "
                "order; the configuration is degenerate"
            )
        return _Series.normalized(self.lead - other.lead, self.c0 / b0,
                                  (self.c1 * b0 - self.c0 * b1) / (b0 * b0))

    def _lead_or_none(self) -> np.ndarray:
        return np.where(self.c0 == 0.0, _NO_LEAD, self.lead)

    def _at(self, low):
        """Coefficients of alpha^low and alpha^(low + 1), where ``low`` is
        at most the lead of every nonzero entry (zero entries add 0)."""
        at_low = self.lead == low
        return (np.where(at_low, self.c0, 0.0),
                np.where(at_low, self.c1, 0.0)
                + np.where(self.lead == low + 1, self.c0, 0.0))

    def sum(self, axis: int = -1) -> "_Series":
        """Sum along an axis: the lowest lead among the nonzero terms leads,
        and terms one power higher feed its second coefficient."""
        low = self._lead_or_none().min(axis=axis, keepdims=True)
        c0, c1 = self._at(low)
        return _Series.normalized(np.squeeze(low, axis=axis), c0.sum(axis=axis),
                                  c1.sum(axis=axis))

    def __add__(self, other: "_Series") -> "_Series":
        low = np.minimum(self._lead_or_none(), other._lead_or_none())
        a0, a1 = self._at(low)
        b0, b1 = other._at(low)
        return _Series.normalized(low, a0 + b0, a1 + b1)

    def scalar(self) -> GradedValue:
        """The single entry of a 0-d series."""
        return GradedValue(int(self.lead), float(self.c0), float(self.c1))


def _alpha_times(x) -> _Series:
    """The values alpha x."""
    return _Series.normalized(1, x, 0.0)


def _sum_without(A: np.ndarray) -> np.ndarray:
    """S[j, i] = sum over k != i of A[j, k].

    The excluded term is left out by adding prefix and suffix sums, never
    subtracted from the full row sum: subtraction leaves rounding residue
    where the exact result is 0, and the series arithmetic would read that
    residue as a leading term.
    """
    S = np.zeros_like(A)
    np.cumsum(A[:, :-1], axis=1, out=S[:, 1:])
    S[:, :-1] += np.cumsum(A[:, :0:-1], axis=1)[:, ::-1]
    return S


@dataclass
class LimitTable:
    """Series denominators of the alpha -> 0+ recursion for one point set.

    The series counterparts of `RatioTable`'s r1_loo (order 2), r1_l2o and
    r2_loo (order 3), built once per point set and shared by every query.
    ``off`` is the Gram matrix with its diagonal zeroed: products through
    it drop the excluded i = j terms exactly.
    """

    gram: GramMatrix
    order: int
    off: np.ndarray
    r1_loo: _Series | None = None
    r1_l2o: _Series | None = None
    r2_loo: _Series | None = None


def build_limit_table(g: GramMatrix, order: int) -> LimitTable:
    """Denominators for the alpha -> 0+ limit of the order-k ratio.

    Order 2 costs O(n^2) and order 3 O(n^3), one matrix product.
    """
    if order not in (0, 1, 2, 3):
        raise ValueError(f"order must be in 0..3, got {order}")
    n = g.n
    if n == 0:
        raise ValueError("cyclic ratio is undefined for an empty point set")
    d = g.diagonal
    bad = np.flatnonzero(d <= 0)
    if bad.size:
        raise ValueError(f"gram diagonal must be strictly positive; point index "
                         f"{int(bad[0])} has K(x, x) = {d[int(bad[0])]}")
    off = g.entries.copy()
    np.fill_diagonal(off, 0.0)
    table = LimitTable(g, order, off)
    # Q[i, m] = K(x_i, x_m)^2 / K(x_m, x_m), m != i
    Q = off * off / d
    if order == 2:
        table.r1_loo = _Series.of(Q.sum(axis=1), d)
    if order == 3:
        # r1_l2o[i, j] = a d_j + sum_{m not in {i, j}} Q[j, m]
        table.r1_l2o = _Series.of(_sum_without(Q).T, d)
        # inner[m, i] = sum_{l not in {i, m}} K(x_m, x_l) K(x_l, x_i) / d_l
        inner = (off / d) @ off
        terms = _Series.of(off * inner.T, off * off) / table.r1_l2o
        table.r2_loo = _alpha_times(d) + terms.sum(axis=1)
    return table


def limit_ratio(table: LimitTable, kt, ktt: float) -> float:
    """alpha -> 0+ limit of the order-k ratio for one query.

    ``kt[i] = K(t, x_i)`` and ``ktt = K(t, t)``; the order is the table's.
    """
    n = table.gram.n
    kt = np.asarray(kt, dtype=float)
    if kt.shape != (n,):
        raise ValueError(f"kernel column must have length {n}, got {kt.shape}")
    order = table.order
    total = ALPHA * float(ktt)
    w = kt / table.gram.diagonal
    if order == 1:
        total = total + float(kt @ w)
    elif order == 2:
        # inner[i] = sum_{j != i} K(x_i, x_j) K(t, x_j) / d_j
        terms = _Series.of(kt * (table.off @ w), kt * kt) / table.r1_loo
        total = total + terms.sum().scalar()
    elif order == 3:
        # x[i, j] = K(t, x_i) K(x_i, x_j); h[i, j] = sum_{k not in {i, j}} K(x_j, x_k) w_k
        x = kt[:, None] * table.off
        h = _sum_without(table.off * w).T
        # the k-sum passes through the uni-cycle 1 / (a d_k): lead -1
        terms = _Series.normalized(-1, x * h, x * kt) / table.r1_l2o
        bracket = _Series.of(kt * kt, 0.0) + terms.sum(axis=1)
        total = total + (bracket.times_alpha() / table.r2_loo).sum().scalar()
    return total.limit()


def cyclic_ratio_from_kt(g: GramMatrix, kt, ktt: float, order: int) -> float:
    """alpha -> 0+ limit of the order-k ratio, via series arithmetic."""
    return limit_ratio(build_limit_table(g, order), kt, ktt)


def cyclic_ratio_approx(t, points, g: GramMatrix, order: int) -> float:
    """Order-k approximation of the cyclic ratio C_n(t; x), n >= 1."""
    kernel = g.kernel
    if kernel is None:
        raise ValueError("gram was built from a raw matrix; use "
                         "cyclic_ratio_from_kt with an explicit kernel column")
    kt = kernel_column(kernel, t, g.points)
    ktt = kernel_self(kernel, t)
    return cyclic_ratio_from_kt(g, kt, ktt, order)


# ---------------------------------------------------------------------------
# closed forms for structured training matrices
# ---------------------------------------------------------------------------


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
    m = np.asarray(G, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
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


def closed_form_ratio(t, points, kernel: Kernel, alpha: float,
                      structure: GramStructure | str) -> float:
    """Closed-form ratio with the training matrix built from a kernel."""
    g = gram(kernel, points)
    kt = kernel_column(kernel, t, g.points)
    ktt = kernel_self(kernel, t)
    return closed_form_ratio_matrix(g.entries, kt, ktt, alpha, structure)
