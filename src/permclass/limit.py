"""The alpha -> 0+ limits C^(k) of the cyclic ratios, and the partition
blocks weighed by them.

The limits follow from the recursion of `cyclic` with every quantity a
truncated power series in a, so configurations where the naive limit is
0/0 (e.g. diagonal kernels over distinct points) still get their finite
limiting value.  A `LimitTable` holds the series' alpha-free coefficients
with every division by a denominator already made; it grows one point at a
time in O(n^2), a row block of its square tables at a time, so a partition
block updates its table in place, and `LimitTable.ratio` costs one dot
product at order 1 and one or two matrix-vector products at orders 2 and
3.  A one-point table's ratio has a closed form (`_singleton_ratio`), by
which a partition weighs all its one-point blocks in one vector operation
instead of keeping tables for them (`_Blocks`).  Kernel values are
nonnegative, so every sum whose zero test decides a leading power is formed
by addition alone and its zero test is exact.  The one subtraction, which
takes the k = i terms out of a dense order-3 product, is kept only where
its result is a sizeable part of the sum it came from; elsewhere that sum
is formed again without those terms.  The scalar series `GradedValue`, run
through the displayed nested sums (in the test suite), is the reference
the tables are checked against.

Only the infinite-class model reads this module, so a start of `fit`,
`predict` or `cv` neither loads nor compiles it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .classify import EXACT_ORDER
from .kernels import _block_rows, _check_kernel_row

if TYPE_CHECKING:  # the exact order's block table loads on its first use
    from .exact import _CypTable

__all__ = ["DegenerateConfigurationError", "LimitTable"]


class DegenerateConfigurationError(ArithmeticError):
    """A small-mass limit hit a quantity that vanishes identically."""


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


def _singleton_ratio(order: int, k: np.ndarray, d: np.ndarray):
    """The limit ratio of one-point blocks, K(t, x) = ``k`` and K(x, x) = ``d``
    elementwise, bit for bit a one-point `LimitTable.ratio`: 0 at order 0,
    the two-cycle term k (k / d) at orders 1 and 2, and at order 3 the
    ``flat`` lane's alpha^1 term (k k) / d."""
    if order == 0:
        return 0.0
    if order == 3:
        # plus the table's empty pair sum, 0 (k / d): 0, or NaN where k / d overflows
        return k * k / d + 0.0 * (k / d)
    return k * (k / d)


class _Blocks:
    """A partition's blocks in the order they opened, and how each is weighed.

    ``members[j]`` is block j's index array.  At orders 0-3 a block of one
    point is held in the singleton lane, its position, member index and
    K(x, x) in three arrays, and all of them are weighed at once by
    `_singleton_ratio`; a block gets a `LimitTable` (``tables[j]``, else
    None) when it gains its second member.  The exact order gives every
    block an `exact._CypTable`.
    """

    def __init__(self, order):
        self.order = order
        self.lane = order != EXACT_ORDER
        self.members: list[np.ndarray] = []
        self.tables: list[LimitTable | _CypTable | None] = []
        self.one_at = np.zeros(0, dtype=int)
        self.one_idx = np.zeros(0, dtype=int)
        self.one_d = np.zeros(0)

    def open(self, i: int, ktt: float) -> None:
        """A new last block of point ``i``, whose K(x, x) is ``ktt``; at
        orders 0-3 the walk has refused one not positive and finite."""
        table = None
        if self.lane:
            self.one_at = np.concatenate((self.one_at, (len(self.tables),)))
            self.one_idx = np.concatenate((self.one_idx, (i,)))
            self.one_d = np.concatenate((self.one_d, (ktt,)))
        else:
            from .exact import _CypTable
            table = _CypTable()
            table.grow(np.zeros(0), ktt)
        self.members.append(np.array([i]))
        self.tables.append(table)

    def add(self, j: int, i: int, kt: np.ndarray, ktt: float) -> None:
        """Point ``i`` joins block j: ``kt`` its kernel values against the
        block's members, ``ktt`` its K(x, x)."""
        table = self.tables[j]
        if table is None:
            at = int(np.searchsorted(self.one_at, j))
            table = self.tables[j] = LimitTable(self.order)
            table.grow(np.zeros(0), self.one_d[at])
            self.one_at, self.one_idx, self.one_d = (
                np.delete(x, at) for x in (self.one_at, self.one_idx, self.one_d))
        table.grow(kt, ktt)
        self.members[j] = np.concatenate((self.members[j], (i,)))

    def weights(self, col: np.ndarray, ktt: float, lam: float) -> np.ndarray:
        """Raw weights of a query whose kernel values against every point
        are ``col``: one per block, in order, then lambda K(t, t)."""
        raw = np.empty(len(self.tables) + 1)
        for j, table in enumerate(self.tables):
            if table is not None:
                try:
                    raw[j] = table.ratio(col[self.members[j]], ktt)
                except ZeroDivisionError as err:
                    raise ZeroDivisionError(
                        f"block {j} ({self.members[j].tolist()}): {err}") from None
        if self.one_at.size:
            raw[self.one_at] = _singleton_ratio(self.order, col[self.one_idx], self.one_d)
        raw[-1] = lam * ktt
        return raw
