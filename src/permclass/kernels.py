"""Covariance functions and Gram matrices.

A kernel here is a symmetric, elementwise nonnegative covariance function
evaluated on pairs of feature vectors.  Nonnegativity is what lets the
permanental model run at arbitrary positive mass parameters, so every
family enforces it at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Mapping, Sequence

import numpy as np

__all__ = [
    "KernelFamily",
    "Kernel",
    "GramMatrix",
    "kernel_eval",
    "kernel_column",
    "kernel_block",
    "gram",
]


class KernelFamily(str, Enum):
    EXPONENTIAL = "exponential"
    GAUSSIAN = "gaussian"
    CONSTANT = "constant"
    PROJECTION_MATRIX = "projection_matrix"


def _as_point(p) -> np.ndarray:
    q = np.asarray(p, dtype=float)
    if q.ndim == 0:
        q = q.reshape(1)
    if q.ndim != 1:
        raise ValueError(f"feature vector must be one-dimensional, got shape {q.shape}")
    return q


def _as_points(points) -> np.ndarray:
    q = np.asarray(points, dtype=float)
    if q.size == 0:
        return q.reshape(0, q.shape[-1] if q.ndim == 2 else 1)
    if q.ndim == 1:
        q = q.reshape(-1, 1)
    if q.ndim != 2:
        raise ValueError(f"point set must be a 2-d array, got shape {q.shape}")
    return q


def _as_rows(points, what: str) -> np.ndarray:
    """Points as a 2-d float array whose entries are all finite."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2:
        pts = pts.reshape(-1, 1)
    if pts.ndim > 2:
        raise ValueError(f"{what} array must be 2-d (one row per point), got shape {pts.shape}")
    _check_finite(pts, what)
    return pts


def _as_square(matrix, what: str = "matrix") -> np.ndarray:
    """A raw matrix as a square 2-d float array whose entries are all
    finite; ``[]`` is the 0 x 0 matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.shape == (0,):
        m = m.reshape(0, 0)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    _check_finite(m, what)
    return m


def _check_finite(m: np.ndarray, what: str) -> None:
    """Refuse a 2-d array, or a stack of them, with a NaN or infinite entry,
    naming the first by its row and column."""
    if not np.isfinite(m).all():
        at = tuple(int(v) for v in np.argwhere(~np.isfinite(m))[0])
        raise ValueError(f"{what} row {at[-2]}, column {at[-1]} is not finite ({m[at]})")


def _check_kernel_row(kt: np.ndarray, ktt: float) -> None:
    """Refuse a new point's kernel values ``kt`` against the points before
    it, or its K(x, x) = ``ktt``, unless each is finite and nonnegative."""
    if not (np.isfinite(kt).all() and math.isfinite(ktt)):
        raise ValueError("kernel produced a non-finite Gram entry")
    if (kt < 0).any() or ktt < 0:
        raise ValueError("kernel produced a negative Gram entry")


def _label_codes(labels) -> np.ndarray:
    """Labels as a 1-d int array, refusing other shapes, values that are
    not whole numbers and negative codes."""
    raw = np.asarray(labels)
    if raw.ndim != 1:
        raise ValueError(f"labels must be a 1-d array (one code per point), got shape {raw.shape}")
    if raw.dtype.kind == "f":
        bad = np.flatnonzero(~np.isfinite(raw) | (raw != np.round(raw)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"label {i} is not an integer class code ({raw[i]})")
    codes = raw.astype(int)
    if codes.size and codes.min() < 0:
        raise ValueError("label codes must be nonnegative")
    return codes


def _entry(d: Mapping[str, Any], key: str, what: str) -> Any:
    """``d[key]``, refusing a missing key by name."""
    if key not in d:
        raise ValueError(f"{what} has no {key!r} key")
    return d[key]


def _key(p) -> tuple[float, ...]:
    return tuple(float(v) for v in np.atleast_1d(np.asarray(p, dtype=float)))


@dataclass
class Kernel:
    """Covariance function specification, plain data so configs round-trip.

    ``tau`` is the length scale for the exponential/gaussian families and
    ``c`` the level for the constant family.  ``aux`` carries a projection
    kernel's explicit matrix over its indexed ground set.
    """

    family: KernelFamily
    tau: float | None = None
    c: float | None = None
    aux: dict[str, Any] | None = None

    def __post_init__(self):
        self.family = KernelFamily(self.family)
        if self.family in (KernelFamily.EXPONENTIAL, KernelFamily.GAUSSIAN):
            if self.tau is None or not 0 < self.tau < math.inf:
                raise ValueError(f"{self.family.value} kernel requires a finite "
                                 f"tau > 0, got {self.tau}")
        if self.family is KernelFamily.CONSTANT:
            if self.c is None or not 0 < self.c < math.inf:
                raise ValueError(f"constant kernel requires a finite c > 0, got {self.c}")

    # -- constructors -------------------------------------------------

    @classmethod
    def exponential(cls, tau: float) -> "Kernel":
        """k(s, t) = exp(-||s - t|| / tau)."""
        return cls(KernelFamily.EXPONENTIAL, tau=tau)

    @classmethod
    def gaussian(cls, tau: float) -> "Kernel":
        """k(s, t) = exp(-||s - t||^2 / tau^2)."""
        return cls(KernelFamily.GAUSSIAN, tau=tau)

    @classmethod
    def constant(cls, c: float) -> "Kernel":
        """k(s, t) = c everywhere."""
        return cls(KernelFamily.CONSTANT, c=c)

    @classmethod
    def projection(cls, matrix, points: Sequence) -> "Kernel":
        """Explicit finite matrix over an indexed ground set (counting measure).

        The matrix must be square, symmetric, and elementwise nonnegative;
        evaluation outside the ground set is an error.
        """
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"projection matrix must be square, got shape {m.shape}")
        if len(points) != m.shape[0]:
            raise ValueError("ground set size must match the matrix dimension")
        if not np.isfinite(m).all():
            raise ValueError("projection matrix entries must be finite")
        if not np.array_equal(m, m.T):
            raise ValueError("projection matrix must be symmetric")
        if (m < 0).any():
            raise ValueError("kernel matrices must be elementwise nonnegative")
        keys = [_key(p) for p in points]
        if len(set(keys)) != len(keys):
            raise ValueError("ground set points must be distinct")
        return cls(KernelFamily.PROJECTION_MATRIX,
                   aux={"matrix": m.tolist(), "points": keys})

    # -- evaluation helpers -------------------------------------------

    def _proj_index(self, key) -> int:
        pts = self.aux["points"]
        try:
            return pts.index(key)
        except ValueError:
            raise ValueError(f"point {key} is not in the projection kernel ground set") from None

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"family": self.family.value}
        if self.tau is not None:
            out["tau"] = self.tau
        if self.c is not None:
            out["c"] = self.c
        if self.aux is not None:
            out["aux"] = {"matrix": self.aux["matrix"],
                          "points": [list(k) for k in self.aux["points"]]}
        return out

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Kernel":
        family = KernelFamily(_entry(d, "family", "kernel"))
        if family is KernelFamily.PROJECTION_MATRIX:
            aux = _entry(d, "aux", "projection kernel")
            return cls.projection(_entry(aux, "matrix", "projection kernel aux"),
                                  _entry(aux, "points", "projection kernel aux"))
        return cls(family, tau=d.get("tau"), c=d.get("c"))


def kernel_eval(kernel: Kernel, s, t) -> float:
    """Evaluate k(s, t).  Symmetric and nonnegative for every family."""
    sv, tv = _as_point(s), _as_point(t)
    if sv.shape != tv.shape:
        raise ValueError(f"dimension mismatch: {sv.shape[0]} vs {tv.shape[0]}")
    fam = kernel.family
    if fam in (KernelFamily.EXPONENTIAL, KernelFamily.GAUSSIAN):
        return float(kernel_column(kernel, tv, sv[None, :])[0])
    if fam is KernelFamily.CONSTANT:
        return float(kernel.c)
    if fam is KernelFamily.PROJECTION_MATRIX:
        i, j = kernel._proj_index(_key(sv)), kernel._proj_index(_key(tv))
        return float(kernel.aux["matrix"][i][j])
    raise ValueError(f"unknown kernel family {fam!r}")


def kernel_self(kernel: Kernel, t) -> float:
    """k(t, t) without the generic two-point path (it is 1 for the
    distance families and a plain lookup for the rest)."""
    fam = kernel.family
    if fam in (KernelFamily.EXPONENTIAL, KernelFamily.GAUSSIAN):
        return 1.0
    if fam is KernelFamily.CONSTANT:
        return float(kernel.c)
    return kernel_eval(kernel, t, t)


def kernel_self_batch(kernel: Kernel, points) -> np.ndarray:
    """`kernel_self` for every row of ``points``: ones for the distance
    families, ``c`` for the constant family, a per-row lookup for the rest."""
    pts = _as_points(points)
    fam = kernel.family
    if fam in (KernelFamily.EXPONENTIAL, KernelFamily.GAUSSIAN):
        return np.ones(pts.shape[0])
    if fam is KernelFamily.CONSTANT:
        return np.full(pts.shape[0], float(kernel.c))
    return np.array([kernel_eval(kernel, t, t) for t in pts], dtype=float)


def _distance_kernel(kernel: Kernel, sq: np.ndarray) -> np.ndarray:
    """Exponential or gaussian kernel values, in place, from squared
    distances ``((s - t) ** 2).sum(-1)``.  Every path sums them that way, so
    a pair gets one float from `gram`, `kernel_block`, `kernel_column` and
    `kernel_eval`."""
    if kernel.family is KernelFamily.EXPONENTIAL:
        np.sqrt(sq, out=sq)
        sq /= -kernel.tau
    else:
        sq /= -kernel.tau**2
    return np.exp(sq, out=sq)


def _distance_kernels(kernels: Sequence[Kernel], sq: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`_distance_kernel` of each of ``kernels``, all of one distance family,
    from the same squared distances ``sq``, into ``out[k]`` for kernel k: one
    operation per step for the whole stack, each matrix bit for bit
    `_distance_kernel`'s (the steps are the same correctly rounded ones)."""
    if kernels[0].family is KernelFamily.EXPONENTIAL:
        base, scale = np.sqrt(sq), [-k.tau for k in kernels]
    else:
        base, scale = sq, [-k.tau**2 for k in kernels]
    np.divide(base, np.array(scale)[:, None, None], out=out)
    return np.exp(out, out=out)


def kernel_block(kernel: Kernel, queries, points) -> np.ndarray:
    """Matrix of k(t_q, x_i): one row per query, one column per point."""
    qs = _as_points(queries)
    pts = _as_points(points)
    m, n = qs.shape[0], pts.shape[0]
    if n == 0:
        return np.zeros((m, 0))
    if pts.shape[1] != qs.shape[1]:
        raise ValueError(f"dimension mismatch: query is {qs.shape[1]}-d, points are {pts.shape[1]}-d")
    fam = kernel.family
    if fam in (KernelFamily.EXPONENTIAL, KernelFamily.GAUSSIAN):
        return _distance_kernel(kernel, _sq_distances(qs, pts))
    if fam is KernelFamily.CONSTANT:
        return np.full((m, n), float(kernel.c))
    return np.array([[kernel_eval(kernel, t, p) for p in pts] for t in qs]).reshape(m, n)


def kernel_column(kernel: Kernel, t, points) -> np.ndarray:
    """Vector of k(t, x_i) over a point set.

    The distance families sum ``(x - t)^2`` per row directly, the definition
    `_sq_distances` reproduces, so a one-query column skips its block set-up.
    """
    tv = _as_point(t)
    pts = _as_points(points)
    if (kernel.family not in (KernelFamily.EXPONENTIAL, KernelFamily.GAUSSIAN)
            or pts.shape[1] != tv.shape[0]):
        return kernel_block(kernel, tv[None, :], pts)[0]
    delta = pts - tv
    delta *= delta
    return _distance_kernel(kernel, delta.sum(axis=1))


@dataclass
class GramMatrix:
    """Symmetric matrix of kernel values over a point set.

    Immutable after construction; safe for concurrent reads.  ``kernel`` is
    kept so downstream predictors can evaluate query columns against the
    same covariance; it is ``None`` for matrices ingested directly.  A
    matrix from `gram` has nonnegative entries; one from `from_matrix` may
    be signed.  ``entries`` may also be a stack of such matrices over the
    same points along a leading axis, one per kernel, as cross-validation
    builds them (``kernel`` is then ``None``); ``diagonal`` is then stacked
    the same way.
    """

    entries: np.ndarray
    points: np.ndarray
    kernel: Kernel | None = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=float)
        self.points = _as_points(self.points)
        n = self.entries.shape[-1]
        if self.entries.ndim not in (2, 3) or self.entries.shape[-2] != n:
            raise ValueError(f"gram matrix must be square, got shape {self.entries.shape}")
        if self.points.shape[0] != n:
            raise ValueError("gram matrix size must match the point count")

    @property
    def n(self) -> int:
        return self.entries.shape[-1]

    @property
    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.entries, axis1=-2, axis2=-1)

    @classmethod
    def from_matrix(cls, matrix) -> "GramMatrix":
        """Wrap any finite, exactly symmetric matrix, signed entries included
        (points are index stubs); nothing here requires them nonnegative."""
        m = _as_square(matrix)
        if not np.array_equal(m, m.T):
            raise ValueError("matrix must be exactly symmetric")
        pts = np.arange(m.shape[0], dtype=float).reshape(-1, 1)
        return cls(entries=m, points=pts, kernel=None)


# Squared distances are filled in row blocks of at most this many
# difference entries (rows x n x d; 512 kB, or one row when a row alone is
# larger), so a distance-family Gram build peaks at its n x n result plus one
# bounded temporary: rows x n for d < 8, rows x n x d for d >= 8.
_GRAM_BLOCK_ENTRIES = 1 << 16

# numpy's add.reduce sums fewer than 8 terms from 0 in sequence and regroups
# 8 or more pairwise, so accumulating one dimension at a time reproduces
# `(delta * delta).sum(axis=-1)` bit for bit exactly when d < 8.
_ACCUMULATE_BELOW_D = 8


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i, j] = ||a_i - b_j||^2, filled a block of rows of ``a`` at a time.

    Bit-identical to ``((a[:, None] - b[None]) ** 2).sum(axis=2)``.  A block
    has ``_GRAM_BLOCK_ENTRIES // (n * d)`` rows (at least one) for ``b`` of shape
    n x d.  For 0 < d < 8 each block accumulates the squared differences
    one dimension at a time through one reused rows x n temporary; otherwise
    it reduces a rows x n x d difference buffer, also reused (a fresh one
    per block cost more than the arithmetic at n = 24, d = 200).  (a - b)^2
    equals (b - a)^2 exactly, so ``_sq_distances(x, x)`` is exactly symmetric.
    """
    m = a.shape[0]
    n, d = b.shape
    if a.shape[1] != d:
        raise ValueError(f"dimension mismatch: rows are {a.shape[1]}-d, points are {d}-d")
    out = np.empty((m, n))
    step = max(1, _GRAM_BLOCK_ENTRIES // max(n * d, 1))
    if 0 < d < _ACCUMULATE_BELOW_D:
        # contiguous per-dimension rows make the broadcast subtractions cheap
        at, bt = a.T.copy(), b.T.copy()
        tmp = np.empty((min(step, m), n))
        for lo in range(0, m, step):
            blk, t = out[lo:lo + step], tmp[:min(step, m - lo)]
            np.subtract(at[0, lo:lo + step, None], bt[0], out=blk)
            np.multiply(blk, blk, out=blk)
            for k in range(1, d):
                np.subtract(at[k, lo:lo + step, None], bt[k], out=t)
                np.multiply(t, t, out=t)
                blk += t
    else:
        buf = np.empty((min(step, m), n, d))
        for lo in range(0, m, step):
            delta = buf[:min(step, m - lo)]
            np.subtract(a[lo:lo + step, None, :], b[None, :, :], out=delta)
            np.multiply(delta, delta, out=delta)
            delta.sum(axis=2, out=out[lo:lo + step])
    return out


def _checked_gram(kernel: Kernel | None, pts: np.ndarray, entries: np.ndarray) -> GramMatrix:
    if (entries < 0).any():
        raise ValueError("kernel produced a negative Gram entry")
    return GramMatrix(entries=entries, points=pts, kernel=kernel)


def gram(kernel: Kernel, points) -> GramMatrix:
    """The Gram matrix K(x) over a point set: ``kernel_block(kernel, x, x)``.

    Entries are exactly symmetric, as `_sq_distances(x, x)` and every
    family's `kernel_eval` are; gaussian/exponential diagonals are exactly 1,
    as a point's squared distance to itself is 0.  An empty point set yields
    the 0 x 0 matrix (its alpha-permanent is 1 downstream).
    """
    pts = _as_points(points)
    return _checked_gram(kernel, pts, kernel_block(kernel, pts, pts))


class _SharedDistances:
    """A point set's Gram matrices and a query set's blocks against it, for
    any number of kernels over the same points, stacked along a leading
    kernel axis.

    The squared distances of each are computed on the first exponential or
    gaussian kernel that needs them and kept.  The distance kernels of a
    stack are made one transform per family (`_distance_kernels`), which is
    `gram` and `kernel_block` bit for bit; the other families' are `gram`
    and `kernel_block` themselves.  Kept are n x n plus queries x n
    distances.
    """

    def __init__(self, points: np.ndarray, queries: np.ndarray):
        self.points, self.queries = _as_points(points), _as_points(queries)
        self._sq: dict[str, np.ndarray] = {}

    def grams(self, kernels: Sequence[Kernel]) -> GramMatrix:
        """``gram(kernel, points)`` of each of ``kernels``, stacked in their
        order, refusing a negative entry as `gram` does."""
        return _checked_gram(None, self.points, self._stack(kernels, "points"))

    def blocks(self, kernels: Sequence[Kernel]) -> np.ndarray:
        """``kernel_block(kernel, queries, points)`` of each of ``kernels``,
        stacked in their order."""
        return self._stack(kernels, "queries")

    def _stack(self, kernels: Sequence[Kernel], rows: str) -> np.ndarray:
        a = getattr(self, rows)
        out = np.empty((len(kernels), a.shape[0], self.points.shape[0]))
        for k, kernel in enumerate(kernels):
            if kernel.family not in (KernelFamily.EXPONENTIAL, KernelFamily.GAUSSIAN):
                out[k] = kernel_block(kernel, a, self.points)
        for family in (KernelFamily.EXPONENTIAL, KernelFamily.GAUSSIAN):
            at = [k for k, kernel in enumerate(kernels) if kernel.family is family]
            if not at:
                continue
            if rows not in self._sq:
                self._sq[rows] = _sq_distances(a, self.points)
            members = [kernels[k] for k in at]
            if at[-1] - at[0] + 1 == len(at):  # adjacent: transform in place
                _distance_kernels(members, self._sq[rows], out[at[0]:at[-1] + 1])
            else:
                out[at] = _distance_kernels(members, self._sq[rows],
                                            np.empty((len(at), *out.shape[1:])))
        return out
