"""Covariance functions and Gram matrices.

A kernel here is a symmetric, elementwise nonnegative covariance function
evaluated on pairs of feature vectors.  Nonnegativity is what lets the
permanental model run at arbitrary positive mass parameters, so every
family enforces it at construction.
"""

from __future__ import annotations

import math
import numbers
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


# the families whose values are a transform of squared distances
_DISTANCE_FAMILIES = (KernelFamily.EXPONENTIAL, KernelFamily.GAUSSIAN)


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
    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as err:  # a mapping or a string in it, or ragged rows
        raise ValueError(f"{what} array must be rows of real numbers ({err})") from None
    if pts.ndim < 2:
        pts = pts.reshape(-1, 1)
    if pts.ndim > 2:
        raise ValueError(f"{what} array must be 2-d (one row per point), got shape {pts.shape}")
    _check_finite(pts, what)
    return pts


def _as_square(matrix, what: str = "matrix") -> np.ndarray:
    """A raw matrix as a square 2-d float array whose entries are all
    finite; ``[]`` is the 0 x 0 matrix."""
    try:
        m = np.asarray(matrix, dtype=float)
    except (TypeError, ValueError) as err:  # a mapping or a string in it, or ragged rows
        raise ValueError(f"{what} must be rows of real numbers ({err})") from None
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


_BOOL_TYPES = frozenset((bool, np.bool_))


def _label_codes(labels) -> np.ndarray:
    """Labels as a 1-d int array, refusing other shapes, bools, entries
    that are not whole numbers in the int64 range, and negative codes."""
    raw = np.asarray(labels)
    if raw.ndim != 1:
        raise ValueError(f"labels must be a 1-d array (one code per point), got shape {raw.shape}")
    if raw.dtype.kind not in "iuf":  # a bool, a string, a null or a mapping among them
        for i, v in enumerate(raw.tolist()):
            if not _is_real(v):
                raise ValueError(f"label {i} is not an integer class code ({v!r})")
        raw = raw.astype(float)
    elif isinstance(labels, (list, tuple)) and not _BOOL_TYPES.isdisjoint(map(type, labels)):
        # numpy has read a bool among the numbers as 0 or 1
        i = next(i for i, v in enumerate(labels) if type(v) in _BOOL_TYPES)
        raise ValueError(f"label {i} is not an integer class code ({labels[i]!r})")
    if raw.dtype.kind == "f":
        # a whole number past the int64 range would wrap when converted
        bad = np.flatnonzero(~np.isfinite(raw) | (raw != np.round(raw)) | (abs(raw) >= 2.0**63))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"label {i} is not an integer class code ({raw[i]})")
    codes = raw.astype(int)
    if codes.size and codes.min() < 0:
        raise ValueError("label codes must be nonnegative")
    return codes


def _is_real(value) -> bool:
    """Whether ``value`` is a real number and not a bool, which Python and
    numpy would otherwise take as 0 or 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer and not a bool."""
    return _is_real(value) and isinstance(value, numbers.Integral)


def _entry(d: Mapping[str, Any], key: str, what: str) -> Any:
    """``d[key]``, refusing a ``d`` that is not a mapping or a missing key by name."""
    if not isinstance(d, Mapping):
        raise ValueError(f"{what} must be a mapping with a {key!r} key, got {type(d).__name__}")
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
    kernel's explicit matrix over its indexed ground set.  A family refuses
    the others' parameters, which `to_dict` and CV's tie-break would read.
    `__post_init__` checks every kernel when it is made, however it is made,
    so every family's values are finite and nonnegative by construction and
    no Gram matrix is scanned for them.
    """

    family: KernelFamily
    tau: float | None = None
    c: float | None = None
    aux: dict[str, Any] | None = None

    def __post_init__(self):
        self.family = KernelFamily(self.family)
        for key, read in (("tau", self.family in _DISTANCE_FAMILIES),
                          ("c", self.family is KernelFamily.CONSTANT),
                          ("aux", self.family is KernelFamily.PROJECTION_MATRIX)):
            value = getattr(self, key)
            if value is not None and not read:
                raise ValueError(f"{self.family.value} kernel takes no {key}, got {value!r}")
            if read and key != "aux" and not (_is_real(value) and 0 < value < math.inf):
                raise ValueError(f"{self.family.value} kernel requires a finite "
                                 f"{key} > 0, got {value!r}")
        if self.family is KernelFamily.PROJECTION_MATRIX:
            aux = self.aux
            if aux is None:
                raise ValueError("projection kernel has no 'aux' key")
            m = _as_square(_entry(aux, "matrix", "projection kernel aux"), "projection matrix")
            points = _as_rows(_entry(aux, "points", "projection kernel aux"), "ground set")
            keys = [tuple(p) for p in points.tolist()]
            if len(keys) != m.shape[0]:
                raise ValueError("ground set size must match the matrix dimension")
            if not np.array_equal(m, m.T):
                raise ValueError("projection matrix must be symmetric")
            if (m < 0).any():
                raise ValueError("kernel matrices must be elementwise nonnegative")
            if len(set(keys)) != len(keys):
                raise ValueError("ground set points must be distinct")
            self.aux = {"matrix": m.tolist(), "points": keys}

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
        return cls(KernelFamily.PROJECTION_MATRIX, aux={"matrix": matrix, "points": points})

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
        return cls(_entry(d, "family", "kernel"), tau=d.get("tau"), c=d.get("c"),
                   aux=d.get("aux"))


def _ground_indices(kernel: Kernel, *point_sets) -> list[np.ndarray]:
    """Each point set's rows as their indices in a projection kernel's
    ground set, through one map from point key to index."""
    index = {key: i for i, key in enumerate(kernel.aux["points"])}
    try:
        return [np.array([index[_key(p)] for p in pts], dtype=int) for pts in point_sets]
    except KeyError as missing:
        raise ValueError(f"point {missing.args[0]} is not in the projection kernel "
                         "ground set") from None


def kernel_eval(kernel: Kernel, s, t) -> float:
    """Evaluate k(s, t).  Symmetric and nonnegative for every family."""
    sv, tv = _as_point(s), _as_point(t)
    if sv.shape != tv.shape:
        raise ValueError(f"dimension mismatch: {sv.shape[0]} vs {tv.shape[0]}")
    fam = kernel.family
    if fam in _DISTANCE_FAMILIES:
        return float(kernel_column(kernel, tv, sv[None, :])[0])
    if fam is KernelFamily.CONSTANT:
        return float(kernel.c)
    i, j = _ground_indices(kernel, [sv, tv])[0]  # a projection
    return float(kernel.aux["matrix"][i][j])


def kernel_self(kernel: Kernel, t) -> float:
    """k(t, t) without the generic two-point path (it is 1 for the
    distance families and a plain lookup for the rest)."""
    fam = kernel.family
    if fam in _DISTANCE_FAMILIES:
        return 1.0
    if fam is KernelFamily.CONSTANT:
        return float(kernel.c)
    return kernel_eval(kernel, t, t)


def kernel_self_batch(kernel: Kernel, points) -> np.ndarray:
    """`kernel_self` for every row of ``points``: ones for the distance
    families, ``c`` for the constant family, the ground set's diagonal
    entries for a projection."""
    pts = _as_points(points)
    fam = kernel.family
    if fam in _DISTANCE_FAMILIES:
        return np.ones(pts.shape[0])
    if fam is KernelFamily.CONSTANT:
        return np.full(pts.shape[0], float(kernel.c))
    matrix = kernel.aux["matrix"]
    return np.array([matrix[i][i] for i in _ground_indices(kernel, pts)[0]], dtype=float)


def _distance_kernel(kernel: Kernel, sq: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Exponential or gaussian kernel values from squared distances
    ``((s - t) ** 2).sum(-1)``, into ``out`` (by default ``sq`` itself, in
    place): the one distance transform.  Every path sums the distances that
    way and transforms them here, so a pair gets one float from `gram`,
    `kernel_block`, `kernel_column`, `kernel_eval` and `_kernel_stack`."""
    out = sq if out is None else out
    if kernel.family is KernelFamily.EXPONENTIAL:
        np.sqrt(sq, out=out)
        out /= -kernel.tau
    else:
        np.divide(sq, -kernel.tau**2, out=out)
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
    if fam in _DISTANCE_FAMILIES:
        return _sq_distances(qs, pts, kernel)
    if fam is KernelFamily.CONSTANT:
        return np.full((m, n), float(kernel.c))
    # only the query rows become an array, O(m N); `take` keeps the block
    # C-ordered (``rows[:, pi]`` is not), which the fit core's bits need
    qi, pi = _ground_indices(kernel, qs, pts)
    rows = np.array([kernel.aux["matrix"][i] for i in qi], dtype=float)
    return np.take(rows.reshape(m, len(kernel.aux["points"])), pi, axis=1)


def kernel_column(kernel: Kernel, t, points) -> np.ndarray:
    """Vector of k(t, x_i) over a point set.

    The distance families sum ``(x - t)^2`` per row directly, the definition
    `_sq_distances` reproduces, so a one-query column skips its block set-up.
    """
    tv = _as_point(t)
    pts = _as_points(points)
    if (kernel.family not in _DISTANCE_FAMILIES
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


# Every blocked loop keeps its temporaries within this many entries (128 kB),
# whatever the point or query count: `_sq_distances`' row blocks (of a
# triangle's shrinking width for a point set against itself), query
# blocks (Q x n per class) and `knn_predict`'s chunks of queries.  Each cuts
# its rows through `_block_rows`, so nothing else reads this constant.
_BLOCK_ENTRIES = 1 << 14


def _block_rows(width: int) -> int:
    """How many rows of ``width`` entries one block holds (at least one)."""
    return max(1, _BLOCK_ENTRIES // max(width, 1))


def _query_steps(n_queries: int, n_points: int) -> list[slice]:
    """The rows of each block of ``n_queries`` rows against ``n_points``
    points, in order."""
    step = _block_rows(n_points)
    return [slice(lo, lo + step) for lo in range(0, n_queries, step)]


# numpy's add.reduce sums fewer than 8 terms from 0 in sequence and regroups
# 8 or more pairwise, so accumulating one dimension at a time reproduces
# `(delta * delta).sum(axis=-1)` bit for bit exactly when d < 8.
_ACCUMULATE_BELOW_D = 8


def _sq_distances(a: np.ndarray, b: np.ndarray | None = None,
                  kernel: Kernel | None = None) -> np.ndarray:
    """out[i, j] = ||a_i - b_j||^2, or with ``kernel`` its `_distance_kernel`
    value, filled a block of rows of ``a`` at a time; without ``b``, ``a``
    against itself.

    Bit-identical to ``((a[:, None] - b[None]) ** 2).sum(axis=2)``, then the
    transform.  A block of rows against its w columns is sized through
    `_block_rows` by its one temporary: for 0 < d < 8 it accumulates the
    squared differences one dimension at a time through a rows x w
    temporary; otherwise it reduces a rows x w x d difference buffer.  Both
    are cut from one buffer allocated once (a fresh one per block cost more
    than the arithmetic at n = 24, d = 200), and each block is transformed
    while it is in cache.  Against itself, only the upper triangle is
    summed: rows [lo, hi) take columns lo..n, in a scratch cut from the same
    buffer (the first block, from column 0, is the output's own rows), and
    their transpose fills rows hi..n of columns [lo, hi).  (a - b)^2 equals
    (b - a)^2 exactly, so the mirrored entries are the ones a full sum
    would give, and the result is exactly symmetric.
    """
    sym = b is None
    b = a if sym else b
    m = a.shape[0]
    n, d = b.shape
    if a.shape[1] != d:
        raise ValueError(f"dimension mismatch: rows are {a.shape[1]}-d, points are {d}-d")
    per = d if d >= _ACCUMULATE_BELOW_D else 1
    out = np.empty((m, n))
    if 0 < d < _ACCUMULATE_BELOW_D:
        # contiguous per-dimension rows make the broadcast subtractions cheap
        at, bt = a.T.copy(), b.T.copy()
    # rows x w entries of any block: the first block's, unless several
    # triangular blocks need a scratch beside the temporary, each within the
    # budget (one row if it is wider).  A buffer no larger than a single
    # block keeps small calls under glibc's 128 kB mmap threshold, past
    # which every call faults its pages in anew; allocated before ``at``
    # and ``bt``, it cost `table1` about 190 more page faults a command.
    several = sym and _block_rows(n * per) < m
    size = max(_BLOCK_ENTRIES // per, n) if several else min(m, _block_rows(n * per)) * n
    buf = np.empty(size * (per + several))
    lo = 0
    while lo < m:
        c0 = lo if sym else 0
        w = n - c0
        hi = min(m, lo + _block_rows(w * per))
        h = hi - lo
        blk = buf[size * per:size * per + h * w].reshape(h, w) if c0 else out[lo:hi]
        work = buf[:h * w * per]
        if 0 < d < _ACCUMULATE_BELOW_D:
            t = work.reshape(h, w)
            np.subtract(at[0, lo:hi, None], bt[0, c0:], out=blk)
            np.multiply(blk, blk, out=blk)
            for k in range(1, d):
                np.subtract(at[k, lo:hi, None], bt[k, c0:], out=t)
                np.multiply(t, t, out=t)
                blk += t
        else:
            delta = work.reshape(h, w, d)
            np.subtract(a[lo:hi, None, :], b[None, c0:, :], out=delta)
            np.multiply(delta, delta, out=delta)
            delta.sum(axis=2, out=blk)
        if kernel is not None:
            _distance_kernel(kernel, blk)
        if c0:
            out[lo:hi, c0:] = blk
        if sym and hi < m:
            out[hi:, lo:hi] = blk[:, h:].T
        lo = hi
    return out


def gram(kernel: Kernel, points) -> GramMatrix:
    """The Gram matrix K(x) over a point set: ``kernel_block(kernel, x, x)``.

    The distance families sum only the upper triangle of the squared
    distances, transform each block in cache and mirror it
    (`_sq_distances` without ``b``); the others are `kernel_block`.
    Entries are exactly symmetric, as (a - b)^2 == (b - a)^2 and every
    family's `kernel_eval` is; gaussian/exponential diagonals are exactly 1,
    as a point's squared distance to itself is 0.  An empty point set yields
    the 0 x 0 matrix (its alpha-permanent is 1 downstream).
    """
    pts = _as_points(points)
    distance = kernel.family in _DISTANCE_FAMILIES
    return GramMatrix(entries=_sq_distances(pts, kernel=kernel) if distance
                      else kernel_block(kernel, pts, pts), points=pts, kernel=kernel)


def _kernel_stack(kernels: Sequence[Kernel], rows: np.ndarray, points: np.ndarray,
                  sq: np.ndarray | None) -> np.ndarray:
    """``kernel_block(kernel, rows, points)`` of each of ``kernels``, stacked
    in their order.  A distance kernel's slot is `_distance_kernel` of
    ``sq``, the caller's `_sq_distances` of ``rows`` to ``points`` (of
    ``points`` alone for their `gram`), bit for bit; no other family reads
    ``sq``."""
    out = np.empty((len(kernels), rows.shape[0], points.shape[0]))
    for k, kernel in enumerate(kernels):
        if kernel.family in _DISTANCE_FAMILIES:
            _distance_kernel(kernel, sq, out[k])
        else:
            out[k] = kernel_block(kernel, rows, points)
    return out
