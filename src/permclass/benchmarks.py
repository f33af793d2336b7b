"""Performance and accuracy harnesses.

``bench_orders`` verifies the per-query complexity of the cyclic
approximations (O(n), O(n^2), O(n^3) for orders 1..3) by timing queries
against prebuilt tables and fitting log-log slopes.  ``accuracy_study``
reproduces the triangular-sample ratio curves: order-by-order ratio
values on a grid, read with the two-class probability curves from one
`predict` per order, central-peak gap statistics, and an exact-oracle
comparison on a subsample small enough to enumerate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .classify import LabeledDataset, ModelParams, fit, predict
from .cyclic import build_ratio_table, ratio_approx
from .datasets import gen_triangular
from .exact import _PerTable
from .kernels import Kernel, gram, kernel_block, kernel_self_batch

__all__ = [
    "OrderTiming",
    "BenchReport",
    "bench_orders",
    "StudyConfig",
    "StudyReport",
    "accuracy_study",
]


@dataclass
class OrderTiming:
    order: int
    sizes: list[int]
    medians: list[float]
    slope: float | None


@dataclass
class BenchReport:
    timings: list[OrderTiming]
    sizes: list[int]
    queries: int
    seed: int
    kernel: dict
    alpha: float

    def to_dict(self) -> dict:
        return {
            "sizes": self.sizes,
            "queries": self.queries,
            "seed": self.seed,
            "kernel": self.kernel,
            "alpha": self.alpha,
            "timings": [
                {"order": t.order, "sizes": t.sizes,
                 "median_seconds": t.medians, "slope": t.slope}
                for t in self.timings
            ],
        }


def _fit_slope(sizes, times) -> float | None:
    if len(sizes) < 2:
        return None
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(times, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def bench_orders(n_list, alpha: float = 1.0, seed: int = 0, orders=(1, 2, 3),
                 queries: int = 20, warmup: int = 3,
                 target_time: float = 2e-3) -> BenchReport:
    """Median per-query wall time of ratio_approx per (n, order), with a
    gaussian kernel of tau 1.

    Every size's points, queries and per-order tables are built, and every
    (n, order) cell warmed up, before any timing, so the measurement
    isolates per-query cost.  Query point q is then one repeat: it visits
    every cell once, in a seeded shuffled order, and is timed there as the
    mean of enough repeated calls to fill ``target_time``.  A cell reports
    its median over the repeats.  Because each repeat spans every cell, a
    shift in the machine's speed during the run moves all sizes alike and
    leaves the slopes level.  Single process, single thread; the heavy
    contractions here do not fan out to threads.
    """
    sizes = sorted(int(n) for n in n_list)
    if sizes != list(n_list):
        raise ValueError("sizes must be ascending")
    kernel = Kernel.gaussian(1.0)
    rng = np.random.default_rng(seed)
    qpts, cells = {}, []  # cells: (n, order, table, calls per timing)
    for n in sizes:
        g = gram(kernel, rng.random((n, 2)) * 3.0)
        qpts[n] = rng.random((max(queries, 1), 2)) * 3.0
        for k in orders:
            table = build_ratio_table(g, alpha, order=k)
            for _ in range(warmup):
                ratio_approx(qpts[n][0], table)
            t0 = time.perf_counter()
            ratio_approx(qpts[n][0], table)
            probe = time.perf_counter() - t0
            cells.append((n, k, table, max(1, min(50, int(target_time / max(probe, 1e-9))))))
    times: dict[tuple[int, int], list[float]] = {(n, k): [] for n, k, _, _ in cells}
    for q in range(max(queries, 1)):
        for c in rng.permutation(len(cells)):
            n, k, table, reps = cells[c]
            t0 = time.perf_counter()
            for _ in range(reps):
                ratio_approx(qpts[n][q], table)
            times[n, k].append((time.perf_counter() - t0) / reps)
    timings = []
    for k in orders:
        medians = [float(np.median(times[n, k])) for n in sizes]
        timings.append(OrderTiming(order=k, sizes=sizes, medians=medians,
                                   slope=_fit_slope(sizes, medians) if k > 0 else None))
    return BenchReport(timings=timings, sizes=sizes, queries=queries, seed=seed,
                       kernel=kernel.to_dict(), alpha=alpha)


# ---------------------------------------------------------------------------
# ratio accuracy study (triangular sample, gaussian kernel)
# ---------------------------------------------------------------------------

DEFAULT_STUDY_SEED = 20120704

# class 1 is triangular on T_RANGE, class 2 on CLASS2_RANGE; the curves are
# read on a grid over T_RANGE, and the central peak is |t| <= CENTRAL
T_RANGE = (-math.pi, math.pi)
CENTRAL = 0.5
CLASS2_RANGE = (math.pi, 3 * math.pi)


@dataclass
class StudyConfig:
    n: int = 100
    tau: float = 1.0
    alpha: float = 1.0
    seed: int = DEFAULT_STUDY_SEED
    t_points: int = 129
    subsample: int = 10           # oracle comparison size (exact enumeration)
    oracle_points: int = 17

    def to_dict(self) -> dict:
        return {
            "n": self.n, "tau": self.tau, "alpha": self.alpha, "seed": self.seed,
            "t_range": list(T_RANGE), "t_points": self.t_points,
            "central_peak": f"|t| <= {CENTRAL}",
            "subsample": self.subsample, "oracle_points": self.oracle_points,
            "class2_range": list(CLASS2_RANGE),
        }


@dataclass
class StudyReport:
    config: StudyConfig
    t_grid: np.ndarray
    curves: dict[int, np.ndarray]              # order -> ratio values
    central_mean_ratio_32: float               # mean R3/R2 on the peak
    central_mean_ratio_21: float               # mean R2/R1 on the peak
    gap_32: float                               # mean |R3 - R2|
    gap_21: float                               # mean |R2 - R1|
    monotone_central: bool                      # R1 <= R2 <= R3 on the peak
    oracle_rel_err: dict[int, float]            # order -> mean rel err vs exact
    prob_curves: dict[int, np.ndarray]          # order -> p(class 1)
    prob_max_abs_diff: dict[str, float]         # pairwise gaps between orders

    def summary_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "central_mean_ratio_four_over_three": self.central_mean_ratio_32,
            "central_mean_ratio_three_over_two": self.central_mean_ratio_21,
            "mean_abs_gap_four_vs_three": self.gap_32,
            "mean_abs_gap_three_vs_two": self.gap_21,
            "monotone_central": self.monotone_central,
            "oracle_mean_rel_err": {str(k): v for k, v in self.oracle_rel_err.items()},
            "prob_max_abs_diff": self.prob_max_abs_diff,
        }


def _triangular(n: int, bounds: tuple[float, float], seed: int) -> np.ndarray:
    lo, hi = bounds
    return gen_triangular(n, (lo + hi) / 2, (hi - lo) / 2, seed=seed).reshape(-1, 1)


def accuracy_study(config: StudyConfig | None = None) -> StudyReport:
    """Ratio curves, gap statistics, oracle errors, probability curves.
    Class 1's raw weights in each order's `predict` are its ratio curve."""
    cfg = config or StudyConfig()
    t_grid = np.linspace(*T_RANGE, cfg.t_points)
    central = np.abs(t_grid) <= CENTRAL
    if not central.any():
        raise ValueError(f"t_points = {cfg.t_points} puts no grid point in the "
                         f"central peak |t| <= {CENTRAL}")
    if cfg.n < cfg.subsample:
        raise ValueError(f"n = {cfg.n} is below the oracle subsample of "
                         f"{cfg.subsample} points drawn from class 1")
    kernel = Kernel.gaussian(cfg.tau)
    x1 = _triangular(cfg.n, T_RANGE, cfg.seed)
    x2 = _triangular(cfg.n, CLASS2_RANGE, cfg.seed + 1)
    data = LabeledDataset(points=np.vstack([x1, x2]),
                          labels=np.array([0] * cfg.n + [1] * cfg.n), n_classes=2)
    curves, prob_curves = {}, {}
    for k in (1, 2, 3):
        model = fit(data, ModelParams(kernel=kernel, alphas=cfg.alpha, order=k))
        post = predict(model, t_grid.reshape(-1, 1))
        curves[k], prob_curves[k] = post.raw[:, 0], post.probs[:, 0]

    r1c, r2c, r3c = (curves[k][central] for k in (1, 2, 3))
    ratio_32 = float(np.mean(r3c / r2c))
    ratio_21 = float(np.mean(r2c / r1c))
    gap_32 = float(np.mean(np.abs(curves[3] - curves[2])))
    gap_21 = float(np.mean(np.abs(curves[2] - curves[1])))
    monotone = bool(np.all(r1c <= r2c + 1e-12) and np.all(r2c <= r3c + 1e-12))

    # oracle comparison on a subsample small enough for exact enumeration
    rng = np.random.default_rng(cfg.seed)
    sub_idx = np.sort(rng.choice(cfg.n, size=cfg.subsample, replace=False))
    xs = x1[sub_idx]
    gs = gram(kernel, xs)
    t_small = np.linspace(*T_RANGE, cfg.oracle_points).reshape(-1, 1)
    Kt, ktt = kernel_block(kernel, t_small, xs), kernel_self_batch(kernel, t_small)
    exact = _PerTable(gs, cfg.alpha).rows(Kt, ktt)
    oracle_rel_err = {}
    for k in (1, 2, 3):
        approx = build_ratio_table(gs, cfg.alpha, k).rows(Kt, ktt)
        oracle_rel_err[k] = float(np.mean(np.abs(approx - exact) / np.abs(exact)))

    prob_max_abs_diff = {
        f"{a}v{b}": float(np.max(np.abs(prob_curves[a] - prob_curves[b])))
        for a, b in ((1, 2), (2, 3), (1, 3))
    }
    return StudyReport(
        config=cfg, t_grid=t_grid, curves=curves,
        central_mean_ratio_32=ratio_32, central_mean_ratio_21=ratio_21,
        gap_32=gap_32, gap_21=gap_21, monotone_central=monotone,
        oracle_rel_err=oracle_rel_err, prob_curves=prob_curves,
        prob_max_abs_diff=prob_max_abs_diff,
    )
