#!/usr/bin/env python3
"""Time order-3 infinite-class partitions as the point count grows.

    python scripts/partition_scaling.py [N ...] [--seed S]

For each N (default 250 500 1000) it draws two gaussian clusters of N / 2
points each (sd 0.5, centres (0, 0) and (3, 3), shuffled), runs an
argmax `sequential_partition` at order 3 with a gaussian kernel
(tau 0.5, lambda 0.5), and prints the seconds taken and the block sizes.
"""

import argparse
import time

import numpy as np

from permclass import Kernel, ModelParams, sequential_partition


def two_clusters(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    half = n // 2
    pts = np.vstack([rng.normal(0.0, 0.5, (half, 2)),
                     rng.normal(3.0, 0.5, (n - half, 2))])
    return pts[rng.permutation(n)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sizes", nargs="*", type=int, default=[250, 500, 1000])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    params = ModelParams(kernel=Kernel.gaussian(0.5), lam=0.5, order=3)
    for n in args.sizes:
        pts = two_clusters(n, args.seed)
        start = time.perf_counter()
        part = sequential_partition(pts, params)
        seconds = time.perf_counter() - start
        sizes = sorted((len(b) for b in part.blocks), reverse=True)
        print(f"N={n} seconds={seconds:.3f} blocks={sizes}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
