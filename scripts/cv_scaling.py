#!/usr/bin/env python3
"""Time order-3 cross-validation as the chequerboard grows.

    python scripts/cv_scaling.py [PER_CELL ...] [--seed S]

For each PER_CELL (default 67, which gives 603 points) it draws
`gen_chequerboard(PER_CELL)`, runs 10-fold `cross_validate` with the
cross-entropy objective over the order-3 `default_grid` (both distance
families, five tau and five alpha each), and prints the seconds taken and
the winning candidate.
"""

import argparse
import json
import time

from permclass import CVSpec, cross_validate, default_grid, gen_chequerboard


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("per_cells", nargs="*", type=int, default=[67])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    for per_cell in args.per_cells:
        data = gen_chequerboard(per_cell, seed=args.seed)
        spec = CVSpec(grid=default_grid(data.points, order=3), folds=10,
                      objective="xent", seed=args.seed)
        start = time.perf_counter()
        report = cross_validate(data, spec)
        seconds = time.perf_counter() - start
        winner = json.dumps(report.winner.to_dict(), sort_keys=True)
        print(f"N={data.n} seconds={seconds:.3f} winner={winner}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
