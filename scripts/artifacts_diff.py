#!/usr/bin/env python3
"""Run one fixed list of CLI commands under two source trees and compare
every file they write.

    python scripts/artifacts_diff.py PARENT_SRC

PARENT_SRC is the `src` directory of another checkout of permclass (for
example the parent commit's, unpacked with `git archive`).  The list
(`_steps`) runs once under PARENT_SRC and once under this checkout's
`src`, each in fresh interpreters that call `permclass.cli.main` once per
command, in the same working directory, so that the output paths, and the
headers that record them, are the same.  It covers:
- the three `reproduce` pipelines (microarray at 20 repetitions);
- `fit` and `predict` at orders 0-3 and exact, for gaussian, exponential
  and c = 2.5 constant kernels, at alpha 0.7 (a mass that is not a power
  of two, so that products grouped another way round differently);
- `cv --folds 3`, `cv --objective xent`, and a `--grid` of distance
  kernels, constant kernels of c = 1 and 2.5 and a projection kernel whose
  matrix has a zero on its diagonal, which is refused;
- `partition` at orders 0-3 and exact, by argmax and with `--sample 7`.

It prints each file that differs, with the largest relative difference
between the numbers in it, and exits 1 if any file differs or a command
fails.  Given this checkout's own `src`, it checks that a rerun writes the
same bytes.
"""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ORDERS = ["0", "1", "2", "3", "exact"]
KERNELS = {
    "gaussian": ["--kernel", "gaussian", "--tau", "0.5"],
    "exponential": ["--kernel", "exponential", "--tau", "0.5"],
    "constant": ["--kernel", "constant", "--c", "2.5"],
}

# each tree's interpreter runs a list of argv lists through the CLI's own entry point
_CLI_LOOP = """
import json, sys
from permclass.cli import main
for argv in json.load(sys.stdin):
    if main(argv) != 0:
        sys.exit("failed: permclass " + " ".join(argv))
"""

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _steps() -> tuple[list[list[str]], list[list[str]]]:
    """The command list, as the commands run before `_write_grid` and after."""
    first = [
        ["reproduce", "figure1", "--out", "figure1"],
        ["reproduce", "table1", "--out", "table1"],
        ["reproduce", "microarray", "--repetitions", "20", "--out", "microarray"],
        ["simulate", "chequerboard", "--per-cell", "5", "--seed", "9", "--out", "points.csv"],
        ["simulate", "chequerboard", "--per-cell", "40", "--seed", "4", "--out", "queries.csv"],
        ["simulate", "chequerboard", "--per-cell", "1", "--seed", "9", "--out", "small.csv"],
        ["simulate", "triangular", "--n", "30", "--seed", "5", "--out", "line.csv"],
    ]
    for name, flags in KERNELS.items():
        for order in ORDERS:
            # the exact order's classes stay within its size cap
            data, queries = (("small.csv", "points.csv") if order == "exact"
                             else ("points.csv", "queries.csv"))
            model = f"model-{name}-{order}.json"
            first.append(["fit", "--data", data, *flags, "--alpha", "0.7", "--order", order,
                          "--out", model])
            first.append(["predict", "--model", model, "--queries", queries,
                          "--out", f"predict-{name}-{order}.csv"])
    first.append(["cv", "--data", "points.csv", "--folds", "3", "--out", "cv-folds3.json"])
    first.append(["cv", "--data", "points.csv", "--objective", "xent", "--out", "cv-xent.json"])
    for order in ORDERS:
        for rule, suffix in (([], ""), (["--sample", "7"], "-sample")):
            first.append(["partition", "--data", "line.csv", "--lambda", "0.5", "--kernel",
                          "gaussian", "--tau", "0.3", "--order", order, *rule,
                          "--out", f"partition-{order}{suffix}.json"])
    second = [["cv", "--data", "points.csv", "--grid", "grid.json", "--objective", "xent",
               "--folds", "5", "--out", "cv-grid.json"]]
    return first, second


def _write_grid(work: Path) -> None:
    """An order-3 grid over points.csv: gaussian and exponential kernels of
    three tau and two alphas each, constant kernels of c = 2.5 and 1, and a
    projection kernel over the points whose matrix is the identity with a
    zero at [0, 0], so that its Gram diagonal is refused."""
    with open(work / "points.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    points = [[float(v) for v in row[:-1]] for row in rows[1:]]
    matrix = [[float(i == j and i > 0) for j in range(len(points))] for i in range(len(points))]
    grid = [{"kernel": {"family": family, "tau": tau}, "alphas": alpha, "order": 3}
            for family in ("gaussian", "exponential") for tau in (0.5, 1.0, 2.0)
            for alpha in (0.3, 2.0)]
    grid += [{"kernel": {"family": "constant", "c": c}, "alphas": 1.0, "order": 3}
             for c in (2.5, 1.0)]
    projection = {"family": "projection_matrix", "aux": {"matrix": matrix, "points": points}}
    grid += [{"kernel": projection, "alphas": alpha, "order": 3} for alpha in (0.3, 2.0)]
    (work / "grid.json").write_text(json.dumps({"grid": grid}), encoding="utf-8")


def _run(src: Path, work: Path, argvs: list[list[str]]) -> None:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _CLI_LOOP], input=json.dumps(argvs),
                          capture_output=True, text=True, cwd=work, env=env)
    if done.returncode:
        sys.exit(f"{done.stderr}under {src}")


def _artifacts(src: Path, work: Path) -> dict[str, bytes]:
    """Every file the command list writes under ``src``, by relative path."""
    work.mkdir()
    first, second = _steps()
    _run(src, work, first)
    _write_grid(work)
    _run(src, work, second)
    return {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*"))
            if p.is_file()}


def _largest_difference(a: bytes, b: bytes) -> str:
    """The largest relative difference between the numbers of two texts,
    read in order, or why they cannot be paired."""
    x = _NUMBER.findall(a.decode("utf-8", "replace"))
    y = _NUMBER.findall(b.decode("utf-8", "replace"))
    if len(x) != len(y):
        return f"{len(x)} numbers against {len(y)}"
    worst = 0.0
    for u, v in zip(map(float, x), map(float, y)):
        if u != v and not (u != u and v != v):
            scale = max(abs(u), abs(v))
            worst = max(worst, abs(u - v) / scale if scale < float("inf") else float("inf"))
    return f"largest relative difference {worst:.3g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", type=Path, help="the src directory of the other tree")
    args = ap.parse_args(argv)
    if not (args.parent_src / "permclass" / "cli.py").is_file():
        ap.error(f"{args.parent_src} holds no permclass/cli.py")
    with tempfile.TemporaryDirectory() as tmp:
        # both trees write under the same path; the first tree's files move aside
        work = Path(tmp) / "run"
        parent = _artifacts(args.parent_src.resolve(), work)
        work.rename(Path(tmp) / "parent")
        ours = _artifacts(ROOT / "src", work)
    differing = 0
    for name in sorted(parent.keys() | ours.keys()):
        if name not in ours or name not in parent:
            print(f"{name}: only under {'the parent' if name in parent else 'this tree'}")
        elif parent[name] != ours[name]:
            print(f"{name}: differs, {_largest_difference(parent[name], ours[name])}")
        else:
            continue
        differing += 1
    print(f"{differing} of {len(parent.keys() | ours.keys())} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
