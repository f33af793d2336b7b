"""The benchmark's workloads: input generation, command lines and output checks.

Each workload writes its inputs from a seed, names the `permclass` command
that consumes them, counts the work one command does, and checks the
command's outputs.  The program only ever sees the files written here.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from probes import LOOP_AND_PRODUCTS, SMALL_CONTRACTIONS, SMALL_OBJECTS

# `reproduce table1` always runs the paper's pinned configuration.  Its cost
# depends on the tau that cross-validation selects (measured on seeds 0-9:
# 5.0-6.0 s when the gaussian family picks tau >= 0.35, 8.6-9.4 s when it
# picks 0.125), so letting --seed choose the chequerboard draw would measure
# different work on different seeds.
TABLE1_SEED = 9
# the reference seed that is never a default anywhere
HELD_OUT_SEED = 3

# `reproduce table1`: two kernel families, a 5 tau x 3 alpha grid each,
# cross-validated over all training rows, then refit and scored on the
# training rows and the 60 x 60 evaluation grid.
TABLE1_FAMILIES = 2
TABLE1_CANDIDATES = 15

PREDICT_TOL = 1e-9


def _write_rows(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    lines += [",".join(v if isinstance(v, str) else repr(float(v)) for v in row)
              for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Table1:
    """`permclass reproduce table1`: small n, query-heavy, CV over a grid."""

    name = "table1"
    # per-query order-3 contractions on ~45 x 45 arrays dominate
    probe = SMALL_CONTRACTIONS

    def __init__(self, input_seed: int = TABLE1_SEED):
        self.input_seed = input_seed

    def setup(self, work: Path, seed: int, run_cli) -> dict:
        out = work / "table1"
        out.mkdir(parents=True, exist_ok=True)
        return {"argv": ["reproduce", "table1", "--seed", str(self.input_seed),
                         "--out", str(out)],
                "out": out, "input_seed": self.input_seed,
                "outputs": [out / "table1.csv", out / "summary.json"]}

    @staticmethod
    def result(state: dict):
        doc = json.loads((state["out"] / "summary.json").read_text(encoding="utf-8"))
        rows = [{"classifier": r["classifier"], "train_errors": r["train_errors"],
                 "test_errors": r["test_errors"], "chosen": r["chosen"]}
                for r in doc["table1"]["rows"] if not r["external"]]
        return {"rows": rows, "n_train": doc["table1"]["n_train"],
                "n_test": doc["table1"]["n_test"]}

    @staticmethod
    def items(result) -> int:
        """Posterior rows: CV held-out rows plus the two final scorings."""
        n, m = result["n_train"], result["n_test"]
        return TABLE1_FAMILIES * (TABLE1_CANDIDATES * n + n + m)

    @staticmethod
    def check(state: dict, result, reference) -> list[str]:
        if reference is None:
            return [f"no reference for table1 seed {state['input_seed']}"]
        if result["rows"] != reference["rows"]:
            return [f"table1 rows differ: got {result['rows']}, "
                    f"expected {reference['rows']}"]
        return []


class Partition:
    """`permclass partition`: the alpha -> 0 series path, argmax rule.

    Two tight gaussian clusters, far apart relative to tau, so every seed
    grows the same two-block structure: the cost (sum of cubed block sizes
    over the steps) then varies by about 2% between seeds, and a block that
    mixes the clusters is an error whatever the seed.
    """

    name = "partition"
    # pure-Python series arithmetic on small frozen dataclasses dominates
    probe = SMALL_OBJECTS
    n_points = 40
    sd = 0.25
    centres = ((0.0, 0.0), (3.0, 3.0))
    flags = ["--lambda", "0.05", "--kernel", "gaussian", "--tau", "1.0",
             "--order", "3"]

    def __init__(self, n_points: int | None = None):
        if n_points is not None:
            self.n_points = n_points

    def setup(self, work: Path, seed: int, run_cli) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        half = self.n_points // 2
        sizes = (half, self.n_points - half)
        pts = np.vstack([rng.normal(c, self.sd, (k, 2))
                         for c, k in zip(self.centres, sizes)])
        cluster = np.repeat([0, 1], sizes)
        order = rng.permutation(self.n_points)
        pts, cluster = pts[order], cluster[order]
        data = work / "points.csv"
        _write_rows(data, ["x0", "x1"], pts)
        out = work / "partition.json"
        return {"argv": ["partition", "--data", str(data), *self.flags,
                         "--out", str(out)],
                "cluster": cluster.tolist(), "input_seed": seed,
                "outputs": [out], "out": out}

    @staticmethod
    def result(state: dict):
        doc = json.loads(state["out"].read_text(encoding="utf-8"))
        return {"blocks": doc["partition"]["blocks"]}

    @staticmethod
    def items(result) -> int:
        return sum(len(b) for b in result["blocks"])

    @staticmethod
    def check(state: dict, result, reference) -> list[str]:
        blocks = result["blocks"]
        cluster = state["cluster"]
        problems = []
        if sorted(i for b in blocks for i in b) != list(range(len(cluster))):
            problems.append("partition blocks do not cover every point once")
        for b in blocks:
            if len({cluster[i] for i in b}) != 1:
                problems.append(f"block {b} mixes the two clusters")
        if reference is not None and blocks != reference["blocks"]:
            problems.append(f"partition blocks differ from the reference: "
                            f"got {blocks}, expected {reference['blocks']}")
        return problems


class PredictLarge:
    """`permclass predict` on a stored model with large classes.

    Every command reloads the model and refits it, so the table build and
    the O(n^2) order-2 queries dominate.
    """

    name = "predict_large"
    # Python loops over float lists, and n x n numpy in the table build
    probe = LOOP_AND_PRODUCTS
    per_class = 1000
    n_queries = 4
    tau = 0.5
    alpha = 1.0
    centres = ((0.0, 0.0), (1.0, 1.0))

    def __init__(self, per_class: int | None = None):
        if per_class is not None:
            self.per_class = per_class

    def setup(self, work: Path, seed: int, run_cli) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        train = [rng.normal(c, 1.0, (self.per_class, 2)) for c in self.centres]
        which = rng.integers(0, 2, self.n_queries)
        queries = np.array([rng.normal(self.centres[w], 1.0) for w in which])
        data = work / "train.csv"
        _write_rows(data, ["x0", "x1", "label"],
                    [(*p, name) for pts, name in zip(train, "AB") for p in pts])
        model = work / "model.json"
        run_cli(["fit", "--data", str(data), "--kernel", "gaussian",
                 "--tau", repr(self.tau), "--alpha", repr(self.alpha),
                 "--order", "2", "--out", str(model)])
        qfile = work / "queries.csv"
        _write_rows(qfile, ["x0", "x1"], queries)
        out = work / "probs.csv"
        return {"argv": ["predict", "--model", str(model), "--queries",
                         str(qfile), "--out", str(out)],
                "train": train, "queries": queries, "input_seed": seed,
                "outputs": [out], "out": out}

    @staticmethod
    def result(state: dict):
        lines = [ln for ln in state["out"].read_text(encoding="utf-8").splitlines()
                 if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        pcols = [i for i, c in enumerate(header) if c.startswith("p_")]
        rows = [ln.split(",") for ln in lines[1:]]
        return {"labels": [r[-1] for r in rows],
                "probs": [[float(r[i]) for i in pcols] for r in rows]}

    @staticmethod
    def items(result) -> int:
        return len(result["labels"])

    def oracle(self, state: dict) -> np.ndarray:
        """Order-2 posteriors straight from the three-cycle formula.

        R(t) = a K(t,t) + sum_i [a k_i^2 + k_i sum_{j != i} G_ij k_j / d_j]
                          / [a d_i + sum_{m != i} G_im^2 / d_m]
        """
        a, tau = self.alpha, self.tau
        weights = []
        for X in state["train"]:
            sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
            G = np.exp(-sq / tau**2)
            d = G.diagonal().copy()
            Q = G * G / d[None, :]
            r1 = a * d + Q.sum(axis=1) - Q.diagonal()
            kt = np.exp(-((state["queries"][:, None, :] - X[None, :, :]) ** 2)
                        .sum(axis=2) / tau**2)
            w = kt / d
            inner = w @ G - kt * G.diagonal() / d
            # K(t, t) = 1 for the gaussian kernel
            weights.append(a + ((a * kt * kt + kt * inner) / r1).sum(axis=1))
        raw = np.column_stack(weights)
        return raw / raw.sum(axis=1, keepdims=True)

    def check(self, state: dict, result, reference) -> list[str]:
        probs = np.array(result["probs"])
        want = self.oracle(state)
        problems = []
        if probs.shape != want.shape:
            return [f"predict output has shape {probs.shape}, expected {want.shape}"]
        gap = float(np.abs(probs - want).max())
        if not gap <= PREDICT_TOL:
            problems.append(f"probabilities differ from the order-2 formula by {gap:.3g}")
        labels = ["AB"[int(i)] for i in want.argmax(axis=1)]
        if result["labels"] != labels:
            problems.append(f"labels {result['labels']} differ from the argmax {labels}")
        if reference is not None:
            if result["labels"] != reference["labels"]:
                problems.append(f"labels {result['labels']} differ from the "
                                f"reference {reference['labels']}")
            ref_gap = float(np.abs(probs - np.array(reference["probs"])).max())
            if not ref_gap <= PREDICT_TOL:
                problems.append(f"probabilities differ from the reference by {ref_gap:.3g}")
        return problems


WORKLOADS = {w.name: w for w in (Table1(), Partition(), PredictLarge())}


def read_outputs(state: dict) -> bytes:
    """Raw bytes of every output file, to check reruns are identical."""
    return b"".join(p.read_bytes() for p in state["outputs"])
