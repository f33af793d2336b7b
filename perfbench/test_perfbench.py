"""Self-test of the benchmark.

    python3 -m pytest perfbench

Runs each workload once at tiny sizes (table1 has no size flag and runs in
full) and checks that every metric named in BENCHMARK.json is emitted, that
the output check passes at the default and held-out seeds and fails on a
perturbed reference, and that the benchmark refuses to run without the
program.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFS = json.loads(run.REFERENCES.read_text(encoding="utf-8"))

TINY = {
    "table1": workloads.Table1(),
    "partition": workloads.Partition(n_points=8),
    "predict_large": workloads.PredictLarge(per_class=30),
}


def test_benchmark_json_matches_the_code():
    assert sorted(w["name"] for w in BENCH["workloads"]) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] \
        == tracing.PER_LAYER


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted(name, tmp_path):
    report = run.measure(TINY[name], seed=5, seconds=0, trace=True,
                         work=tmp_path, references=REFS)
    assert report["correct"], report["problems"]
    assert report["failed"] == 0 and report["attempted"] == 3
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(report, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in BENCH[section]]
        for metric in line["metrics"].values():
            assert math.isfinite(metric["value"])
    for metric in BENCH["end_to_end"]:
        assert report["end_to_end"][metric["name"]] > 0
    # one traced command: its layer self times plus the unattributed share
    # add up to its wall time
    layer = report["per_layer"]
    (wall,) = report["samples"]["traced_raw_wall_s"]
    self_total = sum(v for m, v in layer.items() if m.endswith(".self_s"))
    assert self_total + layer["trace.unattributed_frac"] * wall == pytest.approx(wall)


def _held_out(name):
    if name == "table1":
        return workloads.Table1(workloads.HELD_OUT_SEED)
    return workloads.WORKLOADS[name]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_held_out_seed_matches_its_reference(name, tmp_path):
    report = run.measure(_held_out(name), seed=workloads.HELD_OUT_SEED,
                         seconds=0, trace=False, work=tmp_path, references=REFS)
    assert report["environment"]["input_seed"] == workloads.HELD_OUT_SEED
    assert report["correct"], report["problems"]


def _perturb(name, refs):
    ref = refs[name][str(workloads.TABLE1_SEED)]
    if name == "table1":
        ref["rows"][0]["test_errors"] += 1
    elif name == "partition":
        ref["blocks"][0].append(ref["blocks"][1].pop(0))
    else:
        ref["probs"][0][0] += 1e-6


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_fails_on_perturbed_reference(name, tmp_path):
    refs = copy.deepcopy(REFS)
    _perturb(name, refs)
    report = run.measure(workloads.WORKLOADS[name], seed=workloads.TABLE1_SEED,
                         seconds=0, trace=False, work=tmp_path, references=refs)
    assert not report["correct"]
    assert report["problems"]
    assert report["failed"] == report["attempted"] == 1
    assert run.result_line(report, False)["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "partition",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
