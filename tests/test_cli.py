import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import permclass
from permclass import cli
from permclass.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_perm_exact_all_ones(tmp_path, capsys):
    m = tmp_path / "m.csv"
    m.write_text("# all ones\n1,1,1\n1,1,1\n1,1,1\n")
    code, out, _ = run(["perm", "exact", "--matrix", str(m), "--alpha", "1.0"],
                       capsys)
    assert code == 0
    assert "per_alpha = 6.0" in out


def test_perm_approx(tmp_path, capsys):
    m = tmp_path / "m.csv"
    m.write_text("1,0.5\n0.5,1\n")
    code, out, _ = run(["perm", "approx", "--matrix", str(m), "--alpha", "1.0",
                        "--order", "1"], capsys)
    assert code == 0
    assert "per_alpha_order1" in out


def test_perm_rejects_nonsquare(tmp_path, capsys):
    m = tmp_path / "m.csv"
    m.write_text("1,2,3\n4,5,6\n")
    code, _, err = run(["perm", "exact", "--matrix", str(m), "--alpha", "1"],
                       capsys)
    assert code == 1
    assert "square" in err


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_perm_rejects_non_finite_matrix(tmp_path, capsys, mode):
    m = tmp_path / "m.csv"
    m.write_text("1,0.5\n0.5,nan\n")
    code, out, err = run(["perm", mode, "--matrix", str(m), "--alpha", "1"], capsys)
    assert code == 1
    assert out == ""
    assert "matrix row 1, column 1 is not finite (nan)" in err


def test_perm_approx_refuses_asymmetric_matrix(tmp_path, capsys):
    # per_a is defined for any square matrix, so `perm exact` reads it whole;
    # the cyclic ratios need a symmetric one
    m = tmp_path / "m.csv"
    m.write_text("1,.5,.2\n.5,2,.3\n.4,.3,1.5\n")
    code, out, err = run(["perm", "approx", "--matrix", str(m), "--alpha", "0.7"], capsys)
    assert code == 1
    assert out == ""
    assert "exactly symmetric" in err
    code, out, _ = run(["perm", "exact", "--matrix", str(m), "--alpha", "0.7"], capsys)
    assert code == 0
    assert out == "per_alpha = 1.3982499999999995\nratio_last = 1.2106060606060605\n"


def test_perm_approx_computes_the_last_ratio_once(tmp_path, capsys, caplog):
    # the telescoping product ends with the last ratio, which is printed as
    # it is and reported negative once, not once more for its own line
    m = tmp_path / "m.csv"
    m.write_text("1,.67,-.82\n.67,1,.59\n-.82,.59,1\n")
    with caplog.at_level("WARNING", logger="permclass.cyclic"):
        code, out, _ = run(["perm", "approx", "--matrix", str(m), "--alpha", "0.1",
                            "--order", "2"], capsys)
    assert code == 0
    assert out == ("per_alpha_order2 = -0.0491352\n"
                   "ratio_last_order2 = -0.8951575879030788\n")
    negative = [r.getMessage() for r in caplog.records if "is negative" in r.getMessage()]
    assert negative == ["order-2 ratio approximation is negative (-0.895158)"]


def test_perm_exact_prints_a_signed_matrix_to_the_last_bit(tmp_path, capsys):
    # the same signed matrix as above: the exact permanent and last ratio,
    # printed in full, so that any change in their rounding shows
    m = tmp_path / "m.csv"
    m.write_text("1,.67,-.82\n.67,1,.59\n-.82,.59,1\n")
    code, out, _ = run(["perm", "exact", "--matrix", str(m), "--alpha", "0.1"], capsys)
    assert code == 0
    assert out == "per_alpha = -0.049135200000000004\nratio_last = -0.8951575879030789\n"


def test_perm_exact_refuses_a_matrix_past_the_cap(tmp_path, capsys):
    m = tmp_path / "m.csv"
    m.write_text("\n".join(",".join("1" if i == j else "0" for j in range(12))
                           for i in range(12)) + "\n")
    code, out, err = run(["perm", "exact", "--matrix", str(m), "--alpha", "1"], capsys)
    assert code == 1
    assert out == ""
    assert ("exact size limit: n = 12 exceeds the cap of 11; "
            "use a cyclic approximation") in err
    assert "raise the cap" not in err


def test_simulate_deterministic_bytes(tmp_path, capsys):
    out = tmp_path / "a.csv"
    argv = ["simulate", "chequerboard", "--per-cell", "2", "--seed", "7",
            "--out", str(out)]
    assert run(argv, capsys)[0] == 0
    first = out.read_bytes()
    assert run(argv, capsys)[0] == 0
    assert out.read_bytes() == first
    text = out.read_text()
    assert text.startswith("# permclass")
    assert "seed=7" in text


def test_fit_predict_pipeline(tmp_path, capsys):
    data = tmp_path / "train.csv"
    code, _, _ = run(["simulate", "chequerboard", "--per-cell", "3",
                      "--seed", "1", "--out", str(data)], capsys)
    model = tmp_path / "model.json"
    code, _, _ = run(["fit", "--data", str(data), "--kernel", "exponential",
                      "--tau", "0.5", "--alpha", "1.0", "--order", "3",
                      "--out", str(model)], capsys)
    assert code == 0
    doc = json.loads(model.read_text())
    assert doc["meta"]["version"]
    assert doc["model"]["params"]["kernel"]["family"] == "exponential"
    queries = tmp_path / "q.csv"
    queries.write_text("x0,x1\n0.5,0.5\n1.5,0.5\n")
    out = tmp_path / "pred.csv"
    code, _, _ = run(["predict", "--model", str(model), "--queries",
                      str(queries), "--out", str(out)], capsys)
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "x0,x1,p_1,p_2,label"
    assert len(lines) == 3


def test_exact_fit_refuses_an_oversized_class_and_writes_nothing(tmp_path, capsys):
    # 3 points per cell give a class of 15, beyond the exact size cap
    data = tmp_path / "train.csv"
    assert run(["simulate", "chequerboard", "--per-cell", "3", "--seed", "1",
                "--out", str(data)], capsys)[0] == 0
    model = tmp_path / "model.json"
    code, _, err = run(["fit", "--data", str(data), "--order", "exact",
                        "--out", str(model)], capsys)
    assert code == 1
    assert "exact size limit: n = 16 exceeds the cap of 11" in err
    assert not model.exists()


@pytest.mark.parametrize("n_classes, names", [
    (3, ["1", "2"]), (2, ["1"]), (2, ["1", "2", "3"]),
], ids=["three_classes_two_names", "two_classes_one_name", "two_classes_three_names"])
def test_predict_refuses_a_model_whose_class_names_miss_its_class_count(
        tmp_path, capsys, n_classes, names):
    # a hand-edited model.json: the CSV header would need one p_ column per class
    data = tmp_path / "train.csv"
    data.write_text("x0,label\n0.0,a\n0.2,a\n1.0,b\n1.2,b\n")
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(data), "--kernel", "gaussian",
                "--out", str(model)], capsys)[0] == 0
    doc = json.loads(model.read_text())
    doc["model"]["n_classes"], doc["model"]["class_names"] = n_classes, names
    model.write_text(json.dumps(doc))
    out = tmp_path / "pred.csv"
    code, _, err = run(["predict", "--model", str(model), "--queries",
                        str(data), "--out", str(out)], capsys)
    assert code == 1
    assert f"n_classes = {n_classes} but class_names has {len(names)}" in err
    assert not out.exists()


def test_partition_command(tmp_path, capsys):
    data = tmp_path / "pts.csv"
    data.write_text("x0\n0.0\n0.1\n5.0\n5.1\n")
    out = tmp_path / "part.json"
    code, _, _ = run(["partition", "--data", str(data), "--lambda", "0.5",
                      "--kernel", "gaussian", "--tau", "0.5",
                      "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    blocks = [sorted(b) for b in doc["partition"]["blocks"]]
    assert blocks == [[0, 1], [2, 3]]


def test_partition_rejects_infinite_parameters(tmp_path, capsys):
    data = tmp_path / "pts.csv"
    data.write_text("x0\n0.0\n0.1\n")
    out = tmp_path / "part.json"
    for flags, name in ((["--tau", "inf", "--lambda", "0.5"], "tau"),
                        (["--tau", "0.5", "--lambda", "inf"], "lambda")):
        code, _, err = run(["partition", "--data", str(data), "--kernel",
                            "gaussian", *flags, "--out", str(out)], capsys)
        assert code == 1
        assert name in err and "finite" in err
        assert not out.exists()


def test_partition_refuses_a_negative_sample_seed(tmp_path, capsys):
    # refused by name before the data is read: the file does not exist
    out = tmp_path / "part.json"
    code, stdout, err = run(["partition", "--data", str(tmp_path / "missing.csv"),
                             "--lambda", "0.5", "--sample", "-3", "--out", str(out)],
                            capsys)
    assert code == 1
    assert stdout == ""
    assert "--sample must be a nonnegative integer seed, got -3" in err
    assert not out.exists()


def test_cv_command(tmp_path, capsys):
    data = tmp_path / "train.csv"
    run(["simulate", "chequerboard", "--per-cell", "2", "--seed", "2",
         "--out", str(data)], capsys)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid": [
        {"kernel": {"family": "exponential", "tau": 0.5}, "alphas": 1.0,
         "order": 1},
        {"kernel": {"family": "exponential", "tau": 1.0}, "alphas": 1.0,
         "order": 1},
    ]}))
    out = tmp_path / "cv.json"
    code, _, _ = run(["cv", "--data", str(data), "--grid", str(grid),
                      "--folds", "3", "--objective", "xent",
                      "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["cv"]["candidates"]) == 2
    assert doc["cv"]["objective"] == "xent"


def test_cv_refuses_a_grid_without_a_valid_candidate(tmp_path, capsys):
    # a class of 23 points is past the exact size cap, and alpha -1 is not
    # a mass: no candidate can win, so nothing is written
    data = tmp_path / "train.csv"
    run(["simulate", "chequerboard", "--per-cell", "5", "--seed", "9",
         "--out", str(data)], capsys)
    kernel = {"family": "gaussian", "tau": 0.5}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"grid": [
        {"kernel": kernel, "alphas": 1.0, "order": "exact"},
        {"kernel": kernel, "alphas": -1.0, "order": 3},
    ]}))
    out = tmp_path / "cv.json"
    code, _, err = run(["cv", "--data", str(data), "--grid", str(grid),
                        "--folds", "3", "--out", str(out)], capsys)
    assert code == 1
    assert "no candidate is valid; the first failed with ExactSizeLimitError" in err
    assert not out.exists()


def test_cv_grid_entry_without_alphas_names_the_key(tmp_path, capsys):
    data = tmp_path / "train.csv"
    run(["simulate", "chequerboard", "--per-cell", "2", "--seed", "9",
         "--out", str(data)], capsys)
    grid = tmp_path / "grid.json"
    for entry, message in (({"kernel": {"family": "gaussian", "tau": 0.5}},
                            "model params has no 'alphas' key"),
                           ({"alphas": 1.0}, "model params has no 'kernel' key"),
                           ({"kernel": {"tau": 0.5}, "alphas": 1.0},
                            "kernel has no 'family' key")):
        grid.write_text(json.dumps({"grid": [entry]}))
        out = tmp_path / "cv.json"
        code, _, err = run(["cv", "--data", str(data), "--grid", str(grid),
                            "--folds", "3", "--out", str(out)], capsys)
        assert code == 1
        assert message in err
        assert not out.exists()


def test_genes_rank_command(tmp_path, capsys):
    e = tmp_path / "expr.csv"
    e.write_text("gene_id,S0,S1,S2,S3\nG0,1,1,5,5\nG1,1,2,1.5,1.6\n")
    l = tmp_path / "labels.csv"
    l.write_text("sample,label\nS0,a\nS1,a\nS2,b\nS3,b\n")
    out = tmp_path / "ranked.csv"
    code, _, _ = run(["genes", "rank", "--expr", str(e), "--labels", str(l),
                      "--top", "1", "--out", str(out)], capsys)
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[1].startswith("G0,")


def test_genes_rank_refuses_a_negative_top(tmp_path, capsys):
    e = tmp_path / "expr.csv"
    e.write_text("gene_id,S0,S1,S2,S3\nG0,1,1,5,5\nG1,1,2,1.5,1.6\nG2,3,1,2,2\n")
    l = tmp_path / "labels.csv"
    l.write_text("sample,label\nS0,a\nS1,a\nS2,b\nS3,b\n")
    out = tmp_path / "ranked.csv"
    argv = ["genes", "rank", "--expr", str(e), "--labels", str(l), "--out", str(out)]
    code, _, err = run([*argv, "--top", "-2"], capsys)
    assert code == 1
    assert "--top must be nonnegative" in err
    assert not out.exists()
    # --top 0 keeps every gene
    assert run([*argv, "--top", "0"], capsys)[0] == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 1 + 3


def test_features_csv_past_the_field_limit_is_refused_by_line(tmp_path, capsys):
    # the csv module's own error is not a ValueError; the loader names the
    # file and line of the field it could not read
    data = tmp_path / "wide.csv"
    data.write_text("x0,label\n" + "1" * 200_000 + ",a\n", encoding="utf-8")
    model = tmp_path / "model.json"
    code, _, err = run(["fit", "--data", str(data), "--out", str(model)], capsys)
    assert code == 1
    assert f"{data}:2: field larger than field limit" in err
    assert not model.exists()


def test_a_programming_error_in_a_handler_propagates(tmp_path, monkeypatch):
    # only the package's refusals and file errors become "error:" lines
    def broken(*args):
        raise TypeError("not an input error")

    # the handler imports the generator where it runs
    monkeypatch.setattr("permclass.datasets.gen_chequerboard", broken)
    out = tmp_path / "sim.csv"
    with pytest.raises(TypeError, match="not an input error"):
        main(["simulate", "chequerboard", "--out", str(out)])
    assert not out.exists()


def test_failure_leaves_no_unsuffixed_output(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, _, err = run(["predict", "--model", str(tmp_path / "missing.json"),
                        "--queries", str(tmp_path / "nope.csv"),
                        "--out", str(out)], capsys)
    assert code == 1
    assert not out.exists()


def test_config_file_fills_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("per_cell = 2\nseed = 7\n")
    a = tmp_path / "a.csv"
    code, _, _ = run(["simulate", "chequerboard", "--config", str(cfg),
                      "--out", str(a)], capsys)
    assert code == 0
    b = tmp_path / "b.csv"
    run(["simulate", "chequerboard", "--per-cell", "2", "--seed", "7",
         "--out", str(b)], capsys)
    a_body = [l for l in a.read_text().splitlines() if not l.startswith("#")]
    b_body = [l for l in b.read_text().splitlines() if not l.startswith("#")]
    assert a_body == b_body
    # explicit flags beat the config file
    c = tmp_path / "c.csv"
    run(["simulate", "chequerboard", "--config", str(cfg), "--seed", "8",
         "--out", str(c)], capsys)
    assert "seed=8" in c.read_text()


def test_config_dotted_kernel_keys(tmp_path, capsys):
    data = tmp_path / "train.csv"
    run(["simulate", "chequerboard", "--per-cell", "2", "--seed", "1",
         "--out", str(data)], capsys)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kernel.family = gaussian\nkernel.tau = 0.5\n")
    model = tmp_path / "model.json"
    code, _, _ = run(["fit", "--data", str(data), "--config", str(cfg),
                      "--out", str(model)], capsys)
    assert code == 0
    doc = json.loads(model.read_text())
    assert doc["model"]["params"]["kernel"] == {"family": "gaussian", "tau": 0.5}


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = 1\n")
    code, _, err = run(["simulate", "chequerboard", "--config", str(cfg),
                        "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 1
    assert "frobnicate" in err


def test_config_value_goes_through_the_flag_type(tmp_path, capsys):
    # --sample defaults to None, so only its type turns the config's "3" into 3
    data = tmp_path / "pts.csv"
    data.write_text("x0\n0.0\n0.1\n5.0\n5.1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sample = 3\n")
    flags = ["partition", "--data", str(data), "--lambda", "0.5"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run([*flags, "--config", str(cfg), "--out", str(a)], capsys)[0] == 0
    assert run([*flags, "--sample", "3", "--out", str(b)], capsys)[0] == 0
    assert (json.loads(a.read_text())["partition"]
            == json.loads(b.read_text())["partition"])
    assert json.loads(a.read_text())["partition"]["rule"] == "sample"


def test_abbreviated_flag_beats_config(tmp_path, capsys):
    data = tmp_path / "train.csv"
    run(["simulate", "chequerboard", "--per-cell", "2", "--seed", "2",
         "--out", str(data)], capsys)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"kernel": {"family": "exponential", "tau": 0.5},
                                 "alphas": 1.0, "order": 1}]))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("folds = 2\n")
    out = tmp_path / "cv.json"
    code, _, _ = run(["cv", "--data", str(data), "--grid", str(grid), "--fold", "3",
                      "--config", str(cfg), "--out", str(out)], capsys)
    assert code == 0
    doc = json.loads(out.read_text())["cv"]
    assert doc["folds"] == 3
    assert len(doc["candidates"][0]["fold_scores"]) == 3


def test_config_cannot_set_a_required_flag(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {tmp_path / 'other.csv'}\n")
    out = tmp_path / "x.csv"
    code, _, err = run(["simulate", "chequerboard", "--config", str(cfg),
                        "--out", str(out)], capsys)
    assert code == 1
    assert "'out' is required on the command line" in err
    assert not out.exists() and not (tmp_path / "other.csv").exists()


def test_config_rejects_keys_that_are_not_flags(tmp_path, capsys):
    # the parsed namespace also holds the handler and the subcommand name
    for key in ("func", "command", "help"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 1\n")
        code, _, err = run(["simulate", "chequerboard", "--config", str(cfg),
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 1
        assert f"unknown config key {key!r}" in err


def test_simulate_writes_atomically(tmp_path, capsys, monkeypatch):
    import os

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "sim.csv"
    for what in ("chequerboard", "triangular"):
        code, _, err = run(["simulate", what, "--out", str(out)], capsys)
        assert code == 1
        assert "rename refused" in err
        assert not out.exists()


@pytest.mark.parametrize("lo, hi", [("1", "1"), ("2", "1"), ("nan", "1"), ("0", "inf")])
def test_simulate_triangular_refuses_an_interval_by_its_flags(tmp_path, capsys, lo, hi):
    out = tmp_path / "sim.csv"
    code, stdout, err = run(["simulate", "triangular", "--lo", lo, "--hi", hi,
                             "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert (f"--lo and --hi must be finite with --hi above --lo, "
            f"got --lo {float(lo)} and --hi {float(hi)}") in err
    assert not out.exists()


def test_bench_command_smoke(tmp_path, capsys):
    # every order at two sizes; no time is asserted, only that each order
    # prints its line and stores a positive median per size
    out = tmp_path / "bench.json"
    code, stdout, _ = run(["bench", "--orders", "0,1,2,3", "--sizes", "16,32",
                           "--queries", "3", "--out", str(out)], capsys)
    assert code == 0
    assert all(f"order {k}: " in stdout for k in range(4))
    timings = json.loads(out.read_text())["bench"]["timings"]
    assert [t["order"] for t in timings] == [0, 1, 2, 3]
    assert all(len(t["median_seconds"]) == 2 and min(t["median_seconds"]) > 0
               for t in timings), timings


@pytest.mark.parametrize("flag, value", [("--queries", "0"), ("--queries", "-3"),
                                         ("--sizes", "0,10"), ("--sizes", "-5,10"),
                                         ("--sizes", "8,8"), ("--orders", "1,1"),
                                         ("--orders", "1,x"), ("--sizes", "8,x"),
                                         ("--orders", "4"), ("--orders", "-1")])
def test_bench_refuses_sizes_and_query_counts_below_one(tmp_path, capsys, flag, value):
    # refused before any timing: a size of 0 would reach LAPACK, a negative
    # one numpy, and a query count below 1 would time one query; a repeated
    # size would fit a slope through one x, a repeated order would print
    # twice, and an entry that is not an integer, or an order outside 0..3,
    # is refused by its flag before any Gram matrix is built
    out = tmp_path / "bench.json"
    code, stdout, err = run(["bench", "--orders", "1", f"{flag}={value}", "--out", str(out)],
                            capsys)
    assert code == 1
    assert stdout == ""
    assert f"{flag} must" in err and value in err
    assert not out.exists()


def test_study_command_smoke(tmp_path, capsys):
    outdir = tmp_path / "study"
    code, _, _ = run(["study", "--n", "16", "--t-points", "9",
                      "--out", str(outdir)], capsys)
    assert code == 0
    assert (outdir / "ratio_curves.csv").exists()
    assert (outdir / "probability_curves.csv").exists()
    doc = json.loads((outdir / "summary.json").read_text())
    assert "study" in doc


def test_study_refuses_a_grid_that_misses_the_central_peak(tmp_path, capsys):
    outdir = tmp_path / "study"
    code, _, err = run(["study", "--n", "16", "--t-points", "4",
                        "--out", str(outdir)], capsys)
    assert code == 1
    assert "t_points = 4 puts no grid point in the central peak |t| <= 0.5" in err
    assert not (outdir / "summary.json").exists()


def test_study_refuses_fewer_points_than_the_oracle_subsample(tmp_path, capsys):
    outdir = tmp_path / "study"
    code, _, err = run(["study", "--n", "5", "--out", str(outdir)], capsys)
    assert code == 1
    assert "n = 5 is below the oracle subsample of 10 points" in err
    assert not outdir.exists()


@pytest.mark.parametrize("given,missing", [("--expr", "--labels"), ("--labels", "--expr")])
def test_reproduce_microarray_refuses_half_a_data_pair(tmp_path, capsys, given, missing):
    outdir = tmp_path / "micro"
    code, _, err = run(["reproduce", "microarray", "--repetitions", "2",
                        given, str(tmp_path / "missing.csv"), "--out", str(outdir)],
                       capsys)
    assert code == 1
    assert f"reproduce microarray got {given} without {missing}" in err
    assert not outdir.exists()


def test_reproduce_microarray_missing_files_leave_no_directory(tmp_path, capsys):
    outdir = tmp_path / "micro"
    code, _, err = run(["reproduce", "microarray", "--repetitions", "2",
                        "--expr", str(tmp_path / "missing.csv"),
                        "--labels", str(tmp_path / "missing-labels.csv"),
                        "--out", str(outdir)], capsys)
    assert code == 1
    assert "missing.csv" in err
    assert not outdir.exists()


@pytest.mark.parametrize("what", ["table1", "figure1"])
@pytest.mark.parametrize("flag,value", [("--expr", "e.csv"), ("--labels", "l.csv"),
                                        ("--repetitions", "1")])
def test_reproduce_refuses_the_microarray_flags(tmp_path, capsys, what, flag, value):
    outdir = tmp_path / "out"
    code, _, err = run(["reproduce", what, flag, value, "--out", str(outdir)], capsys)
    assert code == 1
    assert f"reproduce {what} does not read {flag}" in err
    assert not outdir.exists()


def test_reproduce_microarray_smoke(tmp_path, capsys):
    outdir = tmp_path / "micro"
    code, _, _ = run(["reproduce", "microarray", "--repetitions", "2",
                      "--seed", "0", "--out", str(outdir)], capsys)
    assert code == 0
    assert (outdir / "errors_vs_genes.csv").exists()
    assert (outdir / "projection.csv").exists()
    doc = json.loads((outdir / "summary.json").read_text())
    assert doc["microarray"]["repetitions"] == 2


def test_table1_row_shape(tmp_path, capsys):
    # structural check at desk scale: tiny grid, tiny CV
    from permclass.experiments import run_chequerboard
    res = run_chequerboard(seed=0, per_cell=2, grid_resolution=6,
                           taus=(0.5,), alphas=(1.0,), folds=3)
    names = [r.name for r in res.rows]
    assert names == ["permanental K1", "permanental K2", "neural network",
                     "support vector machine", "aggregated classification tree",
                     "5-nearest neighbour"]
    assert sum(r.external for r in res.rows) == 3
    for r in res.rows:
        if r.external:
            assert r.train_errors is None and r.test_errors is None
        else:
            assert r.train_errors is not None and r.test_errors is not None


def test_predict_rejects_nan_query_cell(tmp_path, capsys):
    data = tmp_path / "train.csv"
    data.write_text("x0,label\n0.0,a\n1.0,b\n")
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(data), "--kernel", "gaussian",
                "--out", str(model)], capsys)[0] == 0
    queries = tmp_path / "q.csv"
    queries.write_text("x0\n0.5\nnan\n")
    out = tmp_path / "pred.csv"
    code, _, err = run(["predict", "--model", str(model), "--queries",
                        str(queries), "--out", str(out)], capsys)
    assert code == 1
    assert f"{queries}:3" in err and "not finite" in err
    assert not out.exists()


def test_predict_reads_a_queries_file_at_the_model_width(tmp_path, capsys):
    # a queries file of another width is refused with both files named and
    # nothing written; a header alone keeps its width and writes no row
    (tmp_path / "train.csv").write_text(_TRAIN)
    model, queries, out = tmp_path / "model.json", tmp_path / "q.csv", tmp_path / "pred.csv"
    assert run(["fit", "--data", str(tmp_path / "train.csv"), "--out", str(model)],
               capsys)[0] == 0
    argv = ["predict", "--model", str(model), "--queries", str(queries), "--out", str(out)]
    queries.write_text("x0\n0.5\n")
    assert run(argv, capsys) == (1, "", f"permclass: error: {queries}: queries are 1-d, "
                                        f"the points of {model} are 2-d\n")
    assert not out.exists()
    queries.write_text("x0,x1\n")
    assert run(argv, capsys)[0] == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert lines == ["x0,x1,p_a,p_b,label"]


@pytest.mark.parametrize("mode", ["exact", "approx"])
@pytest.mark.parametrize("text", ["", "# a comment alone\n"], ids=["empty", "comment-only"])
def test_perm_refuses_a_matrix_file_without_rows_by_name(tmp_path, mode, text):
    # stderr holds the refusal alone: numpy's warning of an empty input
    # does not reach it.  A fresh interpreter, as pytest would catch the warning
    m = tmp_path / "m.csv"
    m.write_text(text)
    src = str(Path(permclass.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "permclass.cli", "perm", mode, "--matrix", str(m), "--alpha", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"permclass: error: {m}: no data rows\n"


SUBCOMMANDS = ["perm", "fit", "predict", "partition", "cv", "simulate", "genes",
               "bench", "study", "reproduce"]


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["-h"], ["--version"], [], ["nosuch"], *([name, "-h"] for name in SUBCOMMANDS),
    ["predict", "--model", "m.json", "--queries", "q.csv", "--out", "p.csv", "--bogus"],
    ["partition", "--data", "pts.csv"],
    ["bench", "--queries", "many"],
    ["partition", "--data", "{tmp}/pts.csv", "--lambda", "0.5", "--config", "{tmp}/run.cfg",
     "--out", "{tmp}/part.json"]], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_lazy_parser_says_what_the_full_one_says(argv, tmp_path, capsys, monkeypatch):
    # a command builds its own subcommand's parser alone; whatever argv
    # gives, exit code, stdout and stderr match a parser holding every one
    (tmp_path / "run.cfg").write_text("frobnicate = 1\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    lazy = _outcome(argv, capsys)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert lazy == _outcome(argv, capsys)
    assert lazy[1] or lazy[2]


def test_partition_command_builds_one_subcommand_parser(tmp_path, capsys, monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    data = tmp_path / "pts.csv"
    data.write_text("x0\n0.0\n0.1\n5.0\n")
    assert run(["partition", "--data", str(data), "--lambda", "0.5",
                "--out", str(tmp_path / "part.json")], capsys)[0] == 0
    assert built == ["partition"]
    built.clear()
    assert _outcome(["-h"], capsys)[0] == 0
    assert built == SUBCOMMANDS


def _two_class_files(tmp_path, n):
    rng = np.random.default_rng(0)
    data = tmp_path / "train.csv"
    data.write_text("x0,x1,label\n" + "".join(
        f"{x!r},{y!r},{label}\n" for label in "ab"
        for x, y in rng.normal(size=(n, 2)).tolist()))
    queries = tmp_path / "q.csv"
    queries.write_text("x0,x1\n0.5,0.5\n-1.0,2.0\n")
    return data, queries


@pytest.mark.parametrize("key", ["model", "params", "points", "labels", "n_classes",
                                 "class_names"])
def test_predict_names_a_missing_model_key(tmp_path, capsys, key):
    data, queries = _two_class_files(tmp_path, 3)
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(data), "--out", str(model)], capsys)[0] == 0
    doc = json.loads(model.read_text())
    del (doc if key == "model" else doc["model"])[key]
    model.write_text(json.dumps(doc))
    out = tmp_path / "pred.csv"
    code, stdout, err = run(["predict", "--model", str(model), "--queries", str(queries),
                             "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert f"has no '{key}' key" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("class_names", 3, "model class_names must be a list of strings, got 3"),
    ("class_names", [1, 2], "model class_names must be a list of strings, got [1, 2]"),
    ("n_classes", "2", "model n_classes must be an integer, got '2'"),
    ("n_classes", True, "model n_classes must be an integer, got True"),
    ("n_classes", 2.0, "model n_classes must be an integer, got 2.0"),
    ("points", 5, "model points must be a list, got 5"),
    ("points", {"x": [0.0]}, "model points must be a list, got {'x': [0.0]}"),
    ("labels", "ab", "model labels must be a list, got 'ab'"),
    ("labels", [0.5, 0, 1, 1, 1, 1], "label 0 is not an integer class code (0.5)"),
    ("points", [[{}], [1], [2], [3]], "point array must be rows of real numbers (float() "
     "argument must be a string or a real number, not 'dict')"),
    ("points", [["a"], [1], [2], [3]], "point array must be rows of real numbers (could not "
     "convert string to float: 'a')"),
    ("points", [[0.0, 1.0], [1.0]], "point array must be rows of real numbers ("),
    ("labels", [0, {}, 1, 1, 1, 1], "label 1 is not an integer class code ({})"),
    ("labels", [0, 0, None, 1, 1, 1], "label 2 is not an integer class code (None)"),
    ("labels", [False, False, False, True, True, True],
     "label 0 is not an integer class code (False)"),
    ("labels", [0, 0, 0, 1, 1, True], "label 5 is not an integer class code (True)"),
], ids=["int-names", "int-name-entries", "str-count", "bool-count", "float-count",
        "int-points", "dict-points", "str-labels", "fractional-label", "dict-in-points",
        "str-in-points", "ragged-points", "dict-label", "null-label", "bool-labels",
        "bool-in-labels"])
def test_predict_refuses_a_model_field_of_the_wrong_type(tmp_path, capsys, key, value,
                                                         message):
    data, queries = _two_class_files(tmp_path, 3)
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(data), "--out", str(model)], capsys)[0] == 0
    doc = json.loads(model.read_text())
    doc["model"][key] = value
    model.write_text(json.dumps(doc))
    out = tmp_path / "pred.csv"
    code, stdout, err = run(["predict", "--model", str(model), "--queries", str(queries),
                             "--out", str(out)], capsys)
    assert (code, stdout) == (1, "")
    assert f"{model}: {message}" in err, err
    assert not out.exists()


def test_fit_and_predict_hold_one_class_gram_at_a_time(tmp_path, capsys):
    # two classes of n points at order 2: the peak of traced allocations
    # stays near one n x n Gram matrix, where both classes' would be twice it
    n = 600
    data, queries = _two_class_files(tmp_path, n)
    model = tmp_path / "model.json"
    for argv in (["fit", "--data", str(data), "--order", "2", "--out", str(model)],
                 ["predict", "--model", str(model), "--queries", str(queries),
                  "--out", str(tmp_path / "pred.csv")]):
        tracemalloc.start()
        try:
            assert run(argv, capsys)[0] == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * n, argv[0]


@pytest.mark.parametrize("grid, message", [
    ({"candidates": []}, "grid.json has no 'grid' key"),
    ({"grid": [{"kernel": {"family": "gaussian", "tau": 0.5}, "alphas": 1.0, "order": True}]},
     "order must be 0..3 or 'exact', got True"),
    ({"grid": [{"kernel": {"family": "gaussian", "tau": 0.5}, "alphas": 1.0, "order": 3.0}]},
     "order must be 0..3 or 'exact', got 3.0"),
    ({"grid": [{"kernel": {"family": "constant", "c": 1.0, "tau": 0.1}, "alphas": 1.0}]},
     "constant kernel takes no tau, got 0.1"),
    ({"grid": [{"kernel": {"family": "diagonal_indicator", "c": 1.0}, "alphas": 1.0}]},
     "grid.json: grid entry 0: 'diagonal_indicator' is not a valid KernelFamily"),
    ({"grid": [{"kernel": {"family": "gaussian", "tau": 0.5}, "alphas": 1.0, "lambda": True}]},
     "grid.json: grid entry 0: lambda must be a real number, got True"),
    ({"grid": [{"kernel": {"family": "gaussian", "tau": "0.5"}, "alphas": 1.0}]},
     "grid.json: grid entry 0: gaussian kernel requires a finite tau > 0, got '0.5'"),
    ({"grid": [{"kernel": {"family": "gaussian", "tau": 0.5}, "alphas": {}}]},
     "grid.json: grid entry 0: alphas must be finite real numbers, got {}"),
    ({"grid": [{"kernel": {"family": "gaussian", "tau": 0.5}, "alphas": []}]},
     "grid.json: grid entry 0: alphas must be finite real numbers, got []"),
    ({"grid": [{"kernel": {"family": "projection_matrix",
                           "aux": {"matrix": [[{}]], "points": [[0.0]]}}, "alphas": 1.0}]},
     "grid.json: grid entry 0: projection matrix must be rows of real numbers (float() "
     "argument must be a string or a real number, not 'dict')"),
], ids=["no-grid-key", "bool-order", "float-order", "constant-tau", "removed-family",
        "bool-lambda", "str-tau", "mapping-alphas", "empty-alphas",
        "mapping-in-projection-matrix"])
def test_cv_refuses_a_bad_grid_file_and_writes_nothing(tmp_path, capsys, grid, message):
    data = tmp_path / "train.csv"
    run(["simulate", "chequerboard", "--per-cell", "3", "--seed", "9",
         "--out", str(data)], capsys)
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    out = tmp_path / "cv.json"
    code, _, err = run(["cv", "--data", str(data), "--grid", str(path), "--folds", "3",
                        "--out", str(out)], capsys)
    assert code == 1
    assert message in err
    assert not out.exists()


def test_malformed_grid_and_model_documents_are_refused_by_field(tmp_path, capsys):
    # a grid or model document whose value at some field is not a mapping,
    # or whose grid is not a list, is refused naming that field, and the
    # command writes nothing
    data = tmp_path / "train.csv"
    run(["simulate", "chequerboard", "--per-cell", "3", "--seed", "9",
         "--out", str(data)], capsys)
    documents = [
        ("cv", [1, 2], "model params must be a mapping with a 'kernel' key, got int"),
        ("cv", {"grid": [1]}, "model params must be a mapping with a 'kernel' key, got int"),
        ("cv", {"grid": {"a": 1}}, "doc.json: grid must be a list of candidates, got dict"),
        ("cv", {"grid": [{"kernel": 3, "alphas": 1.0}]},
         "kernel must be a mapping with a 'family' key, got int"),
        ("cv", {"grid": [{"kernel": [1], "alphas": 1.0}]},
         "kernel must be a mapping with a 'family' key, got list"),
        ("cv", {"grid": [{"kernel": {"family": "projection_matrix", "aux": 5}, "alphas": 1.0}]},
         "projection kernel aux must be a mapping with a 'matrix' key, got int"),
        ("predict", {"model": 3}, "model must be a mapping with a 'params' key, got int"),
        ("predict", {"model": {"params": 3, "classes": []}},
         "model params must be a mapping with a 'kernel' key, got int"),
    ]
    path, out = tmp_path / "doc.json", tmp_path / "out.json"
    for command, document, message in documents:
        path.write_text(json.dumps(document))
        argv = (["cv", "--data", str(data), "--grid", str(path), "--folds", "3"]
                if command == "cv" else
                ["predict", "--model", str(path), "--queries", str(data)])
        code, _, err = run(argv + ["--out", str(out)], capsys)
        assert code == 1, document
        assert message in err, (document, err)
        assert not out.exists()
        # the file is named once, and a candidate by its place in the grid
        assert err.count(str(path)) == 1, err
        if command == "predict":
            assert f"{path}: {message}" in err, err
        elif "grid must be a list" not in message:
            assert f"{path}: grid entry 0: {message}" in err, err


def test_fit_reads_the_constant_kernel_flag(tmp_path, capsys):
    # `--kernel constant` builds a constant kernel from --c alone: the
    # stored model carries no tau
    data = tmp_path / "train.csv"
    run(["simulate", "chequerboard", "--per-cell", "1", "--seed", "9",
         "--out", str(data)], capsys)
    out = tmp_path / "model.json"
    code, _, _ = run(["fit", "--data", str(data), "--kernel", "constant", "--c", "0.5",
                      "--order", "1", "--out", str(out)], capsys)
    assert code == 0
    params = json.loads(out.read_text())["model"]["params"]
    assert params["kernel"] == {"family": "constant", "c": 0.5}


@pytest.mark.parametrize("argv, files, message", [
    (["perm", "approx", "--matrix", "{tmp}/m.csv", "--alpha", "1", "--order", "exact"],
     {"m.csv": "1,0.5\n0.5,1\n"}, "permclass: error: --order must be 0..3 for perm approx"),
    (["perm", "approx", "--matrix", "{tmp}/m.csv", "--alpha", "-1"],
     {"m.csv": "1,0.5\n0.5,1\n"}, "permclass: error: alpha must be positive, got -1.0"),
    (["simulate", "chequerboard", "--config", "{tmp}/run.cfg", "--out", "{tmp}/out.csv"],
     {"run.cfg": "# defaults\nper_cell 3\n"}, "{tmp}/run.cfg:2: expected key=value"),
    (["perm", "exact", "--matrix", "{tmp}/m.csv", "--alpha", "1"],
     {"m.csv": "1,2,3\n4,5\n"}, "{tmp}/m.csv: the number of columns changed"),
    (["perm", "approx", "--matrix", "{tmp}/m.csv", "--alpha", "1"],
     {"m.csv": "1,0.5\n0.4,1\n"}, "{tmp}/m.csv: matrix must be exactly symmetric"),
    (["fit", "--data", "{tmp}/train.csv", "--out", "{tmp}/out.csv"],
     {"train.csv": "x0,x1,label\n"}, "permclass: error: {tmp}/train.csv: no data rows"),
    (["cv", "--data", "{tmp}/train.csv", "--out", "{tmp}/out.csv"],
     {"train.csv": "x0,x1,label\n"}, "permclass: error: {tmp}/train.csv: no data rows"),
], ids=["perm-approx-exact-order", "perm-approx-negative-alpha", "config-line-without-equals",
        "perm-exact-ragged-matrix", "perm-approx-asymmetric-matrix", "fit-header-only",
        "cv-header-only"])
def test_cli_refusals_name_their_cause(tmp_path, capsys, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code, out, err = run([a.replace("{tmp}", str(tmp_path)) for a in argv], capsys)
    assert code == 1
    assert out == ""
    assert message.replace("{tmp}", str(tmp_path)) in err
    assert not (tmp_path / "out.csv").exists()


_TRAIN = "x0,x1,label\n0.0,0.1,a\n0.2,0.0,a\n0.1,0.3,a\n2.0,2.1,b\n2.2,1.9,b\n1.9,2.2,b\n"


@pytest.mark.parametrize("name, text, argv", [
    ("features.csv", "x0,label\n0.5,a\nabc,b\n",
     ["fit", "--data", "{doc}", "--out", "{tmp}/out.json"]),
    ("expr.csv", "gene_id,S0,S1\nG0,1,x\n",
     ["genes", "rank", "--expr", "{doc}", "--labels", "{tmp}/labels.csv",
      "--out", "{tmp}/out.csv"]),
    ("matrix.csv", "1,2,3\n4,5\n", ["perm", "exact", "--matrix", "{doc}", "--alpha", "1"]),
    ("ns.csv", "1,0.5\n0.4,1\n", ["perm", "approx", "--matrix", "{doc}", "--alpha", "1"]),
    ("model.json", '{"model": {"params": ',
     ["predict", "--model", "{doc}", "--queries", "{tmp}/train.csv", "--out", "{tmp}/out.csv"]),
    ("grid.json", json.dumps({"grid": [{"kernel": {"family": "gaussian", "tau": 0.5},
                                        "alphas": "x"}]}),
     ["cv", "--data", "{tmp}/train.csv", "--grid", "{doc}", "--folds", "2",
      "--out", "{tmp}/out.json"]),
    ("run.cfg", "# defaults\nper_cell 3\n",
     ["simulate", "chequerboard", "--config", "{doc}", "--out", "{tmp}/out.csv"]),
], ids=["features-csv", "expression-csv", "matrix-csv", "asymmetric-matrix-csv", "model-json",
        "grid-json", "config"])
def test_a_malformed_input_file_is_refused_by_name(tmp_path, capsys, name, text, argv):
    # one malformed document of each input format: the command exits 1,
    # its message names the file, and it writes nothing
    (tmp_path / "train.csv").write_text(_TRAIN)
    (tmp_path / "labels.csv").write_text("sample,label\nS0,a\nS1,b\n")
    doc = tmp_path / name
    doc.write_text(text)
    inputs = sorted(tmp_path.iterdir())
    code, out, err = run([a.replace("{doc}", str(doc)).replace("{tmp}", str(tmp_path))
                          for a in argv], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"permclass: error: {doc}"), err
    assert sorted(tmp_path.iterdir()) == inputs


# every name the package exported when it imported each of its modules eagerly
_PACKAGE_NAMES = [
    "GramMatrix", "Kernel", "KernelFamily", "gram", "kernel_block", "kernel_column",
    "kernel_eval", "kernel_self", "EXACT_SIZE_CAP", "ExactSizeLimitError", "Partition",
    "cyclic_ratio_exact", "cyp_exact", "ewens_probability", "iter_set_partitions",
    "label_probability_exact", "partition_probability_exact", "per_alpha_exact",
    "ratio_exact", "ratio_exact_matrix", "rising_factorial", "EXACT_ORDER", "MAX_ORDER",
    "DegenerateConfigurationError", "LimitTable", "RatioTable", "build_ratio_table",
    "per_alpha_cyclic", "ratio_approx", "ratio_approx_matrix", "ratio_from_kt",
    "FittedModel", "LabeledDataset", "ModelParams", "PosteriorTable", "fit", "knn_predict",
    "predict", "predict_infinite", "sequential_partition", "CVReport", "CVSpec",
    "cross_entropy", "cross_validate", "default_grid", "error_rate", "fold_assignment",
    "median_pairwise_distance", "ExpressionMatrix", "SplitPlan", "chequerboard_label",
    "gen_chequerboard", "gen_expression", "gen_grid_testset", "gen_triangular",
    "load_expression_csv", "load_features_csv", "make_splits", "rank_genes_bw",
    "save_features_csv", "splitmix64", "two_axis_projection", "BenchReport", "StudyConfig",
    "StudyReport", "accuracy_study", "bench_orders", "ChequerboardResult",
    "MicroarrayResult", "run_chequerboard", "run_microarray",
]


def test_every_package_name_still_imports_from_permclass():
    # the pipelines' names are looked up on use, so this runs that lookup
    # whether or not their modules are loaded yet
    for name in _PACKAGE_NAMES:
        exec(f"from permclass import {name}", {})
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from permclass import no_such_name", {})


def test_every_package_name_is_listed_and_star_imported():
    # the names looked up on use are listed by dir() and bound by `import *`
    # as the eagerly imported ones are
    listed = dir(permclass)
    bound: dict = {}
    exec("from permclass import *", bound)
    assert [name for name in _PACKAGE_NAMES if name not in listed] == []
    assert [name for name in _PACKAGE_NAMES if name not in bound] == []
    assert all(bound[name] is getattr(permclass, name) for name in _PACKAGE_NAMES)


def test_partition_is_one_class_under_both_module_names():
    from permclass import classify, exact
    assert exact.Partition is classify.Partition


# the modules that a start loads only when its subcommand runs them: the
# finite-class tables, the small-mass limit tables, the exact oracle, the data
# generators, the pipelines and their handlers, and `logging`, which only a
# report loads
_PIPELINES = ("logging", "permclass.benchmarks", "permclass.cyclic", "permclass.datasets",
              "permclass.exact", "permclass.experiments", "permclass.limit",
              "permclass.model_select", "permclass.pipelines")

# runs the subcommand given as arguments, if any, after importing the CLI
# alone, and prints which of those modules the interpreter has loaded
_LOADED_AFTER = f"""
import sys
from permclass.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else 0
print(sorted(m for m in sys.modules if m in {_PIPELINES!r}))
sys.exit(code)
"""


_CYCLIC = ["permclass.cyclic"]
_LIMIT = ["permclass.limit"]
_EXACT = ["permclass.exact"]
_DATASETS = ["permclass.datasets", "permclass.pipelines"]
_BENCHMARKS = ["permclass.benchmarks", "permclass.cyclic", "permclass.datasets",
               "permclass.exact", "permclass.pipelines"]
_EXPERIMENTS = ["permclass.cyclic", "permclass.datasets", "permclass.experiments",
                "permclass.model_select", "permclass.pipelines"]
_PARTITION = ["partition", "--data", "{tmp}/train.csv", "--lambda", "1",
              "--out", "{tmp}/part.json"]


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["perm", "approx", "--matrix", "{tmp}/m.csv", "--alpha", "1"], _CYCLIC),
    (["perm", "exact", "--matrix", "{tmp}/m.csv", "--alpha", "1"], _EXACT),
    (["fit", "--data", "{tmp}/train.csv", "--out", "{tmp}/fitted.json"], _CYCLIC),
    (["fit", "--data", "{tmp}/train.csv", "--order", "exact", "--out", "{tmp}/fitted.json"],
     _EXACT),
    (["predict", "--model", "{tmp}/model.json", "--queries", "{tmp}/train.csv",
      "--out", "{tmp}/pred.csv"], _CYCLIC),
    (_PARTITION, _LIMIT),
    (_PARTITION + ["--order", "0"], _LIMIT),
    (_PARTITION + ["--order", "1"], _LIMIT),
    (_PARTITION + ["--order", "2"], _LIMIT),
    (_PARTITION + ["--order", "exact"], _EXACT + _LIMIT),
    (["simulate", "triangular", "--n", "5", "--out", "{tmp}/sim.csv"], _DATASETS),
    (["genes", "rank", "--expr", "{tmp}/expr.csv", "--labels", "{tmp}/labels.csv",
      "--out", "{tmp}/genes.csv"], ["logging", *_DATASETS]),
    (["cv", "--data", "{tmp}/train.csv", "--folds", "2", "--out", "{tmp}/cv.json"],
     ["permclass.cyclic", "permclass.model_select"]),
    (["bench", "--orders", "1", "--sizes", "4,8", "--queries", "1"], _BENCHMARKS),
    (["study", "--n", "16", "--t-points", "9", "--out", "{tmp}/study"], _BENCHMARKS),
    (["reproduce", "figure1", "--out", "{tmp}/figure1"], _BENCHMARKS),
    (["reproduce", "table1", "--out", "{tmp}/table1"], _EXPERIMENTS),
    (["reproduce", "microarray", "--repetitions", "2", "--out", "{tmp}/microarray"],
     _EXPERIMENTS),
], ids=["import", "perm", "perm-exact", "fit", "fit-exact", "predict", "partition",
        "partition-order0", "partition-order1", "partition-order2", "partition-exact",
        "simulate", "genes", "cv", "bench", "study", "reproduce-figure1",
        "reproduce-table1", "reproduce-microarray"])
def test_a_start_loads_only_the_pipelines_its_subcommand_runs(tmp_path, capsys, argv, loaded):
    # each start is a fresh interpreter, as a command-line start is
    (tmp_path / "train.csv").write_text(_TRAIN)
    (tmp_path / "m.csv").write_text("1,0.5\n0.5,1\n")
    (tmp_path / "expr.csv").write_text("gene_id,S0,S1,S2,S3\nG0,1,1,5,5\nG1,1,2,1.5,1.6\n")
    (tmp_path / "labels.csv").write_text("sample,label\nS0,a\nS1,a\nS2,b\nS3,b\n")
    assert run(["fit", "--data", str(tmp_path / "train.csv"),
                "--out", str(tmp_path / "model.json")], capsys)[0] == 0
    src = str(Path(permclass.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER,
         *(a.replace("{tmp}", str(tmp_path)) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)
