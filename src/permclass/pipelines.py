"""Handlers of the subcommands that run the data generators, benchmarks and
experiments: `simulate`, `genes`, `bench`, `study` and `reproduce`.

`cli` imports this module when one of them runs, so a start of `perm`,
`fit`, `predict`, `partition` or `cv` neither loads nor compiles them.
Each handler imports its own pipeline in turn.
"""

from __future__ import annotations

import os

import numpy as np

from .classify import LabeledDataset
from .cli import DEFAULT_REPETITIONS, _config_of, _header, write_json
from .files import save_features_csv, write_csv


def cmd_simulate(args) -> int:
    from .datasets import gen_chequerboard, gen_triangular
    if args.what == "chequerboard":
        data = gen_chequerboard(args.per_cell, args.seed)
    else:
        lo, hi = args.lo, args.hi
        draws = gen_triangular(args.n, (lo + hi) / 2, (hi - lo) / 2, args.seed)
        data = LabeledDataset(points=draws.reshape(-1, 1),
                              labels=np.zeros(args.n, dtype=int),
                              n_classes=1, class_names=("1",))
    save_features_csv(args.out, data, header_lines=_header(args.seed, _config_of(args)))
    print(f"wrote {args.out}")
    return 0


def cmd_genes(args) -> int:
    if args.top < 0:
        raise ValueError(f"--top must be nonnegative (0 keeps all genes), got {args.top}")
    from .datasets import load_expression_csv, rank_genes_bw
    expr = load_expression_csv(args.expr, args.labels)
    ranked = rank_genes_bw(expr)
    top = ranked[: args.top] if args.top else ranked
    rows = [(gid, g, float(score)) for g, gid, score in top]
    write_csv(args.out, _header(args.seed, _config_of(args)),
              ["gene_id", "gene_index", "score"], rows)
    print(f"wrote {args.out}")
    return 0


def cmd_bench(args) -> int:
    from .benchmarks import bench_orders
    sizes = [int(s) for s in args.sizes.split(",")]
    if min(sizes) < 1:
        raise ValueError(f"--sizes must each be at least 1, got {args.sizes}")
    if args.queries < 1:
        raise ValueError(f"--queries must be at least 1, got {args.queries}")
    orders = tuple(int(k) for k in args.orders.split(","))
    report = bench_orders(sizes, alpha=args.alpha, seed=args.seed,
                          orders=orders, queries=args.queries)
    for t in report.timings:
        med = ", ".join(f"n={n}: {m * 1e3:.3f} ms"
                        for n, m in zip(t.sizes, t.medians))
        slope = "n/a" if t.slope is None else f"{t.slope:.2f}"
        print(f"order {t.order}: {med}  slope={slope}")
    if args.out:
        write_json(args.out, {"bench": report.to_dict()}, args.seed,
                   _config_of(args))
        print(f"wrote {args.out}")
    return 0


def _study_outputs(outdir: str, report, seed, config) -> None:
    os.makedirs(outdir, exist_ok=True)
    hdr = _header(seed, config)
    for name, curves, prefix in (("ratio_curves.csv", report.curves, ""),
                                 ("probability_curves.csv", report.prob_curves, "p1_")):
        rows = [(float(t), *(float(curves[k][i]) for k in (1, 2, 3)))
                for i, t in enumerate(report.t_grid)]
        columns = ["t"] + [prefix + c for c in ("two_cycle", "three_cycle", "four_cycle")]
        write_csv(os.path.join(outdir, name), hdr, columns, rows)
    write_json(os.path.join(outdir, "summary.json"),
               {"study": report.summary_dict()}, seed, config)


def cmd_study(args) -> int:
    from .benchmarks import StudyConfig, accuracy_study
    cfg = StudyConfig(n=args.n, tau=args.tau, alpha=args.alpha, seed=args.seed,
                      t_points=args.t_points)
    report = accuracy_study(cfg)
    _study_outputs(args.out, report, args.seed, _config_of(args))
    print(f"wrote {args.out}/ratio_curves.csv, probability_curves.csv, summary.json")
    return 0


def cmd_reproduce(args) -> int:
    if args.what != "microarray":
        for flag in ("expr", "labels", "repetitions"):
            if getattr(args, flag) is not None:
                raise ValueError(f"reproduce {args.what} does not read --{flag}; "
                                 f"only reproduce microarray does")
    elif (args.expr is None) != (args.labels is None):
        given, missing = ("--expr", "--labels") if args.labels is None else ("--labels", "--expr")
        raise ValueError(f"reproduce microarray got {given} without {missing}; "
                         f"give both, or neither for the synthetic data")
    if args.repetitions is None:
        args.repetitions = DEFAULT_REPETITIONS
    # each experiment loads only its own pipeline, and pins its own seed
    if args.what == "figure1":
        from .benchmarks import DEFAULT_STUDY_SEED, StudyConfig, accuracy_study
        pinned = DEFAULT_STUDY_SEED
    else:
        from .experiments import DEFAULT_TABLE1_SEED, run_chequerboard, run_microarray
        pinned = DEFAULT_TABLE1_SEED if args.what == "table1" else 0
    if args.seed is None:
        args.seed = pinned
    config = _config_of(args)
    hdr = _header(args.seed, config)
    # every input is read and every result computed before --out is made,
    # so a failed run leaves no directory behind
    if args.what == "figure1":
        report = accuracy_study(StudyConfig(seed=args.seed))
        _study_outputs(args.out, report, args.seed, config)
    elif args.what == "table1":
        result = run_chequerboard(seed=args.seed)
        rows = [(r.name,
                 "external" if r.external else r.train_errors,
                 "external" if r.external else r.test_errors)
                for r in result.rows]
        os.makedirs(args.out, exist_ok=True)
        write_csv(os.path.join(args.out, "table1.csv"), hdr,
                  ["classifier", "train_errors", "test_errors"], rows)
        write_json(os.path.join(args.out, "summary.json"),
                   {"table1": result.to_dict()}, args.seed, config)
    else:
        from .datasets import SplitPlan, gen_expression, load_expression_csv, two_axis_projection
        if args.expr is not None:
            expr = load_expression_csv(args.expr, args.labels)
        else:
            expr, _ = gen_expression(seed=args.seed)
        reps = args.repetitions
        half = expr.n_samples * 2 // 3
        plan = SplitPlan(repetitions=reps, train_size=half,
                         test_size=expr.n_samples - half, seed=args.seed)
        result = run_microarray(expr, plan)
        errors = result.mean_test_errors
        rows = [[m] + [errors[k][i] for k in sorted(errors)]
                for i, m in enumerate(result.gene_counts)]
        coords = two_axis_projection(expr)
        proj_rows = [(sid, lbl, float(c[0]), float(c[1]))
                     for sid, lbl, c in zip(expr.sample_ids,
                                            expr.sample_labels, coords)]
        os.makedirs(args.out, exist_ok=True)
        write_csv(os.path.join(args.out, "errors_vs_genes.csv"), hdr,
                  ["n_genes"] + sorted(errors), rows)
        write_csv(os.path.join(args.out, "projection.csv"), hdr,
                  ["sample", "label", "centroid_axis", "pc1"], proj_rows)
        write_json(os.path.join(args.out, "summary.json"),
                   {"microarray": result.to_dict()}, args.seed, config)
    print(f"wrote artifacts to {args.out}")
    return 0
