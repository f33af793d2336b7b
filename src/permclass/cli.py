"""Command-line entry point for reproducible pipelines.

Every subcommand validates its inputs and exits nonzero with a diagnostic
on failure.  Outputs are deterministic given --seed, carry a header with
the version, seed, and resolved configuration, and are written atomically:
content is staged to a `.partial` file and renamed only on success.  A
flat key=value config file sets the defaults of a subcommand's optional
flags, so each value goes through the flag's type and explicit flags win;
required flags and positional arguments stay on the command line.
A start loads only what its subcommand runs: the finite-class tables
(`cyclic`) when `perm approx`, `fit`, `predict` or `cv` builds one, the
small-mass limit tables (`limit`) when `partition` does, and the exact
oracle, cross-validation and the data generators in the handlers that run
them.  The handlers of `simulate`, `genes`, `bench`, `study` and
`reproduce` are in `pipelines`, which loads when one of them runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import deque
from contextlib import contextmanager

import numpy as np

from . import __version__
from .classify import (EXACT_ORDER, LabeledDataset, ModelParams, _posterior, _tables,
                       sequential_partition)
from .files import load_features_csv, write_csv, write_text
from .kernels import GramMatrix, Kernel, _as_square, _entry, _is_integer

PROG = "permclass"

# `reproduce microarray`'s split count when --repetitions is not given
DEFAULT_REPETITIONS = 200


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _header(seed, config: dict) -> list[str]:
    return [f"{PROG} {__version__}", f"seed={seed}",
            "config=" + json.dumps(config, sort_keys=True)]


def write_json(path: str, payload: dict, seed, config: dict) -> None:
    doc = {"meta": {"version": __version__, "seed": seed, "config": config}}
    doc.update(payload)
    write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


@contextmanager
def _named(what: str):
    """Prefix the message of a `ValueError` raised in the block with
    ``what``: the input file, or the place in it, that was refused."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{what}: {err}") from None


def _load_matrix(path: str, symmetric: bool) -> np.ndarray:
    """A matrix CSV as a finite square array, exactly symmetric if
    ``symmetric``; a refusal names the file."""
    with _named(path):
        m = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        return GramMatrix.from_matrix(m).entries if symmetric else _as_square(m)


def _kernel_from_args(args) -> Kernel:
    fam = args.kernel
    if fam in ("exponential", "gaussian"):
        return Kernel(fam, tau=args.tau)
    if fam == "constant":
        return Kernel(fam, c=args.c)
    raise ValueError(f"CLI kernels are exponential, gaussian, constant; got {fam!r}")


def _order_value(raw: str):
    return EXACT_ORDER if raw == EXACT_ORDER else int(raw)


def _config_of(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if k not in ("config", "func", "command") and not k.startswith("_")}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_perm(args) -> int:
    # the cyclic ratios need a symmetric matrix; per_a is defined for any
    m = _load_matrix(args.matrix, symmetric=args.mode == "approx")
    if args.mode == "exact":
        from .exact import per_alpha_exact, ratio_exact_matrix
        value = per_alpha_exact(m, args.alpha)
        ratio = ratio_exact_matrix(m, args.alpha)
        print(f"per_alpha = {value!r}")
        print(f"ratio_last = {ratio!r}")
    else:
        order = _order_value(args.order)
        if order == EXACT_ORDER:
            raise ValueError("--order must be 0..3 for perm approx")
        from .cyclic import per_alpha_cyclic, ratio_approx_matrix
        # the telescoping product's last factor is the last ratio itself
        last = ratio_approx_matrix(m, args.alpha, order)
        value = per_alpha_cyclic(m[:-1, :-1], args.alpha, order=order) * last
        print(f"per_alpha_order{order} = {value!r}")
        print(f"ratio_last_order{order} = {last!r}")
    return 0


def cmd_fit(args) -> int:
    data = load_features_csv(args.data)
    params = ModelParams(kernel=_kernel_from_args(args), alphas=args.alpha,
                         order=_order_value(args.order))
    deque(_tables(data, params), maxlen=0)  # checks each class, then drops it
    payload = {
        "model": {
            "params": params.to_dict(),
            "n_classes": data.n_classes,
            "class_names": list(data.class_names),
            "points": data.points.tolist(),
            "labels": data.labels.tolist(),
        }
    }
    write_json(args.out, payload, args.seed, _config_of(args))
    print(f"wrote {args.out}")
    return 0


def cmd_predict(args) -> int:
    with _named(args.model):
        with open(args.model, encoding="utf-8") as fh:
            stored = _entry(json.load(fh), "model", "model file")
        params = ModelParams.from_dict(_entry(stored, "params", "model"))
        points, labels, n_classes, class_names = (
            _entry(stored, key, "model") for key in ("points", "labels", "n_classes", "class_names"))
        for key, ok, kind in (
                ("points", isinstance(points, list), "a list"),
                ("labels", isinstance(labels, list), "a list"),
                ("n_classes", _is_integer(n_classes), "an integer"),
                ("class_names", isinstance(class_names, list)
                 and all(isinstance(name, str) for name in class_names), "a list of strings")):
            if not ok:
                raise ValueError(f"model {key} must be {kind}, got {stored[key]!r:.40}")
        data = LabeledDataset(points, labels, n_classes, tuple(class_names))
        tables = _tables(data, params)  # refit a class at a time as queries read it
    queries = load_features_csv(args.queries, require_label=False)
    table = _posterior(params.kernel, tables, map(data.class_points, range(data.n_classes)),
                       queries.points)
    names = data.class_names
    columns = ([f"x{i}" for i in range(queries.dim)]
               + [f"p_{name}" for name in names] + ["label"])
    rows = [list(map(float, q)) + [float(p) for p in probs] + [names[int(k)]]
            for q, probs, k in zip(queries.points, table.probs, table.argmax)]
    write_csv(args.out, _header(args.seed, _config_of(args)), columns, rows)
    print(f"wrote {args.out}")
    return 0


def cmd_partition(args) -> int:
    if args.sample is not None and args.sample < 0:
        raise ValueError(f"--sample must be a nonnegative integer seed, got {args.sample}")
    data = load_features_csv(args.data, require_label=False)
    kernel = _kernel_from_args(args)
    params = ModelParams(kernel=kernel, lam=getattr(args, "lambda"),
                         order=_order_value(args.order))
    rule = "sample" if args.sample is not None else "argmax"
    part = sequential_partition(data.points, params, rule=rule, seed=args.sample)
    payload = {"partition": {"blocks": [list(b) for b in part.blocks],
                             "n": part.n, "rule": rule}}
    write_json(args.out, payload, args.seed, _config_of(args))
    print(f"wrote {args.out}")
    return 0


def _grid_from_json(path: str) -> list[ModelParams]:
    with open(path, encoding="utf-8") as fh, _named(path):
        doc = json.load(fh)
    entries = _entry(doc, "grid", path) if isinstance(doc, dict) else doc
    if not isinstance(entries, list):
        raise ValueError(f"{path}: grid must be a list of candidates, got {type(entries).__name__}")
    grid = []
    for i, entry in enumerate(entries):
        with _named(f"{path}: grid entry {i}"):
            grid.append(ModelParams.from_dict(entry))
    return grid


def cmd_cv(args) -> int:
    from .model_select import CVSpec, cross_validate, default_grid
    data = load_features_csv(args.data)
    grid = (_grid_from_json(args.grid) if args.grid
            else default_grid(data.points))
    spec = CVSpec(grid=grid, folds=args.folds, objective=args.objective,
                  seed=args.seed, stratified=args.stratified)
    report = cross_validate(data, spec)
    write_json(args.out, {"cv": report.to_dict()}, args.seed, _config_of(args))
    print(f"wrote {args.out} (winner index {report.winner_index})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _kernel_flags(add):
    add("--kernel", default="exponential",
        choices=["exponential", "gaussian", "constant"])
    add("--tau", type=float, default=1.0)
    add("--c", type=float, default=1.0)


def _perm_flags(add):
    add("mode", choices=["exact", "approx"])
    add("--matrix", required=True)
    add("--alpha", type=float, required=True)
    add("--order", default="3")


def _fit_flags(add):
    add("--data", required=True)
    _kernel_flags(add)
    add("--alpha", type=float, default=1.0)
    add("--order", default="3")
    add("--out", required=True)


def _predict_flags(add):
    add("--model", required=True)
    add("--queries", required=True)
    add("--out", required=True)


def _partition_flags(add):
    add("--data", required=True)
    add("--lambda", type=float, required=True, dest="lambda")
    _kernel_flags(add)
    add("--order", default="3", help="0..3 or 'exact'")
    add("--sample", type=int, default=None,
        help="sample assignments with this seed instead of argmax")
    add("--out", required=True)


def _cv_flags(add):
    add("--data", required=True)
    add("--grid", default=None, help="JSON grid file (default: scale-aware grid)")
    add("--folds", type=int, default=10)
    add("--objective", choices=["error", "xent"], default="error")
    add("--stratified", action="store_true")
    add("--out", required=True)


def _simulate_flags(add):
    add("what", choices=["chequerboard", "triangular"])
    add("--per-cell", type=int, default=10, dest="per_cell")
    add("--n", type=int, default=100)
    add("--lo", type=float, default=-math.pi)
    add("--hi", type=float, default=math.pi)
    add("--out", required=True)


def _genes_flags(add):
    add("mode", choices=["rank"])
    add("--expr", required=True)
    add("--labels", required=True)
    add("--top", type=int, default=0, help="0 keeps all genes")
    add("--out", required=True)


def _bench_flags(add):
    add("--orders", default="1,2,3")
    add("--sizes", default="100,200,400,800")
    add("--alpha", type=float, default=1.0)
    add("--queries", type=int, default=20)
    add("--out", default=None)


def _study_flags(add):
    add("--n", type=int, default=100)
    add("--tau", type=float, default=1.0)
    add("--alpha", type=float, default=1.0)
    add("--t-points", type=int, default=129, dest="t_points")
    add("--out", required=True)


def _reproduce_flags(add):
    add("what", choices=["table1", "figure1", "microarray"])
    add("--out", required=True)
    add("--expr", default=None, help="microarray: expression CSV")
    add("--labels", default=None, help="microarray: sample,label CSV")
    add("--repetitions", type=int, default=None,
        help=f"microarray: train/test splits (default {DEFAULT_REPETITIONS})")


# name: (help, adds its flags by `add_argument`, handler); a handler given
# by name is that function of `pipelines`, imported when it runs
_COMMANDS = {
    "perm": ("alpha-permanents and ratios of a CSV matrix", _perm_flags, cmd_perm),
    "fit": ("fit a finite-class model", _fit_flags, cmd_fit),
    "predict": ("class probabilities for query points", _predict_flags, cmd_predict),
    "partition": ("sequential block assignment", _partition_flags, cmd_partition),
    "cv": ("k-fold cross-validation over a grid", _cv_flags, cmd_cv),
    "simulate": ("emit synthetic dataset CSVs", _simulate_flags, "cmd_simulate"),
    "genes": ("rank genes by BSS/WSS", _genes_flags, "cmd_genes"),
    "bench": ("complexity verification of the orders", _bench_flags, "cmd_bench"),
    "study": ("ratio accuracy study", _study_flags, "cmd_study"),
    "reproduce": ("end-to-end experiment artifacts", _reproduce_flags, "cmd_reproduce"),
}


def build_parser(command: str | None = None
                 ) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name: every
    subcommand's, or ``command``'s alone."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Permanental classification with cyclic approximations")
    parser.add_argument("--version", action="version",
                        version=f"{PROG} {__version__}")
    # a lone subcommand's usage lists every name; the full parser sets
    # no metavar, which errors would print in place of "command"
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if command else None)
    for name in [command] if command else _COMMANDS:
        text, add_flags, func = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        add = p.add_argument
        add_flags(add)
        pinned = name == "reproduce"  # experiments pin their seeds
        add("--seed", type=int, default=None if pinned else 0,
            help="default: the experiment's pinned seed" if pinned else None)
        add("--config", default=None, help="flat key=value file of optional flags' defaults")
        p.set_defaults(func=func)
    return parser, sub.choices


def main(argv=None) -> int:
    """Run the subcommand ``argv`` names, building only its parser; any
    other ``argv`` (help, version, an unknown command) builds them all."""
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            command = commands[args.command]
            command.set_defaults(**_config_defaults(args, command))
            args = parser.parse_args(argv)
        func = args.func
        if isinstance(func, str):
            from . import pipelines
            func = getattr(pipelines, func)
        return func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        # refused input and file errors; anything else is a bug and keeps its traceback
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


# kernel specs may use dotted keys in config files
_CONFIG_ALIASES = {"kernel.family": "kernel", "kernel.tau": "tau", "kernel.c": "c"}


def _config_defaults(args, command: argparse.ArgumentParser) -> dict:
    """The config file's values as defaults for ``command``'s flags.

    Values stay strings, so parsing again applies each flag's type; a
    store_true flag reads 1, true or yes as set.  A key that names no flag,
    or names one that must be given on the command line, is an error.
    """
    actions = {action.dest: action for action in command._actions}
    out = {}
    with open(args.config, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{args.config}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = _CONFIG_ALIASES.get(key, key.replace("-", "_"))
            if key not in actions or not hasattr(args, key):
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            if actions[key].required:
                raise ValueError(f"{args.config}: {key!r} is required on the command "
                                 f"line and cannot come from a config file")
            out[key] = (value.lower() in ("1", "true", "yes")
                        if isinstance(getattr(args, key), bool) else value)
    return out


if __name__ == "__main__":
    sys.exit(main())
