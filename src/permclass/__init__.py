"""Permanental-process classification with cyclic ratio approximations."""

__version__ = "0.1.0"

import importlib

from .kernels import (GramMatrix, Kernel, KernelFamily, gram, kernel_block,
                      kernel_column, kernel_eval, kernel_self)
from .classify import (EXACT_ORDER, MAX_ORDER, FittedModel, LabeledDataset, ModelParams,
                       Partition, PosteriorTable, fit, predict, predict_infinite,
                       sequential_partition)
from .files import load_features_csv, save_features_csv

# The rest is imported on first use of one of its names (PEP 562): each
# model's tables (the finite-class `cyclic`, the small-mass `limit`), the
# exact oracle, the data generators, and the cross-validation, benchmark and
# experiment pipelines.  So a start loads and compiles only the modules its
# subcommand runs.
_ON_USE = {
    "cyclic": ("RatioTable", "build_ratio_table", "per_alpha_cyclic", "ratio_approx",
               "ratio_approx_matrix", "ratio_from_kt"),
    "limit": ("DegenerateConfigurationError", "LimitTable"),
    "exact": ("EXACT_SIZE_CAP", "ExactSizeLimitError", "cyclic_ratio_exact", "cyp_exact",
              "ewens_probability", "iter_set_partitions", "label_probability_exact",
              "partition_probability_exact", "per_alpha_exact", "ratio_exact",
              "ratio_exact_matrix", "rising_factorial"),
    "datasets": ("ExpressionMatrix", "SplitPlan", "chequerboard_label", "gen_chequerboard",
                 "gen_expression", "gen_grid_testset", "gen_triangular",
                 "load_expression_csv", "make_splits", "rank_genes_bw", "splitmix64",
                 "two_axis_projection"),
    "model_select": ("CVReport", "CVSpec", "cross_entropy", "cross_validate",
                     "default_grid", "error_rate", "fold_assignment",
                     "median_pairwise_distance"),
    "benchmarks": ("BenchReport", "StudyConfig", "StudyReport", "accuracy_study",
                   "bench_orders"),
    "experiments": ("ChequerboardResult", "MicroarrayResult", "knn_predict",
                    "run_chequerboard", "run_microarray"),
}

__all__ = [
    "GramMatrix", "Kernel", "KernelFamily", "gram", "kernel_block", "kernel_column",
    "kernel_eval", "kernel_self", "EXACT_ORDER", "MAX_ORDER", "FittedModel",
    "LabeledDataset", "ModelParams", "Partition", "PosteriorTable", "fit", "predict",
    "predict_infinite", "sequential_partition", "load_features_csv", "save_features_csv",
    *(name for names in _ON_USE.values() for name in names),
]


def __getattr__(name):
    for module, names in _ON_USE.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
