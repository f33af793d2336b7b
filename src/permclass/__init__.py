"""Permanental-process classification with cyclic ratio approximations."""

__version__ = "0.1.0"

import importlib

from .kernels import (GramMatrix, Kernel, KernelFamily, gram, kernel_block,
                      kernel_column, kernel_eval, kernel_self)
from .cyclic import (EXACT_ORDER, MAX_ORDER, DegenerateConfigurationError,
                     LimitTable, RatioTable, build_ratio_table, per_alpha_cyclic,
                     ratio_approx, ratio_approx_matrix, ratio_from_kt)
from .classify import (FittedModel, LabeledDataset, ModelParams, Partition,
                       PosteriorTable, fit, knn_predict, predict, predict_infinite,
                       sequential_partition)
from .files import load_features_csv, save_features_csv

# The modules that `partition`, `fit`, `predict` and `cv` at orders 0-3 never
# run (the exact oracle, the data generators, and the cross-validation,
# benchmark and experiment pipelines) are imported on first use of one of
# their names (PEP 562), so that a start of those commands neither loads
# nor compiles them.
_ON_USE = {
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
    "experiments": ("ChequerboardResult", "MicroarrayResult", "run_chequerboard",
                    "run_microarray"),
}


def __getattr__(name):
    for module, names in _ON_USE.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
