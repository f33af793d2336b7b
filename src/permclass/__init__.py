"""Permanental-process classification with cyclic ratio approximations."""

__version__ = "0.1.0"

from .kernels import (GramMatrix, Kernel, KernelFamily, gram, kernel_block,
                      kernel_column, kernel_eval, kernel_self)
from .exact import (EXACT_SIZE_CAP, ExactSizeLimitError, Partition,
                    cyclic_ratio_exact, cyp_exact, ewens_probability,
                    iter_set_partitions, label_probability_exact,
                    partition_probability_exact, per_alpha_exact,
                    ratio_exact, ratio_exact_matrix, rising_factorial)
from .cyclic import (EXACT_ORDER, MAX_ORDER, DegenerateConfigurationError,
                     LimitTable, RatioTable, build_ratio_table, per_alpha_cyclic,
                     ratio_approx, ratio_approx_matrix, ratio_from_kt)
from .classify import (FittedModel, LabeledDataset, ModelParams, PosteriorTable,
                       fit, knn_predict, predict, predict_infinite,
                       sequential_partition)
from .model_select import (CVReport, CVSpec, cross_entropy, cross_validate,
                           default_grid, error_rate, fold_assignment,
                           median_pairwise_distance)
from .datasets import (ExpressionMatrix, SplitPlan, chequerboard_label,
                       gen_chequerboard, gen_expression, gen_grid_testset,
                       gen_triangular, load_expression_csv, load_features_csv,
                       make_splits, rank_genes_bw, save_features_csv,
                       splitmix64, two_axis_projection)
from .benchmarks import (BenchReport, StudyConfig, StudyReport, accuracy_study,
                         bench_orders)
from .experiments import (ChequerboardResult, MicroarrayResult,
                          run_chequerboard, run_microarray)
