"""Radial-based undersampling, reference resamplers, minority-object typing
and an imbalance-aware cross-validation benchmark harness."""

from .baselines import ResampleSpec, apply_resample
from .dataio import (
    BinaryTask,
    Dataset,
    DatasetStats,
    Standardizer,
    apply_standardizer,
    encode_categoricals,
    fit_standardizer,
    parse_csv,
    parse_keel,
    serialize_csv,
    serialize_keel,
    split_binary,
)
from .errors import FormatError, LeakageError, ParameterError
from .evaluation import (
    EvalReport,
    friedman_statistic,
    make_folds,
    run_experiment,
    select_params,
)
from .minority import MinorityTypeReport, categorize_minority, dataset_stats
from .modeling import (
    GaussianNbClassifier,
    KnnClassifier,
    MetricSet,
    auc_score,
    compute_metrics,
    confusion,
    make_classifier,
)
from .potential import (
    PotentialField,
    PotentialGrid,
    init_field,
    mutual_potential,
    potential_grid,
)
from .radial import RbuParams, rbu_kept_indices, rbu_removal_order, rbu_undersample

__version__ = "0.1.0"

__all__ = [
    "BinaryTask",
    "Dataset",
    "DatasetStats",
    "EvalReport",
    "FormatError",
    "GaussianNbClassifier",
    "KnnClassifier",
    "LeakageError",
    "MetricSet",
    "MinorityTypeReport",
    "ParameterError",
    "PotentialField",
    "PotentialGrid",
    "RbuParams",
    "ResampleSpec",
    "Standardizer",
    "apply_resample",
    "apply_standardizer",
    "auc_score",
    "categorize_minority",
    "compute_metrics",
    "confusion",
    "dataset_stats",
    "encode_categoricals",
    "fit_standardizer",
    "friedman_statistic",
    "init_field",
    "make_classifier",
    "make_folds",
    "mutual_potential",
    "parse_csv",
    "parse_keel",
    "potential_grid",
    "rbu_kept_indices",
    "rbu_removal_order",
    "rbu_undersample",
    "run_experiment",
    "select_params",
    "serialize_csv",
    "serialize_keel",
    "split_binary",
]
