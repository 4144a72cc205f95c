"""Price indexes for heterogeneous asset sales.

Computes the normalized-price geometric-mean index (unitary prices,
price per cm^2) and the conventional hedonic time-dummy index over the
same sale records, verifies the exact decomposition tying the two
together, and audits either method against the monotonicity requirement:
raising prices while holding characteristics fixed must never lower the
index. Ships the Renoir 1989-1990 auction example as a bundled dataset
with an end-to-end replication harness.
"""

from .csvio import InputSchema, bundled_data_path, load_bundled_dataset, load_csv
from .domain import (
    Dataset,
    SaleObservation,
    partition_by_period,
    restrict_to_periods,
    validate_dataset,
    with_period_relabeled,
    with_price_increments,
    with_price_scaled,
)
from .errors import ArtindexError, ModelError, RankDeficientError, ValidationError
from .indexes import (
    DecompositionReport,
    IndexMethod,
    IndexSeries,
    decompose_index,
    hpm_index_from_result,
    hpm_method,
    hpm_timedummy_index,
    npgm_index,
    npgm_level,
    npgm_method,
    pinned_log_area_spec,
    theta_factor,
)
from .monotonicity import (
    DEFAULT_MULTIPLIER_GRID,
    LevelComparison,
    MonotonicityReport,
    Perturbation,
    Violation,
    check_monotonicity,
    melser_diagnostic,
    melser_significance,
    random_perturbation_audit,
    search_violations,
)
from .regression import (
    DesignSystem,
    ModelSpec,
    RegressionResult,
    build_design,
    characteristic_column,
    fit,
    solve_least_squares,
    student_t_two_sided_p,
)
from .replication import run_replication, write_replication_outputs
from .report import Report

__version__ = "0.1.0"

__all__ = [
    "ArtindexError",
    "DEFAULT_MULTIPLIER_GRID",
    "Dataset",
    "DecompositionReport",
    "DesignSystem",
    "IndexMethod",
    "IndexSeries",
    "InputSchema",
    "LevelComparison",
    "ModelError",
    "ModelSpec",
    "MonotonicityReport",
    "Perturbation",
    "RankDeficientError",
    "RegressionResult",
    "Report",
    "SaleObservation",
    "ValidationError",
    "Violation",
    "build_design",
    "bundled_data_path",
    "characteristic_column",
    "check_monotonicity",
    "decompose_index",
    "fit",
    "hpm_index_from_result",
    "hpm_method",
    "hpm_timedummy_index",
    "load_bundled_dataset",
    "load_csv",
    "melser_diagnostic",
    "melser_significance",
    "npgm_index",
    "npgm_level",
    "npgm_method",
    "partition_by_period",
    "pinned_log_area_spec",
    "random_perturbation_audit",
    "restrict_to_periods",
    "run_replication",
    "search_violations",
    "solve_least_squares",
    "student_t_two_sided_p",
    "theta_factor",
    "validate_dataset",
    "with_period_relabeled",
    "with_price_increments",
    "with_price_scaled",
    "write_replication_outputs",
]
