"""Price indexes for heterogeneous asset sales.

Computes the normalized-price geometric-mean index (unitary prices,
price per cm^2) and the conventional hedonic time-dummy index over the
same sale records, verifies the exact decomposition tying the two
together, and audits either method against the monotonicity requirement:
raising prices while holding characteristics fixed must never lower the
index. Ships the Renoir 1989-1990 auction example as a bundled dataset
with an end-to-end replication harness.

Importing the package loads none of its modules: each exported name
imports its defining module on first use (PEP 562), so a command pays
only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the names it exports
_EXPORTS = {
    "csvio": ("InputSchema", "bundled_data_path", "load_bundled_dataset", "load_csv"),
    "domain": ("Dataset", "SaleObservation", "partition_by_period", "validate_dataset"),
    "errors": ("ArtindexError", "ModelError", "RankDeficientError", "ValidationError"),
    "indexes": (
        "DecompositionReport", "IndexMethod", "IndexSeries", "decompose_index",
        "hpm_index_from_result", "hpm_method", "hpm_timedummy_index", "npgm_index",
        "npgm_method", "pinned_log_area_spec",
    ),
    "monotonicity": (
        "DEFAULT_MULTIPLIER_GRID", "LevelComparison", "MonotonicityReport", "Perturbation",
        "Violation", "check_monotonicity", "melser_diagnostic", "melser_significance",
        "random_perturbation_audit", "search_violations",
    ),
    "regression": (
        "DesignSystem", "ModelSpec", "RegressionResult", "build_design", "characteristic_column",
        "fit", "solve_least_squares", "student_t_two_sided_p",
    ),
    "replication": ("write_replication_outputs",),
    "report": ("Report",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        # ``from . import regression`` asks for the attribute first and
        # imports the submodule only on this AttributeError
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
