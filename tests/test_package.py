"""The package's public names: exactly the pinned set, each resolved lazily to its defining module's object."""

from __future__ import annotations

import importlib

import pytest

import artindex

# every public name; exporting or dropping one is an edit here
PUBLIC_NAMES = {
    "ArtindexError", "DEFAULT_MULTIPLIER_GRID", "Dataset", "DecompositionReport", "DesignSystem",
    "IndexMethod", "IndexSeries", "InputSchema", "LevelComparison", "ModelError", "ModelSpec",
    "MonotonicityReport", "Perturbation", "RankDeficientError", "RegressionResult", "Report",
    "SaleObservation", "ValidationError", "Violation", "build_design", "bundled_data_path",
    "characteristic_column", "check_monotonicity", "decompose_index", "fit",
    "hpm_index_from_result", "hpm_method", "hpm_timedummy_index", "load_bundled_dataset",
    "load_csv", "melser_diagnostic", "melser_significance", "npgm_index", "npgm_method",
    "partition_by_period", "pinned_log_area_spec", "random_perturbation_audit",
    "search_violations", "solve_least_squares", "student_t_two_sided_p", "validate_dataset",
    "write_replication_outputs",
}


def test_all_is_the_public_surface():
    assert set(artindex.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", artindex.__all__)
def test_export_is_the_defining_modules_object(name):
    module = importlib.import_module(f"artindex.{artindex._MODULE_OF[name]}")
    value = getattr(artindex, name)
    assert value is getattr(module, name)
    if hasattr(value, "__module__"):
        assert value.__module__ == module.__name__


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from artindex import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(artindex.__all__)


def test_dir_lists_every_export():
    assert set(artindex.__all__) <= set(dir(artindex))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        artindex.nope
    assert not hasattr(artindex, "nope")
