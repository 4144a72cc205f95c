"""Monotonicity audits: explicit checks, sweeps, random audits, the diagnostic."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from artindex import (
    ModelError,
    Perturbation,
    SaleObservation,
    ValidationError,
    check_monotonicity,
    hpm_method,
    melser_diagnostic,
    melser_significance,
    npgm_method,
    random_perturbation_audit,
    search_violations,
    validate_dataset,
)
from artindex.monotonicity import DEFAULT_MULTIPLIER_GRID, violations_from

from conftest import EXAMPLE_SPEC


@pytest.fixture(scope="module")
def npgm_fn():
    return npgm_method("A")


@pytest.fixture(scope="module")
def hpm_fn():
    return hpm_method(EXAMPLE_SPEC)


class TestCheckMonotonicity:
    def test_zero_perturbation_is_exactly_unchanged(self, renoir, npgm_fn, hpm_fn):
        pert = Perturbation({o.id: 0.0 for o in renoir.observations})
        for fn in (npgm_fn, hpm_fn):
            for cmp in check_monotonicity(renoir, fn, pert):
                assert cmp.level_after == cmp.level_before
                assert cmp.compliant

    def test_npgm_complies_on_obs29(self, renoir, npgm_fn):
        target = renoir.by_id("29")
        pert = Perturbation({"29": target.price * 0.5})
        (cmp,) = check_monotonicity(renoir, npgm_fn, pert)
        assert cmp.period == "B"
        assert cmp.level_after > cmp.level_before
        assert cmp.compliant

    def test_hpm_violates_on_obs29(self, renoir, hpm_fn):
        target = renoir.by_id("29")
        pert = Perturbation({"29": target.price * 0.5})
        (cmp,) = check_monotonicity(renoir, hpm_fn, pert)
        assert cmp.period == "B"
        assert cmp.level_after < cmp.level_before
        assert not cmp.compliant

    def test_unknown_id_rejected(self, renoir, npgm_fn):
        with pytest.raises(ValidationError, match="unknown observation id"):
            check_monotonicity(renoir, npgm_fn, Perturbation({"nope": 1.0}))

    def test_negative_increment_rejected(self, renoir, npgm_fn):
        with pytest.raises(ValidationError, match="non-negative"):
            check_monotonicity(renoir, npgm_fn, Perturbation({"1": -1.0}))

    def test_empty_perturbation_rejected(self, renoir, npgm_fn):
        with pytest.raises(ValidationError, match="no increments"):
            check_monotonicity(renoir, npgm_fn, Perturbation({}))

    def test_numpy_increments_are_numbers(self, renoir, hpm_fn):
        want = check_monotonicity(renoir, hpm_fn, Perturbation({"29": 1000.0}))
        for inc in (np.int64(1000), np.float32(1000)):
            assert check_monotonicity(renoir, hpm_fn, Perturbation({"29": inc})) == want

    def test_int_past_the_float_range_is_refused(self, renoir, npgm_fn):
        with pytest.raises(ValidationError, match="non-negative finite number"):
            check_monotonicity(renoir, npgm_fn, Perturbation({"29": 10**400}))
        with pytest.raises(ModelError, match="finite and > 1"):
            search_violations(renoir, npgm_fn, [10**400])

    def test_multi_period_compares_each_non_base_period(self):
        rng = np.random.default_rng(5)
        records = []
        for i in range(12):
            period = ("P0", "P1", "P2")[i // 4]
            records.append(
                SaleObservation(
                    str(i), period,
                    float(rng.lognormal(10.0, 0.5)),
                    float(rng.lognormal(4.0, 0.5)),
                    1.0,
                )
            )
        ds = validate_dataset(records)
        target = ds.observations[5]  # lives in P1
        pert = Perturbation({target.id: target.price})
        comparisons = check_monotonicity(ds, npgm_method("P0"), pert)
        assert [c.period for c in comparisons] == ["P1", "P2"]
        by_period = {c.period: c for c in comparisons}
        assert by_period["P1"].level_after > by_period["P1"].level_before
        # P2 got no increment: its npgm level is untouched and unconstrained
        assert by_period["P2"].level_after == by_period["P2"].level_before
        assert by_period["P2"].compliant


class TestSearchViolations:
    def test_hpm_finds_obs29_at_1_5(self, renoir, hpm_fn):
        report = search_violations(renoir, hpm_fn, [1.5])
        assert report.method == "hpm"
        assert not report.compliant
        assert any(v.description == "obs 29 price x1.5" for v in report.violations)

    def test_hpm_full_grid_hits_obs25_and_obs28(self, renoir, hpm_fn):
        report = search_violations(renoir, hpm_fn, DEFAULT_MULTIPLIER_GRID)
        violating_ids = {next(iter(v.perturbation.increments)) for v in report.violations}
        assert {"25", "28", "29"} <= violating_ids
        assert report.trials == 15 * len(DEFAULT_MULTIPLIER_GRID)

    def test_npgm_never_violates(self, renoir, npgm_fn):
        report = search_violations(renoir, npgm_fn, DEFAULT_MULTIPLIER_GRID)
        assert report.compliant
        assert report.method == "npgm"

    def test_deterministic_re_runs(self, renoir, hpm_fn):
        a = search_violations(renoir, hpm_fn, [1.3, 1.5])
        b = search_violations(renoir, hpm_fn, [1.3, 1.5])
        assert a == b

    def test_violation_order_follows_observations_then_grid(self, renoir, hpm_fn):
        report = search_violations(renoir, hpm_fn, [1.4, 1.6])
        keyed = [
            (int(next(iter(v.perturbation.increments))), v.description)
            for v in report.violations
        ]
        assert keyed == sorted(keyed)

    def test_empty_grid_rejected(self, renoir, npgm_fn):
        with pytest.raises(ModelError, match="must not be empty"):
            search_violations(renoir, npgm_fn, [])

    def test_multiplier_must_exceed_one(self, renoir, npgm_fn):
        with pytest.raises(ModelError, match="> 1"):
            search_violations(renoir, npgm_fn, [0.9])

    def test_numpy_multipliers_are_numbers(self, renoir, hpm_fn):
        want = search_violations(renoir, hpm_fn, [2.0, 3.0])
        assert want.violations
        assert search_violations(renoir, hpm_fn, np.array([2, 3])) == want

    @pytest.mark.parametrize("grid", [[1.0000000001, 2], np.array([1.0000000001, 2.0])])
    def test_descriptions_spell_each_multiplier_with_g(self, renoir, hpm_fn, grid):
        report = search_violations(renoir, hpm_fn, grid)
        assert [v.description for v in report.violations] == [
            f"obs {obs} price x{m}" for obs in ("25", "28", "29") for m in ("1", "2")
        ]


class TestRandomAudit:
    def test_npgm_clean_over_1000_trials(self, renoir, npgm_fn):
        report = random_perturbation_audit(renoir, npgm_fn, trials=1000, seed=7)
        assert report.compliant
        assert report.trials == 1000

    def test_same_seed_same_report(self, renoir, hpm_fn):
        a = random_perturbation_audit(renoir, hpm_fn, trials=40, seed=123)
        b = random_perturbation_audit(renoir, hpm_fn, trials=40, seed=123)
        assert a == b

    def test_different_seeds_differ(self, renoir, hpm_fn):
        a = random_perturbation_audit(renoir, hpm_fn, trials=40, seed=1)
        b = random_perturbation_audit(renoir, hpm_fn, trials=40, seed=2)
        assert a != b

    def test_hpm_violations_reachable(self, renoir, hpm_fn):
        report = random_perturbation_audit(renoir, hpm_fn, trials=1000, seed=7)
        assert len(report.violations) >= 1

    def test_violations_replay_through_check(self, renoir, hpm_fn):
        report = random_perturbation_audit(renoir, hpm_fn, trials=200, seed=7)
        assert report.violations, "expected at least one violation to replay"
        for violation in report.violations[:3]:
            comparisons = check_monotonicity(renoir, hpm_fn, violation.perturbation)
            matching = [c for c in comparisons if c.period == violation.period]
            assert matching and not matching[0].compliant
            assert matching[0].level_after == violation.level_after

    def test_base_period_prices_left_alone(self, renoir, npgm_fn):
        report = random_perturbation_audit(renoir, npgm_fn, trials=5, seed=0)
        base_ids = {o.id for o in renoir.observations if o.period == "A"}
        # perturbations recorded on violations only; audit must be clean here,
        # so probe the draw support directly through a tiny hpm run instead
        assert report.compliant
        hpm_report = random_perturbation_audit(
            renoir, hpm_method(EXAMPLE_SPEC), trials=50, seed=7
        )
        for violation in hpm_report.violations:
            assert not (set(violation.perturbation.increments) & base_ids)

    def test_trials_must_be_positive(self, renoir, npgm_fn):
        with pytest.raises(ModelError, match="trials"):
            random_perturbation_audit(renoir, npgm_fn, trials=0, seed=1)

    @pytest.mark.parametrize("trials", [2.5, True, "3"])
    def test_trials_must_be_an_integer(self, renoir, npgm_fn, trials):
        with pytest.raises(ModelError, match="trials must be a positive integer"):
            random_perturbation_audit(renoir, npgm_fn, trials=trials, seed=7)

    def test_seed_must_not_be_a_bool(self, renoir, npgm_fn):
        with pytest.raises(ModelError, match="seed must be a non-negative integer"):
            random_perturbation_audit(renoir, npgm_fn, trials=5, seed=True)

    def test_numpy_trials_are_reported_as_an_int(self, renoir, hpm_fn):
        report = random_perturbation_audit(renoir, hpm_fn, trials=np.int64(65), seed=3)
        assert type(report.trials) is int
        assert report == random_perturbation_audit(renoir, hpm_fn, trials=65, seed=3)


class TestViolationValues:
    """Violations hold built-in ``str`` and ``float`` values, which the JSON writer encodes column by column."""

    @staticmethod
    def assert_built_in(violations):
        assert violations
        for v in violations:
            assert (type(v.description), type(v.period)) == (str, str)
            assert (type(v.level_before), type(v.level_after)) == (float, float)
            assert {type(k) for k in v.perturbation.increments} == {str}
            assert {type(x) for x in v.perturbation.increments.values()} == {float}

    @pytest.mark.parametrize("grid", [DEFAULT_MULTIPLIER_GRID, np.array([1.5, 2.0]), [np.float32(1.5), 3]])
    def test_grid(self, renoir, hpm_fn, grid):
        self.assert_built_in(search_violations(renoir, hpm_fn, grid).violations)

    def test_random(self, renoir, hpm_fn):
        self.assert_built_in(random_perturbation_audit(renoir, hpm_fn, trials=200, seed=7).violations)

    def test_single(self, renoir, hpm_fn):
        # the single audit of the command line
        pert = Perturbation({"29": float(renoir.price[renoir.row("29")]) * 0.5})
        self.assert_built_in(violations_from("obs 29 price x1.5", check_monotonicity(renoir, hpm_fn, pert), pert))


class TestMelserDiagnostic:
    def test_shifted_copy_of_membership_gives_one(self):
        records = []
        for i in range(6):
            period = "A" if i < 3 else "B"
            flag = 0.0 if i < 3 else 1.0
            records.append(
                SaleObservation(
                    str(i), period, 100.0 + i, 10.0, 1.0, {"flag": flag + 5.0}
                )
            )
        ds = validate_dataset(records)
        assert melser_diagnostic(ds, "flag", "A", "B") == pytest.approx(1.0, abs=1e-12)

    def test_identical_values_across_periods_give_zero(self):
        records = []
        for i, area in enumerate([11.0, 22.0, 33.0]):
            records.append(SaleObservation(f"a{i}", "A", 100.0, area, 1.0))
            records.append(SaleObservation(f"b{i}", "B", 100.0, area, 1.0))
        ds = validate_dataset(records)
        assert melser_diagnostic(ds, "area", "A", "B") == pytest.approx(0.0, abs=1e-12)

    def test_bundled_area_association_positive(self, renoir):
        r = melser_diagnostic(renoir, "area", "A", "B")
        assert r > 0.5

    def test_zero_variance_errors(self):
        records = [
            SaleObservation("1", "A", 100.0, 10.0, 1.0),
            SaleObservation("2", "B", 200.0, 10.0, 1.0),
        ]
        ds = validate_dataset(records)
        with pytest.raises(ModelError, match="zero variance"):
            melser_diagnostic(ds, "area", "A", "B")

    def test_unknown_period(self, renoir):
        with pytest.raises(ModelError, match="'Q' not present"):
            melser_diagnostic(renoir, "area", "A", "Q")

    def test_equal_periods_are_refused(self, renoir):
        with pytest.raises(ModelError, match="periods must differ"):
            melser_diagnostic(renoir, "area", "A", "A")

    def test_significance_needs_more_than_two_observations(self):
        ds = validate_dataset(
            [SaleObservation("1", "A", 100.0, 10.0, 1.0), SaleObservation("2", "B", 200.0, 20.0, 1.0)]
        )
        with pytest.raises(ModelError, match="more than two observations"):
            melser_significance(ds, "area", "A", "B")

    def test_significance_of_a_perfect_separation_errors(self):
        # area is 10 in every A sale and 20 in every B sale: |r| = 1
        ds = validate_dataset(
            [
                SaleObservation(str(i), "AB"[i // 2], 100.0 + i, 10.0 * (1 + i // 2), 1.0)
                for i in range(4)
            ]
        )
        with pytest.raises(ModelError, match="correlation magnitude 1"):
            melser_significance(ds, "area", "A", "B")

    def test_significance_matches_two_sample_ttest(self, renoir):
        r, t, p = melser_significance(renoir, "area", "A", "B")
        areas_a = [o.area for o in renoir.observations if o.period == "A"]
        areas_b = [o.area for o in renoir.observations if o.period == "B"]
        t_ref, p_ref = stats.ttest_ind(areas_b, areas_a, equal_var=True)
        assert t == pytest.approx(t_ref, rel=1e-10)
        assert p == pytest.approx(p_ref, rel=1e-9)
        assert r > 0 and p < 0.05
