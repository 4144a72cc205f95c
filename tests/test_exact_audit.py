"""The exact audits against the refit oracle, and the index weights behind them."""

from __future__ import annotations

import contextlib
import io
import json
import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from artindex import (
    LevelComparison,
    ModelSpec,
    MonotonicityReport,
    Perturbation,
    RankDeficientError,
    SaleObservation,
    check_monotonicity,
    fit,
    hpm_method,
    load_csv,
    npgm_method,
    pinned_log_area_spec,
    random_perturbation_audit,
    search_violations,
    validate_dataset,
)
from artindex import Violation, monotonicity
from artindex.cli import main
from artindex import report as report_module
from artindex.report import Report, monotonicity_report_dict

from conftest import EXAMPLE_SPEC, generated_csv
from refit_oracle import eager_violations, refit_check, refit_random, refit_search

LEVEL_RTOL = 1e-12


@st.composite
def designs(draw):
    """A dataset with 2-6 unequal periods and the hedonic spec to audit it with.

    Area rises with the period so that some sales carry negative hpm
    weight; 0-2 extra characteristics enter the model, and optionally a
    column within 1e-6 relative noise of a linear function of area that
    still passes the rank check.
    """
    n_periods = draw(st.integers(2, 6), label="periods")
    sizes = draw(st.lists(st.integers(2, 8), min_size=n_periods, max_size=n_periods), label="sizes")
    n_extra = draw(st.integers(0, 2), label="extras")
    near_collinear = draw(st.booleans(), label="near_collinear")
    trend = draw(st.floats(0.0, 1.5), label="area_trend")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    base = draw(st.integers(0, n_periods - 1), label="base")

    rng = np.random.default_rng(seed)
    periods = [f"P{q}" for q in range(n_periods)]
    records = []
    for q, size in enumerate(sizes):
        for _ in range(size):
            area = float(np.exp(rng.normal(5.0 + trend * q, 0.8)))
            extras = {f"x{j}": float(rng.normal()) for j in range(n_extra)}
            if near_collinear:
                extras["z"] = 2.0 * area + 1.0 + 1e-6 * area * float(rng.normal())
            with np.errstate(over="ignore"):
                price = float(np.exp(rng.normal(11.0 + 0.0004 * area, 0.6)))
            # a large area can draw a price past the float range, or one whose
            # x1000 grid step (the largest multiplier these tests use) overflows
            assume(math.isfinite(1000.0 * price))
            records.append(
                SaleObservation(
                    id=f"s{len(records)}",
                    period=periods[q],
                    price=price,
                    area=area,
                    aspect_ratio=float(rng.uniform(0.4, 1.6)),
                    extra_characteristics=extras,
                )
            )
    order = rng.permutation(len(records))
    ds = validate_dataset([records[i] for i in order], period_order=periods)
    regressors = ("area", "aspect_ratio") + tuple(f"x{j}" for j in range(n_extra))
    if near_collinear:
        regressors += ("z",)
    spec = ModelSpec(regressors=regressors, reference_period=periods[base])
    assume(len(ds) > len(regressors) + n_periods)
    try:
        fit(ds, spec)
    except RankDeficientError:
        assume(False)
    return ds, spec


def methods(ds, spec):
    return (npgm_method(spec.reference_period), hpm_method(spec))


def assert_same_comparisons(got, want):
    assert [(c.period, c.compliant) for c in got] == [(c.period, c.compliant) for c in want]
    for g, w in zip(got, want):
        assert g.level_before == w.level_before
        assert g.level_after == pytest.approx(w.level_after, rel=LEVEL_RTOL)


def assert_same_report(got, want):
    assert (got.method, got.trials) == (want.method, want.trials)
    key = lambda v: (v.description, v.period, dict(v.perturbation.increments))
    assert [key(v) for v in got.violations] == [key(v) for v in want.violations]
    for g, w in zip(got.violations, want.violations):
        assert g.level_before == w.level_before
        assert g.level_after == pytest.approx(w.level_after, rel=LEVEL_RTOL)


HYPOTHESIS = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])

# trials per block of random draws in the tests that cross block boundaries
STEP = 64


@contextmanager
def draw_step(ds, method, step):
    """Make the random audit of ``ds`` draw ``step`` trials a block."""
    targets = monotonicity._Levels(ds, method).targets
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monotonicity, "_DRAW_BUDGET", 2 * step * len(targets))
        yield


class TestParityWithRefit:
    @given(design=designs(), data=st.data())
    @HYPOTHESIS
    def test_single_matches_refit(self, design, data):
        ds, spec = design
        # any sales may move, base-period ones included
        chosen = data.draw(
            st.lists(st.sampled_from([o.id for o in ds.observations]), min_size=1, unique=True),
            label="perturbed ids",
        )
        pert = Perturbation(
            {
                i: data.draw(st.floats(0.0, 2.0), label=f"increment {i}") * ds.by_id(i).price
                for i in chosen
            }
        )
        for method in methods(ds, spec):
            assert_same_comparisons(
                check_monotonicity(ds, method, pert), refit_check(ds, method, pert)
            )

    @given(design=designs())
    @HYPOTHESIS
    def test_grid_matches_refit(self, design):
        ds, spec = design
        for method in methods(ds, spec):
            assert_same_report(
                search_violations(ds, method, [1.3, 2.5]), refit_search(ds, method, [1.3, 2.5])
            )

    @given(design=designs(), seed=st.integers(0, 2**32 - 1))
    @HYPOTHESIS
    def test_random_matches_refit(self, design, seed):
        ds, spec = design
        trials = STEP + 3
        for method in methods(ds, spec):
            with draw_step(ds, method, STEP):
                report = random_perturbation_audit(ds, method, trials, seed)
            assert_same_report(report, refit_random(ds, method, trials, seed))

    def test_bundled_random_audit_matches_refit(self, renoir):
        # several blocks of draws, with violations to compare draw for draw
        trials = 3 * STEP + 7
        method = hpm_method(EXAMPLE_SPEC)
        with draw_step(renoir, method, STEP):
            report = random_perturbation_audit(renoir, method, trials, 7)
        assert report.violations
        assert_same_report(report, refit_random(renoir, method, trials, 7))

    def test_bundled_grid_matches_refit(self, renoir):
        for method in (npgm_method("A"), hpm_method(EXAMPLE_SPEC)):
            assert_same_report(
                search_violations(renoir, method),
                refit_search(renoir, method, monotonicity.DEFAULT_MULTIPLIER_GRID),
            )


def exact_comparisons(levels, increments, perturbed):
    """Every non-base level after adding ``increments`` (dataset order) to the prices, as defined.

    A level after is ``level_before * exp(W @ (log(p + inc) - log p))``,
    one matvec over all sales. A period is compliant unless it is in
    ``perturbed`` and its level fell by more than the relative slack.
    """
    ds, before = levels._ds, levels.before
    log_change = np.log(ds.price + increments) - levels._log_prices
    after = levels._level_before * np.exp(levels._weights @ log_change)
    comparisons = []
    for period, level_after in zip(ds.periods, after.tolist()):
        if period == before.base_period:
            continue
        level_before = before.levels[period]
        dropped = (level_before - level_after) > monotonicity.RELATIVE_SLACK * level_before
        comparisons.append(
            LevelComparison(period, level_before, level_after, period not in perturbed or not dropped)
        )
    return tuple(comparisons)


def judge_every_grid_perturbation(ds, method, grid):
    """The grid audit with no screen: :func:`exact_comparisons` of every perturbation."""
    levels = monotonicity._Levels(ds, method)
    violations = []
    trials = 0
    for i, obs in enumerate(ds.observations):
        if obs.period == levels.before.base_period:
            continue
        for m in grid:
            trials += 1
            increments = np.zeros(len(ds))
            increments[i] = obs.price * (m - 1.0)
            pert = Perturbation({obs.id: increments[i].item()})
            comparisons = exact_comparisons(levels, increments, {obs.period})
            violations += eager_violations(f"obs {obs.id} price x{m:g}", comparisons, pert)
    return MonotonicityReport(levels.before.method, trials, tuple(violations))


def judge_every_random_perturbation(ds, method, trials, seed):
    """The random audit with no screen, drawing coins then magnitudes trial by trial."""
    rng = np.random.default_rng(seed)
    levels = monotonicity._Levels(ds, method)
    targets = [o for o in ds.observations if o.period != levels.before.base_period]
    prices = np.array([o.price for o in targets])
    violations = []
    for trial in range(trials):
        coins, magnitudes = rng.random(len(targets)), rng.random(len(targets))
        raised = np.where(coins < 0.5, 0.0, magnitudes * prices)
        increments = np.zeros(len(ds))
        increments[[ds.row(o.id) for o in targets]] = raised
        pert = Perturbation({o.id: inc for o, inc in zip(targets, raised.tolist())})
        perturbed = {o.period for o, inc in zip(targets, raised) if inc > 0}
        comparisons = exact_comparisons(levels, increments, perturbed)
        violations += eager_violations(f"trial {trial}", comparisons, pert)
    return MonotonicityReport(levels.before.method, trials, tuple(violations))


def assert_identical_reports(got, want):
    assert got == want
    assert [v.level_after.hex() for v in got.violations] == [
        v.level_after.hex() for v in want.violations
    ]


def count_judged(monkeypatch):
    """The number of trials in each block that the exact judge receives."""
    calls = []
    after = monotonicity._Levels.after

    def counting_after(self, rows, block):
        calls.append(len(block))
        return after(self, rows, block)

    monkeypatch.setattr(monotonicity._Levels, "after", counting_after)
    return calls


# a price step of an ulp or two, which log barely resolves, and a 1e-10
# step, which moves a level by about the relative slack
NEAR_ONE = (1.0 + 2.0**-52, 1.0000000001)


class TestScreen:
    """The grid and the screened random audit against judging every perturbation exactly."""

    @given(design=designs())
    @HYPOTHESIS
    def test_grid_equals_judging_every_perturbation(self, design):
        ds, spec = design
        for method in (*methods(ds, spec), hpm_method(pinned_log_area_spec(spec.reference_period))):
            for grid in ([1.3, 2.5, 1000.0], NEAR_ONE):
                assert_identical_reports(
                    search_violations(ds, method, grid), judge_every_grid_perturbation(ds, method, grid)
                )

    @given(design=designs(), seed=st.integers(0, 2**32 - 1))
    @HYPOTHESIS
    def test_random_equals_judging_every_perturbation(self, design, seed):
        ds, spec = design
        trials = STEP + 3
        for method in (*methods(ds, spec), hpm_method(pinned_log_area_spec(spec.reference_period))):
            with draw_step(ds, method, STEP):
                report = random_perturbation_audit(ds, method, trials, seed)
            assert_identical_reports(report, judge_every_random_perturbation(ds, method, trials, seed))

    def test_steps_below_the_rounding_margin_are_all_judged(self, renoir):
        # log(p * (1 + 2**-48)) - log p is a few ulps of log p: positive, but
        # within rounding of zero, so only an exact level can tell whether it
        # falls; the grid screens nothing and computes each such level exactly
        grid = [1.0 + 2.0**-52, 1.0 + 2.0**-48]
        for method in (npgm_method("A"), hpm_method(EXAMPLE_SPEC)):
            report = search_violations(renoir, method, grid)
            assert report.trials == 30
            assert_identical_reports(report, judge_every_grid_perturbation(renoir, method, grid))

    def test_near_one_multiplier_finds_the_negative_weights(self, renoir):
        report = search_violations(renoir, hpm_method(EXAMPLE_SPEC), [1.0000000001])
        assert {v.description for v in report.violations} == {
            f"obs {i} price x1" for i in ("25", "28", "29")
        }
        assert_identical_reports(
            report, judge_every_grid_perturbation(renoir, hpm_method(EXAMPLE_SPEC), [1.0000000001])
        )

    def test_grid_is_exact_at_blas_sizes(self, tmp_path):
        # 1,500 sales take BLAS's blocked and SIMD matvec paths in W @ x,
        # which the small generated designs never reach
        path = generated_csv(tmp_path / "sales.csv", n_sales=1500, n_periods=6, area_trend=1.0)
        ds = load_csv(path)
        grid = [1.0000000001, 2.0, 1000.0]
        hpm = hpm_method(ModelSpec(regressors=("area", "aspect_ratio"), reference_period="A"))
        for method in (npgm_method("A"), hpm):
            report = search_violations(ds, method, grid)
            assert_identical_reports(report, judge_every_grid_perturbation(ds, method, grid))
            assert_violations_replay(ds, method, report)
        # own-period negative hpm weights give violations to replay
        assert report.violations

    @pytest.mark.parametrize("scale", [1.0, 1e250, 1e-250])
    def test_rounding_margin_bounds_the_bundled_scores(self, renoir, scale):
        # at 1e250 and 1e-250, |log p| is about 575 and the 2 |log p| + 1
        # term of the margin dominates
        ds = replace(renoir, price=renoir.price * scale)
        assert_margin_bounds_the_scores(ds, EXAMPLE_SPEC)

    def test_rounding_margin_bounds_the_scores_at_blas_sizes(self, tmp_path):
        path = generated_csv(tmp_path / "sales.csv", n_sales=1500, n_periods=6, area_trend=1.0)
        assert_margin_bounds_the_scores(
            load_csv(path), ModelSpec(regressors=("area", "aspect_ratio"), reference_period="A")
        )

    @pytest.mark.parametrize("scale", [1e250, 1e-250])
    def test_random_is_exact_at_extreme_prices(self, renoir, scale):
        ds = replace(renoir, price=renoir.price * scale)
        for method in (npgm_method("A"), hpm_method(EXAMPLE_SPEC)):
            with draw_step(ds, method, STEP):
                report = random_perturbation_audit(ds, method, 200, 7)
            assert_identical_reports(report, judge_every_random_perturbation(ds, method, 200, 7))
        # the hpm audit, the last one, finds violations
        assert report.violations

    def test_pinned_log_area_hpm_is_compliant_like_npgm(self, renoir):
        # its weights equal npgm's up to float noise, which must flag no level
        pinned, npgm = hpm_method(pinned_log_area_spec("A")), npgm_method("A")
        for audit in (
            lambda method: search_violations(renoir, method, (*NEAR_ONE, 2.0)),
            lambda method: random_perturbation_audit(renoir, method, 500, 7),
        ):
            got, want = audit(pinned), audit(npgm)
            assert got.compliant and want.compliant and got.trials == want.trials

    def test_compliant_bundled_audits_judge_nothing(self, renoir, monkeypatch):
        calls = count_judged(monkeypatch)
        method = npgm_method("A")
        assert search_violations(renoir, method).compliant
        assert random_perturbation_audit(renoir, method, 1000, 7).compliant
        assert calls == []

    def test_bundled_hpm_random_audit_judges_only_violating_trials(self, renoir, monkeypatch):
        # the margin flags no trial that does not violate, and the one block
        # of 1,000 trials hands all the flagged ones to the judge at once
        calls = count_judged(monkeypatch)
        report = random_perturbation_audit(renoir, hpm_method(EXAMPLE_SPEC), 1000, 7)
        assert report.violations
        assert calls == [len({v.description for v in report.violations})]

    def test_random_is_exact_at_blas_sizes(self, tmp_path):
        # 1,500 sales take BLAS's blocked and SIMD matvec paths in the judge
        path = generated_csv(tmp_path / "sales.csv", n_sales=1500, n_periods=6, area_trend=1.0)
        ds = load_csv(path)
        hpm = hpm_method(ModelSpec(regressors=("area", "aspect_ratio"), reference_period="A"))
        trials = 3 * STEP + 7
        for method in (npgm_method("A"), hpm):
            with draw_step(ds, method, STEP):
                report = random_perturbation_audit(ds, method, trials, 7)
            assert_identical_reports(report, judge_every_random_perturbation(ds, method, trials, 7))
            assert_violations_replay(ds, method, report)
            assert_judge_is_exact(ds, method)


def assert_margin_bounds_the_scores(ds, spec, blocks=3):
    """The random audit's score of each trial and period is within its margin of the exact sum.

    Draws ``blocks`` blocks of ``STEP`` trials for npgm and for hpm with
    ``spec``, scores them as the audit does, and fails a zero margin: some
    scores differ from ``W @ x`` summed over all sales in one matvec.
    """
    differ = False
    for method in methods(ds, spec):
        levels = monotonicity._Levels(ds, method)
        targets = levels.targets
        prices, log_prices = ds.price[targets], levels._log_prices[targets]
        weights = levels._weights[:, targets].T
        margin = monotonicity._rounding_margin(len(ds), log_prices, weights)
        rng = np.random.default_rng(7)
        for _ in range(blocks):
            draws = rng.random((STEP, 2, len(targets)))
            block = draws[:, 1] * prices
            block *= draws[:, 0] >= 0.5
            score = (np.log(prices + block) - log_prices) @ weights
            for k in range(STEP):
                increments = np.zeros(len(ds))
                increments[targets] = block[k]
                summed = levels._weights @ (np.log(ds.price + increments) - levels._log_prices)
                gap = np.abs(score[k] - summed)
                assert (gap <= margin).all()
                differ |= bool(gap.any())
    assert differ


def assert_judge_is_exact(ds, method, trials=8):
    """The exact judge on a block of trials gives :func:`exact_comparisons`'s levels bit for bit.

    Even trials raise only sales of negative own-period weight, so their
    levels fall whenever such a sale exists, however rare a random
    violation is; odd trials raise every audited sale.
    """
    levels = monotonicity._Levels(ds, method)
    targets = levels.targets
    own = ds.period_codes[targets]
    negative = levels._weights[own, targets] < 0
    rng = np.random.default_rng(5)
    block = rng.random((trials, len(targets))) * ds.price[targets]
    block[::2] *= negative
    after = levels.after(targets, block)
    fell = levels.fell(after)
    periods = [q for q, p in enumerate(ds.periods) if p != levels.before.base_period]
    dropped = False
    for k in range(trials):
        increments = np.zeros(len(ds))
        increments[targets] = block[k]
        raised = set(own[block[k] > 0].tolist())
        want = exact_comparisons(levels, increments, {ds.periods[q] for q in raised})
        assert [(after[k, q].hex(), q not in raised or not fell[k, q]) for q in periods] == [
            (c.level_after.hex(), c.compliant) for c in want
        ]
        dropped |= not all(c.compliant for c in want)
    assert dropped == negative.any()


def assert_violations_replay(ds, method, report):
    """Each violation, replayed through :func:`check_monotonicity`, with the same levels bit for bit."""
    for v in report.violations:
        replayed = {c.period: c for c in check_monotonicity(ds, method, v.perturbation)}[v.period]
        assert not replayed.compliant
        assert (replayed.level_before.hex(), replayed.level_after.hex()) == (
            v.level_before.hex(),
            v.level_after.hex(),
        )


class TestReplay:
    """Audit violations replay exactly: the audits and the replay share one judge."""

    @given(design=designs(), seed=st.integers(0, 2**32 - 1))
    @HYPOTHESIS
    def test_generated_violations_replay(self, design, seed):
        ds, spec = design
        for method in methods(ds, spec):
            for grid in ([1.3, 2.5, 1000.0], NEAR_ONE):
                assert_violations_replay(ds, method, search_violations(ds, method, grid))
            with draw_step(ds, method, STEP):
                report = random_perturbation_audit(ds, method, STEP + 3, seed)
            assert_violations_replay(ds, method, report)

    def test_bundled_violations_replay(self, renoir):
        reports = []
        for method in (npgm_method("A"), hpm_method(EXAMPLE_SPEC)):
            reports += [
                (method, search_violations(renoir, method)),
                (method, search_violations(renoir, method, [1.0000000001, 2.0, 1000.0])),
                (method, random_perturbation_audit(renoir, method, 1000, 7)),
                (method, random_perturbation_audit(renoir, method, 65, 3)),
            ]
        for method, report in reports:
            assert_violations_replay(renoir, method, report)
        # the hpm audits (the last four) all find violations to replay
        assert all(report.violations for _, report in reports[4:])


class TestWeights:
    @given(design=designs())
    @HYPOTHESIS
    def test_pinned_hpm_weights_are_npgm_weights(self, design):
        ds, spec = design
        base = spec.reference_period
        np.testing.assert_allclose(
            hpm_method(pinned_log_area_spec(base)).weights(ds),
            npgm_method(base).weights(ds),
            rtol=0.0,
            atol=1e-12,
        )

    @given(design=designs())
    @HYPOTHESIS
    def test_shape_and_base_row(self, design):
        ds, spec = design
        for method in methods(ds, spec):
            w = method.weights(ds)
            assert w.shape == (len(ds.periods), len(ds))
            assert not w[ds.periods.index(spec.reference_period)].any()

    def test_npgm_weights_touch_two_periods_per_row(self):
        records = [
            SaleObservation(f"{p}{i}", p, 100.0 + i, 10.0, 1.0)
            for p, n in (("A", 2), ("B", 3), ("C", 4))
            for i in range(n)
        ]
        ds = validate_dataset(records)
        w = npgm_method("B").weights(ds)
        period = np.array([o.period for o in ds.observations])
        expected = np.zeros((3, len(ds)))
        expected[0, period == "A"] = 1 / 2
        expected[0, period == "B"] = -1 / 3
        expected[2, period == "C"] = 1 / 4
        expected[2, period == "B"] = -1 / 3
        assert np.array_equal(w, expected)

    def test_negative_hpm_weights_are_the_bundled_violators(self, renoir):
        w = hpm_method(EXAMPLE_SPEC).weights(renoir)
        negative = {o.id for o, wi in zip(renoir.observations, w[1]) if o.period == "B" and wi < 0}
        assert negative == {"25", "28", "29"}


def count_qr(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counting_qr(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    return calls


class TestCost:
    def test_hpm_audit_factorizations_do_not_grow_with_trials(self, renoir, monkeypatch):
        calls = count_qr(monkeypatch)
        method = hpm_method(EXAMPLE_SPEC)
        counts = []
        for trials in (5, 500):
            calls.clear()
            random_perturbation_audit(renoir, method, trials, 7)
            counts.append(len(calls))
        calls.clear()
        search_violations(renoir, method)
        counts.append(len(calls))
        calls.clear()
        check_monotonicity(renoir, method, Perturbation({"29": 1.0}))
        counts.append(len(calls))
        assert counts == [1, 1, 1, 1]

    @pytest.mark.parametrize("step", [1, 5, 10_000])
    def test_draw_block_does_not_change_the_audit(self, renoir, step):
        method = hpm_method(EXAMPLE_SPEC)
        default = random_perturbation_audit(renoir, method, 150, 3)
        assert default.violations
        with draw_step(renoir, method, step):
            assert random_perturbation_audit(renoir, method, 150, 3) == default

    def test_draw_blocks_hold_at_most_the_budget(self, renoir, monkeypatch):
        blocks = []
        check_raised = monotonicity._check_raised

        def recording_check_raised(ds, rows, increments, *args):
            blocks.append(increments.shape)
            return check_raised(ds, rows, increments, *args)

        monkeypatch.setattr(monotonicity, "_check_raised", recording_check_raised)
        method = hpm_method(EXAMPLE_SPEC)
        random_perturbation_audit(renoir, method, 1000, 7)
        assert blocks == [(1000, 15)]
        blocks.clear()
        with draw_step(renoir, method, STEP):
            random_perturbation_audit(renoir, method, 3 * STEP + 7, 7)
        assert blocks == [(STEP, 15)] * 3 + [(7, 15)]
        blocks.clear()
        monkeypatch.setattr(monotonicity, "_DRAW_BUDGET", 2 * 15 * 7 - 1)
        random_perturbation_audit(renoir, method, 20, 7)
        assert blocks == [(6, 15)] * 3 + [(2, 15)]


class TestRankDeficiency:
    def test_audits_raise_what_fit_raises(self, renoir):
        ds = validate_dataset(
            [replace(o, extra_characteristics={"z": 2.0 * o.area}) for o in renoir.observations]
        )
        spec = ModelSpec(regressors=("area", "aspect_ratio", "z"), reference_period="A")
        with pytest.raises(RankDeficientError) as from_fit:
            fit(ds, spec)
        method = hpm_method(spec)
        audits = (
            lambda: check_monotonicity(ds, method, Perturbation({"29": 1.0})),
            lambda: search_violations(ds, method),
            lambda: random_perturbation_audit(ds, method, 10, 1),
            lambda: method.weights(ds),
        )
        for audit in audits:
            with pytest.raises(RankDeficientError) as from_audit:
                audit()
            assert str(from_audit.value) == str(from_fit.value)
            assert from_audit.value.column == from_fit.value.column


def report_json(report):
    return Report("monotonicity", {}, monotonicity_report_dict(report)).to_json()


def assert_equal_both_ways(got, want):
    assert got == want and want == got
    assert not (got != want or want != got)


@contextmanager
def count_violations():
    """The arguments of each :class:`Violation` built while the context is open."""
    built = []
    violation = monotonicity.Violation

    def counting(*args):
        built.append(args)
        return violation(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monotonicity, "Violation", counting)
        yield built


class TestLazyViolations:
    """Violations kept as columns against the tuples the oracles build, and the JSON they write."""

    @given(design=designs(), seed=st.integers(0, 2**32 - 1), data=st.data())
    @HYPOTHESIS
    def test_violations_equal_the_eager_tuples(self, design, seed, data):
        ds, spec = design
        obs = data.draw(st.sampled_from(ds.observations), label="single obs")
        pert = Perturbation({obs.id: 1.5 * obs.price})
        for method in methods(ds, spec):
            with draw_step(ds, method, STEP):
                random = random_perturbation_audit(ds, method, STEP + 3, seed)
            comparisons = check_monotonicity(ds, method, pert)
            audits = [
                (search_violations(ds, method, [1.3, 2.5]), judge_every_grid_perturbation(ds, method, [1.3, 2.5])),
                (random, judge_every_random_perturbation(ds, method, STEP + 3, seed)),
                (
                    MonotonicityReport(random.method, 1, monotonicity.violations_from("single", comparisons, pert)),
                    MonotonicityReport(random.method, 1, tuple(eager_violations("single", comparisons, pert))),
                ),
            ]
            for got, want in audits:
                assert isinstance(want.violations, tuple)
                assert_equal_both_ways(got.violations, want.violations)
                assert_equal_both_ways(got, want)
                assert report_json(got) == report_json(want)
                # the columns write what json.dumps writes for one dict per violation
                records = [
                    {
                        "description": v.description,
                        "period": v.period,
                        "level_before": v.level_before,
                        "level_after": v.level_after,
                        "perturbation": dict(v.perturbation.increments),
                    }
                    for v in want.violations
                ]
                assert json.loads(report_json(got))["body"]["violations"] == records
                assert report_json(got) == json.dumps(json.loads(report_json(want)), indent=2)

    def test_sequence_protocol(self, renoir):
        method = hpm_method(EXAMPLE_SPEC)
        grid = monotonicity.DEFAULT_MULTIPLIER_GRID
        for got, want in (
            (search_violations(renoir, method).violations, judge_every_grid_perturbation(renoir, method, grid).violations),
            (
                random_perturbation_audit(renoir, method, 1000, 7).violations,
                judge_every_random_perturbation(renoir, method, 1000, 7).violations,
            ),
        ):
            assert len(got) == len(want) > 3 and bool(got)
            assert (got[0], got[-1], got[1]) == (want[0], want[-1], want[1])
            assert_equal_both_ways(got[:3], want[:3])
            assert tuple(got) == want and list(got) == list(want)
            # built once, on first use
            assert got[2] is got[2] and next(iter(got)) is got[0]
        npgm = search_violations(renoir, npgm_method("A")).violations
        assert len(npgm) == 0 and not npgm and npgm == () and list(npgm) == []

    def test_compliance_and_json_build_no_violation(self, renoir, capsys):
        method = hpm_method(EXAMPLE_SPEC)
        pert = Perturbation({"29": 10.0})
        with count_violations() as built:
            reports = [
                search_violations(renoir, method),
                random_perturbation_audit(renoir, method, 1000, 7),
                MonotonicityReport("hpm", 1, monotonicity.violations_from(
                    "single", check_monotonicity(renoir, method, pert), pert
                )),
            ]
            assert not any(report.compliant for report in reports)
            for report in reports:
                report_json(report)
            for mode in (["--mode", "grid"], ["--mode", "random", "--trials", "1000", "--seed", "7"], ["--obs", "29"]):
                assert main(["monotonicity", "--method", "hpm", *mode, "--format", "json"]) == 4
            assert built == []
            # the count sees the violations that are built
            assert len(list(reports[0].violations)) == len(built) == 60
        capsys.readouterr()

    @pytest.mark.parametrize("c_encoder", [True, False])
    def test_hand_built_report_writes_the_audits_json(self, renoir, monkeypatch, c_encoder):
        if not c_encoder:
            monkeypatch.setattr(report_module, "c_make_encoder", None)
        method = hpm_method(EXAMPLE_SPEC)
        pert = Perturbation({"29": 10.0})
        for report in (
            search_violations(renoir, method),
            random_perturbation_audit(renoir, method, 1000, 7),
            MonotonicityReport("hpm", 1, monotonicity.violations_from(
                "single", check_monotonicity(renoir, method, pert), pert
            )),
            search_violations(renoir, npgm_method("A")),
        ):
            by_hand = MonotonicityReport(report.method, report.trials, tuple(report.violations))
            assert report_json(by_hand) == report_json(report) == json.dumps(json.loads(report_json(report)), indent=2)
            with_melser = replace(report, melser_statistic=0.25)
            assert with_melser.violations is report.violations
            assert report_json(replace(by_hand, melser_statistic=0.25)) == report_json(with_melser)
        # numpy levels and integer increments are written as floats, as before
        v = search_violations(renoir, method).violations[0]
        numpy_typed = Violation(v.description, v.period, np.float64(v.level_before), np.float64(v.level_after),
                                Perturbation({k: int(x) for k, x in v.perturbation.increments.items()}))
        floats = Violation(v.description, v.period, v.level_before, v.level_after,
                           Perturbation({k: float(int(x)) for k, x in v.perturbation.increments.items()}))
        assert report_json(MonotonicityReport("hpm", 1, (numpy_typed,))) == report_json(
            MonotonicityReport("hpm", 1, (floats,))
        )
