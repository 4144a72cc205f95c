"""End-to-end harness for the bundled Renoir 1989-1990 example.

Recomputes every published artifact of the bundled example — the
unitary-price column, the two hedonic fits (A against B, and A against
C where C is B with observation 29's price raised by half, built by
:func:`perturbed_dataset`), both index series, the decomposition
identity, the constrained-model equivalence, the monotonicity sweeps,
and the area/period association — and checks each against the reference
values stored here, at the shipped tolerances. The checks are one record
list (name, passed, detail), built as the harness runs.
:func:`write_replication_outputs` is the one entry point: it runs the
harness once and writes what that run computed. The two fits are the
only ones it runs: the hpm levels, the fit tables and both sides of the
decomposition identity are read off them. One known borderline cell
exists: the A/C aspect-ratio p-value computed from this dataset differs
from its reference by 0.00052, just over the 0.0005 band, because the
stored ratios are rounded to three decimals. The harness reports it
honestly as a FAIL.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Callable

from ._record import record
from .csvio import load_bundled_dataset
from .domain import Dataset
from .errors import ArtindexError
from .indexes import (
    hpm_index_from_result,
    hpm_method,
    npgm_index,
    npgm_method,
    _decomposition,
    hpm_timedummy_index,
    pinned_log_area_spec,
)
from .monotonicity import (
    DEFAULT_MULTIPLIER_GRID,
    melser_significance,
    random_perturbation_audit,
    search_violations,
)
from .regression import ModelSpec, RegressionResult, fit
from .report import _Records, render_index_plot_data

EXAMPLE_SPEC = ModelSpec(reference_period="A", regressors=("area", "aspect_ratio"))

PERTURBED_OBSERVATION = "29"
PERTURBED_MULTIPLIER = 1.5
RANDOM_AUDIT_TRIALS = 1000
RANDOM_AUDIT_SEED = 7

# printed unitary prices (USD/cm^2) of the bundled dataset, by observation id
REFERENCE_UNIT_PRICES = {
    "1": 1412.16, "2": 576.52, "3": 655.55, "4": 452.93, "5": 347.14,
    "6": 601.37, "7": 2094.49, "8": 924.07, "9": 1306.24, "10": 286.54,
    "11": 1378.55, "12": 1276.46, "13": 1768.65, "14": 2435.11,
    "15": 358.82, "16": 1237.41, "17": 591.26, "18": 795.28, "19": 1636.24,
    "20": 644.87, "21": 4302.84, "22": 946.38, "23": 2788.21, "24": 1752.74,
    "25": 505.84, "26": 2564.44, "27": 3258.22, "28": 3628.84, "29": 16513.89,
}

# reference fit statistics: term -> (coefficient, std error, t stat, p-value)
REFERENCE_FIT_AB = {
    "intercept": (11.619049, 0.7046, 16.49, 6.053e-15),
    "area": (0.000411, 9.3484e-05, 4.39, 0.00018),
    "aspect_ratio": (1.051534, 0.6297, 1.67, 0.10740),
    "dummy": (1.068575, 0.4522, 2.36, 0.02622),
}
REFERENCE_FIT_AC = {
    "intercept": (11.624505, 0.7321, 15.88, 1.44e-14),
    "area": (0.000429, 9.71e-05, 4.42, 0.00017),
    "aspect_ratio": (1.034313, 0.6543, 1.58, 0.12647),
    "dummy": (1.038821, 0.4699, 2.21, 0.03642),
}

UNIT_PRICE_ABS_TOL = 0.005
COEFFICIENT_ABS_TOL = 0.002
AREA_COEFFICIENT_ABS_TOL = 5e-6
STD_ERROR_REL_TOL = 0.01
T_STAT_ABS_TOL = 0.02
P_VALUE_ABS_TOL = 0.0005
R_SQUARED_MIN = 0.70
HPM_LEVEL_ABS_TOL = 0.5
IDENTITY_REL_TOL = 1e-8
EQUIVALENCE_REL_TOL = 1e-8
MELSER_P_MAX = 0.05


@record
class ReplicationSummary:
    """The checks, one record each: ``name``, ``passed`` and ``detail`` columns."""

    checks: _Records

    @property
    def passed(self) -> bool:
        return all(self.checks.columns[1])

    def lines(self) -> list[str]:
        names, passed, details = self.checks.columns
        lines = [
            f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
            for name, ok, detail in zip(names, passed, details)
        ]
        lines.append(f"overall: {sum(passed)}/{len(names)} checks passed")
        return lines


def perturbed_dataset(ds: Dataset) -> Dataset:
    """Dataset A|C: B with observation 29's price raised by half, relabeled C."""
    price = ds.price.copy()
    row = ds.row(PERTURBED_OBSERVATION)
    # raised by an increment, as the audits raise a price
    price[row] += price[row] * (PERTURBED_MULTIPLIER - 1.0)
    return ds.replace(price=price, periods=tuple("C" if p == "B" else p for p in ds.periods))


def _check_fit(
    check: Callable[[str, bool, str], None],
    label: str,
    result: RegressionResult,
    reference: dict,
    dummy_column: str,
) -> None:
    # reference tuples hold coefficient, std error, t stat and p-value;
    # every gap is absolute except the standard errors' relative one
    stats = (
        ("coefficients", result.coefficients, None),
        ("standard_errors", result.standard_errors, STD_ERROR_REL_TOL),
        ("t_statistics", result.t_statistics, T_STAT_ABS_TOL),
        ("p_values", result.p_values, P_VALUE_ABS_TOL),
    )
    for idx, (stat_name, values, tol) in enumerate(stats):
        bad = []
        for term, refs in reference.items():
            j = result.column_names.index(dummy_column if term == "dummy" else term)
            got, ref = float(values[j]), refs[idx]
            gap = abs(got - ref) / ref if stat_name == "standard_errors" else abs(got - ref)
            term_tol = tol or (AREA_COEFFICIENT_ABS_TOL if term == "area" else COEFFICIENT_ABS_TOL)
            if gap > term_tol:
                bad.append(
                    f"{term} {got:.6g} vs reference {ref:.6g} (gap {gap:.3g} > {term_tol:.3g})"
                )
        detail = "; ".join(bad) or "all terms within tolerance"
        check(f"{label}_{stat_name}", not bad, detail)
    detail = f"R^2 = {result.r_squared:.4f} (required > {R_SQUARED_MIN})"
    check(f"{label}_r_squared", result.r_squared > R_SQUARED_MIN, detail)


def _replicate(
    ds_ab: Dataset,
) -> tuple[ReplicationSummary, dict[str, RegressionResult], dict[str, dict[str, float]]]:
    """The checks, plus the fits and levels the output files hold, keyed by file name."""
    ds_ac = perturbed_dataset(ds_ab)
    names, passes, details = columns = [], [], []

    def check(name: str, passed: bool, detail: str) -> None:
        names.append(name)
        passes.append(passed)
        details.append(detail)

    # unitary prices against the printed column
    worst_gap = 0.0
    worst_id = ""
    for obs_id, unit_price in zip(ds_ab.ids, (ds_ab.price / ds_ab.area).tolist()):
        gap = abs(unit_price - REFERENCE_UNIT_PRICES[obs_id])
        if gap > worst_gap:
            worst_gap, worst_id = gap, obs_id
    check(
        "unit_prices",
        worst_gap <= UNIT_PRICE_ABS_TOL,
        f"worst gap {worst_gap:.6f} at obs {worst_id} (tolerance {UNIT_PRICE_ABS_TOL})",
    )

    # the two hedonic fits
    result_ab = fit(ds_ab, EXAMPLE_SPEC)
    result_ac = fit(ds_ac, EXAMPLE_SPEC)
    _check_fit(check, "fit_ab", result_ab, REFERENCE_FIT_AB, "dummy_B")
    _check_fit(check, "fit_ac", result_ac, REFERENCE_FIT_AC, "dummy_C")

    # index levels and orderings
    npgm_ab = npgm_index(ds_ab, "A")
    npgm_ac = npgm_index(ds_ac, "A")
    hpm_ab = hpm_index_from_result(result_ab, ds_ab, EXAMPLE_SPEC)
    hpm_ac = hpm_index_from_result(result_ac, ds_ac, EXAMPLE_SPEC)
    i_ba_npgm, i_ca_npgm = npgm_ab.level("B"), npgm_ac.level("C")
    i_ba_hpm, i_ca_hpm = hpm_ab.level("B"), hpm_ac.level("C")
    check(
        "npgm_ordering",
        i_ca_npgm > i_ba_npgm,
        f"I_CA {i_ca_npgm:.4f} vs I_BA {i_ba_npgm:.4f} (must rise)",
    )
    check(
        "hpm_ordering",
        i_ca_hpm < i_ba_hpm,
        f"I_CA {i_ca_hpm:.4f} vs I_BA {i_ba_hpm:.4f} (drops despite the price rise)",
    )
    ref_ba = 100.0 * math.exp(REFERENCE_FIT_AB["dummy"][0])
    ref_ca = 100.0 * math.exp(REFERENCE_FIT_AC["dummy"][0])
    gaps = (abs(i_ba_hpm - ref_ba), abs(i_ca_hpm - ref_ca))
    check(
        "hpm_levels",
        max(gaps) <= HPM_LEVEL_ABS_TOL,
        f"I_BA {i_ba_hpm:.4f} vs {ref_ba:.4f}, I_CA {i_ca_hpm:.4f} vs "
        f"{ref_ca:.4f} (tolerance {HPM_LEVEL_ABS_TOL})",
    )

    # decomposition identity, read off the same two fits
    gap_ab = _decomposition(result_ab, ds_ab, EXAMPLE_SPEC, "B").identity_gap
    gap_ac = _decomposition(result_ac, ds_ac, EXAMPLE_SPEC, "C").identity_gap
    check(
        "decomposition_identity",
        max(gap_ab, gap_ac) <= IDENTITY_REL_TOL,
        f"relative gaps {gap_ab:.3g} (A/B) and {gap_ac:.3g} (A/C), tolerance {IDENTITY_REL_TOL}",
    )

    # pinned log-area model reproduces the npgm index
    worst_eq = 0.0
    for ds, npgm_series in ((ds_ab, npgm_ab), (ds_ac, npgm_ac)):
        constrained = hpm_timedummy_index(ds, pinned_log_area_spec("A"))
        for period, level in npgm_series.levels.items():
            worst_eq = max(worst_eq, abs(constrained.level(period) - level) / level)
    check(
        "constrained_equivalence",
        worst_eq <= EQUIVALENCE_REL_TOL,
        f"worst relative gap {worst_eq:.3g} (tolerance {EQUIVALENCE_REL_TOL})",
    )

    # monotonicity: npgm must be clean under both audits
    npgm_fn = npgm_method("A")
    sweep = search_violations(ds_ab, npgm_fn, DEFAULT_MULTIPLIER_GRID)
    check(
        "npgm_grid_compliant",
        sweep.compliant,
        f"{len(sweep.violations)} violations in {sweep.trials} sweep trials",
    )
    audit = random_perturbation_audit(ds_ab, npgm_fn, RANDOM_AUDIT_TRIALS, RANDOM_AUDIT_SEED)
    check(
        "npgm_random_audit_compliant",
        audit.compliant,
        f"{len(audit.violations)} violations in {audit.trials} random trials "
        f"(seed {RANDOM_AUDIT_SEED})",
    )

    # monotonicity: the time-dummy index must violate at the known spots
    hpm_sweep = search_violations(ds_ab, hpm_method(EXAMPLE_SPEC), DEFAULT_MULTIPLIER_GRID)
    descriptions, _, _, _, increments = hpm_sweep.violations.columns
    violating_ids = {next(iter(inc)) for inc in increments}
    hit = f"obs {PERTURBED_OBSERVATION} price x{PERTURBED_MULTIPLIER:g}" in descriptions
    check(
        "hpm_obs29_violation",
        hit,
        f"obs {PERTURBED_OBSERVATION} at x{PERTURBED_MULTIPLIER:g} "
        + ("violates" if hit else "does not violate"),
    )
    check(
        "hpm_obs25_obs28_violations",
        {"25", "28"} <= violating_ids,
        f"violating observations found: {sorted(violating_ids, key=int)}",
    )

    # area/period association (the precondition for time-dummy violations)
    r, t, p = melser_significance(ds_ab, "area", "A", "B")
    check(
        "area_period_association",
        (r > 0) and (p < MELSER_P_MAX),
        f"correlation {r:.4f}, t {t:.4f}, p {p:.6f} (required r > 0, p < {MELSER_P_MAX})",
    )

    fits = {"hpm_fit_ab.csv": result_ab, "hpm_fit_ac.csv": result_ac}
    levels = {
        "index_levels_npgm.csv": {"A": 100.0, "B": i_ba_npgm, "C": i_ca_npgm},
        "index_levels_hpm.csv": {"A": 100.0, "B": i_ba_hpm, "C": i_ca_hpm},
    }
    return ReplicationSummary(_Records(("name", "passed", "detail"), columns)), fits, levels


def write_replication_outputs(outdir: str | Path) -> ReplicationSummary:
    """Run the harness and write every recomputed artifact under ``outdir``.

    Emits the unitary-price table, both fit tables, the two index
    plot-data files (periods A, B, C), the area-by-period scatter data,
    and ``summary.txt`` with one pass/fail line per check. The files
    serialize what the harness computed; nothing is refitted. A file
    that already exists is overwritten in place and cut to its new
    length, so a rerun into the same directory leaves exactly the new
    bytes; the write is not atomic (a failure midway can leave a file
    part old, part new) and not synced to disk.
    """
    outdir = Path(outdir)
    ds_ab = load_bundled_dataset()
    summary, fits, levels_by_file = _replicate(ds_ab)

    periods = [ds_ab.periods[q] for q in ds_ab.period_codes.tolist()]
    areas = ds_ab.area.tolist()
    files = {"unit_prices.csv": ["id,dataset,price_usd,area_cm2,unit_price_usd_per_cm2"]}
    for obs_id, period, price, area in zip(ds_ab.ids, periods, ds_ab.price.tolist(), areas):
        files["unit_prices.csv"].append(f"{obs_id},{period},{price:g},{area:g},{price / area!r}")

    for name, result in fits.items():
        lines = files[name] = ["term,coefficient,standard_error,t_statistic,p_value"]
        for column, *values in zip(
            result.column_names,
            result.coefficients,
            result.standard_errors,
            result.t_statistics,
            result.p_values,
        ):
            lines.append(",".join([column, *(repr(float(v)) for v in values)]))

    for name, levels in levels_by_file.items():
        files[name] = render_index_plot_data(levels).splitlines()
    files["area_by_dataset.csv"] = ["dataset,area_cm2"] + [
        f"{period},{area:g}" for period, area in zip(periods, areas)
    ]
    files["summary.txt"] = summary.lines()

    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, lines in files.items():
            # no O_TRUNC: on ext4 mounted with discard, truncating an
            # existing file on open took about 82 us, writing over it and
            # cutting it to length after the write about 8 us
            fd = os.open(outdir / name, os.O_WRONLY | os.O_CREAT, 0o666)
            try:
                handle = open(fd, "w", encoding="utf-8")
            except BaseException:
                os.close(fd)
                raise
            with handle:
                handle.write("\n".join(lines) + "\n")
                handle.truncate()
    except OSError as exc:
        raise ArtindexError(f"cannot write {outdir}: {exc}") from exc
    return summary
