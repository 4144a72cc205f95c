"""The two workloads: their input files, their commands and the checks on each output.

Every workload runs every command the end-to-end metrics name, so that
every metric is measured on every workload; what differs is the data:

* ``renoir`` -- the bundled 29 sales over two periods, as in the paper.
  Audits refit the 29-row model hundreds of times, so per-call overhead
  in the audit loop, the regression and the kernels dominates.
* ``panel`` -- ``index`` and ``fit`` run on 3,000 sales over 12 periods
  and 15 design columns: one large fit, where parsing, validation,
  design build, factorization and serialization of 3,000 residuals do
  the work. The audits run on a second file of 150 sales over four
  periods with area rising by period, which gives some sales a negative
  hedonic weight: each refit costs O(n k^2) and each perturbation copies
  n records. (An audit of the large panel would refit 3,000 rows per
  perturbation.) Both files are small enough for a round to take a few
  seconds, so that every metric is sampled at eight or more moments of
  a run.

``reproduce`` always recomputes the bundled example, whatever the data.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import oracle
from oracle import Mismatch, require, require_close

# the program's default sweep, 1.1 .. 3.0
DEFAULT_GRID = [round(1.0 + 0.1 * i, 10) for i in range(1, 21)]
SHORT_GRID = [2.0]
SINGLE_MULTIPLIER = 1.5
RENOIR_AUDIT_SEED = 7
RENOIR_TRIALS = 1000
PANEL_TRIALS = 100
PANEL_SALES, PANEL_PERIODS = 3_000, 12
AUDIT_SALES, AUDIT_PERIODS = 150, 4
IDENTITY_RTOL = 1e-8

# fits from two least-squares methods agree to roundoff; the program's
# own incomplete beta is accurate to about 1e-10 absolute
LEVEL_RTOL = 1e-9
COEF_RTOL, COEF_ATOL = 1e-8, 1e-12
P_RTOL, P_ATOL = 1e-6, 1e-9
RESIDUAL_ATOL = 1e-8

Check = Callable[[int, str], None]

# runs of each command per round: cheap commands run several times so
# that every metric gets enough samples in one run
REPEATS = {
    "renoir": {
        "index_npgm": 10, "index_hpm": 10, "fit": 10, "single_hpm": 10, "single_npgm": 5,
        "grid_hpm": 2, "grid_npgm": 5, "random_hpm": 1, "random_npgm": 4, "reproduce": 1, "cli_cold": 2,
    },
    "panel": {
        "index_npgm": 3, "index_hpm": 1, "fit": 1, "single_hpm": 5, "single_npgm": 5,
        "grid_hpm": 1, "grid_npgm": 5, "random_hpm": 1, "random_npgm": 3, "reproduce": 1, "cli_cold": 2,
    },
}


@dataclass
class Op:
    """One CLI invocation, the metric its time feeds and the check on its output."""

    name: str
    argv: list[str]
    check: Check
    metric: str | None = None
    repeat: int = 1
    subprocess: bool = False
    known_fault: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    # the command whose subprocess peak memory gives peak_rss_mb
    heaviest: list[str]
    facts: dict = field(default_factory=dict)


# -- checks ------------------------------------------------------------


def _body(out: str) -> dict:
    try:
        return json.loads(out)["body"]
    except (ValueError, KeyError) as exc:
        raise Mismatch(f"output is not a JSON report: {exc}") from None


def _require_exit(rc: int, want: int) -> None:
    require(rc == want, f"exit status {rc}, expected {want}")


def _check_levels(label: str, got: dict, want: dict) -> None:
    require(list(got) == list(want), f"{label}: periods {list(got)} != {list(want)}")
    require_close(label, list(got.values()), list(want.values()), rtol=LEVEL_RTOL)


def _check_regression(reg: dict, fit: oracle.Fit) -> dict[str, float]:
    terms = reg["terms"]
    require([t["name"] for t in terms] == fit.names, f"terms {[t['name'] for t in terms]} != {fit.names}")
    require(reg["degrees_of_freedom"] == fit.degrees_of_freedom, "degrees of freedom differ")
    require(reg["n_observations"] == len(fit.residuals), "observation count differs")
    require_close("coefficients", [t["coefficient"] for t in terms], fit.coefficients, COEF_RTOL, COEF_ATOL)
    require_close("standard errors", [t["standard_error"] for t in terms], fit.standard_errors, COEF_RTOL)
    require_close("t statistics", [t["t_statistic"] for t in terms], fit.t_statistics, COEF_RTOL, COEF_ATOL)
    require_close("p-values", [t["p_value"] for t in terms], fit.p_values, P_RTOL, P_ATOL)
    require_close("residuals", reg["residuals"], fit.residuals, 0.0, RESIDUAL_ATOL)
    require_close("R^2", reg["r_squared"], fit.r_squared, 0.0, 1e-10)
    return {t["name"]: t["coefficient"] for t in terms}


def _check_decomposition(sales: oracle.Sales, regressors: tuple[str, ...], coefficients: dict) -> None:
    worst = max(oracle.decomposition_gaps(sales, regressors, coefficients))
    require(worst <= IDENTITY_RTOL, f"decomposition identity gap {worst:.3g} > {IDENTITY_RTOL}")


def _check_equivalence(sales: oracle.Sales, npgm_levels: dict) -> None:
    pinned = oracle.hpm_fit(sales, (), pinned_log_area=True).levels(sales.periods)
    require_close("constrained equivalence", list(npgm_levels.values()), list(pinned.values()), IDENTITY_RTOL)


def index_npgm_check(sales: oracle.Sales) -> Check:
    want = oracle.npgm_levels(sales)

    def check(rc: int, out: str) -> None:
        _require_exit(rc, 0)
        levels = _body(out)["index"]["levels"]
        _check_levels("npgm levels", levels, want)
        _check_equivalence(sales, levels)

    return check


def index_hpm_check(sales: oracle.Sales, regressors: tuple[str, ...], fit: oracle.Fit) -> Check:
    want = fit.levels(sales.periods)

    def check(rc: int, out: str) -> None:
        _require_exit(rc, 0)
        body = _body(out)
        _check_levels("hpm levels", body["index"]["levels"], want)
        _check_decomposition(sales, regressors, _check_regression(body["regression"], fit))

    return check


def fit_check(sales: oracle.Sales, regressors: tuple[str, ...], fit: oracle.Fit) -> Check:
    def check(rc: int, out: str) -> None:
        _require_exit(rc, 0)
        coefficients = _check_regression(_body(out)["regression"], fit)
        _check_decomposition(sales, regressors, coefficients)

    return check


def single_check(sales: oracle.Sales, w: np.ndarray, levels: dict, obs_id: str, multiplier: float) -> Check:
    i = sales.index_of(obs_id)
    perturbed = sales.periods[sales.period_of[i]]

    def check(rc: int, out: str) -> None:
        body = _body(out)
        comparisons = body["comparisons"]
        require([c["period"] for c in comparisons] == list(sales.periods[1:]), "compared periods differ")
        violated = False
        for q, c in enumerate(comparisons, start=1):
            change = w[q, i] * math.log(multiplier)
            require_close(f"level before, period {c['period']}", c["level_before"], levels[c["period"]], LEVEL_RTOL)
            require_close(f"level after, period {c['period']}", c["level_after"], c["level_before"] * math.exp(change), IDENTITY_RTOL)
            verdict = oracle.judge(change) if c["period"] == perturbed else False
            if verdict is not None:
                require(c["compliant"] == (not verdict), f"period {c['period']}: compliance {c['compliant']}")
            violated |= not c["compliant"]
        require(len(body["violations"]) == sum(not c["compliant"] for c in comparisons), "violation count")
        _require_exit(rc, 4 if violated else 0)

    return check


def audit_check(expected: list[oracle.ExpectedViolation], trials: int, levels: dict) -> Check:
    certain = [(e.description, e.period) for e in expected if e.certain]
    either = {(e.description, e.period) for e in expected if not e.certain}
    ratio = {(e.description, e.period): e.ratio for e in expected}

    def check(rc: int, out: str) -> None:
        body = _body(out)
        require(body["trials"] == trials, f"trials {body['trials']} != {trials}")
        found = [(v["description"], v["period"]) for v in body["violations"]]
        judged = [key for key in found if key not in either]
        if judged != certain:
            missing = [k for k in certain if k not in judged][:3]
            extra = [k for k in judged if k not in certain][:3]
            raise Mismatch(f"violations: {len(judged)} judged vs {len(certain)} expected; missing {missing}, extra {extra}")
        for v in body["violations"]:
            key = (v["description"], v["period"])
            require_close(f"{key} level before", v["level_before"], levels[v["period"]], LEVEL_RTOL)
            require_close(f"{key} level ratio", v["level_after"] / v["level_before"], ratio[key], IDENTITY_RTOL)
        _require_exit(rc, 4 if found else 0)

    return check


def _read_csv_table(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def reproduce_check(renoir: oracle.Sales, outdir: Path) -> Check:
    """Exit 3 with only the documented A/C aspect-ratio p-value cell failing, and level files that match.

    The coefficient files (hpm_fit_ab.csv, hpm_fit_ac.csv) are not read:
    under numpy 2 they hold ``np.float64(...)`` text, not numbers.
    """
    regressors = ("area", "aspect_ratio")
    ds_ac = renoir.with_price_scaled("29", SINGLE_MULTIPLIER).with_period_relabeled("B", "C")
    npgm = {"A": 100.0, "B": oracle.npgm_levels(renoir)["B"], "C": oracle.npgm_levels(ds_ac)["C"]}
    hpm = {
        "A": 100.0,
        "B": oracle.hpm_fit(renoir, regressors).levels(renoir.periods)["B"],
        "C": oracle.hpm_fit(ds_ac, regressors).levels(ds_ac.periods)["C"],
    }

    def check(rc: int, out: str) -> None:
        _require_exit(rc, 3)
        failing = [c["name"] for c in _body(out)["checks"] if not c["passed"]]
        require(failing == ["fit_ac_p_values"], f"failing checks {failing}")
        levels = {}
        for name, want in (("npgm", npgm), ("hpm", hpm)):
            rows = _read_csv_table(outdir / f"index_levels_{name}.csv")
            levels[name] = {r["period"]: float(r["level"]) for r in rows}
            _check_levels(f"reproduce {name} levels", levels[name], want)
        _check_equivalence(renoir, {p: levels["npgm"][p] for p in "AB"})
        _check_equivalence(ds_ac, {p: levels["npgm"][p] for p in "AC"})

    return check


# -- workloads -----------------------------------------------------------


def _audit_ops(
    sales: oracle.Sales,
    data_args: list[str],
    regressors: tuple[str, ...],
    grid: list[float],
    trials: int,
    audit_seed: int,
    repeats: dict[str, int],
) -> list[Op]:
    """Single, grid and random audits of both methods on one file."""
    hpm_fit = oracle.hpm_fit(sales, regressors)
    levels = {"hpm": hpm_fit.levels(sales.periods), "npgm": oracle.npgm_levels(sales)}
    w = {"hpm": oracle.weights(sales, "hpm", hpm_fit), "npgm": oracle.weights(sales, "npgm")}
    obs = sales.ids[-1]
    n_targets = int(np.count_nonzero(sales.period_of))  # sales outside the base period
    grid_args = [] if grid == DEFAULT_GRID else ["--multipliers", ",".join(f"{m:g}" for m in grid)]
    ops = []
    for method in ("hpm", "npgm"):
        base = ["monotonicity", "--method", method, "--format", "json", *data_args]
        ops.append(
            Op(
                f"single_{method}",
                base + ["--mode", "single", "--obs", obs, "--multiplier", f"{SINGLE_MULTIPLIER:g}"],
                single_check(sales, w[method], levels[method], obs, SINGLE_MULTIPLIER),
                metric="audit_single_s" if method == "hpm" else None,
                repeat=repeats[f"single_{method}"],
            )
        )
        ops.append(
            Op(
                f"grid_{method}",
                base + ["--mode", "grid", *grid_args],
                audit_check(oracle.grid_violations(sales, w[method], grid), n_targets * len(grid), levels[method]),
                metric=f"audit_grid_{method}_s",
                repeat=repeats[f"grid_{method}"],
            )
        )
        ops.append(
            Op(
                f"random_{method}",
                base + ["--mode", "random", "--trials", str(trials), "--seed", str(audit_seed)],
                audit_check(oracle.random_violations(sales, w[method], trials, audit_seed), trials, levels[method]),
                metric=f"audit_random_{method}_s",
                repeat=repeats[f"random_{method}"],
            )
        )
    return ops


def _fit_ops(sales: oracle.Sales, data_args: list[str], regressors: tuple[str, ...], repeats: dict[str, int]) -> list[Op]:
    """index --method npgm|hpm and fit, all as JSON."""
    fit = oracle.hpm_fit(sales, regressors)
    model = ["--regressors", ",".join(regressors)]
    return [
        Op("index_npgm", ["index", "--method", "npgm", "--format", "json", *data_args], index_npgm_check(sales), "index_npgm_s", repeats["index_npgm"]),
        Op("index_hpm", ["index", "--method", "hpm", "--format", "json", *data_args, *model], index_hpm_check(sales, regressors, fit), "index_hpm_s", repeats["index_hpm"]),
        Op("fit", ["fit", "--format", "json", *data_args, *model], fit_check(sales, regressors, fit), "fit_s", repeats["fit"]),
    ]


def _common_ops(renoir: oracle.Sales, sales: oracle.Sales, data_args: list[str], outdir: Path, repeats: dict[str, int]) -> list[Op]:
    """reproduce in-process, and index --method npgm as a fresh process."""
    return [
        Op("reproduce", ["reproduce", "--format", "json", "--outdir", str(outdir)], reproduce_check(renoir, outdir), "reproduce_s", repeats["reproduce"]),
        Op("cli_cold", ["index", "--method", "npgm", "--format", "json", *data_args], index_npgm_check(sales), "cli_cold_s", repeats["cli_cold"], subprocess=True),
    ]


def _bundled(root: Path) -> oracle.Sales:
    return oracle.read_sales(root / "src" / "artindex" / "data" / "renoir_1989_1990.csv")


def renoir(root: Path, workdir: Path, seed: int) -> Workload:
    # the paper's data and audit seed; --seed changes nothing here
    sales = _bundled(root)
    regressors = ("area", "aspect_ratio")
    repeats = REPEATS["renoir"]
    ops = _fit_ops(sales, [], regressors, repeats)
    ops += _audit_ops(sales, [], regressors, DEFAULT_GRID, RENOIR_TRIALS, RENOIR_AUDIT_SEED, repeats)
    ops += _common_ops(sales, sales, [], workdir / "reproduce", repeats)
    heaviest = ["monotonicity", "--method", "hpm", "--mode", "random", "--trials", str(RENOIR_TRIALS), "--seed", str(RENOIR_AUDIT_SEED), "--format", "json"]
    return Workload(ops, heaviest, {"sales": 29, "periods": 2})


def panel(root: Path, workdir: Path, seed: int) -> Workload:
    panel_csv = gen.write_csv(workdir / "panel.csv", seed, PANEL_SALES, PANEL_PERIODS, area_trend=0.05)
    panel_bom = gen.write_csv(workdir / "panel_bom.csv", seed, PANEL_SALES, PANEL_PERIODS, area_trend=0.05, bom=True)
    audit_csv = gen.write_csv(workdir / "audit.csv", seed + 1, AUDIT_SALES, AUDIT_PERIODS, area_trend=1.0)
    regressors = ("area", "aspect_ratio", gen.EXTRA_COLUMN)
    sales = oracle.read_sales(panel_csv, (gen.EXTRA_COLUMN,))
    data_args = ["--data", str(panel_csv), "--extra-columns", gen.EXTRA_COLUMN]
    repeats = REPEATS["panel"]
    ops = _fit_ops(sales, data_args, regressors, repeats)
    ops.append(
        Op(
            "index_npgm_bom",
            ["index", "--method", "npgm", "--format", "json", "--data", str(panel_bom)],
            index_npgm_check(oracle.read_sales(panel_bom)),
            known_fault="csvio.load_csv reads UTF-8 with the byte-order mark kept, so the first header cell is not 'id'",
        )
    )
    ops += _audit_ops(oracle.read_sales(audit_csv), ["--data", str(audit_csv)], ("area", "aspect_ratio"), SHORT_GRID, PANEL_TRIALS, seed, repeats)
    ops += _common_ops(_bundled(root), sales, data_args, workdir / "reproduce", repeats)
    heaviest = ["fit", "--format", "json", *data_args, "--regressors", ",".join(regressors)]
    facts = {"fit_sales": PANEL_SALES, "fit_periods": PANEL_PERIODS, "design_columns": 15, "audit_sales": AUDIT_SALES, "audit_periods": AUDIT_PERIODS}
    return Workload(ops, heaviest, facts)


WORKLOADS = {"renoir": renoir, "panel": panel}
