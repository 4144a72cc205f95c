"""Command-line surface: commands, formats, exit codes, determinism."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import artindex
from artindex import cli, monotonicity, npgm_method
from artindex.cli import main
from artindex.replication import run_replication, write_replication_outputs
from artindex.report import Report
from artindex import SaleObservation, fit, with_price_scaled

from conftest import EXAMPLE_SPEC, generated_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestIndexCommand:
    def test_npgm_json(self, capsys):
        code, out, _ = run(capsys, "index", "--method", "npgm", "--base", "A",
                          "--format", "json")
        assert code == 0
        report = Report.from_json(out)
        assert report.command == "index"
        levels = report.body["index"]["levels"]
        assert levels["A"] == 100.0
        assert levels["B"] == pytest.approx(175, abs=1)

    def test_hpm_json_includes_regression(self, capsys):
        code, out, _ = run(capsys, "index", "--method", "hpm", "--base", "A",
                          "--format", "json")
        assert code == 0
        report = Report.from_json(out)
        assert report.body["index"]["levels"]["B"] == pytest.approx(291.1, abs=0.5)
        terms = {t["name"]: t for t in report.body["regression"]["terms"]}
        assert terms["dummy_B"]["coefficient"] == pytest.approx(1.068575, abs=0.002)

    def test_plot_format(self, capsys):
        code, out, _ = run(capsys, "index", "--method", "npgm", "--base", "A",
                          "--format", "plot")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "period,level"
        assert lines[1] == "A,100.0"
        period, level = lines[2].split(",")
        assert period == "B"
        assert float(level) == pytest.approx(175, abs=1)

    def test_json_round_trip(self, capsys):
        _, out, _ = run(capsys, "index", "--method", "hpm", "--format", "json")
        report = Report.from_json(out)
        assert Report.from_json(report.to_json()) == report

    def test_unknown_method_is_usage_error(self, capsys):
        code, _, err = run(capsys, "index", "--method", "paasche")
        assert code == 2
        assert "invalid choice" in err

    def test_default_base_is_first_period(self, capsys):
        code, out, _ = run(capsys, "index", "--format", "json")
        assert code == 0
        assert Report.from_json(out).config["base"] == "A"

    def test_missing_data_file(self, capsys):
        code, _, err = run(capsys, "index", "--data", "/nonexistent.csv")
        assert code == 3
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "content,reason",
        [
            (b"1,Caf\xe9,100,10,1.0\n",
             "'utf-8' codec can't decode byte 0xe9 in position 44: invalid continuation byte"),
            (b'"' + b"x" * 200_000 + b'",A,100,10,1.0\n',
             "line 2: field larger than field limit (131072)"),
        ],
        ids=["not utf-8", "csv error"],
    )
    def test_unreadable_data_file_is_data_error(self, capsys, tmp_path, content, reason):
        path = tmp_path / "sales.csv"
        path.write_bytes(b"id,dataset,price_usd,area_cm2,hw_ratio\n" + content)
        code, out, err = run(capsys, "index", "--data", str(path))
        assert (code, out, err) == (3, "", f"error: cannot read {path}: {reason}\n")

    @pytest.mark.parametrize("base_value", ["-5", "0", "nan"])
    def test_bad_base_value_is_data_error_for_both_methods(self, capsys, base_value):
        for method in ("npgm", "hpm"):
            code, out, err = run(
                capsys, "index", "--method", method, "--base-value", base_value,
                "--format", "json",
            )
            assert (code, out) == (3, "")
            assert err == (
                f"error: base value must be positive and finite, got {float(base_value)!r}\n"
            )

    def test_one_period_is_data_error_for_both_methods(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(
            "id,dataset,price_usd,area_cm2,hw_ratio\n"
            "1,A,100,10,1\n2,A,200,20,1.2\n3,A,150,12,0.9\n4,A,300,30,1.1\n"
        )
        for method in ("npgm", "hpm"):
            code, out, err = run(capsys, "index", "--method", method, "--data", str(path))
            assert (code, out) == (3, "")
            assert err == "error: index computation needs at least two periods, dataset has 1\n"

    @pytest.mark.parametrize("method,fmt", [("npgm", "json"), ("hpm", "json"), ("npgm", "plot")])
    def test_level_past_the_float_range_is_data_error(self, capsys, method, fmt):
        # the base value is finite, but level B, about 1.75 (npgm) or 2.9 (hpm) times it, is not
        code, out, err = run(
            capsys, "index", "--method", method, "--base-value", "1.5e308", "--format", fmt
        )
        assert (code, out) == (3, "")
        assert err == "error: level 'B' is past the float range at base value 1.5e+308\n"

    @staticmethod
    def write_dummy_overflow(tmp_path):
        # B's prices are about 1e400 times A's, so the B dummy (about 921) overflows exp
        path = tmp_path / "overflow.csv"
        path.write_text(
            "id,dataset,price_usd,area_cm2,hw_ratio\n"
            "1,A,1e-200,10,1.0\n2,A,2e-200,20,1.1\n3,A,3e-200,33,0.9\n"
            "4,B,1e200,12,1.0\n5,B,2e200,25,1.05\n6,B,3e200,30,0.95\n"
        )
        return path

    @pytest.mark.parametrize(
        "argv", [["index"], ["monotonicity", "--mode", "grid"]], ids=["index", "monotonicity-grid"]
    )
    def test_time_dummy_past_the_float_range_is_data_error(self, capsys, tmp_path, argv):
        path = self.write_dummy_overflow(tmp_path)
        code, out, err = run(
            capsys, *argv, "--method", "hpm", "--regressors", "area", "--data", str(path)
        )
        assert (code, out) == (3, "")
        assert err == "error: level 'B' is past the float range at base value 100.0\n"

    def test_time_dummy_past_the_float_range_at_a_small_base_value(self, capsys, tmp_path):
        # exp(921) overflows, but 1e-300 * exp(921), about 9e99, fits, as npgm's level does
        path = self.write_dummy_overflow(tmp_path)
        bodies = {}
        for method in ("hpm", "npgm"):
            code, out, err = run(
                capsys, "index", "--method", method, "--regressors", "area", "--base-value", "1e-300",
                "--data", str(path), "--format", "json",
            )
            assert (code, err) == (0, "")
            bodies[method] = Report.from_json(out).body
        levels = {method: body["index"]["levels"]["B"] for method, body in bodies.items()}
        delta = {t["name"]: t["coefficient"] for t in bodies["hpm"]["regression"]["terms"]}["dummy_B"]
        assert levels["hpm"] == math.exp(delta + math.log(1e-300))
        assert levels["hpm"] == pytest.approx(levels["npgm"], rel=0.1)

    @pytest.mark.parametrize(
        "text", ["id,dataset,price_usd,area_cm2,hw_ratio\n", ""], ids=["header-only", "zero-byte"]
    )
    def test_file_without_records_is_data_error(self, capsys, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        code, out, err = run(capsys, "index", "--data", str(path))
        assert (code, out, err) == (3, "", "error: empty dataset\n")

    def test_unknown_base_is_worded_alike_for_both_methods(self, capsys):
        for method in ("npgm", "hpm"):
            code, out, err = run(capsys, "index", "--method", method, "--base", "Z")
            assert (code, out) == (3, "")
            assert err == "error: base period 'Z' not in dataset periods ['A', 'B']\n"


class TestFitCommand:
    def test_table_layout(self, capsys):
        code, out, _ = run(capsys, "fit", "--reference", "A")
        assert code == 0
        assert "dummy_B" in out
        assert "p-value" in out
        assert "R^2" in out

    def test_json_terms(self, capsys):
        code, out, _ = run(capsys, "fit", "--reference", "A", "--format", "json")
        assert code == 0
        body = Report.from_json(out).body["regression"]
        names = [t["name"] for t in body["terms"]]
        assert names == ["intercept", "area", "aspect_ratio", "dummy_B"]
        assert body["degrees_of_freedom"] == 25
        assert body["r_squared"] > 0.70

    def test_unknown_regressor_lists_available(self, capsys):
        code, _, err = run(capsys, "fit", "--regressors", "area,frame_width")
        assert code == 3
        assert "frame_width" in err and "aspect_ratio" in err

    @pytest.mark.parametrize("name", ["intercept", "dummy_B"])
    def test_regressor_named_like_a_generated_column(self, capsys, tmp_path, name):
        path = tmp_path / "clash.csv"
        path.write_text(
            f"id,dataset,price_usd,area_cm2,hw_ratio,{name}\n"
            "1,A,100,10,1,0.5\n2,A,200,20,1.2,0.7\n3,A,150,12,0.9,0.1\n"
            "4,B,300,30,1.1,0.3\n5,B,320,25,1.0,0.2\n6,B,350,35,1.3,0.9\n"
        )
        code, out, err = run(
            capsys, "fit", "--data", str(path), "--extra-columns", name,
            "--regressors", f"area,{name}",
        )
        assert (code, out) == (3, "")
        assert err == (
            f"error: regressor '{name}' has the name of a generated design column; "
            "rename that characteristic\n"
        )


class TestMonotonicityCommand:
    def test_single_hpm_violation_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "monotonicity", "--method", "hpm", "--base", "A",
            "--mode", "single", "--obs", "29", "--multiplier", "1.5",
            "--format", "json",
        )
        assert code == 4
        body = Report.from_json(out).body
        assert not body["compliant"]
        assert body["violations"][0]["period"] == "B"
        assert body["violations"][0]["level_after"] < body["violations"][0]["level_before"]

    def test_single_npgm_compliant(self, capsys):
        code, out, _ = run(
            capsys, "monotonicity", "--method", "npgm", "--base", "A",
            "--mode", "single", "--obs", "29", "--multiplier", "1.5",
            "--format", "json",
        )
        assert code == 0
        assert Report.from_json(out).body["compliant"]

    def test_random_npgm_clean(self, capsys):
        code, out, _ = run(
            capsys, "monotonicity", "--method", "npgm", "--base", "A",
            "--mode", "random", "--trials", "1000", "--seed", "7",
            "--format", "json",
        )
        assert code == 0
        body = Report.from_json(out).body
        assert body["compliant"] and body["trials"] == 1000

    def test_grid_hpm_finds_known_observations(self, capsys):
        code, out, _ = run(
            capsys, "monotonicity", "--method", "hpm", "--base", "A",
            "--mode", "grid", "--format", "json",
        )
        assert code == 4
        body = Report.from_json(out).body
        ids = {next(iter(v["perturbation"])) for v in body["violations"]}
        assert {"25", "28", "29"} <= ids

    def test_random_requires_seed(self, capsys):
        code, _, err = run(
            capsys, "monotonicity", "--method", "npgm", "--mode", "random",
            "--trials", "10",
        )
        assert code == 2
        assert "--seed" in err

    def test_single_requires_obs(self, capsys):
        code, _, err = run(capsys, "monotonicity", "--mode", "single")
        assert code == 2
        assert "--obs" in err

    def test_melser_flag(self, capsys):
        code, out, _ = run(
            capsys, "monotonicity", "--method", "hpm", "--base", "A",
            "--mode", "single", "--obs", "29", "--melser", "area",
            "--format", "json",
        )
        assert code == 4
        assert Report.from_json(out).body["melser_statistic"] == pytest.approx(
            0.6344, abs=0.001
        )

    def test_multiplier_below_one_is_usage_error(self, capsys):
        code, out, err = run(capsys, "monotonicity", "--obs", "29", "--multiplier", "0.5")
        assert (code, out) == (2, "")
        assert err.endswith("error: --multiplier must be >= 1\n")

    def test_nan_multiplier_is_usage_error(self, capsys):
        code, out, err = run(capsys, "monotonicity", "--obs", "29", "--multiplier", "nan")
        assert (code, out) == (2, "")
        assert err.endswith("\nartindex: error: --multiplier must be >= 1\n")

    def test_infinite_multiplier_is_usage_error(self, capsys):
        code, out, err = run(capsys, "monotonicity", "--obs", "29", "--multiplier", "inf")
        assert (code, out) == (2, "")
        assert err.endswith("\nartindex: error: --multiplier must be finite\n")

    def test_melser_needs_two_periods(self, capsys, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text(
            "id,dataset,price_usd,area_cm2,hw_ratio\n"
            "1,A,100,10,1.0\n2,A,200,20,1.1\n3,B,150,12,1.0\n"
            "4,B,250,25,1.05\n5,C,300,30,0.95\n6,C,120,11,1.2\n"
        )
        code, out, err = run(
            capsys, "monotonicity", "--obs", "1", "--melser", "area", "--data", str(path)
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: the association diagnostic needs exactly two periods "
            "(base plus one), dataset has 3\n"
        )

    def test_zero_width_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "hw.csv"
        path.write_text("id,dataset,price_usd,h,w\n1,A,100,4,2\n2,A,120,3,0\n3,B,300,3,5\n")
        code, _, err = run(
            capsys, "index", "--data", str(path), "--height-column", "h", "--width-column", "w"
        )
        assert code == 3
        assert err == "error: row 2, column 'w': width must be positive, got 0.0\n"

    def test_unknown_obs_is_data_error(self, capsys):
        code, _, err = run(
            capsys, "monotonicity", "--mode", "single", "--obs", "99"
        )
        assert code == 3
        assert "unknown observation id" in err

    @pytest.mark.parametrize("method", ["hpm", "npgm"])
    def test_overflowing_grid_increment_is_data_error(self, capsys, method):
        # 1e308 x a price overflows: no JSON Infinity, no unreplayable violation
        code, out, err = run(
            capsys, "monotonicity", "--method", method, "--mode", "grid",
            "--multipliers", "2,1e308", "--format", "json",
        )
        assert (code, out) == (3, "")
        assert err == (
            "error: obs 15 price x1e+308: perturbation for observation '15' "
            "must be a non-negative finite number, got inf\n"
        )

    @pytest.mark.parametrize("method", ["hpm", "npgm"])
    @pytest.mark.parametrize(
        "mode,error",
        [
            (["--mode", "single", "--obs", "17"], "error: "),
            (["--mode", "grid", "--multipliers", "1.5"], "error: obs 17 price x1.5: "),
            (["--mode", "random", "--trials", "100", "--seed", "3"], "error: trial 0: "),
        ],
        ids=["single", "grid", "random"],
    )
    def test_overflowing_raised_price_is_data_error(self, capsys, tmp_path, method, mode, error):
        # two sales priced 1.7e308: raising either by half overflows to inf
        path = tmp_path / "huge.csv"
        rows = ["id,dataset,price_usd,area_cm2,hw_ratio"]
        for i in range(1, 19):
            price = 1.7e308 if i in (17, 18) else 1000.0 * i * i
            area, ratio = 100 + 37 * (i % 7) + i, 0.5 + 0.1 * (i % 5)
            rows.append(f"{i},{'A' if i <= 9 else 'B'},{price!r},{area},{ratio}")
        path.write_text("\n".join(rows) + "\n")
        code, out, err = run(
            capsys, "monotonicity", "--data", str(path), "--method", method, *mode, "--format", "json"
        )
        assert (code, out) == (3, "")
        assert err.startswith(error + "perturbation for observation '1")
        assert "overflows its price, got " in err and err.count("\n") == 1

    def test_base_value_near_the_float_range_gives_the_level(self, capsys):
        # level B is 1.75e306, although the base value times B's geometric
        # mean (about 1596) is past the float range
        _, out, _ = run(capsys, "index", "--format", "json")
        ratio = Report.from_json(out).body["index"]["levels"]["B"] / 100.0
        for argv in (["index"], ["monotonicity", "--obs", "29"]):
            code, out, err = run(capsys, *argv, "--base-value", "1e306", "--format", "json")
            assert (code, err) == (0, "")
            body = Report.from_json(out).body
            level = body["index"]["levels"]["B"] if argv == ["index"] else body["comparisons"][0]["level_before"]
            assert level == pytest.approx(1e306 * ratio, rel=1e-14)

    def test_perturbed_level_past_the_float_range_is_data_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "monotonicity", "--base-value", "1e305", "--obs", "29",
                "--multiplier", "1e300", "--format", "json",
            )
        assert (code, out) == (3, "")
        assert err == "error: perturbation pushes level 'B' past the float range\n"

    @pytest.mark.parametrize(
        "method,status,violators", [("npgm", 0, ()), ("hpm", 4, ("25", "28", "29"))]
    )
    def test_grid_raising_a_level_past_the_float_range_warns_nothing(
        self, capsys, method, status, violators
    ):
        # x1e300 lifts a level near the float range to inf: a rise, not a
        # violation, and no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "monotonicity", "--base-value", "1e305", "--method", method,
                "--mode", "grid", "--multipliers", "1e300", "--format", "json",
            )
        assert (code, err) == (status, "")
        violations = Report.from_json(out).body["violations"]
        assert [v["description"] for v in violations] == [
            f"obs {i} price x1e+300" for i in violators
        ]

    def test_negative_seed_is_data_error(self, capsys):
        code, out, err = run(
            capsys, "monotonicity", "--mode", "random", "--trials", "5", "--seed", "-1"
        )
        assert (code, out) == (3, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"


class TestDeterminism:
    def test_random_audit_bytes_do_not_depend_on_the_draw_budget(self, capsys, renoir):
        # a budget of 2 * 64 * (non-base sales) draws 64 trials a block;
        # the default draws every trial here in one block
        targets = monotonicity._Levels(renoir, npgm_method("A")).targets
        outputs = {}
        for budget in (monotonicity._DRAW_BUDGET, 2 * 64 * len(targets)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(monotonicity, "_DRAW_BUDGET", budget)
                outputs[budget] = [
                    run(
                        capsys, "monotonicity", "--mode", "random", "--method", method,
                        "--trials", str(trials), "--seed", str(seed), "--format", "json",
                    )
                    for method in ("hpm", "npgm")
                    for trials in (1, 63, 64, 65, 1000)
                    for seed in (1, 7)
                ]
        default, blocked = outputs.values()
        assert default == blocked
        # hpm finds violations (exit 4) at 1,000 trials of either seed; npgm none
        codes = [code for code, _, _ in default]
        assert codes[8:10] == [4, 4] and codes[10:] == [0] * 10

    @pytest.mark.parametrize(
        "argv",
        [
            ("index", "--method", "hpm", "--format", "json"),
            ("fit", "--format", "json"),
            ("monotonicity", "--mode", "random", "--method", "hpm",
             "--trials", "25", "--seed", "11", "--format", "json"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_json_floats_round_trip_exactly(self, capsys):
        _, out, _ = run(capsys, "index", "--method", "hpm", "--format", "json")
        level = Report.from_json(out).body["index"]["levels"]["B"]
        assert json.loads(json.dumps(level)) == level


class TestJsonLayout:
    @pytest.mark.parametrize(
        "argv",
        [
            ("index", "--method", "npgm"),
            ("index", "--method", "hpm"),
            ("fit",),
            *(
                ("monotonicity", "--method", method, *mode)
                for method in ("npgm", "hpm")
                for mode in (
                    ("--mode", "single", "--obs", "29"),
                    ("--mode", "grid"),
                    ("--mode", "random", "--trials", "200", "--seed", "7"),
                )
            ),
            ("reproduce",),
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a not in ("--method", "--mode")),
    )
    def test_json_reports_are_laid_out_as_json_dumps(self, capsys, tmp_path, argv):
        if argv[0] == "reproduce":
            argv = (*argv, "--outdir", str(tmp_path))
        _, out, _ = run(capsys, *argv, "--format", "json")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_json_run_renders_no_table(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was rendered for a JSON report")

        for name in ("render_index_table", "render_regression_table", "render_monotonicity_table"):
            monkeypatch.setattr(cli, name, refuse)
        for argv in (
            ("index", "--method", "npgm"),
            ("index", "--method", "hpm"),
            ("fit",),
            ("monotonicity", "--method", "hpm", "--mode", "grid"),
        ):
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code in (0, 4)
            assert Report.from_json(out).command == argv[0]


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "hpm", "format": "json"}))
        code, out, _ = run(capsys, "--config", str(cfg), "index")
        assert code == 0
        assert Report.from_json(out).config["method"] == "hpm"

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "hpm", "format": "json"}))
        code, out, _ = run(capsys, "--config", str(cfg), "index", "--method", "npgm")
        assert code == 0
        assert Report.from_json(out).config["method"] == "npgm"

    def test_unreadable_config_is_usage_error(self, capsys):
        code, _, err = run(capsys, "--config", "/nonexistent.json", "index")
        assert code == 2
        assert "config" in err

    def test_config_that_is_not_an_object_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(["method", "hpm"]))
        code, out, err = run(capsys, "--config", str(cfg), "index")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: config file {cfg} must hold a JSON object\n")

    @staticmethod
    def config(tmp_path, **entries) -> str:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(entries))
        return str(path)

    @pytest.mark.parametrize("key,value", [("method", "bogus"), ("format", "xml")])
    def test_bad_choice_is_usage_error(self, capsys, tmp_path, key, value):
        code, out, err = run(capsys, "--config", self.config(tmp_path, **{key: value}), "index")
        assert (code, out) == (2, "")
        assert f"argument --{key}: invalid choice: '{value}'" in err

    def test_list_value_is_usage_error_naming_the_key(self, capsys, tmp_path):
        cfg = self.config(tmp_path, regressors=["area"])
        code, out, err = run(capsys, "--config", cfg, "index", "--method", "hpm")
        assert (code, out) == (2, "")
        assert "'regressors'" in err and "Traceback" not in err

    def test_abbreviated_config_option_is_refused(self, capsys, tmp_path):
        cfg = self.config(tmp_path, method="hpm", format="json")
        for argv in (["--conf", cfg, "index"], ["--confi=" + cfg, "index"], ["index", "--config", cfg]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "error: " in err

    def test_values_parse_like_flags(self, capsys, tmp_path):
        cfg = self.config(tmp_path, base_value=50, format="json")
        from_config = run(capsys, "--config", cfg, "index")
        from_flags = run(capsys, "index", "--base-value", "50", "--format", "json")
        assert from_config == from_flags
        assert Report.from_json(from_config[1]).config["base_value"] == 50.0

    def test_outdir_satisfies_reproduce(self, capsys, tmp_path):
        cfg = self.config(tmp_path, outdir=str(tmp_path / "out"))
        code, _, _ = run(capsys, "--config", cfg, "reproduce")
        assert code == 3  # the known reference p-value mismatch, not a usage error
        assert (tmp_path / "out" / "summary.txt").exists()

    def test_key_the_subcommand_lacks_is_ignored(self, capsys, tmp_path):
        cfg = self.config(tmp_path, method="hpm", format="json")
        code, out, _ = run(capsys, "--config", cfg, "fit")
        assert code == 0
        assert Report.from_json(out).command == "fit"

    def test_string_number_converts(self, capsys, tmp_path):
        cfg = self.config(tmp_path, mode="random", trials="10", seed=1, format="json")
        code, out, _ = run(capsys, "--config", cfg, "monotonicity")
        assert code == 0
        assert Report.from_json(out).body["trials"] == 10

    def test_config_does_not_leak_into_the_next_call(self, capsys, tmp_path):
        cfg = self.config(tmp_path, method="hpm", base_value=50)
        run(capsys, "--config", cfg, "index", "--format", "json")
        _, out, _ = run(capsys, "index", "--format", "json")
        config = Report.from_json(out).config
        assert (config["method"], config["base_value"]) == ("npgm", 100.0)


class TestOptionParsing:
    """The command line is read against one option table, with no ``argparse``."""

    def test_cold_command_imports_neither_argparse_nor_gettext(self):
        # ``-X importtime`` lists every module the process imports
        src = str(Path(artindex.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "artindex.cli", "index", "--method", "npgm",
             "--format", "json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0
        imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
        assert "artindex.csvio" in imported
        assert not {"argparse", "gettext"} & imported

    def test_prefixes_give_the_bytes_of_full_names(self, capsys):
        full = run(capsys, "index", "--method", "hpm", "--format", "json")
        assert full[0] == 0
        assert run(capsys, "index", "--meth", "hpm", "--form=json") == full
        assert run(capsys, "index", "--m=hpm", "--f", "json") == full

    def test_exact_name_beats_a_prefix(self, capsys):
        code, out, _ = run(capsys, "index", "--base", "B", "--format", "json")
        assert code == 0
        config = Report.from_json(out).config
        assert (config["base"], config["base_value"]) == ("B", 100.0)
        code, out, err = run(capsys, "index", "--bas", "B")
        assert (code, out) == (2, "")
        assert err.endswith("error: ambiguous option: --bas could match --base, --base-value\n")

    def test_negative_numbers_are_values(self, capsys):
        code, out, _ = run(capsys, "index", "--base-value", "-.5", "--base", "A")
        assert (code, out) == (3, "")
        for value in ("-1e5", "-inf"):
            code, out, err = run(capsys, "index", "--base-value", value)
            assert (code, out) == (3, "")
            assert err.startswith("error: base value must be positive and finite")
        code, out, err = run(capsys, "monotonicity", "--mode", "random", "--seed", "-1e5")
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --seed: invalid int value: '-1e5'\n")

    @pytest.mark.parametrize("command", [None, *cli._COMMANDS])
    def test_help_lists_every_option(self, capsys, command):
        argv = ["--help"] if command is None else [command, "--help"]
        for help_flag in ("--help", "-h"):
            code, out, err = run(capsys, *argv[:-1], help_flag)
            assert (code, err) == (0, "")
            assert out.startswith("usage: artindex")
            rows = cli._TOP[2] if command is None else cli._COMMANDS[command][2]
            for name, _, _, choices, text in rows:
                option = "--" + name.replace("_", "-")
                line = next(line for line in out.splitlines() if line.startswith(f"  {option} "))
                assert text in line
                assert not choices or "{" + ",".join(choices) + "}" in line
            if command is None:
                for name, (_, text, _) in cli._COMMANDS.items():
                    assert f"  {name}  " in out and text in out


class TestHpmLevelsAgree:
    """``index --method hpm`` (through ``fit``) and the hpm audit (through X+)
    read the same R and Q^T y, so their levels agree bit for bit."""

    @pytest.mark.parametrize("generated", [False, True])
    def test_index_levels_are_the_audit_levels_before(self, capsys, tmp_path, generated):
        data, obs = [], "29"
        if generated:
            path = generated_csv(tmp_path / "gen.csv", n_sales=3000, n_periods=12, area_trend=0.05)
            data = ["--data", str(path), "--extra-columns", "age_years",
                    "--regressors", "area,aspect_ratio,age_years"]
            obs = "3000"
        code, out, _ = run(capsys, "index", "--method", "hpm", "--format", "json", *data)
        assert code == 0
        levels = json.loads(out)["body"]["index"]["levels"]
        code, out, _ = run(capsys, "monotonicity", "--method", "hpm", "--obs", obs,
                           "--format", "json", *data)
        assert code in (0, 4)
        before = {c["period"]: c["level_before"] for c in json.loads(out)["body"]["comparisons"]}
        assert len(levels) == (12 if generated else 2) and len(before) == len(levels) - 1
        assert before == {p: level for p, level in levels.items() if p in before}


class TestColumnarPath:
    """The commands read the dataset's columns and never build a SaleObservation."""

    def test_commands_build_no_records(self, capsys, tmp_path, monkeypatch):
        generated = str(generated_csv(tmp_path / "gen.csv"))
        inputs = [
            ("29", []),
            ("100", ["--data", generated, "--extra-columns", "age_years",
                     "--regressors", "area,aspect_ratio,age_years"]),
        ]

        def forbid(self, *args, **kwargs):
            raise AssertionError("a SaleObservation was built")

        monkeypatch.setattr(SaleObservation, "__init__", forbid)
        with pytest.raises(AssertionError, match="SaleObservation"):
            artindex.load_bundled_dataset().by_id("1")
        for obs, data in inputs:
            commands = [("fit", "--format", "json")]
            for method in ("npgm", "hpm"):
                commands += [
                    ("index", "--method", method, "--format", "json"),
                    ("monotonicity", "--method", method, "--obs", obs),
                    ("monotonicity", "--method", method, "--mode", "grid"),
                    ("monotonicity", "--method", method, "--mode", "random",
                     "--trials", "50", "--seed", "1"),
                ]
            for argv in commands:
                code, out, err = run(capsys, *argv, *data)
                assert code in (0, 4) and out and err == "", (argv, data, err)


class TestInputMapping:
    @pytest.mark.parametrize(
        "argv",
        [
            ["index", "--price-column", "nope"],
            ["index", "--no-header"],
            ["index", "--decimal-separator", "ab"],
            ["fit", "--id-column", "dataset"],
        ],
        ids=["price-column", "no-header", "decimal-separator", "id-column"],
    )
    def test_mapping_applies_to_the_bundled_file(self, capsys, argv):
        bundled = run(capsys, *argv)
        named = run(capsys, *argv, "--data", str(artindex.bundled_data_path()))
        assert bundled == named
        assert bundled[:2] == (3, "") and bundled[2].startswith("error: ")


    def test_repeated_price_column_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "repeated.csv"
        path.write_text(
            "id,dataset,price_usd,price_usd,area_cm2,hw_ratio\n"
            "1,A,100,999,10,1.0\n2,A,120,999,12,1.1\n3,B,150,999,11,0.9\n4,B,170,999,13,1.2\n"
        )
        code, out, err = run(capsys, "index", "--method", "npgm", "--data", str(path))
        assert (code, out) == (3, "")
        assert err == "error: column 'price_usd' appears more than once in the header\n"

class TestClosedStdout:
    """A reader that leaves early (``artindex ... | head -1``) is not an error."""

    @pytest.mark.parametrize(
        "argv,code",
        [
            (("fit", "--format", "json"), 0),
            (("index", "--format", "plot"), 0),
            (("monotonicity", "--method", "hpm", "--mode", "grid", "--format", "json"), 4),
        ],
    )
    def test_exits_quietly(self, argv, code):
        src = str(Path(artindex.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "artindex.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        # close the only read end before the command writes anything
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (code, b"")


class TestStartup:
    """A command imports only the library modules it runs."""

    PROBE = """
import contextlib, io, json, sys

def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("artindex."))

import artindex
stages = {"package": loaded()}
from artindex import cli
stages["cli"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    npgm = cli.main(["index", "--method", "npgm", "--format", "json"])
    stages["index npgm"] = loaded()
    grid = cli.main(["monotonicity", "--method", "hpm", "--mode", "grid", "--format", "json"])
    stages["monotonicity hpm grid"] = loaded()
print(json.dumps({"codes": [npgm, grid], "stages": stages}))
"""

    def test_each_command_loads_only_what_it_runs(self):
        src = str(Path(artindex.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        result = json.loads(proc.stdout)
        stages = result["stages"]
        assert result["codes"] == [0, 4]
        assert stages["package"] == []
        audit_only = {"monotonicity", "replication", "regression", "kernels"}
        assert not audit_only & set(stages["cli"])
        assert not audit_only & set(stages["index npgm"])
        assert {"monotonicity", "regression"} <= set(stages["monotonicity hpm grid"])


class TestReproduceCommand:
    def test_writes_all_artifacts(self, capsys, tmp_path):
        outdir = tmp_path / "out"
        code, out, _ = run(capsys, "reproduce", "--outdir", str(outdir))
        # the bundled data is known to miss one reference p-value cell by
        # 3e-5 beyond its band, so a faithful harness reports FAIL + exit 3
        assert code == 3
        for name in (
            "unit_prices.csv",
            "hpm_fit_ab.csv",
            "hpm_fit_ac.csv",
            "index_levels_npgm.csv",
            "index_levels_hpm.csv",
            "area_by_dataset.csv",
            "summary.txt",
        ):
            assert (outdir / name).exists(), name
        summary = (outdir / "summary.txt").read_text()
        assert "overall: 20/21 checks passed" in summary
        failing = [line for line in summary.splitlines() if line.startswith("FAIL")]
        assert failing == [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failing) == 1 and "fit_ac_p_values" in failing[0]
        assert "aspect_ratio" in failing[0]

    def test_writing_fits_nothing_the_harness_did_not(self, tmp_path, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        run_replication()
        harness = len(calls)
        calls.clear()
        write_replication_outputs(tmp_path)
        assert len(calls) == harness

    def test_replication_fits_each_dataset_once(self, monkeypatch):
        from artindex import regression, replication

        fitted = []

        def counting_fit(ds, spec):
            fitted.append(ds.periods)
            return fit(ds, spec)

        monkeypatch.setattr(regression, "fit", counting_fit)
        monkeypatch.setattr(replication, "fit", counting_fit)
        run_replication()
        assert fitted == [("A", "B"), ("A", "C")]

    def test_index_plot_files_have_three_periods(self, tmp_path):
        write_replication_outputs(tmp_path)
        for name in ("index_levels_npgm.csv", "index_levels_hpm.csv"):
            lines = (tmp_path / name).read_text().strip().splitlines()
            assert lines[0] == "period,level"
            assert [line.split(",")[0] for line in lines[1:]] == ["A", "B", "C"]

    def test_fit_files_hold_plain_numbers(self, tmp_path, renoir, renoir_ac):
        write_replication_outputs(tmp_path)
        for name, ds in (("hpm_fit_ab.csv", renoir), ("hpm_fit_ac.csv", renoir_ac)):
            result = fit(ds, EXAMPLE_SPEC)
            expected = np.column_stack(
                [
                    result.coefficients,
                    result.standard_errors,
                    result.t_statistics,
                    result.p_values,
                ]
            )
            lines = (tmp_path / name).read_text().strip().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            assert [row[0] for row in rows] == list(result.column_names)
            got = np.array([[float(cell) for cell in row[1:]] for row in rows])
            assert np.array_equal(got, expected)

    def test_area_scatter_has_29_rows(self, tmp_path):
        write_replication_outputs(tmp_path)
        lines = (tmp_path / "area_by_dataset.csv").read_text().strip().splitlines()
        assert lines[0] == "dataset,area_cm2"
        assert len(lines) == 30
        assert lines[1].startswith("A,") and lines[-1].startswith("B,")

    def test_edited_price_fails_fit_ab_check(self, renoir):
        edited = with_price_scaled(renoir, "29", 1.5)
        summary = run_replication(edited)
        by_name = {c.name: c for c in summary.checks}
        assert not by_name["fit_ab_coefficients"].passed
        assert "dummy" in by_name["fit_ab_coefficients"].detail
        assert not by_name["unit_prices"].passed
        assert "obs 29" in by_name["unit_prices"].detail

    @pytest.mark.parametrize("outdir", ["taken", "taken/sub"])
    def test_unwritable_outdir_is_data_error(self, capsys, tmp_path, outdir):
        (tmp_path / "taken").write_text("a file, not a directory\n")
        target = tmp_path / outdir
        code, out, err = run(capsys, "reproduce", "--outdir", str(target))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1

    def test_json_format(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "reproduce", "--outdir", str(tmp_path / "o"), "--format", "json"
        )
        assert code == 3
        body = Report.from_json(out).body
        assert body["passed"] is False
        assert sum(not c["passed"] for c in body["checks"]) == 1


class TestUsage:
    def test_no_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "monotonicity" in out

    @pytest.mark.parametrize("subcommand", ["fit", "monotonicity"])
    def test_plot_format_only_for_index(self, capsys, subcommand):
        code, _, err = run(capsys, subcommand, "--format", "plot")
        assert code == 2
        assert "invalid choice" in err

    def test_bad_multiplier_list_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "monotonicity", "--mode", "grid", "--multipliers", "1.5,abc"
        )
        assert code == 2
        assert "comma-separated numbers" in err
