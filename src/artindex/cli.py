"""Command-line surface.

Subcommands: ``index`` (compute an index series), ``fit`` (run the
hedonic regression and print its table), ``monotonicity`` (audit an
index method against the monotonicity requirement), and ``reproduce``
(recompute the bundled example against the stored reference values).

Exit statuses: 0 success or compliant, 2 usage error, 3 data or model
error, 4 monotonicity violation found. Output is deterministic: equal
inputs and flags produce byte-identical reports (random audits require
an explicit seed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .csvio import InputSchema, bundled_data_path, load_csv
from .domain import Dataset
from .errors import ArtindexError
from .indexes import (
    DEFAULT_BASE_VALUE,
    HPM,
    NPGM,
    hpm_index_from_result,
    hpm_method,
    npgm_index,
    npgm_method,
)
from .monotonicity import (
    DEFAULT_MULTIPLIER_GRID,
    MonotonicityReport,
    Perturbation,
    check_monotonicity,
    melser_diagnostic,
    random_perturbation_audit,
    search_violations,
    violations_from,
)
from .regression import ModelSpec, fit
from .replication import write_replication_outputs
from .report import (
    Report,
    index_series_dict,
    monotonicity_report_dict,
    regression_result_dict,
    render_index_plot_data,
    render_index_table,
    render_monotonicity_table,
    render_regression_table,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_VIOLATION = 4

DEFAULT_REGRESSORS = "area,aspect_ratio"


def _read_config(argv: list[str]) -> dict:
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_usage_error(f"cannot read config file {path}: {exc}"))
    if not isinstance(payload, dict):
        raise SystemExit(_usage_error(f"config file {path} must hold a JSON object"))
    return {str(k).replace("-", "_"): v for k, v in payload.items()}


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _build_parser(config: dict) -> argparse.ArgumentParser:
    def cfg(key, default):
        return config.get(key, default)

    parser = argparse.ArgumentParser(
        prog="artindex",
        description=(
            "Price indexes for heterogeneous asset sales, computed from "
            "normalized-price geometric means or hedonic time dummies, with "
            "monotonicity audits."
        ),
    )
    parser.add_argument(
        "--config",
        help="JSON file whose keys mirror the long option names; "
        "explicit flags take precedence",
    )
    sub = parser.add_subparsers(dest="subcommand")

    data_parent = argparse.ArgumentParser(add_help=False)
    g = data_parent.add_argument_group("input")
    g.add_argument(
        "--data",
        default=cfg("data", None),
        help="input CSV path (default: the bundled Renoir 1989-1990 dataset)",
    )
    g.add_argument("--id-column", default=cfg("id_column", "id"))
    g.add_argument("--period-column", default=cfg("period_column", "dataset"))
    g.add_argument("--price-column", default=cfg("price_column", "price_usd"))
    g.add_argument(
        "--area-column",
        default=cfg("area_column", None),
        help="area column; defaults to area_cm2 unless height/width are mapped",
    )
    g.add_argument("--height-column", default=cfg("height_column", None))
    g.add_argument("--width-column", default=cfg("width_column", None))
    g.add_argument(
        "--ratio-column",
        default=cfg("ratio_column", None),
        help="aspect ratio column; defaults to hw_ratio unless height/width are mapped",
    )
    g.add_argument(
        "--extra-columns",
        default=cfg("extra_columns", ""),
        help="comma-separated extra characteristic columns",
    )
    g.add_argument("--decimal-separator", default=cfg("decimal_separator", "."))
    g.add_argument(
        "--no-header",
        action="store_true",
        default=cfg("no_header", False),
        help="file has no header row; column options are 0-based indexes",
    )

    model_parent = argparse.ArgumentParser(add_help=False)
    model_parent.add_argument(
        "--regressors",
        default=cfg("regressors", DEFAULT_REGRESSORS),
        help="comma-separated characteristics for the hedonic model",
    )

    p_index = sub.add_parser(
        "index",
        parents=[data_parent, model_parent],
        help="compute a price index series",
    )
    p_index.add_argument("--method", choices=[NPGM, HPM], default=cfg("method", NPGM))
    p_index.add_argument("--base", default=cfg("base", None), help="base period (default: first)")
    p_index.add_argument(
        "--base-value", type=float, default=cfg("base_value", DEFAULT_BASE_VALUE)
    )
    p_index.add_argument(
        "--format", choices=["table", "json", "plot"], default=cfg("format", "table")
    )

    p_fit = sub.add_parser(
        "fit",
        parents=[data_parent, model_parent],
        help="fit the hedonic time-dummy regression and report statistics",
    )
    p_fit.add_argument(
        "--reference", default=cfg("reference", None), help="reference period (default: first)"
    )
    p_fit.add_argument(
        "--format", choices=["table", "json"], default=cfg("format", "table")
    )

    p_mono = sub.add_parser(
        "monotonicity",
        parents=[data_parent, model_parent],
        help="audit an index method against the monotonicity requirement",
    )
    p_mono.add_argument("--method", choices=[NPGM, HPM], default=cfg("method", NPGM))
    p_mono.add_argument("--base", default=cfg("base", None))
    p_mono.add_argument(
        "--base-value", type=float, default=cfg("base_value", DEFAULT_BASE_VALUE)
    )
    p_mono.add_argument(
        "--mode", choices=["single", "grid", "random"], default=cfg("mode", "single")
    )
    p_mono.add_argument("--obs", default=cfg("obs", None), help="observation id (single mode)")
    p_mono.add_argument(
        "--multiplier",
        type=float,
        default=cfg("multiplier", 1.5),
        help="price multiplier for single mode (>= 1)",
    )
    p_mono.add_argument(
        "--multipliers",
        default=cfg("multipliers", None),
        help="comma-separated multipliers for grid mode (default: 1.1 to 3.0 by 0.1)",
    )
    p_mono.add_argument("--trials", type=int, default=cfg("trials", 1000))
    p_mono.add_argument(
        "--seed", type=int, default=cfg("seed", None), help="mandatory in random mode"
    )
    p_mono.add_argument(
        "--melser",
        default=cfg("melser", None),
        help="also report the period/characteristic association for this characteristic",
    )
    p_mono.add_argument(
        "--format", choices=["table", "json"], default=cfg("format", "table")
    )

    p_rep = sub.add_parser(
        "reproduce",
        help="recompute the bundled example and verify it against reference values",
    )
    p_rep.add_argument("--outdir", default=cfg("outdir", None), required=cfg("outdir", None) is None)
    p_rep.add_argument(
        "--format", choices=["table", "json"], default=cfg("format", "table")
    )

    return parser


def _schema_from_args(args) -> InputSchema:
    mapped_hw = args.height_column is not None or args.width_column is not None
    area = args.area_column if args.area_column is not None else (None if mapped_hw else "area_cm2")
    ratio = args.ratio_column if args.ratio_column is not None else (None if mapped_hw else "hw_ratio")
    extras = tuple(c.strip() for c in args.extra_columns.split(",") if c.strip())
    return InputSchema(
        id_column=args.id_column,
        period_column=args.period_column,
        price_column=args.price_column,
        area_column=area,
        height_column=args.height_column,
        width_column=args.width_column,
        aspect_ratio_column=ratio,
        extra_columns=extras,
        decimal_separator=args.decimal_separator,
        has_header=not args.no_header,
    )


def _load_dataset(args) -> tuple[Dataset, str]:
    if args.data is None:
        return load_csv(bundled_data_path()), "bundled"
    return load_csv(Path(args.data), schema=_schema_from_args(args)), args.data


def _parse_regressors(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _model_spec(args, reference: str) -> ModelSpec:
    return ModelSpec(reference_period=reference, regressors=_parse_regressors(args.regressors))


def _emit(report: Report, table_text: str, fmt: str) -> None:
    print(report.to_json() if fmt == "json" else table_text)


def _cmd_index(args) -> int:
    ds, data_label = _load_dataset(args)
    base = args.base if args.base is not None else ds.periods[0]
    config = {
        "data": data_label,
        "method": args.method,
        "base": base,
        "base_value": args.base_value,
        "regressors": list(_parse_regressors(args.regressors)),
        "format": args.format,
    }
    if args.method == NPGM:
        series = npgm_index(ds, base, args.base_value)
        body = {"index": index_series_dict(series)}
        table = render_index_table(series)
    else:
        spec = _model_spec(args, base)
        result = fit(ds, spec)
        series = hpm_index_from_result(result, ds, spec, args.base_value)
        body = {
            "index": index_series_dict(series),
            "regression": regression_result_dict(result),
        }
        table = render_index_table(series) + "\n\n" + render_regression_table(result)
    if args.format == "plot":
        print(render_index_plot_data(series))
        return EXIT_OK
    _emit(Report(command="index", config=config, body=body), table, args.format)
    return EXIT_OK


def _cmd_fit(args) -> int:
    ds, data_label = _load_dataset(args)
    reference = args.reference if args.reference is not None else ds.periods[0]
    spec = _model_spec(args, reference)
    result = fit(ds, spec)
    config = {
        "data": data_label,
        "regressors": list(spec.regressors),
        "reference": reference,
        "format": args.format,
    }
    report = Report(command="fit", config=config, body={"regression": regression_result_dict(result)})
    _emit(report, render_regression_table(result), args.format)
    return EXIT_OK


def _cmd_monotonicity(args, parser: argparse.ArgumentParser) -> int:
    ds, data_label = _load_dataset(args)
    base = args.base if args.base is not None else ds.periods[0]
    if args.method == NPGM:
        method = npgm_method(base, args.base_value)
    else:
        method = hpm_method(_model_spec(args, base), args.base_value)

    config = {
        "data": data_label,
        "method": args.method,
        "base": base,
        "base_value": args.base_value,
        "regressors": list(_parse_regressors(args.regressors)),
        "mode": args.mode,
        "format": args.format,
    }
    comparisons = None
    if args.mode == "single":
        if args.obs is None:
            parser.error("--obs is required in single mode")
        if args.multiplier < 1:
            parser.error("--multiplier must be >= 1")
        config["obs"] = args.obs
        config["multiplier"] = args.multiplier
        target = ds.by_id(args.obs)
        pert = Perturbation({args.obs: target.price * (args.multiplier - 1.0)})
        comparisons = check_monotonicity(ds, method, pert)
        violations = violations_from(
            f"obs {args.obs} price x{args.multiplier:g}", comparisons, pert
        )
        mono = MonotonicityReport(method=args.method, trials=1, violations=violations)
    elif args.mode == "grid":
        if args.multipliers is None:
            grid = DEFAULT_MULTIPLIER_GRID
        else:
            try:
                grid = tuple(float(m) for m in args.multipliers.split(",") if m.strip())
            except ValueError:
                parser.error(f"--multipliers must be comma-separated numbers, got {args.multipliers!r}")
        config["multipliers"] = list(grid)
        mono = search_violations(ds, method, grid)
    else:
        if args.seed is None:
            parser.error("--seed is required in random mode")
        config["trials"] = args.trials
        config["seed"] = args.seed
        mono = random_perturbation_audit(ds, method, args.trials, args.seed)

    if args.melser is not None:
        config["melser"] = args.melser
        others = [p for p in ds.periods if p != base]
        if len(others) != 1:
            raise ArtindexError(
                "the association diagnostic needs exactly two periods "
                f"(base plus one), dataset has {len(ds.periods)}"
            )
        mono = dataclasses.replace(
            mono, melser_statistic=melser_diagnostic(ds, args.melser, base, others[0])
        )

    body = monotonicity_report_dict(mono, comparisons)
    report = Report(command="monotonicity", config=config, body=body)
    _emit(report, render_monotonicity_table(body), args.format)
    return EXIT_OK if mono.compliant else EXIT_VIOLATION


def _cmd_reproduce(args) -> int:
    summary = write_replication_outputs(args.outdir)
    if args.format == "json":
        report = Report(
            command="reproduce",
            config={"outdir": str(args.outdir), "format": args.format},
            body={
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in summary.checks
                ],
                "passed": summary.passed,
                "output_dir": str(args.outdir),
            },
        )
        print(report.to_json())
    else:
        print("\n".join(summary.lines()))
    return EXIT_OK if summary.passed else EXIT_DATA


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = _read_config(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    parser = _build_parser(config)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.subcommand == "index":
            return _cmd_index(args)
        if args.subcommand == "fit":
            return _cmd_fit(args)
        if args.subcommand == "monotonicity":
            return _cmd_monotonicity(args, parser)
        return _cmd_reproduce(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ArtindexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
