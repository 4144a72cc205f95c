"""Command-line surface.

Subcommands: ``index`` (compute an index series), ``fit`` (run the
hedonic regression and print its table), ``monotonicity`` (audit an
index method against the monotonicity requirement), and ``reproduce``
(recompute the bundled example against the stored reference values).

A JSON config file, ``--config FILE`` spelled out in full before the
subcommand, supplies option values under the long option names: each
entry becomes the token ``--key=value`` (``--key`` for true; null and
false leave the option unset) right after the subcommand, so values are
parsed exactly like flags and a bad one is a usage error. Keys the
subcommand has no option for are ignored, and explicit flags win.

Exit statuses: 0 success or compliant, 2 usage error, 3 data or model
error, 4 monotonicity violation found. Output is deterministic: equal
inputs and flags produce byte-identical reports (random audits require
an explicit seed).

A command imports only the library modules it runs: the audit,
replication and regression code load inside the commands that call
them, so ``index --method npgm`` starts without them.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NoReturn

from .csvio import InputSchema, bundled_data_path, load_csv
from .domain import Dataset
from .errors import ArtindexError
from .indexes import (
    DEFAULT_BASE_VALUE,
    HPM,
    NPGM,
    _require_base,
    hpm_index_from_result,
    hpm_method,
    npgm_index,
    npgm_method,
)
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

if TYPE_CHECKING:
    from .regression import ModelSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_VIOLATION = 4

DEFAULT_REGRESSORS = "area,aspect_ratio"


def _with_config(argv: list[str]) -> list[str]:
    """``argv`` with the entries of leading ``--config FILE`` options as tokens after the subcommand."""
    rest, path = argv, None
    while rest:
        option, equals, value = rest[0].partition("=")
        if option != "--config" or not (equals or len(rest) > 1):
            break
        path, rest = (value, rest[1:]) if equals else (rest[1], rest[2:])
    if path is None:
        return argv
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        _usage_error(f"cannot read config file {path}: {exc}")
    if not isinstance(config, dict):
        _usage_error(f"config file {path} must hold a JSON object")
    commands = _build_parser()[1]
    if not rest or rest[0] not in commands:
        return argv
    options = commands[rest[0]]._option_string_actions
    tokens = []
    for key, value in config.items():
        option = "--" + str(key).replace("_", "-")
        action = options.get(option)
        if action is None or action.dest == "help" or value is None or value is False:
            continue
        if isinstance(value, (list, dict)):
            _usage_error(f"config key {key!r} must be a string, number or boolean")
        tokens.append(option if value is True else f"{option}={value}")
    return [rest[0], *tokens, *rest[1:]]


def _usage_error(message: str) -> NoReturn:
    _build_parser()[0].error(message)


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subcommand parsers by name, built once per process."""
    parser = argparse.ArgumentParser(
        prog="artindex",
        description=(
            "Price indexes for heterogeneous asset sales, computed from "
            "normalized-price geometric means or hedonic time dummies, with "
            "monotonicity audits."
        ),
        allow_abbrev=False,
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
        help="input CSV path (default: the bundled Renoir 1989-1990 dataset)",
    )
    g.add_argument("--id-column", default="id")
    g.add_argument("--period-column", default="dataset")
    g.add_argument("--price-column", default="price_usd")
    g.add_argument(
        "--area-column",
        help="area column; defaults to area_cm2 unless height/width are mapped",
    )
    g.add_argument("--height-column")
    g.add_argument("--width-column")
    g.add_argument(
        "--ratio-column",
        help="aspect ratio column; defaults to hw_ratio unless height/width are mapped",
    )
    g.add_argument(
        "--extra-columns",
        default="",
        help="comma-separated extra characteristic columns",
    )
    g.add_argument("--decimal-separator", default=".")
    g.add_argument(
        "--no-header",
        action="store_true",
        help="file has no header row; column options are 0-based indexes",
    )

    model_parent = argparse.ArgumentParser(add_help=False)
    model_parent.add_argument(
        "--regressors",
        default=DEFAULT_REGRESSORS,
        help="comma-separated characteristics for the hedonic model",
    )

    index_parent = argparse.ArgumentParser(add_help=False)
    index_parent.add_argument("--method", choices=[NPGM, HPM], default=NPGM)
    index_parent.add_argument("--base", help="base period (default: first)")
    index_parent.add_argument("--base-value", type=float, default=DEFAULT_BASE_VALUE)

    p_index = sub.add_parser(
        "index",
        parents=[data_parent, model_parent, index_parent],
        help="compute a price index series",
    )
    p_index.set_defaults(run=_cmd_index)
    p_index.add_argument("--format", choices=["table", "json", "plot"], default="table")

    p_fit = sub.add_parser(
        "fit",
        parents=[data_parent, model_parent],
        help="fit the hedonic time-dummy regression and report statistics",
    )
    p_fit.set_defaults(run=_cmd_fit)
    p_fit.add_argument("--reference", help="reference period (default: first)")
    p_fit.add_argument("--format", choices=["table", "json"], default="table")

    p_mono = sub.add_parser(
        "monotonicity",
        parents=[data_parent, model_parent, index_parent],
        help="audit an index method against the monotonicity requirement",
    )
    p_mono.set_defaults(run=_cmd_monotonicity)
    p_mono.add_argument("--mode", choices=["single", "grid", "random"], default="single")
    p_mono.add_argument("--obs", help="observation id (single mode)")
    p_mono.add_argument(
        "--multiplier",
        type=float,
        default=1.5,
        help="price multiplier for single mode (>= 1)",
    )
    p_mono.add_argument(
        "--multipliers",
        help="comma-separated multipliers for grid mode (default: 1.1 to 3.0 by 0.1)",
    )
    p_mono.add_argument("--trials", type=int, default=1000)
    p_mono.add_argument("--seed", type=int, help="mandatory in random mode")
    p_mono.add_argument(
        "--melser",
        help="also report the period/characteristic association for this characteristic",
    )
    p_mono.add_argument("--format", choices=["table", "json"], default="table")

    p_rep = sub.add_parser(
        "reproduce",
        help="recompute the bundled example and verify it against reference values",
    )
    p_rep.set_defaults(run=_cmd_reproduce)
    p_rep.add_argument("--outdir", required=True)
    p_rep.add_argument("--format", choices=["table", "json"], default="table")

    return parser, sub.choices


def _schema_from_args(args) -> InputSchema:
    mapped_hw = args.height_column is not None or args.width_column is not None
    area = args.area_column if args.area_column is not None else (None if mapped_hw else "area_cm2")
    ratio = args.ratio_column if args.ratio_column is not None else (None if mapped_hw else "hw_ratio")
    return InputSchema(
        id_column=args.id_column,
        period_column=args.period_column,
        price_column=args.price_column,
        area_column=area,
        height_column=args.height_column,
        width_column=args.width_column,
        aspect_ratio_column=ratio,
        extra_columns=_names(args.extra_columns),
        decimal_separator=args.decimal_separator,
        has_header=not args.no_header,
    )


def _load_dataset(args) -> tuple[Dataset, str]:
    path = bundled_data_path() if args.data is None else Path(args.data)
    return load_csv(path, schema=_schema_from_args(args)), args.data or "bundled"


def _names(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _model_spec(args, reference: str) -> ModelSpec:
    from .regression import ModelSpec

    return ModelSpec(reference_period=reference, regressors=_names(args.regressors))


def _print(text: str) -> None:
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed the pipe early (``| head``): the rest of the
        # output, and the final flush at exit, go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(report: Report, table: Callable[[], str], fmt: str) -> None:
    """Print the report as JSON, or the text ``table()`` builds for ``--format table``."""
    _print(report.to_json() if fmt == "json" else table())


def _load_with_base(args) -> tuple[Dataset, str, dict]:
    """The dataset, its base period (default: the first) and the config that index and audits share."""
    ds, data_label = _load_dataset(args)
    base = args.base if args.base is not None else ds.periods[0]
    config = {
        "data": data_label,
        "method": args.method,
        "base": base,
        "base_value": args.base_value,
        "regressors": list(_names(args.regressors)),
    }
    return ds, base, config


def _cmd_index(args) -> int:
    ds, base, config = _load_with_base(args)
    config["format"] = args.format
    if args.method == NPGM:
        series = npgm_index(ds, base, args.base_value)
        body = {"index": index_series_dict(series)}
        table = lambda: render_index_table(series)
    else:
        from .regression import fit

        spec = _model_spec(args, base)
        # the base checks come first, so both methods word a bad base alike
        _require_base(ds, base, args.base_value)
        result = fit(ds, spec)
        series = hpm_index_from_result(result, ds, spec, args.base_value)
        body = {
            "index": index_series_dict(series),
            "regression": regression_result_dict(result),
        }
        table = lambda: render_index_table(series) + "\n\n" + render_regression_table(result)
    if args.format == "plot":
        _print(render_index_plot_data(series.levels))
        return EXIT_OK
    _emit(Report(command="index", config=config, body=body), table, args.format)
    return EXIT_OK


def _cmd_fit(args) -> int:
    from .regression import fit

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
    _emit(report, lambda: render_regression_table(result), args.format)
    return EXIT_OK


def _cmd_monotonicity(args) -> int:
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

    ds, base, config = _load_with_base(args)
    config.update(mode=args.mode, format=args.format)
    if args.method == NPGM:
        method = npgm_method(base, args.base_value)
    else:
        method = hpm_method(_model_spec(args, base), args.base_value)
    comparisons = None
    if args.mode == "single":
        if args.obs is None:
            _usage_error("--obs is required in single mode")
        if args.multiplier < 1:
            _usage_error("--multiplier must be >= 1")
        config["obs"] = args.obs
        config["multiplier"] = args.multiplier
        price = float(ds.price[ds.row(args.obs)])
        pert = Perturbation({args.obs: price * (args.multiplier - 1.0)})
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
                _usage_error(f"--multipliers must be comma-separated numbers, got {args.multipliers!r}")
        config["multipliers"] = list(grid)
        mono = search_violations(ds, method, grid)
    else:
        if args.seed is None:
            _usage_error("--seed is required in random mode")
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
    _emit(report, lambda: render_monotonicity_table(body), args.format)
    return EXIT_OK if mono.compliant else EXIT_VIOLATION


def _cmd_reproduce(args) -> int:
    from .replication import write_replication_outputs

    summary = write_replication_outputs(args.outdir)
    body = {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in summary.checks],
        "passed": summary.passed,
        "output_dir": str(args.outdir),
    }
    config = {"outdir": str(args.outdir), "format": args.format}
    report = Report(command="reproduce", config=config, body=body)
    _emit(report, lambda: "\n".join(summary.lines()), args.format)
    return EXIT_OK if summary.passed else EXIT_DATA


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()[0]
    try:
        args = parser.parse_args(_with_config(argv))
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ArtindexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
