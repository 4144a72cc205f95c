"""Command-line surface.

Subcommands: ``index`` (compute an index series), ``fit`` (run the
hedonic regression and print its table), ``monotonicity`` (audit an
index method against the monotonicity requirement), and ``reproduce``
(recompute the bundled example against the stored reference values).

``_COMMANDS`` declares each subcommand's options in one table, and
``_parse`` reads the command line against it in one pass: ``--opt value``
or ``--opt=value``, a unique prefix for a subcommand's option (an exact
name beats a prefix), and as a value a negative number (any text that
``float()`` reads) or a text with a space. A usage error prints a usage
line and ``artindex[ COMMAND]: error: ...`` and exits 2; ``-h``/``--help``
prints the table. A JSON config file, ``--config FILE`` spelled out in
full before the subcommand, supplies option values under the long option
names: each entry becomes the token ``--key=value`` (``--key`` for true;
null and false leave the option unset) right after the subcommand, so
values are parsed exactly like flags and a bad one is a usage error. Keys
the subcommand has no option for are ignored, and explicit flags win.

Exit statuses: 0 success or compliant, 2 usage error, 3 data or model
error, 4 monotonicity violation found. Output is deterministic: equal
inputs and flags produce byte-identical reports (random audits require
an explicit seed). A command imports only the library modules it runs:
the audit, replication and regression code load inside the commands
that call them, so ``index --method npgm`` starts without them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NoReturn

from .csvio import InputSchema, bundled_data_path, load_csv
from .domain import Dataset
from .errors import ArtindexError
from .indexes import (
    DEFAULT_BASE_VALUE, HPM, NPGM, _require_base, hpm_index_from_result, hpm_method, npgm_index, npgm_method,
)
from .report import (
    Report, index_series_dict, monotonicity_report_dict, regression_result_dict, render_index_plot_data,
    render_index_table, render_monotonicity_table, render_regression_table,
)

if TYPE_CHECKING:
    from .regression import ModelSpec

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_VIOLATION = 4

DEFAULT_REGRESSORS = "area,aspect_ratio"


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
        DEFAULT_MULTIPLIER_GRID, MonotonicityReport, Perturbation, check_monotonicity, melser_diagnostic,
        random_perturbation_audit, search_violations, violations_from,
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
        if not args.multiplier >= 1:
            _usage_error("--multiplier must be >= 1")
        if not math.isfinite(args.multiplier):
            _usage_error("--multiplier must be finite")
        config.update(obs=args.obs, multiplier=args.multiplier)
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
        config.update(trials=args.trials, seed=args.seed)
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


# One row per option: attribute name (the long option with ``-`` for ``_``),
# default (``...``: required), converter (``None``: a flag, true when given),
# choices and help.
_DATA_OPTIONS = (
    ("data", None, str, (), "input CSV path (default: the bundled Renoir 1989-1990 dataset)"),
    ("id_column", "id", str, (), "observation id column"),
    ("period_column", "dataset", str, (), "period column"),
    ("price_column", "price_usd", str, (), "price column"),
    ("area_column", None, str, (), "area column; defaults to area_cm2 unless height/width are mapped"),
    ("height_column", None, str, (), "height column; with --width-column, area and ratio are derived"),
    ("width_column", None, str, (), "width column"),
    ("ratio_column", None, str, (), "aspect ratio column; defaults to hw_ratio unless height/width are mapped"),
    ("extra_columns", "", str, (), "comma-separated extra characteristic columns"),
    ("decimal_separator", ".", str, (), "decimal separator of the numeric cells"),
    ("no_header", False, None, (), "file has no header row; column options are 0-based indexes"),
    ("regressors", DEFAULT_REGRESSORS, str, (), "comma-separated characteristics for the hedonic model"),
)
_INDEX_OPTIONS = (
    ("method", NPGM, str, (NPGM, HPM), "index method"),
    ("base", None, str, (), "base period (default: first)"),
    ("base_value", DEFAULT_BASE_VALUE, float, (), "index level of the base period"),
)
_AUDIT_OPTIONS = (
    ("mode", "single", str, ("single", "grid", "random"), "perturbation scheme"),
    ("obs", None, str, (), "observation id (single mode)"),
    ("multiplier", 1.5, float, (), "price multiplier for single mode (>= 1)"),
    ("multipliers", None, str, (), "comma-separated multipliers for grid mode (default: 1.1 to 3.0 by 0.1)"),
    ("trials", 1000, int, (), "number of random trials"),
    ("seed", None, int, (), "mandatory in random mode"),
    ("melser", None, str, (), "also report the period/characteristic association for this characteristic"),
)
_FORMAT = ("format", "table", str, ("table", "json"), "output format")
_COMMANDS = {  # name: (command, help, option rows)
    "index": (_cmd_index, "compute a price index series", (
        *_DATA_OPTIONS, *_INDEX_OPTIONS, ("format", "table", str, ("table", "json", "plot"), "output format"))),
    "fit": (_cmd_fit, "fit the hedonic time-dummy regression and report statistics", (
        *_DATA_OPTIONS, ("reference", None, str, (), "reference period (default: first)"), _FORMAT)),
    "monotonicity": (_cmd_monotonicity, "audit an index method against the monotonicity requirement", (
        *_DATA_OPTIONS, *_INDEX_OPTIONS, *_AUDIT_OPTIONS, _FORMAT)),
    "reproduce": (_cmd_reproduce, "recompute the bundled example and verify it against reference values", (
        ("outdir", ..., str, (), "directory the output files are written to"), _FORMAT)),
}
_TOP = (None, "Price indexes for heterogeneous asset sales, computed from normalized-price geometric\nmeans "
        "or hedonic time dummies, with monotonicity audits. Options may be abbreviated.",
        (("config", None, str, (), "JSON file of option values by long name; explicit flags take precedence"),))
# the option strings of the top level (None) and of each subcommand, mapped to their rows
_OPTIONS = {name: dict.fromkeys(("-h", "--help")) | {"--" + row[0].replace("_", "-"): row for row in rows}
            for name, (_, _, rows) in {None: _TOP, **_COMMANDS}.items()}
_TOP_USAGE = "usage: artindex [-h] [--config CONFIG] {index,fit,monotonicity,reproduce} ..."


def _usage(command: str | None) -> str:
    return _TOP_USAGE if command is None else f"usage: artindex {command} [-h] [options]"


def _usage_error(message: str, command: str | None = None) -> NoReturn:
    prog = "artindex" if command is None else f"artindex {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _exit_with_help(command: str | None) -> NoReturn:
    """Print the usage, the description, and every option with its help, choices and default; exit 0."""
    _, description, rows = _COMMANDS.get(command, _TOP)
    sections = {} if command else {"commands": [(name, entry[1]) for name, entry in _COMMANDS.items()]}
    sections["options"] = [("-h, --help", "show this help message and exit")]
    for name, default, convert, choices, text in rows:
        value = convert.__name__.upper() if convert in (int, float) else name.rpartition("_")[2].upper()
        value = "{" + ",".join(choices) + "}" if choices else value if convert else ""
        if default not in (None, False, ""):
            text += " (required)" if default is ... else f" (default: {default})"
        sections["options"].append((f"--{name.replace('_', '-')} {value}".rstrip(), text))
    lines = [_usage(command), "", description]
    for title, pairs in sections.items():
        width = max(len(left) for left, _ in pairs)
        lines += ["", f"{title}:", *(f"  {left:<{width}}  {text}" for left, text in pairs)]
    _print("\n".join(lines))
    raise SystemExit(EXIT_OK)


def _option(token: str, command: str | None) -> tuple[str, str | None] | None:
    """The option ``token`` names (``""`` if unknown) and its ``=`` value, or None for a value."""
    options = _OPTIONS[command]
    if not token.startswith("-") or token == "-":
        return None
    if token in options:
        return token, None
    name, equals, value = token.partition("=")
    value = value if equals else None
    if equals and name in options:
        return name, value
    if command is not None and name.startswith("--") and name != "--":  # a prefix
        matches = [option for option in options if option.startswith(name)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {token} could match {', '.join(matches)}", command)
        if matches:
            return matches[0], value
    if " " in token:  # a text with a space is a value
        return None
    try:  # so is a negative number, any text float() reads ("-1e5", "-inf")
        float(token)
    except ValueError:
        return "", None
    return None


def _read(tokens: list[str], command: str | None, values: dict, extras: list[str]) -> list[str]:
    """Read ``tokens`` into ``values`` (by attribute) and unknown options into ``extras``;
    at the top level (``command`` None), stop at the subcommand and return the tokens from it on."""
    j = 0
    while j < len(tokens):
        token, j = tokens[j], j + 1
        option, value = _option(token, command) or (None, None)
        if option is None and command is None:
            return tokens[j - 1 :]
        if not option:
            extras.append(token)
            continue
        if option in ("-h", "--help"):
            _exit_with_help(command)
        name, _, convert, choices, _ = _OPTIONS[command][option]
        if convert is None and value is not None:
            _usage_error(f"argument {option}: ignored explicit argument {value!r}", command)
        if convert is not None and value is None:
            if j == len(tokens) or _option(tokens[j], command) is not None:
                _usage_error(f"argument {option}: expected one argument", command)
            value, j = tokens[j], j + 1
        try:
            value = values[name] = True if convert is None else convert(value)
        except ValueError:
            _usage_error(f"argument {option}: invalid {convert.__name__} value: {value!r}", command)
        if choices and value not in choices:
            choices = ", ".join(map(repr, choices))
            _usage_error(f"argument {option}: invalid choice: {value!r} (choose from {choices})", command)
    return []


def _parse(argv: list[str]) -> SimpleNamespace:
    """The parsed command line: ``config``, ``subcommand``, ``run`` and one attribute per option."""
    top, extras = {"config": None}, []
    rest = _read(argv, None, top, extras)
    path, config = top["config"], {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                config = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            _usage_error(f"cannot read config file {path}: {exc}")
        if not isinstance(config, dict):
            _usage_error(f"config file {path} must hold a JSON object")
    if not rest:
        if extras:
            _usage_error(f"unrecognized arguments: {' '.join(extras)}")
        sys.stderr.write(_TOP_USAGE + "\n")
        raise SystemExit(EXIT_USAGE)
    command, tokens = rest[0], []
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(f"argument subcommand: invalid choice: {command!r} (choose from {choices})")
    for key, value in config.items():
        option = "--" + str(key).replace("_", "-")
        if option in _OPTIONS[command] and option != "--help" and value is not None and value is not False:
            if isinstance(value, (list, dict)):
                _usage_error(f"config key {key!r} must be a string, number or boolean")
            tokens.append(option if value is True else f"{option}={value}")
    run, _, rows = _COMMANDS[command]
    values = {row[0]: row[1] for row in rows}
    _read([*tokens, *rest[1:]], command, values, extras)
    missing = [f"--{name.replace('_', '-')}" for name, value in values.items() if value is ...]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}", command)
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(config=path, subcommand=command, run=run, **values)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ArtindexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
