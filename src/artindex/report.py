"""Report container and serialization for the command-line surface.

Reports hold JSON-ready data (an audit's violations as ``_Records``
columns); equal inputs give equal text, byte for byte. The text
is exactly ``json.dumps(payload, indent=2)``: floats are written as
their shortest representation that round-trips exactly (up to 17
significant digits), spelled ``NaN``/``Infinity``/``-Infinity`` when not
finite. ``Report.to_json`` writes it with ``_indented_json`` rather than
``json.dumps``, because an ``indent`` sends ``json.dumps`` to its
pure-Python generator encoder before Python 3.13. The writer handles
only what artindex writes, exact-type payloads, and builds each
container's text in one ``str.join``: an item that is a scalar of exactly
``str``, ``int``, ``float``, ``bool`` or ``None`` type is written inline
through a type-to-text table, and a container of two or more such
scalars (under ``str`` keys) is written by the stdlib's C encoder, with
``"," + indent`` between its items. A record list (more records than
keys, all under one tuple of ``str`` keys) is written column by column,
each record filled from one ``%`` template: ``_records`` takes the keys
and one column per key, transposed from a list of same-keyed dicts or
kept as columns from the start, as an audit's violations are. Anything
else (a non-``str`` key, a subclass such as ``np.float64``, an unknown
type), and the whole payload on a Python without the C encoder, is
written by ``json.dumps`` itself, with ``_Records`` as lists of dicts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii as _escape
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    from .indexes import IndexSeries
    from .monotonicity import LevelComparison, MonotonicityReport
    from .regression import RegressionResult


@dataclass(frozen=True)
class Report:
    """Command echo, configuration echo, command-specific body, warnings."""

    command: str
    config: dict
    body: dict
    warnings: list[str] = field(default_factory=list)

    def to_json(self) -> str:
        return _indented_json(
            {
                "command": self.command,
                "config": self.config,
                "body": self.body,
                "warnings": self.warnings,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Report":
        payload = json.loads(text)
        return cls(
            command=payload["command"],
            config=payload["config"],
            body=payload["body"],
            warnings=payload["warnings"],
        )


_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# the text of a scalar of exactly one of these types; a subclass (np.float64,
# an IntEnum, a str subclass) is written by json.dumps
_SCALAR_TEXT = {
    str: _escape,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_SCALARS = frozenset(_SCALAR_TEXT)
_STR = frozenset([str])


@lru_cache(maxsize=None)
def _scalar_items(separator: str):
    """The stdlib's C encoder, with ``separator`` between a container's items and no indent.

    Given a list of exact-type scalars it writes ``[a<separator>b]``, and
    given a dict of them under ``str`` keys ``{"k": a<separator>"l": b}``,
    each scalar as ``json.dumps`` does.
    """
    return c_make_encoder(None, None, _escape, None, ": ", separator, False, False, True)


def _column(values) -> list[str]:
    """The text of each exact-type scalar of ``values``, from one C-encoder call."""
    # "\n" between items: strings are ASCII-escaped, so no scalar's text holds one
    return "".join(_scalar_items("\n")(values, 0))[1:-1].split("\n")


@dataclass
class _Records:
    """A record list kept as columns: record ``i`` maps ``keys[j]`` to ``columns[j][i]``."""

    keys: tuple[str, ...]
    columns: Sequence

    def __len__(self) -> int:
        return len(self.columns[0])


def _records(keys, columns, inner: str) -> str:
    """The items, each on ``inner``, of the records under ``str`` keys ``keys``, one column per key.

    One C-encoder call writes a column of exact-type scalars, and one each the keys and values of
    a column of one-item ``{str: scalar}`` dicts; any other column is written item by item.
    """
    inner2, get = inner + "  ", _SCALAR_TEXT.get
    fields, texts = [], []
    for key, column in zip(keys, columns):
        value = "%s"
        if _SCALARS.issuperset(map(type, column)):
            texts.append(_column(column))
        elif (
            set(map(type, column)) == {dict}
            and set(map(len, column)) == {1}
            and _STR.issuperset(map(type, keys := [*chain.from_iterable(column)]))
            and _SCALARS.issuperset(map(type, values := [*chain.from_iterable(map(dict.values, column))]))
        ):
            value = "{" + inner2 + "  %s: %s" + inner2 + "}"
            texts += _column(keys), _column(values)
        else:
            texts.append([f(v) if (f := get(type(v))) else _text(v, inner2) for v in column])
        fields.append(inner2 + _escape(key).replace("%", "%%") + ": " + value)
    template = "{" + ",".join(fields) + inner + "}"
    return ("," + inner).join(map(template.__mod__, zip(*texts)))


def _record_dicts(o) -> list[dict]:
    """``json.dumps``'s ``default``: a ``_Records`` as its list of record dicts."""
    if isinstance(o, _Records):
        return [dict(zip(o.keys, r)) for r in zip(*o.columns)]
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _stdlib_text(o, indent: str) -> str:
    """The text of ``o`` from ``json.dumps``; it escapes every newline in a string, so each one is a line break."""
    return json.dumps(o, indent=2, default=_record_dicts).replace("\n", indent)


def _text(o, indent: str) -> str:
    """The text of ``o``, whose own line starts with ``indent`` (a newline and spaces).

    Only exact-type payloads are written here, each container in one join:
    an item that is an exact-type scalar inline through ``_SCALAR_TEXT``, a
    container of two or more of them (under ``str`` keys) by the C encoder,
    a record list (or ``_Records``) by ``_records``, and any other item by a
    call of its own. Anything else (a non-``str`` key, a scalar subclass, an
    unknown type) is written by ``_stdlib_text``.
    """
    if type(o) is dict:
        if not o:
            return "{}"
        if not _STR.issuperset(map(type, o)):
            return _stdlib_text(o, indent)
        inner = indent + "  "
        if len(o) > 1 and _SCALARS.issuperset(map(type, o.values())):
            return "{" + inner + "".join(_scalar_items("," + inner)(o, 0))[1:-1] + indent + "}"
        get = _SCALAR_TEXT.get
        items = [_escape(k) + ": " + (f(v) if (f := get(type(v))) else _text(v, inner)) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if type(o) is list or type(o) is tuple:
        if not o:
            return "[]"
        inner = indent + "  "
        if len(o) > 1:
            if _SCALARS.issuperset(map(type, o)):
                return "[" + inner + "".join(_scalar_items("," + inner)(o, 0))[1:-1] + indent + "]"
            # by column only where that takes fewer encoder calls than by record
            if type(o[0]) is dict and 0 < len(o[0]) < len(o) and set(map(type, o)) == {dict}:
                if _STR.issuperset(map(type, o[0])) and len(set(map(tuple, o))) == 1:  # a record list
                    return "[" + inner + _records(o[0], zip(*map(dict.values, o)), inner) + indent + "]"
        get = _SCALAR_TEXT.get
        items = [f(v) if (f := get(type(v))) else _text(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    f = _SCALAR_TEXT.get(type(o))
    if f is not None:
        return f(o)
    if isinstance(o, _Records):
        if len(o) > len(o.keys):  # by column where that takes fewer encoder calls
            return "[" + indent + "  " + _records(o.keys, o.columns, indent + "  ") + indent + "]"
        return _text(_record_dicts(o), indent)
    return _stdlib_text(o, indent)


def _indented_json(payload) -> str:
    """``json.dumps(payload, indent=2)`` for a tree, byte for byte; by ``json.dumps`` itself without the C encoder."""
    return _text(payload, "\n") if c_make_encoder else _stdlib_text(payload, "\n")


def index_series_dict(series: IndexSeries) -> dict:
    return {
        "method": series.method,
        "base_period": series.base_period,
        "base_value": series.base_value,
        "levels": {p: float(v) for p, v in series.levels.items()},
    }


def regression_result_dict(result: RegressionResult) -> dict:
    return {
        "terms": [
            {
                "name": name,
                "coefficient": float(result.coefficients[j]),
                "standard_error": float(result.standard_errors[j]),
                "t_statistic": float(result.t_statistics[j]),
                "p_value": float(result.p_values[j]),
            }
            for j, name in enumerate(result.column_names)
        ],
        "n_observations": result.n_observations,
        "degrees_of_freedom": result.degrees_of_freedom,
        "sigma2": float(result.sigma2),
        "r_squared": float(result.r_squared),
        "adjusted_r_squared": float(result.adjusted_r_squared),
        "residuals": result.residuals.tolist(),
        "covariance": result.covariance.tolist(),
    }


def monotonicity_report_dict(
    report: MonotonicityReport,
    comparisons: tuple[LevelComparison, ...] | None = None,
) -> dict:
    from .monotonicity import _violation_columns

    body = {
        "method": report.method,
        "trials": report.trials,
        "compliant": report.compliant,
        "violations": _violation_columns(report.violations),
        "melser_statistic": report.melser_statistic,
    }
    if comparisons is not None:
        body["comparisons"] = [
            {
                "period": c.period,
                "level_before": float(c.level_before),
                "level_after": float(c.level_after),
                "compliant": c.compliant,
            }
            for c in comparisons
        ]
    return body


def render_index_table(series: IndexSeries) -> str:
    lines = [
        f"method: {series.method}    base: {series.base_period} = {series.base_value:g}",
        f"{'period':<10s} {'level':>14s}",
    ]
    for period, level in series.levels.items():
        lines.append(f"{period:<10s} {level:>14.4f}")
    return "\n".join(lines)


def render_index_plot_data(levels: Mapping[str, float]) -> str:
    """``period,level`` CSV text of index levels, each level written to round-trip exactly."""
    return "\n".join(["period,level", *(f"{p},{v!r}" for p, v in levels.items())])


def render_regression_table(result: RegressionResult) -> str:
    lines = [
        f"{'term':<16s} {'coefficient':>13s} {'std. error':>13s} "
        f"{'t stat':>10s} {'p-value':>12s}"
    ]
    for j, name in enumerate(result.column_names):
        lines.append(
            f"{name:<16s} {result.coefficients[j]:>13.6f} "
            f"{result.standard_errors[j]:>13.6g} "
            f"{result.t_statistics[j]:>10.4f} "
            f"{result.p_values[j]:>12.5g}"
        )
    lines.append("")
    lines.append(
        f"observations: {result.n_observations}    "
        f"df: {result.degrees_of_freedom}    "
        f"R^2: {result.r_squared:.4f}    "
        f"adj. R^2: {result.adjusted_r_squared:.4f}    "
        f"sigma^2: {result.sigma2:.6g}"
    )
    return "\n".join(lines)


def render_monotonicity_table(body: dict) -> str:
    lines = [
        f"method: {body['method']}    trials: {body['trials']}    "
        f"compliant: {'yes' if body['compliant'] else 'NO'}"
    ]
    if body.get("melser_statistic") is not None:
        lines.append(f"melser statistic: {body['melser_statistic']:.6f}")
    for cmp in body.get("comparisons", []):
        lines.append(
            f"period {cmp['period']}: level {cmp['level_before']:.4f} -> "
            f"{cmp['level_after']:.4f} "
            f"({'ok' if cmp['compliant'] else 'VIOLATION'})"
        )
    violations = body["violations"]
    if violations:
        lines.append(f"violations ({len(violations)}):")
        for description, period, before, after, _ in zip(*violations.columns):
            lines.append(f"  {description}: period {period} level {before:.4f} -> {after:.4f}")
    return "\n".join(lines)
