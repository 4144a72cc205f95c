"""Report container and serialization for the command-line surface.

Reports hold plain JSON-ready data so that serializing and re-parsing
reproduces an equal report, byte for byte given equal inputs. Floats go
through ``json`` unchanged, which serializes the shortest representation
that round-trips exactly (up to 17 significant digits).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

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
        return json.dumps(
            {
                "command": self.command,
                "config": self.config,
                "body": self.body,
                "warnings": self.warnings,
            },
            indent=2,
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
    body = {
        "method": report.method,
        "trials": report.trials,
        "compliant": report.compliant,
        "violations": [
            {
                "description": v.description,
                "period": v.period,
                "level_before": float(v.level_before),
                "level_after": float(v.level_after),
                "perturbation": {k: float(x) for k, x in v.perturbation.increments.items()},
            }
            for v in report.violations
        ],
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
    if body["violations"]:
        lines.append(f"violations ({len(body['violations'])}):")
        for v in body["violations"]:
            lines.append(
                f"  {v['description']}: period {v['period']} level "
                f"{v['level_before']:.4f} -> {v['level_after']:.4f}"
            )
    return "\n".join(lines)
