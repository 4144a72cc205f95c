"""Seeded synthetic sale records in the bundled CSV column layout.

Every file has the columns of the bundled Renoir data
(``id,dataset,price_usd,area_cm2,hw_ratio``) plus one extra numeric
characteristic, ``age_years``, which the panel fits use as a third
regressor. Log price follows a hedonic model with period effects::

    ln price = 11.5 + 0.0004 area + 0.8 hw_ratio + 0.01 age + delta_q + e

``area_trend`` ties area to the period: the log of the mean area rises
by that much per period. A strong trend is what gives some sales in a
later period a negative weight in the time-dummy index, so that raising
their price lowers the hedonic level (the paper's monotonicity failure).
Rows are grouped by period, so the first period is the base period.
"""

from __future__ import annotations

import string
from pathlib import Path

import numpy as np

HEADER = "id,dataset,price_usd,area_cm2,hw_ratio,age_years"
EXTRA_COLUMN = "age_years"


def period_labels(n_periods: int) -> list[str]:
    if not 2 <= n_periods <= 26:
        raise ValueError(f"n_periods must be in 2..26, got {n_periods}")
    return list(string.ascii_uppercase[:n_periods])


def generate_rows(seed: int, n_sales: int, n_periods: int, area_trend: float) -> list[str]:
    """CSV data lines (no header) for ``n_sales`` sales spread over the periods."""
    rng = np.random.default_rng(seed)
    labels = period_labels(n_periods)
    # every period gets at least 3 sales; the rest are spread evenly
    counts = np.full(n_periods, n_sales // n_periods)
    counts[: n_sales % n_periods] += 1
    if counts.min() < 3:
        raise ValueError("need at least 3 sales per period")
    period_effect = np.cumsum(rng.normal(0.05, 0.1, n_periods))
    period_effect -= period_effect[0]

    lines = []
    next_id = 1
    for q, (label, count) in enumerate(zip(labels, counts)):
        log_area = rng.normal(6.3 + area_trend * q, 0.8, count)
        area = np.round(np.clip(np.exp(log_area), 40.0, 20000.0), 2)
        ratio = np.round(rng.uniform(0.4, 1.6, count), 3)
        age = np.round(rng.uniform(0.0, 60.0, count), 1)
        noise = rng.normal(0.0, 0.6, count)
        log_price = (
            11.5 + 0.0004 * area + 0.8 * ratio + 0.01 * age + period_effect[q] + noise
        )
        price = np.maximum(np.round(np.exp(log_price)), 1000.0)
        for j in range(count):
            lines.append(
                f"{next_id},{label},{price[j]:.0f},{area[j]:.2f},{ratio[j]:.3f},{age[j]:.1f}"
            )
            next_id += 1
    return lines


def write_csv(
    path: Path,
    seed: int,
    n_sales: int,
    n_periods: int,
    area_trend: float = 0.0,
    bom: bool = False,
) -> Path:
    """Write one generated file; ``bom`` prefixes a UTF-8 byte-order mark."""
    text = "\n".join([HEADER, *generate_rows(seed, n_sales, n_periods, area_trend)]) + "\n"
    path.write_text(("\ufeff" if bom else "") + text, encoding="utf-8")
    return path
