"""Shared fixtures and the printed reference rows of the bundled dataset."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from artindex import load_bundled_dataset, with_period_relabeled, with_price_scaled
from artindex.replication import EXAMPLE_SPEC  # noqa: F401  (re-exported for the test modules)

# printed cells of the bundled Renoir dataset:
# (id, period, price_usd, area_cm2, hw_ratio, unit_price_usd_per_cm2)
TABLE1 = (
    ("1", "A", 105771.0, 74.90, 1.129, 1412.16),
    ("2", "A", 107809.0, 187.00, 0.647, 576.52),
    ("3", "A", 132526.0, 202.16, 1.043, 655.55),
    ("4", "A", 141992.0, 313.50, 1.152, 452.93),
    ("5", "A", 294025.0, 847.00, 0.691, 347.14),
    ("6", "A", 396037.0, 658.56, 0.583, 601.37),
    ("7", "A", 404320.0, 193.04, 1.197, 2094.49),
    ("8", "A", 609276.0, 659.34, 0.595, 924.07),
    ("9", "A", 645281.0, 494.00, 1.368, 1306.24),
    ("10", "A", 738129.0, 2576.00, 0.821, 286.54),
    ("11", "A", 738354.0, 535.60, 1.262, 1378.55),
    ("12", "A", 823315.0, 645.00, 1.395, 1276.46),
    ("13", "A", 1325251.0, 749.30, 1.161, 1768.65),
    ("14", "A", 2295088.0, 942.50, 1.121, 2435.11),
    ("15", "B", 1401186.0, 3905.00, 1.291, 358.82),
    ("16", "B", 1666029.0, 1346.38, 0.789, 1237.41),
    ("17", "B", 1704025.0, 2882.00, 1.489, 591.26),
    ("18", "B", 2048648.0, 2576.00, 0.821, 795.28),
    ("19", "B", 2213831.0, 1353.00, 1.242, 1636.24),
    ("20", "B", 2419564.0, 3752.00, 0.836, 644.87),
    ("21", "B", 3252946.0, 756.00, 1.313, 4302.84),
    ("22", "B", 3326901.0, 3515.40, 1.206, 946.38),
    ("23", "B", 3658125.0, 1312.00, 1.281, 2788.21),
    ("24", "B", 4453582.0, 2540.92, 1.217, 1752.74),
    ("25", "B", 4453582.0, 8804.25, 0.389, 505.84),
    ("26", "B", 9224292.0, 3597.00, 1.211, 2564.44),
    ("27", "B", 11401170.0, 3499.20, 1.200, 3258.22),
    ("28", "B", 29393641.0, 8100.00, 1.235, 3628.84),
    ("29", "B", 146841502.0, 8892.00, 0.684, 16513.89),
)


def generated_csv(path: Path, n_sales: int = 120, n_periods: int = 4, area_trend: float = 1.0) -> Path:
    """A file from the benchmark's seeded generator (default: 120 sales, 4 periods, area rising)."""
    spec = importlib.util.spec_from_file_location(
        "gen", Path(__file__).parents[1] / "perfbench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.write_csv(path, seed=1, n_sales=n_sales, n_periods=n_periods, area_trend=area_trend)


@pytest.fixture(scope="session")
def renoir():
    """The bundled two-period dataset (A, B)."""
    return load_bundled_dataset()


@pytest.fixture(scope="session")
def renoir_ac(renoir):
    """Dataset A|C: B with observation 29's price raised by half, relabeled C."""
    return with_period_relabeled(with_price_scaled(renoir, "29", 1.5), "B", "C")
