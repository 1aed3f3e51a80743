"""Periodicity testing for binary time series via folded block means.

Fold n observations into d block means, form the max-over-sum ratio of their
periodogram, and decide against the exact closed-form null law. Includes the
limit theory for periodic success profiles and a seeded Monte Carlo engine
for level and power tables.
"""

from .cli import TestReport, run_test
from .nulldist import (
    CriticalValue,
    critical_value,
    p_value,
    sample_limit_statistic,
    tail,
    tail_approx,
)
from .rng import replication_stream, substream
from .series import BinarySeries, FoldedSeries, fold, read_series, write_series
from .simulate import (
    PI_DIGITS,
    PowerEstimate,
    ScenarioSpec,
    build_profile,
    estimate_power,
    iter_table,
    read_scenario,
    simulate_series,
    table_specs,
)
from .spectral import (
    GStatistic,
    fisher_g,
    fisher_g_batch,
    num_frequencies,
    periodogram_batch,
)
from .theory import (
    AsymptoticSummary,
    PeriodicProfile,
    PowerRegime,
    detectability,
    effective_period,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticSummary",
    "BinarySeries",
    "CriticalValue",
    "FoldedSeries",
    "GStatistic",
    "PI_DIGITS",
    "PeriodicProfile",
    "PowerEstimate",
    "PowerRegime",
    "ScenarioSpec",
    "TestReport",
    "build_profile",
    "critical_value",
    "detectability",
    "effective_period",
    "estimate_power",
    "fisher_g",
    "fisher_g_batch",
    "fold",
    "iter_table",
    "num_frequencies",
    "p_value",
    "periodogram_batch",
    "read_scenario",
    "read_series",
    "replication_stream",
    "run_test",
    "sample_limit_statistic",
    "simulate_series",
    "substream",
    "table_specs",
    "tail",
    "tail_approx",
    "write_series",
]
