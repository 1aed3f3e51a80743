import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import binperiod

PUBLIC = [
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
MODULES = ["cli", "nulldist", "rng", "series", "simulate", "spectral", "theory"]


def test_every_exported_name_resolves():
    missing = [name for name in binperiod.__all__ if not hasattr(binperiod, name)]
    assert missing == []
    assert len(set(binperiod.__all__)) == len(binperiod.__all__)


def test_public_surface_is_pinned():
    assert binperiod.__all__ == PUBLIC
    assert len(PUBLIC) == 34


@pytest.mark.parametrize("name", MODULES)
def test_every_module_export_resolves(name):
    module = importlib.import_module(f"binperiod.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import_runs_with_warnings_as_errors():
    src = str(Path(binperiod.__file__).parent.parent)
    script = f"import sys; sys.path.insert(0, {src!r}); from binperiod import *"
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_package_surface_is_the_modules_lists():
    names = [
        name for module in MODULES for name in importlib.import_module(f"binperiod.{module}").__all__
    ]
    assert len(set(names)) == len(names)
    assert sorted(names) == PUBLIC
