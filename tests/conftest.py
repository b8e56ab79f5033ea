"""Shared fixtures: the default tariff, the checked-in deterministic toy day,
and its battery spec."""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

# When a Hypothesis test fails, its pytest plugin imports this module to print
# a patch. The import pulls in libcst, which warns DeprecationWarning; under
# `filterwarnings = ["error"]` that aborts the session and no later test runs.
# Importing it once here, with that warning ignored, leaves the plugin's later
# import a no-op and every other warning still an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from farmbess import (
    BatterySpec,
    HourlySeries,
    SyntheticProfileConfig,
    TariffSchedule,
    default_tariff,
    generate_synthetic,
    load_csv,
)

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def tariff() -> TariffSchedule:
    return default_tariff()


@pytest.fixture(scope="session")
def toy_tariff() -> TariffSchedule:
    """Tariff the toy day's price column was generated from."""
    return default_tariff(off_peak_rate=0.05, standard_rate=0.15, peak_rate=0.50)


@pytest.fixture(scope="session")
def toy_spec() -> BatterySpec:
    """Battery whose rates and reserve sit exactly on the 11-level lattice of
    a 10 kWh pack, so day trajectories stay on integer energies."""
    return BatterySpec(
        capacity_kwh=10.0,
        charge_rate_kw=1.0,
        discharge_rate_kw=10.0,
        reserve_fraction=0.1,
        soc_levels=11,
    )


@pytest.fixture(scope="session")
def toy_day(toy_tariff) -> HourlySeries:
    return load_csv(DATA_DIR / "toy_day.csv", tariff=toy_tariff)


@pytest.fixture(scope="session")
def synthetic_year(tariff) -> HourlySeries:
    """The shipped synthetic year: seeded, with wind."""
    return generate_synthetic(SyntheticProfileConfig(days=365, rng_seed=11), tariff)


@pytest.fixture(scope="session")
def synthetic_week(tariff) -> HourlySeries:
    return generate_synthetic(SyntheticProfileConfig(days=7, rng_seed=5), tariff)
