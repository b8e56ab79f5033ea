"""Rule-based controllers: action rules, charge-source discipline."""

from __future__ import annotations

from farmbess import (
    Action,
    BaselineKind,
    BatterySpec,
    baseline_decision,
)
from farmbess.evaluation import baseline_controller, rollout

POWERWALL = BatterySpec()
MSC, TOU, NO_BATTERY = BaselineKind.MSC, BaselineKind.TOU, BaselineKind.NO_BATTERY


def _hour(load, pv, hour=0, wind=None):
    """(load, renewables, hour of day) of one hour."""
    return float(load), float(pv) + (0.0 if wind is None else wind), hour % 24


def _decide(kind, hour, energy, tariff):
    load, renewables, hour_of_day = hour
    return baseline_decision(
        kind, load, renewables, tariff.tier_of(hour_of_day), energy, POWERWALL
    )


# ---------------------------------------------------------------- msc


def test_msc_stores_surplus(tariff):
    assert _decide(MSC, _hour(5, 8), 10.0, tariff) == (Action.CHARGE, 3.0)


def test_msc_discharges_into_deficit(tariff):
    assert _decide(MSC, _hour(5, 2), 6.75, tariff) == (Action.DISCHARGE, None)


def test_msc_idles_on_exact_balance(tariff):
    assert _decide(MSC, _hour(4, 4), 6.75, tariff) == (Action.IDLE, None)


def test_msc_idles_when_full(tariff):
    assert _decide(MSC, _hour(2, 8), 13.5, tariff) == (Action.IDLE, None)


def test_msc_idles_at_reserve(tariff):
    assert _decide(MSC, _hour(8, 1), 1.35, tariff) == (Action.IDLE, None)


def test_msc_counts_wind_in_renewables(tariff):
    assert _decide(MSC, _hour(5, 2, wind=4.0), 5.0, tariff) == (Action.CHARGE, 1.0)


def test_msc_cap_is_surplus(tariff):
    # the cap is the surplus when MSC charges; no cap when it does not
    assert _decide(MSC, _hour(5, 8), 10.0, tariff) == (Action.CHARGE, 3.0)
    assert _decide(MSC, _hour(5, 2), 10.0, tariff) == (Action.DISCHARGE, None)


# ---------------------------------------------------------------- tou


def test_tou_grid_charges_off_peak(tariff):
    assert _decide(TOU, _hour(5, 0, hour=2), 6.75, tariff) == (Action.CHARGE, None)


def test_tou_discharges_at_peak_deficit(tariff):
    assert _decide(TOU, _hour(8, 1, hour=18), 6.75, tariff) == (Action.DISCHARGE, None)


def test_tou_stores_surplus_during_standard_hours(tariff):
    assert _decide(TOU, _hour(4, 6, hour=12), 10.0, tariff) == (Action.CHARGE, 2.0)


def test_tou_holds_on_standard_deficit(tariff):
    assert _decide(TOU, _hour(8, 1, hour=12), 10.0, tariff) == (Action.IDLE, None)


def test_tou_idles_when_full_off_peak(tariff):
    assert _decide(TOU, _hour(5, 0, hour=1), 13.5, tariff) == (Action.IDLE, None)


def test_tou_idles_at_peak_without_charge(tariff):
    assert _decide(TOU, _hour(8, 0, hour=17), 1.35, tariff) == (Action.IDLE, None)


# ---------------------------------------------------------------- no battery


def test_no_battery_always_idle(tariff):
    assert _decide(NO_BATTERY, _hour(99, 0), 13.5, tariff) == (Action.IDLE, None)
    assert _decide(NO_BATTERY, _hour(2, 8, hour=2), 0.0, tariff) == (Action.IDLE, None)


def test_no_battery_rollout_constant_energy(synthetic_week, tariff):
    report = rollout(
        baseline_controller(NO_BATTERY, POWERWALL, tariff), synthetic_week, POWERWALL,
        initial_soc_level=5, label="nb",
    )
    assert len(report.soc_after) == len(synthetic_week)
    assert all(energy == 6.75 for energy in report.soc_after)


def test_no_battery_cost_closed_form(synthetic_week, tariff):
    report = rollout(
        baseline_controller(NO_BATTERY, POWERWALL, tariff), synthetic_week, POWERWALL,
        initial_soc_level=1, label="nb",
    )
    week = synthetic_week
    expected = sum(
        max(0.0, load - renewables) * price
        for load, renewables, price in zip(week.load, week.renewables, week.price)
    )
    assert abs(report.total_cost - expected) / expected < 1e-9


# ---------------------------------------------------------------- rollout discipline


def test_msc_never_grid_charges_over_a_year(synthetic_year, tariff):
    report = rollout(
        baseline_controller(MSC, POWERWALL, tariff),
        synthetic_year, POWERWALL, initial_soc_level=1, label="msc",
    )
    assert len(report.grid_import_kwh) == len(synthetic_year)
    deficits = synthetic_year.load - synthetic_year.renewables
    for grid_import, deficit in zip(report.grid_import_kwh, deficits):
        assert grid_import <= max(0.0, deficit) + 1e-9


def test_tou_grid_charges_only_off_peak(synthetic_year, tariff):
    report = rollout(
        baseline_controller(TOU, POWERWALL, tariff),
        synthetic_year, POWERWALL, initial_soc_level=1, label="tou",
    )
    assert len(report.grid_import_kwh) == len(synthetic_year)
    deficits = synthetic_year.load - synthetic_year.renewables
    for i, (grid_import, deficit) in enumerate(zip(report.grid_import_kwh, deficits)):
        if grid_import > max(0.0, deficit) + 1e-9:
            assert i % 24 in tariff.off_peak_hours


def test_baseline_controller_decides_each_hour_by_its_values(synthetic_week, tariff):
    week = synthetic_week
    energies = (0.0, 1.35, 6.75, 13.5)
    for kind in BaselineKind:
        decide = baseline_controller(kind, POWERWALL, tariff)(week)
        for i in range(len(week)):
            hour = (float(week.load[i]), float(week.renewables[i]), i % 24)
            for energy in energies:
                assert decide(i, energy) == _decide(kind, hour, energy, tariff)


def test_baseline_decision_bundles_action_and_cap(tariff):
    hour = _hour(2, 8, hour=12)
    assert _decide(MSC, hour, 5.0, tariff) == (Action.CHARGE, 6.0)
    assert _decide(NO_BATTERY, hour, 5.0, tariff) == (Action.IDLE, None)
