"""Rule-based controllers: action rules, charge-source discipline."""

from __future__ import annotations

from farmbess import (
    Action,
    BaselineKind,
    BatterySpec,
    HourlyRecord,
    baseline_decision,
    month_of_hour,
)
from farmbess.evaluation import baseline_controller, rollout

POWERWALL = BatterySpec()
MSC, TOU, NO_BATTERY = BaselineKind.MSC, BaselineKind.TOU, BaselineKind.NO_BATTERY


def _record(load, pv, hour=0, wind=None, price=0.1):
    return HourlyRecord(
        hour_index=hour,
        hour_of_day=hour % 24,
        month=month_of_hour(hour),
        load_kwh=float(load),
        pv_kwh=float(pv),
        wind_kwh=wind,
        price_per_kwh=price,
    )


def _decide(kind, record, energy, tariff):
    return baseline_decision(kind, record, energy, POWERWALL, tariff)


# ---------------------------------------------------------------- msc


def test_msc_stores_surplus(tariff):
    assert _decide(MSC, _record(5, 8), 10.0, tariff) == (Action.CHARGE, 3.0)


def test_msc_discharges_into_deficit(tariff):
    assert _decide(MSC, _record(5, 2), 6.75, tariff) == (Action.DISCHARGE, None)


def test_msc_idles_on_exact_balance(tariff):
    assert _decide(MSC, _record(4, 4), 6.75, tariff) == (Action.IDLE, None)


def test_msc_idles_when_full(tariff):
    assert _decide(MSC, _record(2, 8), 13.5, tariff) == (Action.IDLE, None)


def test_msc_idles_at_reserve(tariff):
    assert _decide(MSC, _record(8, 1), 1.35, tariff) == (Action.IDLE, None)


def test_msc_counts_wind_in_renewables(tariff):
    assert _decide(MSC, _record(5, 2, wind=4.0), 5.0, tariff) == (Action.CHARGE, 1.0)


def test_msc_cap_is_surplus(tariff):
    # the cap is the surplus when MSC charges; no cap when it does not
    assert _decide(MSC, _record(5, 8), 10.0, tariff) == (Action.CHARGE, 3.0)
    assert _decide(MSC, _record(5, 2), 10.0, tariff) == (Action.DISCHARGE, None)


# ---------------------------------------------------------------- tou


def test_tou_grid_charges_off_peak(tariff):
    assert _decide(TOU, _record(5, 0, hour=2), 6.75, tariff) == (Action.CHARGE, None)


def test_tou_discharges_at_peak_deficit(tariff):
    assert _decide(TOU, _record(8, 1, hour=18), 6.75, tariff) == (Action.DISCHARGE, None)


def test_tou_stores_surplus_during_standard_hours(tariff):
    assert _decide(TOU, _record(4, 6, hour=12), 10.0, tariff) == (Action.CHARGE, 2.0)


def test_tou_holds_on_standard_deficit(tariff):
    assert _decide(TOU, _record(8, 1, hour=12), 10.0, tariff) == (Action.IDLE, None)


def test_tou_idles_when_full_off_peak(tariff):
    assert _decide(TOU, _record(5, 0, hour=1), 13.5, tariff) == (Action.IDLE, None)


def test_tou_idles_at_peak_without_charge(tariff):
    assert _decide(TOU, _record(8, 0, hour=17), 1.35, tariff) == (Action.IDLE, None)


# ---------------------------------------------------------------- no battery


def test_no_battery_always_idle(tariff):
    assert _decide(NO_BATTERY, _record(99, 0), 13.5, tariff) == (Action.IDLE, None)
    assert _decide(NO_BATTERY, _record(2, 8, hour=2), 0.0, tariff) == (Action.IDLE, None)


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
    expected = sum(
        max(0.0, r.load_kwh - r.renewables_kwh) * r.price_per_kwh
        for r in synthetic_week
    )
    assert abs(report.total_cost - expected) / expected < 1e-9


# ---------------------------------------------------------------- rollout discipline


def test_msc_never_grid_charges_over_a_year(synthetic_year, tariff):
    report = rollout(
        baseline_controller(MSC, POWERWALL, tariff),
        synthetic_year, POWERWALL, initial_soc_level=1, label="msc",
    )
    assert len(report.grid_import_kwh) == len(synthetic_year)
    for grid_import, record in zip(report.grid_import_kwh, synthetic_year):
        deficit = max(0.0, record.load_kwh - record.renewables_kwh)
        assert grid_import <= deficit + 1e-9


def test_tou_grid_charges_only_off_peak(synthetic_year, tariff):
    report = rollout(
        baseline_controller(TOU, POWERWALL, tariff),
        synthetic_year, POWERWALL, initial_soc_level=1, label="tou",
    )
    assert len(report.grid_import_kwh) == len(synthetic_year)
    for grid_import, record in zip(report.grid_import_kwh, synthetic_year):
        deficit = max(0.0, record.load_kwh - record.renewables_kwh)
        if grid_import > deficit + 1e-9:
            assert record.hour_of_day in tariff.off_peak_hours


def test_baseline_decision_bundles_action_and_cap(tariff):
    record = _record(2, 8, hour=12)
    assert _decide(MSC, record, 5.0, tariff) == (Action.CHARGE, 6.0)
    assert _decide(NO_BATTERY, record, 5.0, tariff) == (Action.IDLE, None)
