"""Dataset handling: tariff tiers, CSV validation, synthetic generation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from farmbess import (
    DataValidationError,
    HourlyRecord,
    HourlySeries,
    SyntheticProfileConfig,
    TariffSchedule,
    Tier,
    default_tariff,
    generate_synthetic,
    load_csv,
    month_of_hour,
    write_csv,
)
from farmbess.timeseries import diurnal_load_kwh, diurnal_pv_kwh


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------- tariff


def test_default_tariff_partitions_the_day(tariff):
    union = tariff.off_peak_hours | tariff.standard_hours | tariff.peak_hours
    assert union == set(range(24))
    assert len(tariff.off_peak_hours) + len(tariff.standard_hours) + len(tariff.peak_hours) == 24


def test_price_at_night_hour_is_off_peak(tariff):
    assert tariff.price_at(3) == tariff.off_peak_rate


def test_price_at_evening_hour_is_peak(tariff):
    assert tariff.price_at(18) == tariff.peak_rate


def test_price_at_midday_is_standard(tariff):
    assert tariff.price_at(12) == tariff.standard_rate


def test_tier_of_boundary_hours(tariff):
    assert tariff.tier_of(23) is Tier.OFF_PEAK
    assert tariff.tier_of(17) is Tier.PEAK
    assert tariff.tier_of(9) is Tier.STANDARD


def test_tier_of_rejects_out_of_range(tariff):
    with pytest.raises(ValueError):
        tariff.tier_of(24)


def test_price_at_consistent_with_tier_of(tariff):
    rate = {
        Tier.OFF_PEAK: tariff.off_peak_rate,
        Tier.STANDARD: tariff.standard_rate,
        Tier.PEAK: tariff.peak_rate,
    }
    for hour in range(24):
        assert tariff.price_at(hour) == rate[tariff.tier_of(hour)]


def test_tariff_rejects_non_partition():
    with pytest.raises(DataValidationError):
        TariffSchedule(
            off_peak_hours=frozenset({0, 1}),
            standard_hours=frozenset({1, 2}),
            peak_hours=frozenset(range(3, 24)),
            off_peak_rate=0.05,
            standard_rate=0.1,
            peak_rate=0.2,
        )


def test_tariff_rejects_unordered_rates():
    with pytest.raises(DataValidationError):
        default_tariff(off_peak_rate=0.3, standard_rate=0.1, peak_rate=0.2)


# ---------------------------------------------------------------- csv loading


def test_load_csv_year_schema_passthrough(tmp_path, tariff):
    lines = ["hour,load_kwh,pv_kwh,price_per_kwh"]
    for i in range(8760):
        lines.append(f"{i},1.0,0.5,0.1")
    path = _write(tmp_path / "year.csv", "\n".join(lines) + "\n")
    series = load_csv(path)
    assert len(series) == 8760
    assert not series.has_wind
    assert series[25].hour_of_day == 1
    assert series[25].load_kwh == 1.0


def test_load_csv_reports_negative_value_with_row(tmp_path):
    lines = ["hour,load_kwh,pv_kwh,price_per_kwh"]
    for i in range(24):
        load = -1.0 if i == 4 else 2.0
        lines.append(f"{i},{load},0.0,0.1")
    path = _write(tmp_path / "bad.csv", "\n".join(lines) + "\n")
    with pytest.raises(DataValidationError, match=r"negative value at row 5"):
        load_csv(path)


def test_load_csv_fills_price_from_tariff(tmp_path, tariff):
    lines = ["hour,load_kwh,pv_kwh"]
    for i in range(48):
        lines.append(f"{i},1.0,0.0")
    path = _write(tmp_path / "nop.csv", "\n".join(lines) + "\n")
    series = load_csv(path, tariff=tariff)
    for record in series:
        assert record.price_per_kwh == tariff.price_at(record.hour_of_day)
    assert all(r.price_per_kwh == tariff.peak_rate for r in series if r.hour_of_day == 18)


def test_load_csv_requires_tariff_when_price_missing(tmp_path):
    path = _write(tmp_path / "nop.csv", "hour,load_kwh,pv_kwh\n0,1.0,0.0\n")
    with pytest.raises(DataValidationError, match="price_per_kwh"):
        load_csv(path)


def test_load_csv_rejects_unknown_column(tmp_path, tariff):
    path = _write(
        tmp_path / "extra.csv", "hour,load_kwh,pv_kwh,temperature\n0,1.0,0.0,7.0\n"
    )
    with pytest.raises(DataValidationError, match="temperature"):
        load_csv(path, tariff=tariff)


def test_load_csv_rejects_non_contiguous_hours(tmp_path, tariff):
    lines = ["hour,load_kwh,pv_kwh"]
    for i in range(24):
        hour = i + 1 if i >= 12 else i
        lines.append(f"{hour},1.0,0.0")
    path = _write(tmp_path / "gap.csv", "\n".join(lines) + "\n")
    with pytest.raises(DataValidationError, match="non-contiguous hour at row 13"):
        load_csv(path, tariff=tariff)


def test_load_csv_rejects_partial_day(tmp_path, tariff):
    lines = ["hour,load_kwh,pv_kwh"] + [f"{i},1.0,0.0" for i in range(25)]
    path = _write(tmp_path / "short.csv", "\n".join(lines) + "\n")
    with pytest.raises(DataValidationError, match="multiple of 24"):
        load_csv(path, tariff=tariff)


def test_load_csv_missing_file():
    with pytest.raises(FileNotFoundError):
        load_csv("does_not_exist.csv")


def test_load_csv_malformed_cell(tmp_path, tariff):
    path = _write(tmp_path / "junk.csv", "hour,load_kwh,pv_kwh\n0,abc,0.0\n")
    with pytest.raises(DataValidationError, match="row 1"):
        load_csv(path, tariff=tariff)


_DAY = "".join(f"{i},1.0,0.0\n" for i in range(24))


@pytest.mark.parametrize(
    "text, message",
    [
        ("hour,load_kwh,pv_kwh\n0,1.0,x\n", "malformed value 'x' in column pv_kwh at row 1"),
        ("hour,load_kwh,pv_kwh,foo\n0,1.0,0.0,1.0\n", "unexpected column(s): foo"),
        ("hour,load_kwh\n0,1.0\n", "missing required column(s): pv_kwh"),
        ("hour,load_kwh,pv_kwh\n0,1.0\n", "row 1 has 2 fields, expected 3"),
        ("hour,load_kwh,pv_kwh\n1,1.0,0.0\n", "non-contiguous hour at row 1"),
        ("hour,load_kwh,pv_kwh\n" + _DAY + "24,1.0,0.0\n", "multiple of 24"),
    ],
    ids=["malformed-cell", "unknown-column", "missing-column", "field-count",
         "non-contiguous-hour", "partial-day"],
)
def test_load_csv_error_names_the_file(tmp_path, tariff, text, message):
    path = _write(tmp_path / "bad.csv", text)
    with pytest.raises(DataValidationError) as info:
        load_csv(path, tariff=tariff)
    assert str(info.value).startswith(f"{path}: ")
    assert message in str(info.value)


def test_csv_round_trip(tmp_path, synthetic_week):
    path = tmp_path / "week.csv"
    write_csv(synthetic_week, path)
    back = load_csv(path)
    assert back.has_wind
    assert len(back) == len(synthetic_week)
    for a, b in zip(back, synthetic_week):
        assert a == b


# ---------------------------------------------------------------- series type


def test_series_rejects_non_multiple_of_24(tariff):
    with pytest.raises(DataValidationError, match="multiple of 24"):
        HourlySeries(load=[1.0] * 23, pv=[0.0] * 23, wind=None, price=[0.1] * 23)


def test_series_records_follow_row_position():
    series = HourlySeries(load=[1.0] * 48, pv=[0.0] * 48, wind=None, price=[0.1] * 48)
    record = series[25]
    assert (record.hour_index, record.hour_of_day, record.month) == (25, 1, 1)
    assert series.day(1)[1] is record
    assert record == HourlyRecord(25, 1, 1, 1.0, 0.0, None, 0.1)


def test_series_rejects_non_finite_or_negative_column():
    names = {"load": "load_kwh", "pv": "pv_kwh", "wind": "wind_kwh", "price": "price_per_kwh"}
    for column, name in names.items():
        for bad in (math.nan, math.inf, -1.0):
            columns = {c: [1.0] * 24 for c in names}
            columns[column][5] = bad
            with pytest.raises(DataValidationError, match=f"{name} must be finite and >= 0"):
                HourlySeries(**columns)


def test_series_columns_are_read_only(synthetic_week):
    with pytest.raises(ValueError):
        synthetic_week.loads()[0] = 1.0


def test_without_wind_drops_column(synthetic_week):
    bare = synthetic_week.without_wind()
    assert not bare.has_wind
    assert all(r.wind_kwh is None for r in bare)
    assert [r.load_kwh for r in bare] == [r.load_kwh for r in synthetic_week]


def test_month_of_hour_calendar():
    assert month_of_hour(0) == 1
    assert month_of_hour(31 * 24 - 1) == 1
    assert month_of_hour(31 * 24) == 2
    assert month_of_hour(364 * 24) == 12
    # wraps for multi-year series
    assert month_of_hour(365 * 24) == 1


# ---------------------------------------------------------------- synthetic


def test_generate_synthetic_zero_generation(tariff):
    config = SyntheticProfileConfig(
        days=1, pv_peak_kwh=0.0, wind_mean_kwh=0.0, noise_fraction=0.0, rng_seed=3
    )
    series = generate_synthetic(config, tariff)
    assert all(r.pv_kwh == 0.0 for r in series)
    assert all(r.wind_kwh == 0.0 for r in series)


def test_generate_synthetic_deterministic(tariff):
    config = SyntheticProfileConfig(days=3, rng_seed=42)
    a = generate_synthetic(config, tariff)
    b = generate_synthetic(config, tariff)
    assert a == b


def test_generate_synthetic_annual_total_near_closed_form(tariff):
    config = SyntheticProfileConfig(days=365, rng_seed=9)
    series = generate_synthetic(config, tariff)
    # independent accumulation of the documented closed form: base plus two
    # gaussian humps at the milking hours
    closed_form = 0.0
    for h in range(24):
        humps = math.exp(-((h - 6.0) ** 2) / (2 * 1.5**2)) + math.exp(
            -((h - 17.5) ** 2) / (2 * 1.5**2)
        )
        closed_form += config.base_load_kwh + config.load_amplitude_kwh * humps
    closed_form *= 365
    total = float(series.loads().sum())
    assert abs(total - closed_form) / closed_form < 0.20


def test_generate_synthetic_invariants(synthetic_year):
    assert len(synthetic_year) == 8760
    assert synthetic_year.has_wind
    for r in synthetic_year:
        assert r.hour_of_day == r.hour_index % 24
        assert r.load_kwh >= 0 and r.pv_kwh >= 0 and r.wind_kwh >= 0


def test_generate_synthetic_pv_zero_at_night(synthetic_year):
    for r in synthetic_year:
        if r.hour_of_day <= 5 or r.hour_of_day >= 21:
            assert r.pv_kwh == 0.0


def test_diurnal_profiles_match_generator_shape():
    config = SyntheticProfileConfig(days=1, noise_fraction=0.0, rng_seed=0)
    series = generate_synthetic(config, default_tariff())
    for r in series:
        assert r.load_kwh == pytest.approx(diurnal_load_kwh(config, r.hour_of_day))
        assert r.pv_kwh == pytest.approx(diurnal_pv_kwh(config, r.hour_of_day))


def test_synthetic_config_validation():
    with pytest.raises(DataValidationError):
        SyntheticProfileConfig(days=0)
    with pytest.raises(DataValidationError):
        SyntheticProfileConfig(noise_fraction=1.0)


@given(st.integers(min_value=0, max_value=10_000_000))
def test_month_of_hour_always_valid(hour_index):
    assert 1 <= month_of_hour(hour_index) <= 12
