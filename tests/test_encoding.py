"""State encodings: charge-level binning, value bins, flat-index composition."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from farmbess import (
    BatterySpec,
    BinSpec,
    EncodingKind,
    StateEncoder,
    soc_bin,
    soc_level_energy,
    value_bin,
)

POWERWALL = BatterySpec()  # 13.5 kWh, 11 levels


# ---------------------------------------------------------------- soc_bin


def test_soc_bin_full_battery():
    assert soc_bin(POWERWALL, 13.5) == 10


def test_soc_bin_empty_battery():
    assert soc_bin(POWERWALL, 0.0) == 0


def test_soc_bin_just_below_boundary():
    # 6.74 / 13.5 * 10 = 4.99...
    assert soc_bin(POWERWALL, 6.74) == 4


def test_soc_bin_rejects_out_of_range():
    with pytest.raises(ValueError):
        soc_bin(POWERWALL, 13.6)
    with pytest.raises(ValueError):
        soc_bin(POWERWALL, -0.1)


def test_soc_level_energy_endpoints():
    assert soc_level_energy(POWERWALL, 0) == 0.0
    assert soc_level_energy(POWERWALL, 10) == 13.5
    assert soc_level_energy(POWERWALL, 5) == 6.75


def test_soc_level_energy_rebins_to_same_level():
    for capacity in (13.5, 10.0, 7.2, 21.3, 3.3):
        for levels in (2, 5, 11, 16):
            spec = BatterySpec(capacity_kwh=capacity, soc_levels=levels)
            for level in range(levels):
                assert soc_bin(spec, soc_level_energy(spec, level)) == level


@given(st.floats(min_value=0.0, max_value=13.5, allow_nan=False))
def test_soc_bin_in_range_and_monotone(energy):
    b = soc_bin(POWERWALL, energy)
    assert 0 <= b <= 10
    step = 13.5 / 100
    if energy + step <= 13.5:
        assert soc_bin(POWERWALL, energy + step) >= b


# ---------------------------------------------------------------- value_bin


def test_value_bin_zero():
    assert value_bin(BinSpec(5, 20.0), 0.0) == 0


def test_value_bin_clamps_above_max():
    assert value_bin(BinSpec(5, 20.0), 25.0) == 4


def test_value_bin_interior():
    assert value_bin(BinSpec(5, 20.0), 8.0) == 2


def test_value_bin_boundary_value_goes_up():
    assert value_bin(BinSpec(5, 20.0), 4.0) == 1


def test_bin_spec_validation():
    with pytest.raises(ValueError):
        BinSpec(0, 1.0)
    with pytest.raises(ValueError):
        BinSpec(5, 0.0)


# ---------------------------------------------------------------- encode


def test_encode_hour_soc_origin():
    encoder = StateEncoder(kind=EncodingKind.HOUR_SOC)
    assert encoder.encode(0, 0) == 0


def test_encode_hour_soc_last_state():
    encoder = StateEncoder(kind=EncodingKind.HOUR_SOC)
    assert encoder.encode(23, 10) == 23 * 11 + 10 == 263


def test_encode_rejects_out_of_range_coordinates():
    encoder = StateEncoder(kind=EncodingKind.HOUR_SOC)
    with pytest.raises(ValueError, match="hour_of_day"):
        encoder.encode(24, 0)
    with pytest.raises(ValueError, match="soc_level"):
        encoder.encode(0, 11)


def test_encode_hour_soc_exhaustive_bijection():
    encoder = StateEncoder(kind=EncodingKind.HOUR_SOC)
    seen = set()
    for hour in range(24):
        for soc in range(11):
            flat = encoder.encode(hour, soc)
            assert 0 <= flat < encoder.size()
            seen.add(flat)
            assert encoder.decode(flat) == (hour, soc)
    assert len(seen) == 264


def test_encode_load_pv_row_major():
    encoder = StateEncoder(
        kind=EncodingKind.HOUR_SOC_LOAD_PV,
        load_bins=BinSpec(5, 20.0),
        pv_bins=BinSpec(5, 20.0),
    )
    # hour 5, soc 3, load bin 2 (value 8), pv bin 1 (value 4)
    flat = encoder.encode(5, 3, load_kwh=8.0, pv_kwh=4.0)
    assert flat == ((5 * 11 + 3) * 5 + 2) * 5 + 1 == 1461


def test_encode_wind_requires_wind_value():
    encoder = StateEncoder(
        kind=EncodingKind.HOUR_SOC_LOAD_PV_WIND,
        load_bins=BinSpec(5, 20.0),
        pv_bins=BinSpec(5, 20.0),
        wind_bins=BinSpec(5, 20.0),
    )
    with pytest.raises(ValueError, match="wind"):
        encoder.encode(1, 1, load_kwh=1.0, pv_kwh=1.0, wind_kwh=None)
    flat = encoder.encode(1, 1, load_kwh=1.0, pv_kwh=1.0, wind_kwh=1.0)
    assert 0 <= flat < encoder.size()


def test_state_space_sizes():
    hour_soc = StateEncoder(kind=EncodingKind.HOUR_SOC)
    load_pv = StateEncoder(
        kind=EncodingKind.HOUR_SOC_LOAD_PV,
        load_bins=BinSpec(5, 1.0),
        pv_bins=BinSpec(5, 1.0),
    )
    wind = StateEncoder(
        kind=EncodingKind.HOUR_SOC_LOAD_PV_WIND,
        load_bins=BinSpec(5, 1.0),
        pv_bins=BinSpec(5, 1.0),
        wind_bins=BinSpec(5, 1.0),
    )
    assert hour_soc.size() == 264
    assert load_pv.size() == 6600
    assert wind.size() == 33000


def test_encoder_requires_bins_for_extended_kinds():
    with pytest.raises(ValueError):
        StateEncoder(kind=EncodingKind.HOUR_SOC_LOAD_PV)
    with pytest.raises(ValueError):
        StateEncoder(
            kind=EncodingKind.HOUR_SOC_LOAD_PV_WIND,
            load_bins=BinSpec(5, 1.0),
            pv_bins=BinSpec(5, 1.0),
        )


@given(
    hour=st.integers(0, 23),
    soc=st.integers(0, 10),
    load_bin=st.integers(0, 4),
    pv_bin=st.integers(0, 4),
    wind_bin=st.integers(0, 4),
)
def test_flat_decode_round_trip(hour, soc, load_bin, pv_bin, wind_bin):
    encoder = StateEncoder(
        kind=EncodingKind.HOUR_SOC_LOAD_PV_WIND,
        load_bins=BinSpec(5, 1.0),
        pv_bins=BinSpec(5, 1.0),
        wind_bins=BinSpec(5, 1.0),
    )
    # values at bin centres of the 5 bins over [0, 1)
    load, pv, wind = ((b + 0.5) / 5 for b in (load_bin, pv_bin, wind_bin))
    flat = encoder.encode(hour, soc, load, pv, wind)
    assert encoder.decode(flat) == (hour, soc, load_bin, pv_bin, wind_bin)


def test_for_series_uses_percentile(synthetic_week):
    encoder = StateEncoder.for_series(
        EncodingKind.HOUR_SOC_LOAD_PV, synthetic_week, POWERWALL
    )
    assert encoder.load_bins.bin_count == 5
    assert encoder.load_bins.max_value > 0
    assert encoder.pv_bins.max_value > 0


def test_for_series_wind_needs_wind_column(synthetic_week):
    windless = synthetic_week.without_wind()
    with pytest.raises(ValueError, match="wind"):
        StateEncoder.for_series(
            EncodingKind.HOUR_SOC_LOAD_PV_WIND, windless, POWERWALL
        )


def test_for_series_zero_field_falls_back(tariff):
    from farmbess import SyntheticProfileConfig, generate_synthetic

    config = SyntheticProfileConfig(days=1, pv_peak_kwh=0.0, noise_fraction=0.0, rng_seed=1)
    series = generate_synthetic(config, tariff)
    encoder = StateEncoder.for_series(EncodingKind.HOUR_SOC_LOAD_PV, series, POWERWALL)
    assert encoder.pv_bins.max_value == 1.0
