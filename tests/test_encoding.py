"""State encodings: charge-level binning, value bins, flat-index composition."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from farmbess import (
    BatterySpec,
    BinSpec,
    EncodingConfig,
    EncodingKind,
    HourlySeries,
    StateEncoder,
    soc_bin,
    soc_level_energy,
    value_bin,
)
from farmbess.config import _build

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
    with pytest.raises(ValueError, match="^bin_count must be >= 1"):
        BinSpec(0, 1.0)
    for top in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^max_value must be a finite number > 0"):
            BinSpec(5, top)


@pytest.mark.parametrize(
    "count, top, field",
    [
        (True, 20.0, "bin_count"),
        (2.5, 20.0, "bin_count"),
        ("5", 20.0, "bin_count"),
        (5, "20", "max_value"),
        (5, float("inf"), "max_value"),
        (5, float("nan"), "max_value"),
        (5, True, "max_value"),
    ],
)
def test_bin_spec_rejects_values_of_the_wrong_type(count, top, field):
    # Types are checked where a file is read, by the field builder.
    with pytest.raises(ValueError, match=f"^load_bins\\.{field} must be"):
        _build(BinSpec, {"bin_count": count, "max_value": top}, "load_bins")


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
    # row-major: h·S + s, every index of the table hit exactly once
    encoder = StateEncoder(kind=EncodingKind.HOUR_SOC)
    flats = [encoder.encode(hour, soc) for hour in range(24) for soc in range(11)]
    assert flats == [hour * 11 + soc for hour in range(24) for soc in range(11)]
    assert sorted(flats) == list(range(encoder.size())) == list(range(264))


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


@pytest.mark.parametrize(
    "kind, columns",
    [
        (EncodingKind.HOUR_SOC, ()),
        (EncodingKind.HOUR_SOC_LOAD_PV, ("load", "pv")),
        (EncodingKind.HOUR_SOC_LOAD_PV_WIND, ("load", "pv", "wind")),
    ],
    ids=["hour-soc", "hour-soc-load-pv", "hour-soc-load-pv-wind"],
)
def test_encoder_bins_the_columns_of_its_kind(kind, columns):
    """dims() holds the hour, the charge level, then each column the kind
    bins; the kind needs the bin spec of each of those columns only."""
    specs = {"load_bins": BinSpec(2, 1.0), "pv_bins": BinSpec(3, 1.0), "wind_bins": BinSpec(4, 1.0)}
    dims = StateEncoder(kind=kind, **specs).dims()
    assert dims[:2] == (("hour", 24), ("soc", 11))
    assert dims[2:] == tuple((c, specs[f"{c}_bins"].bin_count) for c in columns)
    for c in columns:
        with pytest.raises(ValueError, match=f"^{kind.value} encoding requires {c}_bins$"):
            StateEncoder(kind=kind, **{**specs, f"{c}_bins": None})
    needed = " and ".join(f"{c}_bins" for c in columns)
    if columns:
        with pytest.raises(ValueError, match=f"^{kind.value} encoding requires {needed}$"):
            StateEncoder(kind=kind)
    else:
        assert StateEncoder(kind=kind).dims() == dims


def test_flat_index_is_row_major_bijection():
    # (((h·S + s)·L + l)·P + p)·W + w over every coordinate of the wind
    # encoding (S = 11 levels, L = 5, P = 3 and W = 2 bins), each index of
    # the table hit exactly once
    encoder = StateEncoder(
        kind=EncodingKind.HOUR_SOC_LOAD_PV_WIND,
        load_bins=BinSpec(5, 1.0),
        pv_bins=BinSpec(3, 1.0),
        wind_bins=BinSpec(2, 1.0),
    )
    seen = []
    for hour, soc, load, pv, wind in itertools.product(
        range(24), range(11), range(5), range(3), range(2)
    ):
        # values at the bin centres over [0, 1)
        flat = encoder.encode(hour, soc, (load + 0.5) / 5, (pv + 0.5) / 3, (wind + 0.5) / 2)
        assert flat == (((hour * 11 + soc) * 5 + load) * 3 + pv) * 2 + wind
        seen.append(flat)
    assert sorted(seen) == list(range(encoder.size())) == list(range(24 * 11 * 5 * 3 * 2))


@pytest.mark.parametrize(
    "encoder, stride",
    [
        (StateEncoder(kind=EncodingKind.HOUR_SOC, soc_levels=7), 1),
        (
            StateEncoder(
                kind=EncodingKind.HOUR_SOC_LOAD_PV,
                load_bins=BinSpec(5, 1.0),
                pv_bins=BinSpec(3, 1.0),
            ),
            15,
        ),
        (
            StateEncoder(
                kind=EncodingKind.HOUR_SOC_LOAD_PV_WIND,
                load_bins=BinSpec(5, 1.0),
                pv_bins=BinSpec(3, 1.0),
                wind_bins=BinSpec(2, 1.0),
            ),
            30,
        ),
    ],
    ids=lambda v: v.kind.value if isinstance(v, StateEncoder) else str(v),
)
def test_soc_stride_is_one_charge_level_apart(encoder, stride):
    """The states `reached` gives an hour context, one per charge level, are
    `stride` apart: the product of the cardinalities after the level."""
    series = HourlySeries([0.95] * 24, [0.35] * 24, [0.6] * 24, [0.1] * 24)
    states, contexts = encoder.reached(series)
    assert contexts == list(range(24))
    assert states.shape == (24, encoder.soc_levels)
    assert (np.diff(states, axis=1) == stride).all()


def test_for_series_uses_percentile(synthetic_week):
    encoder = StateEncoder.for_series(
        EncodingKind.HOUR_SOC_LOAD_PV, synthetic_week, POWERWALL
    )
    assert encoder.load_bins.bin_count == 5
    assert encoder.load_bins.max_value > 0
    assert encoder.pv_bins.max_value > 0


def test_for_series_wind_needs_wind_column(synthetic_week):
    windless = synthetic_week.without_wind()
    for kind in (EncodingKind.HOUR_SOC, EncodingKind.HOUR_SOC_LOAD_PV):
        assert StateEncoder.for_series(kind, windless, POWERWALL) == StateEncoder.for_series(
            kind, synthetic_week, POWERWALL
        )
    with pytest.raises(
        ValueError,
        match="^hour-soc-load-pv-wind encoding requires a series with a wind_kwh column$",
    ):
        StateEncoder.for_series(
            EncodingKind.HOUR_SOC_LOAD_PV_WIND, windless, POWERWALL
        )


def test_for_series_zero_field_falls_back(tariff):
    from farmbess import SyntheticProfileConfig, generate_synthetic

    config = SyntheticProfileConfig(days=1, pv_peak_kwh=0.0, noise_fraction=0.0, rng_seed=1)
    series = generate_synthetic(config, tariff)
    encoder = StateEncoder.for_series(EncodingKind.HOUR_SOC_LOAD_PV, series, POWERWALL)
    assert encoder.pv_bins.max_value == 1.0


def test_for_series_reads_every_encoding_config_field(synthetic_week):
    """Each column's bin count and max come from the config's fields for that
    column; an unset max is the series' configured percentile of the column,
    1.0 for a column of zeros."""
    load, pv, price = synthetic_week.load, synthetic_week.pv, synthetic_week.price
    series = HourlySeries(load, pv, np.zeros(len(load)), price)
    kind = EncodingKind.HOUR_SOC_LOAD_PV_WIND
    config = EncodingConfig(load_bins=2, pv_bins=3, wind_bins=4, percentile=80.0)
    encoder = StateEncoder.for_series(kind, series, POWERWALL, config)
    assert (encoder.load_bins, encoder.pv_bins, encoder.wind_bins) == (
        BinSpec(2, float(np.percentile(load, 80.0))),
        BinSpec(3, float(np.percentile(pv, 80.0))),
        BinSpec(4, 1.0),
    )
    config = EncodingConfig(load_bin_max=7.0, pv_bin_max=8.0, wind_bin_max=9.0, percentile=80.0)
    encoder = StateEncoder.for_series(kind, series, POWERWALL, config)
    assert (encoder.load_bins, encoder.pv_bins, encoder.wind_bins) == (
        BinSpec(5, 7.0), BinSpec(5, 8.0), BinSpec(5, 9.0)
    )


# ---------------------------------------------------------------- reached


@pytest.mark.parametrize("levels", [-1, 1, 0, True, 2.5, "11", None])
def test_encoder_rejects_bad_soc_levels(levels):
    # The field builder refuses a wrong type, StateEncoder a value below 2.
    with pytest.raises(ValueError, match="^encoding(\\.|: )soc_levels must be"):
        _build(StateEncoder, {"kind": "hour-soc", "soc_levels": levels}, "encoding")


@st.composite
def _encoded_series(draw):
    """An encoder of any kind with random bin specs and charge levels, and a
    two-day series whose values sit on the bin edges, one ulp either side of
    them, above the top edge, or anywhere in [0, 3 * max]: 1 to 24 drawn
    values repeated over the first day, and the second day holds the first
    day's values in reverse."""
    kind = draw(st.sampled_from(EncodingKind))
    specs = [
        BinSpec(draw(st.integers(1, 6)), draw(st.floats(0.1, 50.0))) for _ in range(3)
    ]
    def column(spec):
        edge = st.integers(0, spec.bin_count + 2).map(
            lambda k: k * spec.max_value / spec.bin_count
        )
        near = st.tuples(edge, st.sampled_from([0.0, -math.inf, math.inf])).map(
            lambda pair: max(0.0, math.nextafter(pair[0], pair[1]) if pair[1] else pair[0])
        )
        values = draw(st.lists(near | st.floats(0.0, 3 * spec.max_value), min_size=1, max_size=24))
        day = (values * 24)[:24]
        return day + day[::-1]

    wind = kind is EncodingKind.HOUR_SOC_LOAD_PV_WIND or draw(st.booleans())
    series = HourlySeries(
        load=column(specs[0]),
        pv=column(specs[1]),
        wind=column(specs[2]) if wind else None,
        price=[0.1] * 48,
    )
    binned = kind is not EncodingKind.HOUR_SOC
    encoder = StateEncoder(
        kind=kind,
        soc_levels=draw(st.integers(2, 12)),
        load_bins=specs[0] if binned else None,
        pv_bins=specs[1] if binned else None,
        wind_bins=specs[2] if kind is EncodingKind.HOUR_SOC_LOAD_PV_WIND else None,
    )
    return encoder, series


@settings(max_examples=80, deadline=None)
@given(case=_encoded_series())
def test_reached_matches_encode_at_every_level(case):
    """Hour i at charge level s is state states[contexts[i], s], which is
    `encode`'s index; the rows are distinct and numbered in first-seen order."""
    encoder, series = case
    states, contexts = encoder.reached(series)
    winds = series.wind.tolist() if series.has_wind else [None] * len(series)
    for i, (load, pv, wind) in enumerate(zip(series.load.tolist(), series.pv.tolist(), winds)):
        expected = [encoder.encode(i % 24, s, load, pv, wind) for s in range(encoder.soc_levels)]
        assert states[contexts[i]].tolist() == expected
    assert list(dict.fromkeys(contexts)) == list(range(len(states)))
    assert len(set(states[:, 0].tolist())) == len(states)
