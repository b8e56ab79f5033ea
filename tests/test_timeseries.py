"""Dataset handling: tariff tiers, CSV validation, synthetic generation.

`load_csv` reads a file with numpy's parser, or with its row walker when
numpy cannot be trusted with the text or refuses it. `_reference_parse_csv`
and `_reference_write_csv` below are the row-at-a-time reader and writer of
the first version, against which the property tests check the values and
the error messages of both paths, and the bytes `write_csv` writes.
"""

from __future__ import annotations

import csv
import io
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from farmbess import (
    DataValidationError,
    HourlySeries,
    SyntheticProfileConfig,
    TariffSchedule,
    Tier,
    generate_synthetic,
    load_csv,
    month_of_hour,
    write_csv,
)
from farmbess import ioutil, timeseries
from farmbess.timeseries import (
    OPTIONAL_COLUMNS,
    REQUIRED_COLUMNS,
    diurnal_load_kwh,
    diurnal_pv_kwh,
)


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
        TariffSchedule(off_peak_rate=0.3, standard_rate=0.1, peak_rate=0.2)


def test_default_tariff_is_night_day_evening():
    night = frozenset({23, 0, 1, 2, 3, 4, 5, 6})
    evening = frozenset({17, 18})
    day = frozenset(range(24)) - night - evening
    assert TariffSchedule() == TariffSchedule(night, day, evening, 0.05, 0.10, 0.20)
    rates = {"off_peak_rate": 0.05, "standard_rate": 0.15, "peak_rate": 0.50}
    assert TariffSchedule(**rates) == TariffSchedule(night, day, evening, *rates.values())


def test_tariff_stores_hour_sets_as_frozensets():
    tariff = TariffSchedule(off_peak_hours=[0, 1, 2], peak_hours={12, 13})
    assert all(
        type(hours) is frozenset
        for hours in (tariff.off_peak_hours, tariff.standard_hours, tariff.peak_hours)
    )
    assert tariff.standard_hours == frozenset(range(3, 12)) | frozenset(range(14, 24))
    assert hash(tariff) == hash(TariffSchedule(range(3), None, range(12, 14)))


@pytest.mark.parametrize(
    "hours",
    [
        {"standard_hours": range(7, 17)},  # the evening shoulder left out
        {"peak_hours": {6, 17, 18}},  # 6 is off-peak by default
        {"off_peak_hours": {24}},
    ],
)
def test_tariff_hours_that_do_not_partition_the_day_are_refused(hours):
    message = "off_peak_hours, standard_hours and peak_hours must partition the 24 hours of a day"
    with pytest.raises(DataValidationError, match=f"^{message}$"):
        TariffSchedule(**hours)


# ---------------------------------------------------------------- csv loading


def test_load_csv_year_schema_passthrough(tmp_path, tariff):
    lines = ["hour,load_kwh,pv_kwh,price_per_kwh"]
    for i in range(8760):
        lines.append(f"{i},1.0,0.5,0.1")
    path = _write(tmp_path / "year.csv", "\n".join(lines) + "\n")
    series = load_csv(path)
    assert len(series) == 8760
    assert not series.has_wind
    assert series.load[25] == 1.0
    assert series.day(1).load[1] == 1.0


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
    for i, price in enumerate(series.price):
        assert price == tariff.price_at(i % 24)
    assert all(series.price[18::24] == tariff.peak_rate)


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


def test_load_csv_skips_blank_rows_without_counting_them(tmp_path, tariff):
    rows = [f"{i},{1.0 + i},0.0" for i in range(24)]
    rows.insert(4, "")
    rows.insert(10, " , , ")
    path = _write(tmp_path / "gappy.csv", "\n".join(["hour,load_kwh,pv_kwh", *rows]) + "\n")
    series = load_csv(path, tariff=tariff)
    assert len(series) == 24
    assert series.load.tolist() == [1.0 + i for i in range(24)]


def test_load_csv_error_rows_count_data_rows_only(tmp_path, tariff):
    rows = [f"{i},1.0,0.0" for i in range(24)]
    rows[6] = "6,-1.0,0.0"
    rows.insert(4, "")
    path = _write(tmp_path / "bad.csv", "\n".join(["hour,load_kwh,pv_kwh", *rows]) + "\n")
    with pytest.raises(DataValidationError, match=r"negative value at row 7"):
        load_csv(path, tariff=tariff)


_CLEAN_ROWS = [f"{i},{1.0 + i},0.5" for i in range(24)]


def _csv_text(rows):
    return "\n".join(["hour,load_kwh,pv_kwh", *rows]) + "\n"


@pytest.mark.parametrize("blank", ["", "   ", "\t ", ",,"], ids=["empty", "spaces", "tab", "commas"])
@pytest.mark.parametrize("where", [0, 12, 24], ids=["start", "middle", "end"])
def test_load_csv_blank_rows_anywhere_give_the_clean_series(tmp_path, tariff, blank, where):
    clean = load_csv(_write(tmp_path / "clean.csv", _csv_text(_CLEAN_ROWS)), tariff=tariff)
    rows = list(_CLEAN_ROWS)
    rows[where:where] = [blank, blank]
    gappy = load_csv(_write(tmp_path / "gappy.csv", _csv_text(rows)), tariff=tariff)
    assert _same_series(gappy, clean)


@pytest.mark.parametrize("hour", [" 7", "+7", "007", "7 "])
def test_load_csv_accepts_padded_hours(tmp_path, tariff, hour):
    clean = load_csv(_write(tmp_path / "clean.csv", _csv_text(_CLEAN_ROWS)), tariff=tariff)
    rows = list(_CLEAN_ROWS)
    rows[7] = rows[7].replace("7", hour, 1)
    padded = load_csv(_write(tmp_path / "padded.csv", _csv_text(rows)), tariff=tariff)
    assert _same_series(padded, clean)


def test_load_csv_rows_before_an_unsplittable_line_count_data_rows_only(tmp_path, tariff):
    rows = list(_CLEAN_ROWS)
    rows[20] = "20,1.0," + "0" * (csv.field_size_limit() + 1)
    rows[2:2] = ["", ",,"]
    path = _write(tmp_path / "long.csv", _csv_text(rows))
    with pytest.raises(DataValidationError, match=r"row 21: field larger than field limit"):
        load_csv(path, tariff=tariff)
    rows[6] = "4,-1.0,0.0"
    path = _write(tmp_path / "long.csv", _csv_text(rows))
    with pytest.raises(DataValidationError, match=r"negative value at row 5 \(column load_kwh\)"):
        load_csv(path, tariff=tariff)


def test_load_csv_checks_rows_one_by_one_only_off_numpys_path(tmp_path, tariff, monkeypatch):
    calls = []
    real = timeseries._check_row

    def recorded(raw, row, col):
        calls.append(row)
        return real(raw, row, col)

    monkeypatch.setattr(timeseries, "_check_row", recorded)
    clean = load_csv(_write(tmp_path / "clean.csv", _csv_text(_CLEAN_ROWS)), tariff=tariff)
    empty_lines = _csv_text(["", *_CLEAN_ROWS[:12], "", *_CLEAN_ROWS[12:]])
    assert _same_series(load_csv(_write(tmp_path / "empty.csv", empty_lines), tariff=tariff), clean)
    assert calls == []
    # Each file holds the clean series, but numpy refuses it (a whitespace-only
    # line) or the walker reads it without asking numpy.
    wide = " " * (csv.field_size_limit() // 2 + 1)
    walked = {
        "whitespace-only row": [*_CLEAN_ROWS[:5], " \t ", *_CLEAN_ROWS[5:]],
        "quoted cell": ['0,"1.0",0.5', *_CLEAN_ROWS[1:]],
        "\\x1c padding": ["\x1c0,1.0,0.5", *_CLEAN_ROWS[1:]],
        "non-ASCII padding": ["0,\xa01.0,0.5", *_CLEAN_ROWS[1:]],
        "over-limit line": [f"0,{wide}1.0,0.5{wide}", *_CLEAN_ROWS[1:]],
    }
    for case, rows in walked.items():
        calls.clear()
        series = load_csv(_write(tmp_path / "walked.csv", _csv_text(rows)), tariff=tariff)
        assert calls == list(range(1, 25)), case
        assert _same_series(series, clean), case
    # A file longer than the field limit whose lines are all short is numpy's,
    # whatever its line ends.
    long = tmp_path / "long.csv"
    write_csv(generate_synthetic(SyntheticProfileConfig(days=120, rng_seed=3), tariff), long)
    text = long.read_text(encoding="utf-8")
    assert len(text) > csv.field_size_limit()
    reference = load_csv(long)
    for end in ("\r", "\r\n"):
        calls.clear()
        long.write_bytes(text.replace("\n", end).encode("utf-8"))
        assert _same_series(load_csv(long), reference), repr(end)
        assert calls == [], repr(end)


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


def test_load_csv_accepts_a_byte_order_mark(tmp_path, tariff):
    text = "hour,load_kwh,pv_kwh\n" + "".join(f"{i},{1.0 + i},0.5\n" for i in range(24))
    plain = _write(tmp_path / "plain.csv", text)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert _same_series(load_csv(marked, tariff=tariff), load_csv(plain, tariff=tariff))


def test_load_csv_counts_undecodable_bytes_from_the_file_start(tmp_path, tariff):
    path = tmp_path / "marked.csv"
    path.write_bytes(b"\xef\xbb\xbfhour,load_kwh,pv_kwh\n0,1.0,\xff\n")
    with pytest.raises(DataValidationError, match=r"invalid start byte at byte 30\)"):
        load_csv(path, tariff=tariff)


def test_load_csv_reports_a_bad_row_before_an_unsplittable_line(tmp_path, tariff):
    # The csv module refuses a field longer than its limit; a bad row above
    # that line is still the error reported.
    rows = [f"{i},1.0,0.0" for i in range(24)]
    rows[1] = "1,-1.0,0.0"
    rows[20] = "20,1.0," + "0" * (csv.field_size_limit() + 1)
    path = _write(tmp_path / "long.csv", "\n".join(["hour,load_kwh,pv_kwh", *rows]) + "\n")
    with pytest.raises(DataValidationError, match=r"negative value at row 2 \(column load_kwh\)"):
        load_csv(path, tariff=tariff)
    rows[1] = "1,1.0,0.0"
    path = _write(tmp_path / "long.csv", "\n".join(["hour,load_kwh,pv_kwh", *rows]) + "\n")
    with pytest.raises(DataValidationError, match=r"row 21: field larger than field limit"):
        load_csv(path, tariff=tariff)


def test_load_csv_names_the_file_and_row_of_an_overlong_cell(tmp_path, tariff):
    rows = [f"{i},1.0,0.0" for i in range(24)]
    rows[4] = "4,1.0," + "0" * 140_000
    path = _write(tmp_path / "long.csv", "\n".join(["hour,load_kwh,pv_kwh", *rows]) + "\n")
    with pytest.raises(DataValidationError) as info:
        load_csv(path, tariff=tariff)
    assert str(info.value).startswith(f"{path}: row 5: ")


def test_load_csv_names_the_file_and_header_of_an_overlong_header_field(tmp_path, tariff):
    header = "hour,load_kwh,pv_kwh" + "x" * (csv.field_size_limit() + 1)
    path = _write(tmp_path / "long.csv", header + "\n" + _DAY)
    with pytest.raises(DataValidationError) as info:
        load_csv(path, tariff=tariff)
    assert str(info.value) == f"{path}: header: field larger than field limit ({csv.field_size_limit()})"


def test_load_csv_reads_a_non_ascii_hour_cell_by_rows(tmp_path, tariff):
    # numpy 2.4's int64 parser reads "\u01fe" as 462, the hour row 463 must
    # hold; `int` refuses it.
    rows = [f"{i},1.0,0.0" for i in range(20 * 24)]
    rows[462] = "\u01fe,1.0,0.0"
    path = _write(tmp_path / "hours.csv", _csv_text(rows))
    with pytest.raises(DataValidationError) as info:
        load_csv(path, tariff=tariff)
    assert str(info.value) == f"{path}: malformed hour '\u01fe' at row 463"


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_load_csv_refuses_float_formatted_hours_under_default_warning_filters(tmp_path, tariff):
    # Older numpy reads "0.0" as the int64 0 when its DeprecationWarning is
    # ignored, as it is outside the test suite.
    rows = [f"{i}.0,1.0,0.0" for i in range(24)]
    path = _write(tmp_path / "hours.csv", _csv_text(rows))
    with pytest.raises(DataValidationError) as info:
        load_csv(path, tariff=tariff)
    assert str(info.value) == f"{path}: malformed hour '0.0' at row 1"


def test_csv_round_trip(tmp_path, synthetic_week):
    path = tmp_path / "week.csv"
    write_csv(synthetic_week, path)
    back = load_csv(path)
    assert back.has_wind
    assert len(back) == len(synthetic_week)
    for name in ("load", "pv", "wind", "price"):
        assert getattr(back, name).tolist() == getattr(synthetic_week, name).tolist()


# ------------------------------------------------ column reader against rows


def _reference_parse_value(raw: str, column: str, row: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataValidationError(
            f"malformed value {raw!r} in column {column} at row {row}"
        ) from None
    if not math.isfinite(value):
        raise DataValidationError(f"non-finite value in column {column} at row {row}")
    if value < 0:
        raise DataValidationError(f"negative value at row {row} (column {column})")
    return value


def _reference_parse_csv(text, tariff):
    """The row-at-a-time reader `load_csv` had before it worked by columns,
    with a line the csv module cannot split reported as its row's error."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataValidationError("empty file") from None
    header = [h.strip() for h in header]
    known = set(REQUIRED_COLUMNS) | set(OPTIONAL_COLUMNS)
    unknown = [h for h in header if h not in known]
    if unknown:
        raise DataValidationError(f"unexpected column(s): {', '.join(unknown)}")
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise DataValidationError(f"missing required column(s): {', '.join(missing)}")
    if len(set(header)) != len(header):
        raise DataValidationError("duplicate column names in header")
    col = {name: header.index(name) for name in header}
    has_wind = "wind_kwh" in col
    has_price = "price_per_kwh" in col
    if not has_price and tariff is None:
        raise DataValidationError(
            "dataset has no price_per_kwh column and no tariff was provided"
        )

    loads, pvs, winds, prices = [], [], [], []
    # Blank rows are skipped and not counted: row numbers are 1-based over
    # the data rows, so row n must hold hour n - 1.
    row_number = 0
    try:
        for raw in reader:
            if not raw or all(not cell.strip() for cell in raw):
                continue
            row_number += 1
            if len(raw) != len(header):
                raise DataValidationError(
                    f"row {row_number} has {len(raw)} fields, expected {len(header)}"
                )
            hour_raw = raw[col["hour"]].strip()
            try:
                hour_index = int(hour_raw)
            except ValueError:
                raise DataValidationError(
                    f"malformed hour {hour_raw!r} at row {row_number}"
                ) from None
            if hour_index != row_number - 1:
                raise DataValidationError(
                    f"non-contiguous hour at row {row_number}: expected {row_number - 1}, got {hour_index}"
                )
            loads.append(_reference_parse_value(raw[col["load_kwh"]], "load_kwh", row_number))
            pvs.append(_reference_parse_value(raw[col["pv_kwh"]], "pv_kwh", row_number))
            if has_wind:
                winds.append(_reference_parse_value(raw[col["wind_kwh"]], "wind_kwh", row_number))
            if has_price:
                prices.append(
                    _reference_parse_value(raw[col["price_per_kwh"]], "price_per_kwh", row_number)
                )
            else:
                prices.append(tariff.price_at(hour_index % 24))
    except csv.Error as exc:
        # A line the csv module cannot split is an error of its row.
        raise DataValidationError(f"row {row_number + 1}: {exc}") from None
    return HourlySeries(loads, pvs, winds if has_wind else None, prices)


def _reference_write_csv(series, include_price=True) -> str:
    """The text the row-at-a-time `write_csv` wrote."""
    columns = {"load_kwh": series.load, "pv_kwh": series.pv}
    if series.has_wind:
        columns["wind_kwh"] = series.wind
    if include_price:
        columns["price_per_kwh"] = series.price
    rows = zip(*(column.tolist() for column in columns.values()))
    lines = [",".join(["hour", *columns])]
    lines.extend(",".join([str(i), *map(repr, row)]) for i, row in enumerate(rows))
    return "\n".join(lines) + "\n"


def _same_series(a, b) -> bool:
    """Equal columns bit for bit (so -0.0 differs from 0.0)."""
    columns = ("load", "pv", "wind", "price")
    return all(
        (getattr(a, c) is None and getattr(b, c) is None)
        or (getattr(a, c) is not None and getattr(b, c) is not None
            and getattr(a, c).tobytes() == getattr(b, c).tobytes())
        for c in columns
    )


# Cells numpy reads differently from `float` or refuses where `float` reads
# them: \x1c-\x1f padding, non-ASCII spaces and digits, underscores, quotes,
# and a cell over the csv module's field limit (drawn rarely).
_CELLS = (
    "junk", "-1.5", "-0.0", "nan", "-inf", "inf", "1e400", "", "  ", " 2.5 ", "1_0",
    "\x1c3", "3\x1f", "\xa01.5", "\u3000 2", "\u0661", '"1.5"',
)
# Drawn as a marker that the test expands, so that a falsifying example stays short.
_OVERLONG_CELL = "<zeros over the field limit>"
_BLANK_ROWS = ("", "   ", ",,", " , ,\t", ",,,,")
_MUTATIONS = (
    "cell", "two-cells", "add-field", "drop-field", "pad-hour", "float-hour", "shift-hour",
    "blank-row",
)
_LINE_ENDS = ("\n", "\r\n", "\r")


@st.composite
def _cell(draw):
    if draw(st.integers(0, 49)) == 0:
        return _OVERLONG_CELL
    return draw(st.sampled_from(_CELLS))


@st.composite
def _mutated_csv(draw):
    """A series as `write_csv` writes it, with up to two faults in different
    rows and `\n`, `\r\n`, `\r` or mixed line ends; returns the text and
    whether it carries prices."""
    days = draw(st.integers(min_value=1, max_value=2))
    config = SyntheticProfileConfig(days=days, rng_seed=draw(st.integers(0, 2**16)))
    series = generate_synthetic(config, TariffSchedule())
    if not draw(st.booleans()):
        series = series.without_wind()
    include_price = draw(st.booleans())
    header, *lines = _reference_write_csv(series, include_price).splitlines()
    rows = [line.split(",") for line in lines]
    faults = draw(st.lists(
        st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, len(rows) - 1)),
        max_size=2, unique_by=lambda fault: fault[1],
    ))
    blanks = []
    for kind, row in faults:
        cells = rows[row]
        if kind == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(_cell())
        elif kind == "two-cells":
            columns = st.lists(st.integers(0, len(cells) - 1), min_size=2, max_size=2, unique=True)
            for column in draw(columns):
                cells[column] = draw(_cell())
        elif kind == "add-field":
            cells.append(draw(st.sampled_from(("1.0", ""))))
        elif kind == "drop-field":
            cells.pop()
        elif kind == "pad-hour":
            # int() takes blanks but not \x1c-\x1f; the reader strips first.
            cells[0] = draw(st.sampled_from((" ", "\t", "\x1c", "\x1f"))) + cells[0]
        elif kind == "float-hour":
            cells[0] += draw(st.sampled_from((".0", "e0", ".9")))
        elif kind == "shift-hour":
            cells[0] = str(int(cells[0]) + draw(st.sampled_from((-1, 1, 24))))
        else:
            blanks.append((row, draw(st.sampled_from(_BLANK_ROWS))))
    lines = [",".join(cells) for cells in rows]
    for row, blank in sorted(blanks, reverse=True):
        lines.insert(row, blank)
    lines.insert(0, header)
    if draw(st.booleans()):
        ends = [draw(st.sampled_from(_LINE_ENDS))] * len(lines)
    else:
        ends = draw(st.lists(st.sampled_from(_LINE_ENDS), min_size=len(lines), max_size=len(lines)))
    return "".join(map(str.__add__, lines, ends)), include_price


def _clean_day_with(load_cell, line_end="\n"):
    """The clean day with hour 3's load cell replaced, as an unpriced case
    of `_mutated_csv`."""
    rows = list(_CLEAN_ROWS)
    rows[3] = f"3,{load_cell},0.5"
    return line_end.join(["hour,load_kwh,pv_kwh", *rows]) + line_end, False


# The cells on which numpy's reading would differ from the walker's without a
# guard, always tried besides the drawn ones.
@example(case=_clean_day_with("\x1c3"))
@example(case=_clean_day_with("3\x1f"))
@example(case=_clean_day_with(_OVERLONG_CELL))
@example(case=_clean_day_with('"1.5"', "\r"))
@example(case=_clean_day_with("\xa01.5", "\r\n"))
@settings(max_examples=150, deadline=None)
@given(case=_mutated_csv())
def test_load_csv_matches_the_row_reader(tmp_path_factory, tariff, case):
    text, include_price = case
    text = text.replace(_OVERLONG_CELL, "0" * (csv.field_size_limit() + 1))
    path = tmp_path_factory.mktemp("mutated") / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    given_tariff = tariff if not include_price else None
    try:
        expected = _reference_parse_csv(text, given_tariff)
    except DataValidationError as exc:
        with pytest.raises(DataValidationError) as info:
            load_csv(path, tariff=given_tariff)
        assert str(info.value) == f"{path}: {exc}"
    else:
        assert _same_series(load_csv(path, tariff=given_tariff), expected)


@pytest.mark.parametrize("wind", [True, False], ids=["wind", "no-wind"])
@pytest.mark.parametrize("include_price", [True, False], ids=["price", "no-price"])
def test_write_csv_bytes_match_the_row_writer(tmp_path, synthetic_week, wind, include_price):
    series = synthetic_week if wind else synthetic_week.without_wind()
    # Values whose repr switches to exponent form, and a negative zero.
    odd = HourlySeries(
        load=[1e-05, 1e16, 0.1, 123456789.125] * 6,
        pv=[0.0, -0.0, 5e-324, 1.7976931348623157e308] * 6,
        wind=[2.5] * 24 if wind else None,
        price=[0.05] * 24,
    )
    for case in (series, odd):
        path = tmp_path / "series.csv"
        write_csv(case, path, include_price=include_price)
        assert path.read_bytes() == _reference_write_csv(case, include_price).encode("utf-8")


# Days whose hours end just short of and just past a chunk of rows, and days
# that span more than two chunks.
_CHUNK_EDGE_DAYS = (
    ioutil._CHUNK_ROWS // 24,
    ioutil._CHUNK_ROWS // 24 + 1,
    2 * ioutil._CHUNK_ROWS // 24 + 1,
)


@pytest.mark.parametrize("days", _CHUNK_EDGE_DAYS)
def test_write_csv_bytes_hold_across_chunks(tmp_path, tariff, days):
    """Rows are written a chunk at a time; a series either side of a chunk
    edge, and one spanning three chunks, writes the row writer's bytes."""
    series = generate_synthetic(SyntheticProfileConfig(days=days, rng_seed=days), tariff)
    path = tmp_path / "series.csv"
    write_csv(series, path)
    assert path.read_bytes() == _reference_write_csv(series).encode("utf-8")


# ---------------------------------------------------------------- series type


def test_series_rejects_non_multiple_of_24(tariff):
    with pytest.raises(DataValidationError, match="multiple of 24"):
        HourlySeries(load=[1.0] * 23, pv=[0.0] * 23, wind=None, price=[0.1] * 23)


def test_series_day_is_a_one_day_series():
    hours = [float(i) for i in range(72)]
    for wind in (None, [2.0 * h for h in hours]):
        series = HourlySeries(load=hours, pv=[0.0] * 72, wind=wind, price=[0.1] * 72)
        day = series.day(1)
        assert isinstance(day, HourlySeries)
        assert len(day) == 24 and day.n_days == 1
        assert day.has_wind == series.has_wind
        # row h of day 1 is row 24 + h of the series
        assert day.load.tolist() == hours[24:48]
        assert day.renewables.tolist() == series.renewables[24:48].tolist()
        assert day == HourlySeries(series.load[24:48], series.pv[24:48],
                                   None if wind is None else series.wind[24:48],
                                   series.price[24:48])
        for bad in (-1, 3):
            with pytest.raises(ValueError, match="day_index"):
                series.day(bad)


def test_series_rejects_non_finite_or_negative_column():
    names = {"load": "load_kwh", "pv": "pv_kwh", "wind": "wind_kwh", "price": "price_per_kwh"}
    for column, name in names.items():
        for bad in (math.nan, math.inf, -1.0):
            columns = {c: [1.0] * 24 for c in names}
            columns[column][5] = bad
            with pytest.raises(DataValidationError, match=f"{name} must be finite and >= 0"):
                HourlySeries(**columns)


@pytest.mark.parametrize("column", ["load", "pv", "price"])
def test_series_refuses_a_missing_column_other_than_wind(column):
    columns = {c: [1.0] * 24 for c in ("load", "pv", "wind", "price")}
    columns[column] = None
    message = f"^{column}_(kwh|per_kwh) is missing; only wind_kwh may be None$"
    with pytest.raises(DataValidationError, match=message):
        HourlySeries(**columns)
    columns["wind"] = None
    with pytest.raises(DataValidationError, match=message):
        HourlySeries(**columns)


def test_series_columns_are_read_only(synthetic_week):
    with pytest.raises(ValueError):
        synthetic_week.loads()[0] = 1.0


def test_without_wind_drops_column(synthetic_week):
    bare = synthetic_week.without_wind()
    assert not bare.has_wind
    assert bare.wind is None
    assert bare.load.tolist() == synthetic_week.load.tolist()
    assert bare.renewables.tolist() == synthetic_week.pv.tolist()


def test_tariff_tiers_table_is_tier_of_each_hour(tariff):
    custom = TariffSchedule(
        off_peak_hours=frozenset(range(0, 12)),
        standard_hours=frozenset(range(14, 24)),
        peak_hours=frozenset({12, 13}),
        off_peak_rate=0.1,
        standard_rate=0.2,
        peak_rate=0.3,
    )
    for schedule in (tariff, custom):
        assert schedule.tiers == tuple(schedule.tier_of(h) for h in range(24))


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
    assert all(series.pv == 0.0)
    assert all(series.wind == 0.0)


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
    for column in (synthetic_year.load, synthetic_year.pv, synthetic_year.wind):
        assert all(column >= 0)


def test_generate_synthetic_pv_zero_at_night(synthetic_year):
    for i, pv in enumerate(synthetic_year.pv):
        if i % 24 <= 5 or i % 24 >= 21:
            assert pv == 0.0


def test_diurnal_profiles_match_generator_shape():
    config = SyntheticProfileConfig(days=1, noise_fraction=0.0, rng_seed=0)
    series = generate_synthetic(config, TariffSchedule())
    for h in range(24):
        assert series.load[h] == pytest.approx(diurnal_load_kwh(config, h))
        assert series.pv[h] == pytest.approx(diurnal_pv_kwh(config, h))


def test_synthetic_config_validation():
    with pytest.raises(DataValidationError):
        SyntheticProfileConfig(days=0)
    with pytest.raises(DataValidationError):
        SyntheticProfileConfig(noise_fraction=1.0)


@given(st.integers(min_value=0, max_value=10_000_000))
def test_month_of_hour_always_valid(hour_index):
    assert 1 <= month_of_hour(hour_index) <= 12
