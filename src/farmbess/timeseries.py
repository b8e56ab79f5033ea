"""Hourly farm datasets: CSV ingest and validation, time-of-use tariffs,
and a synthetic profile generator standing in for real farm data.

A dataset is an `HourlySeries` of validated numpy columns (load, pv, optional
wind, price). The CSV reader and the generator fill the columns directly, and
every consumer reads them by hour index; a day is a one-day series.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .ioutil import atomic_write_text

REQUIRED_COLUMNS = ("hour", "load_kwh", "pv_kwh")
OPTIONAL_COLUMNS = ("wind_kwh", "price_per_kwh")

MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

# month (1..12) for each day of a non-leap year
_MONTH_OF_DAY = tuple(
    m + 1 for m, length in enumerate(MONTH_LENGTHS) for _ in range(length)
)


class DataValidationError(ValueError):
    """Raised when a dataset violates the hourly-series schema."""


class Tier(Enum):
    OFF_PEAK = "off-peak"
    STANDARD = "standard"
    PEAK = "peak"


def month_of_hour(hour_index: int) -> int:
    """Calendar month (1..12) for an hour index, on a cyclic 365-day year.

    Series longer than a year wrap around; the single extra day of a
    366-day dataset lands back in January.
    """
    return _MONTH_OF_DAY[(hour_index // 24) % 365]


@dataclass(frozen=True)
class TariffSchedule:
    """Three-tier time-of-use tariff over the 24 hours of a day.

    The three hour sets must partition {0..23} and the rates must satisfy
    off_peak_rate <= standard_rate <= peak_rate.
    """

    off_peak_hours: frozenset[int]
    standard_hours: frozenset[int]
    peak_hours: frozenset[int]
    off_peak_rate: float
    standard_rate: float
    peak_rate: float

    def __post_init__(self) -> None:
        sets = (self.off_peak_hours, self.standard_hours, self.peak_hours)
        union = set().union(*sets)
        total = sum(len(s) for s in sets)
        if union != set(range(24)) or total != 24:
            raise DataValidationError(
                "tariff hour sets must partition the 24 hours of a day"
            )
        if not 0 < self.off_peak_rate <= self.standard_rate <= self.peak_rate:
            raise DataValidationError(
                "tariff rates must satisfy 0 < off_peak <= standard <= peak"
            )

    def tier_of(self, hour_of_day: int) -> Tier:
        """Tariff tier containing the given hour of day (0..23)."""
        if not 0 <= hour_of_day <= 23:
            raise ValueError(f"hour_of_day must be in 0..23, got {hour_of_day}")
        if hour_of_day in self.peak_hours:
            return Tier.PEAK
        if hour_of_day in self.off_peak_hours:
            return Tier.OFF_PEAK
        return Tier.STANDARD

    @cached_property
    def tiers(self) -> tuple[Tier, ...]:
        """The tier of each hour of the day, indexed by hour 0..23."""
        return tuple(map(self.tier_of, range(24)))

    def price_at(self, hour_of_day: int) -> float:
        """Rate of the tier containing the given hour of day."""
        tier = self.tier_of(hour_of_day)
        if tier is Tier.PEAK:
            return self.peak_rate
        if tier is Tier.OFF_PEAK:
            return self.off_peak_rate
        return self.standard_rate


# Night window runs 23:00-07:00 and the evening peak 17:00-19:00, both
# taken as [start, end) on whole hours so the three sets partition the day.
DEFAULT_OFF_PEAK_HOURS = frozenset({23, 0, 1, 2, 3, 4, 5, 6})
DEFAULT_PEAK_HOURS = frozenset({17, 18})
DEFAULT_STANDARD_HOURS = frozenset(range(24)) - DEFAULT_OFF_PEAK_HOURS - DEFAULT_PEAK_HOURS


def default_tariff(
    off_peak_rate: float = 0.05,
    standard_rate: float = 0.10,
    peak_rate: float = 0.20,
) -> TariffSchedule:
    """Night/day/evening tariff with configurable rates.

    The rates are arbitrary defaults (currency/kWh); only their ordering
    matters to the controllers and reward shaping.
    """
    return TariffSchedule(
        off_peak_hours=DEFAULT_OFF_PEAK_HOURS,
        standard_hours=DEFAULT_STANDARD_HOURS,
        peak_hours=DEFAULT_PEAK_HOURS,
        off_peak_rate=off_peak_rate,
        standard_rate=standard_rate,
        peak_rate=peak_rate,
    )


def _tariff_prices(tariff: TariffSchedule, n_hours: int) -> np.ndarray:
    """The tariff's price for each hour of a series starting at midnight."""
    return np.array([tariff.price_at(h) for h in range(24)])[np.arange(n_hours) % 24]


class HourlySeries:
    """Hourly farm data covering a whole number of days, held as validated
    read-only float64 columns: load, pv, wind (None when the dataset has no
    wind) and price, plus renewables (pv + wind). Row i is hour i of the
    series, so its hour of day is i % 24.
    """

    def __init__(self, load, pv, wind, price) -> None:
        columns = {"load_kwh": load, "pv_kwh": pv, "wind_kwh": wind, "price_per_kwh": price}
        n = len(load)
        if n == 0 or n % 24 != 0:
            raise DataValidationError(
                f"series length must be a positive multiple of 24, got {n}"
            )
        for name, values in columns.items():
            if values is None:
                continue
            column = np.array(values, dtype=np.float64)
            if column.shape != (n,):
                raise DataValidationError(f"{name} has shape {column.shape}, expected ({n},)")
            bad = ~(np.isfinite(column) & (column >= 0))
            if bad.any():
                value = float(column[bad.argmax()])
                raise DataValidationError(f"{name} must be finite and >= 0, got {value}")
            column.setflags(write=False)
            columns[name] = column
        self.load = columns["load_kwh"]
        self.pv = columns["pv_kwh"]
        self.wind = columns["wind_kwh"]
        self.price = columns["price_per_kwh"]
        self.renewables = self.pv + (0.0 if self.wind is None else self.wind)
        self.renewables.setflags(write=False)

    @property
    def has_wind(self) -> bool:
        return self.wind is not None

    def __len__(self) -> int:
        return len(self.load)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HourlySeries):
            return NotImplemented
        if self.has_wind != other.has_wind:
            return False
        pairs = [(self.load, other.load), (self.pv, other.pv), (self.price, other.price)]
        if self.has_wind:
            pairs.append((self.wind, other.wind))
        return all(np.array_equal(a, b) for a, b in pairs)

    @property
    def n_days(self) -> int:
        return len(self) // 24

    def day(self, day_index: int) -> "HourlySeries":
        """One day of the series as a one-day series: its row h is hour h of
        the day."""
        if not 0 <= day_index < self.n_days:
            raise ValueError(f"day_index must be in 0..{self.n_days - 1}, got {day_index}")
        hours = slice(day_index * 24, (day_index + 1) * 24)
        wind = self.wind[hours] if self.has_wind else None
        return HourlySeries(self.load[hours], self.pv[hours], wind, self.price[hours])

    def month_runs(self) -> list[list[int]]:
        """[month, first hour, end hour] of each run of consecutive hours in
        one calendar month (`month_of_hour`), in hour order."""
        runs: list[list[int]] = []
        for day in range(self.n_days):
            month = _MONTH_OF_DAY[day % 365]
            if runs and runs[-1][0] == month:
                runs[-1][2] += 24
            else:
                runs.append([month, day * 24, day * 24 + 24])
        return runs

    def loads(self) -> np.ndarray:
        return self.load

    def pvs(self) -> np.ndarray:
        return self.pv

    def winds(self) -> np.ndarray:
        if not self.has_wind:
            raise DataValidationError("series has no wind data")
        return self.wind

    def prices(self) -> np.ndarray:
        return self.price

    def without_wind(self) -> "HourlySeries":
        """Copy of the series with the wind column dropped."""
        if not self.has_wind:
            return self
        return HourlySeries(self.load, self.pv, None, self.price)


@dataclass(frozen=True)
class SyntheticProfileConfig:
    """Parameters of the synthetic farm-year generator."""

    days: int = 365
    base_load_kwh: float = 8.0
    load_amplitude_kwh: float = 12.0
    pv_peak_kwh: float = 15.0
    wind_mean_kwh: float = 4.0
    noise_fraction: float = 0.05
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.days <= 0:
            raise DataValidationError(f"days must be > 0, got {self.days}")
        for name in ("base_load_kwh", "load_amplitude_kwh", "pv_peak_kwh", "wind_mean_kwh"):
            if getattr(self, name) < 0:
                raise DataValidationError(f"{name} must be >= 0")
        if not 0 <= self.noise_fraction < 1:
            raise DataValidationError(
                f"noise_fraction must be in [0, 1), got {self.noise_fraction}"
            )


# Diurnal shape constants: load humps centred on the two milking blocks,
# PV nonzero between sunrise and sunset.
_MILKING_HOURS = (6.0, 17.5)
_MILKING_WIDTH = 1.5
_SUNRISE = 6.0
_SUNSET = 20.0


def diurnal_load_kwh(config: SyntheticProfileConfig, hour_of_day: int) -> float:
    """Noise-free load: base plus two Gaussian milking-time humps."""
    humps = sum(
        math.exp(-((hour_of_day - peak) ** 2) / (2 * _MILKING_WIDTH**2))
        for peak in _MILKING_HOURS
    )
    return config.base_load_kwh + config.load_amplitude_kwh * humps


def diurnal_pv_kwh(config: SyntheticProfileConfig, hour_of_day: int) -> float:
    """Noise-free PV: zero outside daylight, sin^2 bell across it."""
    if hour_of_day <= _SUNRISE or hour_of_day >= _SUNSET:
        return 0.0
    phase = math.pi * (hour_of_day - _SUNRISE) / (_SUNSET - _SUNRISE)
    return config.pv_peak_kwh * math.sin(phase) ** 2


def generate_synthetic(
    config: SyntheticProfileConfig, tariff: TariffSchedule
) -> HourlySeries:
    """Deterministic synthetic series for a fixed (config, tariff) pair.

    Each hour's load/PV/wind is the closed-form diurnal value scaled by an
    independent multiplicative factor 1 + noise_fraction * u with
    u ~ Uniform[-1, 1), then clipped at zero. Wind is flat noise around
    wind_mean_kwh. Prices come from the tariff.
    """
    n_hours = config.days * 24
    rng = np.random.default_rng(config.rng_seed)
    noise = 1.0 + config.noise_fraction * rng.uniform(-1.0, 1.0, size=(n_hours, 3))
    hod = np.arange(n_hours) % 24
    load_shape = np.array([diurnal_load_kwh(config, h) for h in range(24)])
    pv_shape = np.array([diurnal_pv_kwh(config, h) for h in range(24)])
    return HourlySeries(
        load=np.maximum(0.0, load_shape[hod] * noise[:, 0]),
        pv=np.maximum(0.0, pv_shape[hod] * noise[:, 1]),
        wind=np.maximum(0.0, config.wind_mean_kwh * noise[:, 2]),
        price=_tariff_prices(tariff, n_hours),
    )


def _parse_value(raw: str, column: str, row: int) -> float:
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


def load_csv(path: str | Path, tariff: TariffSchedule | None = None) -> HourlySeries:
    """Load and validate an hourly series from CSV.

    The header must name `hour,load_kwh,pv_kwh` with optional `wind_kwh`
    and `price_per_kwh` columns; anything else is rejected. When the price
    column is absent a tariff must be supplied to fill prices per hour of
    day. A leading UTF-8 byte-order mark is ignored. Every error names the
    file; row numbers are 1-based over data rows.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset file not found: {path}")
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataValidationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None
    try:
        # Decoding as "utf-8-sig" would drop the mark too, but would count
        # the byte offset of a decode error from after it.
        return _parse_csv(text.removeprefix("\ufeff"), tariff)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None


# The value columns in the order a row's cells are checked.
_VALUE_COLUMNS = REQUIRED_COLUMNS[1:] + OPTIONAL_COLUMNS


def _parse_csv(text: str, tariff: TariffSchedule | None) -> HourlySeries:
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataValidationError("empty file") from None
    except csv.Error as exc:
        raise DataValidationError(f"header: {exc}") from None
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
    if "price_per_kwh" not in col and tariff is None:
        raise DataValidationError(
            "dataset has no price_per_kwh column and no tariff was provided"
        )

    names = [name for name in _VALUE_COLUMNS if name in col]
    columns = _numpy_columns(text, header, names)
    if columns is None:
        columns = np.array(_walk_rows(reader, col), np.float64).reshape(-1, len(names)).T
    values = dict(zip(names, columns))
    price = values.get("price_per_kwh")
    if price is None:
        price = _tariff_prices(tariff, len(values["load_kwh"]))
    return HourlySeries(values["load_kwh"], values["pv_kwh"], values.get("wind_kwh"), price)


# Text only the row walker reads: numpy strips \x1c-\x1f around a value
# where `float` refuses them. Non-ASCII text is the walker's too: numpy 2.4
# reads some letters as int64 digits ("\u01fe" is 462) and has crashed on
# "\U0010ffff" before one.
_WALKER_ONLY = "\x1c\x1d\x1e\x1f"


def _numpy_columns(text: str, header: list[str], names: list[str]) -> list[np.ndarray] | None:
    """The value columns `names` as numpy's parser reads them, or None when
    the text is the walker's, numpy refuses it, or a row fails a check of
    `_check_row`. On the text it is given, numpy's `int` and `float` accept
    a subset of the cells Python's do, with the same values, and numpy skips
    the empty lines the walker skips as blank rows."""
    # numpy has no field size limit, and the csv module refuses a longer field.
    if (not text.isascii() or any(c in text for c in _WALKER_ONLY)
            or max(map(len, text.split("\n"))) > csv.field_size_limit()):
        return None
    dtype = [(name, np.int64 if name == "hour" else np.float64) for name in header]
    try:
        with warnings.catch_warnings():
            # No rows is the length check's error, not a warning.
            warnings.simplefilter("ignore", UserWarning)
            # Older numpy (from 1.23) reads an int64 cell such as "1.9" through
            # a float with only a DeprecationWarning; as an error it is a
            # ValueError, and the file is the walker's.
            warnings.simplefilter("error", DeprecationWarning)
            table = np.loadtxt(io.StringIO(text, newline=None), dtype, delimiter=",",
                               comments=None, skiprows=1, ndmin=1)
    except ValueError:
        return None
    columns = [table[name] for name in names]
    if np.array_equal(table["hour"], np.arange(len(table))) and all(
        (np.isfinite(column) & (column >= 0)).all() for column in columns
    ):
        return columns
    return None


def _walk_rows(reader, col: dict[str, int]) -> list[list[float]]:
    """The values of the rows left in `reader`, each checked by `_check_row`.
    Blank rows (only empty or whitespace fields) are skipped and not counted,
    so row n must hold hour n - 1."""
    rows: list[list[float]] = []
    try:
        for raw in reader:
            if any(map(str.strip, raw)):
                rows.append(_check_row(raw, len(rows) + 1, col))
    except csv.Error as exc:
        raise DataValidationError(f"row {len(rows) + 1}: {exc}") from None
    return rows


def _check_row(raw: list[str], row: int, col: dict[str, int]) -> list[float]:
    """The values of data row `row` (1-based) in `_VALUE_COLUMNS` order, or
    its error: its field count, then its hour and the hour's contiguity, then
    load, PV, wind and price."""
    if len(raw) != len(col):
        raise DataValidationError(f"row {row} has {len(raw)} fields, expected {len(col)}")
    hour_raw = raw[col["hour"]].strip()
    try:
        hour_index = int(hour_raw)
    except ValueError:
        raise DataValidationError(f"malformed hour {hour_raw!r} at row {row}") from None
    if hour_index != row - 1:
        raise DataValidationError(
            f"non-contiguous hour at row {row}: expected {row - 1}, got {hour_index}"
        )
    return [_parse_value(raw[col[name]], name, row) for name in _VALUE_COLUMNS if name in col]


def write_csv(series: HourlySeries, path: str | Path, include_price: bool = True) -> None:
    """Write a series in the schema `load_csv` reads, with lossless floats."""
    columns = {"load_kwh": series.load, "pv_kwh": series.pv}
    if series.has_wind:
        columns["wind_kwh"] = series.wind
    if include_price:
        columns["price_per_kwh"] = series.price
    fields = [map(str, range(len(series)))]
    fields.extend(map(repr, column.tolist()) for column in columns.values())
    lines = [",".join(["hour", *columns]), *map(",".join, zip(*fields))]
    atomic_write_text(path, "\n".join(lines) + "\n")
