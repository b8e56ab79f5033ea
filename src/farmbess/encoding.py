"""Discrete state encodings: map (hour, battery charge, optional load/PV/wind
bins) onto flat table indices for the three state-space designs."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Values this close to the next bin edge are snapped up, so energies that
# sit mathematically on an edge are not pushed down a bin by float error.
_EDGE_SNAP = 1e-9


class EncodingKind(Enum):
    HOUR_SOC = "hour-soc"
    HOUR_SOC_LOAD_PV = "hour-soc-load-pv"
    HOUR_SOC_LOAD_PV_WIND = "hour-soc-load-pv-wind"


# The series columns each kind bins, in the order they follow (hour, charge
# level) in the flat index. Column c's bin spec is the encoder's `c_bins`
# field and its values are the series' `c` column.
_BINNED_COLUMNS = {
    EncodingKind.HOUR_SOC: (),
    EncodingKind.HOUR_SOC_LOAD_PV: ("load", "pv"),
    EncodingKind.HOUR_SOC_LOAD_PV_WIND: ("load", "pv", "wind"),
}


@dataclass(frozen=True)
class EncodingConfig:
    """The `encoding` config section: the kind a run trains, and for each
    column c in `_BINNED_COLUMNS` its bin count `c_bins` and bin max
    `c_bin_max`. An unset max is the series' `percentile` of the column."""

    kind: EncodingKind = EncodingKind.HOUR_SOC
    load_bins: int = 5
    pv_bins: int = 5
    wind_bins: int = 5
    load_bin_max: float | None = None
    pv_bin_max: float | None = None
    wind_bin_max: float | None = None
    percentile: float = 99.0


@dataclass(frozen=True)
class BinSpec:
    """Uniform binning of a non-negative quantity; values >= max_value clamp
    into the top bin."""

    bin_count: int
    max_value: float

    def __post_init__(self) -> None:
        if self.bin_count < 1:
            raise ValueError(f"bin_count must be >= 1, got {self.bin_count!r}")
        # Written so that NaN fails it.
        if not 0 < self.max_value <= sys.float_info.max:
            raise ValueError(f"max_value must be a finite number > 0, got {self.max_value!r}")


def _floor_bin(x: float) -> int:
    b = math.floor(x)
    if x - b > 1.0 - _EDGE_SNAP:
        b += 1
    return b


def soc_bin(spec, energy_kwh: float) -> int:
    """Battery charge level 0..soc_levels-1 for a stored energy.

    floor(energy / capacity * (soc_levels - 1)), with a full battery mapping
    to the top level; `spec` is any object with capacity_kwh and soc_levels.
    """
    if not 0 <= energy_kwh <= spec.capacity_kwh:
        raise ValueError(
            f"energy {energy_kwh} outside [0, {spec.capacity_kwh}]"
        )
    top = spec.soc_levels - 1
    return min(_floor_bin(energy_kwh / spec.capacity_kwh * top), top)


def _floor_bins(x: np.ndarray, top: int) -> np.ndarray:
    """min(_floor_bin(x), top) of every element, bit for bit."""
    b = np.floor(x)
    b[x - b > 1.0 - _EDGE_SNAP] += 1.0
    return np.minimum(b, top).astype(np.intp)


def _soc_bins(spec, energies: np.ndarray) -> np.ndarray:
    """`soc_bin` of every element of an array of in-range energies, bit for
    bit the same formula (no range check)."""
    top = spec.soc_levels - 1
    return _floor_bins(energies / spec.capacity_kwh * top, top)


def soc_level_energy(spec, level: int) -> float:
    """Stored energy assigned to a discrete charge level (the inverse lattice
    of soc_bin): level 0 is empty, the top level is full capacity."""
    top = spec.soc_levels - 1
    if not 0 <= level <= top:
        raise ValueError(f"soc level must be in 0..{top}, got {level}")
    if level == 0:
        return 0.0
    if level == top:
        return spec.capacity_kwh
    return level * spec.capacity_kwh / top


def value_bin(spec: BinSpec, value: float) -> int:
    """min(floor(value / max_value * bin_count), bin_count - 1) for value >= 0."""
    return min(_floor_bin(value / spec.max_value * spec.bin_count), spec.bin_count - 1)


def _value_bins(spec: BinSpec, values: np.ndarray) -> np.ndarray:
    """`value_bin` of every element of an array, bit for bit the same formula."""
    return _floor_bins(values / spec.max_value * spec.bin_count, spec.bin_count - 1)


@dataclass(frozen=True)
class StateEncoder:
    """Row-major composition of observation coordinates into a flat index:
    the hour, the charge level, then the bin of each column the kind bins."""

    kind: EncodingKind
    soc_levels: int = 11
    load_bins: BinSpec | None = None
    pv_bins: BinSpec | None = None
    wind_bins: BinSpec | None = None

    def __post_init__(self) -> None:
        if self.soc_levels < 2:
            raise ValueError(f"soc_levels must be >= 2, got {self.soc_levels!r}")
        missing = [f"{c}_bins" for c, spec in self._binned() if spec is None]
        if missing:
            raise ValueError(f"{self.kind.value} encoding requires {' and '.join(missing)}")

    def _binned(self) -> list[tuple[str, BinSpec | None]]:
        """(column, bin spec) of each column the kind bins, in index order."""
        return [(c, getattr(self, f"{c}_bins")) for c in _BINNED_COLUMNS[self.kind]]

    def dims(self) -> tuple[tuple[str, int], ...]:
        binned = ((c, spec.bin_count) for c, spec in self._binned())
        return (("hour", 24), ("soc", self.soc_levels), *binned)

    def size(self) -> int:
        """Product of the dimension cardinalities."""
        return math.prod(cardinality for _, cardinality in self.dims())

    def _compose(self, index, value_of, to_bins):
        """`index` extended row-major by each binned column's bin:
        `to_bins(spec, value_of(column))`, refused when the value is None."""
        for c, spec in self._binned():
            values = value_of(c)
            if values is None:
                raise ValueError(f"{c}_kwh is None but the encoding requires a {c} value")
            index = index * spec.bin_count + to_bins(spec, values)
        return index

    def encode(
        self,
        hour_of_day: int,
        soc_level: int,
        load_kwh: float = 0.0,
        pv_kwh: float = 0.0,
        wind_kwh: float | None = None,
    ) -> int:
        """Flat index of one hour's state from the hour, the charge level and
        the hour's raw series values (the ones the kind uses), range-checked."""
        if not 0 <= hour_of_day <= 23:
            raise ValueError(f"hour_of_day out of range: {hour_of_day}")
        if not 0 <= soc_level < self.soc_levels:
            raise ValueError(f"soc_level out of range: {soc_level}")
        values = {"load": load_kwh, "pv": pv_kwh, "wind": wind_kwh}
        return self._compose(hour_of_day * self.soc_levels + soc_level, values.get, value_bin)

    def reached(self, series) -> tuple[np.ndarray, list[int]]:
        """The states a series can reach, binned in one array pass:
        `states[k, s]` is the flat index of the series' k-th distinct hour
        context (first seen first) at charge level s, and `contexts[i]` is
        hour i's row of `states`. So `states[contexts[i], s]` is
        `encode(i % 24, s, load[i], pv[i], wind[i])`, bit for bit, as
        `_value_bins` is `value_bin`."""
        index = np.arange(len(series)) % 24 * self.soc_levels
        bases = self._compose(index, lambda c: getattr(series, c), _value_bins).tolist()
        row_of = {base: k for k, base in enumerate(dict.fromkeys(bases))}
        # Charge levels one apart are the product of the binned cardinalities apart.
        stride = math.prod(spec.bin_count for _, spec in self._binned())
        states = np.fromiter(row_of, dtype=np.intp, count=len(row_of))[:, None]
        return states + np.arange(self.soc_levels) * stride, [row_of[base] for base in bases]

    @classmethod
    def for_series(
        cls,
        kind: EncodingKind,
        series,
        battery_spec,
        config: EncodingConfig = EncodingConfig(),
    ) -> "StateEncoder":
        """Build an encoder of `kind` (`config.kind` is not read) binned as
        `config` sets. An unset `c_bin_max` is the series'
        `config.percentile` of column c, or 1.0 when the column is
        identically zero.
        """
        bins = {}
        for c in _BINNED_COLUMNS[kind]:
            values = getattr(series, c)
            if values is None:
                raise ValueError(f"{kind.value} encoding requires a series with a {c}_kwh column")
            top = getattr(config, f"{c}_bin_max")
            if top is None:
                top = float(np.percentile(values, config.percentile))
                top = top if top > 0 else 1.0
            bins[f"{c}_bins"] = BinSpec(getattr(config, f"{c}_bins"), top)
        return cls(kind=kind, soc_levels=battery_spec.soc_levels, **bins)
