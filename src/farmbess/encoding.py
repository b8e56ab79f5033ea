"""Discrete state encodings: map (hour, battery charge, optional load/PV/wind
bins) onto flat table indices for the three state-space designs."""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class BinSpec:
    """Uniform binning of a non-negative quantity; values >= max_value clamp
    into the top bin."""

    bin_count: int
    max_value: float

    def __post_init__(self) -> None:
        count, top = self.bin_count, self.max_value
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ValueError(f"bin_count must be an integer >= 1, got {count!r}")
        if (
            isinstance(top, bool)
            or not isinstance(top, (int, float))
            or not (math.isfinite(top) and top > 0)
        ):
            raise ValueError(f"max_value must be a finite number > 0, got {top!r}")


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
    """Row-major composition of observation coordinates into a flat index."""

    kind: EncodingKind
    soc_levels: int = 11
    load_bins: BinSpec | None = None
    pv_bins: BinSpec | None = None
    wind_bins: BinSpec | None = None

    def __post_init__(self) -> None:
        levels = self.soc_levels
        if isinstance(levels, bool) or not isinstance(levels, int) or levels < 2:
            raise ValueError(f"soc_levels must be an integer >= 2, got {levels!r}")
        needs = self.kind is not EncodingKind.HOUR_SOC
        if needs and (self.load_bins is None or self.pv_bins is None):
            raise ValueError(f"{self.kind.value} encoding requires load and pv bin specs")
        if self.kind is EncodingKind.HOUR_SOC_LOAD_PV_WIND and self.wind_bins is None:
            raise ValueError("hour-soc-load-pv-wind encoding requires a wind bin spec")

    def dims(self) -> tuple[tuple[str, int], ...]:
        dims = [("hour", 24), ("soc", self.soc_levels)]
        if self.kind is not EncodingKind.HOUR_SOC:
            dims.append(("load", self.load_bins.bin_count))
            dims.append(("pv", self.pv_bins.bin_count))
        if self.kind is EncodingKind.HOUR_SOC_LOAD_PV_WIND:
            dims.append(("wind", self.wind_bins.bin_count))
        return tuple(dims)

    def size(self) -> int:
        """Product of the dimension cardinalities."""
        return math.prod(cardinality for _, cardinality in self.dims())

    def soc_stride(self) -> int:
        """Distance between the flat indices of two states that differ by one
        charge level only: the product of the cardinalities after it."""
        return self.size() // (24 * self.soc_levels)

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
        index = hour_of_day * self.soc_levels + soc_level
        if self.kind is EncodingKind.HOUR_SOC:
            return index
        index = index * self.load_bins.bin_count + value_bin(self.load_bins, load_kwh)
        index = index * self.pv_bins.bin_count + value_bin(self.pv_bins, pv_kwh)
        if self.kind is EncodingKind.HOUR_SOC_LOAD_PV:
            return index
        if wind_kwh is None:
            raise ValueError("wind_kwh is None but the encoding requires a wind value")
        return index * self.wind_bins.bin_count + value_bin(self.wind_bins, wind_kwh)

    def state_bases(self, series) -> np.ndarray:
        """Flat index at charge level 0 of every hour i of a series, in one
        array pass: `encode(i % 24, 0, load[i], pv[i], wind[i])`, bit for bit,
        as `_soc_bins` is `soc_bin`. Hour i at level s is index
        bases[i] + s * soc_stride()."""
        index = np.arange(len(series)) % 24 * self.soc_levels
        if self.kind is EncodingKind.HOUR_SOC:
            return index
        index = index * self.load_bins.bin_count + _value_bins(self.load_bins, series.load)
        index = index * self.pv_bins.bin_count + _value_bins(self.pv_bins, series.pv)
        if self.kind is EncodingKind.HOUR_SOC_LOAD_PV:
            return index
        if series.wind is None:
            raise ValueError("wind_kwh is None but the encoding requires a wind value")
        return index * self.wind_bins.bin_count + _value_bins(self.wind_bins, series.wind)

    @classmethod
    def for_series(
        cls,
        kind: EncodingKind,
        series,
        battery_spec,
        bin_counts: tuple[int, int, int] = (5, 5, 5),
        bin_maxes: tuple[float | None, float | None, float | None] = (None, None, None),
        percentile: float = 99.0,
    ) -> "StateEncoder":
        """Build an encoder with bin ranges taken from the series.

        Each unset max defaults to the series' given percentile of the field
        (1.0 when the field is identically zero).
        """
        if kind is EncodingKind.HOUR_SOC:
            return cls(kind=kind, soc_levels=battery_spec.soc_levels)

        def resolve(values: np.ndarray, explicit: float | None) -> float:
            if explicit is not None:
                return explicit
            p = float(np.percentile(values, percentile))
            return p if p > 0 else 1.0

        load_bins = BinSpec(bin_counts[0], resolve(series.load, bin_maxes[0]))
        pv_bins = BinSpec(bin_counts[1], resolve(series.pv, bin_maxes[1]))
        wind_bins = None
        if kind is EncodingKind.HOUR_SOC_LOAD_PV_WIND:
            if not series.has_wind:
                raise ValueError(
                    "hour-soc-load-pv-wind encoding requires a series with a wind_kwh column"
                )
            wind_bins = BinSpec(bin_counts[2], resolve(series.wind, bin_maxes[2]))
        return cls(
            kind=kind,
            soc_levels=battery_spec.soc_levels,
            load_bins=load_bins,
            pv_bins=pv_bins,
            wind_bins=wind_bins,
        )

