"""Run configuration: a single YAML file with nested sections, validated
strictly before any run starts.

The keys of each section are the fields of one dataclass (`_SECTIONS`).
Unknown keys, values of the wrong type and non-finite numbers are rejected
where the file is read, with a one-line `ConfigError` naming `section.key`.
"""

from __future__ import annotations

import hashlib
import json
import math
import types
import typing
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import yaml

from .agent import Hyperparams
from .battery import BatterySpec, PenaltyTable
from .encoding import EncodingKind, StateEncoder
from .timeseries import (
    HourlySeries,
    SyntheticProfileConfig,
    TariffSchedule,
    default_tariff,
    generate_synthetic,
    load_csv,
)


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration."""


# Sections that configure the run rather than one program object; each
# dataclass holds the section's keys and defaults.
@dataclass(frozen=True)
class _Dataset:
    path: str | None = None
    synthetic: dict | None = None
    include_wind: bool = True


@dataclass(frozen=True)
class _Encoding:
    kind: str = EncodingKind.HOUR_SOC.value
    load_bins: int = 5
    pv_bins: int = 5
    wind_bins: int = 5
    load_bin_max: float | None = None
    pv_bin_max: float | None = None
    wind_bin_max: float | None = None
    percentile: float = 99.0


@dataclass(frozen=True)
class _Run:
    output_dir: str = "out"
    seeds: tuple[int, ...] = (0,)
    initial_soc_level: int = 1


# Section name -> the dataclass whose fields are its keys.
_SECTIONS = {
    "dataset": _Dataset,
    "tariff": TariffSchedule,
    "battery": BatterySpec,
    "hyperparams": Hyperparams,
    "encoding": _Encoding,
    "penalties": PenaltyTable,
    "run": _Run,
}

# Config file read when no path is given: a default synthetic year.
_DEFAULT_CONFIG = {"dataset": {"synthetic": {}}}


def _require_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = [k for k in section if k not in allowed]
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _check_type(value, hint, name: str) -> None:
    """Reject a value that does not fit a dataclass field's type hint."""
    options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    if value is None and type(None) in options:
        return
    kind = options[0]
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if typing.get_origin(kind) in (tuple, frozenset):
        ok = isinstance(value, (list, tuple)) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        )
        expected = "a list of integers"
    elif kind is bool:
        ok, expected = isinstance(value, bool), "a boolean"
    elif kind is int:
        ok, expected = is_int, "an integer"
    elif kind is float:
        ok = (is_int or isinstance(value, float)) and math.isfinite(value)
        expected = "a finite number"
    elif kind is str:
        ok, expected = isinstance(value, str), "a string"
    else:
        ok, expected = isinstance(value, dict), "a mapping"
    if not ok:
        raise ConfigError(f"{name} must be {expected}, got {value!r}")


def _section(cls, value, where: str, skip: tuple[str, ...] = ()) -> dict:
    """A config section checked against the fields of `cls` (minus `skip`):
    its keys must be field names and its values must fit their types."""
    section = _require_mapping(value, where)
    _check_keys(section, [f.name for f in fields(cls) if f.name not in skip], where)
    hints = typing.get_type_hints(cls)
    for key, item in section.items():
        _check_type(item, hints[key], f"{where}.{key}")
    return section


def _build(cls, value, where: str, skip: tuple[str, ...] = ()):
    """An instance of `cls` from a checked config section."""
    section = _section(cls, value, where, skip)
    try:
        return cls(**section)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _with_overrides(raw: dict, overrides: dict) -> dict:
    """A copy of `raw` with each dotted key ("battery.capacity_kwh",
    "dataset.synthetic.days") set to its value."""
    raw = dict(raw)
    for dotted, value in overrides.items():
        *parents, name = dotted.split(".")
        node = raw
        for part in parents:
            node[part] = dict(_require_mapping(node.get(part), part))
            node = node[part]
        node[name] = value
    return raw


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one experiment batch."""

    dataset_path: str | None
    synthetic: SyntheticProfileConfig | None
    include_wind: bool
    tariff: TariffSchedule
    battery: BatterySpec
    hyperparams: Hyperparams
    encoding_kind: EncodingKind
    bin_counts: tuple[int, int, int]
    bin_maxes: tuple[float | None, float | None, float | None]
    percentile: float
    penalties: PenaltyTable
    output_dir: str
    seeds: tuple[int, ...]
    initial_soc_level: int
    resolved: dict = field(compare=False, repr=False, default_factory=dict)

    def load_series(self) -> HourlySeries:
        if self.dataset_path is not None:
            series = load_csv(self.dataset_path, tariff=self.tariff)
        else:
            series = generate_synthetic(self.synthetic, self.tariff)
        if not self.include_wind and series.has_wind:
            series = series.without_wind()
        return series

    def encoder_for(self, series: HourlySeries) -> StateEncoder:
        return StateEncoder.for_series(
            self.encoding_kind,
            series,
            self.battery,
            bin_counts=self.bin_counts,
            bin_maxes=self.bin_maxes,
            percentile=self.percentile,
        )

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.resolved, sort_keys=True).encode("utf-8")
        ).hexdigest()


def _build_tariff(value) -> TariffSchedule:
    section = _section(TariffSchedule, value, "tariff")
    rates = {k: v for k, v in section.items() if k.endswith("_rate")}
    hours = {k: frozenset(v) for k, v in section.items() if k.endswith("_hours")}
    if list(hours) == ["standard_hours"]:
        raise ConfigError("standard_hours given without off_peak_hours/peak_hours")
    try:
        base = default_tariff(**rates)
        if hours and "standard_hours" not in hours:
            off_peak = hours.get("off_peak_hours", base.off_peak_hours)
            peak = hours.get("peak_hours", base.peak_hours)
            hours["standard_hours"] = frozenset(range(24)) - off_peak - peak
        return replace(base, **hours)
    except ValueError as exc:
        raise ConfigError(f"tariff: {exc}") from None


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a YAML run config; with no path, every setting
    takes its default and the dataset is a default synthetic year.

    `overrides` maps dotted keys ("section.key", or
    "dataset.synthetic.key") to values that take precedence over the file
    (used for command-line flags).
    """
    if path is None:
        return _validate(_with_overrides(_DEFAULT_CONFIG, overrides or {}), "config")
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from None
    raw = _require_mapping(raw, str(path))
    return _validate(_with_overrides(raw, overrides or {}), str(path))


def config_from_dict(raw: dict) -> RunConfig:
    """Validate an already-parsed config mapping."""
    return _validate(raw, "config")


def _validate(raw: dict, where: str) -> RunConfig:
    _check_keys(raw, _SECTIONS, where)
    dataset = _build(_Dataset, raw.get("dataset"), "dataset")
    if dataset.path is not None and dataset.synthetic is not None:
        raise ConfigError("dataset.path and dataset.synthetic are mutually exclusive")
    synthetic = None
    if dataset.path is None:
        synthetic = _build(SyntheticProfileConfig, dataset.synthetic, "dataset.synthetic")
    tariff = _build_tariff(raw.get("tariff"))
    battery = _build(BatterySpec, raw.get("battery"), "battery")
    # Training seeds come from run.seeds, so rng_seed is not a key.
    hyperparams = _build(Hyperparams, raw.get("hyperparams"), "hyperparams", skip=("rng_seed",))

    encoding = _build(_Encoding, raw.get("encoding"), "encoding")
    try:
        kind = EncodingKind(encoding.kind)
    except ValueError:
        valid = ", ".join(k.value for k in EncodingKind)
        raise ConfigError(f"encoding.kind must be one of: {valid}") from None
    if not 0 <= encoding.percentile <= 100:
        raise ConfigError(f"encoding.percentile must be in [0, 100], got {encoding.percentile}")

    pen_section = _section(PenaltyTable, raw.get("penalties"), "penalties")
    penalties = PenaltyTable(**{k: float(v) for k, v in pen_section.items()})

    run = _build(_Run, raw.get("run"), "run")
    if not run.seeds:
        raise ConfigError("run.seeds must be a non-empty list of integers")
    if not 0 <= run.initial_soc_level < battery.soc_levels:
        raise ConfigError(
            f"run.initial_soc_level must be in 0..{battery.soc_levels - 1}"
        )

    resolved = {
        "dataset": {**asdict(dataset), "synthetic": asdict(synthetic) if synthetic else None},
        "tariff": {
            k: sorted(v) if isinstance(v, frozenset) else v for k, v in asdict(tariff).items()
        },
        "battery": asdict(battery),
        "hyperparams": asdict(hyperparams),
        "encoding": asdict(encoding),
        "penalties": asdict(penalties),
        "run": asdict(run),
    }
    return RunConfig(
        dataset_path=dataset.path,
        synthetic=synthetic,
        include_wind=dataset.include_wind,
        tariff=tariff,
        battery=battery,
        hyperparams=hyperparams,
        encoding_kind=kind,
        bin_counts=(encoding.load_bins, encoding.pv_bins, encoding.wind_bins),
        bin_maxes=(encoding.load_bin_max, encoding.pv_bin_max, encoding.wind_bin_max),
        percentile=float(encoding.percentile),
        penalties=penalties,
        output_dir=run.output_dir,
        seeds=tuple(run.seeds),
        initial_soc_level=run.initial_soc_level,
        resolved=resolved,
    )
