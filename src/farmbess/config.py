"""Run configuration: a single YAML file with nested sections, validated
strictly before any run starts.

The sections are the fields of `RunConfig`, and the keys of each section
are the fields of its dataclass. Unknown keys, values of the wrong type,
non-finite numbers and sizing keys over `_SIZE_CEILING` are rejected where
the file is read, with a one-line `ConfigError` naming `section.key`.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import sys
import types
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import yaml

from .agent import Hyperparams
from .battery import BatterySpec, PenaltyTable
from .encoding import EncodingConfig, EncodingKind, StateEncoder
from .timeseries import (
    HourlySeries,
    SyntheticProfileConfig,
    TariffSchedule,
    generate_synthetic,
    load_csv,
)


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration."""


# The most entries a sizing key may ask one array to hold: the episodes of a
# training log, the hours of a synthetic series, or the states of the widest
# encoding. The defaults ask for at most 10**6, and ten times every default
# size for 3.3 * 10**8 states. Far above it no array can be allocated, and
# numpy would fail with a traceback where the config fails in one line.
_SIZE_CEILING = 10**9


# Sections that configure the run rather than one program object; each
# dataclass holds the section's keys and defaults.
@dataclass(frozen=True)
class _Dataset:
    path: str | None = None
    synthetic: SyntheticProfileConfig | None = None
    include_wind: bool = True

    def __post_init__(self) -> None:
        # With neither a path nor a profile, the dataset is a default
        # synthetic year.
        if self.path is None and self.synthetic is None:
            object.__setattr__(self, "synthetic", SyntheticProfileConfig())


@dataclass(frozen=True)
class _Run:
    output_dir: str = "out"
    seeds: tuple[int, ...] = (0,)
    initial_soc_level: int = 1


def _require_mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {value!r}")
    return value


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = [k for k in section if k not in allowed]
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _check_type(value, hint, name: str):
    """The value a dataclass field typed `hint` holds for `value`: `value`
    itself once it fits a bool, int, float or str type, the tuple or
    frozenset of its items, an enum member from its value, or a dataclass
    built from its mapping."""
    options = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    if value is None and type(None) in options:
        return None
    kind = options[0]
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if kind is bool:
        ok, expected = isinstance(value, bool), "a boolean"
    elif kind is int:
        ok, expected = is_int, "an integer"
    elif kind is float:
        # Compared, not converted: an int too large for a float is refused.
        ok = (is_int or isinstance(value, float)) and abs(value) <= sys.float_info.max
        expected = "a finite number"
    elif kind is str:
        ok, expected = isinstance(value, str), "a string"
    elif typing.get_origin(kind) in (tuple, frozenset):
        ok = isinstance(value, (list, tuple)) and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        )
        expected = "a list of integers"
        kind = typing.get_origin(kind)
    elif isinstance(kind, enum.EnumMeta):
        values = [member.value for member in kind]
        ok, expected = value in values, f"one of: {', '.join(values)}"
    else:
        return _build(kind, value, name)
    if not ok:
        raise ConfigError(f"{name} must be {expected}, got {value!r}")
    return value if kind in (bool, int, float, str) else kind(value)


@functools.cache
def _type_hints(cls) -> dict:
    """`typing.get_type_hints` of a dataclass, resolved once per process."""
    return typing.get_type_hints(cls)


def _build(cls, value, where: str, skip: tuple[str, ...] = ()):
    """An instance of `cls` from a mapping checked against its fields (minus
    `skip`): the keys must be field names and the values must fit their
    types. Errors name the field by its dotted path under `where`."""
    section = _require_mapping(value, where)
    _check_keys(section, [f.name for f in fields(cls) if f.name not in skip], where)
    hints = _type_hints(cls)
    section = {k: _check_type(v, hints[k], f"{where}.{k}") for k, v in section.items()}
    try:
        return cls(**section)
    # A TypeError is a field without a default left out.
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _with_overrides(raw: dict, overrides: dict) -> dict:
    """A copy of `raw` with each dotted key ("battery.capacity_kwh",
    "dataset.synthetic.days") set to its value."""
    raw = dict(raw)
    for dotted, value in overrides.items():
        *parents, name = dotted.split(".")
        node = raw
        for depth, part in enumerate(parents, 1):
            node[part] = dict(_require_mapping(node.get(part), ".".join(parents[:depth])))
            node = node[part]
        node[name] = value
    return raw


def _json_fields(pairs) -> dict:
    """`asdict`'s dict of a dataclass's fields as JSON data: an enum as its
    value, a frozenset as its sorted list."""
    return {
        k: v.value if isinstance(v, enum.Enum) else sorted(v) if isinstance(v, frozenset) else v
        for k, v in pairs
    }


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one experiment batch: each field is a
    section of the file, built as the dataclass it is typed."""

    dataset: _Dataset
    tariff: TariffSchedule
    battery: BatterySpec
    hyperparams: Hyperparams
    encoding: EncodingConfig
    penalties: PenaltyTable
    run: _Run

    @property
    def initial_soc_level(self) -> int:
        # bench/run.py reads this name; the package reads run.initial_soc_level.
        return self.run.initial_soc_level

    @property
    def synthetic(self) -> SyntheticProfileConfig | None:
        # bench/run.py reads this name; the package reads dataset.synthetic.
        return self.dataset.synthetic

    @property
    def resolved(self) -> dict:
        """Every setting, defaults included, as JSON data: a manifest's
        `config`, and what `digest` hashes."""
        return {f.name: asdict(getattr(self, f.name), dict_factory=_json_fields) for f in fields(self)}

    def load_series(self) -> HourlySeries:
        if self.dataset.path is not None:
            series = load_csv(self.dataset.path, tariff=self.tariff)
        else:
            series = generate_synthetic(self.dataset.synthetic, self.tariff)
        if not self.dataset.include_wind and series.has_wind:
            series = series.without_wind()
        return series

    def encoder_for(self, series: HourlySeries, kind: EncodingKind | None = None) -> StateEncoder:
        """The configured encoder fitted to `series`, of `kind` when given
        and else of `encoding.kind`."""
        return StateEncoder.for_series(kind or self.encoding.kind, series, self.battery, self.encoding)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.resolved, sort_keys=True).encode("utf-8")
        ).hexdigest()


def _yaml_problem(exc: yaml.YAMLError) -> str:
    """A YAML error in one line: where and what when PyYAML marks the
    problem, else the first line of its message."""
    mark = getattr(exc, "problem_mark", None)
    problem = getattr(exc, "problem", None)
    if mark is not None and problem:
        return f" at line {mark.line + 1}, column {mark.column + 1}: {problem}"
    lines = str(exc).splitlines()
    return f": {lines[0]}" if lines else ""


def load_config(path: str | Path | None, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a YAML run config; with no path, every setting
    takes its default and the dataset is a default synthetic year.

    `overrides` maps dotted keys ("section.key", or
    "dataset.synthetic.key") to values that take precedence over the file
    (used for command-line flags).
    """
    if path is None:
        return _validate(_with_overrides({}, overrides or {}), "config")
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    # PyYAML raises a plain ValueError for an integer too long to convert.
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"{path}: invalid YAML{_yaml_problem(exc)}") from None
    raw = _require_mapping(raw, str(path))
    return _validate(_with_overrides(raw, overrides or {}), str(path))


def _validate(raw: dict, where: str) -> RunConfig:
    section_types = _type_hints(RunConfig)
    _check_keys(raw, section_types, where)
    # Training seeds come from run.seeds, so rng_seed is not a key.
    sections = {
        name: _build(cls, raw.get(name), name, ("rng_seed",) if cls is Hyperparams else ())
        for name, cls in section_types.items()
    }
    dataset, encoding, run = sections["dataset"], sections["encoding"], sections["run"]
    if dataset.path is not None and dataset.synthetic is not None:
        raise ConfigError("dataset.path and dataset.synthetic are mutually exclusive")

    if not 0 <= encoding.percentile <= 100:
        raise ConfigError(f"encoding.percentile must be in [0, 100], got {encoding.percentile}")
    # Each sizing key with the size it asks for. The bins are sized for the
    # widest encoding, as `compare --ablation` builds every kind.
    states = 24 * sections["battery"].soc_levels
    sizes = {"hyperparams.total_episodes": sections["hyperparams"].total_episodes,
             "battery.soc_levels": states}
    if dataset.synthetic is not None:
        sizes["dataset.synthetic.days"] = 24 * dataset.synthetic.days
    for column in ("load", "pv", "wind"):
        count = getattr(encoding, f"{column}_bins")
        if count < 1:
            raise ConfigError(f"encoding.{column}_bins must be >= 1, got {count}")
        bin_max = getattr(encoding, f"{column}_bin_max")
        if bin_max is not None and not bin_max > 0:
            raise ConfigError(f"encoding.{column}_bin_max must be > 0, got {bin_max}")
        states *= count
        sizes[f"encoding.{column}_bins"] = states
    for key, size in sizes.items():
        if size > _SIZE_CEILING:
            raise ConfigError(
                f"{key} is too large: it sizes an array of {size:,} entries, "
                f"over the limit of {_SIZE_CEILING:,}"
            )

    if not run.seeds:
        raise ConfigError("run.seeds must be a non-empty list of integers")
    # random.Random(-s) draws the stream of Random(s), so a negative seed
    # would repeat another seed's run under another name.
    if min(run.seeds) < 0 or len(set(run.seeds)) != len(run.seeds):
        raise ConfigError(
            f"run.seeds must be distinct integers >= 0, got {list(run.seeds)}"
        )
    top = sections["battery"].soc_levels - 1
    if not 0 <= run.initial_soc_level <= top:
        raise ConfigError(f"run.initial_soc_level must be in 0..{top}")
    # Hyperparams refuses a negative level; the top one is the battery's.
    if sections["hyperparams"].soc_reset_low > top:
        raise ConfigError(f"hyperparams.soc_reset_low must be in 0..{top}")
    return RunConfig(**sections)
