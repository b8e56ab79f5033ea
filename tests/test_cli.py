"""Command-line front end: config handling, output files, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import errno
import functools
import hashlib
import io
import json
import math
import operator
import os
import re
import struct
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, seed, settings, strategies as st

from farmbess import (
    EncodingKind,
    QTable,
    StateEncoder,
    SyntheticProfileConfig,
    TariffSchedule,
    cli,
    generate_synthetic,
)
from farmbess.agent import load_qtable, save_qtable
from farmbess.cli import OUTPUT_DIR_ENV, main
from farmbess.config import ConfigError, RunConfig, _type_hints, load_config
from farmbess.encoding import BinSpec
from farmbess.evaluation import ComparisonReport, qtable_controller, rollout
from test_timeseries import _OVERLONG_CELL, _mutated_csv


def _refuse_constant(name):
    raise ValueError(f"JSON holds {name}")


def _read_strict_json(path: Path):
    """The file's JSON, refusing the NaN and Infinity that `json` writes by
    default and that no JSON reader need accept."""
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


def _non_finite_cells(path: Path) -> list[str]:
    """The cells of a CSV file that spell an infinity or a NaN, bare or in a
    wrapper such as `np.float64(…)`."""
    with path.open(newline="", encoding="utf-8") as handle:
        cells = [cell for row in csv.reader(handle) for cell in row]
    return [cell for cell in cells if re.search(r"(?i)\b(inf|infinity|nan)\b", cell)]


def _config(tmp_path, text, name="run.yaml") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SMALL_SYNTH = """
dataset:
  synthetic:
    days: 4
    rng_seed: 3
hyperparams:
  total_episodes: 500
run:
  output_dir: "{out}"
  seeds: [7]
"""


# ---------------------------------------------------------------- config


def test_config_rejects_unknown_key(tmp_path):
    path = _config(tmp_path, "dataset:\n  synthetic: {}\nbogus_section: 1\n")
    with pytest.raises(ConfigError, match="bogus_section"):
        load_config(path)


def test_config_rejects_unknown_nested_key(tmp_path):
    path = _config(tmp_path, "battery:\n  capasity_kwh: 5\ndataset:\n  synthetic: {}\n")
    with pytest.raises(ConfigError, match="capasity_kwh"):
        load_config(path)


def test_config_defaults(tmp_path):
    path = _config(tmp_path, "dataset:\n  synthetic: {}\n")
    config = load_config(path)
    assert config.battery.capacity_kwh == 13.5
    assert config.hyperparams.total_episodes == 1_000_000
    assert config.encoding.kind is EncodingKind.HOUR_SOC
    assert config.run.seeds == (0,)
    assert config.dataset.synthetic == SyntheticProfileConfig()
    assert hash(config) == hash(load_config(path))
    # The default config is the same default synthetic year; bench/run.py
    # reads its profile as `synthetic`.
    assert load_config(None).synthetic == SyntheticProfileConfig()


def test_config_path_and_synthetic_are_exclusive(tmp_path):
    path = _config(
        tmp_path, "dataset:\n  path: x.csv\n  synthetic:\n    days: 1\n"
    )
    with pytest.raises(ConfigError, match="mutually exclusive"):
        load_config(path)


def test_config_digest_stable(tmp_path):
    path = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "o"))
    assert load_config(path).digest() == load_config(path).digest()


# The tariff section of each config; the default config sets none of it.
TARIFF_CONFIG_DIGESTS = {
    None: "39bffe4427fb63b23dfb97333bf0f86c7ae5e257cde46f5a91eb3cd8996fb4d9",
    # every key
    "  off_peak_hours: [0, 1, 2, 3, 4, 5]\n"
    "  standard_hours: [6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 21, 22, 23]\n"
    "  peak_hours: [16, 17, 18, 19, 20]\n"
    "  off_peak_rate: 0.04\n"
    "  standard_rate: 0.12\n"
    "  peak_rate: 0.3\n": "03af99b87d7b5442c096b6c48d6ff94e82a240790c371b71026637324617a5c7",
    # standard hours left to be the rest of the day
    "  off_peak_hours: [0, 1, 2, 3, 4, 5]\n"
    "  peak_hours: [16, 17, 18, 19, 20]\n"
    "  peak_rate: 0.3\n": "32d57e6c40e3233f3e70dea43d5d70cad53618b9bbc173903cba72556603e778",
}


@pytest.mark.parametrize("tariff", list(TARIFF_CONFIG_DIGESTS), ids=["default", "all", "derived"])
def test_config_digest_is_pinned(tmp_path, tariff):
    """The resolved config, and so every manifest's digest, is unchanged
    byte for byte by how the tariff section is built."""
    if tariff is None:
        config = load_config(None)
    else:
        config = load_config(_config(tmp_path, f"dataset:\n  synthetic: {{}}\ntariff:\n{tariff}"))
    assert config.digest() == TARIFF_CONFIG_DIGESTS[tariff]


# Integers in float keys and the run's seeds: penalty rows are stored as
# floats, every other key as the file gives it.
INT_VALUED_CONFIG = """
dataset:
  synthetic: {days: 3, rng_seed: 2}
  include_wind: false
penalties: {charge_full: -9, discharge_empty: 0}
encoding: {percentile: 95, load_bins: 3, load_bin_max: 7}
battery: {capacity_kwh: 20, soc_levels: 21}
hyperparams: {decay: 0, total_episodes: 5}
run: {seeds: [3, 1], initial_soc_level: 2}
tariff: {peak_rate: 1}
"""


def test_config_digest_of_int_valued_keys_is_pinned(tmp_path):
    config = load_config(_config(tmp_path, INT_VALUED_CONFIG))
    assert config.penalties.charge_full == -9.0 and type(config.penalties.charge_full) is float
    assert config.run.seeds == (3, 1)
    assert config.digest() == "4de0aed6ea8fa8daaf122c897a0cbdc70fc2b652d7ed99d19e5ef8170b08699d"


def test_config_custom_tariff_hours(tmp_path):
    path = _config(
        tmp_path,
        "dataset:\n  synthetic: {}\n"
        "tariff:\n  off_peak_hours: [0,1,2,3,4,5,6,7,8,9,10,11]\n"
        "  peak_hours: [12,13]\n",
    )
    config = load_config(path)
    assert 11 in config.tariff.off_peak_hours
    assert config.tariff.standard_hours == frozenset(range(14, 24))


def test_config_standard_hours_alone_partition_with_the_default_hours(tmp_path, capsys):
    rest = "  standard_hours: [7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 19, 20, 21, 22]\n"
    path = _config(tmp_path, f"dataset:\n  synthetic: {{}}\ntariff:\n{rest}")
    assert load_config(path).tariff == TariffSchedule()
    path = _config(tmp_path, "dataset:\n  synthetic: {}\ntariff:\n  standard_hours: [7, 8]\n")
    code = main(["evaluate", "--config", str(path), "baseline:no-battery"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: tariff: off_peak_hours, standard_hours and peak_hours must partition the 24 "
        "hours of a day\n"
    )


# A valid value other than its default for each key of each section (the
# fields of `RunConfig` plus dataset.synthetic), as the built object holds it.
NON_DEFAULT_KEYS = {
    "dataset": {"include_wind": False},
    "dataset.synthetic": {
        "days": 9, "base_load_kwh": 7.0, "load_amplitude_kwh": 11.0, "pv_peak_kwh": 14.0,
        "wind_mean_kwh": 3.0, "noise_fraction": 0.1, "rng_seed": 4,
    },
    "tariff": {
        "off_peak_hours": frozenset(range(6)),
        "standard_hours": frozenset({*range(6, 16), 21, 22, 23}),
        "peak_hours": frozenset(range(16, 21)),
        "off_peak_rate": 0.04, "standard_rate": 0.12, "peak_rate": 0.3,
    },
    "battery": {
        "capacity_kwh": 20.0, "charge_rate_kw": 3.0, "discharge_rate_kw": 4.0,
        "reserve_fraction": 0.2, "soc_levels": 21,
    },
    "hyperparams": {
        "learning_rate_init": 0.7, "epsilon_init": 0.6, "discount_factor": 0.95,
        "decay": 0.001, "floor": 0.05, "total_episodes": 123, "steps_per_episode": 12,
        "soc_reset_low": 1,
    },
    "encoding": {
        "kind": EncodingKind.HOUR_SOC_LOAD_PV_WIND, "load_bins": 3, "pv_bins": 4, "wind_bins": 6,
        "load_bin_max": 30.0, "pv_bin_max": 25.0, "wind_bin_max": 9.0, "percentile": 95.0,
    },
    "penalties": {
        "charge_full_peak": -14.0, "charge_full": -9.0, "charge_peak": -8.0,
        "charge_off_peak_bonus": 4.0, "discharge_empty": -7.0, "discharge_off_peak": -6.0,
        "discharge_peak_bonus": 3.0, "idle_peak_with_charge": -2.0,
    },
    "run": {"output_dir": "elsewhere", "seeds": (3, 1), "initial_soc_level": 2},
}

def _non_default_raw() -> dict:
    """NON_DEFAULT_KEYS as the mapping a YAML file holds."""
    raw = {
        section: {
            k: v.value if isinstance(v, EncodingKind)
            else list(v) if isinstance(v, (frozenset, tuple)) else v
            for k, v in values.items()
        }
        for section, values in NON_DEFAULT_KEYS.items()
    }
    raw["dataset"]["synthetic"] = raw.pop("dataset.synthetic")
    return raw


def _read_back(config, section, key):
    return getattr(functools.reduce(getattr, section.split("."), config), key)


def test_every_config_key_reaches_its_object(tmp_path):
    sections = {**_type_hints(RunConfig), "dataset.synthetic": SyntheticProfileConfig}
    # dataset.synthetic is a section of its own and dataset.path excludes it;
    # training seeds come from run.seeds.
    unset = {"dataset": {"path", "synthetic"}, "hyperparams": {"rng_seed"}}
    for section, cls in sections.items():
        defaults = {f.name: f.default for f in fields(cls)}
        for key in unset.get(section, ()):
            del defaults[key]
        values = NON_DEFAULT_KEYS[section]
        assert set(values) == set(defaults), section
        assert all(values[k] != defaults[k] for k in values), section

    config = load_config(_config(tmp_path, yaml.safe_dump(_non_default_raw())))
    for section, values in NON_DEFAULT_KEYS.items():
        for key, value in values.items():
            assert _read_back(config, section, key) == value, f"{section}.{key}"
    # The encoder a run builds carries the encoding keys.
    encoder = config.encoder_for(generate_synthetic(config.dataset.synthetic, config.tariff))
    assert encoder.kind is EncodingKind.HOUR_SOC_LOAD_PV_WIND
    assert encoder.soc_levels == 21
    assert [encoder.load_bins, encoder.pv_bins, encoder.wind_bins] == [
        BinSpec(3, 30.0), BinSpec(4, 25.0), BinSpec(6, 9.0)
    ]

    path = _config(tmp_path, "dataset:\n  path: farm.csv\n", name="path.yaml")
    assert _read_back(load_config(path), "dataset", "path") == "farm.csv"


# ---------------------------------------------------------------- gen-data


def test_gen_data_writes_expected_rows(tmp_path, capsys):
    out = tmp_path / "year.csv"
    assert main(["gen-data", "--days", "365", "--seed", "7", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 8761
    assert lines[0] == "hour,load_kwh,pv_kwh,wind_kwh,price_per_kwh"
    assert "annual_load_kwh" in capsys.readouterr().out


def test_gen_data_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["gen-data", "--days", "30", "--seed", "9", "--out", str(a)])
    main(["gen-data", "--days", "30", "--seed", "9", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_rejects_zero_days(tmp_path, capsys):
    code = main(["gen-data", "--days", "0", "--out", str(tmp_path / "x.csv")])
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "\n" not in err.strip()


def test_gen_data_refuses_a_directory_before_generating(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "generate_synthetic", lambda *args: calls.append(args))
    code = main(["gen-data", "--days", "30", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(tmp_path))}\n"
    assert calls == []


def test_gen_data_writes_to_the_configured_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    config = _config(tmp_path, "dataset:\n  synthetic:\n    days: 2\nrun:\n  output_dir: mydir\n")
    assert main(["gen-data", "--config", str(config)]) == 0
    assert len((tmp_path / "mydir" / "synthetic.csv").read_text().splitlines()) == 2 * 24 + 1
    assert not (tmp_path / "out").exists()


def test_gen_data_no_wind_flag(tmp_path):
    out = tmp_path / "dry.csv"
    main(["gen-data", "--days", "2", "--seed", "1", "--no-wind", "--out", str(out)])
    assert out.read_text().splitlines()[0] == "hour,load_kwh,pv_kwh,price_per_kwh"


def test_gen_data_honours_include_wind_false(tmp_path):
    config = _config(
        tmp_path, "dataset:\n  synthetic:\n    days: 7\n  include_wind: false\n"
    )
    out = tmp_path / "dry.csv"
    assert main(["gen-data", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "hour,load_kwh,pv_kwh,price_per_kwh"
    assert len(lines) == 7 * 24 + 1


# ---------------------------------------------------------------- train


def test_train_writes_three_files(tmp_path, capsys):
    out = tmp_path / "out"
    config = _config(tmp_path, SMALL_SYNTH.format(out=out))
    assert main(["train", "--config", str(config)]) == 0
    assert (out / "qtable_seed7.qt").exists()
    assert (out / "training_log_seed7.csv").exists()
    manifest = json.loads((out / "manifest_seed7.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["total_episodes"] == 500
    assert manifest["state_space_size"] == 264
    assert manifest["config_sha256"]


def test_train_two_seeds_two_tables(tmp_path):
    out = tmp_path / "out"
    text = SMALL_SYNTH.format(out=out).replace("seeds: [7]", "seeds: [7, 8]")
    config = _config(tmp_path, text)
    assert main(["train", "--config", str(config)]) == 0
    assert (out / "qtable_seed7.qt").exists()
    assert (out / "qtable_seed8.qt").exists()


def test_train_reproducible_qtable_file(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    config = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "unused"))
    assert main(["train", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(config), "--out", str(out_b)]) == 0
    assert (out_a / "qtable_seed7.qt").read_bytes() == (out_b / "qtable_seed7.qt").read_bytes()


def test_train_wind_encoding_on_windless_data(tmp_path, capsys):
    csv = tmp_path / "dry.csv"
    main(["gen-data", "--days", "2", "--seed", "1", "--no-wind", "--out", str(csv)])
    config = _config(
        tmp_path,
        f"dataset:\n  path: {csv}\n"
        "encoding:\n  kind: hour-soc-load-pv-wind\n"
        "hyperparams:\n  total_episodes: 10\n"
        f"run:\n  output_dir: {tmp_path / 'o'}\n",
    )
    code = main(["train", "--config", str(config)])
    assert code != 0
    assert "wind_kwh" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_train_rejects_workers_below_one(tmp_path, capsys, workers):
    out = tmp_path / "out"
    config = _config(tmp_path, SMALL_SYNTH.format(out=out))
    assert main(["train", "--config", str(config), "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--workers" in err
    assert "\n" not in err.strip()
    assert not out.exists()


def test_train_worker_pool_matches_sequential(tmp_path):
    """Two seeds trained in a two-process pool write the same bytes as the
    same seeds trained one after the other."""
    text = SMALL_SYNTH.replace("days: 4", "days: 2").replace("seeds: [7]", "seeds: [7, 8]")
    config = _config(tmp_path, text.format(out=tmp_path / "unused"))
    out_seq, out_pool = tmp_path / "seq", tmp_path / "pool"
    assert main(["train", "--config", str(config), "--out", str(out_seq), "--workers", "1"]) == 0
    assert main(["train", "--config", str(config), "--out", str(out_pool), "--workers", "2"]) == 0
    names = [
        f"{stem}_seed{seed}.{ext}"
        for seed in (7, 8)
        for stem, ext in (("qtable", "qt"), ("training_log", "csv"), ("manifest", "json"))
    ]
    assert sorted(p.name for p in out_pool.iterdir()) == sorted(names)
    for name in names:
        assert (out_pool / name).read_bytes() == (out_seq / name).read_bytes(), name


def test_train_starts_no_more_workers_than_seeds(tmp_path, monkeypatch):
    """The pool may start every worker at once, so `--workers` above the
    seed count asks for one worker a seed."""
    import concurrent.futures

    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    text = SMALL_SYNTH.replace("days: 4", "days: 2").replace("seeds: [7]", "seeds: [7, 8]")
    config = _config(tmp_path, text.format(out=tmp_path / "out"))
    assert main(["train", "--config", str(config), "--workers", "64"]) == 0
    assert asked == [2]


# The Q-tables and training logs of three seeds trained on SMALL_SYNTH, as
# the build that loaded the series once per seed wrote them. A log is hashed
# with numpy 2's `np.float64(x)` written as numpy 1.x writes it, bare `x`.
THREE_SEED_DIGESTS = {
    "qtable_seed7.qt": "2a74c9a685959c1ab1bf41b09e3d0265a4b89ff822eb0eb02ae23382526b95c9",
    "qtable_seed8.qt": "6e2ffb216b2c0d9f5e0ad86ecfeada28e9a6f9c721b79c7dcdea30629a715efe",
    "qtable_seed9.qt": "c5f0b5554395e59c35126e8efc0b28a8fa178f4a8654347017aff8f933a249bf",
    "training_log_seed7.csv": "3dd5ece464f3a95a7f9388303a136c917fc4de2ddec94d739a6742fe4f0e986f",
    "training_log_seed8.csv": "6fc5c63720fd067aab4801ed3d2038a4fe48f10299bcccd2b2b3d7c293c26ccf",
    "training_log_seed9.csv": "6c8b451aa880f80743718b5b398917383a27bfa8fc4ab82235393adab257a9bf",
}


def test_train_loads_the_series_once_for_every_seed(tmp_path, monkeypatch):
    calls = []
    load_series = RunConfig.load_series

    def counted(self):
        calls.append(self)
        return load_series(self)

    monkeypatch.setattr(RunConfig, "load_series", counted)
    text = SMALL_SYNTH.format(out="out").replace("seeds: [7]", "seeds: [7, 8, 9]")
    config = _config(tmp_path, text)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    digests = {}
    for name in THREE_SEED_DIGESTS:
        data = (tmp_path / "out" / name).read_bytes()
        if name.endswith(".csv"):
            data = re.sub(rb"np\.float64\(([^)]*)\)", rb"\1", data)
        digests[name] = hashlib.sha256(data).hexdigest()
    assert digests == THREE_SEED_DIGESTS


def test_cli_import_leaves_the_worker_pool_unloaded():
    """Only a multi-seed `train --workers` needs concurrent.futures, so
    importing the CLI does not load it."""
    src = Path(cli.__file__).resolve().parents[1]
    check = "import sys, farmbess.cli; sys.exit('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0


@pytest.mark.parametrize("under", ["", "sub"])
def test_train_refuses_an_out_at_or_under_a_file_before_training(
    tmp_path, capsys, monkeypatch, under
):
    """The output directory is made only by the first file written, so an
    `--out` that a file blocks is refused in one line naming the file,
    before any training."""
    calls = []
    monkeypatch.setattr(cli, "train", lambda *args, **kwargs: calls.append(args))
    config = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "unused"))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    assert main(["train", "--config", str(config), "--out", str(afile / under)]) == 2
    refusal = NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(afile))
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert calls == []
    assert afile.read_text() == "kept\n"


def test_train_episodes_override_flag(tmp_path):
    out = tmp_path / "out"
    config = _config(tmp_path, SMALL_SYNTH.format(out=out))
    assert main(["train", "--config", str(config), "--episodes", "50"]) == 0
    manifest = json.loads((out / "manifest_seed7.json").read_text())
    assert manifest["total_episodes"] == 50


def test_train_refuses_negative_episodes_naming_the_field(tmp_path, capsys):
    config = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "out"))
    code = main(["train", "--config", str(config), "--episodes", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: hyperparams: total_episodes must be >= 0, got -1\n"


def test_train_refuses_a_floor_below_zero_naming_the_field(tmp_path, capsys):
    """A negative floor used to train on negative rates and write a table
    that `load_qtable` refuses as non-finite."""
    text = SMALL_SYNTH.replace("days: 4", "days: 2").replace(
        "total_episodes: 500", "total_episodes: 3000\n  floor: -0.5\n  decay: 0.05"
    )
    out = tmp_path / "out"
    config = _config(tmp_path, text.format(out=out))
    assert main(["train", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: hyperparams: floor must be >= 0, got -0.5\n"
    assert not (out / "qtable_seed7.qt").exists()


@pytest.mark.parametrize("flags", [[], ["--days", "2"]], ids=["file", "flag"])
def test_a_bare_section_is_named_by_its_dotted_path(tmp_path, capsys, flags):
    # With --days the override path walks into dataset.synthetic before the
    # section is built, and must name the section as the build does.
    config = _config(tmp_path, "dataset:\n  synthetic: 5\n")
    code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "x.csv"), *flags])
    assert code == 2
    assert capsys.readouterr().err == "error: dataset.synthetic must be a mapping, got 5\n"


def test_each_main_call_sees_only_its_own_flags(tmp_path):
    # main shares one parser across calls in a process; a flag of one call
    # must not leak into the next.
    config = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "out"))
    for out, flags, episodes in ((tmp_path / "a", ["--episodes", "50"], 50),
                                 (tmp_path / "b", [], 500)):
        assert main(["train", "--config", str(config), "--out", str(out), *flags]) == 0
        manifest = json.loads((out / "manifest_seed7.json").read_text())
        assert manifest["total_episodes"] == episodes
    assert main(["gen-data", "--days", "1", "--no-wind", "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["gen-data", "--days", "1", "--out", str(tmp_path / "b.csv")]) == 0
    assert "wind_kwh" not in (tmp_path / "a.csv").read_text().splitlines()[0]
    assert "wind_kwh" in (tmp_path / "b.csv").read_text().splitlines()[0]


def test_every_override_flag_sets_a_field_of_its_config_section():
    """An override flag's dest is the dotted config key it sets, so a
    mistyped key fails here rather than in a run."""
    sections = {**_type_hints(RunConfig), "dataset.synthetic": SyntheticProfileConfig}
    commands = next(
        action.choices
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    keys = {
        action.dest
        for command in commands.values()
        for action in command._actions
        if "." in action.dest
    }
    assert {"dataset.synthetic.days", "dataset.include_wind", "hyperparams.total_episodes"} <= keys
    for key in keys:
        section, _, name = key.rpartition(".")
        assert name in {f.name for f in fields(sections[section])}, key


def test_output_dir_env_override(tmp_path, monkeypatch):
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("FARMBESS_OUTPUT_DIR", str(env_out))
    config = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "ignored"))
    assert main(["train", "--config", str(config)]) == 0
    assert (env_out / "qtable_seed7.qt").exists()


# ---------------------------------------------------------------- evaluate


def test_evaluate_no_battery_zero_activity(tmp_path):
    out = tmp_path / "out"
    config = _config(tmp_path, SMALL_SYNTH.format(out=out))
    assert main(["evaluate", "--config", str(config), "baseline:no-battery"]) == 0
    rows = (out / "eval_baseline-no-battery.csv").read_text().splitlines()[1:]
    soc_values = {row.split(",")[4] for row in rows}
    assert len(soc_values) == 1  # battery never moves


def test_evaluate_tou_grid_charges_only_off_peak(tmp_path):
    out = tmp_path / "out"
    config = _config(tmp_path, SMALL_SYNTH.format(out=out))
    assert main(["evaluate", "--config", str(config), "baseline:tou"]) == 0
    report = json.loads((out / "eval_baseline-tou.json").read_text())
    assert report["label"] == "baseline:tou"

    series = load_config(config).load_series()
    rows = (out / "eval_baseline-tou.csv").read_text().splitlines()[1:]
    off_peak = load_config(config).tariff.off_peak_hours
    assert len(rows) == len(series)
    for i, row in enumerate(rows):
        grid_import = float(row.split(",")[2])
        deficit = max(0.0, series.load[i] - series.renewables[i])
        if grid_import > deficit + 1e-9:
            assert i % 24 in off_peak


def test_evaluate_trained_qtable(tmp_path):
    out = tmp_path / "out"
    config = _config(tmp_path, SMALL_SYNTH.format(out=out))
    assert main(["train", "--config", str(config)]) == 0
    table = out / "qtable_seed7.qt"
    assert main(["evaluate", "--config", str(config), f"qtable:{table}"]) == 0
    assert (out / "eval_qtable-qtable_seed7.csv").exists()
    assert (out / "eval_qtable-qtable_seed7.json").exists()


def test_evaluate_missing_qtable(tmp_path, capsys):
    config = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "o"))
    code = main(["evaluate", "--config", str(config), "qtable:absent.qt"])
    assert code != 0
    assert "not found" in capsys.readouterr().err


def test_evaluate_encoding_mismatch(tmp_path, capsys):
    out = tmp_path / "out"
    config = _config(tmp_path, SMALL_SYNTH.format(out=out))
    assert main(["train", "--config", str(config)]) == 0
    other = _config(
        tmp_path,
        SMALL_SYNTH.format(out=out) + "encoding:\n  kind: hour-soc-load-pv\n",
        name="other.yaml",
    )
    code = main(["evaluate", "--config", str(other), f"qtable:{out / 'qtable_seed7.qt'}"])
    assert code != 0
    assert "does not match" in capsys.readouterr().err


def _evaluate_edited_table(tmp_path, capsys, key, value):
    """`evaluate` of a table saved for the configured hour-soc-load-pv
    encoding, with its header's `key` set to the JSON text `value`: the path,
    the exit code and what was printed to stderr."""
    text = SMALL_SYNTH.format(out=tmp_path / "out") + "encoding:\n  kind: hour-soc-load-pv\n"
    config = _config(tmp_path, text)
    loaded = load_config(config)
    encoder = loaded.encoder_for(loaded.load_series())
    path = tmp_path / "t.qt"
    save_qtable(QTable(np.zeros((encoder.size(), 3)), encoder), path)
    header, _, payload = path.read_bytes().partition(b"\n")
    data = json.loads(header)
    data[key] = "VALUE"
    path.write_bytes(
        json.dumps(data, sort_keys=True).encode().replace(b'"VALUE"', value) + b"\n" + payload
    )
    code = main(["evaluate", "--config", str(config), f"qtable:{path}"])
    return path, code, capsys.readouterr().err


@pytest.mark.parametrize("value", [b"true", b"1.0", b'"1"'])
def test_evaluate_refuses_a_format_version_that_is_not_the_integer_1(tmp_path, capsys, value):
    path, code, err = _evaluate_edited_table(tmp_path, capsys, "format_version", value)
    assert code == 2
    assert err == (
        f"error: {path}: format version {json.loads(value)!r} is not supported "
        "(this build reads version 1)\n"
    )


@pytest.mark.parametrize(
    "value",
    [b'[["x", 5]]', b"null", b'[["hour", 24], ["soc", 11], ["load", 5], ["pv", 4]]',
     b'[["hour", 24], ["soc", 11.0], ["load", 5], ["pv", 5]]'],
    ids=["unknown", "null", "bin-count", "float"],
)
def test_evaluate_refuses_header_dims_unlike_the_encodings(tmp_path, capsys, value):
    path, code, err = _evaluate_edited_table(tmp_path, capsys, "dims", value)
    assert code == 2
    assert err.startswith(f"error: {path}: header dims ")
    assert "\n" not in err[:-1]


def test_evaluate_refuses_a_header_with_zero_steps_per_episode(tmp_path, capsys):
    path, code, err = _evaluate_edited_table(
        tmp_path, capsys, "hyperparams", b'{"steps_per_episode": 0}'
    )
    assert code == 2
    assert err == (
        f"error: {path}: bad header (hyperparams: steps_per_episode must be >= 1, got 0)\n"
    )


def test_evaluate_uses_the_tables_own_bin_maxes(tmp_path):
    # evaluate checks the encoding kind and bin counts only: a table binned
    # on one series is applied to another series with its stored bin maxes
    out = tmp_path / "out"
    trained = SMALL_SYNTH.format(out=out) + "encoding:\n  kind: hour-soc-load-pv\n"
    assert main(["train", "--config", str(_config(tmp_path, trained))]) == 0
    path = out / "qtable_seed7.qt"
    other = _config(tmp_path, trained.replace("rng_seed: 3", "rng_seed: 4"), name="other.yaml")
    config = load_config(other)
    series = config.load_series()
    table = load_qtable(path)
    assert table.encoder != config.encoder_for(series)
    assert table.encoder.dims() == config.encoder_for(series).dims()

    ref = f"qtable:{path}"
    assert main(["evaluate", "--config", str(other), ref]) == 0
    expected = rollout(qtable_controller(table, config.battery), series, config.battery,
                       initial_soc_level=config.run.initial_soc_level, label=ref)
    written = json.loads((out / "eval_qtable-qtable_seed7.json").read_text())
    assert written == json.loads(json.dumps(expected.to_json_dict()))


EVALUATE_DIGESTS = {
    "eval_baseline-msc.csv": "baceb00f6fda3a1b4d781312b666db18849373970a1546f59cd00d2cabfee129",
    "eval_baseline-msc.json": "bd6ee834342a9def3e5d2f9380f0745e44271298f56ce025a148ddfc2a83fdb1",
    "eval_qtable-qtable_seed7.csv": "b29ea15f324b1e3e8edfe668ad2b475a19a5c671dcbd1b8af6c6bd59141ea4da",
    "eval_qtable-qtable_seed7.json": "47a16aa62f97e2bf1cb06126a6a25f28bd093f5929baaac77220790ff5be7e56",
}


def test_evaluate_report_bytes_are_pinned(tmp_path, monkeypatch):
    # Run from the temporary directory with a relative output path, so the
    # q-table reference (the report's label) does not depend on where it is.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    config = _config(tmp_path, SMALL_SYNTH.format(out="out"))
    assert main(["evaluate", "--config", str(config), "baseline:msc"]) == 0
    assert main(["train", "--config", str(config)]) == 0
    assert main(["evaluate", "--config", str(config), "qtable:out/qtable_seed7.qt"]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in EVALUATE_DIGESTS
    }
    assert digests == EVALUATE_DIGESTS


COMPARE_DIGESTS = {
    "refs": "e04738ce42fbbd032b2735c085f66dd825f894e0c8d71d4f489cbd3409ab4442",
    "ablation": "687ea93a293161f31a90a5d6bc580b101028febec5b767a5ceb001580530b190",
}


def test_compare_report_bytes_are_pinned(tmp_path, monkeypatch):
    # As in test_evaluate_report_bytes_are_pinned: relative paths, so the
    # q-table label does not depend on the temporary directory.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    config = _config(tmp_path, SMALL_SYNTH.format(out="out"))
    assert main(["train", "--config", str(config)]) == 0
    refs = ["baseline:no-battery", "baseline:msc", "baseline:tou", "qtable:out/qtable_seed7.qt"]
    digests = {}
    for name, argv in (("refs", refs), ("ablation", ["--ablation"])):
        assert main(["compare", "--config", str(config), *argv]) == 0
        data = (tmp_path / "out" / "comparison.json").read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
    assert digests == COMPARE_DIGESTS


def test_evaluate_unknown_baseline(tmp_path, capsys):
    config = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "o"))
    assert main(["evaluate", "--config", str(config), "baseline:mppt"]) != 0
    assert "unknown baseline" in capsys.readouterr().err


# ---------------------------------------------------------------- compare


def test_compare_two_baselines_and_qtable(tmp_path):
    out = tmp_path / "out"
    config = _config(tmp_path, SMALL_SYNTH.format(out=out))
    assert main(["train", "--config", str(config)]) == 0
    table = out / "qtable_seed7.qt"
    code = main([
        "compare", "--config", str(config),
        "baseline:no-battery", "baseline:tou", f"qtable:{table}",
    ])
    assert code == 0
    rows = json.loads((out / "comparison.json").read_text())
    assert len(rows) == 2
    assert {r["base"] for r in rows} == {"baseline:no-battery"}
    text = (out / "comparison.txt").read_text()
    assert "candidate" in text and "import_reduction" in text


def _reference_comparison_text(rows) -> str:
    """The comparison text as its header and rows were once formatted one
    column index at a time; `cli._comparison_text` must match it byte for
    byte."""
    headers = ("candidate", "import_reduction", "cost_reduction", "peak_reduction")
    table = [
        (
            row.candidate,
            cli._format_pct(row.import_reduction_pct),
            cli._format_pct(row.cost_reduction_pct),
            cli._format_pct(row.peak_reduction_pct),
        )
        for row in rows
    ]
    widths = [
        max(len(headers[i]), *(len(entry[i]) for entry in table)) if table else len(headers[i])
        for i in range(4)
    ]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for entry in table:
        lines.append("  ".join(entry[i].ljust(widths[i]) for i in range(4)))
    return "\n".join(lines)


_LONG_QTABLE = "qtable:" + "/very/long/path/to/a/trained" * 3 + "/qtable_seed12345.qt"


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [ComparisonReport("baseline:no-battery", "baseline:msc", 12.345, -3.0, 0.0)],
        [
            ComparisonReport("baseline:no-battery", "baseline:tou", None, None, None),
            ComparisonReport("baseline:no-battery", _LONG_QTABLE, 1234.5678, None, -0.004),
            ComparisonReport("baseline:no-battery", "q", 5.0, 100.0, None),
        ],
    ],
    ids=["no-rows", "one-row", "undefined-and-long-label"],
)
def test_comparison_text_bytes(rows):
    assert cli._comparison_text(rows) == _reference_comparison_text(rows)


def test_comparison_text_pads_each_column_to_its_widest_cell():
    rows = [
        ComparisonReport("baseline:no-battery", "baseline:msc", 12.345, None, -0.004),
        ComparisonReport("baseline:no-battery", _LONG_QTABLE, 1234.5678, 5.0, 100.0),
    ]
    width = len(_LONG_QTABLE)
    assert cli._comparison_text(rows).split("\n") == [
        f"{'candidate':{width}}  import_reduction  cost_reduction  peak_reduction",
        f"{'baseline:msc':{width}}  12.35%            undefined       -0.00%        ",
        f"{_LONG_QTABLE}  1234.57%          5.00%           100.00%       ",
    ]
    assert cli._comparison_text([]) == "candidate  import_reduction  cost_reduction  peak_reduction"


def test_compare_with_itself_is_zero(tmp_path):
    out = tmp_path / "out"
    config = _config(tmp_path, SMALL_SYNTH.format(out=out))
    code = main([
        "compare", "--config", str(config),
        "baseline:msc", "baseline:msc",
    ])
    assert code == 0
    rows = json.loads((out / "comparison.json").read_text())
    assert rows[0]["import_reduction_pct"] == 0.0
    assert rows[0]["cost_reduction_pct"] == 0.0


# One-day configs whose grid cost overflows to inf, and NaN in a comparison
# with it: a huge price, or a huge load.
_OVERFLOWING_CONFIGS = {
    "peak_rate": "dataset:\n  synthetic:\n    days: 1\ntariff:\n  peak_rate: 1.0e+308\n",
    "base_load_kwh": "dataset:\n  synthetic:\n    days: 1\n    base_load_kwh: 1.0e+308\n",
}


@pytest.mark.parametrize(
    "command",
    [["train"], ["evaluate", "baseline:msc"], ["compare", "baseline:no-battery", "baseline:msc"],
     ["compare", "--ablation"]],
    ids=["train", "evaluate", "compare", "ablation"],
)
@pytest.mark.parametrize("key", list(_OVERFLOWING_CONFIGS))
def test_a_non_finite_result_is_refused_in_one_line(tmp_path, capsys, key, command):
    """A run whose results overflow writes only files that farmbess reads
    back, or refuses in one line naming the file and writes nothing."""
    out = tmp_path / "out"
    text = _OVERFLOWING_CONFIGS[key] + f"hyperparams:\n  total_episodes: 200\nrun:\n  output_dir: {out}\n"
    verb, *refs = command
    code = main([verb, "--config", str(_config(tmp_path, text)), *refs])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        assert re.fullmatch(rf"error: {re.escape(str(out))}/\S+: not written: [^\n]+\n", err), err
        assert not out.exists()
    for path in out.glob("*.json"):
        _read_strict_json(path)
    for path in out.glob("*.qt"):
        load_qtable(path)
    for path in out.glob("*.csv"):
        assert _non_finite_cells(path) == [], path


def test_compare_needs_two_refs(tmp_path, capsys):
    config = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "o"))
    assert main(["compare", "--config", str(config), "baseline:tou"]) != 0
    assert "two controller references" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_compare_ablation_three_rows(tmp_path):
    out = tmp_path / "out"
    config = _config(
        tmp_path,
        "dataset:\n  synthetic:\n    days: 3\n    rng_seed: 2\n"
        "hyperparams:\n  total_episodes: 200\n"
        f"run:\n  output_dir: {out}\n  seeds: [4]\n",
    )
    assert main(["compare", "--config", str(config), "--ablation"]) == 0
    rows = json.loads((out / "comparison.json").read_text())
    assert len(rows) == 3
    kinds = [r["candidate"] for r in rows]
    assert kinds == [
        "qlearning:hour-soc",
        "qlearning:hour-soc-load-pv",
        "qlearning:hour-soc-load-pv-wind",
    ]


def test_compare_ablation_without_wind_two_rows(tmp_path):
    # the paper's no-wind case: the wind encoding is skipped, not an error
    out = tmp_path / "out"
    config = _config(
        tmp_path,
        "dataset:\n  synthetic:\n    days: 3\n    rng_seed: 2\n  include_wind: false\n"
        "hyperparams:\n  total_episodes: 200\n"
        f"run:\n  output_dir: {out}\n  seeds: [4]\n",
    )
    assert main(["compare", "--config", str(config), "--ablation"]) == 0
    rows = json.loads((out / "comparison.json").read_text())
    assert [r["candidate"] for r in rows] == [
        "qlearning:hour-soc",
        "qlearning:hour-soc-load-pv",
    ]


def test_compare_ablation_rejects_references(tmp_path, capsys):
    out = tmp_path / "out"
    config = _config(tmp_path, SMALL_SYNTH.format(out=out))
    code = main(
        ["compare", "--config", str(config), "--ablation", "baseline:msc", "qtable:/nonexistent"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--ablation" in err
    assert "\n" not in err.strip()
    assert not (out / "comparison.json").exists()


@pytest.mark.parametrize(
    "section,key,value",
    [
        ("run", "seeds", "[true]"),
        ("run", "seeds", "[1, -1]"),
        ("run", "seeds", "[3, 3]"),
        ("hyperparams", "total_episodes", "1.5"),
        ("encoding", "load_bin_max", "abc"),
        ("encoding", "load_bins", "2.7"),
        ("encoding", "load_bin_max", "-1"),
        ("encoding", "pv_bins", "0"),
        ("battery", "capacity_kwh", ".nan"),
        pytest.param("battery", "capacity_kwh", "1" + "0" * 400, id="battery-capacity_kwh-1e400"),
        ("encoding", "percentile", "150"),
        ("encoding", "kind", "hour-soc-wind"),
        ("penalties", "charge_full", "abc"),
        ("hyperparams", "soc_reset_low", "11"),
    ],
)
def test_bad_config_value_is_one_line_naming_the_key(tmp_path, capsys, section, key, value):
    config = _config(
        tmp_path,
        f"dataset:\n  synthetic:\n    days: 1\n{section}:\n  {key}: {value}\n",
    )
    code = main(["evaluate", "--config", str(config), "baseline:no-battery",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{section}.{key}" in err


def test_soc_levels_too_large_for_a_float_is_one_line(tmp_path, capsys):
    config = _config(tmp_path, "dataset:\n  synthetic:\n    days: 1\n"
                               "battery:\n  soc_levels: 1" + "0" * 400 + "\n")
    code = main(["evaluate", "--config", str(config), "baseline:no-battery",
                 "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: battery: soc_levels must be at most")
    assert err.count("error:") == 1 and err.count("\n") == 1


# Sizing keys too large for any array, each with the size numpy refuses at
# once: the key's array would span more bytes than an index can address, or
# its state stride overflows a C long.
_HUGE_SIZING_KEYS = {
    "hyperparams.total_episodes": "hyperparams:\n  total_episodes: 2000000000000000000\n",
    "dataset.synthetic.days": "dataset:\n  synthetic:\n    days: 100000000000000000\n",
    "battery.soc_levels": "battery:\n  soc_levels: 2000000000000000000\n",
    "encoding.load_bins": "encoding:\n  kind: hour-soc-load-pv-wind\n"
    + "".join(f"  {c}_bins: 100000000\n" for c in ("load", "pv", "wind")),
}


@pytest.mark.parametrize("key", list(_HUGE_SIZING_KEYS))
def test_a_huge_sizing_key_is_one_line_naming_it(tmp_path, capsys, key):
    """`train` refuses the key in one line before it allocates, where it
    once failed in numpy with a traceback."""
    text = _HUGE_SIZING_KEYS[key]
    if "dataset" not in text:
        text = "dataset:\n  synthetic:\n    days: 1\n" + text
    config = _config(tmp_path, text)
    start = time.perf_counter()
    code = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {key} is too large:") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


_ALLOCATE = "Unable to allocate 3.73 GiB for an array with shape (500000000,) and data type float64"


@pytest.mark.parametrize(
    "message, line",
    [(_ALLOCATE, f"error: out of memory: {_ALLOCATE}\n"), ("", "error: out of memory\n")],
    ids=["numpy", "empty"],
)
def test_out_of_memory_is_one_line(tmp_path, capsys, monkeypatch, message, line):
    """A size under the ceiling that the machine cannot hold (a one-day
    `train` of 500,000,000 episodes under `ulimit -v` 2 GB) is one line, where
    it once ended in numpy's traceback."""

    def allocate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "train", allocate)
    config = _config(tmp_path, "dataset:\n  synthetic:\n    days: 1\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == line
    assert not (tmp_path / "o").exists()


def test_ten_times_every_default_size_is_admitted():
    keys = {"hyperparams.total_episodes": 10_000_000, "dataset.synthetic.days": 3650,
            "battery.soc_levels": 110, "encoding.load_bins": 50, "encoding.pv_bins": 50,
            "encoding.wind_bins": 50}
    config = load_config(None, {**keys, "encoding.kind": "hour-soc-load-pv-wind"})
    assert config.encoder_for(config.load_series()).size() == 24 * 110 * 50**3


@pytest.mark.parametrize(
    "text, where",
    [
        ("a: [\n", " at line 2, column 1: expected the node content"),
        ("dataset:\n  synthetic: a: b\n", " at line 2, column 15: mapping values are not allowed"),
        ("\ta: 1\n", " at line 1, column 1: found character '\\t'"),
        # a reader error has no mark: its first line stands for it
        ("a: \x00\n", ": unacceptable character #x0000"),
        # a file that is not UTF-8 cannot be YAML
        ("a: \xa3\n".encode("latin-1"), ": 'utf-8' codec can't decode byte 0xa3"),
        # an integer too long to convert is a plain ValueError
        pytest.param(
            "battery:\n  capacity_kwh: " + "1" * 5001 + "\n", ": Exceeds the limit",
            id="int-over-digit-limit",
            marks=pytest.mark.skipif(
                not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                reason="no limit on the digits of an integer string",
            ),
        ),
    ],
)
def test_invalid_yaml_is_one_line_naming_the_file(tmp_path, capsys, text, where):
    config = tmp_path / "run.yaml"
    config.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    code = main(["evaluate", "--config", str(config), "baseline:no-battery"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {config}: invalid YAML{where}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["-1", '"11"', "2.5", "true", "1"])
def test_evaluate_qtable_with_bad_soc_levels_is_one_line(tmp_path, capsys, value):
    config = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "out"))
    encoder = StateEncoder(kind=EncodingKind.HOUR_SOC)  # the configured encoding
    path = tmp_path / "table.qt"
    save_qtable(QTable(np.zeros((encoder.size(), 3)), encoder), path)
    header, _, payload = path.read_bytes().partition(b"\n")
    assert header.count(b'"soc_levels": 11') == 1
    path.write_bytes(header.replace(b'"soc_levels": 11', f'"soc_levels": {value}'.encode())
                     + b"\n" + payload)
    code = main(["evaluate", "--config", str(config), f"qtable:{path}"])
    err = capsys.readouterr().err
    assert code == 2
    # A wrong type is refused by the field builder, a value below 2 by
    # StateEncoder.
    where = re.escape(f"error: {path}: bad header (encoding")
    assert re.match(rf"{where}(\.|: )soc_levels must be", err)
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("bin_count", "true"),
        ("max_value", '"20"'),
        # too large for a float, so not finite
        pytest.param("max_value", "1" + "0" * 400, id="max_value-1e400"),
    ],
)
def test_evaluate_qtable_with_bad_bin_spec_is_one_line(tmp_path, capsys, field, value):
    config = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "out"))
    encoder = StateEncoder(EncodingKind.HOUR_SOC_LOAD_PV, load_bins=BinSpec(5, 20.0),
                           pv_bins=BinSpec(5, 20.0))
    path = tmp_path / "table.qt"
    save_qtable(QTable(np.zeros((encoder.size(), 3)), encoder), path)
    header, _, payload = path.read_bytes().partition(b"\n")
    data = json.loads(header)
    data["encoding"]["load_bins"][field] = "VALUE"
    header = json.dumps(data, sort_keys=True).replace('"VALUE"', value).encode()
    path.write_bytes(header + b"\n" + payload)
    code = main(["evaluate", "--config", str(config), f"qtable:{path}"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {path}: bad header (encoding.load_bins.{field} must be")
    assert err.count("\n") == 1


@pytest.fixture(scope="module")
def saved_load_pv_table(tmp_path_factory):
    """A config with the hour-soc-load-pv encoding, the header of a saved
    table that matches it, and the table's payload."""
    folder = tmp_path_factory.mktemp("header")
    text = SMALL_SYNTH.format(out=folder / "out") + "encoding:\n  kind: hour-soc-load-pv\n"
    config = _config(folder, text)
    loaded = load_config(config)
    encoder = loaded.encoder_for(loaded.load_series())
    path = folder / "table.qt"
    save_qtable(QTable(np.zeros((encoder.size(), 3)), encoder, loaded.hyperparams), path)
    header, _, payload = path.read_bytes().partition(b"\n")
    return config, json.loads(header), payload


def _leaves(node, where=()):
    """The key path of every value in a JSON document that is not an object
    or an array."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaves(child, (*where, key))
    else:
        yield where


# What a mutated header leaf becomes: JSON null, true, numbers (one too large
# for a float, one NaN), a string, an empty array and an empty object.
_LEAF_SWAPS = (None, True, -1, 0, 2.5, 10**400, float("nan"), "x", [], {})


@seed(2403)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_evaluate_with_a_mutated_qtable_header_is_one_line(saved_load_pv_table, data):
    """One header leaf deleted, swapped or given an unknown key beside it:
    the table is used, or refused in one line that names the file."""
    config, header, payload = saved_load_pv_table
    header = copy.deepcopy(header)
    *parents, key = data.draw(st.sampled_from(list(_leaves(header))))
    node = functools.reduce(operator.getitem, parents, header)
    mutation = data.draw(st.sampled_from(["delete", "unknown key", "swap"]))
    if mutation == "delete":
        del node[key]
    elif mutation == "swap":
        node[key] = data.draw(st.sampled_from(_LEAF_SWAPS))
    elif isinstance(node, dict):
        node["unknown"] = 0
    else:
        node.append(0)
    path = config.parent / "mutated.qt"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["evaluate", "--config", str(config), f"qtable:{path}"])
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        assert err.startswith(f"error: {path}:") and err.count("\n") == 1


# What a mutated payload value becomes: non-finite, the largest and the
# smallest float64 magnitudes.
_PAYLOAD_SWAPS = (math.nan, math.inf, -math.inf, 1e308, 5e-324)


@seed(2903)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_evaluate_with_a_mutated_qtable_payload_is_one_line(saved_load_pv_table, data):
    """A payload truncated or extended, one of its values swapped, or one of
    its bits flipped: the table is used, or refused in one line that names
    the file."""
    config, header, payload = saved_load_pv_table
    payload = bytearray(payload)
    mutation = data.draw(st.sampled_from(["truncate", "extend", "swap", "flip"]))
    if mutation == "truncate":
        del payload[data.draw(st.integers(0, len(payload) - 1)):]
    elif mutation == "extend":
        payload += bytes(data.draw(st.integers(1, 16)))
    elif mutation == "swap":
        at = 8 * data.draw(st.integers(0, len(payload) // 8 - 1))
        payload[at:at + 8] = struct.pack("<d", data.draw(st.sampled_from(_PAYLOAD_SWAPS)))
    else:
        bit = data.draw(st.integers(0, 8 * len(payload) - 1))
        payload[bit // 8] ^= 1 << bit % 8
    path = config.parent / "mutated.qt"
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["evaluate", "--config", str(config), f"qtable:{path}"])
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        assert err.startswith(f"error: {path}:") and err.count("\n") == 1


@seed(3011)
@settings(max_examples=40, deadline=None)
@given(case=_mutated_csv())
def test_evaluate_with_a_mutated_csv_is_one_line(tmp_path_factory, case):
    """A dataset CSV with up to two faults, as `load_csv`'s property draws
    them: the run works, or is refused in one line that names the CSV or a
    report it would not write."""
    text, _ = case
    folder = tmp_path_factory.mktemp("csv")
    series = folder / "series.csv"
    series.write_bytes(
        text.replace(_OVERLONG_CELL, "0" * (csv.field_size_limit() + 1)).encode("utf-8")
    )
    out = folder / "out"
    config = _config(folder, f"dataset:\n  path: {series}\nrun:\n  output_dir: {out}\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["evaluate", "--config", str(config), "baseline:no-battery"])
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 2
        assert err.count("\n") == 1, err
        assert err.startswith((f"error: {series}:", f"error: {out}/")), err


def _config_keys(node, where=()):
    """The key path of every key in a YAML mapping, sections included."""
    for key, child in node.items():
        yield (*where, key)
        if isinstance(child, dict):
            yield from _config_keys(child, (*where, key))


# What a mutated config key becomes: YAML null, a boolean, numbers (NaN and
# both infinities among them), a string, an empty list and an empty mapping;
# or a huge number, drawn for no key that sizes an array.
_KEY_SWAPS = (None, True, -1, 0, 2.5, math.nan, math.inf, -math.inf, "x", [], {})
_HUGE = (10**400, -(10**400), 1e308, 2**64)
_SIZING_KEYS = {
    ("dataset", "synthetic", "days"), ("hyperparams", "total_episodes"),
    ("battery", "soc_levels"), *(("encoding", f"{c}_bins") for c in ("load", "pv", "wind")),
}
# A valid one-day config that sets every key but dataset.path.
_DAY_CONFIG = _non_default_raw()
_DAY_CONFIG["dataset"]["synthetic"]["days"] = 1


@seed(2716)
@settings(max_examples=100, deadline=None)
@given(
    where=st.sampled_from(list(_config_keys(_DAY_CONFIG))),
    mutation=st.sampled_from(["drop", "unknown key"]).map(lambda m: (m, None))
    | st.tuples(st.just("set"), st.sampled_from(_KEY_SWAPS + _HUGE)),
)
# Found by this property: numpy's "expected non-negative integer", and
# messages that named no key of their section.
@example(where=("dataset", "synthetic", "rng_seed"), mutation=("set", -1))
@example(where=("tariff", "peak_hours"), mutation=("drop", None))
@example(where=("tariff", "peak_rate"), mutation=("set", 0))
@example(where=("battery", "charge_rate_kw"), mutation=("set", 0))
@example(where=("hyperparams", "floor"), mutation=("set", -1))
# Found by this property once it read the reports back: an overflowing cost
# written as Infinity.
@example(where=("tariff", "peak_rate"), mutation=("set", 1e308))
@example(where=("dataset", "synthetic", "base_load_kwh"), mutation=("set", 1e308))
def test_evaluate_with_a_mutated_config_is_one_line(tmp_path_factory, where, mutation):
    """One key of a valid config dropped, set to a value of another type, a
    non-finite or a huge one, or given an unknown key beside it: the run
    works and writes only strict JSON, or is refused in one line that names
    the config file, the section and the key, or the report it would not
    write."""
    change, value = mutation
    if change == "set" and value in _HUGE and where in _SIZING_KEYS:
        return
    folder = tmp_path_factory.mktemp("config")
    raw = copy.deepcopy(_DAY_CONFIG)
    raw["run"]["output_dir"] = str(folder / "out")
    *parents, key = where
    node = functools.reduce(operator.getitem, parents, raw)
    if change == "drop":
        del node[key]
    elif change == "set":
        node[key] = value
    else:
        node[key := "unknown"] = 0
    path = _config(folder, yaml.safe_dump(raw))
    err = io.StringIO()
    # A relative output directory, "x" say, is made in the working directory.
    cwd = os.getcwd()
    os.chdir(folder)
    try:
        with contextlib.redirect_stderr(err):
            code = main(["evaluate", "--config", str(path), "baseline:no-battery"])
    finally:
        os.chdir(cwd)
    err = err.getvalue()
    if code == 0:
        assert err == ""
        # Relative output directories are made in the folder too.
        for report in folder.rglob("*.json"):
            _read_strict_json(report)
    else:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        # A cross-key check may name a key other than the mutated one.
        names = {(w[0], w[-1]) for w in _config_keys(raw) if len(w) > 1} | {(where[0], key)}
        refused_report = err.startswith(f"error: {folder / 'out'}/")
        assert str(path) in err or refused_report or any(
            s in err and k in err for s, k in names
        ), err


def _not_utf8_csv(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("hour,load_kwh,pv_kwh,price_per_kwh\n0,1.0,0.5,0.1 \u00a3\n".encode("latin-1"))
    return path


def test_evaluate_overlong_csv_cell_is_one_line_error(tmp_path, capsys):
    rows = [f"{i},1.0,0.0,0.1" for i in range(24)]
    rows[4] = "4,1.0,0.1," + "0" * 140_000
    data = tmp_path / "long.csv"
    data.write_text("\n".join(["hour,load_kwh,pv_kwh,price_per_kwh", *rows]) + "\n")
    config = _config(tmp_path, f"dataset:\n  path: {data}\nrun:\n  output_dir: {tmp_path}\n")
    code = main(["evaluate", "--config", str(config), "baseline:no-battery"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{data}: row 5: " in err


def test_evaluate_overlong_csv_header_field_is_one_line_error(tmp_path, capsys):
    header = "hour,load_kwh,pv_kwh,price_per_kwh" + "x" * 140_000
    data = tmp_path / "long.csv"
    data.write_text(header + "\n" + "".join(f"{i},1.0,0.0,0.1\n" for i in range(24)))
    config = _config(tmp_path, f"dataset:\n  path: {data}\nrun:\n  output_dir: {tmp_path}\n")
    code = main(["evaluate", "--config", str(config), "baseline:no-battery"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"{data}: header: field larger than field limit" in err


@pytest.mark.parametrize(
    "case",
    ["qtable-dir", "config-dir", "dataset-dir", "gen-data-out-dir", "csv-not-utf8"],
)
def test_unreadable_path_is_one_line_error(tmp_path, capsys, case):
    folder = tmp_path / "folder"
    folder.mkdir()
    config = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "o"))
    named = folder
    if case == "qtable-dir":
        argv = ["evaluate", "--config", str(config), f"qtable:{folder}"]
    elif case == "config-dir":
        argv = ["evaluate", "--config", str(folder), "baseline:no-battery"]
    elif case == "gen-data-out-dir":
        argv = ["gen-data", "--days", "1", "--out", str(folder)]
    else:
        named = folder if case == "dataset-dir" else _not_utf8_csv(tmp_path)
        config = _config(tmp_path, f"dataset:\n  path: {named}\nrun:\n  output_dir: {tmp_path}\n")
        argv = ["evaluate", "--config", str(config), "baseline:no-battery"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(named) in err
    assert ".tmp" not in err
