"""Command-line front end: config handling, output files, exit codes."""

from __future__ import annotations

import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from farmbess import EncodingKind, QTable, StateEncoder, cli
from farmbess.agent import load_qtable, save_qtable
from farmbess.cli import OUTPUT_DIR_ENV, main
from farmbess.config import ConfigError, load_config
from farmbess.encoding import BinSpec
from farmbess.evaluation import qtable_controller, rollout


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
    assert config.encoding_kind.value == "hour-soc"
    assert config.seeds == (0,)


def test_config_path_and_synthetic_are_exclusive(tmp_path):
    path = _config(
        tmp_path, "dataset:\n  path: x.csv\n  synthetic:\n    days: 1\n"
    )
    with pytest.raises(ConfigError, match="mutually exclusive"):
        load_config(path)


def test_config_digest_stable(tmp_path):
    path = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "o"))
    assert load_config(path).digest() == load_config(path).digest()


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


def test_cli_import_leaves_the_worker_pool_unloaded():
    """Only a multi-seed `train --workers` needs concurrent.futures, so
    importing the CLI does not load it."""
    src = Path(cli.__file__).resolve().parents[1]
    check = "import sys, farmbess.cli; sys.exit('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", check], env=env).returncode == 0


def test_train_episodes_override_flag(tmp_path):
    out = tmp_path / "out"
    config = _config(tmp_path, SMALL_SYNTH.format(out=out))
    assert main(["train", "--config", str(config), "--episodes", "50"]) == 0
    manifest = json.loads((out / "manifest_seed7.json").read_text())
    assert manifest["total_episodes"] == 50


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
                       initial_soc_level=config.initial_soc_level, label=ref)
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


def test_compare_needs_two_refs(tmp_path, capsys):
    config = _config(tmp_path, SMALL_SYNTH.format(out=tmp_path / "o"))
    assert main(["compare", "--config", str(config), "baseline:tou"]) != 0
    assert "two controller references" in capsys.readouterr().err


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
        ("encoding", "percentile", "150"),
        ("penalties", "charge_full", "abc"),
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


@pytest.mark.parametrize(
    "text, where",
    [
        ("a: [\n", " at line 2, column 1: expected the node content"),
        ("dataset:\n  synthetic: a: b\n", " at line 2, column 15: mapping values are not allowed"),
        ("\ta: 1\n", " at line 1, column 1: found character '\\t'"),
        # a reader error has no mark: its first line stands for it
        ("a: \x00\n", ": unacceptable character #x0000"),
    ],
)
def test_invalid_yaml_is_one_line_naming_the_file(tmp_path, capsys, text, where):
    config = _config(tmp_path, text)
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
    assert err.startswith(f"error: {path}: bad header (soc_levels must be an integer >= 2")
    assert err.count("\n") == 1


@pytest.mark.parametrize("field, value", [("bin_count", "true"), ("max_value", '"20"')])
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
    assert err.startswith(f"error: {path}: bad header (load_bins: {field} must be")
    assert err.count("\n") == 1


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
