"""Batch command-line front end: `gen-data`, `train`, `evaluate`, and
`compare [--ablation]`, driven by a YAML config file.

Precedence for every setting: command-line flag, then config file, then the
built-in default. The FARMBESS_OUTPUT_DIR environment variable overrides the
configured output directory (but not an explicit --out flag). All output
files are written atomically and every run is reproducible from its manifest.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .agent import QTableFormatError, load_qtable, save_qtable, train
from .baselines import BaselineKind
from .config import ConfigError, RunConfig, load_config
from .encoding import EncodingKind
from .evaluation import (
    EvalReport,
    ablation_run,
    baseline_controller,
    compare,
    qtable_controller,
    rollout,
)
from .ioutil import atomic_write_text, refuse_directory
from .timeseries import (
    DataValidationError,
    SyntheticProfileConfig,
    generate_synthetic,
    write_csv,
)

OUTPUT_DIR_ENV = "FARMBESS_OUTPUT_DIR"


class CliError(ValueError):
    """User-facing command failure; formatted as a single stderr line."""


def _output_dir(config: RunConfig, out_flag: str | None) -> Path:
    if out_flag:
        return Path(out_flag)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(config.output_dir)


def _hyperparam_overrides(args) -> dict:
    overrides = {}
    if getattr(args, "episodes", None) is not None:
        overrides["hyperparams.total_episodes"] = args.episodes
    return overrides


def cmd_gen_data(args) -> int:
    overrides = {}
    for flag, key in (
        ("days", "days"),
        ("seed", "rng_seed"),
        ("base_load", "base_load_kwh"),
        ("load_amplitude", "load_amplitude_kwh"),
        ("pv_peak", "pv_peak_kwh"),
        ("wind_mean", "wind_mean_kwh"),
        ("noise", "noise_fraction"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[f"dataset.synthetic.{key}"] = value
    if args.no_wind:
        overrides["dataset.include_wind"] = False
    config = load_config(args.config, overrides)
    out = Path(args.out) if args.out else _output_dir(config, None) / "synthetic.csv"
    refuse_directory(out)
    series = generate_synthetic(config.synthetic or SyntheticProfileConfig(), config.tariff)
    if not config.include_wind:
        series = series.without_wind()
    write_csv(series, out)
    loads = float(series.load.sum())
    pvs = float(series.pv.sum())
    winds = float(series.wind.sum()) if series.has_wind else 0.0
    print(
        f"wrote {out} rows={len(series)} annual_load_kwh={loads:.1f} "
        f"annual_pv_kwh={pvs:.1f} annual_wind_kwh={winds:.1f}"
    )
    return 0


def _train_one_seed(config: RunConfig, seed: int, out_dir: str) -> tuple[str, str, str]:
    """Train one seed and write its three output files (worker-safe)."""
    series = config.load_series()
    encoder = config.encoder_for(series)
    hp = replace(config.hyperparams, rng_seed=seed)
    table, log = train(
        series, config.battery, config.tariff, config.penalties, hyperparams=hp, encoder=encoder
    )

    out = Path(out_dir)
    qtable_path = out / f"qtable_seed{seed}.qt"
    log_path = out / f"training_log_seed{seed}.csv"
    manifest_path = out / f"manifest_seed{seed}.json"
    save_qtable(table, qtable_path)
    log.write_csv(log_path)
    manifest = {
        "command": "train",
        "package_version": __version__,
        "config_sha256": config.digest(),
        "config": config.resolved,
        "seed": seed,
        "total_episodes": hp.total_episodes,
        "encoding_kind": encoder.kind.value,
        "state_space_size": encoder.size(),
        "qtable_file": qtable_path.name,
        "training_log_file": log_path.name,
    }
    atomic_write_text(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return str(qtable_path), str(log_path), str(manifest_path)


def cmd_train(args) -> int:
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    config = load_config(args.config, overrides=_hyperparam_overrides(args))
    out_dir = _output_dir(config, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.workers > 1 and len(config.seeds) > 1:
        # Imported here: it pulls in logging, and no other command needs it.
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            futures = {
                seed: pool.submit(_train_one_seed, config, seed, str(out_dir))
                for seed in config.seeds
            }
            results = {seed: f.result() for seed, f in futures.items()}
    else:
        results = {
            seed: _train_one_seed(config, seed, str(out_dir)) for seed in config.seeds
        }
    for seed in config.seeds:
        qtable_path, log_path, manifest_path = results[seed]
        print(f"seed {seed}: wrote {qtable_path}, {log_path}, {manifest_path}")
    return 0


def _ref_slug(ref: str) -> str:
    kind, _, rest = ref.partition(":")
    if kind == "qtable":
        return f"qtable-{Path(rest).stem}"
    return ref.replace(":", "-")


def _controller_for_ref(ref: str, config: RunConfig, series):
    kind, _, rest = ref.partition(":")
    if kind == "baseline":
        try:
            baseline = BaselineKind(rest)
        except ValueError:
            valid = ", ".join(k.value for k in BaselineKind)
            raise CliError(f"unknown baseline {rest!r} (expected one of: {valid})") from None
        return baseline_controller(baseline, config.battery, config.tariff)
    if kind == "qtable":
        if not rest:
            raise CliError("qtable reference needs a path: qtable:<path>")
        if not Path(rest).exists():
            raise CliError(f"q-table file not found: {rest}")
        expected = config.encoder_for(series)
        table = load_qtable(rest)
        if table.encoder.dims() != expected.dims():
            raise QTableFormatError(
                f"{rest}: stored encoding {table.encoder.kind.value} with dims "
                f"{table.encoder.dims()} does not match the configured encoding "
                f"{expected.kind.value} with dims {expected.dims()}"
            )
        return qtable_controller(table, config.battery)
    raise CliError(f"controller reference must be baseline:<kind> or qtable:<path>, got {ref!r}")


def _evaluate_ref(ref: str, config: RunConfig, series) -> EvalReport:
    controller = _controller_for_ref(ref, config, series)
    return rollout(
        controller,
        series,
        config.battery,
        initial_soc_level=config.initial_soc_level,
        label=ref,
    )


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    series = config.load_series()
    report = _evaluate_ref(args.controller, config, series)
    out_dir = _output_dir(config, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    slug = _ref_slug(args.controller)
    csv_path = out_dir / f"eval_{slug}.csv"
    json_path = out_dir / f"eval_{slug}.json"
    report.write_csv(csv_path)
    report.write_json(json_path)
    print(
        f"{report.label}: total_import_kwh={report.total_import_kwh:.3f} "
        f"total_cost={report.total_cost:.3f} ({csv_path}, {json_path})"
    )
    return 0


def _format_pct(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.2f}%"


def _comparison_text(rows) -> str:
    headers = ("candidate", "import_reduction", "cost_reduction", "peak_reduction")
    table = [
        (
            row.candidate_label,
            _format_pct(row.import_reduction_pct),
            _format_pct(row.cost_reduction_pct),
            _format_pct(row.peak_reduction_pct),
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


def cmd_compare(args) -> int:
    if args.ablation and args.refs:
        raise CliError(
            f"compare --ablation takes no controller references, got {' '.join(args.refs)}"
        )
    config = load_config(args.config, overrides=_hyperparam_overrides(args))
    series = config.load_series()
    out_dir = _output_dir(config, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.ablation:
        rows = ablation_run(
            series,
            config.battery,
            config.tariff,
            [
                replace(config, encoding_kind=kind).encoder_for(series)
                for kind in EncodingKind
                if series.has_wind or kind is not EncodingKind.HOUR_SOC_LOAD_PV_WIND
            ],
            replace(config.hyperparams, rng_seed=config.seeds[0]),
            penalties=config.penalties,
            initial_soc_level=config.initial_soc_level,
        )
    else:
        if len(args.refs) < 2:
            raise CliError("compare needs at least two controller references")
        base_ref, *candidate_refs = args.refs
        base_report = _evaluate_ref(base_ref, config, series)
        rows = [
            compare(base_report, _evaluate_ref(ref, config, series))
            for ref in candidate_refs
        ]

    json_path = out_dir / "comparison.json"
    text_path = out_dir / "comparison.txt"
    atomic_write_text(
        json_path,
        json.dumps([row.to_json_dict() for row in rows], sort_keys=True, indent=2) + "\n",
    )
    text = _comparison_text(rows)
    atomic_write_text(text_path, text + "\n")
    print(text)
    print(f"wrote {json_path}, {text_path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged, so every `main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="farmbess",
        description="Battery scheduling experiments: synthetic data, Q-learning training, evaluation, comparison.",
    )
    parser.add_argument("--version", action="version", version=f"farmbess {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="write a synthetic hourly-year CSV")
    gen.add_argument("--config", help="YAML config supplying dataset.synthetic and tariff")
    gen.add_argument("--days", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--base-load", dest="base_load", type=float)
    gen.add_argument("--load-amplitude", dest="load_amplitude", type=float)
    gen.add_argument("--pv-peak", dest="pv_peak", type=float)
    gen.add_argument("--wind-mean", dest="wind_mean", type=float)
    gen.add_argument("--noise", type=float)
    gen.add_argument("--no-wind", action="store_true", help="omit the wind column")
    gen.add_argument("--out", help="output CSV path (default: <output dir>/synthetic.csv)")
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", help="train one Q-table per configured seed")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", help="output directory override")
    tr.add_argument("--episodes", type=int, help="override hyperparams.total_episodes")
    tr.add_argument("--workers", type=int, default=1, help="parallel seed workers")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="roll a controller over the dataset")
    ev.add_argument("--config", required=True)
    ev.add_argument("controller", help="baseline:<no-battery|msc|tou> or qtable:<path>")
    ev.add_argument("--out", help="output directory override")
    ev.set_defaults(func=cmd_evaluate)

    cp = sub.add_parser("compare", help="compare controllers or run the encoding ablation")
    cp.add_argument("--config", required=True)
    cp.add_argument("refs", nargs="*", help="controller references; first is the base")
    cp.add_argument(
        "--ablation",
        action="store_true",
        help="train and compare every encoding the series supports, the wind one only with "
        "wind data (first seed of run.seeds; no references)",
    )
    cp.add_argument("--episodes", type=int, help="override hyperparams.total_episodes")
    cp.add_argument("--out", help="output directory override")
    cp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CliError,
        ConfigError,
        DataValidationError,
        QTableFormatError,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
