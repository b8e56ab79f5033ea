"""Batch command-line front end: `gen-data`, `train`, `evaluate`, and
`compare [--ablation]`, driven by a YAML config file.

Precedence for every setting: command-line flag, then config file, then the
built-in default. Each flag that overrides a setting stores its value under
the setting's dotted config key ("hyperparams.total_episodes"), which
`--help` shows, and every command passes those keys to `load_config`. The
FARMBESS_OUTPUT_DIR environment variable overrides the configured output
directory (but not an explicit --out flag). All output files are written
atomically, every CSV a chunk of rows at a time by `ioutil.atomic_write_rows`,
and every run is reproducible from its manifest. No file holds a non-finite
number: such a report, table or CSV is refused in one line, unwritten.
`train` loads the dataset once for all its seeds.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .agent import QTableFormatError, load_qtable, save_qtable, train
from .baselines import BaselineKind
from .config import RunConfig, load_config
from .encoding import EncodingKind
from .evaluation import (
    EvalReport,
    ablation_run,
    baseline_controller,
    compare,
    qtable_controller,
    rollout,
)
from .ioutil import atomic_write_json, atomic_write_text, refuse_directory
from .timeseries import HourlySeries, SyntheticProfileConfig, generate_synthetic, write_csv

OUTPUT_DIR_ENV = "FARMBESS_OUTPUT_DIR"


class CliError(ValueError):
    """User-facing command failure; formatted as a single stderr line."""


def _output_dir(config: RunConfig, out_flag: str | None) -> Path:
    if out_flag:
        return Path(out_flag)
    env = os.environ.get(OUTPUT_DIR_ENV)
    if env:
        return Path(env)
    return Path(config.run.output_dir)


def _overrides(args) -> dict:
    """The config keys the given flags set: an override flag's dest is its
    dotted key, and an absent flag leaves no attribute."""
    return {key: value for key, value in vars(args).items() if "." in key}


def cmd_gen_data(args) -> int:
    config = load_config(args.config, _overrides(args))
    out = Path(args.out) if args.out else _output_dir(config, None) / "synthetic.csv"
    refuse_directory(out)
    series = generate_synthetic(config.dataset.synthetic or SyntheticProfileConfig(), config.tariff)
    if not config.dataset.include_wind:
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


def _train_one_seed(
    config: RunConfig, series: HourlySeries, seed: int, out_dir: str
) -> tuple[str, str, str]:
    """Train one seed on the series and write its three output files
    (worker-safe: a pool pickles the series into each job)."""
    encoder = config.encoder_for(series)
    hp = replace(config.hyperparams, rng_seed=seed)
    table, log = train(
        series, config.battery, config.tariff, config.penalties, hyperparams=hp, encoder=encoder
    )

    out = Path(out_dir)
    qtable_path = out / f"qtable_seed{seed}.qt"
    log_path = out / f"training_log_seed{seed}.csv"
    manifest_path = out / f"manifest_seed{seed}.json"
    # The log first: a log refused for a non-finite return leaves no file.
    log.write_csv(log_path)
    save_qtable(table, qtable_path)
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
    atomic_write_json(manifest_path, manifest)
    return str(qtable_path), str(log_path), str(manifest_path)


def cmd_train(args) -> int:
    if args.workers < 1:
        raise CliError(f"--workers must be at least 1, got {args.workers}")
    config = load_config(args.config, _overrides(args))
    series = config.load_series()
    out_dir = _output_dir(config, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.workers > 1 and len(config.run.seeds) > 1:
        # Imported here: it pulls in logging, and no other command needs it.
        import concurrent.futures

        # The pool may start all its workers at the first submit: no more than the seeds.
        workers = min(args.workers, len(config.run.seeds))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_train_one_seed, config, series, seed, str(out_dir))
                for seed in config.run.seeds
            ]
            results = [future.result() for future in futures]
    else:
        results = [
            _train_one_seed(config, series, seed, str(out_dir)) for seed in config.run.seeds
        ]
    for seed, paths in zip(config.run.seeds, results):
        print(f"seed {seed}: wrote {', '.join(paths)}")
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
        initial_soc_level=config.run.initial_soc_level,
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
    # The JSON first: it refuses a non-finite total, and then no CSV is left.
    report.write_json(json_path)
    report.write_csv(csv_path)
    print(
        f"{report.label}: total_import_kwh={report.total_import_kwh:.3f} "
        f"total_cost={report.total_cost:.3f} ({csv_path}, {json_path})"
    )
    return 0


def _format_pct(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.2f}%"


def _comparison_text(rows) -> str:
    table = [("candidate", "import_reduction", "cost_reduction", "peak_reduction")] + [
        (
            row.candidate_label,
            _format_pct(row.import_reduction_pct),
            _format_pct(row.cost_reduction_pct),
            _format_pct(row.peak_reduction_pct),
        )
        for row in rows
    ]
    widths = [max(map(len, column)) for column in zip(*table)]
    return "\n".join("  ".join(map(str.ljust, entry, widths)) for entry in table)


def cmd_compare(args) -> int:
    if args.ablation and args.refs:
        raise CliError(
            f"compare --ablation takes no controller references, got {' '.join(args.refs)}"
        )
    config = load_config(args.config, _overrides(args))
    series = config.load_series()
    out_dir = _output_dir(config, args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.ablation:
        rows = ablation_run(
            series,
            config.battery,
            config.tariff,
            [
                config.encoder_for(series, kind)
                for kind in EncodingKind
                if series.has_wind or kind is not EncodingKind.HOUR_SOC_LOAD_PV_WIND
            ],
            replace(config.hyperparams, rng_seed=config.run.seeds[0]),
            penalties=config.penalties,
            initial_soc_level=config.run.initial_soc_level,
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
    atomic_write_json(json_path, [row.to_json_dict() for row in rows])
    text = _comparison_text(rows)
    atomic_write_text(text_path, text + "\n")
    print(text)
    print(f"wrote {json_path}, {text_path}")
    return 0


def _override(parser: argparse.ArgumentParser, flag: str, key: str, **kwargs) -> None:
    """A flag that sets the config key `key`; absent, it sets nothing."""
    kwargs.setdefault("help", f"set {key}")
    parser.add_argument(flag, dest=key, default=argparse.SUPPRESS, **kwargs)


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
    for flag, key, kind in (
        ("--days", "days", int),
        ("--seed", "rng_seed", int),
        ("--base-load", "base_load_kwh", float),
        ("--load-amplitude", "load_amplitude_kwh", float),
        ("--pv-peak", "pv_peak_kwh", float),
        ("--wind-mean", "wind_mean_kwh", float),
        ("--noise", "noise_fraction", float),
    ):
        _override(gen, flag, f"dataset.synthetic.{key}", type=kind, metavar=kind.__name__.upper())
    _override(gen, "--no-wind", "dataset.include_wind", action="store_false",
              help="set dataset.include_wind to false: omit the wind column")
    gen.add_argument("--out", help="output CSV path (default: <output dir>/synthetic.csv)")
    gen.set_defaults(func=cmd_gen_data)

    tr = sub.add_parser("train", help="train one Q-table per configured seed")
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", help="output directory override")
    _override(tr, "--episodes", "hyperparams.total_episodes", type=int, metavar="INT")
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
    _override(cp, "--episodes", "hyperparams.total_episodes", type=int, metavar="INT")
    cp.add_argument("--out", help="output directory override")
    cp.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # CliError, ConfigError, DataValidationError and QTableFormatError are
    # all ValueErrors.
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
