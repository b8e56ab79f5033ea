#!/usr/bin/env python3
"""farmbess benchmark: the paper's experiments timed through the public API.

Usage (from the repository root):

    python3 bench/run.py --workload {train,evaluate,io} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S --trace {0,1}
    python3 bench/run.py --repin

A run imports farmbess from ./src, sets its workload up, then repeats the
workload's timed pass until --seconds have passed and checks every pass's
outputs; further set-up rounds run between the passes. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer span metrics with --trace 1.
See bench/README.md for the workloads and the layer map.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import contextlib
import hashlib
import io as _io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_PATH = BENCH_DIR / "pins.json"
WORK_ROOT = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_out"

WORKLOADS = ("train", "evaluate", "io")
# Set-up rounds of an untraced run, spread over its timed passes. A round
# times the program's import in a fresh interpreter and sets the workload up.
SETUP_ROUNDS = 10
MIN_PASSES = 3
# Pinned outputs exist for input seeds 0..PINNED_SEEDS-1; --seed is folded
# into that range so that every run checks against pinned digests.
PINNED_SEEDS = 32
# Relative tolerance for float totals the benchmark sums itself; file
# contents are compared exactly.
FLOAT_RTOL = 1e-9

SIZES = {
    "days": 91,  # synthetic quarter of the evaluate workload
    "train_days": 7,  # series of the train workload's ablation
    "train_episodes": 400,  # per encoding in the ablation
    "evaluate_episodes": 4_000,  # the set-up table of the evaluate workload
    "io_days": 182,  # half-year series of the io workload
    "io_log_rows": 5_000,
    "qtable_cycles": 10,  # save+load round trips of the Q-table per io pass
}

WIND_ENCODING = "hour-soc-load-pv-wind"

# End-to-end metrics a workload reports besides the four gated ones
# (name -> unit, better). Only these apply to the workload's work.
REPORTED = {
    "train": {
        "td_steps_per_s": ("1/s", "higher"),
        "cost_reduction_pct": ("%", "higher"),
        "import_reduction_pct": ("%", "higher"),
    },
    "evaluate": {
        "rollout_hours_per_s": ("1/s", "higher"),
        "oracle_days_per_s": ("1/s", "higher"),
        "cost_reduction_pct": ("%", "higher"),
        "import_reduction_pct": ("%", "higher"),
        "oracle_gap_per_day": ("currency", "lower"),
    },
    "io": {
        "csv_rows_per_s": ("1/s", "higher"),
        "qtable_mb_per_s": ("MB/s", "higher"),
    },
}


class ProgramMissing(RuntimeError):
    """The checkout holds no importable farmbess source."""


def import_program():
    """Import farmbess from ./src of this checkout, never from elsewhere."""
    package = SRC / "farmbess"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no farmbess source under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import farmbess
        import farmbess.cli  # noqa: F401  (binds every module the CLI uses)
    except ImportError as exc:
        raise ProgramMissing(f"cannot import farmbess: {exc}") from None
    if Path(farmbess.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"farmbess imported from {farmbess.__file__}, not {package}")
    return farmbess


# -- operations and output checks ----------------------------------------------


@dataclass
class Op:
    name: str
    ok: bool
    value: object


class Fastest:
    """The fastest time of each named operation over repeats of one sequence
    of operations (a pass, or a set-up).

    Operations of one name do the same work on the same inputs. `total` is
    the time of the sequence with every operation at the fastest time that
    its name took; a sequence that calls a name several times counts that
    time as often.
    """

    def __init__(self) -> None:
        self.best: dict[str, float] = {}
        self.calls: Counter = Counter()  # calls per name in the latest repeat

    def repeat(self) -> Fastest:
        self.calls = Counter()
        return self

    def add(self, name: str, seconds: float) -> None:
        self.best[name] = min(seconds, self.best.get(name, math.inf))
        self.calls[name] += 1

    def total(self) -> float:
        return sum(best * max(self.calls[name], 1) for name, best in self.best.items())


class Ledger:
    """Counts operations and failures, and checks outputs against pins.

    An operation is one CLI command or one library call. It fails on an
    exception, a non-zero exit or a failed output check. With `record` set,
    checked values are stored there instead of compared (used by --repin).
    """

    def __init__(self, fb, pins: dict | None, record: dict | None = None) -> None:
        self.fb = fb
        self.pins = pins or {}
        self.record = record
        self.attempted = 0
        self.failures: list[str] = []
        self.clock: Fastest | None = None  # set while a timed pass or set-up runs

    @property
    def failed(self) -> int:
        return len(self.failures)

    def call(self, name: str, fn, *args, **kwargs) -> Op:
        """Run one operation. `name` identifies it within a pass: its fastest
        time over the timed passes is kept under that name."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # the program's failure is the measurement
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return Op(name, False, None)
        seconds = time.perf_counter() - start
        if self.clock is not None:
            self.clock.add(name, seconds)
        return Op(name, True, value)

    def cli(self, argv: list[str], name: str | None = None) -> Op:
        """Run one `farmbess` command in-process; a non-zero exit fails it."""
        with contextlib.redirect_stdout(_io.StringIO()):
            op = self.call(name or f"farmbess {argv[0]}", self.fb.cli.main, argv)
        if op.ok and op.value != 0:
            self.fail(op, f"exit status {op.value}")
        return op

    def unreadable(self, reason: str) -> None:
        """An output the checks could not read counts as one failed operation."""
        self.attempted += 1
        self.failures.append(f"checks: {reason}")

    def fail(self, op: Op, reason: str) -> None:
        if op.ok:
            op.ok = False
            self.failures.append(f"{op.name}: {reason}")

    def require(self, op: Op, condition: bool, reason: str) -> None:
        if not condition:
            self.fail(op, reason)

    def expect(self, op: Op, key: str, value, rtol: float = 0.0) -> None:
        """Compare an output with its pinned value (or pin it)."""
        if self.record is not None:
            if key in self.record and self.record[key] != value:
                self.fail(op, f"{key} differs between passes")
            self.record[key] = value
            return
        if key not in self.pins:
            self.fail(op, f"no pinned value for {key}")
        elif not _same(self.pins[key], value, rtol):
            self.fail(op, f"{key} is {value!r}, pinned {self.pins[key]!r}")


def _same(pinned, value, rtol: float) -> bool:
    if rtol and isinstance(pinned, float) and isinstance(value, float):
        return math.isclose(pinned, value, rel_tol=rtol, abs_tol=rtol)
    return pinned == value


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- workloads -------------------------------------------------------------------


class Workload:
    """One benchmark workload: set-up, a timed pass, and checks of a pass."""

    name = ""

    def __init__(self, ledger: Ledger, sizes: dict, seed: int, work: Path) -> None:
        self.ledger = ledger
        self.fb = ledger.fb
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.ready = True

    def write_config(self, days: int, episodes: int) -> Path:
        """Config file for the CLI. The seed drives the data and training."""
        config = {
            "dataset": {"synthetic": {"days": days, "rng_seed": self.seed}},
            "hyperparams": {"total_episodes": episodes},
            "encoding": {"kind": WIND_ENCODING},
            "run": {"seeds": [self.seed]},
        }
        path = self.work / "config.yaml"
        path.write_text(json.dumps(config, indent=2) + "\n")  # JSON is YAML
        return path

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> dict:
        """Operations of one timed pass; returns what check_pass needs."""
        raise NotImplementedError

    def check_pass(self, outputs: dict) -> dict[str, float]:
        """Check a pass's outputs (untimed); return its quality figures."""
        raise NotImplementedError

    def report(self, best: dict[str, float], quality: dict[str, float]) -> dict[str, float]:
        """Workload-specific end-to-end metrics from the fastest time of each
        operation (see README.md) and the quality figures of a pass."""
        raise NotImplementedError

    def read_comparison(
        self, op: Op, key: str, out: str = "out", digest: bool = False
    ) -> dict[str, dict] | None:
        """Rows of `out`/comparison.json by candidate; pins them under `key`,
        or pins the sha256 of their canonical JSON when `digest` is set.

        The run's own work directory is replaced by `<work>` in the labels.
        """
        path = self.work / out / "comparison.json"
        if not op.ok:
            return None
        try:
            rows = json.loads(path.read_text().replace(str(self.work), "<work>"))
            by_candidate = {row["candidate"]: row for row in rows}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.ledger.fail(op, f"unreadable comparison.json: {exc}")
            return None
        if digest:
            rows = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        self.ledger.expect(op, key, rows)
        return by_candidate


class TrainWorkload(Workload):
    """`farmbess compare --ablation`: three encodings trained and rolled out
    on the same series."""

    name = "train"
    OP = "farmbess compare --ablation"

    def setup(self) -> None:
        self.config = self.write_config(self.sizes["train_days"], self.sizes["train_episodes"])

    def run_pass(self) -> dict:
        out = str(self.work / "out")
        return {"ablation": self.ledger.cli(
            ["compare", "--config", str(self.config), "--ablation", "--out", out], name=self.OP
        )}

    def check_pass(self, outputs: dict) -> dict[str, float]:
        op = outputs["ablation"]
        by_candidate = self.read_comparison(op, "ablation_comparison_sha256", digest=True)
        if not by_candidate:
            return {}
        rows = [r for c, r in by_candidate.items() if c.startswith("qlearning:")]
        self.ledger.require(op, len(rows) == 3, f"{len(rows)} ablation rows, expected 3")
        if not rows:
            return {}
        return {
            "cost_reduction_pct": statistics.fmean(r["cost_reduction_pct"] for r in rows),
            "import_reduction_pct": statistics.fmean(r["import_reduction_pct"] for r in rows),
        }

    def report(self, best: dict[str, float], quality: dict[str, float]) -> dict[str, float]:
        td_steps = 3 * self.sizes["train_episodes"] * 24
        return {"td_steps_per_s": td_steps / best[self.OP], **quality}


class EvaluateWorkload(Workload):
    """A table trained at set-up, then compare, dp_oracle and day_return."""

    name = "evaluate"

    def setup(self) -> None:
        ledger, fb = self.ledger, self.fb
        self.config = self.write_config(self.sizes["days"], self.sizes["evaluate_episodes"])
        out = self.work / "out"
        self.qtable = out / f"qtable_seed{self.seed}.qt"
        op = ledger.cli(["train", "--config", str(self.config), "--out", str(out)])
        if not op.ok:
            self.ready = False
            return
        ledger.expect(op, "qtable_sha256", sha256_file(self.qtable))
        series_op = ledger.call("load_config", fb.config.load_config, self.config)
        if series_op.ok:
            config = series_op.value
            series_op = ledger.call("RunConfig.load_series", config.load_series)
        table_op = ledger.call("load_qtable", fb.agent.load_qtable, self.qtable)
        if not (series_op.ok and table_op.ok):
            self.ready = False
            return
        series = series_op.value
        self.spec, self.tariff = config.battery, config.tariff
        self.initial_level = config.initial_soc_level
        self.hours = len(series)
        self.days = [series.day(d) for d in range(series.n_days)]
        self.controller = fb.evaluation.qtable_controller(table_op.value, self.spec)
        self.check_reports(series)

    def check_reports(self, series) -> None:
        """`farmbess evaluate` of the table (pinned totals) and of the
        no-battery baseline (checked against import summed from the data)."""
        ledger = self.ledger
        out = self.work / "out"
        for ref, report in (
            (f"qtable:{self.qtable}", out / f"eval_qtable-{self.qtable.stem}.json"),
            ("baseline:no-battery", out / "eval_baseline-no-battery.json"),
        ):
            op = ledger.cli(["evaluate", "--config", str(self.config), ref, "--out", str(out)],
                            name=f"farmbess evaluate {ref.partition(':')[0]}")
            if not op.ok:
                continue
            try:
                data = json.loads(report.read_text())
                totals = [data["total_import_kwh"], data["total_cost"]]
            except (OSError, ValueError, KeyError) as exc:
                ledger.fail(op, f"unreadable report {report.name}: {exc}")
                continue
            if ref.startswith("qtable:"):
                ledger.expect(op, "eval_qtable_totals", totals)
                continue
            loads, renewables = series.loads(), series.pvs() + series.winds()
            deficit = math.fsum(max(0.0, float(x)) for x in loads - renewables)
            ledger.require(
                op,
                math.isclose(totals[0], deficit, rel_tol=FLOAT_RTOL),
                f"no-battery import {totals[0]!r} != summed deficit {deficit!r}",
            )

    def run_pass(self) -> dict:
        ledger, fb = self.ledger, self.fb
        out = str(self.work / "out")
        refs = ["baseline:no-battery", "baseline:msc", "baseline:tou", f"qtable:{self.qtable}"]
        compare = ledger.cli(["compare", "--config", str(self.config), *refs, "--out", out])
        oracle = [
            ledger.call(f"dp_oracle[{d}]", fb.evaluation.dp_oracle, day, self.spec,
                        self.tariff, self.initial_level, penalty_mode="cost-only")
            for d, day in enumerate(self.days)
        ]
        returns = [
            ledger.call(f"day_return[{d}]", fb.evaluation.day_return, self.controller, day,
                        self.spec, self.tariff, self.initial_level, penalty_mode="cost-only")
            for d, day in enumerate(self.days)
        ]
        return {"compare": compare, "oracle": oracle, "returns": returns}

    def check_pass(self, outputs: dict) -> dict[str, float]:
        ledger = self.ledger
        compare = outputs["compare"]
        quality = {}
        rows = self.read_comparison(compare, "compare_comparison")
        if rows:
            row = rows.get(f"qtable:<work>/out/{self.qtable.name}")
            ledger.require(compare, row is not None, "no row for the q-table")
            if row:
                quality["cost_reduction_pct"] = row["cost_reduction_pct"]
                quality["import_reduction_pct"] = row["import_reduction_pct"]
        oracle, returns = outputs["oracle"], outputs["returns"]
        if all(op.ok for op in oracle) and all(op.ok for op in returns):
            best = math.fsum(op.value[0] for op in oracle)
            got = math.fsum(op.value for op in returns)
            ledger.expect(oracle[-1], "oracle_total", best, FLOAT_RTOL)
            ledger.expect(returns[-1], "day_return_total", got, FLOAT_RTOL)
            quality["oracle_gap_per_day"] = (best - got) / len(self.days)
        return quality

    def report(self, best: dict[str, float], quality: dict[str, float]) -> dict[str, float]:
        oracle_s = sum(best[f"dp_oracle[{d}]"] for d in range(len(self.days)))
        return {
            "rollout_hours_per_s": 4 * self.hours / best["farmbess compare"],
            "oracle_days_per_s": len(self.days) / oracle_s,
            **quality,
        }


class IoWorkload(Workload):
    """A half-year series written and read back, and Q-table/log files."""

    name = "io"

    def setup(self) -> None:
        ledger, fb = self.ledger, self.fb
        self.config = self.write_config(self.sizes["io_days"], 1)
        op = ledger.call("load_config", fb.config.load_config, self.config)
        if not op.ok:
            self.ready = False
            return
        config = op.value
        self.spec, self.tariff = config.battery, config.tariff
        self.qtable_bytes = 0
        op = ledger.call("generate_synthetic", fb.timeseries.generate_synthetic,
                         config.synthetic, config.tariff)
        if not op.ok:
            self.ready = False
            return
        expected = op.value
        self.columns = _columns(expected)
        self.wind = fb.encoding.EncodingKind(WIND_ENCODING)
        op = ledger.call("StateEncoder.for_series", fb.encoding.StateEncoder.for_series,
                         self.wind, expected, self.spec)
        if not op.ok:
            self.ready = False
            return
        self.encoder = op.value
        rng = np.random.default_rng(self.seed)
        self.table = fb.agent.QTable(
            values=rng.normal(size=(self.encoder.size(), 3)),
            encoder=self.encoder,
            hyperparams=fb.agent.Hyperparams(rng_seed=self.seed),
        )
        n = self.sizes["io_log_rows"]
        self.log = fb.agent.TrainingLog(
            day_indices=rng.integers(0, self.sizes["io_days"], n),
            soc_levels=rng.integers(0, self.spec.soc_levels, n),
            alphas=np.linspace(0.8, 0.1, n),
            epsilons=np.linspace(0.8, 0.1, n),
            episode_returns=rng.normal(-5.0, 2.0, n),
        )

    def run_pass(self) -> dict:
        ledger, fb = self.ledger, self.fb
        csv_path = self.work / "series.csv"
        bare_path = self.work / "series_no_price.csv"
        qt_path = self.work / "table.qt"
        log_path = self.work / "training_log.csv"
        outputs = {}
        outputs["gen"] = ledger.cli(
            ["gen-data", "--config", str(self.config), "--out", str(csv_path)]
        )
        outputs["read"] = ledger.call("load_csv", fb.timeseries.load_csv, csv_path)
        if outputs["read"].ok:
            outputs["write"] = ledger.call("write_csv", fb.timeseries.write_csv,
                                           outputs["read"].value, bare_path, include_price=False)
            outputs["read_bare"] = ledger.call("load_csv(tariff)", fb.timeseries.load_csv,
                                               bare_path, tariff=self.tariff)
            outputs["encoder"] = ledger.call(
                "StateEncoder.for_series", fb.encoding.StateEncoder.for_series,
                self.wind, outputs["read"].value, self.spec,
            )
        cycles = []
        for _ in range(self.sizes["qtable_cycles"]):
            save = ledger.call("save_qtable", fb.agent.save_qtable, self.table, qt_path)
            load = ledger.call("load_qtable", fb.agent.load_qtable, qt_path)
            cycles.append((save, load))
        outputs["qtable"] = cycles
        outputs["qt_sha"] = sha256_file(qt_path) if qt_path.exists() else None
        outputs["log"] = ledger.call("TrainingLog.write_csv", self.log.write_csv, log_path)
        outputs["paths"] = (csv_path, log_path)
        return outputs

    def check_pass(self, outputs: dict) -> dict[str, float]:
        ledger = self.ledger
        csv_path, log_path = outputs["paths"]
        gen, read = outputs["gen"], outputs["read"]
        if gen.ok:
            ledger.expect(gen, "csv_sha256", sha256_file(csv_path))
        if read.ok:
            write, bare, encoder = outputs["write"], outputs["read_bare"], outputs["encoder"]
            ledger.require(read, _columns(read.value) == self.columns,
                           "gen-data -> load_csv does not round-trip the series")
            if bare.ok:
                ledger.require(bare, _columns(bare.value) == self.columns,
                               "write_csv without prices -> load_csv(tariff) differs")
            if encoder.ok:
                ledger.require(encoder, encoder.value == self.encoder,
                               "encoder of the loaded series differs")
        for save, load in outputs["qtable"]:
            if save.ok and load.ok:
                ledger.require(load, _same_table(load.value, self.table),
                               "save_qtable -> load_qtable is not bitwise equal")
        if outputs["qt_sha"] is not None:
            ledger.expect(outputs["qtable"][0][0], "qtable_sha256", outputs["qt_sha"])
            self.qtable_bytes = (self.work / "table.qt").stat().st_size
        log = outputs["log"]
        if log.ok:
            ledger.expect(log, "training_log_sha256", sha256_file(log_path))
        return {}

    def report(self, best: dict[str, float], quality: dict[str, float]) -> dict[str, float]:
        rows = 4 * self.sizes["io_days"] * 24  # two files written, two read
        csv_s = sum(best[n] for n in ("farmbess gen-data", "load_csv", "write_csv",
                                      "load_csv(tariff)"))
        qtable_s = best["save_qtable"] + best["load_qtable"]
        return {
            "csv_rows_per_s": rows / csv_s,
            "qtable_mb_per_s": 2 * self.qtable_bytes / 1e6 / qtable_s,
        }


def _columns(series) -> tuple:
    """The series' columns as exact lists of floats."""
    return (
        len(series),
        series.loads().tolist(),
        series.pvs().tolist(),
        series.winds().tolist() if series.has_wind else None,
        series.prices().tolist(),
    )


def _same_table(loaded, table) -> bool:
    return (
        loaded.values.dtype == table.values.dtype
        and loaded.values.shape == table.values.shape
        and loaded.values.tobytes() == table.values.tobytes()
        and loaded.encoder == table.encoder
        and loaded.hyperparams == table.hyperparams
    )


WORKLOAD_TYPES = {w.name: w for w in (TrainWorkload, EvaluateWorkload, IoWorkload)}


def import_seconds() -> float:
    """Time of the program's import in a fresh interpreter, which finds the
    bytecode compiled; inf if the import fails."""
    code = (
        "import sys, time; start = time.perf_counter(); "
        f"sys.path.insert(0, {str(SRC)!r}); import farmbess.cli; "
        "print(time.perf_counter() - start)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, timeout=120
    )
    return float(done.stdout) if done.returncode == 0 else math.inf


# -- run metadata --------------------------------------------------------------


def speed_probe() -> float:
    """Median time of a fixed pure-Python loop; recorded, never used to scale."""

    def spin() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        return time.perf_counter() - start

    return statistics.median(spin() for _ in range(5))


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "farmbess").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_metadata(seed: int, input_seed: int) -> dict:
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "input_seed": input_seed,
        "probe_s": speed_probe(),
    }


# -- one run ---------------------------------------------------------------------


def load_pins() -> dict:
    try:
        return json.loads(PINS_PATH.read_text())
    except FileNotFoundError:
        return {}


def pins_for(pins: dict, sizes: dict, input_seed: int, workload: str) -> dict:
    if pins.get("sizes") != sizes:
        return {}
    return pins.get("seeds", {}).get(str(input_seed), {}).get(workload, {})


def run_workload(
    fb,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: dict = SIZES,
    pins: dict | None = None,
    record: dict | None = None,
    import_s: float = math.inf,
    setup_rounds: int = SETUP_ROUNDS,
) -> dict:
    """Set up, time and check one workload; return the result and report.

    `import_s` is this process's own import of the program. Set-up time is
    the fastest import, this one or one timed in a set-up round, plus the
    set-up operations at their fastest over the rounds.
    """
    input_seed = seed % PINNED_SEEDS
    if pins is None:
        pins = pins_for(load_pins(), sizes, input_seed, name)
    ledger = Ledger(fb, pins, record)
    metadata = run_metadata(seed, input_seed)
    setup_clock, pass_clock = Fastest(), Fastest()
    imports = [import_s]

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    tracer = None
    try:
        timing_setup = not trace and record is None
        rounds = setup_rounds if timing_setup else 1

        def set_up():
            """One set-up round; its operations accumulate in setup_clock."""
            if timing_setup:
                imports.append(import_seconds())
            ledger.clock = setup_clock.repeat()
            try:
                fresh = WORKLOAD_TYPES[name](ledger, sizes, input_seed, work)
                fresh.setup()
            finally:
                ledger.clock = None
            return fresh

        workload = set_up()
        done_rounds = 1
        if not workload.ready:
            return _result(ledger, {}, metadata, name, trace)

        def timed_passes(budget: float, minimum: int) -> tuple[list[float], dict]:
            """Repeat the pass; return pass wall times and the first pass's
            quality figures. Operation times accumulate in pass_clock.

            The remaining set-up rounds run between passes, evenly over the
            budget, so that set-up, like the pass, meets the machine's fast
            spells; the pass keeps the workload of the first round.
            """
            nonlocal done_rounds
            walls, quality = [], None
            start = time.perf_counter()
            while len(walls) < minimum or time.perf_counter() - start < budget:
                if done_rounds < rounds and (
                    time.perf_counter() - start >= done_rounds * budget / rounds
                ):
                    set_up()
                    done_rounds += 1
                began = time.perf_counter()
                ledger.clock = pass_clock.repeat()
                outputs = workload.run_pass()
                ledger.clock = None
                walls.append(time.perf_counter() - began)
                with _paused(tracer):
                    try:
                        checked = workload.check_pass(outputs)
                    except (KeyError, TypeError, ValueError) as exc:
                        ledger.unreadable(f"{type(exc).__name__}: {exc}")
                        checked = {}
                quality = checked if quality is None else quality
            return walls, quality

        if record is not None:
            timed_passes(0.0, 1)
            return _result(ledger, {}, metadata, name, trace)
        if not trace:
            walls, quality = timed_passes(seconds, MIN_PASSES)
            for _ in range(done_rounds, rounds):
                set_up()
            metrics = {
                "setup_s": (min(imports) + setup_clock.total(), "s"),
                "wall_s": (pass_clock.total(), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ops_ok_frac": (1.0 - ledger.failed / max(ledger.attempted, 1), "fraction"),
            }
            result = _result(ledger, metrics, metadata, name, trace)
            try:
                reported = workload.report(pass_clock.best, quality)
            except KeyError:  # an operation never succeeded; already failed
                reported = {}
            result["report"]["metrics"] = {
                key: {"value": value, "unit": REPORTED[name][key][0]}
                for key, value in reported.items()
            }
            result["report"]["passes"] = len(walls)
            result["report"]["wall_p50_s"] = statistics.median(walls)
            return result

        import spans

        # Untraced and traced passes alternate, so that both see the same
        # machine speed and their difference is the tracing overhead.
        tracer = spans.Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            untraced += timed_passes(0.0, 1)[0]
            tracer.install()
            tracer.enabled = True
            try:
                traced += timed_passes(0.0, 1)[0]
            finally:
                tracer.enabled = False
                tracer.uninstall()
        untraced_s, traced_s = statistics.fmean(untraced), statistics.fmean(traced)
        units = {n: u for n, u, _ in spans.layer_metric_names()}
        metrics = {k: (v, units[k]) for k, v in tracer.layer_metrics(len(traced)).items()}
        metrics.update({
            "bench.untraced_pass_s": (untraced_s, "s"),
            "bench.traced_pass_s": (traced_s, "s"),
            "bench.trace_overhead_s": (traced_s - untraced_s, "s"),
            "bench.traced_passes": (len(traced), "count"),
            "bench.spans_missing": (len(tracer.missing), "count"),
        })
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.save(TRACE_DIR / f"spans-{name}-seed{seed}.npz")
        result = _result(ledger, metrics, metadata, name, trace)
        result["report"]["spans_missing"] = tracer.missing
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


@contextlib.contextmanager
def _paused(tracer):
    """Keep the benchmark's own checks out of the spans."""
    if tracer is None:
        yield
        return
    was, tracer.enabled = tracer.enabled, False
    try:
        yield
    finally:
        tracer.enabled = was


def _result(ledger: Ledger, metrics: dict, metadata: dict, name: str, trace: bool) -> dict:
    return {
        "result": {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "report": {
            "workload": name,
            "trace": int(trace),
            "ops_failed_frac": ledger.failed / max(ledger.attempted, 1),
            "failures": ledger.failures[:20],
            "metadata": metadata,
        },
    }


# -- entry points ----------------------------------------------------------------


def repin(fb, seeds: range) -> None:
    """Recompute pins.json from the program as it stands."""
    table = {}
    for seed in seeds:
        table[str(seed)] = {}
        for name in WORKLOADS:
            record: dict = {}
            outcome = run_workload(fb, name, seed, 0.0, False, pins={}, record=record)
            failures = outcome["report"]["failures"]
            if failures:
                raise SystemExit(f"repin: seed {seed} {name} failed: {failures}")
            table[str(seed)][name] = record
        print(f"pinned seed {seed}", file=sys.stderr)
    PINS_PATH.write_text(
        json.dumps({"sizes": SIZES, "seeds": table}, indent=1, sort_keys=True) + "\n"
    )


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Run every workload in its own process and print all metrics by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        *_, report_line, result_line = done.stdout.strip().splitlines()
        result = json.loads(result_line)
        report = json.loads(report_line.removeprefix("report "))
        directions = _directions(name, trace)
        for metric, entry in {**result["metrics"], **report.get("metrics", {})}.items():
            print(f"{name:9s} {metric:44s} {entry['value']:>16.6g} {entry['unit']:8s} "
                  f"{directions.get(metric, '')}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def _directions(name: str, trace: int) -> dict[str, str]:
    if trace:
        import spans

        return {n: f"{better} is better" for n, _, better in spans.layer_metric_names()}
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    directions.update({k: b for k, (_, b) in REPORTED[name].items()})
    return {k: f"{b} is better" for k, b in directions.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repin", action="store_true",
                        help=f"rewrite {PINS_PATH.name} for seeds 0..{PINNED_SEEDS - 1}")
    args = parser.parse_args(argv)
    if not args.repin and args.workload is None:
        parser.error("--workload is required")
    try:
        fb = import_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_START
    if args.repin:
        repin(fb, range(PINNED_SEEDS))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    outcome = run_workload(
        fb, args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s
    )
    for failure in outcome["report"]["failures"]:
        print(f"bench: failed: {failure}", file=sys.stderr)
    print("report " + json.dumps(outcome["report"], sort_keys=True))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
