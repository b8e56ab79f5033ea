#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size (about ten seconds).

    python3 bench/smoke.py

Checks that every workload runs clean against digests pinned for the tiny
size, that every metric BENCHMARK.json names appears with its unit and
direction, that a wrong pinned digest becomes a failed operation, that a
missing span target is reported instead of crashing, and that the benchmark
refuses to run in a directory without the program. Exits non-zero on any
failure. It is kept out of pytest collection so the unit tests stay fast.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spans

TINY = {
    "days": 14,
    "train_days": 14,
    "train_episodes": 200,
    "evaluate_episodes": 200,
    "io_days": 14,
    "io_log_rows": 300,
    "qtable_cycles": 2,
}
SEED = 3

problems: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        problems.append(message)


def tiny_run(fb, workload: str, pins: dict, trace: bool = False) -> dict:
    return run.run_workload(fb, workload, SEED, 0, trace, sizes=TINY, pins=pins, setup_rounds=2)


def main() -> int:
    fb = run.import_program()
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    per_layer = {m["name"]: m for m in benchmark["per_layer"]}

    check(
        [(m["name"], m["unit"], m["better"]) for m in benchmark["per_layer"]]
        == spans.layer_metric_names(),
        "BENCHMARK.json per_layer matches the span table",
    )
    check(
        {m["name"] for m in benchmark["workloads"]} == set(run.WORKLOADS),
        "BENCHMARK.json names every workload",
    )

    for workload in run.WORKLOADS:
        pins: dict = {}
        outcome = run.run_workload(fb, workload, SEED, 0, False, sizes=TINY, pins={}, record=pins)
        check(not outcome["report"]["failures"], f"{workload}: pinning run is clean")

        outcome = tiny_run(fb, workload, pins)
        result, report = outcome["result"], outcome["report"]
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"{workload}: untraced run checks clean ({result['attempted']} operations)")
        metrics = result["metrics"]
        check(
            {k: v["unit"] for k, v in metrics.items()}
            == {k: m["unit"] for k, m in end_to_end.items()},
            f"{workload}: every end-to-end metric, with its unit",
        )
        check(all(v["value"] > 0 for v in metrics.values()),
              f"{workload}: end-to-end metrics are non-zero")
        check(
            {k: v["unit"] for k, v in report["metrics"].items()}
            == {k: unit for k, (unit, _) in run.REPORTED[workload].items()},
            f"{workload}: every reported workload metric, with its unit",
        )

        wrong = dict(pins)
        key = sorted(wrong)[0]
        wrong[key] = "0" * 64
        result = tiny_run(fb, workload, wrong)["result"]
        check(result["failed"] > 0 and not result["correct"],
              f"{workload}: a wrong pinned {key} fails {result['failed']} operation(s)")

        outcome = tiny_run(fb, workload, pins, trace=True)
        result = outcome["result"]
        check(result["correct"], f"{workload}: traced run checks clean")
        check(
            {k: v["unit"] for k, v in result["metrics"].items()}
            == {k: m["unit"] for k, m in per_layer.items()},
            f"{workload}: every per-layer metric, with its unit",
        )

    # A refactor that renames a spanned callable must still get measured.
    saved = fb.evaluation.ablation_run
    del fb.evaluation.ablation_run
    try:
        outcome = tiny_run(fb, "train", {}, trace=True)
    finally:
        fb.evaluation.ablation_run = saved
    missing = outcome["report"]["spans_missing"]
    metrics = outcome["result"]["metrics"]
    check(
        missing == ["evaluation.ablation_run"]
        and not any(k.startswith("evaluation.ablation_run.") for k in metrics)
        and "agent.train.busy_s" in metrics,
        "a missing span target is reported as absent, the rest still measured",
    )

    run.WORK_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "train", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK_ROOT.rmdir()
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "without the program it exits non-zero and prints no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
