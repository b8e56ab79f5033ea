#!/usr/bin/env python3
"""Benchmark several commits with today's unedited bench runner.

Usage (from the repository root):

    python3 tools/bench_history.py 71e9c8a e3be6ba --rounds 3 --seconds 10

Each commit's tree is extracted with `git archive` into a temporary
directory; a tree without `bench/` or `BENCHMARK.json` (the seed commit) is
given the ones the benchmark was defined with (`bec9583`). Then, for each
round and each workload, `python3 bench/run.py --workload W --seed 0
--seconds N --trace 0` runs once in every tree, the commits taking turns
(reversed every other round), so a slow spell of the machine falls on all of
them. The runner's last two stdout lines are its `report` and its result.
An archived tree has no `.git`, so the report's `commit` is null and this
script records the commit itself.

Writes one `BENCH_<sha7>.json` per commit into --out (default: the current
directory): the machine, the paths grafted from `bec9583`, every round's
result and report, and each metric's median over the rounds that ran.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("train", "evaluate", "io")
# The commit that defined the benchmark; later commits only kept its files.
BENCH_COMMIT = "bec9583"
SEED = 0
GRAFTED = ("bench", "BENCHMARK.json")


def git(*args: str) -> bytes:
    return subprocess.run(("git", *args), check=True, capture_output=True).stdout


def extract(commit: str, dest: Path, *paths: str) -> None:
    """Write `paths` (everything when none are given) of `commit` under `dest`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit, *paths))) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(dest, filter="data")
        else:  # Python before 3.10.12 and 3.11.4
            archive.extractall(dest)


def checkout(commit: str, dest: Path) -> list[str]:
    """Extract the commit's tree into `dest`, graft the benchmark's files it
    lacks, and return the grafted paths."""
    extract(commit, dest)
    missing = [path for path in GRAFTED if not (dest / path).exists()]
    if missing:
        extract(BENCH_COMMIT, dest, *missing)
    return missing


def run_bench(tree: Path, workload: str, seconds: int) -> dict:
    """One run of the tree's runner; its result and report, or its error.
    A run that fails, hangs or prints something else is recorded as an error
    so that the rounds already run are still written."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    # The runner imports farmbess from the tree's src/ and nowhere else.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=seconds * 10 + 300)
    except subprocess.TimeoutExpired as exc:
        return {"error": f"timed out after {exc.timeout} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("report "):
        return {"error": f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"}
    try:
        return {
            "result": json.loads(lines[-1]),
            "report": json.loads(lines[-2].removeprefix("report ")),
        }
    except json.JSONDecodeError as exc:
        return {"error": f"unreadable output: {exc}"}


def metric_values(run: dict) -> dict[str, float]:
    """Every number one run reports: the gated metrics, the workload's own
    metrics and the median pass time."""
    values = {k: v["value"] for k, v in run["result"]["metrics"].items()}
    values.update({k: v["value"] for k, v in run["report"].get("metrics", {}).items()})
    if "wall_p50_s" in run["report"]:
        values["wall_p50_s"] = run["report"]["wall_p50_s"]
    return values


def medians(runs: list[dict]) -> dict[str, float]:
    table: dict[str, list[float]] = {}
    for run in runs:
        if "result" in run:
            for key, value in metric_values(run).items():
                table.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in sorted(table.items())}


def machine(runs: list[dict]) -> dict:
    """The host as the runner's report describes it, plus the kernel."""
    for run in runs:
        if "report" in run:
            meta = run["report"]["metadata"]
            return {
                **{k: meta[k] for k in ("python", "numpy", "nproc", "cpu_model")},
                "platform": platform.platform(),
            }
    return {"platform": platform.platform()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commits", nargs="+", help="commits to benchmark, in this order")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=10, help="--seconds of each run")
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.seconds < 1:
        parser.error("--rounds and --seconds must be at least 1")

    shas = [git("rev-parse", "--verify", f"{c}^{{commit}}").decode().strip() for c in args.commits]
    with tempfile.TemporaryDirectory(prefix="bench-history-") as scratch:
        trees, grafted = {}, {}
        for sha in dict.fromkeys(shas):
            trees[sha] = Path(scratch) / sha
            trees[sha].mkdir()
            grafted[sha] = checkout(sha, trees[sha])
        runs: dict[str, dict[str, list[dict]]] = {
            sha: {w: [] for w in WORKLOADS} for sha in trees
        }
        for r in range(args.rounds):
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for workload in WORKLOADS:
                for sha in order:
                    run = {"round": r, **run_bench(trees[sha], workload, args.seconds)}
                    runs[sha][workload].append(run)
                    status = run.get("error") or "wall_s {:.4f} s".format(
                        run["result"]["metrics"].get("wall_s", {}).get("value", float("nan"))
                    )
                    print(f"round {r} {workload:8s} {sha[:7]}: {status}", file=sys.stderr)

    args.out.mkdir(parents=True, exist_ok=True)
    for sha, by_workload in runs.items():
        every = [run for workload_runs in by_workload.values() for run in workload_runs]
        document = {
            "commit": sha,
            "grafted": grafted[sha],
            "command": f"python3 bench/run.py --workload W --seed {SEED} "
            f"--seconds {args.seconds} --trace 0",
            "rounds": args.rounds,
            "machine": machine(every),
            "workloads": {
                workload: {"median": medians(workload_runs), "runs": workload_runs}
                for workload, workload_runs in by_workload.items()
            },
        }
        path = args.out / f"BENCH_{sha[:7]}.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
