"""In-memory span recorder for the traced benchmark run.

Each listed public callable of farmbess is wrapped at every name its callers
bind (for example both `farmbess.battery.apply_action` and
`farmbess.evaluation.apply_action`), and restored afterwards. A span records
its name, start, end and the span that was open when it began. Self time is a
span's duration minus the part its child spans cover; calls are strictly
nested on one thread, so that is the sum of the direct children's durations.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


# Work counters: each maps (args, kwargs, result) to {stat: amount}.
def _td_steps(a, k, r):
    hp = _arg(a, k, 1, "hyperparams")
    return {"td_steps": hp.total_episodes * hp.steps_per_episode}


def _rollout_hours(a, k, r):
    return {"hours": len(_arg(a, k, 1, "series"))}


def _one_day(a, k, r):
    return {"days": 1}


def _saved_bytes(a, k, r):
    return {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}


def _loaded_bytes(a, k, r):
    return {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}


def _log_rows(a, k, r):
    return {"rows": len(a[0])}


def _result_rows(a, k, r):
    return {"rows": len(r)}


def _read_csv(a, k, r):
    return {"rows": len(r), "bytes": os.path.getsize(_arg(a, k, 0, "path"))}


def _written_csv(a, k, r):
    return {
        "rows": len(_arg(a, k, 0, "series")),
        "bytes": os.path.getsize(_arg(a, k, 1, "path")),
    }


def _text_bytes(a, k, r):
    return {"bytes": len(_arg(a, k, 1, "text"))}


def _data_bytes(a, k, r):
    return {"bytes": len(_arg(a, k, 1, "data"))}


@dataclass(frozen=True)
class SpanSpec:
    """One spanned callable: `attr` is `name` or `Class.method` in `module`."""

    module: str
    attr: str
    stats: tuple[str, ...]
    work: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


# Public names that the columnar refactor keeps. Private helpers and the names
# it removes (compute_reward, decay_step, state_space_size, _flow_tuple) are
# deliberately absent.
SPANS = (
    SpanSpec("farmbess.cli", "main", ("calls", "busy_s", "self_s")),
    SpanSpec("farmbess.config", "load_config", ("calls", "busy_s")),
    SpanSpec("farmbess.config", "RunConfig.load_series", ("calls", "busy_s")),
    SpanSpec(
        "farmbess.agent", "train",
        ("calls", "busy_s", "self_s", "td_steps", "td_steps_per_s"), _td_steps,
    ),
    SpanSpec(
        "farmbess.agent", "greedy_action",
        ("calls", "busy_s", "p50_us", "tail_us", "tail_q"),
    ),
    SpanSpec("farmbess.agent", "save_qtable", ("calls", "busy_s", "bytes"), _saved_bytes),
    SpanSpec("farmbess.agent", "load_qtable", ("calls", "busy_s", "bytes"), _loaded_bytes),
    SpanSpec("farmbess.agent", "TrainingLog.write_csv", ("calls", "busy_s", "rows"), _log_rows),
    SpanSpec(
        "farmbess.evaluation", "rollout",
        ("calls", "busy_s", "self_s", "hours"), _rollout_hours,
    ),
    SpanSpec(
        "farmbess.evaluation", "dp_oracle",
        ("calls", "busy_s", "days", "p50_us", "tail_us", "tail_q"), _one_day,
    ),
    SpanSpec("farmbess.evaluation", "day_return", ("calls", "busy_s", "self_s", "p50_us")),
    SpanSpec("farmbess.evaluation", "ablation_run", ("calls", "busy_s", "self_s")),
    SpanSpec(
        "farmbess.battery", "apply_action",
        ("calls", "busy_s", "p50_us", "tail_us", "tail_q"),
    ),
    SpanSpec("farmbess.encoding", "StateEncoder.encode", ("calls", "busy_s", "p50_us")),
    SpanSpec("farmbess.encoding", "StateEncoder.for_series", ("calls", "busy_s")),
    SpanSpec("farmbess.baselines", "baseline_decision", ("calls", "busy_s", "p50_us")),
    SpanSpec(
        "farmbess.timeseries", "generate_synthetic",
        ("calls", "busy_s", "rows"), _result_rows,
    ),
    SpanSpec(
        "farmbess.timeseries", "load_csv",
        ("calls", "busy_s", "rows", "bytes"), _read_csv,
    ),
    SpanSpec(
        "farmbess.timeseries", "write_csv",
        ("calls", "busy_s", "rows", "bytes"), _written_csv,
    ),
    SpanSpec("farmbess.timeseries", "HourlySeries.loads", ("calls", "busy_s")),
    SpanSpec("farmbess.timeseries", "HourlySeries.pvs", ("calls", "busy_s")),
    SpanSpec("farmbess.timeseries", "HourlySeries.winds", ("calls", "busy_s")),
    SpanSpec("farmbess.ioutil", "atomic_write_text", ("calls", "busy_s", "bytes"), _text_bytes),
    SpanSpec("farmbess.ioutil", "atomic_write_bytes", ("calls", "busy_s", "bytes"), _data_bytes),
)

# Summary metrics of the traced run itself, besides the per-span ones.
RUN_STATS = (
    ("bench.untraced_pass_s", "s", "lower"),
    ("bench.traced_pass_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.traced_passes", "count", "higher"),
    ("bench.spans_missing", "count", "lower"),
)

STAT_UNITS = {
    "calls": ("count", "lower"),
    "busy_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "p50_us": ("us", "lower"),
    "tail_us": ("us", "lower"),
    "tail_q": ("%", "higher"),
    "td_steps": ("count", "higher"),
    "td_steps_per_s": ("1/s", "higher"),
    "hours": ("count", "higher"),
    "days": ("count", "higher"),
    "rows": ("count", "higher"),
    "bytes": ("B", "lower"),
}

# Candidate tail percentiles, highest first; the reported one is the highest
# with at least ten samples beyond it.
_TAIL_QUANTILES = (99.9, 99.0, 90.0)


def layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = [
        (f"{spec.name}.{stat}", *STAT_UNITS[stat]) for spec in SPANS for stat in spec.stats
    ]
    return names + list(RUN_STATS)


class Tracer:
    """Wraps the SPANS callables and keeps every span in flat arrays."""

    def __init__(self) -> None:
        self.names = [spec.name for spec in SPANS]
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.work: dict[str, dict[str, float]] = {}
        self.missing: list[str] = []
        self.enabled = False
        self._stack: list[int] = []
        self._restore: list[Callable[[], None]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed callable that exists; record the missing ones."""
        self.missing = []
        for spec in SPANS:
            try:
                self._install_one(spec)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(spec.name)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _install_one(self, spec: SpanSpec) -> None:
        module = sys.modules.get(spec.module) or __import__(spec.module, fromlist=["_"])
        owner_name, _, attr = spec.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(spec, raw.__func__))
            else:
                wrapped = self._wrap(spec, raw)
            setattr(owner, attr, wrapped)
            self._restore.append(lambda: setattr(owner, attr, raw))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(spec, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "farmbess" and not mod_name.startswith("farmbess."):
                continue
            for bound_name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, bound_name, wrapper)
                    self._restore.append(
                        lambda m=mod, n=bound_name: setattr(m, n, original)
                    )

    def _wrap(self, spec: SpanSpec, fn: Callable) -> Callable:
        tracer = self
        name_id = self.names.index(spec.name)
        work = spec.work
        totals = self.work.setdefault(spec.name, {})
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.starts)
            tracer.name_ids.append(name_id)
            tracer.parents.append(stack[-1] if stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                tracer.starts[index] = start
                tracer.ends[index] = end
            if work is not None:
                try:
                    counts = work(args, kwargs, result)
                except (OSError, TypeError, AttributeError, IndexError):
                    counts = {}  # a changed signature loses the count, not the call
                for stat, amount in counts.items():
                    totals[stat] = totals.get(stat, 0) + amount
            return result

        return wrapper

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass span statistics keyed `<module>.<callable>.<stat>`.

        Spans of missing callables are left out; percentiles are over single
        calls and are not divided by the pass count.
        """
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        durations = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        covered = np.zeros_like(durations)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], durations[has_parent])
        self_times = durations - covered

        metrics: dict[str, float] = {}
        for spec in SPANS:
            if spec.name in self.missing:
                continue
            mask = ids == self.names.index(spec.name)
            calls = durations[mask]
            busy = float(calls.sum())
            totals = self.work.get(spec.name, {})
            for stat in spec.stats:
                if stat == "calls":
                    value = len(calls) / passes
                elif stat == "busy_s":
                    value = busy / passes
                elif stat == "self_s":
                    value = float(self_times[mask].sum()) / passes
                elif stat == "p50_us":
                    value = float(np.median(calls)) * 1e6 if len(calls) else 0.0
                elif stat in ("tail_us", "tail_q"):
                    q, tail = _tail(calls)
                    value = q if stat == "tail_q" else tail * 1e6
                elif stat == "td_steps_per_s":
                    value = totals.get("td_steps", 0) / busy if busy else 0.0
                else:
                    value = totals.get(stat, 0) / passes
                metrics[f"{spec.name}.{stat}"] = value
        return metrics

    def save(self, path) -> None:
        """Write every recorded span (name, parent index, start, end)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts),
            ends=np.frombuffer(self.ends),
        )


def _tail(samples: np.ndarray) -> tuple[float, float]:
    """(percentile, value) of the highest candidate percentile with at least
    ten samples beyond it; (0, 0) when there are too few samples."""
    n = len(samples)
    for q in _TAIL_QUANTILES:
        if n * (100.0 - q) / 100.0 >= 10:
            return q, float(np.percentile(samples, q))
    return 0.0, 0.0
