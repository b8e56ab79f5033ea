"""Controller evaluation: full-series rollouts, the import/cost/peak metrics,
controller comparisons, the exact finite-horizon oracle, and the state-space
ablation harness.

Rollouts, `day_return` and `dp_oracle` step the battery with the shared
kernel `battery.transition`. Rollouts score grid cost only; `day_return` and
the oracle score the shaped or the cost-only reward (`penalty_mode`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

from .agent import Hyperparams, QTable, greedy_action, train
from .baselines import BaselineKind, baseline_decision
from .battery import Action, BatteryEnv, BatterySpec, PenaltyTable, transition
from .encoding import StateEncoder, soc_bin, soc_level_energy
from .ioutil import atomic_write_text
from .timeseries import HourlyRecord, HourlySeries, TariffSchedule, Tier

# A controller maps (record, stored energy in kWh) to (action, optional
# charge cap).
Controller = Callable[[HourlyRecord, float], "tuple[Action, float | None]"]

PENALTY_MODES = ("shaped", "cost-only")


@dataclass(frozen=True)
class TraceRow:
    hour_index: int
    action: Action
    grid_import_kwh: float
    cost: float
    soc_after: float


@dataclass(frozen=True)
class MonthlyAggregate:
    month: int
    import_kwh: float
    cost: float
    peak_import_kwh: float


@dataclass(frozen=True)
class EvalReport:
    """Per-hour trace plus aggregates for one controller on one series."""

    label: str
    trace: tuple[TraceRow, ...]
    total_import_kwh: float
    total_cost: float
    monthly: tuple[MonthlyAggregate, ...]

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "total_import_kwh": self.total_import_kwh,
            "total_cost": self.total_cost,
            "monthly": [asdict(m) for m in self.monthly],
        }

    def write_json(self, path: str | Path) -> None:
        atomic_write_text(
            path, json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"
        )

    def write_csv(self, path: str | Path) -> None:
        lines = ["hour_index,action,grid_import_kwh,cost,soc_after"]
        for row in self.trace:
            lines.append(
                f"{row.hour_index},{row.action.name.lower()},"
                f"{row.grid_import_kwh!r},{row.cost!r},{row.soc_after!r}"
            )
        atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class ComparisonReport:
    """Relative reductions of a candidate controller against a base one.

    A reduction is None (null in JSON) when the base total is zero and the
    percentage is undefined.
    """

    base_label: str
    candidate_label: str
    import_reduction_pct: float | None
    cost_reduction_pct: float | None
    peak_reduction_pct: float | None

    def to_json_dict(self) -> dict:
        return {
            "base": self.base_label,
            "candidate": self.candidate_label,
            "import_reduction_pct": self.import_reduction_pct,
            "cost_reduction_pct": self.cost_reduction_pct,
            "peak_reduction_pct": self.peak_reduction_pct,
        }


def baseline_controller(
    kind: BaselineKind, spec: BatterySpec, tariff: TariffSchedule
) -> Controller:
    """Wrap a rule-based policy as a rollout controller."""

    def decide(record: HourlyRecord, energy_kwh: float):
        return baseline_decision(kind, record, energy_kwh, spec, tariff)

    return decide


def qtable_controller(q: QTable, spec: BatterySpec) -> Controller:
    """Greedy policy of a trained table as a rollout controller."""
    if q.encoder.soc_levels != spec.soc_levels:
        raise ValueError(
            "q-table charge levels do not match the battery spec "
            f"({q.encoder.soc_levels} vs {spec.soc_levels})"
        )
    encoder = q.encoder

    def decide(record: HourlyRecord, energy_kwh: float):
        state = encoder.encode(
            record.hour_of_day,
            soc_bin(spec, energy_kwh),
            record.load_kwh,
            record.pv_kwh,
            record.wind_kwh,
        )
        return greedy_action(q, state), None

    return decide


def _resolve_penalties(penalty_mode: str, penalties: PenaltyTable | None) -> PenaltyTable:
    if penalty_mode not in PENALTY_MODES:
        raise ValueError(f"penalty_mode must be one of {PENALTY_MODES}, got {penalty_mode!r}")
    if penalty_mode == "cost-only":
        return PenaltyTable.zero()
    return penalties if penalties is not None else PenaltyTable()


def rollout(
    controller: Controller,
    series: HourlySeries | Sequence[HourlyRecord],
    spec: BatterySpec,
    initial_soc_level: int = 1,
    label: str = "controller",
) -> EvalReport:
    """Deterministic sequential pass over every hour of the series, scored
    on grid cost only (no shaping, so the tariff tier plays no part).

    Battery state carries across day boundaries. Totals and monthly
    aggregates are exact sums/maxima over the trace.
    """
    limits = spec.limits
    no_shaping = PenaltyTable.zero()
    energy = soc_level_energy(spec, initial_soc_level)
    trace: list[TraceRow] = []
    total_import = 0.0
    total_cost = 0.0
    monthly_import: dict[int, float] = {}
    monthly_cost: dict[int, float] = {}
    monthly_peak: dict[int, float] = {}
    for record in series:
        action, cap = controller(record, energy)
        _, _, _, grid_import, _, energy, cost, _, _ = transition(
            limits,
            energy,
            record.load_kwh,
            record.renewables_kwh,
            record.price_per_kwh,
            Tier.STANDARD,
            action,
            cap,
            no_shaping,
        )
        trace.append(TraceRow(record.hour_index, action, grid_import, cost, energy))
        total_import += grid_import
        total_cost += cost
        m = record.month
        monthly_import[m] = monthly_import.get(m, 0.0) + grid_import
        monthly_cost[m] = monthly_cost.get(m, 0.0) + cost
        monthly_peak[m] = max(monthly_peak.get(m, 0.0), grid_import)
    monthly = tuple(
        MonthlyAggregate(
            month=m,
            import_kwh=monthly_import[m],
            cost=monthly_cost[m],
            peak_import_kwh=monthly_peak[m],
        )
        for m in sorted(monthly_import)
    )
    return EvalReport(
        label=label,
        trace=tuple(trace),
        total_import_kwh=total_import,
        total_cost=total_cost,
        monthly=monthly,
    )


def day_return(
    controller: Controller,
    day: Sequence[HourlyRecord],
    spec: BatterySpec,
    tariff: TariffSchedule,
    initial_soc_level: int,
    penalty_mode: str = "shaped",
    penalties: PenaltyTable | None = None,
    discount: float | None = None,
) -> float:
    """Episode return of a controller over one day, under the same reward the
    oracle scores (shaped or cost-only, optionally discounted)."""
    table = _resolve_penalties(penalty_mode, penalties)
    limits = spec.limits
    energy = soc_level_energy(spec, initial_soc_level)
    total = 0.0
    weight = 1.0
    for record in day:
        action, cap = controller(record, energy)
        _, _, _, _, _, energy, _, _, reward = transition(
            limits,
            energy,
            record.load_kwh,
            record.renewables_kwh,
            record.price_per_kwh,
            tariff.tier_of(record.hour_of_day),
            action,
            cap,
            table,
        )
        total += weight * reward
        if discount is not None:
            weight *= discount
    return total


def compare(base: EvalReport, candidate: EvalReport) -> ComparisonReport:
    """Relative import/cost/peak reductions of candidate vs base.

    Peak reduction is the mean over months of the relative reduction in the
    month's maximum hourly import, taken over months whose base peak is
    nonzero.
    """

    def reduction(base_total: float, cand_total: float) -> float | None:
        if base_total == 0:
            return None
        return (base_total - cand_total) / base_total * 100.0

    base_peaks = {m.month: m.peak_import_kwh for m in base.monthly}
    cand_peaks = {m.month: m.peak_import_kwh for m in candidate.monthly}
    shared = sorted(set(base_peaks) & set(cand_peaks))
    ratios = [
        (base_peaks[m] - cand_peaks[m]) / base_peaks[m]
        for m in shared
        if base_peaks[m] != 0
    ]
    peak = sum(ratios) / len(ratios) * 100.0 if ratios else None
    return ComparisonReport(
        base_label=base.label,
        candidate_label=candidate.label,
        import_reduction_pct=reduction(base.total_import_kwh, candidate.total_import_kwh),
        cost_reduction_pct=reduction(base.total_cost, candidate.total_cost),
        peak_reduction_pct=peak,
    )


def dp_oracle(
    day: Sequence[HourlyRecord],
    spec: BatterySpec,
    tariff: TariffSchedule,
    initial_soc_level: int,
    penalty_mode: str = "shaped",
    penalties: PenaltyTable | None = None,
    discount: float | None = None,
) -> tuple[float, list[Action]]:
    """Exact backward induction over the day's (hour, charge level) lattice.

    States take the discrete levels' energies (the same lattice training
    episodes start from); transitions and rewards use the exact dispatch
    physics, with the continuous next energy re-binned to a level. Returns
    the maximal episode return (undiscounted unless a discount is given) and
    one optimal action sequence, ties broken by action order.

    The oracle charges at the full rate only, so its return bounds, from
    above, every controller that stays on the lattice and never caps a
    charge. MSC and TOU charge under a surplus cap; they are covered only
    when the charge rate is one lattice step, where the cap cannot bind.
    """
    table = _resolve_penalties(penalty_mode, penalties)
    soc_level_energy(spec, initial_soc_level)  # rejects a level off the lattice
    if len(day) == 0:
        raise ValueError("day must contain at least one record")
    limits = spec.limits
    gamma = 1.0 if discount is None else discount
    energies = [soc_level_energy(spec, level) for level in range(spec.soc_levels)]

    # value[level] holds V_{h+1}; plan[h][level] is the (action, next level)
    # that attains V_h, ties going to the lowest action index
    value = [0.0] * len(energies)
    plan: list[list[tuple[int, int]]] = []
    for record in reversed(day):
        tier = tariff.tier_of(record.hour_of_day)
        new_value = []
        choices = []
        for energy in energies:
            best = None
            for action in range(3):
                out = transition(
                    limits,
                    energy,
                    record.load_kwh,
                    record.renewables_kwh,
                    record.price_per_kwh,
                    tier,
                    action,
                    None,
                    table,
                )
                next_level = soc_bin(spec, out[5])
                candidate = out[8] + gamma * value[next_level]
                if best is None or candidate > best:
                    best = candidate
                    choice = (action, next_level)
            new_value.append(best)
            choices.append(choice)
        value = new_value
        plan.append(choices)
    plan.reverse()

    actions: list[Action] = []
    level = initial_soc_level
    for choices in plan:
        action, level = choices[level]
        actions.append(Action(action))
    return value[initial_soc_level], actions


def ablation_run(
    series: HourlySeries,
    spec: BatterySpec,
    tariff: TariffSchedule,
    encoders: Sequence[StateEncoder],
    hyperparams: Hyperparams,
    penalties: PenaltyTable | None = None,
    initial_soc_level: int = 1,
) -> list[ComparisonReport]:
    """Train one agent per state encoder (state-space design) with identical
    seeds and report each one's import/cost/peak reductions against the
    no-battery rollout."""
    base = rollout(
        baseline_controller(BaselineKind.NO_BATTERY, spec, tariff),
        series,
        spec,
        initial_soc_level=initial_soc_level,
        label="baseline:no-battery",
    )
    rows = []
    for encoder in encoders:
        env = BatteryEnv(series, spec, tariff, penalties)
        table, _ = train(env, hyperparams, encoder)
        report = rollout(
            qtable_controller(table, spec),
            series,
            spec,
            initial_soc_level=initial_soc_level,
            label=f"qlearning:{encoder.kind.value}",
        )
        rows.append(compare(base, report))
    return rows
