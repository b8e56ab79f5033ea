"""Controller evaluation: full-series rollouts, the import/cost/peak metrics,
controller comparisons, the exact finite-horizon oracle, and the state-space
ablation harness.

Rollouts step the battery with the shared kernel `battery.transition`, and
`dp_oracle` with its array form `battery.lattice_transition`, reading the
series' columns by hour index; a day is a one-day series
(`HourlySeries.day`). Rollouts, `day_return` and the oracle all score grid
cost only, the figure the controllers are compared on: `day_return` is minus
its rollout's total cost.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .agent import _ACTIONS, Hyperparams, QTable, train
from .baselines import BaselineKind, baseline_decision
from .battery import _NO_SHAPING, Action, BatterySpec, PenaltyTable, lattice_transition, transition
from .encoding import StateEncoder, soc_bin, soc_level_energy
from .ioutil import atomic_write_json, atomic_write_rows
from .timeseries import HourlySeries, TariffSchedule, Tier, month_of_hour

# A controller binds to a series: controller(series) returns a decide(i,
# stored energy in kWh) that gives the series' hour i its (action, optional
# charge cap).
Decide = Callable[[int, float], "tuple[Action, float | None]"]
Controller = Callable[[HourlySeries], Decide]

# Greedy action indices to actions, so one fancy index maps a whole array.
_ACTION_OBJECTS = np.array(_ACTIONS, dtype=object)


@dataclass(frozen=True)
class MonthlyAggregate:
    month: int
    import_kwh: float
    cost: float
    peak_import_kwh: float


@dataclass(frozen=True)
class EvalReport:
    """Per-hour columns plus aggregates for one controller on one series.

    Entry i of each column belongs to the series' i-th hour: its index, the
    controller's action, the grid import and cost, and the stored energy
    after the hour.
    """

    label: str
    hour_index: tuple[int, ...]
    action: tuple[Action, ...]
    grid_import_kwh: tuple[float, ...]
    cost: tuple[float, ...]
    soc_after: tuple[float, ...]
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
        atomic_write_json(path, self.to_json_dict())

    def write_csv(self, path: str | Path) -> None:
        actions = [action.name.lower() for action in self.action]
        atomic_write_rows(
            path, "hour_index,action,grid_import_kwh,cost,soc_after", "{},{},{!r},{!r},{!r}",
            (self.hour_index, actions, self.grid_import_kwh, self.cost, self.soc_after),
        )


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

    def bind(series: HourlySeries) -> Decide:
        loads = series.load.tolist()
        renewables = series.renewables.tolist()
        tiers = tariff.tiers * series.n_days

        def decide(i: int, energy_kwh: float):
            return baseline_decision(kind, loads[i], renewables[i], tiers[i], energy_kwh, spec)

        return decide

    return bind


def qtable_controller(q: QTable, spec: BatterySpec) -> Controller:
    """Greedy policy of a trained table as a rollout controller.

    Bound to a series, it takes the greedy action of every state in
    `StateEncoder.reached` in one array pass, so deciding an hour is a lookup
    at its context and `soc_bin` of the stored energy. `argmax` picks the
    first maximum, which on a table's finite values is `greedy_action`'s pick.
    """
    if q.encoder.soc_levels != spec.soc_levels:
        raise ValueError(
            "q-table charge levels do not match the battery spec "
            f"({q.encoder.soc_levels} vs {spec.soc_levels})"
        )

    def bind(series: HourlySeries) -> Decide:
        states, contexts = q.encoder.reached(series)
        greedy = _ACTION_OBJECTS[q.values[states].argmax(axis=2)].tolist()
        picks = [greedy[k] for k in contexts]

        def decide(i: int, energy_kwh: float):
            return picks[i][soc_bin(spec, energy_kwh)], None

        return decide

    return bind


# `penalty_mode` and `day_return`'s `tariff` change nothing. They stay only
# because bench/run.py passes them (ROADMAP item 2 deletes them).
def _check_penalty_mode(penalty_mode: str) -> None:
    if penalty_mode != "cost-only":
        raise ValueError(f"penalty_mode must be 'cost-only', got {penalty_mode!r}")


def rollout(
    controller: Controller,
    series: HourlySeries,
    spec: BatterySpec,
    initial_soc_level: int = 1,
    label: str = "controller",
) -> EvalReport:
    """Deterministic sequential pass over every hour of the series, scored
    on grid cost only (no shaping, so the tariff tier plays no part).

    Battery state carries across day boundaries. Totals and monthly
    aggregates are running sums and maxima over the hours, in hour order.
    """
    limits = spec.limits
    standard = Tier.STANDARD
    decide = controller(series)
    loads = series.load.tolist()
    renewables = series.renewables.tolist()
    prices = series.price.tolist()
    energy = soc_level_energy(spec, initial_soc_level)
    actions: list[Action] = []
    imports: list[float] = []
    costs: list[float] = []
    energies: list[float] = []
    total_import = 0.0
    total_cost = 0.0
    # A day's month is its first hour's. Each day resumes its month's stored
    # sums, so every month is summed in hour order, as one running sum per
    # month would be, also when a series longer than a year wraps to January.
    months: dict[int, tuple[float, float, float]] = {}
    for start in range(0, len(series), 24):
        month = month_of_hour(start)
        month_import, month_cost, month_peak = months.get(month, (0.0, 0.0, 0.0))
        for i in range(start, start + 24):
            action, cap = decide(i, energy)
            _, _, _, grid_import, _, energy, cost, _, _ = transition(
                limits, energy, loads[i], renewables[i], prices[i], standard, action, cap,
                _NO_SHAPING,
            )
            actions.append(action)
            imports.append(grid_import)
            costs.append(cost)
            energies.append(energy)
            total_import += grid_import
            total_cost += cost
            month_import += grid_import
            month_cost += cost
            if grid_import > month_peak:
                month_peak = grid_import
        months[month] = (month_import, month_cost, month_peak)
    monthly = tuple(MonthlyAggregate(m, *months[m]) for m in sorted(months))
    return EvalReport(
        label=label,
        hour_index=tuple(range(len(series))),
        action=tuple(actions),
        grid_import_kwh=tuple(imports),
        cost=tuple(costs),
        soc_after=tuple(energies),
        total_import_kwh=total_import,
        total_cost=total_cost,
        monthly=monthly,
    )


def day_return(
    controller: Controller,
    day: HourlySeries,
    spec: BatterySpec,
    tariff: TariffSchedule,
    initial_soc_level: int,
    penalty_mode: str = "cost-only",
) -> float:
    """Episode return of a controller over a day (a one-day series, or any
    series read as consecutive days) under the reward the oracle scores:
    minus the grid cost of the day's rollout."""
    _check_penalty_mode(penalty_mode)
    return -rollout(controller, day, spec, initial_soc_level).total_cost


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
    # Added left to right: sum() of floats rounds differently from Python
    # 3.12 on, and the reported percentage must not depend on the version.
    peak = None
    if ratios:
        total = 0.0
        for ratio in ratios:
            total += ratio
        peak = total / len(ratios) * 100.0
    return ComparisonReport(
        base_label=base.label,
        candidate_label=candidate.label,
        import_reduction_pct=reduction(base.total_import_kwh, candidate.total_import_kwh),
        cost_reduction_pct=reduction(base.total_cost, candidate.total_cost),
        peak_reduction_pct=peak,
    )


def dp_oracle(
    day: HourlySeries,
    spec: BatterySpec,
    tariff: TariffSchedule,
    initial_soc_level: int,
    penalty_mode: str = "cost-only",
) -> tuple[float, list[Action]]:
    """Exact backward induction over the day's (hour, charge level) lattice.

    States take the discrete levels' energies (the same lattice training
    episodes start from); transitions and rewards use the exact dispatch
    physics, with the continuous next energy re-binned to a level. The whole
    (hour, level, action) table comes from one array pass
    (`lattice_transition`) before the backward pass over the hours, scored
    on grid cost alone. Returns the maximal episode return (minus the least
    cost) and one optimal action sequence, ties broken by action order.

    The oracle charges at the full rate only, so its return bounds, from
    above, every controller that stays on the lattice and never caps a
    charge. MSC and TOU charge under a surplus cap; they are covered only
    when the charge rate is one lattice step, where the cap cannot bind.
    """
    _check_penalty_mode(penalty_mode)
    soc_level_energy(spec, initial_soc_level)  # rejects a level off the lattice
    next_level, returns = lattice_transition(
        spec, day.load, day.renewables, day.price, tariff.tiers * day.n_days, _NO_SHAPING
    )

    # Backward over the hours: value holds V_{h+1}; the hour's returns[level,
    # action] gain V_{h+1} on top of the reward, and the hour's row of
    # choices holds the action attaining V_h at each level, ties going to the
    # lowest action index (argmax takes the first maximum). An hour's returns
    # are contiguous, so the chosen entries sit at 3 * level + action of its
    # flat view.
    row_starts = np.arange(0, 3 * spec.soc_levels, 3)
    value = np.zeros(spec.soc_levels)
    choices = []
    for hour_levels, hour_returns in zip(next_level[::-1], returns[::-1]):
        hour_returns += value[hour_levels]
        best = hour_returns.argmax(axis=1)
        value = hour_returns.ravel()[row_starts + best]
        choices.append(best.tolist())
    choices.reverse()

    actions: list[Action] = []
    level = initial_soc_level
    for hour_choices, next_levels in zip(choices, next_level.tolist()):
        action = hour_choices[level]
        actions.append(_ACTIONS[action])
        level = next_levels[level][action]
    return float(value[initial_soc_level]), actions


def ablation_run(
    series: HourlySeries,
    spec: BatterySpec,
    tariff: TariffSchedule,
    encoders: Sequence[StateEncoder],
    hyperparams: Hyperparams,
    penalties: PenaltyTable,
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
        table, _ = train(
            series, spec, tariff, penalties, hyperparams=hyperparams, encoder=encoder
        )
        report = rollout(
            qtable_controller(table, spec),
            series,
            spec,
            initial_soc_level=initial_soc_level,
            label=f"qlearning:{encoder.kind.value}",
        )
        rows.append(compare(base, report))
    return rows
