"""Rollout metrics, comparisons, and the exact dynamic-programming oracle."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from farmbess import (
    Action,
    BaselineKind,
    BatterySpec,
    ComparisonReport,
    DataValidationError,
    EncodingKind,
    EvalReport,
    HourlySeries,
    Hyperparams,
    PenaltyTable,
    QTable,
    StateEncoder,
    SyntheticProfileConfig,
    TariffSchedule,
    apply_action,
    compare,
    day_return,
    dp_oracle,
    generate_synthetic,
    month_of_hour,
    rollout,
    train,
    transition,
)
from farmbess.agent import greedy_action
from farmbess.encoding import soc_bin, soc_level_energy
from farmbess.evaluation import (
    MonthlyAggregate,
    baseline_controller,
    qtable_controller,
)
from farmbess.timeseries import Tier
from test_timeseries import _CHUNK_EDGE_DAYS

POWERWALL = BatterySpec()


def _day(load, pv, price=0.1):
    """A one-day series; each argument is one value for every hour or a list
    of 24."""
    column = lambda value: value if isinstance(value, list) else [float(value)] * 24
    return HourlySeries(column(load), column(pv), None, column(price))


class _Hour(NamedTuple):
    """One hour of a series, as the reference loops below read it."""

    hour_index: int
    hour_of_day: int
    month: int
    load_kwh: float
    pv_kwh: float
    wind_kwh: float | None
    price_per_kwh: float

    @property
    def renewables_kwh(self) -> float:
        return self.pv_kwh + (0.0 if self.wind_kwh is None else self.wind_kwh)


def _hours(series):
    """The series row by row, with each row's hour of day and month."""
    winds = series.wind.tolist() if series.has_wind else [None] * len(series)
    rows = zip(series.load.tolist(), series.pv.tolist(), winds, series.price.tolist())
    return [_Hour(i, i % 24, month_of_hour(i), *row) for i, row in enumerate(rows)]


def _no_battery():
    return baseline_controller(BaselineKind.NO_BATTERY, POWERWALL, TariffSchedule())


def _report(label, total_import, total_cost, peaks=()):
    monthly = tuple(
        MonthlyAggregate(month=m + 1, import_kwh=0.0, cost=0.0, peak_import_kwh=p)
        for m, p in enumerate(peaks)
    )
    return EvalReport(
        label=label,
        hour_index=(),
        action=(),
        grid_import_kwh=(),
        cost=(),
        soc_after=(),
        total_import_kwh=total_import,
        total_cost=total_cost,
        monthly=monthly,
    )


# ---------------------------------------------------------------- rollout


def test_rollout_self_sufficient_day_zero_cost(tariff):
    report = rollout(_no_battery(), _day(1.0, 4.0), POWERWALL, initial_soc_level=1, label="nb")
    assert report.total_import_kwh == 0.0
    assert report.total_cost == 0.0


def test_rollout_hand_accumulated_cost(tariff):
    day = _day([2.0, 3.0, 1.0] + [0.0] * 21, 0.0)
    report = rollout(_no_battery(), day, POWERWALL, initial_soc_level=1, label="nb")
    assert report.total_cost == pytest.approx(0.6, abs=1e-12)


def test_rollout_totals_match_trace(synthetic_week, tariff):
    report = rollout(
        baseline_controller(BaselineKind.TOU, POWERWALL, tariff),
        synthetic_week, POWERWALL, initial_soc_level=1, label="tou",
    )
    assert len(report.grid_import_kwh) == len(synthetic_week)
    assert report.total_import_kwh == pytest.approx(sum(report.grid_import_kwh), rel=1e-12)
    assert report.total_cost == pytest.approx(sum(report.cost), rel=1e-12)
    for month in report.monthly:
        imports = [
            x for i, x in enumerate(report.grid_import_kwh) if month_of_hour(i) == month.month
        ]
        assert month.peak_import_kwh == max(imports)
        assert month.import_kwh == pytest.approx(sum(imports), rel=1e-12)


def test_rollout_battery_carries_across_days(tariff, synthetic_week):
    report = rollout(
        baseline_controller(BaselineKind.TOU, POWERWALL, tariff),
        synthetic_week, POWERWALL, initial_soc_level=1, label="tou",
    )
    # at 23:00 the TOU controller grid-charges; the next day must start from
    # the carried (non-reset) battery level
    assert report.soc_after[24] != soc_level_energy(POWERWALL, 1)


def test_rollout_greedy_trace_matches_oracle_actions(toy_day, toy_spec, toy_tariff):
    encoder = StateEncoder.for_series(EncodingKind.HOUR_SOC, toy_day, toy_spec)
    table, _ = train(
        toy_day,
        toy_spec,
        toy_tariff,
        PenaltyTable(),
        Hyperparams(total_episodes=60_000, rng_seed=7),
        encoder,
    )
    _, optimal_actions = _reference_dp_oracle(toy_day, toy_spec, toy_tariff, 0, PenaltyTable())
    decide = qtable_controller(table, toy_spec)(toy_day)
    energy = soc_level_energy(toy_spec, 0)
    for i, expected in enumerate(optimal_actions):
        action, cap = decide(i, energy)
        assert action is expected
        flows = apply_action(
            toy_spec, energy, toy_day.load[i], toy_day.renewables[i], action, cap
        )
        energy = flows.next_energy_kwh


def _reference_qtable_controller(q, spec):
    """The Q-table controller as one range-checked `encode` per hour."""
    encoder = q.encoder

    def bind(series):
        hours = _hours(series)

        def decide(i, energy_kwh):
            record = hours[i]
            state = encoder.encode(
                record.hour_of_day,
                soc_bin(spec, energy_kwh),
                record.load_kwh,
                record.pv_kwh,
                record.wind_kwh,
            )
            return greedy_action(q, state), None

        return decide

    return bind


def _reference_rollout(controller, series, spec, initial_soc_level=1):
    """The rollout as a per-hour row list and per-month dictionaries:
    returns the rows (hour index, action, grid import, cost, energy after),
    the two totals and the monthly aggregates."""
    limits = spec.limits
    no_shaping = PenaltyTable.zero()
    energy = soc_level_energy(spec, initial_soc_level)
    trace = []
    total_import = 0.0
    total_cost = 0.0
    monthly_import = {}
    monthly_cost = {}
    monthly_peak = {}
    decide = controller(series)
    for record in _hours(series):
        action, cap = decide(record.hour_index, energy)
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
        trace.append((record.hour_index, action, grid_import, cost, energy))
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
    return trace, total_import, total_cost, monthly


def _bits(values):
    """Floats as hex strings, so -0.0 and 0.0 differ and equality is bitwise."""
    return [float(x).hex() for x in values]


@pytest.fixture(scope="module")
def synthetic_400_days(tariff):
    """Longer than the 365-day cycle, so the rollout's months wrap back to
    January."""
    return generate_synthetic(SyntheticProfileConfig(days=400, rng_seed=13), tariff)


@pytest.fixture(scope="module")
def wind_table_400(synthetic_400_days, tariff):
    encoder = StateEncoder.for_series(
        EncodingKind.HOUR_SOC_LOAD_PV_WIND, synthetic_400_days, POWERWALL
    )
    table, _ = train(
        synthetic_400_days, POWERWALL, tariff, PenaltyTable(),
        Hyperparams(total_episodes=3_000, rng_seed=5), encoder,
    )
    return table


@pytest.mark.parametrize("controller_kind", ["msc", "tou", "qtable"])
def test_rollout_matches_the_reference_bit_for_bit(
    synthetic_400_days, wind_table_400, tariff, controller_kind
):
    series = synthetic_400_days
    if controller_kind == "qtable":
        controller = qtable_controller(wind_table_400, POWERWALL)
        reference = _reference_qtable_controller(wind_table_400, POWERWALL)
    else:
        kind = BaselineKind(controller_kind)
        controller = reference = baseline_controller(kind, POWERWALL, tariff)
    report = rollout(controller, series, POWERWALL, initial_soc_level=3, label="x")
    trace, total_import, total_cost, monthly = _reference_rollout(
        reference, series, POWERWALL, initial_soc_level=3
    )
    assert len(trace) == len(series) == 9600
    hours, actions, imports, costs, energies = zip(*trace)
    assert report.hour_index == hours
    assert report.action == actions
    assert all(type(a) is Action for a in report.action)
    assert len(set(report.action)) > 1  # the policy is not a constant
    assert _bits(report.grid_import_kwh) == _bits(imports)
    assert _bits(report.cost) == _bits(costs)
    assert _bits(report.soc_after) == _bits(energies)
    assert _bits([report.total_import_kwh, report.total_cost]) == _bits(
        [total_import, total_cost]
    )
    assert [m.month for m in report.monthly] == list(range(1, 13))
    assert [m.month for m in report.monthly] == [m.month for m in monthly]
    for got, want in zip(report.monthly, monthly):
        assert _bits([got.import_kwh, got.cost, got.peak_import_kwh]) == _bits(
            [want.import_kwh, want.cost, want.peak_import_kwh]
        )


@pytest.mark.parametrize("kind", list(EncodingKind))
def test_qtable_controller_matches_greedy_on_the_encoded_state(synthetic_week, tariff, kind):
    encoder = StateEncoder.for_series(kind, synthetic_week, POWERWALL)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((encoder.size(), 3))
    # Half the rows hold zeros and ones, so two or three actions tie there.
    tied = rng.random(encoder.size()) < 0.5
    values[tied] = rng.integers(0, 2, (int(tied.sum()), 3))
    table = QTable(values=values, encoder=encoder)
    controller = qtable_controller(table, POWERWALL)
    top = POWERWALL.soc_levels - 1
    energies = [soc_level_energy(POWERWALL, s) for s in range(top + 1)]
    energies += [(s + 0.5) * POWERWALL.capacity_kwh / top for s in range(top)]
    # The same controller on a second series and back: the same hour
    # indices carry other values, so nothing may carry over between calls.
    other = generate_synthetic(SyntheticProfileConfig(days=7, rng_seed=6), tariff)
    seen = set()
    ties = 0
    for series in (synthetic_week, other, synthetic_week):
        decide = controller(series)
        for i, record in enumerate(_hours(series)):
            for energy in energies:
                state = encoder.encode(
                    record.hour_of_day,
                    soc_bin(POWERWALL, energy),
                    record.load_kwh,
                    record.pv_kwh,
                    record.wind_kwh,
                )
                expected = greedy_action(table, state)
                assert decide(i, energy) == (expected, None)
                seen.add(expected)
                row = table.values[state]
                ties += int((row == row.max()).sum() > 1)
    assert seen == set(Action)
    assert ties > 100


# Action values that tie exactly, differ only in the sign of a zero, sit a
# subnormal apart or are infinite.
_TIE_VALUES = (-math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, math.inf)


def test_qtable_controller_breaks_ties_as_greedy_action(tariff):
    series = generate_synthetic(SyntheticProfileConfig(days=2, rng_seed=1), tariff)
    encoder = StateEncoder.for_series(EncodingKind.HOUR_SOC, series, POWERWALL)
    rows = list(itertools.product(_TIE_VALUES, repeat=3))
    size = encoder.size()
    # Every row of values sits in one of the tables at some state.
    for start in range(0, len(rows), size):
        table = QTable(
            values=np.array([rows[(start + k) % len(rows)] for k in range(size)]),
            encoder=encoder,
        )
        decide = qtable_controller(table, POWERWALL)(series)
        for i, record in enumerate(_hours(series)):
            for level in range(POWERWALL.soc_levels):
                state = encoder.encode(
                    record.hour_of_day, level, record.load_kwh, record.pv_kwh, record.wind_kwh
                )
                expected = greedy_action(table, state)
                assert decide(i, soc_level_energy(POWERWALL, level)) == (expected, None)


def test_qtable_controller_keeps_the_range_checks(synthetic_week):
    encoder = StateEncoder.for_series(
        EncodingKind.HOUR_SOC_LOAD_PV_WIND, synthetic_week, POWERWALL
    )
    table = QTable(values=np.zeros((encoder.size(), 3)), encoder=encoder)
    controller = qtable_controller(table, POWERWALL)
    decide = controller(synthetic_week)
    decide(5, 1.0)
    with pytest.raises(ValueError, match="outside"):
        decide(5, POWERWALL.capacity_kwh + 0.5)
    with pytest.raises(ValueError, match="wind_kwh is None"):
        controller(synthetic_week.without_wind())


# ---------------------------------------------------------------- compare


def test_compare_paper_percentage_formula():
    report = compare(_report("base", 100.0, 0.0), _report("cand", 89.36, 0.0))
    assert report.import_reduction_pct == pytest.approx(10.64, abs=1e-12)


def test_compare_identity_is_zero(synthetic_week, tariff):
    report = rollout(
        baseline_controller(BaselineKind.MSC, POWERWALL, tariff),
        synthetic_week, POWERWALL, initial_soc_level=1, label="msc",
    )
    result = compare(report, report)
    assert result.import_reduction_pct == 0.0
    assert result.cost_reduction_pct == 0.0
    assert result.peak_reduction_pct == 0.0


def test_compare_cost_formula():
    report = compare(_report("base", 0.0, 200.0), _report("cand", 0.0, 150.0))
    assert report.cost_reduction_pct == pytest.approx(25.0, abs=1e-12)
    assert report.import_reduction_pct is None  # base import is zero


def test_compare_zero_base_is_undefined_not_zero():
    report = compare(_report("base", 0.0, 0.0), _report("cand", 5.0, 5.0))
    assert report.import_reduction_pct is None
    assert report.cost_reduction_pct is None
    assert report.peak_reduction_pct is None


def test_compare_peak_mean_over_months():
    base = _report("base", 1.0, 1.0, peaks=(10.0, 20.0))
    cand = _report("cand", 1.0, 1.0, peaks=(5.0, 10.0))
    report = compare(base, cand)
    assert report.peak_reduction_pct == pytest.approx(50.0, abs=1e-12)


def test_compare_peak_adds_the_month_ratios_left_to_right():
    # sum() of floats is compensated from Python 3.12 on and would give 20.0;
    # the report keeps the plain left-to-right sum on every version.
    base = _report("base", 1.0, 1.0, peaks=(10.0, 10.0, 10.0))
    cand = _report("cand", 1.0, 1.0, peaks=(9.0, 8.0, 7.0))
    report = compare(base, cand)
    assert report.peak_reduction_pct == ((0.1 + 0.2) + 0.3) / 3 * 100.0
    assert report.peak_reduction_pct == 20.000000000000004


def test_compare_antisymmetric_sign():
    a = _report("a", 100.0, 100.0)
    b = _report("b", 80.0, 80.0)
    assert compare(a, b).import_reduction_pct > 0
    assert compare(b, a).import_reduction_pct < 0


def test_comparison_report_json_round_trip():
    report = ComparisonReport("a", "b", 1.5, None, -2.0)
    data = json.loads(json.dumps(report.to_json_dict()))
    assert data["cost_reduction_pct"] is None
    assert data["import_reduction_pct"] == 1.5


# ---------------------------------------------------------------- dp oracle


def test_oracle_self_sufficient_day_is_zero(tariff):
    best, actions = dp_oracle(_day(1.0, 4.0), POWERWALL, tariff, initial_soc_level=5,
                              penalty_mode="cost-only")
    assert best == 0.0
    # Charging at 5 kW draws the 2 kWh the 3 kWh surplus lacks from the grid;
    # discharge and idle both cost nothing, and the tie goes to the lower
    # action index.
    assert actions == [Action.DISCHARGE] * 24


def test_oracle_single_peak_hour_prefers_discharge(tariff):
    # A full battery and a day whose only load is at 17:00: no hour before it
    # can import anything, so the battery is still full at 17:00.
    day = _day([5.0 if h == 17 else 0.0 for h in range(24)], 0.0, price=0.2)
    best, actions = dp_oracle(day, POWERWALL, tariff, initial_soc_level=10,
                              penalty_mode="cost-only")
    assert actions[17] is Action.DISCHARGE
    assert best == 0.0
    # exhaustive check over the three alternatives at 17:00
    for action in Action:
        flows = apply_action(POWERWALL, 13.5, day.load[17], day.renewables[17], action)
        assert -(flows.grid_import_kwh * day.price[17]) <= best


@pytest.mark.parametrize("level", [-1, POWERWALL.soc_levels])
def test_oracle_rejects_level_off_the_lattice(tariff, level):
    day = _day(5.0, 0.0)
    with pytest.raises(ValueError, match="soc level"):
        dp_oracle(day, POWERWALL, tariff, level)
    with pytest.raises(ValueError, match="soc level"):
        day_return(_no_battery(), day, POWERWALL, tariff, level)


def test_oracle_and_day_return_refuse_the_shaped_mode(tariff):
    day = _day(5.0, 0.0)
    for call in (
        lambda: dp_oracle(day, POWERWALL, tariff, 1, penalty_mode="shaped"),
        lambda: day_return(_no_battery(), day, POWERWALL, tariff, 1, penalty_mode="shaped"),
    ):
        with pytest.raises(ValueError, match="^penalty_mode must be 'cost-only', got 'shaped'$"):
            call()


def test_oracle_and_day_return_reject_an_empty_day(synthetic_week):
    # Both take a day as a one-day series, and no series is empty.
    with pytest.raises(DataValidationError, match="positive multiple of 24, got 0"):
        HourlySeries(load=[], pv=[], wind=None, price=[])
    with pytest.raises(ValueError, match="day_index must be in 0..6, got 7"):
        synthetic_week.day(7)


def _reference_dp_oracle(day, spec, tariff, initial_soc_level, penalties=PenaltyTable.zero()):
    """The oracle as a scalar backward pass: `transition` and `soc_bin` for
    each (hour, level, action), ties going to the lowest action index. The
    penalty table defaults to the zero table, the oracle's cost-only
    reward."""
    limits = spec.limits
    energies = [soc_level_energy(spec, level) for level in range(spec.soc_levels)]

    # value[level] holds V_{h+1}; plan[h][level] is the (action, next level)
    # that attains V_h, ties going to the lowest action index
    value = [0.0] * len(energies)
    plan = []
    for record in reversed(_hours(day)):
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
                    penalties,
                )
                next_level = soc_bin(spec, out[5])
                candidate = out[8] + value[next_level]
                if best is None or candidate > best:
                    best = candidate
                    choice = (action, next_level)
            new_value.append(best)
            choices.append(choice)
        value = new_value
        plan.append(choices)
    plan.reverse()

    actions = []
    level = initial_soc_level
    for choices in plan:
        action, level = choices[level]
        actions.append(Action(action))
    return value[initial_soc_level], actions


@pytest.fixture(scope="module")
def synthetic_quarter(tariff):
    return generate_synthetic(SyntheticProfileConfig(days=91, rng_seed=3), tariff)


# The two quarter tests pass the one mode the oracle accepts, as the
# benchmark does.
@pytest.mark.parametrize("mode", ["cost-only"])
def test_oracle_matches_the_scalar_reference_on_a_quarter(synthetic_quarter, tariff, mode):
    for d in range(synthetic_quarter.n_days):
        day = synthetic_quarter.day(d)
        for level in (0, 1, 5, 10):
            args = (day, POWERWALL, tariff, level)
            assert dp_oracle(*args, mode) == _reference_dp_oracle(*args)


# sha256 over the quarter's days of each day's oracle value (float.hex) and
# plan, from the default spec at level 1: any change to the oracle's
# arithmetic, its tie-breaking or its plan moves it.
ORACLE_QUARTER_DIGEST = "4217ee429eba3d9503c92b3f6b058831a8fa3c6770eb0f8326aedd1414763d5a"


@pytest.mark.parametrize("mode", ["cost-only"])
def test_oracle_quarter_is_pinned(synthetic_quarter, tariff, mode):
    digest = hashlib.sha256()
    for d in range(synthetic_quarter.n_days):
        value, plan = dp_oracle(synthetic_quarter.day(d), POWERWALL, tariff, 1, mode)
        digest.update(f"{value.hex()} {' '.join(a.name for a in plan)}\n".encode())
    assert digest.hexdigest() == ORACLE_QUARTER_DIGEST


def test_cost_only_day_return_is_minus_the_rollout_cost(synthetic_quarter, tariff):
    """A cost-only day return is minus the total cost of the same day's
    rollout, for the rule-based controllers and a trained table, on every day
    of a quarter and from several charge levels. Compared with `==`: a day
    with no cost gives 0.0 against -0.0."""
    encoder = StateEncoder.for_series(EncodingKind.HOUR_SOC_LOAD_PV, synthetic_quarter, POWERWALL)
    table, _ = train(
        synthetic_quarter, POWERWALL, tariff, PenaltyTable(),
        Hyperparams(total_episodes=2_000, rng_seed=11), encoder,
    )
    controllers = [baseline_controller(kind, POWERWALL, tariff) for kind in BaselineKind]
    controllers.append(qtable_controller(table, POWERWALL))
    for d in range(synthetic_quarter.n_days):
        day = synthetic_quarter.day(d)
        for controller in controllers:
            for level in (0, 1, 5, 10):
                cost = rollout(controller, day, POWERWALL, initial_soc_level=level).total_cost
                assert day_return(controller, day, POWERWALL, tariff, level, "cost-only") == -cost


def _enumerate_best(day, spec, tariff, penalties, level):
    """Independent forward enumeration over action sequences with
    memoization on (hour, charge level)."""

    hours = _hours(day)

    @functools.lru_cache(maxsize=None)
    def best_from(h, lvl):
        if h == len(hours):
            return 0.0
        record = hours[h]
        best = None
        for action in range(3):
            *_, next_energy, _, _, reward = transition(
                spec.limits, soc_level_energy(spec, lvl), record.load_kwh,
                record.renewables_kwh, record.price_per_kwh,
                tariff.tier_of(record.hour_of_day), action, None, penalties,
            )
            value = reward + best_from(h + 1, soc_bin(spec, next_energy))
            if best is None or value > best:
                best = value
        return best

    return best_from(0, level)


def test_oracle_matches_brute_force_on_toy_day(toy_day, toy_spec, toy_tariff):
    for level in (0, 3, 10):
        best, _ = dp_oracle(toy_day, toy_spec, toy_tariff, initial_soc_level=level)
        expected = _enumerate_best(toy_day, toy_spec, toy_tariff, PenaltyTable.zero(), level)
        assert best == pytest.approx(expected, abs=1e-12)


def test_oracle_dominates_controllers_and_random_policies(toy_day, toy_spec, toy_tariff):
    best, _ = dp_oracle(toy_day, toy_spec, toy_tariff, initial_soc_level=2)
    for kind in BaselineKind:
        controller = baseline_controller(kind, toy_spec, toy_tariff)
        value = day_return(controller, toy_day, toy_spec, toy_tariff, initial_soc_level=2)
        assert value <= best + 1e-9
    rng = random.Random(1)
    for _ in range(50):
        controller = lambda series: lambda i, energy: (Action(rng.randrange(3)), None)
        value = day_return(controller, toy_day, toy_spec, toy_tariff, initial_soc_level=2)
        assert value <= best + 1e-9


def test_rollout_report_files(tmp_path, synthetic_week, tariff):
    report = rollout(
        baseline_controller(BaselineKind.MSC, POWERWALL, tariff),
        synthetic_week, POWERWALL, initial_soc_level=1, label="msc",
    )
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    report.write_csv(csv_path)
    report.write_json(json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "hour_index,action,grid_import_kwh,cost,soc_after"
    assert len(lines) == len(synthetic_week) + 1
    data = json.loads(json_path.read_text())
    assert data["label"] == "msc"
    assert data["total_cost"] == pytest.approx(report.total_cost)


def _reference_trace_text(report) -> str:
    """The text the row-joining `EvalReport.write_csv` wrote."""
    lines = ["hour_index,action,grid_import_kwh,cost,soc_after"]
    columns = (report.hour_index, report.action, report.grid_import_kwh, report.cost,
               report.soc_after)
    lines.extend(
        f"{i},{action.name.lower()},{grid!r},{cost!r},{soc!r}"
        for i, action, grid, cost, soc in zip(*columns)
    )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("days", _CHUNK_EDGE_DAYS)
def test_rollout_trace_bytes_hold_across_chunks(tmp_path, tariff, days):
    """Rows are written a chunk at a time; a trace either side of a chunk
    edge, and one spanning three chunks, writes the row writer's bytes."""
    series = generate_synthetic(SyntheticProfileConfig(days=days, rng_seed=days), tariff)
    report = rollout(
        baseline_controller(BaselineKind.MSC, POWERWALL, tariff), series, POWERWALL, label="msc"
    )
    path = tmp_path / "trace.csv"
    report.write_csv(path)
    assert path.read_bytes() == _reference_trace_text(report).encode("utf-8")


def test_rollout_trace_refuses_a_non_finite_cost(tmp_path, tariff):
    """A price of 1e308 on a load of 10 kWh costs inf: the trace is refused
    in one line naming the file, where it once held `0,idle,10.0,inf,1.35`,
    and no file is left."""
    report = rollout(
        baseline_controller(BaselineKind.NO_BATTERY, POWERWALL, tariff),
        _day(10.0, 0.0, price=1e308), POWERWALL,
    )
    assert report.cost[0] == math.inf
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError) as info:
        report.write_csv(path)
    assert str(info.value) == f"{path}: not written: it would hold a non-finite number"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- oracle properties


@st.composite
def lattice_days(draw, charge_steps=None):
    """A battery whose charge lattice, rates and reserve are whole multiples
    of a power-of-two unit, and a 24-hour day whose load and PV are too: every
    trajectory then stays exactly on the lattice the oracle searches.

    `charge_steps` fixes the charge rate in lattice steps (drawn otherwise).
    """
    top = draw(st.sampled_from([2, 4, 8]))
    unit = draw(st.sampled_from([0.5, 1.0, 2.0]))
    spec = BatterySpec(
        capacity_kwh=top * unit,
        charge_rate_kw=(charge_steps or draw(st.integers(1, top))) * unit,
        discharge_rate_kw=draw(st.integers(1, top)) * unit,
        reserve_fraction=draw(st.integers(0, top - 1)) / top,
        soc_levels=top + 1,
    )
    hourly = st.lists(st.integers(0, 2 * top), min_size=24, max_size=24)
    tariff = TariffSchedule()
    series = HourlySeries(
        load=[x * unit for x in draw(hourly)],
        pv=[x * unit for x in draw(hourly)],
        wind=None,
        price=[tariff.price_at(h) for h in range(24)],
    )
    return spec, tariff, series.day(0), draw(st.integers(0, top))


@st.composite
def off_lattice_days(draw):
    """A battery with random limits and charge levels and a 24-hour day of
    random load, PV and wind: trajectories leave the lattice and are re-binned."""
    floats = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    spec = BatterySpec(
        capacity_kwh=draw(floats(1.0, 50.0)),
        charge_rate_kw=draw(floats(0.5, 20.0)),
        discharge_rate_kw=draw(floats(0.5, 20.0)),
        reserve_fraction=draw(st.just(0.0) | floats(0.0, 0.5)),
        soc_levels=draw(st.integers(2, 17)),
    )
    hourly = st.lists(floats(0.0, 20.0), min_size=24, max_size=24)
    tariff = TariffSchedule()
    series = HourlySeries(
        load=draw(hourly),
        pv=draw(hourly),
        wind=draw(st.none() | hourly),
        price=[tariff.price_at(h) for h in range(24)],
    )
    return spec, tariff, series.day(0), draw(st.integers(0, spec.soc_levels - 1))


@settings(max_examples=60, deadline=None)
@given(case=lattice_days())
def test_oracle_plan_replays_to_its_return(case):
    spec, tariff, day, level = case
    best, actions = dp_oracle(day, spec, tariff, level)
    replay = day_return(lambda series: lambda i, energy: (actions[i], None), day, spec,
                        tariff, level)
    assert replay == pytest.approx(best, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(case=lattice_days(charge_steps=1), seed=st.integers(0, 2**16))
def test_no_controller_beats_the_oracle(case, seed):
    # The oracle charges at the full rate only. MSC and TOU may charge from
    # the renewable surplus alone, an action outside the oracle's set; at a
    # one-step charge rate that surplus cap never binds, so the bound holds.
    spec, tariff, day, level = case
    best, _ = dp_oracle(day, spec, tariff, level)
    rng = random.Random(seed)
    controllers = [lambda series: lambda i, energy: (Action(rng.randrange(3)), None)]
    controllers += [baseline_controller(kind, spec, tariff) for kind in BaselineKind]
    for controller in controllers:
        value = day_return(controller, day, spec, tariff, level)
        assert value <= best + 1e-9


@settings(max_examples=60, deadline=None)
@given(case=lattice_days() | off_lattice_days())
def test_oracle_matches_the_scalar_reference(case):
    spec, tariff, day, level = case
    args = (day, spec, tariff, level)
    assert dp_oracle(*args) == _reference_dp_oracle(*args)
