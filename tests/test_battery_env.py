"""Battery physics, the penalty-shaped reward, and the episode environment."""

from __future__ import annotations

import random

import pytest

from farmbess import (
    Action,
    BatteryEnv,
    BatterySpec,
    BatteryState,
    EpisodeHorizonError,
    HourlyRecord,
    HourlySeries,
    PenaltyTable,
    SyntheticProfileConfig,
    Tier,
    apply_action,
    default_tariff,
    generate_synthetic,
    month_of_hour,
    transition,
)

POWERWALL = BatterySpec()  # 13.5 kWh, 5 kW, reserve 0.1
PEN = PenaltyTable()


def _record(load, pv, hour=0, wind=None, price=0.1):
    return HourlyRecord(
        hour_index=hour,
        hour_of_day=hour % 24,
        month=month_of_hour(hour),
        load_kwh=float(load),
        pv_kwh=float(pv),
        wind_kwh=wind,
        price_per_kwh=price,
    )


def _balance_error(record, battery_before, flows):
    lhs = record.load_kwh + flows.battery_charge_in_kwh
    rhs = (
        flows.renewables_used_kwh
        + flows.battery_discharge_out_kwh
        + flows.grid_import_kwh
    )
    scale = max(1.0, abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale


# ---------------------------------------------------------------- apply_action


def test_charge_draws_grid_when_no_renewables():
    flows = apply_action(POWERWALL, BatteryState(6.75), _record(2, 0), Action.CHARGE)
    assert flows.battery_charge_in_kwh == 5.0
    assert flows.grid_import_kwh == 7.0
    assert flows.next_battery.energy_kwh == 11.75
    assert flows.curtailed_kwh == 0.0


def test_charge_full_battery_accepts_nothing():
    flows = apply_action(POWERWALL, BatteryState(13.5), _record(3, 4), Action.CHARGE)
    assert flows.battery_charge_in_kwh == 0.0
    assert flows.grid_import_kwh == 0.0
    assert flows.curtailed_kwh == 1.0
    assert flows.next_battery.energy_kwh == 13.5


def test_discharge_covers_residual_deficit():
    flows = apply_action(POWERWALL, BatteryState(6.75), _record(8, 1), Action.DISCHARGE)
    assert flows.battery_discharge_out_kwh == 5.0  # min(5, 6.75-1.35, 7)
    assert flows.grid_import_kwh == 2.0
    assert flows.next_battery.energy_kwh == 1.75


def test_discharge_respects_reserve():
    spec = BatterySpec(capacity_kwh=10.0, reserve_fraction=0.1)
    flows = apply_action(spec, BatteryState(2.0), _record(9, 0), Action.DISCHARGE)
    assert flows.battery_discharge_out_kwh == 1.0
    assert flows.next_battery.energy_kwh == 1.0


def test_discharge_below_reserve_is_noop():
    spec = BatterySpec(capacity_kwh=10.0, reserve_fraction=0.2)
    flows = apply_action(spec, BatteryState(1.0), _record(5, 0), Action.DISCHARGE)
    assert flows.battery_discharge_out_kwh == 0.0
    assert flows.grid_import_kwh == 5.0
    assert flows.next_battery.energy_kwh == 1.0


def test_idle_passes_load_through():
    flows = apply_action(POWERWALL, BatteryState(5.0), _record(4, 1), Action.IDLE)
    assert flows.grid_import_kwh == 3.0
    assert flows.battery_charge_in_kwh == 0.0
    assert flows.next_battery.energy_kwh == 5.0


def test_charge_cap_limits_acceptance():
    flows = apply_action(
        POWERWALL, BatteryState(10.0), _record(5, 8), Action.CHARGE, charge_cap_kwh=3.0
    )
    assert flows.battery_charge_in_kwh == 3.0
    assert flows.grid_import_kwh == 0.0  # surplus covers the whole charge
    assert flows.curtailed_kwh == 0.0


def test_wind_counts_as_renewable_supply():
    flows = apply_action(POWERWALL, BatteryState(5.0), _record(6, 2, wind=4.0), Action.IDLE)
    assert flows.grid_import_kwh == 0.0
    assert flows.curtailed_kwh == 0.0
    assert flows.renewables_used_kwh == 6.0


def test_energy_balance_and_bounds_random_triples():
    # acceptance criterion: 10k random (state, record, action) triples
    rng = random.Random(20260810)
    for _ in range(10_000):
        capacity = rng.uniform(1.0, 50.0)
        spec = BatterySpec(
            capacity_kwh=capacity,
            charge_rate_kw=rng.uniform(0.5, 20.0),
            discharge_rate_kw=rng.uniform(0.5, 20.0),
            reserve_fraction=rng.uniform(0.0, 0.5),
        )
        battery = BatteryState(rng.uniform(0.0, capacity))
        record = _record(
            rng.uniform(0.0, 40.0),
            rng.uniform(0.0, 30.0),
            hour=rng.randrange(24),
            wind=rng.uniform(0.0, 15.0) if rng.random() < 0.5 else None,
        )
        action = Action(rng.randrange(3))
        cap = rng.uniform(0.0, 10.0) if rng.random() < 0.3 else None
        flows = apply_action(spec, battery, record, action, cap)
        assert _balance_error(record, battery, flows) < 1e-9
        assert 0.0 <= flows.next_battery.energy_kwh <= spec.capacity_kwh
        assert flows.grid_import_kwh >= 0.0
        assert flows.curtailed_kwh >= 0.0
        if action is Action.DISCHARGE and battery.energy_kwh >= spec.soc_min_kwh:
            assert flows.next_battery.energy_kwh >= spec.soc_min_kwh


def test_more_pv_never_increases_import():
    rng = random.Random(7)
    for _ in range(2_000):
        battery = BatteryState(rng.uniform(0.0, 13.5))
        load = rng.uniform(0.0, 30.0)
        pv = rng.uniform(0.0, 20.0)
        action = Action(rng.randrange(3))
        low = apply_action(POWERWALL, battery, _record(load, pv), action)
        high = apply_action(POWERWALL, battery, _record(load, pv + 1.0), action)
        assert high.grid_import_kwh <= low.grid_import_kwh + 1e-12


# ---------------------------------------------------------------- reward


def _reward(action, tier, price, load, renewables, battery, spec, penalties):
    """(reward, penalty) of one step of the kernel."""
    *_, penalty, reward = transition(
        spec.limits, battery.energy_kwh, load, renewables, price, tier, action, None, penalties
    )
    return reward, penalty


# Spec-level cases: one per row of the penalty cascade plus the plain
# cost-only branches, with hand-computed expected values.
REWARD_CASES = [
    # action, tier, price, load, renewables, energy_before, expected_reward, expected_penalty
    (Action.IDLE, Tier.OFF_PEAK, 0.05, 10.0, 4.0, 6.75, -0.30, 0.0),
    (Action.CHARGE, Tier.OFF_PEAK, 0.05, 2.0, 0.0, 6.75, 4.65, 5.0),
    (Action.CHARGE, Tier.PEAK, 0.2, 3.0, 0.0, 13.5, -15.6, -15.0),
    (Action.CHARGE, Tier.OFF_PEAK, 0.05, 2.0, 0.0, 13.5, -10.1, -10.0),
    (Action.CHARGE, Tier.STANDARD, 0.1, 2.0, 0.0, 13.5, -10.2, -10.0),
    (Action.CHARGE, Tier.PEAK, 0.2, 2.0, 0.0, 6.75, -11.4, -10.0),
    (Action.CHARGE, Tier.STANDARD, 0.1, 2.0, 0.0, 6.75, -0.7, 0.0),
    (Action.DISCHARGE, Tier.PEAK, 0.3, 8.0, 1.0, 6.75, 4.4, 5.0),
    (Action.DISCHARGE, Tier.OFF_PEAK, 0.05, 8.0, 1.0, 6.75, -5.1, -5.0),
    (Action.DISCHARGE, Tier.STANDARD, 0.1, 8.0, 1.0, 6.75, -0.2, 0.0),
    (Action.DISCHARGE, Tier.PEAK, 0.3, 4.0, 0.0, 1.35, -11.2, -10.0),
    (Action.DISCHARGE, Tier.OFF_PEAK, 0.05, 4.0, 0.0, 1.0, -10.2, -10.0),
    (Action.DISCHARGE, Tier.STANDARD, 0.1, 4.0, 0.0, 0.0, -10.4, -10.0),
    (Action.IDLE, Tier.PEAK, 0.2, 5.0, 0.0, 6.75, -11.0, -10.0),
    (Action.IDLE, Tier.PEAK, 0.2, 5.0, 0.0, 1.35, -11.0, -10.0),
    (Action.IDLE, Tier.PEAK, 0.2, 5.0, 0.0, 0.0, -1.0, 0.0),
    (Action.IDLE, Tier.STANDARD, 0.1, 5.0, 0.0, 13.5, -0.5, 0.0),
]


@pytest.mark.parametrize(
    "action,tier,price,load,renewables,energy,expected_reward,expected_penalty",
    REWARD_CASES,
)
def test_reward_matrix(action, tier, price, load, renewables, energy,
                       expected_reward, expected_penalty):
    reward, penalty = _reward(
        action, tier, price, load, renewables, BatteryState(energy), POWERWALL, PEN
    )
    assert reward == pytest.approx(expected_reward, abs=1e-12)
    assert penalty == pytest.approx(expected_penalty, abs=1e-12)


def test_full_and_peak_row_wins_over_sum():
    # first matching row only: full battery at peak charges -15, not -35
    _, penalty = _reward(
        Action.CHARGE, Tier.PEAK, 0.2, 3.0, 0.0, BatteryState(13.5), POWERWALL, PEN
    )
    assert penalty == -15.0


def test_reward_decomposition_on_table_cases():
    for action, tier, price, load, renew, energy, _, _ in REWARD_CASES:
        battery = BatteryState(energy)
        reward, penalty = _reward(
            action, tier, price, load, renew, battery, POWERWALL, PEN
        )
        flows = apply_action(POWERWALL, battery, _record(load, renew, price=price), action)
        assert reward + flows.grid_import_kwh * price == pytest.approx(penalty, abs=1e-12)


def test_zero_penalties_make_reward_pure_cost():
    zero = PenaltyTable.zero()
    rng = random.Random(3)
    for _ in range(500):
        battery = BatteryState(rng.uniform(0, 13.5))
        load, pv = rng.uniform(0, 20), rng.uniform(0, 15)
        price = rng.uniform(0.01, 1.0)
        action = Action(rng.randrange(3))
        tier = [Tier.OFF_PEAK, Tier.STANDARD, Tier.PEAK][rng.randrange(3)]
        reward, penalty = _reward(
            action, tier, price, load, pv, battery, POWERWALL, zero
        )
        flows = apply_action(POWERWALL, battery, _record(load, pv), action)
        assert penalty == 0.0
        assert reward == pytest.approx(-flows.grid_import_kwh * price, abs=1e-12)


def test_custom_penalty_table_is_honored():
    table = PenaltyTable(charge_off_peak_bonus=2.5)
    _, penalty = _reward(
        Action.CHARGE, Tier.OFF_PEAK, 0.05, 2.0, 0.0, BatteryState(5.0), POWERWALL, table
    )
    assert penalty == 2.5


# ---------------------------------------------------------------- environment


@pytest.fixture()
def one_day_env(tariff):
    config = SyntheticProfileConfig(days=2, rng_seed=1)
    series = generate_synthetic(config, tariff)
    return BatteryEnv(series, POWERWALL, tariff)


def test_env_reset_full_level_maps_to_capacity(one_day_env):
    obs = one_day_env.reset(day_index=0, initial_soc_level=10)
    assert one_day_env.battery.energy_kwh == 13.5
    assert obs.soc_level == 10
    assert obs.hour_of_day == 0


def test_env_reset_empty_level(one_day_env):
    one_day_env.reset(day_index=0, initial_soc_level=0)
    assert one_day_env.battery.energy_kwh == 0.0


def test_env_reset_mid_level_rebins(one_day_env):
    obs = one_day_env.reset(day_index=1, initial_soc_level=5)
    assert one_day_env.battery.energy_kwh == 6.75
    assert obs.hour_of_day == 0
    assert obs.soc_level == 5


def test_env_reset_rejects_bad_args(one_day_env):
    with pytest.raises(ValueError):
        one_day_env.reset(day_index=2, initial_soc_level=0)
    with pytest.raises(ValueError):
        one_day_env.reset(day_index=0, initial_soc_level=11)


def test_env_step_horizon_error(one_day_env):
    one_day_env.reset(day_index=0, initial_soc_level=5)
    for _ in range(24):
        outcome, obs = one_day_env.step(Action.IDLE)
    with pytest.raises(EpisodeHorizonError):
        one_day_env.step(Action.IDLE)


def test_env_deterministic_trajectory(one_day_env, tariff):
    def run():
        env = BatteryEnv(one_day_env.series, POWERWALL, tariff)
        env.reset(day_index=0, initial_soc_level=5)
        rng = random.Random(4)
        outcomes = []
        for _ in range(24):
            outcome, _ = env.step(Action(rng.randrange(3)))
            outcomes.append(outcome)
        return outcomes

    assert run() == run()


def test_env_self_sufficient_day_imports_nothing(tariff):
    series = HourlySeries(load=[1.0] * 24, pv=[5.0] * 24, wind=None, price=[0.1] * 24)
    env = BatteryEnv(series, POWERWALL, tariff)
    env.reset(day_index=0, initial_soc_level=3)
    total = 0.0
    for _ in range(24):
        outcome, _ = env.step(Action.IDLE)
        total += outcome.grid_import_kwh
    assert total == 0.0


def test_env_step_reward_matches_transition(one_day_env, tariff):
    env = one_day_env
    obs = env.reset(day_index=0, initial_soc_level=4)
    rng = random.Random(9)
    for _ in range(24):
        record = env.series[env._cursor]
        before = env.battery
        action = Action(rng.randrange(3))
        expected_reward, expected_penalty = _reward(
            action,
            tariff.tier_of(record.hour_of_day),
            record.price_per_kwh,
            record.load_kwh,
            record.renewables_kwh,
            before,
            POWERWALL,
            env.penalties,
        )
        outcome, obs = env.step(action)
        assert outcome.reward == expected_reward
        assert outcome.penalty_applied == expected_penalty
        assert outcome.cost == outcome.grid_import_kwh * record.price_per_kwh


def test_env_observation_wraps_at_series_end(tariff):
    config = SyntheticProfileConfig(days=1, rng_seed=2)
    series = generate_synthetic(config, tariff)
    env = BatteryEnv(series, POWERWALL, tariff)
    env.reset(day_index=0, initial_soc_level=5)
    for _ in range(23):
        env.step(Action.IDLE)
    _, obs = env.step(Action.IDLE)
    assert obs.hour_of_day == 0  # wrapped to the series start
