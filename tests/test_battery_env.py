"""Battery physics, the penalty-shaped reward, and episode-start charge levels."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from farmbess import (
    Action,
    BatteryEnv,
    BatterySpec,
    EncodingKind,
    Hyperparams,
    HourlyRecord,
    HourlySeries,
    PenaltyTable,
    StateEncoder,
    SyntheticProfileConfig,
    Tier,
    apply_action,
    generate_synthetic,
    month_of_hour,
    soc_bin,
    soc_level_energy,
    train,
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


def _balance_error(record, flows):
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
    flows = apply_action(POWERWALL, 6.75, _record(2, 0), Action.CHARGE)
    assert flows.battery_charge_in_kwh == 5.0
    assert flows.grid_import_kwh == 7.0
    assert flows.next_energy_kwh == 11.75
    assert flows.curtailed_kwh == 0.0


def test_charge_full_battery_accepts_nothing():
    flows = apply_action(POWERWALL, 13.5, _record(3, 4), Action.CHARGE)
    assert flows.battery_charge_in_kwh == 0.0
    assert flows.grid_import_kwh == 0.0
    assert flows.curtailed_kwh == 1.0
    assert flows.next_energy_kwh == 13.5


def test_discharge_covers_residual_deficit():
    flows = apply_action(POWERWALL, 6.75, _record(8, 1), Action.DISCHARGE)
    assert flows.battery_discharge_out_kwh == 5.0  # min(5, 6.75-1.35, 7)
    assert flows.grid_import_kwh == 2.0
    assert flows.next_energy_kwh == 1.75


def test_discharge_respects_reserve():
    spec = BatterySpec(capacity_kwh=10.0, reserve_fraction=0.1)
    flows = apply_action(spec, 2.0, _record(9, 0), Action.DISCHARGE)
    assert flows.battery_discharge_out_kwh == 1.0
    assert flows.next_energy_kwh == 1.0


def test_discharge_below_reserve_is_noop():
    spec = BatterySpec(capacity_kwh=10.0, reserve_fraction=0.2)
    flows = apply_action(spec, 1.0, _record(5, 0), Action.DISCHARGE)
    assert flows.battery_discharge_out_kwh == 0.0
    assert flows.grid_import_kwh == 5.0
    assert flows.next_energy_kwh == 1.0


def test_idle_passes_load_through():
    flows = apply_action(POWERWALL, 5.0, _record(4, 1), Action.IDLE)
    assert flows.grid_import_kwh == 3.0
    assert flows.battery_charge_in_kwh == 0.0
    assert flows.next_energy_kwh == 5.0


def test_charge_cap_limits_acceptance():
    flows = apply_action(
        POWERWALL, 10.0, _record(5, 8), Action.CHARGE, charge_cap=3.0
    )
    assert flows.battery_charge_in_kwh == 3.0
    assert flows.grid_import_kwh == 0.0  # surplus covers the whole charge
    assert flows.curtailed_kwh == 0.0


def test_wind_counts_as_renewable_supply():
    flows = apply_action(POWERWALL, 5.0, _record(6, 2, wind=4.0), Action.IDLE)
    assert flows.grid_import_kwh == 0.0
    assert flows.curtailed_kwh == 0.0
    assert flows.renewables_used_kwh == 6.0


@st.composite
def _step_cases(draw):
    """A random spec, a stored energy within it, an hour, an action and an
    optional charge cap."""
    floats = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    spec = BatterySpec(
        capacity_kwh=draw(floats(1.0, 50.0)),
        charge_rate_kw=draw(floats(0.5, 20.0)),
        discharge_rate_kw=draw(floats(0.5, 20.0)),
        reserve_fraction=draw(floats(0.0, 0.5)),
    )
    energy = draw(floats(0.0, spec.capacity_kwh))
    record = _record(
        draw(floats(0.0, 40.0)),
        draw(floats(0.0, 30.0)),
        hour=draw(st.integers(0, 23)),
        wind=draw(st.none() | floats(0.0, 15.0)),
    )
    action = draw(st.sampled_from(Action))
    cap = draw(st.none() | floats(0.0, 10.0))
    return spec, energy, record, action, cap


@settings(max_examples=200, deadline=None)
@given(case=_step_cases())
def test_energy_balance_and_bounds_random_triples(case):
    spec, energy, record, action, cap = case
    flows = apply_action(spec, energy, record, action, cap)
    assert _balance_error(record, flows) < 1e-9
    assert 0.0 <= flows.next_energy_kwh <= spec.capacity_kwh
    assert flows.grid_import_kwh >= 0.0
    assert flows.curtailed_kwh >= 0.0
    if action is Action.DISCHARGE and energy >= spec.soc_min_kwh:
        assert flows.next_energy_kwh >= spec.soc_min_kwh


def test_more_pv_never_increases_import():
    rng = random.Random(7)
    for _ in range(2_000):
        energy = rng.uniform(0.0, 13.5)
        load = rng.uniform(0.0, 30.0)
        pv = rng.uniform(0.0, 20.0)
        action = Action(rng.randrange(3))
        low = apply_action(POWERWALL, energy, _record(load, pv), action)
        high = apply_action(POWERWALL, energy, _record(load, pv + 1.0), action)
        assert high.grid_import_kwh <= low.grid_import_kwh + 1e-12


# ---------------------------------------------------------------- reward


def _reward(action, tier, price, load, renewables, energy, spec, penalties):
    """(reward, penalty) of one step of the kernel."""
    *_, penalty, reward = transition(
        spec.limits, energy, load, renewables, price, tier, action, None, penalties
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
        action, tier, price, load, renewables, energy, POWERWALL, PEN
    )
    assert reward == pytest.approx(expected_reward, abs=1e-12)
    assert penalty == pytest.approx(expected_penalty, abs=1e-12)


def test_full_and_peak_row_wins_over_sum():
    # first matching row only: full battery at peak charges -15, not -35
    _, penalty = _reward(
        Action.CHARGE, Tier.PEAK, 0.2, 3.0, 0.0, 13.5, POWERWALL, PEN
    )
    assert penalty == -15.0


def test_reward_decomposition_on_table_cases():
    for action, tier, price, load, renew, energy, _, _ in REWARD_CASES:
        reward, penalty = _reward(
            action, tier, price, load, renew, energy, POWERWALL, PEN
        )
        flows = apply_action(POWERWALL, energy, _record(load, renew, price=price), action)
        assert reward + flows.grid_import_kwh * price == pytest.approx(penalty, abs=1e-12)


def test_zero_penalties_make_reward_pure_cost():
    zero = PenaltyTable.zero()
    rng = random.Random(3)
    for _ in range(500):
        energy = rng.uniform(0, 13.5)
        load, pv = rng.uniform(0, 20), rng.uniform(0, 15)
        price = rng.uniform(0.01, 1.0)
        action = Action(rng.randrange(3))
        tier = [Tier.OFF_PEAK, Tier.STANDARD, Tier.PEAK][rng.randrange(3)]
        reward, penalty = _reward(
            action, tier, price, load, pv, energy, POWERWALL, zero
        )
        flows = apply_action(POWERWALL, energy, _record(load, pv), action)
        assert penalty == 0.0
        assert reward == pytest.approx(-flows.grid_import_kwh * price, abs=1e-12)


def test_custom_penalty_table_is_honored():
    table = PenaltyTable(charge_off_peak_bonus=2.5)
    _, penalty = _reward(
        Action.CHARGE, Tier.OFF_PEAK, 0.05, 2.0, 0.0, 5.0, POWERWALL, table
    )
    assert penalty == 2.5


# ---------------------------------------------------------------- episode start


def test_env_reset_full_level_maps_to_capacity():
    # a training episode starts at a level's energy, which bins back to it
    assert soc_level_energy(POWERWALL, 10) == 13.5
    assert soc_bin(POWERWALL, 13.5) == 10


def test_env_reset_empty_level():
    assert soc_level_energy(POWERWALL, 0) == 0.0


def test_env_reset_mid_level_rebins():
    assert soc_level_energy(POWERWALL, 5) == 6.75
    assert soc_bin(POWERWALL, 6.75) == 5


def test_env_reset_rejects_bad_args():
    with pytest.raises(ValueError):
        soc_level_energy(POWERWALL, 11)
    with pytest.raises(ValueError):
        soc_level_energy(POWERWALL, -1)


def test_env_self_sufficient_day_imports_nothing():
    series = HourlySeries(load=[1.0] * 24, pv=[5.0] * 24, wind=None, price=[0.1] * 24)
    energy = soc_level_energy(POWERWALL, 3)
    total = 0.0
    for record in series:
        flows = apply_action(POWERWALL, energy, record, Action.IDLE)
        total += flows.grid_import_kwh
        energy = flows.next_energy_kwh
    assert total == 0.0


def test_env_observation_wraps_at_series_end(tariff):
    # A two-day episode on a one-day series: the hour after the series' last
    # reads the series' first. With exploration at 1 every action comes from
    # the rng, so the episode's return can be replayed hour by hour.
    series = generate_synthetic(SyntheticProfileConfig(days=1, rng_seed=2), tariff)
    env = BatteryEnv(series, POWERWALL, tariff)
    encoder = StateEncoder.for_series(EncodingKind.HOUR_SOC, series, POWERWALL)
    hp = Hyperparams(epsilon_init=1.0, total_episodes=1, steps_per_episode=48, rng_seed=7)
    _, log = train(env, hp, encoder)

    rng = random.Random(hp.rng_seed)
    assert rng.randrange(series.n_days) == log.day_indices[0] == 0
    level = rng.randrange(hp.soc_reset_low, POWERWALL.soc_levels)
    assert level == log.soc_levels[0]
    energy = soc_level_energy(POWERWALL, level)
    records = series.records
    expected = 0.0
    for position in range(hp.steps_per_episode):
        rng.random()
        action = rng.randrange(3)
        record = records[position % len(records)]
        *_, energy, _, _, reward = transition(
            POWERWALL.limits, energy, record.load_kwh, record.renewables_kwh,
            record.price_per_kwh, tariff.tier_of(record.hour_of_day),
            action, None, env.penalties,
        )
        expected += reward
    assert log.episode_returns[0] == expected
