"""Battery physics, the penalty-shaped reward, and episode-start charge levels."""

from __future__ import annotations

import math
import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from farmbess import (
    Action,
    BatterySpec,
    EncodingKind,
    Hyperparams,
    HourlySeries,
    PenaltyTable,
    StateEncoder,
    SyntheticProfileConfig,
    TariffSchedule,
    Tier,
    apply_action,
    generate_synthetic,
    lattice_transition,
    soc_bin,
    soc_level_energy,
    train,
    transition,
)
from farmbess.battery import _level_terms

POWERWALL = BatterySpec()  # 13.5 kWh, 5 kW, reserve 0.1
PEN = PenaltyTable()


def _hour(load, pv, wind=None):
    """(load, renewables) of one hour, as `apply_action` takes them."""
    return float(load), float(pv) + (0.0 if wind is None else wind)


def _balance_error(load, flows):
    lhs = load + flows.battery_charge_in_kwh
    rhs = (
        flows.renewables_used_kwh
        + flows.battery_discharge_out_kwh
        + flows.grid_import_kwh
    )
    scale = max(1.0, abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale


# ---------------------------------------------------------------- apply_action


def test_charge_draws_grid_when_no_renewables():
    flows = apply_action(POWERWALL, 6.75, *_hour(2, 0), Action.CHARGE)
    assert flows.battery_charge_in_kwh == 5.0
    assert flows.grid_import_kwh == 7.0
    assert flows.next_energy_kwh == 11.75
    assert flows.curtailed_kwh == 0.0


def test_charge_full_battery_accepts_nothing():
    flows = apply_action(POWERWALL, 13.5, *_hour(3, 4), Action.CHARGE)
    assert flows.battery_charge_in_kwh == 0.0
    assert flows.grid_import_kwh == 0.0
    assert flows.curtailed_kwh == 1.0
    assert flows.next_energy_kwh == 13.5


def test_discharge_covers_residual_deficit():
    flows = apply_action(POWERWALL, 6.75, *_hour(8, 1), Action.DISCHARGE)
    assert flows.battery_discharge_out_kwh == 5.0  # min(5, 6.75-1.35, 7)
    assert flows.grid_import_kwh == 2.0
    assert flows.next_energy_kwh == 1.75


_RATES_MESSAGE = "charge_rate_kw and discharge_rate_kw must be > 0"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("capacity_kwh", float("nan"), "capacity_kwh must be > 0, got nan"),
        ("capacity_kwh", float("inf"), "capacity_kwh must be finite, got inf"),
        ("capacity_kwh", 0.0, "capacity_kwh must be > 0, got 0.0"),
        # The rate cases keep ids that state the rule, so that they stay
        # stable when the wording of the message changes.
        pytest.param("charge_rate_kw", float("nan"), _RATES_MESSAGE,
                     id="charge_rate_kw-nan-charge and discharge rates must be > 0"),
        pytest.param("discharge_rate_kw", float("nan"), _RATES_MESSAGE,
                     id="discharge_rate_kw-nan-charge and discharge rates must be > 0"),
        pytest.param("discharge_rate_kw", -1.0, _RATES_MESSAGE,
                     id="discharge_rate_kw--1.0-charge and discharge rates must be > 0"),
        ("soc_levels", float("nan"), "soc_levels must be >= 2, got nan"),
    ],
)
def test_battery_spec_refuses_nan_and_infinite_limits(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BatterySpec(**{field: value})


def test_discharge_respects_reserve():
    spec = BatterySpec(capacity_kwh=10.0, reserve_fraction=0.1)
    flows = apply_action(spec, 2.0, *_hour(9, 0), Action.DISCHARGE)
    assert flows.battery_discharge_out_kwh == 1.0
    assert flows.next_energy_kwh == 1.0


def test_discharge_below_reserve_is_noop():
    spec = BatterySpec(capacity_kwh=10.0, reserve_fraction=0.2)
    flows = apply_action(spec, 1.0, *_hour(5, 0), Action.DISCHARGE)
    assert flows.battery_discharge_out_kwh == 0.0
    assert flows.grid_import_kwh == 5.0
    assert flows.next_energy_kwh == 1.0


def test_idle_passes_load_through():
    flows = apply_action(POWERWALL, 5.0, *_hour(4, 1), Action.IDLE)
    assert flows.grid_import_kwh == 3.0
    assert flows.battery_charge_in_kwh == 0.0
    assert flows.next_energy_kwh == 5.0


def test_charge_cap_limits_acceptance():
    flows = apply_action(POWERWALL, 10.0, *_hour(5, 8), Action.CHARGE, charge_cap=3.0)
    assert flows.battery_charge_in_kwh == 3.0
    assert flows.grid_import_kwh == 0.0  # surplus covers the whole charge
    assert flows.curtailed_kwh == 0.0


def test_wind_counts_as_renewable_supply():
    series = HourlySeries(load=[6.0] * 24, pv=[2.0] * 24, wind=[4.0] * 24, price=[0.1] * 24)
    flows = apply_action(POWERWALL, 5.0, series.load[0], series.renewables[0], Action.IDLE)
    assert flows.grid_import_kwh == 0.0
    assert flows.curtailed_kwh == 0.0
    assert flows.renewables_used_kwh == 6.0


@st.composite
def _step_cases(draw):
    """A random spec, a stored energy within it, an hour's load and
    renewables, an action and an optional charge cap."""
    floats = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    spec = BatterySpec(
        capacity_kwh=draw(floats(1.0, 50.0)),
        charge_rate_kw=draw(floats(0.5, 20.0)),
        discharge_rate_kw=draw(floats(0.5, 20.0)),
        reserve_fraction=draw(floats(0.0, 0.5)),
    )
    energy = draw(floats(0.0, spec.capacity_kwh))
    hour = _hour(
        draw(floats(0.0, 40.0)),
        draw(floats(0.0, 30.0)),
        wind=draw(st.none() | floats(0.0, 15.0)),
    )
    action = draw(st.sampled_from(Action))
    cap = draw(st.none() | floats(0.0, 10.0))
    return spec, energy, hour, action, cap


@settings(max_examples=200, deadline=None)
@given(case=_step_cases())
def test_energy_balance_and_bounds_random_triples(case):
    spec, energy, (load, renewables), action, cap = case
    flows = apply_action(spec, energy, load, renewables, action, cap)
    assert _balance_error(load, flows) < 1e-9
    assert 0.0 <= flows.next_energy_kwh <= spec.capacity_kwh
    assert flows.grid_import_kwh >= 0.0
    assert flows.curtailed_kwh >= 0.0
    if action is Action.DISCHARGE and energy >= spec.soc_min_kwh:
        assert flows.next_energy_kwh >= spec.soc_min_kwh


@st.composite
def _lattice_cases(draw):
    """A spec off the power-of-two lattice (the default one, or random
    limits with reserve 0 or drawn, 2 to 17 charge levels) and a 24-hour day,
    so every tariff tier comes up. Level 0 sits on a zero reserve, the top
    level on capacity, and the default spec's level 1 on its reserve."""
    floats = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    spec = draw(st.just(POWERWALL) | st.builds(
        BatterySpec,
        capacity_kwh=floats(1.0, 50.0),
        charge_rate_kw=floats(0.5, 20.0),
        discharge_rate_kw=floats(0.5, 20.0),
        reserve_fraction=st.just(0.0) | floats(0.0, 0.5),
        soc_levels=st.integers(2, 17),
    ))
    has_wind = draw(st.booleans())
    amounts = st.just(0.0) | st.integers(0, 20).map(float) | floats(0.0, 20.0)
    hours = []  # (load, renewables, price) of each hour of the day
    for _ in range(24):
        pv = draw(amounts)
        wind = draw(amounts) if has_wind else None
        renewables = pv + (0.0 if wind is None else wind)
        load = draw(st.just(renewables) | amounts)
        hours.append((*_hour(load, pv, wind=wind), draw(floats(0.0, 1.0))))
    return spec, hours, draw(st.sampled_from([PEN, PenaltyTable.zero()]))


@settings(max_examples=60, deadline=None)
@given(case=_lattice_cases())
def test_lattice_transition_is_transition_then_soc_bin(case):
    spec, hours, penalties = case
    tiers = TariffSchedule().tiers
    loads, renewables, prices = zip(*hours)
    next_level, reward = lattice_transition(spec, loads, renewables, prices, tiers, penalties)
    expected_level, expected_reward = [], []
    for (load, renewable, price), tier in zip(hours, tiers):
        for level in range(spec.soc_levels):
            for action in Action:
                out = transition(
                    spec.limits, soc_level_energy(spec, level), load, renewable, price,
                    tier, action, None, penalties,
                )
                expected_level.append(soc_bin(spec, out[5]))
                expected_reward.append(out[8])
    assert next_level.ravel().tolist() == expected_level
    # bit for bit, signed zeros included
    assert reward.tobytes() == np.array(expected_reward).tobytes()


def _scalar_lattice(spec, hours, tiers, penalties):
    """(next level, reward) of every (hour, level, action) from `transition`
    and `soc_bin`, as nested lists and reward bytes."""
    levels, rewards = [], []
    for (load, renewable, price), tier in zip(hours, tiers):
        for level in range(spec.soc_levels):
            for action in Action:
                out = transition(
                    spec.limits, soc_level_energy(spec, level), load, renewable, price,
                    tier, action, None, penalties,
                )
                levels.append(soc_bin(spec, out[5]))
                rewards.append(out[8])
    return levels, np.array(rewards).tobytes()


# A day with every tier, idle hours (no load, no supply), deficits larger and
# smaller than a discharge, and a surplus smaller than a charge.
_MIXED_DAY = [(float(h % 5) * 2.0, float(h % 3) * 3.0, 0.1 + h / 100) for h in range(24)]


def test_lattice_transition_returns_fresh_arrays():
    tiers = TariffSchedule().tiers
    args = (POWERWALL, *zip(*_MIXED_DAY), tiers, PEN)
    next_level, reward = lattice_transition(*args)
    first = next_level.copy(), reward.copy()
    next_level[...] = 0
    reward += 1e3
    again = lattice_transition(*args)
    assert again[0].tolist() == first[0].tolist()
    assert again[1].tobytes() == first[1].tobytes()


def test_lattice_transition_gives_each_penalty_table_its_own_rewards():
    # The tables share a spec and alternate; the negative-zero table stores
    # its rows as +0.0, so it is the zero one and shares its cache entry.
    tiers = TariffSchedule().tiers
    tables = [PEN, PenaltyTable.zero(), PenaltyTable(*[-0.0] * 8),
              PenaltyTable(charge_full=-3.5, idle_peak_with_charge=-0.25)]
    expected = [_scalar_lattice(POWERWALL, _MIXED_DAY, tiers, table) for table in tables]
    for _ in range(2):
        for table, (levels, rewards) in zip(tables, expected):
            next_level, reward = lattice_transition(
                POWERWALL, *zip(*_MIXED_DAY), tiers, table
            )
            assert next_level.ravel().tolist() == levels
            assert reward.tobytes() == rewards


def test_a_negative_zero_row_is_stored_as_zero_and_shares_its_cache_entry():
    table = PenaltyTable(*[-0.0] * 8)
    assert np.array(astuple(table)).tobytes() == bytes(8 * 8)
    day = (POWERWALL, *zip(*_MIXED_DAY), TariffSchedule().tiers)
    lattice_transition(*day, PenaltyTable.zero())
    before = _level_terms.cache_info()
    lattice_transition(*day, table)
    after = _level_terms.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_more_pv_never_increases_import():
    rng = random.Random(7)
    for _ in range(2_000):
        energy = rng.uniform(0.0, 13.5)
        load = rng.uniform(0.0, 30.0)
        pv = rng.uniform(0.0, 20.0)
        action = Action(rng.randrange(3))
        low = apply_action(POWERWALL, energy, *_hour(load, pv), action)
        high = apply_action(POWERWALL, energy, *_hour(load, pv + 1.0), action)
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


def _case_id(value):
    """A tier is named in a test id; the default would print its code."""
    return f"Tier.{value.name}" if isinstance(value, Tier) else None


@pytest.mark.parametrize(
    "action,tier,price,load,renewables,energy,expected_reward,expected_penalty",
    REWARD_CASES,
    ids=_case_id,
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
        flows = apply_action(POWERWALL, energy, *_hour(load, renew), action)
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
        flows = apply_action(POWERWALL, energy, *_hour(load, pv), action)
        assert penalty == 0.0
        assert reward == pytest.approx(-flows.grid_import_kwh * price, abs=1e-12)


def test_custom_penalty_table_is_honored():
    table = PenaltyTable(charge_off_peak_bonus=2.5)
    _, penalty = _reward(
        Action.CHARGE, Tier.OFF_PEAK, 0.05, 2.0, 0.0, 5.0, POWERWALL, table
    )
    assert penalty == 2.5


def _reference_penalty(action, tier, energy, spec, table):
    """The shaping term as a first-match cascade of rows keyed on the tier
    and the charge before the action."""
    if action == Action.CHARGE:
        if energy >= spec.capacity_kwh:
            return table.charge_full_peak if tier is Tier.PEAK else table.charge_full
        if tier is Tier.PEAK:
            return table.charge_peak
        if tier is Tier.OFF_PEAK:
            return table.charge_off_peak_bonus
        return 0.0
    if action == Action.DISCHARGE:
        if energy <= spec.soc_min_kwh:
            return table.discharge_empty
        if tier is Tier.OFF_PEAK:
            return table.discharge_off_peak
        if tier is Tier.PEAK:
            return table.discharge_peak_bonus
        return 0.0
    if tier is Tier.PEAK and energy >= spec.soc_min_kwh:
        return table.idle_peak_with_charge
    return 0.0


# Eight different non-zero rows, so that no two rows, and no row and an
# unshaped 0, can stand in for each other.
_DISTINCT_TABLES = st.lists(
    st.floats(-100.0, 100.0).filter(bool), min_size=8, max_size=8, unique=True
).map(lambda rows: PenaltyTable(*rows))


@st.composite
def _edge_energies(draw, spec):
    """0, the reserve, the capacity, a float neighbour of one of them, or a
    uniform charge; as a float or a numpy scalar."""
    edge = draw(st.sampled_from([0.0, spec.soc_min_kwh, spec.capacity_kwh]))
    energy = draw(st.one_of(
        st.just(edge),
        st.sampled_from([-math.inf, math.inf]).map(lambda to: math.nextafter(edge, to)),
        st.floats(0.0, spec.capacity_kwh),
    ))
    return np.float64(energy) if draw(st.booleans()) else energy


@settings(max_examples=150, deadline=None)
@given(
    spec=st.builds(
        BatterySpec,
        capacity_kwh=st.floats(0.5, 50.0),
        reserve_fraction=st.sampled_from([0.0, 0.1, 0.25]) | st.floats(0.0, 0.9),
    ),
    table=_DISTINCT_TABLES,
    action=st.sampled_from(Action),
    tier=st.sampled_from(Tier),
    data=st.data(),
)
def test_penalty_is_the_reference_cascade(spec, table, action, tier, data):
    energy = data.draw(_edge_energies(spec))
    _, penalty = _reward(action, tier, 0.1, 2.0, 1.0, energy, spec, table)
    expected = _reference_penalty(action, tier, energy, spec, table)
    assert penalty.hex() == expected.hex()


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
    for load, renewables in zip(series.load, series.renewables):
        flows = apply_action(POWERWALL, energy, load, renewables, Action.IDLE)
        total += flows.grid_import_kwh
        energy = flows.next_energy_kwh
    assert total == 0.0


def test_env_observation_wraps_at_series_end(tariff):
    # A two-day episode on a one-day series: the hour after the series' last
    # reads the series' first. With exploration at 1 every action comes from
    # the rng, so the episode's return can be replayed hour by hour.
    series = generate_synthetic(SyntheticProfileConfig(days=1, rng_seed=2), tariff)
    encoder = StateEncoder.for_series(EncodingKind.HOUR_SOC, series, POWERWALL)
    hp = Hyperparams(epsilon_init=1.0, total_episodes=1, steps_per_episode=48, rng_seed=7)
    _, log = train(series, POWERWALL, tariff, PenaltyTable(), hp, encoder)

    rng = random.Random(hp.rng_seed)
    assert rng.randrange(series.n_days) == log.day_indices[0] == 0
    level = rng.randrange(hp.soc_reset_low, POWERWALL.soc_levels)
    assert level == log.soc_levels[0]
    energy = soc_level_energy(POWERWALL, level)
    expected = 0.0
    for position in range(hp.steps_per_episode):
        rng.random()
        action = rng.randrange(3)
        i = position % len(series)
        *_, energy, _, _, reward = transition(
            POWERWALL.limits, energy, series.load[i], series.renewables[i],
            series.price[i], tariff.tier_of(i % 24),
            action, None, PenaltyTable(),
        )
        expected += reward
    assert log.episode_returns[0] == expected
