"""Q-learning mechanics: selection, TD updates, decay schedules, the training
loop, and Q-table persistence.

`train` inlines epsilon-greedy selection and the TD update; `select_action`
and `td_update` below spell them out for `_reference_train`, which checks the
loop against them bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from farmbess import (
    Action,
    BatterySpec,
    EncodingConfig,
    EncodingKind,
    HourlySeries,
    Hyperparams,
    PenaltyTable,
    QTable,
    StateEncoder,
    TariffSchedule,
    TrainingLog,
    decayed,
    greedy_action,
    lattice_transition,
    load_qtable,
    save_qtable,
    soc_bin,
    soc_level_energy,
    train,
    transition,
)
from farmbess import ioutil
from farmbess.agent import QTableFormatError, _randbelow
from farmbess.encoding import BinSpec


def select_action(q: QTable, state: int, epsilon: float, rng: random.Random) -> Action:
    """Epsilon-greedy selection: one uniform draw decides exploration, and an
    exploring step picks uniformly among all three actions."""
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if rng.random() < epsilon:
        return Action(rng.randrange(len(Action)))
    return greedy_action(q, state)


def td_update(
    q: QTable,
    state: int,
    action: Action,
    reward: float,
    next_state: int,
    alpha: float,
    discount: float,
) -> float:
    """One temporal-difference update; returns the value written.

    Q(s,a) += alpha * (reward + discount * max_a' Q(s',a') - Q(s,a))
    """
    if not math.isfinite(reward):
        raise ValueError(f"reward must be finite, got {reward}")
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    a = int(action)
    bootstrap = float(max(q.values[next_state]))
    updated = q.values[state, a] + alpha * (reward + discount * bootstrap - q.values[state, a])
    q.values[state, a] = updated
    return float(updated)


def _table(values_row=None) -> QTable:
    encoder = StateEncoder(kind=EncodingKind.HOUR_SOC)
    q = QTable(np.zeros((encoder.size(), 3)), encoder)
    if values_row is not None:
        q.values[0] = values_row
    return q


# ---------------------------------------------------------------- greedy/select


def test_greedy_action_strict_max():
    q = _table([1.0, 0.5, -2.0])
    assert greedy_action(q, 0) is Action.CHARGE


def test_greedy_action_all_ties_pick_first():
    q = _table([0.0, 0.0, 0.0])
    assert greedy_action(q, 0) is Action.CHARGE


def test_greedy_action_tie_among_last_two():
    q = _table([-1.0, 3.5, 3.5])
    assert greedy_action(q, 0) is Action.DISCHARGE


def test_select_action_epsilon_zero_is_greedy():
    q = _table([0.2, 0.9, 0.1])
    rng = random.Random(1)
    for _ in range(200):
        assert select_action(q, 0, 0.0, rng) is Action.DISCHARGE


def test_select_action_epsilon_one_uniform():
    q = _table([5.0, 0.0, 0.0])
    rng = random.Random(123)
    counts = {a: 0 for a in Action}
    n = 30_000
    for _ in range(n):
        counts[select_action(q, 0, 1.0, rng)] += 1
    for action in Action:
        assert abs(counts[action] / n - 1 / 3) < 0.01


def test_select_action_exploration_frequency_point_one():
    # replay the generator: exploration happened exactly when the first
    # uniform draw fell below epsilon
    q = _table([5.0, 0.0, 0.0])
    seed, n, eps = 77, 30_000, 0.1
    rng = random.Random(seed)
    actions = [select_action(q, 0, eps, rng) for _ in range(n)]
    replay = random.Random(seed)
    explored = 0
    for action in actions:
        if replay.random() < eps:
            explored += 1
            drawn = Action(replay.randrange(3))
            assert action is drawn
        else:
            assert action is Action.CHARGE  # the greedy one
    assert abs(explored / n - eps) < 0.01


def test_select_action_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        select_action(_table(), 0, 1.5, random.Random(0))


# ---------------------------------------------------------------- td_update


def test_td_update_from_zero():
    q = _table()
    new = td_update(q, 0, Action.CHARGE, -1.0, 1, alpha=0.8, discount=0.9)
    assert new == -0.8
    assert q.values[0, 0] == -0.8


def test_td_update_fixed_point():
    q = _table([2.0, 0.0, 0.0])
    q.values[1] = [2.0, 0.0, 0.0]
    # target = 0 + 0.9*... choose reward so target equals current value
    new = td_update(q, 0, Action.CHARGE, 0.2, 1, alpha=0.5, discount=0.9)
    assert new == 2.0


def test_td_update_hand_case():
    q = _table([2.0, 0.0, 0.0])
    q.values[1] = [1.0, 3.0, 2.0]
    new = td_update(q, 0, Action.CHARGE, 1.0, 1, alpha=0.5, discount=0.9)
    assert new == 2.85  # 2 + 0.5 * (1 + 0.9*3 - 2)


def test_td_update_touches_one_entry():
    q = _table()
    before = q.values.copy()
    td_update(q, 5, Action.IDLE, 1.0, 6, alpha=0.5, discount=0.9)
    changed = np.argwhere(q.values != before)
    assert changed.tolist() == [[5, 2]]


def test_td_update_rejects_non_finite_reward():
    with pytest.raises(ValueError):
        td_update(_table(), 0, Action.IDLE, float("nan"), 1, alpha=0.5, discount=0.9)


def test_td_update_matches_one_line_oracle_on_random_cases():
    # acceptance criterion: 100 randomized cases vs the closed form
    rng = random.Random(2026)
    for _ in range(100):
        q = _table()
        q.values[:] = rng.uniform(-5, 5)
        s = rng.randrange(264)
        ns = rng.randrange(264)
        a = Action(rng.randrange(3))
        reward = rng.uniform(-20, 20)
        alpha = rng.uniform(0.01, 1.0)
        discount = rng.uniform(0.0, 0.99)
        expected = q.values[s, int(a)] + alpha * (
            reward + discount * max(q.values[ns]) - q.values[s, int(a)]
        )
        new = td_update(q, s, a, reward, ns, alpha=alpha, discount=discount)
        assert abs(new - expected) <= 1e-12


# ---------------------------------------------------------------- decay


def test_decay_single_step():
    assert decayed(0.8, 0.0001, 0.1, 1) == 0.7999


def test_decay_hits_floor_exactly_at_step_7000():
    assert decayed(0.8, 0.0001, 0.1, 7000) == 0.1
    assert decayed(0.8, 0.0001, 0.1, 7001) == 0.1
    assert decayed(0.8, 0.0001, 0.1, 50_000) == 0.1


def test_decay_at_floor_stays():
    assert decayed(0.1, 0.0001, 0.1, 1) == 0.1


def test_decayed_matches_single_step():
    # one step of the schedule is max(value - decay, floor)
    assert decayed(0.8, 0.0001, 0.1, 1) == max(0.8 - 0.0001, 0.1)


# ---------------------------------------------------------------- training


@pytest.fixture()
def toy_problem(toy_day, toy_spec, toy_tariff):
    """`train`'s first four arguments for the one-day toy series: the series,
    the spec, the tariff and the default penalties."""
    return toy_day, toy_spec, toy_tariff, PenaltyTable()


@pytest.fixture()
def toy_encoder(toy_day, toy_spec):
    return StateEncoder.for_series(EncodingKind.HOUR_SOC, toy_day, toy_spec)


@pytest.mark.parametrize("kind", list(EncodingKind), ids=lambda kind: kind.value)
def test_train_zero_episodes_returns_zero_table(kind, synthetic_week, tariff):
    problem = (synthetic_week, BatterySpec(), tariff, PenaltyTable())
    encoder = StateEncoder.for_series(kind, synthetic_week, BatterySpec())
    table, log = train(*problem, Hyperparams(total_episodes=0, rng_seed=0), encoder)
    assert table.values.shape == (encoder.size(), 3)
    assert table.values.dtype == np.float64
    assert np.all(table.values == 0.0)
    assert len(log) == 0


def test_train_memory_stays_near_the_table(synthetic_week, tariff):
    """train holds rows only for the states its series reaches: with no
    episodes its traced peak stays within twice the dense table it returns,
    although the wind encoding has 33,000 states and the week reaches fewer
    than 500 of them."""
    problem = (synthetic_week, BatterySpec(), tariff, PenaltyTable())
    encoder = StateEncoder.for_series(
        EncodingKind.HOUR_SOC_LOAD_PV_WIND, synthetic_week, BatterySpec()
    )
    tracemalloc.start()
    try:
        table, _ = train(*problem, Hyperparams(total_episodes=0), encoder)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * table.values.nbytes


def test_train_deterministic_bit_identical(toy_problem, toy_encoder):
    hp = Hyperparams(total_episodes=2_000, rng_seed=31)
    a, log_a = train(*toy_problem, hp, toy_encoder)
    b, log_b = train(*toy_problem, hp, toy_encoder)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(log_a.episode_returns, log_b.episode_returns)


def test_train_seeds_differ(toy_problem, toy_encoder):
    a, _ = train(*toy_problem, Hyperparams(total_episodes=2_000, rng_seed=1), toy_encoder)
    b, _ = train(*toy_problem, Hyperparams(total_episodes=2_000, rng_seed=2), toy_encoder)
    assert not np.array_equal(a.values, b.values)


@pytest.mark.parametrize("seed", [0, 13, 2024])
def test_randbelow_replays_randrange(seed):
    """train draws its integers with _randbelow on the generator's
    getrandbits: the same integers, from the same bits, as randrange(n) and
    randrange(lo, lo + n), with random() draws in between."""
    ours, theirs = random.Random(seed), random.Random(seed)
    for n in range(1, 301):
        lo = n % 3
        assert _randbelow(ours.getrandbits, n) == theirs.randrange(n)
        assert ours.random() == theirs.random()
        assert lo + _randbelow(ours.getrandbits, n) == theirs.randrange(lo, lo + n)
    assert ours.getstate() == theirs.getstate()


def _reference_train(series, spec, tariff, penalties, hp, encoder):
    """train() spelled out with the public ops: transition steps the battery,
    soc_bin and encode index the state, select_action and td_update learn.
    The state after the series' last hour is read at the series' first hour.
    Returns the table and each episode's day and starting charge level."""
    loads, pvs, prices = series.load.tolist(), series.pv.tolist(), series.price.tolist()
    winds = series.wind.tolist() if series.has_wind else [None] * len(series)
    q = QTable(np.zeros((encoder.size(), 3)), encoder)
    rng = random.Random(hp.rng_seed)
    days, levels = [], []

    def state(position, energy):
        i = position % len(series)
        return encoder.encode(i % 24, soc_bin(spec, energy), loads[i], pvs[i], winds[i])

    for episode in range(hp.total_episodes):
        alpha = decayed(hp.learning_rate_init, hp.decay, hp.floor, episode)
        epsilon = decayed(hp.epsilon_init, hp.decay, hp.floor, episode)
        days.append(rng.randrange(series.n_days))
        levels.append(rng.randrange(hp.soc_reset_low, spec.soc_levels))
        position = days[-1] * 24
        energy = soc_level_energy(spec, levels[-1])
        current = state(position, energy)
        for _ in range(hp.steps_per_episode):
            action = select_action(q, current, epsilon, rng)
            i = position % len(series)
            renewables = pvs[i] + (0.0 if winds[i] is None else winds[i])
            *_, energy, _, _, reward = transition(
                spec.limits, energy, loads[i], renewables, prices[i], tariff.tier_of(i % 24),
                action, None, penalties,
            )
            position += 1
            following = state(position, energy)
            td_update(q, current, action, reward, following,
                      alpha=alpha, discount=hp.discount_factor)
            current = following
    return q, days, levels


def _assert_matches_reference(problem, hp, encoder):
    trained, log = train(*problem, hp, encoder)
    reference, days, levels = _reference_train(*problem, hp, encoder)
    assert np.array_equal(trained.values, reference.values)
    assert log.day_indices.tolist() == days
    assert log.soc_levels.tolist() == levels


def test_train_matches_public_op_composition(toy_problem, toy_encoder):
    """The optimized loop and the public ops are the same algorithm on the
    one-day toy series, where every episode's last step wraps to hour 0:
    the reference reproduces train()'s table and episode starts bit for bit,
    also when the start level is drawn from an offset range."""
    for reset_low in (0, 1):
        hp = Hyperparams(total_episodes=300, rng_seed=13, soc_reset_low=reset_low)
        _assert_matches_reference(toy_problem, hp, toy_encoder)


@pytest.mark.parametrize("kind", list(EncodingKind), ids=lambda kind: kind.value)
def test_train_matches_public_op_composition_per_encoding(kind, synthetic_week, tariff):
    """train()'s reachable-row layout indexes the same states as encode, for
    every encoding, on a week with wind."""
    problem = (synthetic_week, BatterySpec(), tariff, PenaltyTable())
    # The synthetic wind stays within 5 % of its mean: with 5 bins every hour
    # lands in the top one, with 20 the hours split between the top two.
    encoder = StateEncoder.for_series(
        kind, synthetic_week, BatterySpec(), EncodingConfig(wind_bins=20)
    )
    _assert_matches_reference(problem, Hyperparams(total_episodes=400, rng_seed=13), encoder)


def test_train_bins_the_next_charge_as_soc_bin(tariff):
    """Discharging 1.3500000013499984 kWh from level 6 of the default spec
    leaves 6.749999998650001 kWh, within an ulp of the snap below level 5:
    energy / capacity * top snaps it up to 5, energy * (top / capacity) does
    not. train bins it with soc_bin's arithmetic, as the reference does."""
    spec = BatterySpec()
    day = HourlySeries(
        load=[1.3500000013499984] * 24, pv=[0.0] * 24, wind=None,
        price=[tariff.price_at(h) for h in range(24)],
    )
    assert soc_bin(spec, soc_level_energy(spec, 6) - 1.3500000013499984) == 5
    encoder = StateEncoder.for_series(EncodingKind.HOUR_SOC, day, spec)
    problem = (day, spec, tariff, PenaltyTable())
    _assert_matches_reference(problem, Hyperparams(total_episodes=50, rng_seed=13), encoder)


def test_train_q_values_bounded(toy_problem, toy_encoder, toy_day, toy_spec):
    hp = Hyperparams(total_episodes=5_000, rng_seed=5)
    table, _ = train(*toy_problem, hp, toy_encoder)
    assert np.all(np.isfinite(table.values))
    # |reward| <= max penalty + max hourly cost on the toy day
    max_cost = max(toy_day.load * toy_day.price) + \
        toy_spec.charge_rate_kw * max(toy_day.price)
    bound = (15.0 + max_cost) / (1 - hp.discount_factor) + 1e-9
    assert np.max(np.abs(table.values)) <= bound


def _cyclic_day_optimum(next_level, reward, discount):
    """V* over (hour, level) of the discounted cyclic day on `lattice_transition`'s
    arrays, by value iteration: the state after hour 23 is read at hour 0."""
    hours = np.arange(len(next_level))[:, None, None]
    value = np.zeros(next_level.shape[:2])
    while True:
        following = np.roll(value, -1, axis=0)[hours, next_level]
        updated = (reward + discount * following).max(axis=2)
        if np.max(np.abs(updated - value)) <= 1e-13 * np.max(np.abs(updated)):
            return updated
        value = updated


def _cyclic_day_policy_values(next_level, reward, discount, policy):
    """V^policy over (hour, level) of the same day, exactly: the solution of
    (I - discount * P) V = r for the policy's (hour, level) -> action."""
    n_hours, n_levels = policy.shape
    hour, level = np.divmod(np.arange(policy.size), n_levels)
    action = policy.ravel()
    following = (hour + 1) % n_hours * n_levels + next_level[hour, level, action]
    system = np.eye(policy.size)
    system[np.arange(policy.size), following] -= discount
    return np.linalg.solve(system, reward[hour, level, action]).reshape(policy.shape)


# Days drawn once in `lattice_days`' shape (tests/test_evaluation.py) under the
# default tariff: a battery whose limits sit on its charge lattice, and whole
# lattice steps of load and PV in kWh.
_LATTICE_DAYS = [
    (
        BatterySpec(capacity_kwh=8.0, charge_rate_kw=8.0, discharge_rate_kw=8.0,
                    reserve_fraction=0.25, soc_levels=5),
        [4, 16, 14, 4, 2, 14, 8, 4, 2, 16, 0, 12, 14, 4, 0, 16, 2, 0, 0, 6, 6, 0, 14, 10],
        [14, 6, 16, 6, 8, 14, 0, 2, 14, 8, 12, 16, 2, 8, 10, 6, 16, 8, 0, 2, 2, 12, 2, 8],
    ),
    (
        BatterySpec(capacity_kwh=16.0, charge_rate_kw=6.0, discharge_rate_kw=10.0,
                    reserve_fraction=0.125, soc_levels=9),
        [20, 10, 0, 26, 26, 4, 6, 8, 20, 30, 28, 26, 12, 12, 20, 20, 20, 26, 4, 32, 30, 24, 4, 12],
        [14, 2, 12, 6, 4, 12, 16, 18, 18, 16, 10, 6, 0, 16, 14, 14, 14, 2, 0, 18, 16, 8, 20, 28],
    ),
]


@pytest.mark.parametrize("penalties", [PenaltyTable(), PenaltyTable.zero()], ids=["shaped", "cost"])
def test_train_greedy_policy_reaches_the_exact_optimum(penalties, toy_day, toy_spec, toy_tariff):
    """On the toy day and on each lattice day every trajectory stays on the
    charge lattice, so training is a finite deterministic MDP over (hour,
    level). The greedy policy of the trained table, read at `encode`'s
    index, earns V* from hour 0 at every start level, valued exactly on the
    same arrays. A defect that train shares with _reference_train, such as
    a bootstrap read at the wrong hour or without the discount, shows here;
    the lattice days are trained on load and PV bins, so a table row stored
    away from `encode`'s index does too."""
    tariff = TariffSchedule()
    prices = [tariff.price_at(h) for h in range(24)]
    cases = [(toy_day, toy_spec, toy_tariff, EncodingKind.HOUR_SOC, 20_000)] + [
        (HourlySeries(load, pv, None, prices), spec, tariff, EncodingKind.HOUR_SOC_LOAD_PV, 10_000)
        for spec, load, pv in _LATTICE_DAYS
    ]
    for day, spec, day_tariff, kind, episodes in cases:
        encoder = StateEncoder.for_series(kind, day, spec)
        hp = Hyperparams(total_episodes=episodes, rng_seed=0)
        table, _ = train(day, spec, day_tariff, penalties, hp, encoder)
        next_level, reward = lattice_transition(
            spec, day.load, day.renewables, day.price, day_tariff.tiers, penalties
        )
        policy = np.array([
            [greedy_action(table, encoder.encode(h, level, day.load[h], day.pv[h]))
             for level in range(spec.soc_levels)]
            for h in range(24)
        ])
        optimum = _cyclic_day_optimum(next_level, reward, hp.discount_factor)
        achieved = _cyclic_day_policy_values(next_level, reward, hp.discount_factor, policy)
        np.testing.assert_allclose(achieved[0], optimum[0], rtol=1e-9, atol=0.0)


def test_train_log_schedules_per_episode(toy_problem, toy_encoder, toy_day):
    hp = Hyperparams(total_episodes=50, rng_seed=3)
    _, log = train(*toy_problem, hp, toy_encoder)
    assert len(log) == 50
    assert log.alphas[0] == 0.8
    assert log.alphas[1] == 0.7999
    assert all(0 <= d < toy_day.n_days for d in log.day_indices)
    assert all(0 <= lvl <= 10 for lvl in log.soc_levels)


def test_train_soc_reset_low_switch(toy_problem, toy_encoder):
    hp = Hyperparams(total_episodes=500, rng_seed=3, soc_reset_low=1)
    _, log = train(*toy_problem, hp, toy_encoder)
    assert min(log.soc_levels) >= 1


def test_greedy_policy_invariant_under_affine_rescale(toy_problem, toy_encoder):
    table, _ = train(*toy_problem, Hyperparams(total_episodes=3_000, rng_seed=8), toy_encoder)
    scaled = QTable(values=table.values * 3.0 + 7.0, encoder=table.encoder)
    for s in range(table.values.shape[0]):
        assert greedy_action(table, s) is greedy_action(scaled, s)


def test_train_rejects_mismatched_levels(toy_day, toy_tariff, toy_encoder):
    other_spec = BatterySpec(capacity_kwh=10.0, soc_levels=6)
    with pytest.raises(ValueError, match="levels"):
        train(toy_day, other_spec, toy_tariff, PenaltyTable(), Hyperparams(total_episodes=1),
              toy_encoder)


def test_train_refuses_the_wind_encoding_on_a_windless_series(synthetic_week, tariff):
    encoder = StateEncoder.for_series(
        EncodingKind.HOUR_SOC_LOAD_PV_WIND, synthetic_week, BatterySpec()
    )
    with pytest.raises(ValueError, match="^wind_kwh is None but the encoding requires a wind value$"):
        train(synthetic_week.without_wind(), BatterySpec(), tariff, PenaltyTable(),
              Hyperparams(total_episodes=1), encoder)


# ---------------------------------------------------------------- persistence


def test_qtable_round_trip(tmp_path, toy_problem, toy_encoder):
    hp = Hyperparams(total_episodes=1_000, rng_seed=17)
    table, _ = train(*toy_problem, hp, toy_encoder)
    path = tmp_path / "table.qt"
    save_qtable(table, path)
    back = load_qtable(path)
    assert np.array_equal(back.values, table.values)
    assert back.encoder == table.encoder
    assert back.hyperparams == hp


def test_qtable_file_deterministic(tmp_path, toy_problem, toy_encoder):
    hp = Hyperparams(total_episodes=500, rng_seed=17)
    table_a, _ = train(*toy_problem, hp, toy_encoder)
    table_b, _ = train(*toy_problem, hp, toy_encoder)
    a, b = tmp_path / "a.qt", tmp_path / "b.qt"
    save_qtable(table_a, a)
    save_qtable(table_b, b)
    assert a.read_bytes() == b.read_bytes()


# sha256 of each encoding's saved table: 300 episodes at seed 7 on the
# synthetic week, with `StateEncoder.for_series` defaults.
_QTABLE_SHA256 = {
    EncodingKind.HOUR_SOC: "a0bb803d4e21bb21f84914ff625fec1931d875680620de6df16ce1afc90dfcf3",
    EncodingKind.HOUR_SOC_LOAD_PV:
        "b8dc1258793338baa3d303be8c86f18dcb936d97f59039ecfbc59c94ed66b61e",
    EncodingKind.HOUR_SOC_LOAD_PV_WIND:
        "98b0952d70213125c0a29b3cd2e5b055e376919aeece6bd6e0f3a0047c8f749a",
}


@pytest.mark.parametrize("kind", list(EncodingKind), ids=lambda kind: kind.value)
def test_saved_qtable_bytes_are_pinned_per_encoding(kind, tmp_path, synthetic_week, tariff):
    """The header (encoder fields, dims, shape, hyperparams) and the payload
    of a saved table keep their bytes for every encoding."""
    encoder = StateEncoder.for_series(kind, synthetic_week, BatterySpec())
    table, _ = train(
        synthetic_week, BatterySpec(), tariff, PenaltyTable(),
        Hyperparams(total_episodes=300, rng_seed=7), encoder,
    )
    path = tmp_path / "table.qt"
    save_qtable(table, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _QTABLE_SHA256[kind]


def test_load_rejects_newer_format_version(tmp_path):
    path = tmp_path / "future.qt"
    header = (
        b'{"format": "farmbess-qtable", "format_version": 2, "encoding": {}, '
        b'"shape": [1, 3], "dtype": "<f8"}'
    )
    path.write_bytes(header + b"\n" + b"\x00" * 24)
    with pytest.raises(QTableFormatError, match="version 2"):
        load_qtable(path)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.qt"
    path.write_bytes(b"not a table\nxxxx")
    with pytest.raises(QTableFormatError):
        load_qtable(path)


def _saved_table(tmp_path, toy_problem, toy_encoder):
    table, _ = train(*toy_problem, Hyperparams(total_episodes=10, rng_seed=1), toy_encoder)
    path = tmp_path / "t.qt"
    save_qtable(table, path)
    header, _, payload = path.read_bytes().partition(b"\n")
    return path, header, payload


def test_load_rejects_object_dtype(tmp_path, toy_problem, toy_encoder):
    path, header, payload = _saved_table(tmp_path, toy_problem, toy_encoder)
    path.write_bytes(header.replace(b'"<f8"', b'"|O"') + b"\n" + payload)
    with pytest.raises(QTableFormatError, match=f"{path.name}.*dtype"):
        load_qtable(path)


def test_load_rejects_short_payload(tmp_path, toy_problem, toy_encoder):
    path, header, payload = _saved_table(tmp_path, toy_problem, toy_encoder)
    path.write_bytes(header + b"\n" + payload[:-8])
    with pytest.raises(QTableFormatError, match=f"{path.name}.*bytes"):
        load_qtable(path)


def test_load_rejects_non_finite_values(tmp_path, toy_problem, toy_encoder):
    path, header, payload = _saved_table(tmp_path, toy_problem, toy_encoder)
    nan = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(header + b"\n" + nan + payload[8:])
    with pytest.raises(QTableFormatError, match=f"{path.name}.*non-finite"):
        load_qtable(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_save_refuses_non_finite_values(tmp_path, toy_encoder, value):
    """A table that `load_qtable` would refuse is not written at all."""
    values = np.zeros((toy_encoder.size(), 3))
    values[5, 1] = value
    path = tmp_path / "t.qt"
    with pytest.raises(ValueError, match=f"^{path}: not written: the table holds non-finite values$"):
        save_qtable(QTable(values, toy_encoder), path)
    assert not path.exists()


@pytest.mark.parametrize("value", [b"-1", b'"11"', b"2.5", b"true", b"1", b"null"])
def test_load_rejects_bad_soc_levels(tmp_path, toy_problem, toy_encoder, value):
    path, header, payload = _saved_table(tmp_path, toy_problem, toy_encoder)
    assert header.count(b'"soc_levels": 11') == 1
    path.write_bytes(header.replace(b'"soc_levels": 11', b'"soc_levels": ' + value)
                     + b"\n" + payload)
    with pytest.raises(QTableFormatError, match=f"{path.name}.*soc_levels") as info:
        load_qtable(path)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "field, value",
    [("bin_count", b"true"), ("bin_count", b"2.5"), ("bin_count", b'"5"'), ("bin_count", b"0"),
     ("max_value", b'"20"'), ("max_value", b"Infinity"), ("max_value", b"true"),
     ("max_value", b"NaN"), ("max_value", b"0")],
)
def test_load_rejects_bad_bin_specs(tmp_path, synthetic_week, field, value):
    encoder = StateEncoder.for_series(EncodingKind.HOUR_SOC_LOAD_PV, synthetic_week, BatterySpec())
    path = tmp_path / "t.qt"
    save_qtable(QTable(np.zeros((encoder.size(), 3)), encoder), path)
    header, _, payload = path.read_bytes().partition(b"\n")
    data = json.loads(header)
    data["encoding"]["pv_bins"][field] = "VALUE"
    header = json.dumps(data, sort_keys=True).encode().replace(b'"VALUE"', value)
    path.write_bytes(header + b"\n" + payload)
    # A wrong type is refused by the field builder, a value out of range by
    # the BinSpec it builds.
    match = f"{path.name}: bad header \\(encoding\\.pv_bins(\\.|: ){field} must be"
    with pytest.raises(QTableFormatError, match=match) as info:
        load_qtable(path)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "field, value",
    [("decay", b"NaN"), ("floor", b"NaN"), ("total_episodes", b"2.5"),
     ("steps_per_episode", b"true"), ("rng_seed", b"1.0"), ("soc_reset_low", b'"1"'),
     ("learning_rate_init", b'"x"'), ("decay", b"true"), ("epsilon_init", b"[1]"),
     ("discount_factor", b"NaN")],
)
def test_load_rejects_bad_hyperparams(tmp_path, toy_problem, toy_encoder, field, value):
    path, header, payload = _saved_table(tmp_path, toy_problem, toy_encoder)
    data = json.loads(header)
    data["hyperparams"][field] = "VALUE"
    header = json.dumps(data, sort_keys=True).encode().replace(b'"VALUE"', value)
    path.write_bytes(header + b"\n" + payload)
    match = f"{path.name}: bad header \\(hyperparams\\.{field} must be"
    with pytest.raises(QTableFormatError, match=match) as info:
        load_qtable(path)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "field, value, message",
    [("floor", -0.5, "floor must be >= 0, got -0.5"),
     ("floor", math.nan, "floor must be >= 0, got nan"),
     ("decay", math.inf, "decay must be finite, got inf"),
     ("decay", math.nan, "decay must be >= 0")],
)
def test_hyperparams_refuse_a_negative_floor_and_a_non_finite_decay(field, value, message):
    """A floor below 0 trains on negative rates, and an infinite decay makes
    every rate inf * 0 = NaN from the first episode; NaN fails both checks."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        Hyperparams(**{field: value})


def test_load_refuses_a_header_floor_below_zero(tmp_path, toy_problem, toy_encoder):
    path, header, payload = _saved_table(tmp_path, toy_problem, toy_encoder)
    data = json.loads(header)
    data["hyperparams"]["floor"] = -0.5
    path.write_bytes(json.dumps(data, sort_keys=True).encode() + b"\n" + payload)
    with pytest.raises(QTableFormatError) as info:
        load_qtable(path)
    assert str(info.value) == f"{path}: bad header (hyperparams: floor must be >= 0, got -0.5)"


@pytest.mark.parametrize(
    "where", ["kind", "soc_levels", "load_bins", "pv_bins", "wind_bins", "pv_bins.max_value"]
)
def test_load_rejects_an_encoding_field_left_out(tmp_path, synthetic_week, where):
    """save_qtable writes every encoding field, so one left out is refused by
    name rather than given its default."""
    encoder = StateEncoder.for_series(EncodingKind.HOUR_SOC_LOAD_PV, synthetic_week, BatterySpec())
    path = tmp_path / "t.qt"
    save_qtable(QTable(np.zeros((encoder.size(), 3)), encoder), path)
    header, _, payload = path.read_bytes().partition(b"\n")
    data = json.loads(header)
    *parents, name = where.split(".")
    node = data["encoding"]
    for parent in parents:
        node = node[parent]
    del node[name]
    path.write_bytes(json.dumps(data).encode() + b"\n" + payload)
    with pytest.raises(QTableFormatError, match=f"{path.name}: bad header .*{name}") as info:
        load_qtable(path)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("header", [b"[1]", b'"x"', b"5", b"null"])
def test_load_rejects_header_that_is_not_an_object(tmp_path, header):
    path = tmp_path / "t.qt"
    path.write_bytes(header + b"\n" + b"\x00" * 24)
    with pytest.raises(QTableFormatError, match=f"{path.name}.*not a q-table"):
        load_qtable(path)


@st.composite
def _tables(draw):
    """A Q-table of any encoding kind, with random bin counts and maxes and
    arbitrary finite values."""
    kind = draw(st.sampled_from(EncodingKind))
    bins = lambda: BinSpec(
        draw(st.integers(1, 3)),
        draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
    )
    encoder = StateEncoder(
        kind=kind,
        soc_levels=draw(st.integers(2, 4)),
        load_bins=None if kind is EncodingKind.HOUR_SOC else bins(),
        pv_bins=None if kind is EncodingKind.HOUR_SOC else bins(),
        wind_bins=bins() if kind is EncodingKind.HOUR_SOC_LOAD_PV_WIND else None,
    )
    values = draw(arrays(np.float64, (encoder.size(), 3),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    hyperparams = draw(st.none() | st.builds(Hyperparams, rng_seed=st.integers(0, 2**31)))
    return QTable(values=values, encoder=encoder, hyperparams=hyperparams)


@settings(max_examples=40, deadline=None)
@given(table=_tables())
def test_qtable_save_load_round_trip_property(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("qt") / "t.qt"
    save_qtable(table, path)
    back = load_qtable(path)
    assert np.array_equal(back.values, table.values)
    assert back.encoder == table.encoder
    assert back.hyperparams == table.hyperparams
    again = path.with_name("again.qt")
    save_qtable(back, again)
    assert again.read_bytes() == path.read_bytes()


def _reference_log_text(log) -> str:
    """The text the row-at-a-time `TrainingLog.write_csv` wrote."""
    lines = ["episode,day_index,initial_soc_level,alpha,epsilon,episode_return"]
    for i in range(len(log)):
        lines.append(
            f"{i},{log.day_indices[i]},{log.soc_levels[i]},"
            f"{log.alphas[i]!r},{log.epsilons[i]!r},{log.episode_returns[i]!r}"
        )
    return "\n".join(lines) + "\n"


def test_training_log_csv(tmp_path, toy_problem, toy_encoder):
    _, log = train(*toy_problem, Hyperparams(total_episodes=20, rng_seed=2), toy_encoder)
    path = tmp_path / "log.csv"
    log.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode,day_index,initial_soc_level,alpha,epsilon,episode_return"
    assert len(lines) == 21
    assert path.read_bytes() == _reference_log_text(log).encode("utf-8")


def test_training_log_csv_bytes_match_the_row_writer(tmp_path):
    # Built like a log of random episodes: int64 counters and float64 columns
    # with values whose repr switches to exponent form, and a negative zero.
    rng = np.random.default_rng(3)
    n = 40
    odd = np.resize([1e-05, 1e16, -0.0, 0.1, -2.5e-300], n)
    log = TrainingLog(
        day_indices=rng.integers(0, 182, n),
        soc_levels=rng.integers(0, 11, n),
        alphas=np.linspace(0.8, 0.1, n),
        epsilons=odd,
        episode_returns=rng.normal(-5.0, 2.0, n) * odd,
    )
    path = tmp_path / "log.csv"
    log.write_csv(path)
    assert path.read_bytes() == _reference_log_text(log).encode("utf-8")


def _random_log(n: int) -> TrainingLog:
    rng = np.random.default_rng(8)
    return TrainingLog(
        day_indices=rng.integers(0, 365, n),
        soc_levels=rng.integers(0, 11, n),
        alphas=np.linspace(0.8, 0.1, n),
        epsilons=np.linspace(0.8, 0.1, n),
        episode_returns=rng.normal(-5.0, 2.0, n),
    )


def test_training_log_csv_bytes_hold_across_chunks(tmp_path):
    """Rows are written a chunk at a time; logs ending one row short of, on
    and one row past a chunk edge, and one spanning three chunks, write the
    row writer's bytes."""
    chunk = ioutil._CHUNK_ROWS
    for n in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        log = _random_log(n)
        path = tmp_path / f"log{n}.csv"
        log.write_csv(path)
        assert path.read_bytes() == _reference_log_text(log).encode("utf-8")


def test_training_log_csv_streams_its_rows(tmp_path):
    """A 50,000-row log (about 5 MB of text) is written without holding
    its whole text: the traced peak stays under 5 MB, where joining every
    row peaked near 15 MB."""
    log = _random_log(50_000)
    path = tmp_path / "log.csv"
    tracemalloc.start()
    try:
        log.write_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 2_500_000
    assert peak < 5_000_000


# Any finite float64: Hypothesis's own floats, which favour both zeros and
# the extremes, or a float drawn by its bits, which is mostly subnormal or in
# exponent form.
_finite_float64s = st.floats(allow_nan=False, allow_infinity=False) | st.integers(
    0, 2**64 - 1
).map(lambda bits: np.uint64(bits).view(np.float64).item()).filter(math.isfinite)


@st.composite
def _training_logs(draw):
    n = draw(st.integers(0, 20))
    ints = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)
    floats = st.lists(_finite_float64s, min_size=n, max_size=n)
    return TrainingLog(
        day_indices=np.array(draw(ints), dtype=np.int64),
        soc_levels=np.array(draw(ints), dtype=np.int64),
        alphas=np.array(draw(floats), dtype=np.float64),
        epsilons=np.array(draw(floats), dtype=np.float64),
        episode_returns=np.array(draw(floats), dtype=np.float64),
    )


@settings(max_examples=100, deadline=None)
@given(log=_training_logs())
def test_training_log_csv_bytes_match_the_row_writer_on_any_values(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("log") / "log.csv"
    log.write_csv(path)
    assert path.read_bytes() == _reference_log_text(log).encode("utf-8")
