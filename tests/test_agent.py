"""Q-learning mechanics: selection, TD updates, decay schedules, the training
loop, and Q-table persistence."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from farmbess import (
    Action,
    BatteryEnv,
    BatterySpec,
    EncodingKind,
    Hyperparams,
    QTable,
    StateEncoder,
    decayed,
    greedy_action,
    load_qtable,
    save_qtable,
    select_action,
    soc_bin,
    soc_level_energy,
    td_update,
    train,
    transition,
)
from farmbess.agent import QTableFormatError
from farmbess.encoding import BinSpec


def _table(values_row=None) -> QTable:
    encoder = StateEncoder(kind=EncodingKind.HOUR_SOC)
    q = QTable.zeros(encoder)
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
def toy_env(toy_day, toy_spec, toy_tariff):
    return BatteryEnv(toy_day, toy_spec, toy_tariff)


@pytest.fixture()
def toy_encoder(toy_day, toy_spec):
    return StateEncoder.for_series(EncodingKind.HOUR_SOC, toy_day, toy_spec)


def test_train_zero_episodes_returns_zero_table(toy_env, toy_encoder):
    table, log = train(toy_env, Hyperparams(total_episodes=0, rng_seed=0), toy_encoder)
    assert table.values.shape == (264, 3)
    assert np.all(table.values == 0.0)
    assert len(log) == 0


def test_train_deterministic_bit_identical(toy_env, toy_encoder, toy_day, toy_spec, toy_tariff):
    hp = Hyperparams(total_episodes=2_000, rng_seed=31)
    a, log_a = train(toy_env, hp, toy_encoder)
    b, log_b = train(BatteryEnv(toy_day, toy_spec, toy_tariff), hp, toy_encoder)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(log_a.episode_returns, log_b.episode_returns)


def test_train_seeds_differ(toy_env, toy_encoder, toy_day, toy_spec, toy_tariff):
    a, _ = train(toy_env, Hyperparams(total_episodes=2_000, rng_seed=1), toy_encoder)
    b, _ = train(
        BatteryEnv(toy_day, toy_spec, toy_tariff),
        Hyperparams(total_episodes=2_000, rng_seed=2),
        toy_encoder,
    )
    assert not np.array_equal(a.values, b.values)


def _reference_train(env, hp, encoder):
    """train() spelled out with the public ops: transition steps the battery,
    soc_bin and encode index the state, select_action and td_update learn.
    The state after the series' last hour is read at the series' first hour."""
    spec, records = env.spec, env.series.records
    q = QTable.zeros(encoder)
    rng = random.Random(hp.rng_seed)

    def state(position, energy):
        record = records[position % len(records)]
        return encoder.encode(record.hour_of_day, soc_bin(spec, energy),
                              record.load_kwh, record.pv_kwh, record.wind_kwh)

    for episode in range(hp.total_episodes):
        alpha = decayed(hp.learning_rate_init, hp.decay, hp.floor, episode)
        epsilon = decayed(hp.epsilon_init, hp.decay, hp.floor, episode)
        position = rng.randrange(env.series.n_days) * 24
        energy = soc_level_energy(spec, rng.randrange(hp.soc_reset_low, spec.soc_levels))
        current = state(position, energy)
        for _ in range(hp.steps_per_episode):
            action = select_action(q, current, epsilon, rng)
            record = records[position % len(records)]
            *_, energy, _, _, reward = transition(
                spec.limits, energy, record.load_kwh, record.renewables_kwh,
                record.price_per_kwh, env.tariff.tier_of(record.hour_of_day),
                action, None, env.penalties,
            )
            position += 1
            following = state(position, energy)
            td_update(q, current, action, reward, following,
                      alpha=alpha, discount=hp.discount_factor)
            current = following
    return q


def test_train_matches_public_op_composition(toy_env, toy_encoder):
    """The optimized loop and the public ops are the same algorithm on the
    one-day toy series, where every episode's last step wraps to hour 0:
    the reference reproduces train()'s table bit for bit."""
    hp = Hyperparams(total_episodes=300, rng_seed=13)
    trained, _ = train(toy_env, hp, toy_encoder)
    assert np.array_equal(trained.values, _reference_train(toy_env, hp, toy_encoder).values)


@pytest.mark.parametrize("kind", list(EncodingKind), ids=lambda kind: kind.value)
def test_train_matches_public_op_composition_per_encoding(kind, synthetic_week, tariff):
    """train()'s per-hour bases plus charge-level stride index the same
    states as encode, for every encoding, on a week with wind."""
    env = BatteryEnv(synthetic_week, BatterySpec(), tariff)
    # The synthetic wind stays within 5 % of its mean: with 5 bins every hour
    # lands in the top one, with 20 the hours split between the top two.
    encoder = StateEncoder.for_series(kind, synthetic_week, env.spec, bin_counts=(5, 5, 20))
    hp = Hyperparams(total_episodes=400, rng_seed=13)
    trained, _ = train(env, hp, encoder)
    assert np.array_equal(trained.values, _reference_train(env, hp, encoder).values)


def test_train_q_values_bounded(toy_env, toy_encoder, toy_day, toy_spec, toy_tariff):
    hp = Hyperparams(total_episodes=5_000, rng_seed=5)
    table, _ = train(toy_env, hp, toy_encoder)
    assert np.all(np.isfinite(table.values))
    # |reward| <= max penalty + max hourly cost on the toy day
    max_cost = max(r.load_kwh * r.price_per_kwh for r in toy_day) + \
        toy_spec.charge_rate_kw * max(r.price_per_kwh for r in toy_day)
    bound = (15.0 + max_cost) / (1 - hp.discount_factor) + 1e-9
    assert np.max(np.abs(table.values)) <= bound


def test_train_log_schedules_per_episode(toy_env, toy_encoder):
    hp = Hyperparams(total_episodes=50, rng_seed=3)
    _, log = train(toy_env, hp, toy_encoder)
    assert len(log) == 50
    assert log.alphas[0] == 0.8
    assert log.alphas[1] == 0.7999
    assert all(0 <= d < toy_env.series.n_days for d in log.day_indices)
    assert all(0 <= lvl <= 10 for lvl in log.soc_levels)


def test_train_soc_reset_low_switch(toy_env, toy_encoder):
    hp = Hyperparams(total_episodes=500, rng_seed=3, soc_reset_low=1)
    _, log = train(toy_env, hp, toy_encoder)
    assert min(log.soc_levels) >= 1


def test_greedy_policy_invariant_under_affine_rescale(toy_env, toy_encoder):
    table, _ = train(toy_env, Hyperparams(total_episodes=3_000, rng_seed=8), toy_encoder)
    scaled = QTable(values=table.values * 3.0 + 7.0, encoder=table.encoder)
    for s in range(table.values.shape[0]):
        assert greedy_action(table, s) is greedy_action(scaled, s)


def test_train_rejects_mismatched_levels(toy_day, toy_tariff, toy_encoder):
    other_spec = BatterySpec(capacity_kwh=10.0, soc_levels=6)
    env = BatteryEnv(toy_day, other_spec, toy_tariff)
    with pytest.raises(ValueError, match="levels"):
        train(env, Hyperparams(total_episodes=1), toy_encoder)


# ---------------------------------------------------------------- persistence


def test_qtable_round_trip(tmp_path, toy_env, toy_encoder):
    hp = Hyperparams(total_episodes=1_000, rng_seed=17)
    table, _ = train(toy_env, hp, toy_encoder)
    path = tmp_path / "table.qt"
    save_qtable(table, path)
    back = load_qtable(path)
    assert np.array_equal(back.values, table.values)
    assert back.encoder == table.encoder
    assert back.hyperparams == hp


def test_qtable_file_deterministic(tmp_path, toy_env, toy_encoder, toy_day, toy_spec, toy_tariff):
    hp = Hyperparams(total_episodes=500, rng_seed=17)
    table_a, _ = train(toy_env, hp, toy_encoder)
    table_b, _ = train(BatteryEnv(toy_day, toy_spec, toy_tariff), hp, toy_encoder)
    a, b = tmp_path / "a.qt", tmp_path / "b.qt"
    save_qtable(table_a, a)
    save_qtable(table_b, b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_wrong_encoding(tmp_path, toy_env, toy_encoder):
    table, _ = train(toy_env, Hyperparams(total_episodes=10, rng_seed=1), toy_encoder)
    path = tmp_path / "t.qt"
    save_qtable(table, path)
    other = StateEncoder(
        kind=EncodingKind.HOUR_SOC_LOAD_PV,
        load_bins=BinSpec(5, 10.0),
        pv_bins=BinSpec(5, 10.0),
    )
    with pytest.raises(QTableFormatError, match="does not match"):
        load_qtable(path, expected_encoder=other)


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


def _saved_table(tmp_path, toy_env, toy_encoder):
    table, _ = train(toy_env, Hyperparams(total_episodes=10, rng_seed=1), toy_encoder)
    path = tmp_path / "t.qt"
    save_qtable(table, path)
    header, _, payload = path.read_bytes().partition(b"\n")
    return path, header, payload


def test_load_rejects_object_dtype(tmp_path, toy_env, toy_encoder):
    path, header, payload = _saved_table(tmp_path, toy_env, toy_encoder)
    path.write_bytes(header.replace(b'"<f8"', b'"|O"') + b"\n" + payload)
    with pytest.raises(QTableFormatError, match=f"{path.name}.*dtype"):
        load_qtable(path)


def test_load_rejects_short_payload(tmp_path, toy_env, toy_encoder):
    path, header, payload = _saved_table(tmp_path, toy_env, toy_encoder)
    path.write_bytes(header + b"\n" + payload[:-8])
    with pytest.raises(QTableFormatError, match=f"{path.name}.*bytes"):
        load_qtable(path)


def test_load_rejects_non_finite_values(tmp_path, toy_env, toy_encoder):
    path, header, payload = _saved_table(tmp_path, toy_env, toy_encoder)
    nan = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(header + b"\n" + nan + payload[8:])
    with pytest.raises(QTableFormatError, match=f"{path.name}.*non-finite"):
        load_qtable(path)


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
    back = load_qtable(path, expected_encoder=table.encoder)
    assert np.array_equal(back.values, table.values)
    assert back.encoder == table.encoder
    assert back.hyperparams == table.hyperparams
    again = path.with_name("again.qt")
    save_qtable(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_training_log_csv(tmp_path, toy_env, toy_encoder):
    _, log = train(toy_env, Hyperparams(total_episodes=20, rng_seed=2), toy_encoder)
    path = tmp_path / "log.csv"
    log.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode,day_index,initial_soc_level,alpha,epsilon,episode_return"
    assert len(lines) == 21
