"""Tabular Q-learning: action selection, the TD update, linear decay
schedules, the day-episode training loop, and Q-table persistence."""

from __future__ import annotations

import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .battery import Action, BatteryEnv, transition
from .encoding import BinSpec, EncodingKind, StateEncoder, soc_level_energy
from .ioutil import atomic_write_bytes, atomic_write_text

QTABLE_MAGIC = "farmbess-qtable"
QTABLE_FORMAT_VERSION = 1


class QTableFormatError(ValueError):
    """Raised when a Q-table file cannot be read back."""


@dataclass(frozen=True)
class Hyperparams:
    """Training-loop knobs; the decay schedules are linear with a floor."""

    learning_rate_init: float = 0.8
    epsilon_init: float = 0.8
    discount_factor: float = 0.9
    decay: float = 0.0001
    floor: float = 0.1
    total_episodes: int = 1_000_000
    steps_per_episode: int = 24
    rng_seed: int = 0
    # 0 samples initial charge uniformly over all levels; 1 reproduces the
    # reset range that skips the empty level.
    soc_reset_low: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate_init <= 1:
            raise ValueError("learning_rate_init must be in (0, 1]")
        if not 0 <= self.epsilon_init <= 1:
            raise ValueError("epsilon_init must be in [0, 1]")
        if not 0 <= self.discount_factor < 1:
            raise ValueError("discount_factor must be in [0, 1)")
        if self.decay < 0:
            raise ValueError("decay must be >= 0")
        if self.floor > self.learning_rate_init or self.floor > self.epsilon_init:
            raise ValueError("floor must not exceed the initial rates")
        if self.total_episodes < 0 or self.steps_per_episode <= 0:
            raise ValueError("episode counts must be positive")
        if self.soc_reset_low < 0:
            raise ValueError("soc_reset_low must be >= 0")


@dataclass
class QTable:
    """Dense action-value table over an encoder's flat state space."""

    values: np.ndarray  # shape (encoder.size(), 3)
    encoder: StateEncoder
    hyperparams: Hyperparams | None = None

    @classmethod
    def zeros(cls, encoder: StateEncoder, hyperparams: Hyperparams | None = None) -> "QTable":
        return cls(
            values=np.zeros((encoder.size(), len(Action))),
            encoder=encoder,
            hyperparams=hyperparams,
        )


@dataclass
class TrainingLog:
    """One row per episode: where it started and how it went."""

    day_indices: np.ndarray
    soc_levels: np.ndarray
    alphas: np.ndarray
    epsilons: np.ndarray
    episode_returns: np.ndarray

    def __len__(self) -> int:
        return len(self.episode_returns)

    def write_csv(self, path: str | Path) -> None:
        lines = ["episode,day_index,initial_soc_level,alpha,epsilon,episode_return"]
        for i in range(len(self)):
            lines.append(
                f"{i},{self.day_indices[i]},{self.soc_levels[i]},"
                f"{self.alphas[i]!r},{self.epsilons[i]!r},{self.episode_returns[i]!r}"
            )
        atomic_write_text(path, "\n".join(lines) + "\n")


def greedy_action(q: QTable, state: int) -> Action:
    """Argmax over the three action values; ties go to the lowest action
    index (charge < discharge < idle)."""
    row = q.values[state]
    best = 0
    if row[1] > row[best]:
        best = 1
    if row[2] > row[best]:
        best = 2
    return Action(best)


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


def decayed(initial: float, decay: float, floor: float, steps: int) -> float:
    """Schedule value after the given number of decay steps, in closed form
    so repeated application cannot accumulate rounding drift."""
    return max(initial - steps * decay, floor)


def train(
    env: BatteryEnv, hyperparams: Hyperparams, encoder: StateEncoder
) -> tuple[QTable, TrainingLog]:
    """Run day-long training episodes on the env's series.

    Each episode starts at hour 0 of a uniformly sampled day at a sampled
    charge level's energy, runs steps_per_episode epsilon-greedy steps with
    TD updates (the state after the series' last hour is read at its first
    hour), then decays alpha and epsilon once. A single seeded
    generator drives day sampling, charge sampling, and exploration, in that
    order, so runs are bit-reproducible.
    """
    spec = env.spec
    if encoder.soc_levels != spec.soc_levels:
        raise ValueError(
            f"encoder has {encoder.soc_levels} charge levels but the battery spec has {spec.soc_levels}"
        )
    series = env.series
    if encoder.kind is EncodingKind.HOUR_SOC_LOAD_PV_WIND and not series.has_wind:
        raise ValueError("wind encoding requires a series with wind data")

    hp = hyperparams
    levels = spec.soc_levels
    top = levels - 1
    reset_low = hp.soc_reset_low
    if reset_low > top:
        raise ValueError(f"soc_reset_low {reset_low} exceeds the top charge level {top}")

    # Per-hour scalars taken from the columns once; the loop below touches
    # only these lists.
    n_hours = len(series)
    loads = series.load.tolist()
    renews = series.renewables.tolist()
    prices = series.price.tolist()
    tier_of_hour = [env.tariff.tier_of(h) for h in range(24)]
    tiers = [tier_of_hour[i % 24] for i in range(n_hours)]
    # The state of series hour i at charge level s is bases[i] + s * stride.
    pvs = series.pv.tolist()
    winds = series.wind.tolist() if series.has_wind else [None] * n_hours
    bases = [encoder.encode(i % 24, 0, loads[i], pvs[i], winds[i]) for i in range(n_hours)]
    size = encoder.size()
    stride = size // (24 * levels)

    q = [[0.0, 0.0, 0.0] for _ in range(size)]
    limits = spec.limits
    pen = env.penalties
    gamma = hp.discount_factor
    steps = hp.steps_per_episode
    bin_scale = top / spec.capacity_kwh

    rng = random.Random(hp.rng_seed)
    rng_random = rng.random
    rng_randrange = rng.randrange

    log_days = np.empty(hp.total_episodes, dtype=np.int64)
    log_levels = np.empty(hp.total_episodes, dtype=np.int64)
    log_alphas = np.empty(hp.total_episodes)
    log_epsilons = np.empty(hp.total_episodes)
    log_returns = np.empty(hp.total_episodes)

    for episode in range(hp.total_episodes):
        alpha = decayed(hp.learning_rate_init, hp.decay, hp.floor, episode)
        epsilon = decayed(hp.epsilon_init, hp.decay, hp.floor, episode)
        day = rng_randrange(series.n_days)
        level = rng_randrange(reset_low, levels)
        energy = soc_level_energy(spec, level)
        episode_return = 0.0
        position = day * 24
        row = q[bases[position] + level * stride]
        for _ in range(steps):
            if rng_random() < epsilon:
                action = rng_randrange(3)
            else:
                action = 0
                if row[1] > row[action]:
                    action = 1
                if row[2] > row[action]:
                    action = 2
            idx = position % n_hours
            _, _, _, _, _, energy, _, _, reward = transition(
                limits, energy, loads[idx], renews[idx], prices[idx], tiers[idx], action, None, pen
            )
            x = energy * bin_scale
            soc = int(x)
            if x - soc > 1.0 - 1e-9:
                soc += 1
            if soc > top:
                soc = top
            position += 1
            nrow = q[bases[position % n_hours] + soc * stride]
            bootstrap = nrow[0]
            if nrow[1] > bootstrap:
                bootstrap = nrow[1]
            if nrow[2] > bootstrap:
                bootstrap = nrow[2]
            row[action] += alpha * (reward + gamma * bootstrap - row[action])
            episode_return += reward
            row = nrow
        log_days[episode] = day
        log_levels[episode] = level
        log_alphas[episode] = alpha
        log_epsilons[episode] = epsilon
        log_returns[episode] = episode_return

    table = QTable(values=np.array(q, dtype=np.float64), encoder=encoder, hyperparams=hp)
    if size and table.values.shape != (size, 3):
        raise AssertionError("q-table shape drifted from the encoder size")
    log = TrainingLog(
        day_indices=log_days,
        soc_levels=log_levels,
        alphas=log_alphas,
        epsilons=log_epsilons,
        episode_returns=log_returns,
    )
    return table, log


def _encoder_from_json(data: dict) -> StateEncoder:
    bins = {
        name: None if data[name] is None else BinSpec(**data[name])
        for name in ("load_bins", "pv_bins", "wind_bins")
    }
    return StateEncoder(kind=EncodingKind(data["kind"]), soc_levels=data["soc_levels"], **bins)


def save_qtable(q: QTable, path: str | Path) -> None:
    """Write a Q-table as a one-line JSON header followed by raw row-major
    little-endian float64 values. The format is versioned and deterministic:
    identical tables produce byte-identical files."""
    header = {
        "format": QTABLE_MAGIC,
        "format_version": QTABLE_FORMAT_VERSION,
        "encoding": {**asdict(q.encoder), "kind": q.encoder.kind.value},
        "dims": [list(d) for d in q.encoder.dims()],
        "shape": list(q.values.shape),
        "dtype": "<f8",
        "hyperparams": asdict(q.hyperparams) if q.hyperparams else None,
    }
    payload = np.ascontiguousarray(q.values, dtype="<f8").tobytes()
    atomic_write_bytes(
        path, json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
    )


def load_qtable(path: str | Path, expected_encoder: StateEncoder | None = None) -> QTable:
    """Read a Q-table written by save_qtable.

    When expected_encoder is given, the stored encoding must match it
    exactly; a mismatch (different kind, levels, or bins) is an error.
    """
    raw = Path(path).read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise QTableFormatError(f"{path}: not a q-table file (missing header)")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise QTableFormatError(f"{path}: not a q-table file (bad header)") from None
    if not isinstance(header, dict) or header.get("format") != QTABLE_MAGIC:
        raise QTableFormatError(f"{path}: not a q-table file")
    version = header.get("format_version")
    if version != QTABLE_FORMAT_VERSION:
        raise QTableFormatError(
            f"{path}: format version {version} is not supported "
            f"(this build reads version {QTABLE_FORMAT_VERSION})"
        )
    try:
        encoder = _encoder_from_json(header["encoding"])
        shape = tuple(header["shape"])
        hp = header.get("hyperparams")
        hyperparams = Hyperparams(**hp) if hp else None
    except (KeyError, TypeError, ValueError) as exc:
        raise QTableFormatError(f"{path}: bad header ({exc})") from None
    expected_shape = (encoder.size(), len(Action))
    if shape != expected_shape:
        raise QTableFormatError(
            f"{path}: stored shape {shape} does not match encoding size {expected_shape}"
        )
    if header.get("dtype") != "<f8":
        raise QTableFormatError(f"{path}: dtype {header.get('dtype')!r} is not '<f8'")
    payload_bytes = len(raw) - newline - 1
    if payload_bytes != 8 * shape[0] * shape[1]:
        raise QTableFormatError(
            f"{path}: payload holds {payload_bytes} bytes, shape {shape} needs "
            f"{8 * shape[0] * shape[1]}"
        )
    values = np.frombuffer(raw, dtype="<f8", offset=newline + 1).reshape(shape)
    if not np.isfinite(values).all():
        raise QTableFormatError(f"{path}: payload holds non-finite values")
    if expected_encoder is not None and encoder != expected_encoder:
        raise QTableFormatError(
            f"{path}: stored encoding {encoder.kind.value} with dims "
            f"{encoder.dims()} does not match the configured encoding "
            f"{expected_encoder.kind.value} with dims {expected_encoder.dims()}"
        )
    return QTable(values=values.copy(), encoder=encoder, hyperparams=hyperparams)
