"""Tabular Q-learning: greedy action selection, linear decay schedules, the
day-episode training loop, and Q-table persistence."""

from __future__ import annotations

import json
import random
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .battery import Action, BatterySpec, PenaltyTable, transition
from .encoding import _EDGE_SNAP, StateEncoder, soc_level_energy
from .ioutil import atomic_write_bytes, atomic_write_rows
from .timeseries import HourlySeries, TariffSchedule

QTABLE_MAGIC = "farmbess-qtable"
QTABLE_FORMAT_VERSION = 1


# The actions in index order, so a greedy pick is a tuple lookup rather than
# an enum call.
_ACTIONS = tuple(Action)


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
        # Written so that NaN fails each comparison.
        if not self.decay >= 0:
            raise ValueError("decay must be >= 0")
        # An infinite decay makes the first episode's rates inf * 0, NaN.
        if not self.decay <= sys.float_info.max:
            raise ValueError(f"decay must be finite, got {self.decay}")
        if not self.floor >= 0:
            raise ValueError(f"floor must be >= 0, got {self.floor}")
        if not (self.floor <= self.learning_rate_init and self.floor <= self.epsilon_init):
            raise ValueError("floor must not exceed the initial rates")
        if self.total_episodes < 0:
            raise ValueError(f"total_episodes must be >= 0, got {self.total_episodes}")
        if self.steps_per_episode < 1:
            raise ValueError(f"steps_per_episode must be >= 1, got {self.steps_per_episode}")
        if self.soc_reset_low < 0:
            raise ValueError("soc_reset_low must be >= 0")


@dataclass
class QTable:
    """Dense action-value table over an encoder's flat state space."""

    values: np.ndarray  # shape (encoder.size(), 3)
    encoder: StateEncoder
    hyperparams: Hyperparams | None = None


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
        """Write one CSV row per episode. A non-finite rate or return (an
        episode whose summed reward overflowed) is refused in a ValueError
        naming the file, and nothing is written."""
        # The pinned logs hold numpy's float64 scalar repr, `np.float64(x)`
        # under numpy 2 and bare `x` under 1.x: the float's own repr inside a
        # wrapper taken from numpy, which costs less than each scalar's repr.
        value = repr(np.float64(0.5)).replace("0.5", "{!r}")
        row = f"{{}},{{}},{{}},{value},{value},{value}"
        header = "episode,day_index,initial_soc_level,alpha,epsilon,episode_return"
        ints = (range(len(self)), self.day_indices, self.soc_levels)
        floats = (self.alphas, self.epsilons, self.episode_returns)
        atomic_write_rows(path, header, row, (*ints, *floats))


def greedy_action(q: QTable, state: int) -> Action:
    """Argmax over the three action values; ties go to the lowest action
    index (charge < discharge < idle)."""
    row = q.values[state]
    best = 0
    if row[1] > row[best]:
        best = 1
    if row[2] > row[best]:
        best = 2
    return _ACTIONS[best]


def decayed(initial: float, decay: float, floor: float, steps: int) -> float:
    """Schedule value after the given number of decay steps, in closed form
    so repeated application cannot accumulate rounding drift."""
    return max(initial - steps * decay, floor)


def _randbelow(getrandbits, n: int) -> int:
    """A uniform integer in [0, n) for n > 0, drawn as
    `random.Random.randrange(n)` draws it: n.bit_length() random bits,
    redrawn while they reach n."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def train(
    series: HourlySeries,
    spec: BatterySpec,
    tariff: TariffSchedule,
    penalties: PenaltyTable,
    hyperparams: Hyperparams,
    encoder: StateEncoder,
) -> tuple[QTable, TrainingLog]:
    """Run day-long training episodes on the series, scored under the
    battery spec, the tariff and the shaping penalties.

    Each episode starts at hour 0 of a uniformly sampled day at a sampled
    charge level's energy, runs steps_per_episode epsilon-greedy steps with
    TD updates (the state after the series' last hour is read at its first
    hour), then decays alpha and epsilon once. A single seeded
    generator drives day sampling, charge sampling, and exploration, in that
    order, so runs are bit-reproducible. Its integers come from `_randbelow`,
    the rejection loop that `randrange` runs, so the stream is the one
    `randrange` would give.
    """
    if encoder.soc_levels != spec.soc_levels:
        raise ValueError(
            f"encoder has {encoder.soc_levels} charge levels but the battery spec has {spec.soc_levels}"
        )

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
    tiers = tariff.tiers * series.n_days
    # Only the states the series can reach get a row: reached context k owns
    # soc_levels contiguous rows, so series hour i at charge level s is row
    # rows[i] + s, and flat state states[contexts[i], s] of the dense table.
    states, contexts = encoder.reached(series)
    rows = [k * levels for k in contexts]
    q = [[0.0, 0.0, 0.0] for _ in range(states.size)]
    energies = [soc_level_energy(spec, s) for s in range(levels)]
    n_days = series.n_days
    limits = spec.limits
    gamma = hp.discount_factor
    steps = hp.steps_per_episode
    capacity = spec.capacity_kwh
    below_edge = 1.0 - _EDGE_SNAP

    rng = random.Random(hp.rng_seed)
    rng_random = rng.random
    getrandbits = rng.getrandbits
    n_starts = levels - reset_low

    log_days = np.empty(hp.total_episodes, dtype=np.int64)
    log_levels = np.empty(hp.total_episodes, dtype=np.int64)
    log_alphas = np.empty(hp.total_episodes)
    log_epsilons = np.empty(hp.total_episodes)
    log_returns = np.empty(hp.total_episodes)

    for episode in range(hp.total_episodes):
        alpha = decayed(hp.learning_rate_init, hp.decay, hp.floor, episode)
        epsilon = decayed(hp.epsilon_init, hp.decay, hp.floor, episode)
        day = _randbelow(getrandbits, n_days)
        level = reset_low + _randbelow(getrandbits, n_starts)
        energy = energies[level]
        episode_return = 0.0
        position = day * 24
        row = q[rows[position] + level]
        for _ in range(steps):
            if rng_random() < epsilon:
                # _randbelow(getrandbits, 3), inlined.
                action = getrandbits(2)
                while action == 3:
                    action = getrandbits(2)
            else:
                action = 0
                if row[1] > row[action]:
                    action = 1
                if row[2] > row[action]:
                    action = 2
            idx = position % n_hours
            _, _, _, _, _, energy, _, _, reward = transition(
                limits, energy, loads[idx], renews[idx], prices[idx], tiers[idx], action, None,
                penalties,
            )
            # soc_bin(spec, energy), inlined in its order of operations.
            x = energy / capacity * top
            soc = int(x)
            if x - soc > below_edge:
                soc += 1
            if soc > top:
                soc = top
            position += 1
            nrow = q[rows[position % n_hours] + soc]
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

    values = np.zeros((encoder.size(), len(Action)))
    values[states.ravel()] = q
    table = QTable(values=values, encoder=encoder, hyperparams=hp)
    log = TrainingLog(
        day_indices=log_days,
        soc_levels=log_levels,
        alphas=log_alphas,
        epsilons=log_epsilons,
        episode_returns=log_returns,
    )
    return table, log


def save_qtable(q: QTable, path: str | Path) -> None:
    """Write a Q-table as a one-line JSON header followed by raw row-major
    little-endian float64 values. The format is versioned and deterministic:
    identical tables produce byte-identical files. A table holding a
    non-finite value, which `load_qtable` refuses, is not written."""
    if not np.isfinite(q.values).all():
        raise ValueError(f"{path}: not written: the table holds non-finite values")
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


def load_qtable(path: str | Path) -> QTable:
    """Read a Q-table written by save_qtable, with the encoding it was
    trained under."""
    # Imported here: config imports this module.
    from .config import _build

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
    # Checked by type as well: True and 1.0 compare equal to 1.
    if type(version) is not int or version != QTABLE_FORMAT_VERSION:
        raise QTableFormatError(
            f"{path}: format version {version!r} is not supported "
            f"(this build reads version {QTABLE_FORMAT_VERSION})"
        )
    try:
        encoder = _build(StateEncoder, header["encoding"], "encoding")
        # save_qtable writes every field, so none may take its default.
        missing = [f.name for f in fields(StateEncoder) if f.name not in header["encoding"]]
        if missing:
            raise ValueError(f"encoding.{missing[0]} is missing")
        shape = tuple(header["shape"])
        hp = header.get("hyperparams")
        hyperparams = None if hp is None else _build(Hyperparams, hp, "hyperparams")
    except (KeyError, TypeError, ValueError) as exc:
        raise QTableFormatError(f"{path}: bad header ({exc})") from None
    # Compared as JSON text, so that 11.0 or true does not pass for an int.
    dims = [list(d) for d in encoder.dims()]
    if json.dumps(header.get("dims")) != json.dumps(dims):
        raise QTableFormatError(
            f"{path}: header dims {header.get('dims')!r} do not match the encoding's {dims}"
        )
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
    return QTable(values=values.copy(), encoder=encoder, hyperparams=hyperparams)
