"""Battery dispatch physics and the penalty-shaped reward: the hourly MDP a
controller interacts with.

`transition` is the single step kernel: it turns one hour's charge, demand,
supply, price and tariff tier plus an action into the energy flows, the next
charge, the shaping penalty and the reward. `apply_action`, the training
loop and rollouts call it; `day_return` is minus a rollout's cost.
`lattice_transition` is its uncapped array form over a day's whole charge
lattice, which the DP oracle calls once per day with no shaping: the oracle
and `day_return` score grid cost alone.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields
from enum import IntEnum
from typing import Sequence

import numpy as np

from .encoding import _soc_bins, soc_level_energy
from .timeseries import Tier


class Action(IntEnum):
    CHARGE = 0
    DISCHARGE = 1
    IDLE = 2


@dataclass(frozen=True)
class BatterySpec:
    """Physical battery limits plus the charge-level discretization."""

    capacity_kwh: float = 13.5
    charge_rate_kw: float = 5.0
    discharge_rate_kw: float = 5.0
    reserve_fraction: float = 0.1
    soc_levels: int = 11

    def __post_init__(self) -> None:
        # Written so that NaN fails each comparison.
        if not self.capacity_kwh > 0:
            raise ValueError(f"capacity_kwh must be > 0, got {self.capacity_kwh}")
        if not self.capacity_kwh <= sys.float_info.max:
            raise ValueError(f"capacity_kwh must be finite, got {self.capacity_kwh}")
        if not (self.charge_rate_kw > 0 and self.discharge_rate_kw > 0):
            raise ValueError("charge_rate_kw and discharge_rate_kw must be > 0")
        if not 0 <= self.reserve_fraction < 1:
            raise ValueError(
                f"reserve_fraction must be in [0, 1), got {self.reserve_fraction}"
            )
        if not self.soc_levels >= 2:
            raise ValueError(f"soc_levels must be >= 2, got {self.soc_levels}")
        # Compared, not converted: a level count too large for a float is refused.
        if self.soc_levels > sys.float_info.max:
            raise ValueError(f"soc_levels must be at most {sys.float_info.max:g}")

    @property
    def soc_min_kwh(self) -> float:
        """Discharge floor: the reserve the battery never discharges below."""
        return self.reserve_fraction * self.capacity_kwh

    @property
    def limits(self) -> tuple[float, float, float, float]:
        """(capacity, reserve, charge rate, discharge rate), as `transition`
        takes them; rates are per one-hour step."""
        return (
            self.capacity_kwh,
            self.soc_min_kwh,
            self.charge_rate_kw * 1.0,
            self.discharge_rate_kw * 1.0,
        )


@dataclass(frozen=True)
class PenaltyTable:
    """Signed shaping terms added to the cost-based reward.

    Each action's term depends on the tariff tier and on whether the charge
    before the action is at its edge: full for a charge, at or below the
    reserve for a discharge, at or above it for an idle hour. The defaults
    are punitive for futile or expensive actions and rewarding for
    tariff-aligned ones. Tiers with no row of their own score 0.
    """

    charge_full_peak: float = -15.0
    charge_full: float = -10.0
    charge_peak: float = -10.0
    charge_off_peak_bonus: float = 5.0
    discharge_empty: float = -10.0
    discharge_off_peak: float = -5.0
    discharge_peak_bonus: float = 5.0
    idle_peak_with_charge: float = -10.0

    def __post_init__(self) -> None:
        # Rows are stored as floats, whatever number type they were given as,
        # and a zero row as +0.0: tables equal as dataclasses are then equal
        # bit for bit, so a table can key `_level_terms`'s cache.
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)) + 0.0)
        # Each action's terms, read by `transition` at `tier` away from the
        # action's edge and at `tier + 3` at it. Derived, not fields, so
        # equality, hashing and `asdict` see the eight rows alone.
        full, peak = self.charge_full, self.charge_full_peak
        empty, idle = self.discharge_empty, self.idle_peak_with_charge
        object.__setattr__(self, "_charge", (
            self.charge_off_peak_bonus, 0.0, self.charge_peak, full, full, peak))
        object.__setattr__(self, "_discharge", (
            self.discharge_off_peak, 0.0, self.discharge_peak_bonus, empty, empty, empty))
        object.__setattr__(self, "_idle", (0.0, 0.0, 0.0, 0.0, 0.0, idle))

    @classmethod
    def zero(cls) -> "PenaltyTable":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class EnergyFlows:
    """Per-hour energy accounting for one applied action.

    Satisfies load + battery_charge_in == renewables_used +
    battery_discharge_out + grid_import (all in kWh over the hour). The
    fields are, in order, the first six items of `transition`'s result.
    """

    renewables_used_kwh: float
    battery_charge_in_kwh: float
    battery_discharge_out_kwh: float
    grid_import_kwh: float
    curtailed_kwh: float
    next_energy_kwh: float


# Scores cost only; used where no shaping applies.
_NO_SHAPING = PenaltyTable.zero()


def transition(
    limits: tuple[float, float, float, float],
    energy: float,
    load: float,
    renewables: float,
    price: float,
    tier: Tier,
    action: int,
    charge_cap: float | None,
    penalties: PenaltyTable,
) -> tuple[float, float, float, float, float, float, float, float, float]:
    """One hour of dispatch physics and its reward: the step kernel.

    Returns (renewables_used, charge_in, discharge_out, grid_import,
    curtailed, next_energy, cost, penalty, reward). Renewables serve load
    first; charging draws the renewable surplus before the grid; discharging
    covers only the residual deficit and never breaches the reserve.
    Boundary-binding transitions snap next_energy exactly onto capacity or
    the reserve. `charge_cap` limits what the battery accepts this hour.

    cost is grid_import * price; penalty is the table's term for the action
    at the tier, at or away from the action's edge (`PenaltyTable`), judged
    on the charge before the action; reward = -cost + penalty.
    `lattice_transition` takes the penalties, the charged energy and the
    charge and idle next energies from this function, once per spec and
    penalty table. It repeats on arrays the rules that depend on the hour:
    surplus and deficit, a charge's draw on the surplus, a discharge limited
    by the deficit and its snap to the reserve, the grid import and the
    cost. A change to those goes there too, and a property test checks that
    the two agree bit for bit.
    """
    capacity, soc_min, charge_rate, discharge_rate = limits
    surplus = renewables - load if renewables > load else 0.0
    deficit = load - renewables if load > renewables else 0.0
    if action == 0:  # charge
        headroom = capacity - energy
        charged = charge_rate if charge_rate < headroom else headroom
        if charge_cap is not None and charge_cap < charged:
            charged = charge_cap
        if charged < 0.0:
            charged = 0.0
        stored = surplus if surplus < charged else charged
        grid_import = deficit + (charged - stored)
        next_energy = capacity if charged == headroom else energy + charged
        curtailed = surplus - stored
        discharged = 0.0
        penalty = penalties._charge[tier + 3 if energy >= capacity else tier]
    elif action == 1:  # discharge
        available = energy - soc_min if energy > soc_min else 0.0
        discharged = discharge_rate if discharge_rate < available else available
        if deficit < discharged:
            discharged = deficit
        grid_import = deficit - discharged
        if discharged == available and available > 0.0:
            next_energy = soc_min
        else:
            next_energy = energy - discharged
        curtailed = surplus
        charged = 0.0
        penalty = penalties._discharge[tier + 3 if energy <= soc_min else tier]
    else:  # idle
        grid_import = deficit
        next_energy = energy
        curtailed = surplus
        charged = discharged = 0.0
        penalty = penalties._idle[tier + 3 if energy >= soc_min else tier]
    cost = grid_import * price
    return (
        renewables - curtailed,
        charged,
        discharged,
        grid_import,
        curtailed,
        next_energy,
        cost,
        penalty,
        -cost + penalty,
    )


@functools.lru_cache(maxsize=8)
def _level_terms(spec: BatterySpec, penalties: PenaltyTable) -> tuple[np.ndarray, ...]:
    """What `lattice_transition` reads that depends on the charge level alone,
    under the penalty table.

    Returns, each of shape (soc_levels,): the level's energy; the energy a
    charge takes and the level it leads to; the idle next level; the
    discharge limit before the hour's deficit binds; and the energy above
    the reserve. Then the penalty of each (tier, level, action), shape
    (len(Tier), soc_levels, 3), indexed by tier code. All but the energy above the
    reserve come from `transition` at the level's energy with no cap, at an
    unbounded deficit, where a discharge meets only its rate and the
    reserve. The arrays are shared between calls, so they are read-only.
    """
    limits = spec.limits
    energy = np.array([soc_level_energy(spec, level) for level in range(spec.soc_levels)])
    # Shape (tiers, levels, actions, 9): the `transition` result of each.
    out = np.array([
        [[transition(limits, e, math.inf, 0.0, 0.0, tier, action, None, penalties)
          for action in Action] for e in energy.tolist()]
        for tier in Tier
    ])
    charge, discharge, idle = out[0].swapaxes(0, 1)
    terms = (
        energy, charge[:, 1], _soc_bins(spec, charge[:, 5]), _soc_bins(spec, idle[:, 5]),
        discharge[:, 2], np.maximum(energy - spec.soc_min_kwh, 0.0), out[..., 7],
    )
    for array in terms:
        array.setflags(write=False)
    return terms


def lattice_transition(
    spec: BatterySpec,
    load: Sequence[float],
    renewables: Sequence[float],
    price: Sequence[float],
    tiers: Sequence[Tier],
    penalties: PenaltyTable,
) -> tuple[np.ndarray, np.ndarray]:
    """`transition` without a charge cap, then `soc_bin`, for every hour,
    charge level and action of a day in one array pass.

    The inputs hold one entry per hour. Returns (next_level, reward), each of
    shape (hours, soc_levels, 3) and newly allocated: the charge level the
    action leads to from the level's energy (`soc_level_energy`), and its
    reward. What depends on the level alone, the penalties included, comes
    from the scalar kernel once per (spec, penalties) (`_level_terms`); the
    terms of the hour's load, renewables and price repeat its operations on
    arrays in the same order, so every entry is bit for bit what
    `transition` and `soc_bin` give.
    """
    energy, charged, charge_level, idle_level, discharge_limit, available, penalty = (
        _level_terms(spec, penalties)
    )
    soc_min = spec.soc_min_kwh
    load = np.asarray(load, dtype=float)[:, None]
    renewables = np.asarray(renewables, dtype=float)[:, None]
    surplus = np.where(renewables > load, renewables - load, 0.0)
    deficit = np.where(load > renewables, load - renewables, 0.0)
    shape = (len(load), len(energy), 3)
    grid_import = np.empty(shape)
    next_level = np.empty(shape, dtype=np.intp)

    grid_import[..., 0] = deficit + (charged - np.where(surplus < charged, surplus, charged))
    next_level[..., 0] = charge_level

    discharged = np.where(deficit < discharge_limit, deficit, discharge_limit)
    grid_import[..., 1] = deficit - discharged
    next_level[..., 1] = _soc_bins(spec, np.where(
        (discharged == available) & (available > 0.0), soc_min, energy - discharged
    ))

    grid_import[..., 2] = deficit
    next_level[..., 2] = idle_level

    cost = grid_import * np.asarray(price, dtype=float)[:, None, None]
    return next_level, -cost + penalty[list(tiers)]


def apply_action(
    spec: BatterySpec,
    energy_kwh: float,
    load_kwh: float,
    renewables_kwh: float,
    action: Action,
    charge_cap: float | None = None,
) -> EnergyFlows:
    """Energy flows for one hour of the given load and renewable supply under
    the given action.

    All actions are legal; futile ones (charging a full battery, discharging
    into no deficit) move no energy. `charge_cap` limits how much the
    battery may accept this hour, used by controllers that charge from
    renewable surplus only.
    """
    # The flows depend on neither the price nor the tier.
    return EnergyFlows(*transition(
        spec.limits, energy_kwh, load_kwh, renewables_kwh, 0.0, Tier.STANDARD, action,
        charge_cap, _NO_SHAPING,
    )[:6])
