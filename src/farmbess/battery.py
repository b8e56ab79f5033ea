"""Battery dispatch physics and the penalty-shaped reward: the hourly MDP a
controller interacts with.

`transition` is the single step kernel: it turns one hour's charge, demand,
supply, price and tariff tier plus an action into the energy flows, the next
charge, the shaping penalty and the reward. `apply_action`, the training
loop, rollouts, `day_return` and the DP oracle all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .timeseries import HourlyRecord, HourlySeries, TariffSchedule, Tier, default_tariff


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
        if self.capacity_kwh <= 0:
            raise ValueError(f"capacity_kwh must be > 0, got {self.capacity_kwh}")
        if self.charge_rate_kw <= 0 or self.discharge_rate_kw <= 0:
            raise ValueError("charge and discharge rates must be > 0")
        if not 0 <= self.reserve_fraction < 1:
            raise ValueError(
                f"reserve_fraction must be in [0, 1), got {self.reserve_fraction}"
            )
        if self.soc_levels < 2:
            raise ValueError(f"soc_levels must be >= 2, got {self.soc_levels}")

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

    Each action has a first-match cascade of rows keyed on the tariff tier
    and the battery charge before the action; the defaults are punitive for
    futile or expensive actions and rewarding for tariff-aligned ones.
    """

    charge_full_peak: float = -15.0
    charge_full: float = -10.0
    charge_peak: float = -10.0
    charge_off_peak_bonus: float = 5.0
    discharge_empty: float = -10.0
    discharge_off_peak: float = -5.0
    discharge_peak_bonus: float = 5.0
    idle_peak_with_charge: float = -10.0

    @classmethod
    def zero(cls) -> "PenaltyTable":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class EnergyFlows:
    """Per-hour energy accounting for one applied action.

    Satisfies load + battery_charge_in == renewables_used +
    battery_discharge_out + grid_import (all in kWh over the hour).
    """

    renewables_used_kwh: float
    battery_charge_in_kwh: float
    battery_discharge_out_kwh: float
    grid_import_kwh: float
    curtailed_kwh: float
    next_energy_kwh: float


# Module-level aliases keep each tier test in the kernel to one global lookup.
_PEAK = Tier.PEAK
_OFF_PEAK = Tier.OFF_PEAK
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

    cost is grid_import * price; penalty is the first matching shaping row
    for (action, tier, charge before the action); reward = -cost + penalty.
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
        if energy >= capacity:
            penalty = penalties.charge_full_peak if tier is _PEAK else penalties.charge_full
        elif tier is _PEAK:
            penalty = penalties.charge_peak
        elif tier is _OFF_PEAK:
            penalty = penalties.charge_off_peak_bonus
        else:
            penalty = 0.0
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
        if energy <= soc_min:
            penalty = penalties.discharge_empty
        elif tier is _OFF_PEAK:
            penalty = penalties.discharge_off_peak
        elif tier is _PEAK:
            penalty = penalties.discharge_peak_bonus
        else:
            penalty = 0.0
    else:  # idle
        grid_import = deficit
        next_energy = energy
        curtailed = surplus
        charged = discharged = 0.0
        if tier is _PEAK and energy >= soc_min:
            penalty = penalties.idle_peak_with_charge
        else:
            penalty = 0.0
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


def apply_action(
    spec: BatterySpec,
    energy_kwh: float,
    record: HourlyRecord,
    action: Action,
    charge_cap: float | None = None,
) -> EnergyFlows:
    """Energy flows for one hour under the given action.

    All actions are legal; futile ones (charging a full battery, discharging
    into no deficit) move no energy. `charge_cap` limits how much the
    battery may accept this hour, used by controllers that charge from
    renewable surplus only.
    """
    used, charged, discharged, grid_import, curtailed, next_energy, *_ = transition(
        spec.limits,
        energy_kwh,
        record.load_kwh,
        record.renewables_kwh,
        record.price_per_kwh,
        Tier.STANDARD,
        action,
        charge_cap,
        _NO_SHAPING,
    )
    return EnergyFlows(
        renewables_used_kwh=used,
        battery_charge_in_kwh=charged,
        battery_discharge_out_kwh=discharged,
        grid_import_kwh=grid_import,
        curtailed_kwh=curtailed,
        next_energy_kwh=next_energy,
    )


class BatteryEnv:
    """The training problem: an hourly series with the battery spec, tariff
    and shaping penalties it is scored under (defaults where omitted)."""

    def __init__(
        self,
        series: HourlySeries,
        spec: BatterySpec | None = None,
        tariff: TariffSchedule | None = None,
        penalties: PenaltyTable | None = None,
    ) -> None:
        self.series = series
        self.spec = spec if spec is not None else BatterySpec()
        self.tariff = tariff if tariff is not None else default_tariff()
        self.penalties = penalties if penalties is not None else PenaltyTable()
