"""Rule-based comparison controllers: self-consumption (MSC), tariff-driven
(TOU), and a no-battery pass-through."""

from __future__ import annotations

from enum import Enum

from .battery import Action, BatterySpec
from .timeseries import Tier


class BaselineKind(Enum):
    NO_BATTERY = "no-battery"
    MSC = "msc"
    TOU = "tou"


def baseline_decision(
    kind: BaselineKind,
    load_kwh: float,
    renewables_kwh: float,
    tier: Tier,
    energy_kwh: float,
    spec: BatterySpec,
) -> tuple[Action, float | None]:
    """Action plus charge cap for one hour of a baseline rollout, from the
    hour's load, renewable supply and tariff tier and the stored energy.

    No battery always idles. MSC maximises self-consumption: it stores
    renewable surplus (capped at the surplus, never charging from the grid)
    and discharges into any deficit. TOU grid-charges at the full rate
    off-peak (no cap), stores surplus otherwise, and discharges only into
    peak-hour deficits. A cap of None means no limit beyond the battery's
    own rate.
    """
    if kind is BaselineKind.NO_BATTERY:
        return Action.IDLE, None
    if kind is not BaselineKind.TOU:
        tier = None
    not_full = energy_kwh < spec.capacity_kwh
    if tier is Tier.OFF_PEAK and not_full:
        return Action.CHARGE, None
    if renewables_kwh > load_kwh and not_full:
        return Action.CHARGE, renewables_kwh - load_kwh
    if (
        load_kwh > renewables_kwh
        and energy_kwh > spec.soc_min_kwh
        and (tier is None or tier is Tier.PEAK)
    ):
        return Action.DISCHARGE, None
    return Action.IDLE, None
