"""The package's public names: `farmbess.__all__` is the classes and
functions `farmbess/__init__.py` imports, and no submodule."""

from __future__ import annotations

import importlib

import farmbess

PUBLIC_API = [
    "Action", "BaselineKind", "BatterySpec", "BinSpec", "ComparisonReport",
    "DataValidationError", "EncodingConfig", "EncodingKind", "EnergyFlows", "EvalReport",
    "HourlySeries", "Hyperparams", "PenaltyTable", "QTable", "StateEncoder",
    "SyntheticProfileConfig", "TariffSchedule", "Tier", "TrainingLog", "ablation_run",
    "apply_action", "baseline_controller", "baseline_decision", "compare", "day_return",
    "decayed", "dp_oracle", "generate_synthetic", "greedy_action", "lattice_transition",
    "load_csv", "load_qtable", "month_of_hour", "qtable_controller", "rollout",
    "save_qtable", "soc_bin", "soc_level_energy", "train", "transition", "value_bin",
    "write_csv",
]


def test_public_api_is_pinned():
    assert farmbess.__all__ == PUBLIC_API
    assert all(hasattr(farmbess, name) for name in PUBLIC_API)


def test_public_api_does_not_depend_on_import_order():
    import farmbess.cli  # noqa: F401  (binds farmbess.cli and farmbess.config)

    assert importlib.reload(farmbess).__all__ == PUBLIC_API
