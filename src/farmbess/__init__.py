"""farmbess: battery charge/discharge scheduling for farm microgrids.

Train a tabular Q-learning dispatch policy against an hourly battery
environment with a penalty-shaped reward, and benchmark it against
rule-based self-consumption and time-of-use controllers.
"""

__version__ = "0.1.0"

from .agent import (
    Hyperparams,
    QTable,
    TrainingLog,
    decayed,
    greedy_action,
    load_qtable,
    save_qtable,
    train,
)
from .baselines import BaselineKind, baseline_decision
from .battery import (
    Action,
    BatterySpec,
    EnergyFlows,
    PenaltyTable,
    apply_action,
    lattice_transition,
    transition,
)
from .encoding import (
    BinSpec,
    EncodingConfig,
    EncodingKind,
    StateEncoder,
    soc_bin,
    soc_level_energy,
    value_bin,
)
from .evaluation import (
    ComparisonReport,
    EvalReport,
    ablation_run,
    baseline_controller,
    compare,
    day_return,
    dp_oracle,
    qtable_controller,
    rollout,
)
from .timeseries import (
    DataValidationError,
    HourlySeries,
    SyntheticProfileConfig,
    TariffSchedule,
    Tier,
    generate_synthetic,
    load_csv,
    month_of_hour,
    write_csv,
)

from types import ModuleType as _ModuleType

# The names imported above; a submodule is an attribute of the package, and
# which ones are depends on what has been imported, so none is exported.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
