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
    select_action,
    td_update,
    train,
)
from .baselines import BaselineKind, baseline_decision
from .battery import (
    Action,
    BatteryEnv,
    BatterySpec,
    EnergyFlows,
    PenaltyTable,
    apply_action,
    transition,
)
from .encoding import (
    BinSpec,
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
    HourlyRecord,
    HourlySeries,
    SyntheticProfileConfig,
    TariffSchedule,
    Tier,
    default_tariff,
    generate_synthetic,
    load_csv,
    month_of_hour,
    write_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
