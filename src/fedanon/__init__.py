"""Federated learning simulator with delta-based deanonymization attacks,
defenses, and a reproducible experiment harness."""

__version__ = "0.1.0"

from .attacks import ReprConfig
from .config import ConfigError, ExperimentConfig, build_config
from .deltastore import DeltaLog, DeltaManifest, DeltaRecord, ParamVector, read_records, write_records
from .experiments import EXPERIMENT_FAMILIES
from .federated import DeviceState, RoundConfig, run_federated
from .metrics import ScoredPredictions, average_precision, increase_over_chance, mean_ap
from .mitigation import MitigationConfig, tradeoff_curve
from .nn import ModelSpec, OptimizerConfig
from .world import DatasetBundle, UserProfile, WorldConfig, gen_world

__all__ = [
    "EXPERIMENT_FAMILIES",
    "ConfigError",
    "ExperimentConfig",
    "build_config",
    "DeltaLog",
    "DeltaManifest",
    "DeltaRecord",
    "ParamVector",
    "ReprConfig",
    "read_records",
    "write_records",
    "DeviceState",
    "RoundConfig",
    "run_federated",
    "ScoredPredictions",
    "average_precision",
    "increase_over_chance",
    "mean_ap",
    "MitigationConfig",
    "tradeoff_curve",
    "ModelSpec",
    "OptimizerConfig",
    "DatasetBundle",
    "UserProfile",
    "WorldConfig",
    "gen_world",
    "__version__",
]
