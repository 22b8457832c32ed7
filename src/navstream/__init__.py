"""Storage/bandwidth-optimized structures for navigational media streaming.

Plan landmark partitions, refine stored P-edge sets under a weighted
storage + expected-transmission objective, evaluate structures with
buffer-aware dynamic programming, and validate everything against
simulation and brute-force oracles.
"""

from .adapters import (
    LfGridSpec,
    TrajectoryLog,
    build_lf_scenario,
    build_viewport_scenario,
    lifetime_defaults,
)
from .baselines import run_baseline
from .costs import (
    SizeTable,
    Structure,
    all_i_structure,
    grid_sizes,
    load_sizes,
    load_structure,
    save_sizes,
    save_structure,
    storage_cost,
)
from .errors import (
    InfeasibleStructureError,
    InvalidInputError,
    NavstreamError,
    OracleRefusalError,
    PolicyGapError,
)
from .evaluate import EvalResult, eval_fixed, eval_flexible, evaluate
from .landmarks import (
    Partition, PlannerParams, build_initial_structure, landmark_structure, tsvq,
)
from .merge import PwcParams, pwc_eval, select_merge_params
from .policy import Policy
from .refine import RefinerParams, greedy_refine, greedy_subtract, sweep
from .scenario import (
    LifetimeModel,
    MediaGraph,
    NavigationModel,
    Scenario,
    aggregate_switch_probabilities,
    build_lifetime_tail,
    load_scenario,
    save_scenario,
    validate_navigation_model,
)

__version__ = "0.1.0"

__all__ = [
    "EvalResult",
    "InfeasibleStructureError",
    "InvalidInputError",
    "LfGridSpec",
    "LifetimeModel",
    "MediaGraph",
    "NavigationModel",
    "NavstreamError",
    "OracleRefusalError",
    "Partition",
    "PlannerParams",
    "Policy",
    "PolicyGapError",
    "PwcParams",
    "RefinerParams",
    "Scenario",
    "SizeTable",
    "Structure",
    "TrajectoryLog",
    "aggregate_switch_probabilities",
    "all_i_structure",
    "build_initial_structure",
    "build_lf_scenario",
    "build_lifetime_tail",
    "build_viewport_scenario",
    "eval_fixed",
    "eval_flexible",
    "evaluate",
    "greedy_refine",
    "greedy_subtract",
    "grid_sizes",
    "landmark_structure",
    "lifetime_defaults",
    "load_scenario",
    "load_sizes",
    "load_structure",
    "pwc_eval",
    "run_baseline",
    "save_scenario",
    "save_sizes",
    "save_structure",
    "select_merge_params",
    "storage_cost",
    "sweep",
    "tsvq",
    "validate_navigation_model",
]
