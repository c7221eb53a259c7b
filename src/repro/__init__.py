"""repro — reproduction of "Rain or Shine? Making Sense of Cloudy
Reliability Data" (ICDCS 2017).

A synthetic datacenter-fleet simulator (topology, environment, RMA
ticket generation) plus the paper's multi-factor analysis framework
(CART, partial dependence) and its three decision studies: spare
provisioning (Q1), SKU/vendor ranking (Q2) and environmental operating
ranges (Q3).

Quickstart::

    import repro

    result = repro.simulate(repro.SimulationConfig.small(seed=1))
    print(result.summary())
"""

from .analysis import (
    FailurePredictor,
    MultiFactorModel,
    RegressionTree,
    SingleFactorModel,
    TreeParams,
    parse_formula,
    partial_dependence,
    render_tree,
)
from .config import PAPER_OBSERVATION_DAYS, SimulationConfig
from .decisions import (
    AvailabilitySla,
    ComponentProvisioner,
    SpareProvisioner,
    TcoModel,
    compare_skus,
    procurement_scenarios,
)
from .errors import (
    ConfigError,
    DataError,
    FitError,
    FormulaError,
    ReproError,
    SchemaError,
    SimulationError,
)
from .failures.engine import SimulationResult, simulate
from .fielddata import (
    CorruptionPipeline,
    FieldDataset,
    clean_dataset,
    degrade_and_clean,
    load_field_dataset,
    load_inventory_csv,
    load_tickets_csv,
    standard_pipeline,
)
from .parallel import map_seeds, run_experiments
from .reporting import AnalysisContext, EXPERIMENTS, get_experiment
from .rng import RngRegistry
from .stream import (
    Alert,
    AlertKind,
    EventKind,
    StreamAnalyzer,
    StreamInventory,
    load_checkpoint,
    save_checkpoint,
)
from .telemetry import Table, build_rack_day_table, lambda_matrix, mu_matrix

__version__ = "1.0.0"

__all__ = [
    "EXPERIMENTS",
    "PAPER_OBSERVATION_DAYS",
    "Alert",
    "AlertKind",
    "AnalysisContext",
    "AvailabilitySla",
    "EventKind",
    "ComponentProvisioner",
    "ConfigError",
    "CorruptionPipeline",
    "DataError",
    "FailurePredictor",
    "FieldDataset",
    "FitError",
    "FormulaError",
    "MultiFactorModel",
    "RegressionTree",
    "ReproError",
    "RngRegistry",
    "SchemaError",
    "SimulationConfig",
    "SimulationError",
    "SimulationResult",
    "SingleFactorModel",
    "SpareProvisioner",
    "StreamAnalyzer",
    "StreamInventory",
    "Table",
    "TcoModel",
    "TreeParams",
    "build_rack_day_table",
    "clean_dataset",
    "compare_skus",
    "degrade_and_clean",
    "get_experiment",
    "lambda_matrix",
    "load_checkpoint",
    "load_field_dataset",
    "load_inventory_csv",
    "load_tickets_csv",
    "map_seeds",
    "save_checkpoint",
    "standard_pipeline",
    "mu_matrix",
    "parse_formula",
    "partial_dependence",
    "procurement_scenarios",
    "render_tree",
    "run_experiments",
    "simulate",
    "__version__",
]
