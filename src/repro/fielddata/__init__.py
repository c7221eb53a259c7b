"""Field-data degradation and ingestion: the "cloudy" in cloudy data.

The paper's analyses run on operational exhaust — RMA tickets and BMS
sensor streams that real estates record with duplicates, gaps, wrong
fault codes and mid-trace decommissions.  The simulator's output is
pristine, so this package closes the realism gap from both sides:

* **Degradation** (:mod:`~repro.fielddata.corruption`): deterministic,
  composable corruption operators that turn a clean
  :class:`~repro.failures.engine.SimulationResult` export into the kind
  of dataset an operator actually inherits.  Severity 0 is a
  bit-identical identity, and every operator draws from its own named
  RNG stream (``fielddata:<op>``), so corrupted datasets are exactly
  reproducible.
* **Ingestion** (:mod:`~repro.fielddata.ingest`,
  :mod:`~repro.fielddata.cleaning`): typed CSV loaders with per-row
  error context, plus a cleaning pipeline — ticket dedup, sensor gap
  repair, stuck-reading removal and censoring-aware exposure
  accounting — that reconstructs an analysis-ready run.
* **Robustness** (:mod:`~repro.fielddata.robustness`): re-runs the
  paper's Q1/Q2/Q3 headline metrics across corruption severities to
  measure how fast single-factor vs multi-factor conclusions decay
  with data quality.
"""

from .cleaning import CleaningReport, clean_dataset, fleet_lambda, rack_exposure_days
from .corruption import (
    CensorInventory,
    CorruptionPipeline,
    CorruptionReport,
    DropTickets,
    DuplicateTickets,
    JitterTimestamps,
    MisattributeTickets,
    SensorGaps,
    StuckSensors,
    standard_pipeline,
)
from .dataset import FieldDataset, log_from_columns, ticket_columns
from .ingest import (
    export_dataset,
    load_field_dataset,
    load_inventory_csv,
    load_tickets_csv,
)
from .robustness import (
    NoisePoint,
    degrade_and_clean,
    headline_metrics,
)

__all__ = [
    "CensorInventory",
    "CleaningReport",
    "CorruptionPipeline",
    "CorruptionReport",
    "DropTickets",
    "DuplicateTickets",
    "FieldDataset",
    "JitterTimestamps",
    "MisattributeTickets",
    "NoisePoint",
    "SensorGaps",
    "StuckSensors",
    "clean_dataset",
    "degrade_and_clean",
    "export_dataset",
    "fleet_lambda",
    "headline_metrics",
    "load_field_dataset",
    "load_inventory_csv",
    "load_tickets_csv",
    "log_from_columns",
    "rack_exposure_days",
    "standard_pipeline",
    "ticket_columns",
]
