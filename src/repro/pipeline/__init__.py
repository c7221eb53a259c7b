"""Content-addressed stage DAG with incremental recompute.

Public surface of the unified artifact pipeline: the core model
(:class:`Stage`, :class:`ArtifactStore`, :class:`Pipeline`, provenance
records) plus the report stage catalogue
(:func:`build_report_pipeline`).  See ``docs/pipeline.md``.
"""

from .core import (
    CODECS,
    DEFAULT_MAX_ENTRIES,
    PIPELINE_SCHEMA,
    ArtifactStore,
    Pipeline,
    Stage,
    StageContext,
    StageExecution,
    clear_source_fingerprints,
    execution_from_json,
    source_fingerprint,
)
from .stages import (
    PROVISIONER_WINDOWS,
    RENDER_PREFIX,
    analysis_stages,
    build_report_pipeline,
    config_fingerprint,
    config_key,
    noise_point_stages,
    render_stage_name,
    simulate_stage,
    summary_stage,
)

__all__ = [
    "CODECS",
    "DEFAULT_MAX_ENTRIES",
    "PIPELINE_SCHEMA",
    "PROVISIONER_WINDOWS",
    "RENDER_PREFIX",
    "ArtifactStore",
    "Pipeline",
    "Stage",
    "StageContext",
    "StageExecution",
    "analysis_stages",
    "build_report_pipeline",
    "clear_source_fingerprints",
    "config_fingerprint",
    "config_key",
    "execution_from_json",
    "noise_point_stages",
    "render_stage_name",
    "simulate_stage",
    "source_fingerprint",
    "summary_stage",
]
