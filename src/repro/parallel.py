"""Process-parallel execution of embarrassingly parallel runs.

Three workloads in this repository are trivially parallel and worth
running that way once the engine itself is vectorized:

* multi-seed robustness/ablation sweeps (one process per seed),
* multi-seed CSV exports from the CLI, and
* rendering the report's independent experiments (one process pool whose
  workers share a single simulation via the artifact store).

Everything here is deliberately small: a ``ProcessPoolExecutor`` wrapper
with a serial fast path (``jobs <= 1`` never spawns processes, so tests
and single-core environments behave exactly as before).  Work functions
must be picklable (module-level functions or :func:`functools.partial`
of them).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import TYPE_CHECKING, Any

from .errors import ConfigError, ReproError

if TYPE_CHECKING:
    from .config import SimulationConfig


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: None/0 → all cores, n → n.

    Negative values are rejected; 1 means serial execution.
    """
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    return jobs


def map_seeds(
    fn: Callable[[int], Any],
    seeds: Sequence[int],
    jobs: int | None = 1,
) -> list[Any]:
    """Apply ``fn`` to every seed, optionally across processes.

    Args:
        fn: picklable callable taking one seed.
        seeds: seeds to map over (result order matches input order).
        jobs: worker processes; ``<= 1`` runs serially in-process,
            ``None``/``0`` uses every core.

    Returns:
        ``[fn(seed) for seed in seeds]`` — identical to the serial
        result regardless of ``jobs``, since each seed's work is
        deterministic and independent.
    """
    if not seeds:
        return []
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(seeds) == 1:
        return [fn(seed) for seed in seeds]
    with ProcessPoolExecutor(max_workers=min(jobs, len(seeds))) as pool:
        return list(pool.map(fn, seeds))


def map_items(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: int | None = 1,
) -> list[Any]:
    """Apply ``fn`` to every item, optionally across processes.

    The generic sibling of :func:`map_seeds` for non-seed workloads
    (the lint engine fans per-module analysis out through it).  Both
    ``fn`` and each item must be picklable; result order matches input
    order, so serial and parallel runs are indistinguishable to the
    caller as long as ``fn`` itself is deterministic.
    """
    if not items:
        return []
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) == 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


class WorkerPool:
    """Bounded, lazily spawned worker pool for long-lived services.

    The serve layer dispatches cold query computations here so a burst
    of expensive simulations saturates exactly ``jobs`` processes while
    the event loop stays responsive.  Unlike :func:`map_seeds` — which
    owns a pool per call — this pool lives as long as its owner and is
    shut down explicitly (draining by default).

    Args:
        jobs: maximum concurrent workers; ``None``/``0`` means all
            cores.  Unlike :func:`map_seeds`, ``1`` still spawns one
            worker process — callers use the pool precisely to keep
            work off their own thread.
        use_threads: run work in threads instead of processes.  Thread
            workers share the caller's interpreter (monkeypatching and
            in-memory stores remain visible), which tests and
            fork-restricted platforms rely on; work functions no longer
            need to be picklable.
    """

    def __init__(self, jobs: int | None = None, use_threads: bool = False):
        self.jobs = resolve_jobs(jobs)
        self.use_threads = use_threads
        self._executor: ProcessPoolExecutor | ThreadPoolExecutor | None = None

    @property
    def executor(self) -> ProcessPoolExecutor | ThreadPoolExecutor:
        """The underlying executor, created on first use."""
        if self._executor is None:
            if self.use_threads:
                self._executor = ThreadPoolExecutor(max_workers=self.jobs)
            else:
                self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Schedule ``fn(*args)`` on the pool (picklable for processes)."""
        return self.executor.submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool; with ``wait`` the call drains running work."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None


# ---------------------------------------------------------------------------
# Parallel experiment rendering.
#
# Experiments are scheduled over the pool at *stage* granularity: ids
# with identical declared stage signatures (see
# repro.reporting.experiments.Experiment.stages) form one work group, so
# a shared intermediate — say the all-faults rack-day table behind Figs
# 2-9/16 — is built once per group instead of once per experiment.  Each
# worker holds one report pipeline; with a shared artifact store the
# simulation itself is computed by whichever worker gets there first and
# disk-loaded by the rest.

_WORKER_PIPELINE: Any = None


def _pipeline_worker_init(config: "SimulationConfig", store_dir: str | None) -> None:
    global _WORKER_PIPELINE
    from .pipeline import ArtifactStore, build_report_pipeline

    store = ArtifactStore(store_dir) if store_dir else None
    _WORKER_PIPELINE = build_report_pipeline(config, store=store)


def _render_group(
    experiment_ids: Sequence[str],
) -> tuple[list[tuple[str, str | None, str | None]], list[dict]]:
    """Render one stage-signature group; returns triples + provenance."""
    from .pipeline import render_stage_name
    from .reporting.experiments import get_experiment

    pipeline = _WORKER_PIPELINE
    before = len(pipeline.executions)
    rendered: list[tuple[str, str | None, str | None]] = []
    for experiment_id in experiment_ids:
        try:
            get_experiment(experiment_id)  # registry error for unknown ids
            text = pipeline.get(render_stage_name(experiment_id))
            rendered.append((experiment_id, text, None))
        except ReproError as error:
            rendered.append((experiment_id, None, str(error)))
    executions = [e.to_json() for e in pipeline.executions[before:]]
    return rendered, executions


def _group_by_stages(ids: Sequence[str]) -> list[list[str]]:
    """Group ids by declared stage signature (unknown ids stay alone)."""
    from .reporting.experiments import EXPERIMENTS

    groups: dict[tuple, list[str]] = {}
    for experiment_id in ids:
        experiment = EXPERIMENTS.get(experiment_id)
        signature: tuple = (
            experiment.stages if experiment is not None
            else ("?unknown?", experiment_id)
        )
        groups.setdefault(signature, []).append(experiment_id)
    return list(groups.values())


def run_experiments(
    experiment_ids: Sequence[str],
    *,
    context: Any = None,
    config: "SimulationConfig | None" = None,
    jobs: int | None = 1,
    cache_dir: str | None = None,
    pipeline: Any = None,
    executions_sink: Callable[[list], None] | None = None,
) -> list[tuple[str, str | None, str | None]]:
    """Render experiments, in parallel when ``jobs > 1``.

    Args:
        experiment_ids: experiments to render, in output order.
        context: an existing :class:`~repro.reporting.context.AnalysisContext`
            (required for the serial path when no ``pipeline`` is given,
            optional otherwise).
        config: simulation config for worker processes to (re)obtain the
            run; required when ``jobs > 1``.
        jobs: worker processes; ``<= 1`` renders serially.
        cache_dir: artifact-store directory workers share; without it
            each worker re-simulates ``config`` once.
        pipeline: a :class:`~repro.pipeline.core.Pipeline` carrying the
            render stages; the serial path resolves render artifacts
            through it (provenance lands in ``pipeline.executions``)
            instead of rendering directly off the context.
        executions_sink: called with the list of
            :class:`~repro.pipeline.core.StageExecution` records
            produced by worker processes (parallel path only — the
            caller's own ``pipeline`` already accumulates serial ones).

    Returns:
        ``(experiment_id, rendered_text, error)`` triples in input
        order; exactly one of ``rendered_text``/``error`` is set per
        entry (``error`` carries a :class:`~repro.errors.ReproError`
        message for artifacts this run cannot support).
    """
    ids = list(experiment_ids)
    if not ids:
        return []
    jobs = resolve_jobs(jobs)
    if jobs > 1 and len(ids) > 1:
        if config is None:
            raise ConfigError("parallel run_experiments needs the simulation config")
        groups = _group_by_stages(ids)
        by_id: dict[str, tuple[str, str | None, str | None]] = {}
        worker_executions: list = []
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(groups)),
            initializer=_pipeline_worker_init,
            initargs=(config, cache_dir),
        ) as pool:
            for rendered, executions in pool.map(_render_group, groups):
                for triple in rendered:
                    by_id[triple[0]] = triple
                worker_executions.extend(executions)
        if executions_sink is not None and worker_executions:
            from .pipeline import execution_from_json

            executions_sink(
                [execution_from_json(e) for e in worker_executions]
            )
        return [by_id[experiment_id] for experiment_id in ids]
    if pipeline is None and context is None:
        if config is None:
            raise ConfigError("run_experiments needs a context or a config")
        from .pipeline import ArtifactStore, build_report_pipeline

        store = ArtifactStore(cache_dir) if cache_dir else None
        pipeline = build_report_pipeline(config, store=store)
    rendered_list: list[tuple[str, str | None, str | None]] = []
    from .reporting.experiments import get_experiment

    for experiment_id in ids:
        try:
            if pipeline is not None:
                from .pipeline import render_stage_name

                stage = render_stage_name(experiment_id)
                if pipeline.has_stage(stage):
                    rendered_list.append(
                        (experiment_id, pipeline.get(stage), None))
                    continue
            rendered_list.append(
                (experiment_id, get_experiment(experiment_id).render(context), None)
            )
        except ReproError as error:
            rendered_list.append((experiment_id, None, str(error)))
    return rendered_list
