"""Content-addressed stage DAG: declarative artifacts with provenance.

The paper's workflow is one pipeline — ``simulate → flatten/clean →
aggregate(λ, μ) → fit → decisions → render`` — and every command drives
it through this module: a per-stage artifact store plus a small
declarative DAG.

* a :class:`Stage` names an artifact, its dependencies, the inputs that
  fingerprint it, and the function that computes it;
* an :class:`ArtifactStore` holds computed artifacts in memory and — for
  stages with a ``codec`` — on disk, addressed by a content key derived
  from the stage's fingerprint inputs, its parents' keys and the
  fingerprints of the source modules it declares via ``code=``;
* a :class:`Pipeline` resolves stage keys *without* materializing
  artifacts (keys are recursive hashes, not artifact hashes), so a warm
  run touches disk only for the stages a caller actually asks for, and
  editing one module re-runs exactly the stages downstream of it.

Every ``get`` records a :class:`StageExecution` — key, parent keys,
outcome (``memory``/``disk``/``computed``) and wall time from an
injected clock — forming the provenance manifest surfaced by the
``repro pipeline`` CLI subcommand.
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import os
import pathlib
import re
import shutil
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

import numpy as np

from ..datacenter.builder import build_fleet
from ..environment.bms import BuildingManagementSystem
from ..environment.conditions import EnvironmentSeries
from ..errors import ConfigError, DataError
from ..failures.engine import SimulationResult
from ..failures.tickets import TicketLog
from ..rng import RngRegistry
from ..telemetry.io import load_array_bundle
from ..telemetry.schema import TICKET_LOG_COLUMNS
from ..units import SimCalendar

if TYPE_CHECKING:
    from ..config import SimulationConfig

# Bump when the key payload or on-disk entry layout changes; keys embed
# it, so old entries are simply never looked up again.
PIPELINE_SCHEMA = 1

# Codecs an on-disk stage may declare.  ``None`` (no codec) keeps the
# artifact memory-only.
CODECS = ("run", "json", "text", "blocks")

# Default per-stage bound on persisted entries kept by automatic pruning.
DEFAULT_MAX_ENTRIES = 32

# The run codec's bundle members: the declared TicketLog columns plus
# the environment/BMS condition matrices.
_RUN_CONDITIONS = ("env_temp_f", "env_rh", "bms_temp_f", "bms_rh")

_SOURCE_FINGERPRINTS: dict[str, str] = {}


def source_fingerprint(module_name: str) -> str:
    """Content hash of a module's source file.

    Keys embed these for every module a stage declares via ``code=``, so
    editing e.g. ``repro.decisions.spares`` invalidates the provisioner
    stages (and everything downstream) while leaving the simulate stage
    warm.  Results are cached per process; tests monkeypatch this
    function to simulate code edits without touching files.
    """
    cached = _SOURCE_FINGERPRINTS.get(module_name)
    if cached is not None:
        return cached
    spec = importlib.util.find_spec(module_name)
    if spec is None or spec.origin is None:
        raise ConfigError(f"cannot fingerprint module {module_name!r}: no source")
    digest = hashlib.sha256(pathlib.Path(spec.origin).read_bytes()).hexdigest()
    _SOURCE_FINGERPRINTS[module_name] = digest
    return digest


def clear_source_fingerprints() -> None:
    """Drop the per-process fingerprint cache (test hook)."""
    _SOURCE_FINGERPRINTS.clear()


@dataclass(frozen=True)
class Stage:
    """One node of the artifact DAG.

    Attributes:
        name: unique artifact name, e.g. ``"simulate"`` or
            ``"provisioner:24h"``.
        run: ``run(inputs, ctx)`` computing the artifact; ``inputs``
            maps each dependency name to its artifact, ``ctx`` is a
            :class:`StageContext`.
        deps: names of upstream stages whose artifacts this stage reads.
        fingerprint_inputs: JSON-serializable parameters that determine
            the artifact (config fingerprint, window hours, severities…).
            Anything influencing the output must appear here or in
            ``deps``/``code``.
        runtime: non-keyed execution context (e.g. the live config
            object the ``run`` codec needs to rebuild a fleet).  Never
            hashed.
        code: dotted module names whose source content participates in
            the key via :func:`source_fingerprint`.
        codec: on-disk representation — ``"run"`` (simulation bundle),
            ``"json"``, ``"text"``, ``"blocks"`` (a flattened
            :class:`~repro.stream.blocks.BlockSegment`, reloaded
            memory-mapped) — or None for memory-only artifacts.
    """

    name: str
    run: Callable[[dict[str, Any], "StageContext"], Any]
    deps: tuple[str, ...] = ()
    fingerprint_inputs: Mapping[str, Any] = field(default_factory=dict)
    runtime: Mapping[str, Any] = field(default_factory=dict)
    code: tuple[str, ...] = ()
    codec: str | None = None

    def __post_init__(self) -> None:
        if self.codec is not None and self.codec not in CODECS:
            raise ConfigError(
                f"stage {self.name!r}: unknown codec {self.codec!r}; "
                f"have {CODECS}"
            )


@dataclass(frozen=True)
class StageContext:
    """Execution context handed to a stage's ``run`` callable."""

    pipeline: "Pipeline"
    stage: Stage

    @property
    def runtime(self) -> Mapping[str, Any]:
        """The stage's non-keyed runtime mapping."""
        return self.stage.runtime


@dataclass(frozen=True)
class StageExecution:
    """Provenance record of one stage resolution within a pipeline.

    ``outcome`` is ``"memory"`` (artifact already in the store's memory
    tier), ``"disk"`` (decoded from the artifact store) or
    ``"computed"`` (the ``run`` callable actually executed).
    """

    order: int
    stage: str
    key: str
    parents: tuple[str, ...]
    outcome: str
    wall_s: float

    def to_json(self) -> dict:
        """Plain-dict form for the provenance manifest."""
        return {
            "order": self.order,
            "stage": self.stage,
            "key": self.key,
            "parents": list(self.parents),
            "outcome": self.outcome,
            "wall_s": self.wall_s,
        }


def execution_from_json(payload: Mapping[str, Any]) -> StageExecution:
    """Rebuild a :class:`StageExecution` from its ``to_json`` form.

    Used to merge execution records shipped back from worker processes
    into the parent's provenance manifest.
    """
    return StageExecution(
        order=int(payload["order"]),
        stage=str(payload["stage"]),
        key=str(payload["key"]),
        parents=tuple(payload["parents"]),
        outcome=str(payload["outcome"]),
        wall_s=float(payload["wall_s"]),
    )


def save_run_bundle(
    entry: pathlib.Path,
    result: SimulationResult,
    meta: dict,
    clock: Callable[[], float] = time.time,
) -> pathlib.Path:
    """Persist one run's stochastic columns under ``entry`` (the ``run`` codec).

    Writes ``tickets.npz`` (ticket columns plus environment/BMS
    matrices) and ``meta.json`` (the caller's ``meta`` extended with
    ticket/fleet counts and a ``created`` stamp from ``clock``).  The
    fleet and calendar are not stored: they are cheap and rebuilt
    deterministically from the config on load.
    """
    entry.mkdir(parents=True, exist_ok=True)
    log = result.tickets
    np.savez_compressed(
        entry / "tickets.npz",
        env_temp_f=result.environment.temp_f,
        env_rh=result.environment.rh,
        bms_temp_f=result.bms.temp_f,
        bms_rh=result.bms.rh,
        **{name: getattr(log, name) for name in TICKET_LOG_COLUMNS},
    )
    full_meta = dict(meta)
    full_meta.update({
        "n_tickets": len(log),
        "n_racks": result.fleet.n_racks,
        "n_days": result.n_days,
        "created": clock(),
    })
    (entry / "meta.json").write_text(json.dumps(full_meta, indent=2, default=str))
    return entry


def load_run_bundle(
    entry: pathlib.Path,
    config: "SimulationConfig",
    meta: dict,
) -> SimulationResult:
    """Reconstitute a run from a bundle written by :func:`save_run_bundle`.

    Fleet and calendar are rebuilt deterministically from ``config``;
    tickets and environment/BMS matrices come from disk, so the loaded
    path performs no simulation work (in particular it never calls
    ``_generate_tickets``).  Raises :class:`DataError` when the bundle
    is missing, truncated, garbled or inconsistent with its metadata.
    """
    arrays, _ = load_array_bundle(entry / "tickets.npz", mmap=False)
    missing = [name for name in TICKET_LOG_COLUMNS + _RUN_CONDITIONS
               if name not in arrays]
    if missing:
        raise DataError(f"run bundle {entry} is corrupt: missing {missing}")
    log = TicketLog()
    log.append_chunk(**{name: arrays[name] for name in TICKET_LOG_COLUMNS})
    log.finalize()
    if len(log) != int(meta.get("n_tickets", -1)):
        raise DataError(
            f"run bundle {entry} is corrupt: expected "
            f"{meta.get('n_tickets')} tickets, loaded {len(log)}"
        )
    fleet = build_fleet(config.fleet, RngRegistry(config.seed))
    calendar = SimCalendar(
        start_day_of_week=config.start_day_of_week,
        start_day_of_year=config.start_day_of_year,
    )
    environment = EnvironmentSeries.from_arrays(
        fleet, arrays["env_temp_f"], arrays["env_rh"],
    )
    bms = BuildingManagementSystem(fleet).rebuild_log(
        arrays["bms_temp_f"], arrays["bms_rh"],
    )
    return SimulationResult(
        config=config, fleet=fleet, calendar=calendar,
        environment=environment, bms=bms, tickets=log,
    )


def _stage_dirname(name: str) -> str:
    """Filesystem-safe directory name for a stage.

    Stage names embed parameters (``provisioner:24h``); collapsing the
    punctuation keeps the store portable.  Collisions between sanitized
    names are harmless: entries stay distinct because the stage name is
    part of every content key.
    """
    return re.sub(r"[^A-Za-z0-9._-]", "-", name)


#: Staged-but-unpublished entry directories carry this hidden prefix.
_TMP_PREFIX = ".tmp-"

#: Per-process staging counter: combined with the pid it gives every
#: put() a unique staging directory, so concurrent writers — threads in
#: one process or many processes — never share one (itertools.count is
#: atomic under the GIL).
_TMP_COUNTER = itertools.count()

#: Staged directories older than this are wreckage of a crashed writer
#: and get swept by prune; younger ones may belong to a live concurrent
#: writer mid-publication and are left alone.
TMP_SWEEP_AGE_S = 3600.0


def _entry_mtime(entry: pathlib.Path) -> float:
    """meta.json mtime, or 0 if a concurrent prune already removed it."""
    try:
        return (entry / "meta.json").stat().st_mtime
    except OSError:
        return 0.0


class ArtifactStore:
    """Two-tier (memory + optional disk) store of stage artifacts.

    The one cache of the package: every command that simulates resolves
    its run through the ``simulate`` stage on a store like this, so one
    ``--cache-dir`` holds one set of runs.  Layout on disk::

        <root>/<stage-dir>/<key>/{artifact.*, meta.json}

    The ``run`` codec writes ``tickets.npz`` instead of ``artifact.*``
    (see :func:`save_run_bundle` / :func:`load_run_bundle`).

    Args:
        root: directory for persisted artifacts, or None for a
            memory-only store (codec'd stages then simply recompute in
            fresh processes).
        clock: source of ``created`` timestamps in entry metadata —
            injected, never read inline (tests replay eviction order).
        max_entries: per-stage bound enforced after each disk write.
    """

    def __init__(
        self,
        root: str | pathlib.Path | None = None,
        clock: Callable[[], float] = time.time,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ):
        self.root = pathlib.Path(root) if root is not None else None
        self._clock = clock
        self.max_entries = max_entries
        self._memory: dict[tuple[str, str], Any] = {}

    # -- addressing ---------------------------------------------------

    def stage_dir(self, stage_name: str) -> pathlib.Path:
        """Directory holding all persisted entries of one stage."""
        if self.root is None:
            raise ConfigError("memory-only ArtifactStore has no stage_dir")
        return self.root / _stage_dirname(stage_name)

    def entry_dir(self, stage_name: str, key: str) -> pathlib.Path:
        """Directory holding one persisted artifact."""
        return self.stage_dir(stage_name) / key

    # -- lookup -------------------------------------------------------

    def fetch(self, stage: Stage, key: str) -> tuple[str, Any] | None:
        """``(tier, artifact)`` for a stored artifact, or None on miss.

        ``tier`` is ``"memory"`` or ``"disk"``.  A corrupt disk entry
        (truncated write, garbled payload, key mismatch) is evicted and
        counts as a miss, so the caller recomputes and the next ``put``
        rewrites it: the store self-heals.
        """
        if (stage.name, key) in self._memory:
            return "memory", self._memory[(stage.name, key)]
        if self.root is None or stage.codec is None:
            return None
        entry = self.entry_dir(stage.name, key)
        if not (entry / "meta.json").exists():
            if entry.exists():
                shutil.rmtree(entry, ignore_errors=True)
            return None
        try:
            meta = json.loads((entry / "meta.json").read_text())
            if not isinstance(meta, dict) or meta.get("key") != key:
                raise DataError(f"artifact entry {entry} metadata is corrupt")
            artifact = self._decode(stage, entry, meta)
        except (OSError, ValueError, KeyError, DataError):
            shutil.rmtree(entry, ignore_errors=True)
            return None
        self._memory[(stage.name, key)] = artifact
        return "disk", artifact

    def _decode(self, stage: Stage, entry: pathlib.Path, meta: dict) -> Any:
        if stage.codec == "run":
            config = stage.runtime.get("config")
            if config is None:
                raise ConfigError(
                    f"stage {stage.name!r}: 'run' codec needs runtime['config']"
                )
            return load_run_bundle(entry, config, meta)
        if stage.codec == "json":
            return json.loads((entry / "artifact.json").read_text())
        if stage.codec == "text":
            return (entry / "artifact.txt").read_text()
        if stage.codec == "blocks":
            from ..stream.blocks import BlockSegment

            return BlockSegment.load(entry / "artifact.npz")
        raise ConfigError(f"stage {stage.name!r}: unknown codec {stage.codec!r}")

    # -- storage ------------------------------------------------------

    def prime(self, stage_name: str, key: str, artifact: Any) -> None:
        """Seed the memory tier with an externally computed artifact.

        Trust-based: callers that already hold e.g. a freshly simulated
        result hand it to the pipeline instead of recomputing.  Memory
        only — nothing is persisted.
        """
        self._memory[(stage_name, key)] = artifact

    def put(self, stage: Stage, key: str, artifact: Any) -> None:
        """Store an artifact (memory always; disk when codec'd).

        Disk publication is atomic: the entry is staged under a hidden
        per-process temp directory and renamed into place as the last
        step, so a concurrent reader observes either no entry or a
        complete one.  Two processes racing on the same key resolve to
        clean first-writer-wins — the loser's staged copy (identical
        content, since keys are content addresses) is discarded.
        """
        self._memory[(stage.name, key)] = artifact
        if self.root is None or stage.codec is None:
            return
        entry = self.entry_dir(stage.name, key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        tmp = entry.parent / (
            f"{_TMP_PREFIX}{os.getpid()}-{next(_TMP_COUNTER)}-{key}"
        )
        meta = {"stage": stage.name, "key": key, "schema": PIPELINE_SCHEMA}
        if stage.codec == "run":
            save_run_bundle(tmp, artifact, meta, clock=self._clock)
        else:
            tmp.mkdir()
            if stage.codec == "json":
                (tmp / "artifact.json").write_text(
                    json.dumps(artifact, indent=2, sort_keys=True, default=str)
                )
            elif stage.codec == "blocks":
                artifact.save(tmp / "artifact.npz")
            else:
                (tmp / "artifact.txt").write_text(artifact)
            meta["created"] = self._clock()
            (tmp / "meta.json").write_text(json.dumps(meta, indent=2))
        self._publish(tmp, entry)
        if self.max_entries:
            self.prune_stage(stage.name, self.max_entries)

    def _publish(self, tmp: pathlib.Path, entry: pathlib.Path) -> None:
        """Rename a fully staged entry into place, losing races cleanly."""
        try:
            os.replace(tmp, entry)
            return
        except OSError:
            pass
        # The target already exists: either a concurrent writer finished
        # first (their entry carries the same content — keep it) or a
        # pre-atomic partial entry lingers (clear it and retry once).
        if not (entry / "meta.json").exists():
            shutil.rmtree(entry, ignore_errors=True)
            try:
                os.replace(tmp, entry)
                return
            except OSError:  # pragma: no cover - double race
                pass
        shutil.rmtree(tmp, ignore_errors=True)

    # -- maintenance --------------------------------------------------

    def stage_entries(self, stage_name: str) -> list[pathlib.Path]:
        """Persisted entries of one stage, oldest first."""
        directory = self.stage_dir(stage_name)
        if not directory.exists():
            return []
        found = [
            path for path in directory.iterdir()
            if not path.name.startswith(_TMP_PREFIX)
            and (path / "meta.json").exists()
        ]
        return sorted(found, key=_entry_mtime)

    def prune_stage(self, stage_name: str,
                    max_entries: int = DEFAULT_MAX_ENTRIES) -> int:
        """Evict oldest entries of one stage beyond ``max_entries``."""
        if max_entries < 0:
            raise DataError(f"max_entries must be >= 0, got {max_entries}")
        entries = self.stage_entries(stage_name)
        excess = entries[:max(0, len(entries) - max_entries)]
        directory = self.stage_dir(stage_name)
        if directory.exists():
            # Also sweep wreckage invisible to stage_entries: published
            # entries missing meta.json (pre-atomic partial writes) and
            # staged temp directories whose writer crashed long ago.
            # Young temp directories belong to live concurrent writers.
            excess.extend(
                path for path in directory.iterdir()
                if path.is_dir() and self._sweepable(path)
            )
        for entry in excess:
            shutil.rmtree(entry, ignore_errors=True)
        return len(excess)

    def _sweepable(self, path: pathlib.Path) -> bool:
        """Whether one stage subdirectory is prune-sweep wreckage."""
        if not path.name.startswith(_TMP_PREFIX):
            return not (path / "meta.json").exists()
        try:
            age = self._clock() - path.stat().st_mtime
        except OSError:
            # A concurrent writer renamed its staging directory into
            # place (or cleaned it up) between iterdir and stat.
            return False
        return age > TMP_SWEEP_AGE_S

    def prune(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> int:
        """Prune every persisted stage; returns total entries removed."""
        if self.root is None or not self.root.exists():
            return 0
        removed = 0
        for directory in sorted(self.root.iterdir()):
            if directory.is_dir():
                removed += self.prune_stage(directory.name, max_entries)
        return removed

    def clear(self) -> None:
        """Drop the memory tier and remove every persisted entry."""
        self._memory.clear()
        if self.root is not None and self.root.exists():
            shutil.rmtree(self.root, ignore_errors=True)


class Pipeline:
    """A validated stage DAG bound to one artifact store.

    Args:
        stages: the stage catalogue; names must be unique, dependencies
            must resolve within the catalogue, and the graph must be
            acyclic (all checked eagerly, raising
            :class:`~repro.errors.ConfigError`).
        store: artifact store; defaults to a fresh memory-only store.
        clock: wall-time source for execution records — injected so
            provenance tests are deterministic.
        observer: optional callable receiving each
            :class:`StageExecution` as it is recorded.
    """

    def __init__(
        self,
        stages: Iterable[Stage],
        store: ArtifactStore | None = None,
        clock: Callable[[], float] = time.perf_counter,
        observer: Callable[[StageExecution], None] | None = None,
    ):
        self.stages: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self.stages:
                raise ConfigError(f"duplicate stage name {stage.name!r}")
            self.stages[stage.name] = stage
        self._order = self._toposort()
        self.store = store if store is not None else ArtifactStore()
        self._clock = clock
        self._observer = observer
        self._keys: dict[str, str] = {}
        self._done: dict[str, Any] = {}
        self.executions: list[StageExecution] = []

    def _toposort(self) -> list[str]:
        for stage in self.stages.values():
            for dep in stage.deps:
                if dep not in self.stages:
                    raise ConfigError(
                        f"stage {stage.name!r} depends on unknown stage {dep!r}"
                    )
        order: list[str] = []
        state: dict[str, int] = {}  # 1 = visiting, 2 = done

        def visit(name: str, chain: tuple[str, ...]) -> None:
            mark = state.get(name)
            if mark == 2:
                return
            if mark == 1:
                cycle = " -> ".join(chain + (name,))
                raise ConfigError(f"stage dependency cycle: {cycle}")
            state[name] = 1
            for dep in self.stages[name].deps:
                visit(dep, chain + (name,))
            state[name] = 2
            order.append(name)

        for name in self.stages:
            visit(name, ())
        return order

    # -- introspection ------------------------------------------------

    def has_stage(self, name: str) -> bool:
        """True when ``name`` is in the catalogue."""
        return name in self.stages

    def stage(self, name: str) -> Stage:
        """Stage by name (raises ConfigError for unknown names)."""
        if name not in self.stages:
            raise ConfigError(
                f"unknown stage {name!r}; have {sorted(self.stages)}"
            )
        return self.stages[name]

    @property
    def order(self) -> list[str]:
        """Stage names in topological (dependency-first) order."""
        return list(self._order)

    def sinks(self) -> list[str]:
        """Stages no other stage depends on, in topological order."""
        depended = {dep for s in self.stages.values() for dep in s.deps}
        return [name for name in self._order if name not in depended]

    # -- keying -------------------------------------------------------

    def key(self, name: str) -> str:
        """Content key of a stage, computed recursively over the DAG.

        Keys hash the stage name, its ``fingerprint_inputs``, its
        parents' keys and its declared code fingerprints — never the
        artifact bytes — so a fully warm run resolves every key without
        loading a single artifact.
        """
        if name in self._keys:
            return self._keys[name]
        stage = self.stage(name)
        payload = {
            "stage": stage.name,
            "inputs": dict(stage.fingerprint_inputs),
            "parents": {dep: self.key(dep) for dep in stage.deps},
            "code": {module: source_fingerprint(module)
                     for module in stage.code},
            "schema": PIPELINE_SCHEMA,
        }
        serialized = json.dumps(payload, sort_keys=True,
                                separators=(",", ":"), default=str)
        key = hashlib.sha256(serialized.encode("utf-8")).hexdigest()[:32]
        self._keys[name] = key
        return key

    # -- execution ----------------------------------------------------

    def prime(self, name: str, artifact: Any) -> None:
        """Hand the pipeline an externally computed artifact for ``name``."""
        self.store.prime(name, self.key(name), artifact)

    def get(self, name: str) -> Any:
        """Resolve one artifact, computing upstream stages as needed.

        Records exactly one :class:`StageExecution` per stage per
        pipeline lifetime; repeated ``get`` of a resolved stage returns
        the memoized artifact silently.
        """
        if name in self._done:
            return self._done[name]
        stage = self.stage(name)
        key = self.key(name)
        start = self._clock()
        hit = self.store.fetch(stage, key)
        if hit is not None:
            outcome, artifact = hit
        else:
            inputs = {dep: self.get(dep) for dep in stage.deps}
            start = self._clock()  # exclude upstream time from this record
            artifact = stage.run(inputs, StageContext(pipeline=self, stage=stage))
            self.store.put(stage, key, artifact)
            outcome = "computed"
        execution = StageExecution(
            order=len(self.executions) + 1,
            stage=name,
            key=key,
            parents=tuple(self.key(dep) for dep in stage.deps),
            outcome=outcome,
            wall_s=self._clock() - start,
        )
        self.executions.append(execution)
        if self._observer is not None:
            self._observer(execution)
        self._done[name] = artifact
        return artifact

    def run(self, targets: Iterable[str] | None = None) -> dict[str, Any]:
        """Resolve ``targets`` (default: every sink) → {name: artifact}."""
        names = list(targets) if targets is not None else self.sinks()
        return {name: self.get(name) for name in names}

    # -- provenance ---------------------------------------------------

    def manifest(self, extra_executions: Iterable[StageExecution] | None = None,
                 ) -> dict:
        """Provenance manifest: catalogue, keys and execution records."""
        from .. import __version__

        executions = list(self.executions)
        if extra_executions:
            executions = sorted(
                executions + list(extra_executions),
                key=lambda e: (e.order, e.stage),
            )
        return {
            "schema": PIPELINE_SCHEMA,
            "version": __version__,
            "stages": {
                name: {
                    "key": self.key(name),
                    "deps": list(stage.deps),
                    "code": list(stage.code),
                    "codec": stage.codec,
                }
                for name, stage in self.stages.items()
            },
            "executions": [e.to_json() for e in executions],
        }

    def write_manifest(
        self,
        path: str | pathlib.Path | None = None,
        extra_executions: Iterable[StageExecution] | None = None,
    ) -> pathlib.Path:
        """Write the manifest JSON; defaults to ``<store.root>/manifest.json``."""
        if path is None:
            if self.store.root is None:
                raise ConfigError(
                    "cannot write a manifest without a store root or path"
                )
            path = self.store.root / "manifest.json"
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = self.manifest(extra_executions=extra_executions)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return path
