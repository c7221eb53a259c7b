"""The repo's architectural contract, as data the rules consume.

Everything here is *derived* from the domain modules at lint time —
the forbidden ground-truth attributes come from the hazard schema marks
(:mod:`repro.groundtruth`) and the telemetry key set from
:mod:`repro.telemetry.schema` — so extending the simulator extends the
lint without touching the checker.
"""

from __future__ import annotations

import functools

#: Packages on the operator-visible side of the field-data boundary.
#: They may consume simulator *outputs* (tickets, sensor streams,
#: inventory) but never the planted hazard model.
ANALYSIS_PACKAGES: frozenset[str] = frozenset(
    {"analysis", "autonomics", "decisions", "predict", "reporting", "stream",
     "telemetry"}
)

#: Packages whose dict keys for tickets/inventory must come from
#: ``telemetry.schema`` constants (the analysis side plus the field-data
#: ingestion/degradation layer, which round-trips the same artifacts).
SCHEMA_KEYED_PACKAGES: frozenset[str] = ANALYSIS_PACKAGES | {"fielddata"}

#: Modules holding the planted hazard model; the analysis side must not
#: import them (directly or via `import repro.failures.hazards as h`).
FORBIDDEN_GROUND_TRUTH_MODULES: tuple[str, ...] = (
    "repro.failures.hazards",
    "repro.failures.faultmodel",
)

#: The named-stream helper module exempt from RNG discipline.
RNG_HELPER_MODULES: frozenset[str] = frozenset({"repro.rng"})

#: Declared taint sanitizers for the interprocedural GT-taint rule
#: (``module:qualname`` node ids).  The simulation engine is the
#: paper's operator-visibility projection: planted hazard parameters
#: go in, and what comes out (tickets, sensor streams, inventory) *is*
#: the legitimate operator-visible dataset — so taint stops at its
#: return value.  Anything added here must be an intentional
#: ground-truth → observable boundary, not a convenience.
TAINT_BOUNDARY: frozenset[str] = frozenset({
    "repro.failures.engine:simulate",
    # The stepping session is the same projection, released
    # incrementally: each step's ticket chunk (and the running prefix /
    # final result) is operator-visible field data, so taint stops at
    # these return values exactly as it does at batch ``simulate``.
    "repro.failures.engine:SimulationSession.step",
    "repro.failures.engine:SimulationSession.tickets_so_far",
    "repro.failures.engine:SimulationSession.result",
})

#: Call refs whose result depends on when/where the process runs —
#: poison for content-addressed cache keys (fingerprint-purity rule).
NONDETERMINISTIC_CALLS: frozenset[str] = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.perf_counter",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
    "os.urandom",
    "os.getenv",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "random.random",
    "random.randint",
    "random.choice",
    "random.shuffle",
})

#: Call refs that block the event loop when reached from an ``async
#: def`` without an executor hop (async-safety rule).
BLOCKING_CALLS: frozenset[str] = frozenset({
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.socket",
    "socket.create_connection",
    "open",
})

#: Attribute-call names that hop work off the event loop; traversal of
#: the async-reachability closure stops at call sites passing through
#: these (their callable arguments run on an executor thread).
EXECUTOR_HOPS: frozenset[str] = frozenset({
    "run_in_executor",
    "to_thread",
})

#: Declared package layering, lowest first.  A module may import from
#: its own layer or below; importing *upward* is a ``layering`` finding
#: unless the (module, layer) pair is listed in
#: :data:`LAYERING_EXCEPTIONS`.  Top-level modules (``repro.cli``,
#: ``repro.parallel``, …) sit outside the order and are exempt on both ends.
#:
#: Entries may be dotted to rank one module independently of its
#: package: ``stream.blocks`` (the columnar event core) sits *below*
#: the rest of ``stream`` so the estimators/analyzer consume it while
#: it stays importable from anywhere a flattened trace is useful.  A
#: module resolves to its most-specific dotted prefix in the order
#: (``repro.stream.blocks`` → ``stream.blocks``,
#: ``repro.stream.estimators`` → ``stream``); see :func:`resolve_layer`.
PACKAGE_LAYER_ORDER: tuple[str, ...] = (
    "datacenter",
    "environment",
    "failures",
    "telemetry",
    "analysis",
    "decisions",
    "reporting",
    "fielddata",
    "stream.blocks",
    "stream",
    "predict",
    "autonomics",
    "pipeline",
    "staticcheck",
    "serve",
)

#: Baselined upward imports: ``(importer module, imported package)``
#: pairs the layering rule accepts.  Each is a deliberate, documented
#: inversion — the experiment registry reaches up to the fielddata and
#: stream experiments it federates, and the sweep workers build
#: pipeline sub-DAGs — performed via function-level imports so module
#: import time stays layered.
LAYERING_EXCEPTIONS: frozenset[tuple[str, str]] = frozenset({
    ("repro.reporting.experiments", "fielddata"),
    ("repro.reporting.experiments", "stream"),
    ("repro.reporting.experiments", "predict"),
    ("repro.reporting.experiments", "autonomics"),
    ("repro.reporting.sweeps", "pipeline"),
    # airflow's feature marks come from telemetry.schema, a leaf
    # declarations module with no further repro imports.
    ("repro.environment.airflow", "telemetry"),
})


def layer_rank(package: str) -> int | None:
    """Position of a package in the layer order (None = unranked)."""
    try:
        return PACKAGE_LAYER_ORDER.index(package)
    except ValueError:
        return None


def resolve_layer(dotted: str) -> str | None:
    """Most-specific layer entry covering a dotted path under ``repro``.

    ``dotted`` omits the leading ``repro.``: ``"stream.estimators"``
    resolves to ``"stream"``, ``"stream.blocks"`` to itself, and paths
    with no covering entry (top-level modules) to ``None``.
    """
    best: str | None = None
    for entry in PACKAGE_LAYER_ORDER:
        if dotted == entry or dotted.startswith(entry + "."):
            if best is None or len(entry) > len(best):
                best = entry
    return best


@functools.lru_cache(maxsize=1)
def ground_truth_attributes() -> frozenset[str]:
    """Attribute names the analysis side must never read (generated)."""
    from ..groundtruth import ground_truth_attributes as generate

    return generate()


@functools.lru_cache(maxsize=1)
def telemetry_field_names() -> frozenset[str]:
    """Ticket/inventory field names that must be spelled via constants."""
    from ..telemetry.schema import telemetry_field_names as generate

    return generate()


def is_analysis_module(module_name: str) -> bool:
    """True for modules inside the analysis-side packages."""
    parts = module_name.split(".")
    return len(parts) > 2 and parts[1] in ANALYSIS_PACKAGES
