"""The ``streaming`` experiment: online vs batch, on one run.

Demonstrates (and re-verifies, every time it renders) the subsystem's
three contracts on the context's simulation run:

1. **Batch equivalence** — streaming λ and μ matrices are bit-identical
   to :mod:`repro.telemetry.aggregate` on the same data.
2. **Checkpoint/resume determinism** — a mid-trace checkpoint resumed on
   the stream suffix reproduces the one-pass matrices and alerts exactly.
3. **Trigger calibration** — an SLA-risk monitor provisioned from the
   run's own μ history emits zero alerts, while halving its spare pool
   on the same stream surfaces genuine risk.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from ..decisions.availability import AvailabilitySla
from ..reporting.context import AnalysisContext
from ..telemetry.aggregate import lambda_matrix, mu_matrix
from .analyzer import StreamAnalyzer
from .blocks import EventKind, StreamInventory, blocks_from_result
from .checkpoint import load_checkpoint, save_checkpoint
from .triggers import calibrated_spare_fraction

#: Pipeline stage dependencies of the registered ``streaming``
#: experiment: none beyond the simulation itself — the experiment
#: re-derives its batch baselines in-process on purpose, since its whole
#: point is verifying the online analyzers against them.  Cross-checked
#: against the experiment registry's declaration by tests.
STAGE_DEPS: tuple[str, ...] = ()

#: Modules whose source content invalidates a cached rendering of the
#: ``streaming`` experiment (cross-checked likewise).
CODE_MODULES: tuple[str, ...] = ("repro.stream.experiment",)

#: Event kinds the experiment streams (sensor samples carry no λ/μ
#: signal and would dominate the event count at paper scale).
_KINDS = frozenset({
    EventKind.INVENTORY_CHANGE,
    EventKind.TICKET_OPEN,
    EventKind.TICKET_CLOSE,
})


def streaming_experiment(
    context: AnalysisContext,
    window_hours: float = 24.0,
    stress_factor: float = 0.5,
) -> str:
    """Render the streaming-vs-batch report for the context's run."""
    result = context.result
    inventory = StreamInventory.from_result(result)
    sla = AvailabilitySla(1.0)

    batch_lambda = lambda_matrix(result)
    batch_mu = mu_matrix(result, window_hours)
    fraction = calibrated_spare_fraction(
        batch_mu, inventory.n_servers, sla,
    )

    def stream(spare_fraction: float) -> StreamAnalyzer:
        analyzer = StreamAnalyzer(
            inventory, window_hours=window_hours, sla=sla,
            spare_fraction=spare_fraction,
        )
        analyzer.consume_blocks(blocks_from_result(result, kinds=_KINDS))
        analyzer.finish()
        return analyzer

    calibrated = stream(fraction)
    lambda_equal = np.array_equal(calibrated.lambda_matrix(), batch_lambda)
    mu_equal = np.array_equal(calibrated.mu_matrix(), batch_mu)

    # Checkpoint at the stream midpoint, resume on the suffix, and
    # compare against the uninterrupted pass.
    split = calibrated.events_seen // 2
    partial = StreamAnalyzer(
        inventory, window_hours=window_hours, sla=sla, spare_fraction=fraction,
    )
    partial.consume_blocks(blocks_from_result(result, kinds=_KINDS),
                           max_events=split)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_checkpoint(partial, Path(tmp) / "stream.ckpt.npz")
        resumed = load_checkpoint(path, inventory)
    resumed.consume_blocks(
        blocks_from_result(result, kinds=_KINDS, skip=resumed.events_seen)
    )
    resumed.finish()
    resume_equal = (
        np.array_equal(resumed.lambda_matrix(), calibrated.lambda_matrix())
        and np.array_equal(resumed.mu_matrix(), calibrated.mu_matrix())
        and resumed.alerts == calibrated.alerts
    )

    stressed = stream(fraction * stress_factor)

    summary = calibrated.summary()
    lines = [
        "Streaming analysis vs batch (repro.stream)",
        "",
        f"events streamed          : {calibrated.events_seen}",
        f"tickets counted (λ)      : {summary['tickets_counted']}",
        f"μmax ({window_hours:g}h windows)     : {summary['mu_max']}",
        f"λ bit-identical to batch : {'yes' if lambda_equal else 'NO'}",
        f"μ bit-identical to batch : {'yes' if mu_equal else 'NO'}",
        f"checkpoint/resume exact  : {'yes' if resume_equal else 'NO'}"
        f" (split at event {split})",
        "",
        f"calibrated spare fraction: {fraction:.4f} "
        f"(SLA {sla.percent_label})",
        f"alerts at calibration    : {len(calibrated.alerts)}",
        f"alerts at {stress_factor:g}x spares    : {len(stressed.alerts)}",
    ]
    for alert in stressed.alerts[:5]:
        lines.append(f"  [{alert.kind.value}] t={alert.time_hours:.1f}h "
                     f"{alert.message}")
    if len(stressed.alerts) > 5:
        lines.append(f"  ... and {len(stressed.alerts) - 5} more")
    return "\n".join(lines)
