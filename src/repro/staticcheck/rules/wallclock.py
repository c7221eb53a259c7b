"""wallclock: simulation and analysis never read the machine's clock.

A replayed run must produce byte-identical artifacts years later, and
cached/checkpointed state must not embed "now".  Clocks therefore enter
as injected callables (see :class:`repro.pipeline.ArtifactStore`'s
``clock`` parameter) — referencing ``time.time`` as a default argument is fine,
*calling* it inline is not.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterable

from ..framework import Finding, ModuleInfo, Rule, register

#: Resolved dotted callables that read the wall clock.
_FORBIDDEN_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})


@register
class WallclockRule(Rule):
    id: ClassVar[str] = "wallclock"
    title: ClassVar[str] = "wall-clock read in a replayable path"
    rationale: ClassVar[str] = (
        "Runs, caches and checkpoints must replay bit-identically; "
        "inject a clock callable (defaulting to time.time) instead of "
        "calling the clock inline."
    )
    node_types: ClassVar[tuple[type, ...]] = (ast.Call,)

    def check_node(self, node: ast.AST, module: ModuleInfo) -> Iterable[Finding]:
        assert isinstance(node, ast.Call)
        full = module.resolve(node.func)
        if full in _FORBIDDEN_CALLS:
            yield self.finding(
                module, node,
                f"wall-clock call {full}(); inject a clock callable so the "
                "path stays replayable",
            )
