"""layering: package imports must respect the declared layer order.

The repo's packages form a strict stack (see
:data:`repro.staticcheck.contract.PACKAGE_LAYER_ORDER`): simulation
substrate at the bottom, analysis above it, drivers (reporting,
fielddata, stream, pipeline) on top.  An import that reaches *upward*
couples a lower layer to its consumers — the kind of cycle-in-waiting
that previously hid behind ad-hoc "imported lazily" comments.  This
rule checks every resolved import edge (including function-level
imports) against the order; the deliberate inversions live in one
explicit, reviewable exception list
(:data:`repro.staticcheck.contract.LAYERING_EXCEPTIONS`) instead of
scattered comments.
"""

from __future__ import annotations

from typing import ClassVar, Iterable

from ..contract import LAYERING_EXCEPTIONS, layer_rank, resolve_layer
from ..framework import Finding, ModuleInfo, Rule, register


def _module_layer(name: str) -> str | None:
    """Layer entry covering a checked module's dotted name, or None.

    Resolution is most-specific-prefix (see
    :func:`repro.staticcheck.contract.resolve_layer`), so a dotted
    entry like ``stream.blocks`` ranks that module independently of the
    rest of its package.
    """
    parts = name.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return resolve_layer(".".join(parts[1:]))


def _imported_layer(target: str) -> str | None:
    """Layer entry covering an imported module, or None.

    Imports of a bare package (``repro.stream``) stay exempt — only
    module-level targets (``repro.stream.blocks``) are ranked — as do
    top-level modules (``repro.config``).
    """
    parts = target.split(".")
    if parts[0] != "repro" or len(parts) < 3:
        return None
    return resolve_layer(".".join(parts[1:]))


@register
class LayeringRule(Rule):
    id: ClassVar[str] = "layering"
    title: ClassVar[str] = "import reaches upward through the package layers"
    rationale: ClassVar[str] = (
        "Packages form a declared stack (substrate → analysis → drivers); "
        "upward imports create hidden cycles and make lower layers "
        "untestable in isolation.  Deliberate inversions belong in "
        "staticcheck.contract.LAYERING_EXCEPTIONS, not in lazy-import "
        "comments."
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        # Top-level modules (cli, config, parallel, …) orchestrate across
        # layers by design and sit outside the order.
        return _module_layer(module.name) is not None

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        own_layer = _module_layer(module.name)
        own_rank = layer_rank(own_layer)
        for target, lineno in module.import_edges:
            layer = _imported_layer(target)
            if layer is None or layer == own_layer:
                continue
            target_rank = layer_rank(layer)
            if target_rank is None or target_rank <= own_rank:
                continue
            if (module.name, layer) in LAYERING_EXCEPTIONS:
                continue
            yield self.finding(
                module, lineno,
                f"imports {target!r} ({layer!r}, layer {target_rank}) from "
                f"the lower {own_layer!r} layer ({own_rank}); add the "
                "pair to LAYERING_EXCEPTIONS if the inversion is deliberate",
            )
