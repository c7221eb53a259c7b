"""Registry and base class for interprocedural (whole-program) rules.

Mirrors the per-module :class:`~repro.staticcheck.framework.Rule`
registry, but a :class:`WholeProgramRule` sees the *entire* linked
program — every module summary plus the resolved call graph — and so
can follow taint through helpers, purity through call chains, and
blocking calls under async roots.

Each rule carries a ``version``: bumping it invalidates the
content-addressed lint-fragment cache for every module, because a new
rule semantics can change findings without any source changing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar, Iterable

from ...errors import DataError
from ..framework import Finding

if TYPE_CHECKING:
    from .callgraph import CallGraph, Program
    from .summaries import ModuleSummary


class WholeProgramRule:
    """One program-wide invariant checked over the linked call graph."""

    #: Stable rule identifier used in noqa comments and baselines.
    id: ClassVar[str] = ""
    #: One-line summary shown in reports.
    title: ClassVar[str] = ""
    #: Why the invariant matters (``repro lint --list-rules``).
    rationale: ClassVar[str] = ""
    #: Cache-busting semantic version of the rule implementation.
    version: ClassVar[int] = 1

    def check_program(self, program: "Program",
                      graph: "CallGraph") -> Iterable[Finding]:
        """Yield findings over the whole program."""
        return ()

    def finding(self, summary: "ModuleSummary", line: int,
                message: str) -> Finding:
        """Build a finding anchored at ``line`` of ``summary``'s module.

        The source text comes from the summary's recorded lines, so a
        warm cache hit reproduces findings byte-identically without
        re-reading the file.
        """
        return Finding(
            rule=self.id, path=summary.path, line=line, col=0,
            message=message, source_line=summary.line_text(line),
        )


#: Registry of whole-program rule classes by id, in registration order.
_WP_REGISTRY: dict[str, type[WholeProgramRule]] = {}


def register_wholeprogram(
    rule_cls: type[WholeProgramRule],
) -> type[WholeProgramRule]:
    """Class decorator adding a whole-program rule to the registry."""
    if not rule_cls.id:
        raise DataError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in _WP_REGISTRY:
        raise DataError(f"duplicate whole-program rule id {rule_cls.id!r}")
    _WP_REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_wholeprogram_rules() -> list[WholeProgramRule]:
    """Fresh instances of every registered whole-program rule."""
    from .. import rules  # noqa: F401  (importing registers the rule pack)

    return [cls() for cls in _WP_REGISTRY.values()]


def get_wholeprogram_rule(rule_id: str) -> WholeProgramRule:
    """Instance of one registered whole-program rule by id."""
    from .. import rules  # noqa: F401

    try:
        return _WP_REGISTRY[rule_id]()
    except KeyError:
        raise DataError(
            f"unknown whole-program rule {rule_id!r}; "
            f"have {sorted(_WP_REGISTRY)}"
        ) from None
