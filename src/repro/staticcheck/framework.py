"""Rule framework: module model, registry, suppressions, single-walk driver.

A :class:`ModuleInfo` is one parsed source file plus everything rules
need to reason about it: its dotted module name, its top-level package
within ``repro``, its resolved import bindings and per-line suppression
map.  Rules subclass :class:`Rule` and register with :func:`register`;
the driver parses each file once, walks its AST once, and dispatches
every node to the rules that declared interest in its type.
"""

from __future__ import annotations

import ast
import pathlib
import re
import tokenize
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator

from ..errors import DataError

#: Per-line suppression: ``# repro: noqa[RULE-ID]`` or ``[ID1,ID2]``.
NOQA_PATTERN = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s-]+)\]")

#: Whole-file suppression: ``# repro: noqa-file[RULE-ID]`` on any line.
NOQA_FILE_PATTERN = re.compile(r"#\s*repro:\s*noqa-file\[([A-Za-z0-9_,\s-]+)\]")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  # package-relative, e.g. "repro/telemetry/stats.py"
    line: int
    col: int
    message: str
    source_line: str = ""

    def location(self) -> str:
        """``path:line:col`` for human output."""
        return f"{self.path}:{self.line}:{self.col}"


class ModuleInfo:
    """One parsed module and the derived facts rules dispatch on.

    Attributes:
        name: dotted module name, e.g. ``repro.telemetry.stats``.
        package: first package segment under ``repro`` ("" for
            top-level modules like ``repro.config``).
        path: on-disk location (may be synthetic for snippet linting).
        relpath: stable package-relative path used in findings and
            baseline fingerprints.
        tree: the parsed AST.
        lines: source split into lines (1-indexed via ``line(n)``).
        bindings: local name → dotted origin for imports, e.g.
            ``{"np": "numpy", "datetime": "datetime.datetime"}``.
        import_edges: ``(imported module, lineno)`` pairs with relative
            imports resolved against ``known_modules``.
    """

    def __init__(
        self,
        source: str,
        name: str,
        path: pathlib.Path,
        known_modules: frozenset[str],
    ):
        try:
            self.tree = ast.parse(source)
        except SyntaxError as error:
            raise DataError(f"{path}: cannot parse: {error}") from error
        self.source = source
        self.name = name
        parts = name.split(".")
        self.package = parts[1] if len(parts) > 2 else ""
        self.path = path
        self.relpath = name.replace(".", "/") + ".py"
        self.lines = source.splitlines()
        self.known_modules = known_modules
        self.suppressions, self.file_suppressions = _parse_suppressions(source)
        self.bindings = _import_bindings(self.tree)
        self.import_edges = _import_edges(self.tree, name, known_modules)

    def line(self, lineno: int) -> str:
        """Source text of 1-indexed ``lineno`` ("" out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted origin of an expression, imports expanded.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` under ``import numpy as np``;
        returns None for expressions that are not plain dotted names.
        """
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        origin = self.bindings.get(root)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin

    def is_suppressed(self, finding: Finding) -> bool:
        """True when a noqa comment covers this finding."""
        if finding.rule in self.file_suppressions or "*" in self.file_suppressions:
            return True
        rules = self.suppressions.get(finding.line, frozenset())
        return finding.rule in rules or "*" in rules


def _parse_suppressions(
    source: str,
) -> tuple[dict[int, frozenset[str]], frozenset[str]]:
    """Extract per-line and whole-file noqa pragmas from comments."""
    per_line: dict[int, frozenset[str]] = {}
    whole_file: set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "#" not in text:
            continue
        file_match = NOQA_FILE_PATTERN.search(text)
        if file_match:
            whole_file.update(_split_rule_ids(file_match.group(1)))
            continue
        match = NOQA_PATTERN.search(text)
        if match:
            per_line[lineno] = frozenset(_split_rule_ids(match.group(1)))
    return per_line, frozenset(whole_file)


def _split_rule_ids(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for nested Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _import_bindings(tree: ast.Module) -> dict[str, str]:
    """Local name → dotted origin for every top-level import."""
    bindings: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                bindings[local] = origin
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                bindings[local] = f"{node.module}.{alias.name}"
    return bindings


def _import_edges(
    tree: ast.Module, module_name: str, known_modules: frozenset[str],
) -> list[tuple[str, int]]:
    """Absolute ``(target module, lineno)`` for every import statement.

    ``from pkg import name`` resolves ``name`` to a submodule when one
    exists in ``known_modules`` and falls back to ``pkg`` otherwise;
    relative imports are resolved against ``module_name``.
    """
    edges: list[tuple[str, int]] = []
    package_parts = module_name.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges.append((alias.name, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # "from ..x import y": climb level-1 packages up.
                if node.level - 1 > len(package_parts):
                    continue  # beyond the package root; leave unresolved
                base_parts = package_parts[:len(package_parts) - (node.level - 1)]
                base = ".".join(base_parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                candidate = f"{base}.{alias.name}"
                target = candidate if candidate in known_modules else base
                edges.append((target, node.lineno))
    return edges


class Rule:
    """One named invariant checked against every walked module.

    Subclasses set the class attributes, optionally narrow
    :meth:`applies_to`, and implement :meth:`check_module` (whole-file
    checks, e.g. over the import graph) and/or :meth:`check_node`
    together with :attr:`node_types` (per-node checks dispatched by the
    framework's single AST walk).
    """

    #: Stable rule identifier used in noqa comments and baselines.
    id: ClassVar[str] = ""
    #: One-line summary shown in reports.
    title: ClassVar[str] = ""
    #: Why the invariant matters (shown by ``repro lint --list-rules``).
    rationale: ClassVar[str] = ""
    #: AST node classes this rule wants to see (empty = module-only).
    node_types: ClassVar[tuple[type, ...]] = ()
    #: Semantic version of the rule implementation; part of the lint
    #: cache key, so bumping it re-analyzes every cached module.
    version: ClassVar[int] = 1

    def applies_to(self, module: ModuleInfo) -> bool:
        """Whether the rule runs on ``module`` at all."""
        return True

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        """Whole-module checks; default none."""
        return ()

    def check_node(self, node: ast.AST, module: ModuleInfo) -> Iterable[Finding]:
        """Per-node checks for nodes matching :attr:`node_types`."""
        return ()

    def finding(
        self, module: ModuleInfo, node: ast.AST | int, message: str,
    ) -> Finding:
        """Build a :class:`Finding` at an AST node (or bare lineno)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line, col = node.lineno, node.col_offset
        return Finding(
            rule=self.id, path=module.relpath, line=line, col=col,
            message=message, source_line=module.line(line).strip(),
        )


#: Registry of rule classes by id, in registration order.
_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not rule_cls.id:
        raise DataError(f"rule {rule_cls.__name__} has no id")
    if rule_cls.id in _REGISTRY:
        raise DataError(f"duplicate rule id {rule_cls.id!r}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule."""
    from . import rules  # noqa: F401  (importing registers the rule pack)

    return [cls() for cls in _REGISTRY.values()]


def get_rule(rule_id: str) -> Rule:
    """Instance of one registered rule by id."""
    from . import rules  # noqa: F401

    try:
        return _REGISTRY[rule_id]()
    except KeyError:
        raise DataError(
            f"unknown rule {rule_id!r}; have {sorted(_REGISTRY)}"
        ) from None


@dataclass
class WalkResult:
    """Findings from one driver pass, suppressions already applied."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    n_modules: int = 0


def check_modules(modules: list[ModuleInfo], rules: list[Rule]) -> WalkResult:
    """Run every rule over every module with one AST walk per module."""
    result = WalkResult(n_modules=len(modules))
    for module in modules:
        active = [rule for rule in rules if rule.applies_to(module)]
        if not active:
            continue
        raw: list[Finding] = []
        for rule in active:
            raw.extend(rule.check_module(module))
        node_rules = [rule for rule in active if rule.node_types]
        if node_rules:
            for node in ast.walk(module.tree):
                for rule in node_rules:
                    if isinstance(node, rule.node_types):
                        raw.extend(rule.check_node(node, module))
        for finding in raw:
            if module.is_suppressed(finding):
                result.suppressed.append(finding)
            else:
                result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    result.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def read_source(path: pathlib.Path) -> str:
    """Read a Python file honouring its encoding declaration."""
    with tokenize.open(path) as handle:
        return handle.read()
