"""Rule plumbing: the visitor registry and shared AST helpers.

A :class:`Rule` inspects one module at a time through
:meth:`Rule.check_module` and may emit cross-module findings from
:meth:`Rule.finalize` (e.g. the FOM contract, which needs both the
registry and every benchmark class).  Findings are reported through the
:class:`Collector` the engine passes in; the engine fills in snippets,
applies inline suppressions and the baseline afterwards.
"""

from __future__ import annotations

import ast
import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from ..findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dims import DimRegistry


class ModuleInfo:
    """One source module under analysis.

    ``digest`` (SHA-256 of the file's bytes) is its identity in every
    cache key; ``tree`` is parsed on first access -- a run served from
    the cache never parses -- and releases the bytes it was parsed from.
    """

    def __init__(self, relpath: str, source: bytes) -> None:
        self.relpath = relpath    # posix, relative to the repository root
        self.digest = hashlib.sha256(source).hexdigest()
        self._source: bytes | None = source

    @functools.cached_property
    def tree(self) -> ast.Module:
        tree = ast.parse(self._source, filename=self.relpath)
        self._source = None
        return tree


@dataclass
class ProjectContext:
    """The whole-project view handed to :meth:`Rule.prepare`.

    Built at most once per run, when the first result misses the
    cache: the dimension-annotation registry aggregated over every
    module that parses, plus the text of every side input a rule
    declared (:attr:`Rule.inputs`; None for a missing file).  There is
    no path in it on purpose: what a rule reads must be in a cache key.
    """

    registry: "DimRegistry"
    modules: list[ModuleInfo] = field(default_factory=list)
    inputs: dict[str, str | None] = field(default_factory=dict)


@dataclass
class Collector:
    """Finding sink handed to rules; snippets come from module sources."""

    findings: list[Finding] = field(default_factory=list)
    #: per file its lines, or the path to read them from when asked
    _sources: dict[str, list[str] | Path] = field(default_factory=dict)

    def lines(self, relpath: str) -> list[str]:
        """Source lines of a file, read and split on first lookup --
        only files with findings ever are."""
        lines = self._sources.get(relpath, [])
        if isinstance(lines, Path):
            lines = self._sources[relpath] = lines.read_text(
                encoding="utf-8", errors="replace").splitlines()
        return lines

    def add(self, rule: "Rule", relpath: str, line: int,
            message: str, *, severity: Severity | None = None,
            snippet: str | None = None, rule_id: str | None = None,
            trace: list[str] | None = None) -> None:
        if snippet is None:
            lines = self.lines(relpath)
            snippet = (lines[line - 1].strip()
                       if 0 < line <= len(lines) else "")
        self.findings.append(Finding(
            rule=rule_id or rule.id, severity=severity or rule.severity,
            path=relpath, line=line, message=message, snippet=snippet,
            trace=list(trace or ())))


class Rule:
    """Base class of all static-analysis rules.

    Subclasses set the identity attributes and override
    :meth:`check_module` (and optionally :meth:`applies_to` /
    :meth:`finalize`).  One rule instance sees the whole run, so it may
    accumulate cross-module state for :meth:`finalize`.
    """

    id: str = ""
    name: str = ""
    severity: Severity = Severity.WARNING
    description: str = ""
    #: further ids a multi-id rule emits besides :attr:`id` (e.g. the
    #: dataflow rule owns UNIT301..UNIT305)
    ids: tuple[str, ...] = ()
    #: "local" rules look at one module at a time and emit nothing from
    #: finalize -- their findings are cached per module and may be
    #: computed from worker threads.  "project" rules accumulate
    #: cross-module state; their findings are cached as one entry keyed
    #: on every file's digest, so they run whenever anything changed.
    scope: str = "local"
    #: files besides the modules that the rule reads, relative to
    #: ``rel_base``: hashed into the project cache key, their text handed
    #: to :meth:`prepare`.  Opening a file undeclared is unsound.
    inputs: tuple[str, ...] = ()
    #: ids left enabled after ``--rules``/``--disable`` filtering; None
    #: means all.  Set by the engine; multi-id rules consult
    #: :meth:`emits` before reporting under a given id.
    enabled_ids: frozenset[str] | None = None

    def all_ids(self) -> tuple[str, ...]:
        return (self.id, *self.ids) if self.ids else (self.id,)

    def emits(self, rule_id: str) -> bool:
        return self.enabled_ids is None or rule_id in self.enabled_ids

    def descriptors(self) -> list[dict]:
        """SARIF rule descriptors; multi-id rules return one per id."""
        return [{"id": self.id, "name": self.name,
                 "description": self.description,
                 "severity": self.severity}]

    def applies_to(self, relpath: str) -> bool:
        return True

    def cache_fingerprint(self) -> str:
        """Extra cache-key material for local rules whose per-module
        verdicts depend on cross-module state (e.g. interprocedural
        summaries).  The engine mixes it into each module's cache key,
        so editing a helper in one file invalidates dependent verdicts
        everywhere.  Must be stable across runs over the same tree;
        the default (no cross-module state) contributes nothing."""
        return ""

    def prepare(self, ctx: ProjectContext) -> None:
        """Receive the whole-project view before any rule computes."""

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        raise NotImplementedError

    def finalize(self, out: Collector) -> None:
        """Emit findings that need the whole-project view."""


# -- shared AST helpers ------------------------------------------------------

#: 40 % of all nodes, and asked for by no whole-module loop
_UNINDEXED = (ast.expr_context, ast.operator, ast.unaryop, ast.boolop,
              ast.cmpop, ast.Constant)
#: indexed under another class's key, to keep their relative walk order
_INDEXED_AS = {ast.AsyncFunctionDef: ast.FunctionDef,
               ast.ImportFrom: ast.Import}


def nodes(tree: ast.Module, cls: type) -> list:
    """Every ``cls`` node of a module, in :func:`ast.walk` order.

    The one walk a module gets: the first call indexes the tree by node
    class and keeps the index on it; every whole-module loop of every
    rule reads that.  ``ast.FunctionDef`` lists async defs too and
    ``ast.Import`` the from-imports; :data:`_UNINDEXED` is left out.
    """
    try:
        index = tree._nodes_by_class
    except AttributeError:
        index = {}
        for node in ast.walk(tree):
            if not isinstance(node, _UNINDEXED):
                kind = type(node)
                index.setdefault(_INDEXED_AS.get(kind, kind),
                                 []).append(node)
        tree._nodes_by_class = index
    return index.get(cls, [])


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to canonical dotted origins.

    ``import numpy as np`` -> ``np: numpy``; ``from time import
    perf_counter as pc`` -> ``pc: time.perf_counter``; relative imports
    are canonicalised by their module path with the dots stripped
    (``from ..units import GIGA`` -> ``GIGA: units.GIGA``).
    """
    aliases: dict[str, str] = {}
    for node in nodes(tree, ast.Import):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
                else:
                    head = a.name.split(".")[0]
                    aliases[head] = head
        else:
            base = node.module or ""
            for a in node.names:
                if a.name == "*":
                    continue
                full = f"{base}.{a.name}" if base else a.name
                aliases[a.asname or a.name] = full
    return aliases


def dotted_parts(node: ast.AST) -> list[str] | None:
    """The ``a.b.c`` name chain of an expression, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def canonical_name(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Canonical dotted name of an expression after alias resolution."""
    parts = dotted_parts(node)
    if not parts:
        return None
    head = aliases.get(parts[0])
    if head is None:
        return ".".join(parts)
    return ".".join([head, *parts[1:]])


def assigned_names(target: ast.AST) -> list[ast.Name]:
    """All plain names assigned by a target (handles tuple unpacking)."""
    if isinstance(target, ast.Name):
        return [target]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[ast.Name] = []
        for elt in target.elts:
            out.extend(assigned_names(elt))
        return out
    return []


def walk_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    """Every function/method in the module, including nested ones."""
    return nodes(tree, ast.FunctionDef)


def iter_direct_body(fn: ast.AST,
                     skip: Callable[[ast.AST], bool]) -> list[ast.AST]:
    """All nodes reachable from ``fn`` without entering ``skip`` nodes."""
    out: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if skip(node):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out
