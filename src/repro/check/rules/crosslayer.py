"""XLY4xx: consistency across layers that share a vocabulary.

Three contracts that no single module can check on its own:

* **XLY401** -- every telemetry event type emitted in code (a
  ``{"type": "..."}`` dict literal passed to ``.emit()`` or returned
  from an event builder) exists in ``telemetry/schema.py``'s
  ``_REQUIRED`` table; an unknown type crashes ``validate_file`` on
  the first trace that carries it.
* **XLY402** -- every ``--flag`` registered in ``cli.py`` is mentioned
  in the README; undocumented flags rot.
* **XLY403** -- every rule id is defined by exactly one rule class and
  every rule class is registered exactly once in ``RULE_CLASSES``;
  duplicate or orphan rules silently skew reports.

All three accumulate sightings in :meth:`check_module` and judge in
:meth:`finalize`, so they are ``scope = "project"``: cached in the
project entry, keyed on every file's digest and (XLY402) the README it
declares as a side input.  On trees that lack the counterpart
artifact (fixture trees without a schema module, a README, or a rule
registry) they emit nothing.
"""

from __future__ import annotations

import ast
import re

from ..findings import Severity
from .base import Collector, ModuleInfo, ProjectContext, Rule, nodes


def _dict_const(node: ast.Dict, key: str) -> str | None:
    """The constant string value of ``node[key]``, if present."""
    for k, v in zip(node.keys, node.values):
        if isinstance(k, ast.Constant) and k.value == key and \
                isinstance(v, ast.Constant) and isinstance(v.value, str):
            return v.value
    return None


class TelemetryEventTypeRule(Rule):
    """XLY401: emitted event types must exist in the telemetry schema."""

    id = "XLY401"
    name = "telemetry-event-schema"
    severity = Severity.ERROR
    scope = "project"
    description = ("Every telemetry event type emitted in code must be "
                   "declared in telemetry/schema.py; an undeclared type "
                   "makes validate_file reject the trace at runtime.")

    def __init__(self) -> None:
        self._schema_types: set[str] | None = None
        self._emitted: list[tuple[str, str, int]] = []

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        if module.relpath.endswith("telemetry/schema.py"):
            self._schema_types = _schema_event_types(module.tree)
            return
        for event in _emitted_event_dicts(module.tree):
            etype = _dict_const(event, "type")
            if etype is not None:
                self._emitted.append((etype, module.relpath, event.lineno))

    def finalize(self, out: Collector) -> None:
        if self._schema_types is None:
            return
        for etype, relpath, lineno in self._emitted:
            if etype not in self._schema_types:
                out.add(self, relpath, lineno,
                        f"telemetry event type {etype!r} is not "
                        f"declared in telemetry/schema.py (known: "
                        f"{', '.join(sorted(self._schema_types))})")


def _schema_event_types(tree: ast.Module) -> set[str]:
    """Keys of the module-level ``_REQUIRED`` dict literal."""
    for stmt in tree.body:
        target = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target = stmt.target
            value = stmt.value
        if isinstance(target, ast.Name) and target.id == "_REQUIRED" and \
                isinstance(value, ast.Dict):
            return {k.value for k in value.keys
                    if isinstance(k, ast.Constant) and
                    isinstance(k.value, str)}
    return set()


def _emitted_event_dicts(tree: ast.Module) -> list[ast.Dict]:
    """Event-shaped dict literals: ``.emit({...})`` arguments and
    ``return {"type": ...}`` bodies of event builders."""
    emitted = [arg for call in nodes(tree, ast.Call)
               if isinstance(call.func, ast.Attribute) and
               call.func.attr == "emit"
               for arg in call.args if isinstance(arg, ast.Dict)]
    return emitted + [ret.value for ret in nodes(tree, ast.Return)
                      if isinstance(ret.value, ast.Dict)]


class CliFlagDocumentedRule(Rule):
    """XLY402: every CLI flag appears in the README."""

    id = "XLY402"
    name = "cli-flag-documented"
    severity = Severity.WARNING
    scope = "project"
    inputs = ("README.md",)
    description = ("Every --flag registered in cli.py must be "
                   "mentioned in README.md; flags that exist only in "
                   "--help go stale and unadvertised.")

    def __init__(self) -> None:
        self._readme: str | None = None
        self._flags: list[tuple[str, str, int]] = []

    def prepare(self, ctx: ProjectContext) -> None:
        self._readme = ctx.inputs["README.md"]

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        if not module.relpath.endswith("cli.py"):
            return
        for node in nodes(module.tree, ast.Call):
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "add_argument" and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and \
                        isinstance(first.value, str) and \
                        first.value.startswith("--"):
                    self._flags.append(
                        (first.value, module.relpath, node.lineno))

    def finalize(self, out: Collector) -> None:
        if self._readme is None:
            return
        for flag, relpath, lineno in self._flags:
            # a longer flag sharing the prefix must not count as a
            # mention (--cache never documents --cache-dir)
            pattern = re.escape(flag) + r"(?![\w-])"
            if not re.search(pattern, self._readme):
                out.add(self, relpath, lineno,
                        f"CLI flag {flag} is not mentioned in "
                        f"README.md; document it or drop it")


class RuleRegistrationRule(Rule):
    """XLY403: rule ids defined once, rule classes registered once."""

    id = "XLY403"
    name = "rule-registered-once"
    severity = Severity.ERROR
    scope = "project"
    description = ("Every rule id must be defined by exactly one rule "
                   "class under check/rules/, and every rule class "
                   "must appear exactly once in RULE_CLASSES; "
                   "duplicates and orphans silently skew reports.")

    def __init__(self) -> None:
        #: rule id -> [(class name, relpath, lineno)]
        self._defined: dict[str, list[tuple[str, str, int]]] = {}
        #: class name -> (relpath, lineno)
        self._classes: dict[str, tuple[str, int]] = {}
        self._registered: list[tuple[str, str, int]] = []
        self._saw_registry = False

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        if "check/rules/" not in module.relpath:
            return
        if module.relpath.endswith("__init__.py"):
            self._saw_registry = True
            self._registered = _registered_classes(module)
            return
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                self._record_class(node, module)

    def _record_class(self, node: ast.ClassDef,
                      module: ModuleInfo) -> None:
        ids: set[str] = set()
        for stmt in node.body:
            if not isinstance(stmt, ast.Assign) or \
                    len(stmt.targets) != 1 or \
                    not isinstance(stmt.targets[0], ast.Name):
                continue
            target = stmt.targets[0].id
            if target == "id" and isinstance(stmt.value, ast.Constant) \
                    and isinstance(stmt.value.value, str) \
                    and stmt.value.value:
                ids.add(stmt.value.value)
            elif target == "ids" and \
                    isinstance(stmt.value, (ast.Tuple, ast.List)):
                ids |= {e.value for e in stmt.value.elts
                        if isinstance(e, ast.Constant) and
                        isinstance(e.value, str)}
        if not ids:
            return
        self._classes[node.name] = (module.relpath, node.lineno)
        for rule_id in ids:
            self._defined.setdefault(rule_id, []).append(
                (node.name, module.relpath, node.lineno))

    def finalize(self, out: Collector) -> None:
        if not self._saw_registry:
            return
        for rule_id, sites in sorted(self._defined.items()):
            if len(sites) > 1:
                owners = ", ".join(cls for cls, _, _ in sites)
                for cls, relpath, lineno in sites:
                    out.add(self, relpath, lineno,
                            f"rule id {rule_id} is defined by "
                            f"{len(sites)} classes ({owners}); ids "
                            f"must be unique")
        counts: dict[str, int] = {}
        for cls, _, _ in self._registered:
            counts[cls] = counts.get(cls, 0) + 1
        for cls, (relpath, lineno) in sorted(self._classes.items()):
            n = counts.get(cls, 0)
            if n == 0:
                out.add(self, relpath, lineno,
                        f"rule class {cls} is not registered in "
                        f"RULE_CLASSES; it never runs")
            elif n > 1:
                out.add(self, relpath, lineno,
                        f"rule class {cls} is registered {n} times in "
                        f"RULE_CLASSES; findings would duplicate")


def _registered_classes(module: ModuleInfo) -> list[tuple[str, str, int]]:
    """Entries of the ``RULE_CLASSES`` tuple literal, by class name."""
    out: list[tuple[str, str, int]] = []
    for stmt in module.tree.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
            value = stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and \
                    target.id == "RULE_CLASSES" and \
                    isinstance(value, (ast.Tuple, ast.List)):
                for elt in value.elts:
                    if isinstance(elt, ast.Name):
                        out.append((elt.id, module.relpath, elt.lineno))
    return out
