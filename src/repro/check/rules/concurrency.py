"""Concurrency rule: module-level mutable state wants a lock.

The engine runs benchmarks from many worker threads; every module that
creates a :class:`threading.Lock` has already opted into that world.
Inside such modules, mutating module-level state (reassigning a
``global``, or calling a mutator on a module-level container) outside a
``with <lock>:`` block is a data race waiting for a thread schedule.
Import-time initialisation is exempt (single-threaded by construction);
instance state guarded by ``self._lock`` is out of scope here -- this
rule only polices *module* globals.
"""

from __future__ import annotations

import ast

from ..findings import Severity
from .base import (
    Collector,
    ModuleInfo,
    Rule,
    assigned_names,
    canonical_name,
    import_aliases,
    nodes,
    walk_functions,
)

LOCK_FACTORIES = frozenset({"threading.Lock", "threading.RLock"})

#: container methods that mutate in place
MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "appendleft", "popleft",
})

CONTAINER_FACTORIES = frozenset({
    "list", "dict", "set", "collections.defaultdict", "collections.deque",
    "collections.OrderedDict", "collections.Counter",
})


def _module_containers(tree: ast.Module,
                       aliases: dict[str, str]) -> set[str]:
    """Names bound at module level to mutable containers."""
    names: set[str] = set()
    for stmt in tree.body:
        value = getattr(stmt, "value", None)
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or value is None:
            continue
        is_container = isinstance(value, (ast.List, ast.Dict, ast.Set,
                                          ast.ListComp, ast.DictComp,
                                          ast.SetComp))
        if isinstance(value, ast.Call):
            is_container = canonical_name(value.func, aliases) \
                in CONTAINER_FACTORIES
        if not is_container:
            continue
        targets = stmt.targets if isinstance(stmt, ast.Assign) \
            else [stmt.target]
        for target in targets:
            names.update(n.id for n in assigned_names(target))
    return names


def _locky_with(node: ast.With) -> bool:
    """Whether a ``with`` statement plausibly holds a lock."""
    return any("lock" in ast.unparse(item.context_expr).lower()
               for item in node.items)


class UnlockedModuleStateRule(Rule):
    """LCK201: module-level state mutated outside a lock."""

    id = "LCK201"
    name = "unlocked-module-state"
    severity = Severity.ERROR
    description = ("In a Lock-using module, module-level mutable state "
                   "is mutated outside any 'with <lock>:' block; under "
                   "the threaded execution engine this is a data race.")

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        aliases = import_aliases(module.tree)
        if not any(canonical_name(node.func, aliases) in LOCK_FACTORIES
                   for node in nodes(module.tree, ast.Call)):
            return
        containers = _module_containers(module.tree, aliases)
        for fn in walk_functions(module.tree):
            self._check_function(fn, containers, module, out)

    def _check_function(self, fn: ast.AST, containers: set[str],
                        module: ModuleInfo, out: Collector) -> None:
        """One function body; nested defs are visited independently."""
        globals_here: set[str] = set()
        statements: list[tuple[ast.AST, bool]] = []

        def walk(node: ast.AST, in_lock: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.Lambda)):
                    continue  # separate scope, separate pass
                if isinstance(child, ast.Global):
                    globals_here.update(child.names)
                    continue
                if isinstance(child, ast.With):
                    walk(child, in_lock or _locky_with(child))
                    continue
                statements.append((child, in_lock))
                walk(child, in_lock)

        walk(fn, False)
        for node, in_lock in statements:
            if in_lock:
                continue
            self._check_node(node, globals_here, containers, module, out)

    def _check_node(self, node: ast.AST, globals_here: set[str],
                    containers: set[str], module: ModuleInfo,
                    out: Collector) -> None:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in assigned_names(target):
                    if name.id in globals_here:
                        out.add(self, module.relpath, node.lineno,
                                f"module global {name.id!r} reassigned "
                                f"outside a lock")
                if isinstance(target, ast.Subscript) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id in containers:
                    out.add(self, module.relpath, node.lineno,
                            f"module-level container "
                            f"{target.value.id!r} written outside a "
                            f"lock")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and \
                        isinstance(target.value, ast.Name) and \
                        target.value.id in containers:
                    out.add(self, module.relpath, node.lineno,
                            f"module-level container "
                            f"{target.value.id!r} mutated (del) "
                            f"outside a lock")
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in MUTATORS and \
                isinstance(node.func.value, ast.Name) and \
                node.func.value.id in containers:
            out.add(self, module.relpath, node.lineno,
                    f"module-level container {node.func.value.id!r}."
                    f"{node.func.attr}() outside a lock")
