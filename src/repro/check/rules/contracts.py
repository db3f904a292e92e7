"""Contract rules: the suite invariants the paper's methodology relies on.

* CON101 -- every benchmark implementation class (non-empty ``NAME``)
  declares a class-level FOM, and its ``NAME`` is a registered Table II
  benchmark.
* CON102 -- High-Scaling registry entries declare memory variants, in
  strictly increasing T < S < M < L fraction order; entries shipping
  fewer than the full four variants are reported at note level (the
  paper's Table II legitimately has such rows -- baseline them with a
  justification).
* CON103 -- ``$param`` / ``${param}`` references inside JUBE-style
  parameter sets resolve to parameters defined in the same spec.
* CON104 -- unit-prefix constants from ``repro.units`` scale values
  (``*``/``/``); adding them to bare numbers is a category error.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from ..findings import Severity
from .base import (
    Collector,
    ModuleInfo,
    Rule,
    assigned_names,
    canonical_name,
    dotted_parts,
    import_aliases,
    iter_direct_body,
    nodes,
    walk_functions,
)

#: memory fraction per MemoryVariant member (mirrors core.variants)
VARIANT_FRACTIONS = {"TINY": 0.25, "SMALL": 0.50,
                     "MEDIUM": 0.75, "LARGE": 1.00}

_PARAM_REF = re.compile(r"\$\{(\w+)\}|\$(\w+)")


@dataclass
class _ClassRecord:
    relpath: str
    lineno: int
    bases: tuple[str, ...]
    name_value: str | None      # the NAME = "..." constant, if any
    has_fom: bool


class FomDeclaredRule(Rule):
    """CON101: registered benchmark classes must declare a FOM."""

    id = "CON101"
    name = "fom-declared"
    severity = Severity.ERROR
    scope = "project"     # accumulates the cross-module class table
    description = ("Every benchmark implementation (a class with a "
                   "non-empty NAME) must declare a class-level "
                   "FigureOfMerit and use a registered Table II name; "
                   "the procurement methodology needs every FOM "
                   "normalised to a time metric.")

    def __init__(self) -> None:
        self._classes: dict[str, _ClassRecord] = {}
        self._registry_names: set[str] = set()
        self._saw_registry = False

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        if module.relpath.endswith("registry.py"):
            self._saw_registry = True
            self._registry_names |= set(registry_info_calls(module).keys())
        for node in nodes(module.tree, ast.ClassDef):
            self._record_class(node, module)

    def _record_class(self, node: ast.ClassDef, module: ModuleInfo) -> None:
        name_value: str | None = None
        has_fom = False
        for stmt in node.body:
            targets: list[ast.Name] = []
            if isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    targets.extend(assigned_names(t))
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets.extend(assigned_names(stmt.target))
            for t in targets:
                if t.id == "NAME" and isinstance(stmt, ast.Assign) and \
                        isinstance(stmt.value, ast.Constant) and \
                        isinstance(stmt.value.value, str):
                    name_value = stmt.value.value
                elif t.id == "fom":
                    has_fom = True
        bases = tuple(p[-1] for b in node.bases
                      if (p := dotted_parts(b)) is not None)
        self._classes[node.name] = _ClassRecord(
            relpath=module.relpath, lineno=node.lineno, bases=bases,
            name_value=name_value, has_fom=has_fom)

    def _inherits_fom(self, cls: str, seen: set[str] | None = None) -> bool:
        seen = seen or set()
        if cls in seen or cls not in self._classes:
            return False
        seen.add(cls)
        rec = self._classes[cls]
        if rec.has_fom:
            return True
        return any(self._inherits_fom(base, seen) for base in rec.bases)

    def finalize(self, out: Collector) -> None:
        for cls, rec in sorted(self._classes.items()):
            if not rec.name_value:
                continue
            if not self._inherits_fom(cls):
                out.add(self, rec.relpath, rec.lineno,
                        f"benchmark class {cls} (NAME="
                        f"{rec.name_value!r}) declares no class-level "
                        f"FOM; every registered benchmark needs one")
            if self._saw_registry and \
                    rec.name_value not in self._registry_names:
                out.add(self, rec.relpath, rec.lineno,
                        f"benchmark class {cls} uses NAME="
                        f"{rec.name_value!r}, which is not a registered "
                        f"Table II benchmark")


def registry_info_calls(module: ModuleInfo) -> dict[str, ast.Call]:
    """``BenchmarkInfo(...)`` calls in a registry module, keyed by name."""
    out: dict[str, ast.Call] = {}
    for node in nodes(module.tree, ast.Call):
        parts = dotted_parts(node.func)
        if not parts or parts[-1] != "BenchmarkInfo":
            continue
        for kw in node.keywords:
            if kw.arg == "name" and isinstance(kw.value, ast.Constant):
                out[str(kw.value.value)] = node
    return out


def _module_aliases(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Module-level name -> tuple of dotted values it aliases.

    Understands both ``_S = MemoryVariant.SMALL`` and the unpacking
    form ``_T, _S = (MemoryVariant.TINY, MemoryVariant.SMALL)``, plus
    tuple aliases like ``_BASE_HS = (Category.BASE, ...)``.
    """
    def dotted_of(node: ast.AST) -> tuple[str, ...] | None:
        if isinstance(node, (ast.Tuple, ast.List)):
            parts = []
            for elt in node.elts:
                p = dotted_parts(elt)
                if p is None:
                    return None
                parts.append(".".join(p))
            return tuple(parts)
        p = dotted_parts(node)
        return (".".join(p),) if p is not None else None

    aliases: dict[str, tuple[str, ...]] = {}
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                value = dotted_of(stmt.value)
                if value is not None:
                    aliases[target.id] = value
            elif isinstance(target, (ast.Tuple, ast.List)) and \
                    isinstance(stmt.value, (ast.Tuple, ast.List)) and \
                    len(target.elts) == len(stmt.value.elts):
                for t, v in zip(target.elts, stmt.value.elts):
                    if isinstance(t, ast.Name):
                        value = dotted_of(v)
                        if value is not None:
                            aliases[t.id] = value
    return aliases


class VariantOrderRule(Rule):
    """CON102: T/S/M/L memory variants are declared and ordered."""

    id = "CON102"
    name = "variant-order"
    severity = Severity.ERROR
    description = ("High-Scaling benchmarks must declare memory "
                   "variants with strictly increasing T<S<M<L memory "
                   "fractions; proposals pick 'the variant that best "
                   "exploits the available memory', which needs a "
                   "total order.")

    def applies_to(self, relpath: str) -> bool:
        return relpath.endswith("registry.py")

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        aliases = _module_aliases(module.tree)

        def resolve(node: ast.AST) -> tuple[str, ...] | None:
            """Dotted member names behind an expression (via aliases)."""
            if isinstance(node, (ast.Tuple, ast.List)):
                parts: list[str] = []
                for elt in node.elts:
                    sub = resolve(elt)
                    if sub is None:
                        return None
                    parts.extend(sub)
                return tuple(parts)
            p = dotted_parts(node)
            if p is None:
                return None
            if len(p) == 1 and p[0] in aliases:
                return aliases[p[0]]
            return (".".join(p),)

        for name, call in sorted(registry_info_calls(module).items()):
            # baseline identity: one entry per benchmark, not per line
            snippet = f"BenchmarkInfo(name={name!r})"
            kwargs = {kw.arg: kw.value for kw in call.keywords}
            variants = resolve(kwargs["variants"]) \
                if "variants" in kwargs else ()
            categories = resolve(kwargs.get("categories", ast.Tuple(elts=[])))
            if variants is None or categories is None:
                continue  # cannot prove anything about dynamic forms
            high_scaling = any(c.endswith("HIGH_SCALING")
                               for c in categories)
            members = [v.rsplit(".", 1)[-1] for v in variants]
            fractions = [VARIANT_FRACTIONS.get(m) for m in members]
            if high_scaling and not members:
                out.add(self, module.relpath, call.lineno,
                        f"{name}: High-Scaling benchmark declares no "
                        f"memory variants", snippet=snippet)
                continue
            if None in fractions:
                continue
            if any(b <= a for a, b in zip(fractions, fractions[1:])):
                labels = ",".join(members)
                out.add(self, module.relpath, call.lineno,
                        f"{name}: memory variants ({labels}) are not "
                        f"in strictly increasing T<S<M<L fraction "
                        f"order", snippet=snippet)
            elif high_scaling and len(members) < len(VARIANT_FRACTIONS):
                labels = ",".join(members)
                out.add(self, module.relpath, call.lineno,
                        f"{name}: High-Scaling benchmark ships only "
                        f"variants ({labels}); the full T/S/M/L set "
                        f"is the default expectation",
                        severity=Severity.NOTE, snippet=snippet)


class ParamResolutionRule(Rule):
    """CON103: ``$param`` references resolve within their spec."""

    id = "CON103"
    name = "param-resolution"
    severity = Severity.ERROR
    description = ("JUBE specs must resolve deterministically: every "
                   "$param / ${param} reference inside a parameter set "
                   "must name a parameter defined in the same spec.")

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        for node in nodes(module.tree, ast.Dict):
            self._check_spec_dict(node, module, out)
        # only an ``.add(name, value)`` call defines a parameter: with
        # none in the module no scope can report, and the index says so
        # without the scope walks
        if not any(map(self._is_builder_add, nodes(module.tree, ast.Call))):
            return
        for scope in (module.tree, *walk_functions(module.tree)):
            self._check_builder_scope(scope, module, out)

    # -- declarative dict specs --------------------------------------------

    @staticmethod
    def _dict_get(node: ast.Dict, key: str) -> ast.AST | None:
        for k, v in zip(node.keys, node.values):
            if isinstance(k, ast.Constant) and k.value == key:
                return v
        return None

    def _check_spec_dict(self, node: ast.Dict, module: ModuleInfo,
                         out: Collector) -> None:
        psets = self._dict_get(node, "parametersets")
        if not isinstance(psets, (ast.List, ast.Tuple)):
            return
        defined: set[str] = set()
        refs: list[tuple[str, int]] = []
        for pset in psets.elts:
            if not isinstance(pset, ast.Dict):
                continue
            params = self._dict_get(pset, "parameters")
            if not isinstance(params, (ast.List, ast.Tuple)):
                continue
            for param in params.elts:
                if not isinstance(param, ast.Dict):
                    continue
                pname = self._dict_get(param, "name")
                if isinstance(pname, ast.Constant) and \
                        isinstance(pname.value, str):
                    defined.add(pname.value)
                value = self._dict_get(param, "value")
                if value is not None:
                    refs.extend(self._string_refs(value))
        self._flag_unresolved(defined, refs, module, out)

    # -- ParameterSet.add() builder chains ---------------------------------

    def _check_builder_scope(self, scope: ast.AST, module: ModuleInfo,
                             out: Collector) -> None:
        defined: set[str] = set()
        refs: list[tuple[str, int]] = []
        # Stay inside this scope: nested functions are scanned as their
        # own scopes, so stop descending at their boundary.
        for node in iter_direct_body(scope, lambda n: isinstance(
                n, (ast.FunctionDef, ast.AsyncFunctionDef))):
            if not (isinstance(node, ast.Call) and
                    self._is_builder_add(node)):
                continue
            name_arg = node.args[0]
            if isinstance(name_arg, ast.Constant) and \
                    isinstance(name_arg.value, str):
                defined.add(name_arg.value)
            refs.extend(self._string_refs(node.args[1]))
        if defined:
            self._flag_unresolved(defined, refs, module, out)

    @staticmethod
    def _is_builder_add(call: ast.Call) -> bool:
        """``<set>.add(name, value, ...)``: a ``ParameterSet`` chain link."""
        return (isinstance(call.func, ast.Attribute) and
                call.func.attr == "add" and len(call.args) >= 2)

    @staticmethod
    def _string_refs(value: ast.AST) -> list[tuple[str, int]]:
        refs = []
        for node in ast.walk(value):
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                for a, b in _PARAM_REF.findall(node.value):
                    refs.append((a or b, node.lineno))
        return refs

    def _flag_unresolved(self, defined: set[str],
                         refs: list[tuple[str, int]], module: ModuleInfo,
                         out: Collector) -> None:
        for ref, lineno in refs:
            if ref not in defined:
                out.add(self, module.relpath, lineno,
                        f"parameter reference ${ref} does not resolve "
                        f"to any parameter defined in this spec")


class UnitArithmeticRule(Rule):
    """CON104: unit-prefix constants scale; they are not quantities."""

    id = "CON104"
    name = "unit-arithmetic"
    severity = Severity.WARNING
    description = ("repro.units prefix constants (GIGA, GIB, ...) are "
                   "scale factors; adding or subtracting them against "
                   "bare numbers mixes a prefix with a quantity.")

    UNIT_CONSTS = frozenset({"KILO", "MEGA", "GIGA", "TERA", "PETA",
                             "EXA", "KIB", "MIB", "GIB", "TIB", "PIB"})

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        aliases = import_aliases(module.tree)

        def is_unit_const(node: ast.AST) -> str | None:
            name = canonical_name(node, aliases)
            if name is None:
                return None
            head, _, last = name.rpartition(".")
            # bare (unimported) names never resolve to a units module
            if last in self.UNIT_CONSTS and head.endswith("units"):
                return last
            return None

        for node in nodes(module.tree, ast.BinOp):
            if not isinstance(node.op, (ast.Add, ast.Sub)):
                continue
            left = is_unit_const(node.left)
            right = is_unit_const(node.right)
            if left or right:
                const = left or right
                op = "+" if isinstance(node.op, ast.Add) else "-"
                out.add(self, module.relpath, node.lineno,
                        f"unit constant {const} used with '{op}'; unit "
                        f"prefixes scale quantities (use '*' or '/')")
