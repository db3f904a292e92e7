"""UNIT3xx: flow-sensitive dimensional analysis over the model code.

One rule class runs a lightweight abstract interpretation per module
and emits five rule ids:

* **UNIT301** -- adding/subtracting quantities of different dimensions
  (seconds to bytes, time to bandwidth, ...);
* **UNIT302** -- multiplying two rates (B/s * FLOP/s has no physical
  meaning in the cost model);
* **UNIT303** -- mixing SI and binary prefix constants in one product
  (``GIB * GIGA``); division is exempt because ``x * GIB / GIGA`` is
  the sanctioned conversion idiom;
* **UNIT304** -- passing a quantity of the wrong dimension to an
  annotated parameter (``DIMS`` registry or the ``fmt_si`` unit
  string);
* **UNIT305** -- a time-valued function (annotated ``.return: s`` or
  named ``*_seconds``/``*_time``) returning a non-time quantity: the
  FOM pipeline normalises everything to seconds, so these are the
  load-bearing sinks.

Dimensions come from four seed layers, weakest last: the ``DIMS``
annotation registry, ``repro.units`` constants, ``fmt_si``/``fmt_bytes``
call sites, and parameter-name heuristics.  The analysis is
flow-sensitive within a function (assignments update the environment
in statement order) and interprocedural-lite: call results and callee
parameters resolve through the project-wide registry built from every
module's annotations and signatures.  Unknown stays unknown -- every
check requires *proven* dimensions on both sides, so the rule is quiet
on code that never opted in.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

from ..dims import (
    ONE,
    TIME,
    Dim,
    DimRegistry,
    dim_of_name,
    dim_of_return,
    parse_dim,
    units_constant,
)
from ..findings import Severity
from .base import (
    Collector,
    ModuleInfo,
    ProjectContext,
    Rule,
    canonical_name,
    import_aliases,
    walk_functions,
)

#: per-id severities; prefix mixing is style-adjacent, the rest are
#: genuine unit errors
ID_SEVERITY = {
    "UNIT301": Severity.ERROR,
    "UNIT302": Severity.ERROR,
    "UNIT303": Severity.WARNING,
    "UNIT304": Severity.ERROR,
    "UNIT305": Severity.ERROR,
}

ID_DESCRIPTIONS = {
    "UNIT301": ("Quantities of different physical dimensions are added "
                "or subtracted (e.g. seconds + bytes); the result has "
                "no meaning in the cost model."),
    "UNIT302": ("Two rates are multiplied (e.g. B/s * FLOP/s); rates "
                "compose with times and counts, never with each other."),
    "UNIT303": ("SI and binary prefix constants are mixed in one "
                "product (e.g. GIB * GIGA); pick one family, or divide "
                "to convert."),
    "UNIT304": ("A quantity of the wrong dimension is passed to a "
                "dimension-annotated parameter (DIMS registry or "
                "fmt_si unit string)."),
    "UNIT305": ("A time-valued function (annotated '.return: s' or "
                "named *_seconds/*_time) returns a non-time quantity; "
                "the FOM pipeline normalises everything to seconds."),
}


@dataclass(frozen=True)
class DimValue:
    """Abstract value of one expression.

    ``dim`` is None when unproven.  ``weak`` marks purely-literal
    dimensionless values (``0.5``, ``2 ** n``): they may stand for any
    quantity, so mismatch checks skip them.  ``families`` carries the
    SI/binary prefix provenance for UNIT303.  ``trace`` is the
    provenance chain rendered into the finding.
    """

    dim: Dim | None = None
    weak: bool = False
    families: frozenset = frozenset()
    trace: tuple[str, ...] = ()

    @property
    def known(self) -> bool:
        return self.dim is not None


UNKNOWN = DimValue()
LITERAL = DimValue(dim=ONE, weak=True)


def _seed(dim: Dim, why: str) -> DimValue:
    return DimValue(dim=dim, trace=(why,))


class DimensionalDataflowRule(Rule):
    """UNIT301..UNIT305: dimension checking over names and expressions."""

    id = "UNIT301"
    ids = ("UNIT302", "UNIT303", "UNIT304", "UNIT305")
    name = "dimensional-dataflow"
    severity = Severity.ERROR
    description = ID_DESCRIPTIONS["UNIT301"]
    scope = "local"

    def __init__(self) -> None:
        self._registry = DimRegistry()

    def descriptors(self) -> list[dict]:
        return [{"id": rid, "name": f"{self.name}-{rid[-3:]}",
                 "description": ID_DESCRIPTIONS[rid],
                 "severity": ID_SEVERITY[rid]}
                for rid in sorted(ID_SEVERITY)]

    def prepare(self, ctx: ProjectContext) -> None:
        self._registry = ctx.registry

    def applies_to(self, relpath: str) -> bool:
        # the analyzer's own code talks *about* dimensions, not with them
        return "check/" not in relpath

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        _ModuleFlow(self, module, out, self._registry).run()

    # -- reporting -----------------------------------------------------------

    def report(self, out: Collector, rule_id: str, module: ModuleInfo,
               node: ast.AST, message: str,
               *operands: DimValue) -> None:
        if not self.emits(rule_id):
            return
        trace: list[str] = []
        for op in operands:
            for step in op.trace:
                if step not in trace:
                    trace.append(step)
        out.add(self, module.relpath, node.lineno, message,
                rule_id=rule_id, severity=ID_SEVERITY[rule_id],
                trace=trace)


class _ModuleFlow:
    """One module's dataflow pass: module env, then each function."""

    def __init__(self, rule: DimensionalDataflowRule, module: ModuleInfo,
                 out: Collector, registry: DimRegistry) -> None:
        self.rule = rule
        self.module = module
        self.out = out
        self.registry = registry
        self.aliases = import_aliases(module.tree)

    def run(self) -> None:
        module_env: dict[str, DimValue] = {}
        self._exec_block(self.module.tree.body, module_env,
                         expect_return=None, func_label=None)
        for node in walk_functions(self.module.tree):
            self._check_function(node, dict(module_env))

    # -- function-level flow -------------------------------------------------

    def _check_function(self, fn: ast.AST,
                        env: dict[str, DimValue]) -> None:
        for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs:
            if arg.arg in ("self", "cls"):
                continue
            dim = self.registry.lookup(f"{fn.name}.{arg.arg}")
            if dim is not None:
                env[arg.arg] = _seed(
                    dim, f"{arg.arg}: {dim} (DIMS annotation "
                         f"{fn.name}.{arg.arg})")
                continue
            dim = dim_of_name(arg.arg)
            if dim is not None:
                env[arg.arg] = _seed(
                    dim, f"{arg.arg}: {dim} (parameter-name heuristic)")
        expect = self.registry.lookup(f"{fn.name}.return")
        why = f"DIMS annotation {fn.name}.return"
        if expect is None:
            expect = dim_of_return(fn.name)
            why = f"function name {fn.name!r}"
        self._exec_block(fn.body, env, expect_return=expect,
                         func_label=f"{fn.name} ({why})"
                         if expect is not None else None)

    def _exec_block(self, stmts: list[ast.stmt],
                    env: dict[str, DimValue],
                    expect_return: Dim | None,
                    func_label: str | None) -> None:
        """Linear, flow-sensitive walk; nested defs are skipped (they
        get their own pass with the module env)."""
        for stmt in stmts:
            self._exec_stmt(stmt, env, expect_return, func_label)

    def _exec_stmt(self, stmt: ast.stmt, env: dict[str, DimValue],
                   expect_return: Dim | None,
                   func_label: str | None) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            if len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                env[name] = self._bind(name, value)
            return
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            value = self.eval(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                env[name] = self._bind(name, value)
            return
        if isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                synthetic = ast.BinOp(left=ast.Name(id=stmt.target.id,
                                                    ctx=ast.Load()),
                                      op=stmt.op, right=stmt.value)
                ast.copy_location(synthetic, stmt)
                ast.fix_missing_locations(synthetic)
                env[stmt.target.id] = self.eval(synthetic, env)
            else:
                self.eval(stmt.value, env)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                value = self.eval(stmt.value, env)
                self._check_return(stmt, value, expect_return, func_label)
            return
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self.eval(stmt.test, env)
            self._exec_block(stmt.body, env, expect_return, func_label)
            self._exec_block(stmt.orelse, env, expect_return, func_label)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.eval(stmt.iter, env)
            for name in ast.walk(stmt.target):
                if isinstance(name, ast.Name):
                    env[name.id] = UNKNOWN
            self._exec_block(stmt.body, env, expect_return, func_label)
            self._exec_block(stmt.orelse, env, expect_return, func_label)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.eval(item.context_expr, env)
            self._exec_block(stmt.body, env, expect_return, func_label)
            return
        if isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, env, expect_return, func_label)
            for handler in stmt.handlers:
                self._exec_block(handler.body, env, expect_return,
                                 func_label)
            self._exec_block(stmt.orelse, env, expect_return, func_label)
            self._exec_block(stmt.finalbody, env, expect_return,
                             func_label)
            return
        # assert/raise/del/...: evaluate child expressions for their
        # arithmetic checks, without tracking any binding
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self.eval(child, env)

    def _bind(self, name: str, value: DimValue) -> DimValue:
        """Binding an unproven value to a dimension-named variable adopts
        the name's declared dimension: in ``MESSAGE_BYTES = 16 * MIB``
        the literal is polymorphic and in ``flops = F * batch`` the
        factors are opaque -- the name states the intent either way.
        Known (non-weak) values keep their computed dimension, so a
        mismatching assignment still surfaces downstream."""
        if value.known and not value.weak:
            return value
        declared = dim_of_name(name)
        if declared is None or (value.weak and declared == value.dim):
            return value
        return DimValue(
            dim=declared, weak=False, families=value.families,
            trace=value.trace + (
                f"{name}: {declared} (assignment adopts name heuristic)",))

    def _check_return(self, stmt: ast.Return, value: DimValue,
                      expect: Dim | None, func_label: str | None) -> None:
        if expect is None or func_label is None:
            return
        if not value.known or value.weak or value.dim == expect:
            return
        rule_id = "UNIT305" if expect == TIME else "UNIT304"
        self.rule.report(
            self.out, rule_id, self.module, stmt,
            f"{func_label} must return {expect} but this return "
            f"value has dimension {value.dim}", value)

    # -- expression evaluation -----------------------------------------------

    def eval(self, node: ast.expr, env: dict[str, DimValue]) -> DimValue:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or \
                    not isinstance(node.value, (int, float)):
                return UNKNOWN
            return LITERAL
        if isinstance(node, ast.Name):
            return self._eval_name(node, env)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            body = self.eval(node.body, env)
            orelse = self.eval(node.orelse, env)
            if body.dim == orelse.dim:
                return body
            # `x / bw if bw else 0.0`: the literal arm is polymorphic
            if orelse.weak and body.known:
                return body
            if body.weak and orelse.known:
                return orelse
            return UNKNOWN
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self.eval(elt, env)
            return UNKNOWN
        if isinstance(node, ast.Dict):
            for v in node.values:
                if v is not None:
                    self.eval(v, env)
            return UNKNOWN
        if isinstance(node, ast.Compare):
            self.eval(node.left, env)
            for comp in node.comparators:
                self.eval(comp, env)
            return UNKNOWN
        if isinstance(node, ast.BoolOp):
            for v in node.values:
                self.eval(v, env)
            return UNKNOWN
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp,
                             ast.DictComp)):
            return UNKNOWN
        if isinstance(node, ast.Starred):
            return self.eval(node.value, env)
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
            # the SPMD rank programs charge their costs through yielded
            # op constructors -- walk them, but the resumed value is
            # whatever the engine sends back
            if node.value is not None:
                self.eval(node.value, env)
            return UNKNOWN
        return UNKNOWN

    def _eval_name(self, node: ast.Name,
                   env: dict[str, DimValue]) -> DimValue:
        const = units_constant(canonical_name(node, self.aliases))
        if const is not None:
            dim, families = const
            if dim == ONE:    # prefix constant: scale factor, family only
                return DimValue(dim=ONE, weak=True, families=families,
                                trace=(f"{node.id}: "
                                       f"{'/'.join(sorted(families))} "
                                       f"prefix constant (repro.units)",))
            return DimValue(dim=dim,
                            trace=(f"{node.id}: {dim} (repro.units)",))
        if node.id in env:
            return env[node.id]
        dim = dim_of_name(node.id)
        if dim is not None:
            return _seed(dim, f"{node.id}: {dim} (name heuristic)")
        return UNKNOWN

    def _eval_attribute(self, node: ast.Attribute,
                        env: dict[str, DimValue]) -> DimValue:
        const = units_constant(canonical_name(node, self.aliases))
        if const is not None:
            dim, families = const
            if dim == ONE:
                return DimValue(dim=ONE, weak=True, families=families,
                                trace=(f"{node.attr}: "
                                       f"{'/'.join(sorted(families))} "
                                       f"prefix constant (repro.units)",))
            return DimValue(dim=dim,
                            trace=(f"{node.attr}: {dim} (repro.units)",))
        candidates = [node.attr]
        if isinstance(node.value, ast.Name):
            candidates.insert(0, f"{node.value.id}.{node.attr}")
        dim = self.registry.lookup(*candidates)
        if dim is not None:
            return _seed(dim, f"{node.attr}: {dim} (DIMS annotation)")
        dim = dim_of_name(node.attr)
        if dim is not None:
            return _seed(dim, f"{node.attr}: {dim} (attribute-name "
                              f"heuristic)")
        self.eval(node.value, env)
        return UNKNOWN

    def _eval_binop(self, node: ast.BinOp,
                    env: dict[str, DimValue]) -> DimValue:
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        if isinstance(node.op, ast.Mult):
            return self._eval_mult(node, left, right)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            if left.known and right.known:
                return DimValue(dim=left.dim / right.dim,
                                weak=left.weak and right.weak,
                                trace=left.trace + right.trace)
            return UNKNOWN
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return self._eval_addsub(node, left, right)
        if isinstance(node.op, ast.Pow):
            if left.known and isinstance(node.right, ast.Constant) and \
                    isinstance(node.right.value, int):
                return replace(left, dim=left.dim.pow(node.right.value))
            return LITERAL if left.weak else UNKNOWN
        if isinstance(node.op, ast.Mod):
            return left
        return UNKNOWN

    def _eval_mult(self, node: ast.BinOp, left: DimValue,
                   right: DimValue) -> DimValue:
        families = left.families | right.families
        if ("si" in left.families and "bin" in right.families) or \
                ("bin" in left.families and "si" in right.families):
            self.rule.report(
                self.out, "UNIT303", self.module, node,
                "SI and binary prefix constants mixed in one "
                "product; pick one family or divide to convert",
                left, right)
        if left.known and right.known:
            if left.dim.is_rate and right.dim.is_rate and \
                    not left.weak and not right.weak:
                self.rule.report(
                    self.out, "UNIT302", self.module, node,
                    f"multiplying two rates ({left.dim} * "
                    f"{right.dim}); rates compose with times and "
                    f"counts, not with each other", left, right)
            return DimValue(dim=left.dim * right.dim,
                            weak=left.weak and right.weak,
                            families=families,
                            trace=left.trace + right.trace)
        return DimValue(dim=None, families=families,
                        trace=left.trace + right.trace)

    def _eval_addsub(self, node: ast.BinOp, left: DimValue,
                     right: DimValue) -> DimValue:
        if left.known and right.known and not left.weak and \
                not right.weak and left.dim != right.dim:
            op = "+" if isinstance(node.op, ast.Add) else "-"
            self.rule.report(
                self.out, "UNIT301", self.module, node,
                f"'{op}' combines {left.dim} with {right.dim}; "
                f"addition needs operands of one dimension",
                left, right)
            return UNKNOWN
        if left.known and right.known:
            strong = left if not left.weak else right
            return DimValue(dim=strong.dim,
                            weak=left.weak and right.weak,
                            families=left.families | right.families,
                            trace=strong.trace)
        return UNKNOWN

    # -- calls ---------------------------------------------------------------

    def _eval_call(self, node: ast.Call,
                   env: dict[str, DimValue]) -> DimValue:
        # evaluate each argument exactly once: evaluation both infers
        # and reports, so re-walking an argument would double findings
        arg_values = [self.eval(a, env) for a in node.args]
        kw_values = [(kw.arg, self.eval(kw.value, env))
                     for kw in node.keywords]
        name = canonical_name(node.func, self.aliases)
        tail = name.rsplit(".", 1)[-1] if name else None
        if tail == "fmt_si":
            self._check_fmt_si(node, arg_values, kw_values)
        if tail is not None:
            self._check_annotated_args(node, tail, arg_values, kw_values)
        if tail in ("min", "max", "abs", "round", "ceil", "floor",
                    "sorted"):
            strong = [v for v in arg_values if v.known and not v.weak]
            if strong and all(v.dim == strong[0].dim for v in strong):
                return replace(strong[0], families=frozenset())
            if arg_values and all(v.weak for v in arg_values):
                return LITERAL
            return UNKNOWN
        if tail in ("log", "log2", "log10", "exp", "len"):
            return LITERAL    # dimensionless, polymorphic like a literal
        if tail is not None:
            dim = self.registry.lookup(f"{tail}.return")
            if dim is not None:
                return _seed(dim, f"{tail}(): {dim} (DIMS annotation "
                                  f"{tail}.return)")
            dim = dim_of_return(tail)
            if dim is not None:
                return _seed(dim, f"{tail}(): {dim} (callee-name "
                                  f"heuristic)")
        return UNKNOWN

    def _check_fmt_si(self, node: ast.Call, arg_values: list[DimValue],
                      kw_values: list[tuple[str | None, DimValue]]
                      ) -> None:
        """``fmt_si(x, 'FLOP/s')``: the unit string is an assertion."""
        unit_arg = None
        if len(node.args) >= 2:
            unit_arg = node.args[1]
        else:
            for kw in node.keywords:
                if kw.arg == "unit":
                    unit_arg = kw.value
        if not (isinstance(unit_arg, ast.Constant) and
                isinstance(unit_arg.value, str)) or not arg_values:
            return
        try:
            expect = parse_dim(unit_arg.value)
        except ValueError:
            return    # free-form unit label ('ranks', 'W', ...): no claim
        value = arg_values[0]
        if value.known and not value.weak and value.dim != expect:
            self.rule.report(
                self.out, "UNIT304", self.module, node,
                f"fmt_si() formats this value as "
                f"{unit_arg.value!r} ({expect}) but its inferred "
                f"dimension is {value.dim}", value)

    def _check_annotated_args(self, node: ast.Call, tail: str,
                              arg_values: list[DimValue],
                              kw_values: list[tuple[str | None, DimValue]]
                              ) -> None:
        """UNIT304 on arguments to DIMS-annotated parameters."""
        bindings: list[tuple[str, ast.expr, DimValue]] = []
        params = self.registry.params_of(tail)
        if params:
            for pos, (arg, value) in enumerate(zip(node.args,
                                                   arg_values)):
                if pos < len(params) and \
                        not isinstance(arg, ast.Starred):
                    bindings.append((params[pos], arg, value))
        for kw, (kw_name, value) in zip(node.keywords, kw_values):
            if kw_name is not None:
                bindings.append((kw_name, kw.value, value))
        for param, arg, value in bindings:
            expect = self.registry.lookup(f"{tail}.{param}")
            if expect is None:
                continue
            if value.known and not value.weak and value.dim != expect:
                self.rule.report(
                    self.out, "UNIT304", self.module, arg,
                    f"argument {param!r} of {tail}() expects "
                    f"{expect} but this value has dimension "
                    f"{value.dim}",
                    value,
                    DimValue(trace=(f"{param}: {expect} (DIMS "
                                    f"annotation {tail}.{param})",)))
