"""CON103 asks the node index before it walks a module's scopes.

A scope defines a ``$param`` only through a ``<set>.add(name, value)``
call, so a module without one cannot produce a builder-chain finding
and its per-scope pass is skipped.  The oracle below is the rule's
``check_module`` and builder-scope pass as they were before that skip,
kept verbatim; the two must report the same findings everywhere.
"""

import ast
from pathlib import Path

import pytest

from repro.check.rules import Collector, ModuleInfo
from repro.check.rules.base import iter_direct_body, nodes, walk_functions
from repro.check.rules.contracts import ParamResolutionRule

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


class WalkEveryScope(ParamResolutionRule):
    """CON103 before the index check: every scope of every module."""

    def check_module(self, module: ModuleInfo, out: Collector) -> None:
        for node in nodes(module.tree, ast.Dict):
            self._check_spec_dict(node, module, out)
        for scope in (module.tree, *walk_functions(module.tree)):
            self._check_builder_scope(scope, module, out)

    def _check_builder_scope(self, scope: ast.AST, module: ModuleInfo,
                             out: Collector) -> None:
        defined: set[str] = set()
        refs: list[tuple[str, int]] = []
        # Stay inside this scope: nested functions are scanned as their
        # own scopes, so stop descending at their boundary.
        for node in iter_direct_body(scope, lambda n: isinstance(
                n, (ast.FunctionDef, ast.AsyncFunctionDef))):
            if not isinstance(node, ast.Call):
                continue
            if not (isinstance(node.func, ast.Attribute) and
                    node.func.attr == "add" and len(node.args) >= 2):
                continue
            name_arg = node.args[0]
            if isinstance(name_arg, ast.Constant) and \
                    isinstance(name_arg.value, str):
                defined.add(name_arg.value)
            refs.extend(self._string_refs(node.args[1]))
        if defined:
            self._flag_unresolved(defined, refs, module, out)


SYNTHETIC = '''\
from repro.jube import ParameterSet

top = ParameterSet("top").add("nodes", "4").add("ranks", "$nodes * 4")
top.add("bad", "${undefined_at_module}")
seen = set()
seen.add("$one_argument_add")


def build():
    inner = ParameterSet("f")
    inner.add("gpus", "4")
    inner.add("tasks", "${gpus} x $missing_in_function")

    def nested():
        ParameterSet("n").add("x", "1").add("y", "$x $missing_nested")
        seen.add("$one_argument_in_nested")
    return nested


class Spec:
    params = ParameterSet("c").add("a", "1").add("b", "$a $missing_class")

    def method(self):
        return ParameterSet("m").add("k", "$nodes")
'''
#: only ``.add(x)`` calls: no scope defines a parameter, nothing to report
ONE_ARGUMENT_ADDS = '''\
names = set()
names.add("$looks_like_a_ref")


def more(bag):
    bag.add("${also_not_a_definition}")
'''


def findings(rule: ParamResolutionRule, relpath: str, source: bytes):
    module = ModuleInfo(relpath, source)
    out = Collector(_sources={relpath: source.decode().splitlines()})
    rule.check_module(module, out)
    return [(f.rule, f.path, f.line, f.message, f.snippet)
            for f in out.findings]


def tree_findings(rule: ParamResolutionRule, root: Path) -> list:
    got = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_bytes()
        try:
            ast.parse(source)
        except SyntaxError:
            continue
        got += findings(rule, path.relative_to(root).as_posix(), source)
    return got


@pytest.mark.parametrize("root", [
    TESTS / "fixtures" / "check", TESTS / "fixtures" / "comm",
    TESTS / "fixtures" / "rep", SRC / "repro"],
    ids=["check", "comm", "rep", "live"])
def test_findings_equal_the_walk_of_every_scope(root):
    got = tree_findings(ParamResolutionRule(), root)
    assert got == tree_findings(WalkEveryScope(), root)
    if root.name == "check":
        assert {(path, line) for _, path, line, *_ in got} == {
            ("apps/spec_params.py", 8), ("apps/spec_params.py", 16)}


def test_builder_chains_in_every_kind_of_scope():
    got = findings(ParamResolutionRule(), "m.py", SYNTHETIC.encode())
    assert got == findings(WalkEveryScope(), "m.py", SYNTHETIC.encode())
    unresolved = {msg.split("$")[1].split()[0]: line
                  for _, _, line, msg, _ in got}
    # a method is its own scope, so its $nodes does not resolve either
    assert unresolved == {"undefined_at_module": 4,
                          "missing_in_function": 12,
                          "missing_nested": 15, "missing_class": 21,
                          "nodes": 24}


def test_a_module_of_one_argument_adds_is_not_walked(monkeypatch):
    walked = []
    real = ParamResolutionRule._check_builder_scope
    monkeypatch.setattr(
        ParamResolutionRule, "_check_builder_scope",
        lambda self, scope, module, out: walked.append(scope) or
        real(self, scope, module, out))
    source = ONE_ARGUMENT_ADDS.encode()
    assert findings(ParamResolutionRule(), "m.py", source) == []
    assert walked == []
    assert findings(WalkEveryScope(), "m.py", source) == []
    findings(ParamResolutionRule(), "m.py", SYNTHETIC.encode())
    assert len(walked) == 4     # the module and its three functions
