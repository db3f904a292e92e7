"""Protocol models of vmpi rank programs: extraction + abstract replay.

A *rank program* is a generator ``def prog(comm, ...)`` yielding
:mod:`repro.vmpi.ops` descriptors.  This module lifts such programs out
of their modules **statically** -- no engine, no payloads, no import of
:mod:`repro.vmpi` -- and replays their communication skeleton at small
concrete sizes, mirroring the engine's matching semantics exactly:

* per-``(comm, src, dst, tag)`` FIFO channels for point-to-point, with
  the engine's eager/rendezvous split (:data:`EAGER_LIMIT`);
* collectives matched by per-rank sequence counters on a communicator,
  completing only when **all** members post, validated on kind, reduce
  op and root (labels are not validated, like the engine);
* ``Exchange`` rounds matched in their own ``(comm, tag, round)``
  namespace with per-directed-pair count symmetry;
* ``split`` computes the actual subcommunicators, so collectives on
  derived communicators are verified too.

What the replay knows of the simulator is a literal mirror kept here
(:data:`COMM_METHODS`, :data:`ROOTED_KINDS`, :data:`REDUCING_KINDS`,
:data:`EAGER_LIMIT`): every input of a verdict is then a source of this
package, which the incremental cache fingerprints, and the analyser
never pays for importing numpy.  Tests hold the mirror to the ``Comm``
facade and to ``VmpiEngine.EAGER_LIMIT``.

The replay is an abstract interpretation of the AST, per rank, at a
concrete communicator size: ``comm.rank``/``comm.size`` are concrete,
arithmetic is folded, project-local helpers (``yield from`` chains and
plain calls) are inlined through a cross-module function index, and
everything else becomes an :data:`UNKNOWN` tainted with whether it *may
differ across ranks*.  Expressions evaluate with plain calls; only the
statement executor is a generator, and a ``yield`` met inside an
expression suspends it there (see :meth:`_Interp._value`).  The
soundness discipline:

* a branch on a concrete condition is taken exactly (this is how
  rank-divergent control flow is explored);
* a branch on an unknown-but-rank-uniform condition takes the false
  arm on every rank -- a rank-consistent possible world;
* a branch on an unknown **rank-dependent** condition is taken only
  when neither arm communicates (locals are poisoned); otherwise the
  program is *unresolvable* and the pass stays quiet;
* loops with unknown trip counts unroll once (rank-uniformly) and mark
  the replay *approximate*: deadlock/orphan verdicts (COMM503/COMM506)
  are suppressed, because they rely on exact traces, while collective
  alignment verdicts (COMM501/502/505) survive.

Sends of unproven size complete eagerly (optimistic): a deadlock found
under the optimistic model survives under rendezvous, so every COMM503
verdict corresponds to a real engine deadlock -- the differential
oracle the fixture suite enforces.
"""

from __future__ import annotations

import ast
import math
import operator
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Iterable

#: communicator sizes every rank program is replayed at; odd sizes are
#: deliberately included (pairing/halving programs break there first)
DEFAULT_SIZES = (2, 3, 4, 5)
#: concrete-loop unroll ceiling; longer loops truncate and mark approx
UNROLL_CAP = 64
#: per-rank interpreter step budget
MAX_STEPS = 60_000
#: inlined-call depth ceiling
MAX_DEPTH = 16
#: eager/rendezvous threshold in bytes, mirrored from
#: ``VmpiEngine.EAGER_LIMIT``
EAGER_LIMIT = 64 * 1024

#: The :class:`~repro.vmpi.comm.Comm` facade as the replay binds it:
#: method name -> op kind and the facade's positional parameter names
#: (with defaults).  Call-site arguments are bound against these
#: signatures; a test asserts each entry matches ``Comm``'s real one.
#:
#: Parameter names are semantic: ``dest``/``source``/``root`` are
#: comm-local ranks, ``tag`` a channel tag, ``payload``/``payloads`` the
#: data, ``op`` a reduce op, ``color``/``key`` the split arguments.
COMM_METHODS: dict[str, dict] = {
    name: {"kind": name, "params": tuple(params.split()),
           "defaults": defaults}
    for name, params, defaults in (
        ("compute", "flops bytes_moved efficiency label",
         {"flops": 0.0, "bytes_moved": 0.0, "efficiency": 0.25,
          "label": "compute"}),
        ("elapse", "seconds label", {"label": "elapse"}),
        ("send", "dest payload tag", {"tag": 0}),
        ("recv", "source tag", {"tag": 0}),
        ("isend", "dest payload tag", {"tag": 0}),
        ("irecv", "source tag", {"tag": 0}),
        ("wait", "request", {}),
        ("waitall", "requests", {}),
        ("sendrecv", "dest payload source tag", {"tag": 0}),
        ("exchange", "sends recvs tag label", {"tag": 0, "label": "p2p"}),
        ("allreduce", "payload op label",
         {"op": "sum", "label": "allreduce"}),
        ("allgather", "payload label", {"label": "allgather"}),
        ("alltoall", "payloads label", {"label": "alltoall"}),
        ("bcast", "payload root label", {"root": 0, "label": "bcast"}),
        ("reduce", "payload op root label",
         {"op": "sum", "root": 0, "label": "reduce"}),
        ("gather", "payload root label", {"root": 0, "label": "gather"}),
        ("scatter", "payloads root label", {"root": 0, "label": "scatter"}),
        ("barrier", "label", {"label": "barrier"}),
        ("split", "color key", {"key": None}),
    )
}

#: collective kinds that carry a meaningful root
ROOTED_KINDS = frozenset({"bcast", "reduce", "gather", "scatter"})
#: collective kinds that carry a meaningful reduce op
REDUCING_KINDS = frozenset({"allreduce", "reduce"})


# ---------------------------------------------------------------------------
# abstract values


class _Unknown:
    """Singleton marker for a value the analysis cannot prove."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<unknown>"


UNKNOWN = _Unknown()


class AV:
    """One abstract value: a concrete Python value or :data:`UNKNOWN`,
    tainted with whether it *may differ across ranks*.  Never mutated
    once built; equal and hashed by ``(value, rankdep)``."""

    __slots__ = ("value", "rankdep")

    def __init__(self, value: Any = UNKNOWN, rankdep: bool = False) -> None:
        self.value = value
        self.rankdep = rankdep

    @property
    def known(self) -> bool:
        return self.value is not UNKNOWN

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AV:
            return NotImplemented
        return (self.value, self.rankdep) == (other.value, other.rankdep)

    def __hash__(self) -> int:
        return hash((self.value, self.rankdep))

    def __repr__(self) -> str:
        return f"AV(value={self.value!r}, rankdep={self.rankdep!r})"


def _wrap(x: Any, rankdep: bool = False) -> AV:
    return x if isinstance(x, AV) else AV(x, rankdep)


def _taint(*avs: AV) -> bool:
    for a in avs:
        if a.rankdep:
            return True
    return False


#: value types :func:`_deep` returns as they are
_ATOMS = frozenset({int, float, str, bool, type(None)})


def _deep(x: Any):
    """Deep-unwrap to plain Python, or raise :class:`_NotConcrete`."""
    if isinstance(x, AV):
        x = x.value
        if x is UNKNOWN:
            raise _NotConcrete()
        if x.__class__ in _ATOMS:
            return x
        return _deep(x)
    if isinstance(x, _Unknown):
        raise _NotConcrete()
    if isinstance(x, tuple):
        return tuple(_deep(v) for v in x)
    if isinstance(x, list):
        return [_deep(v) for v in x]
    if isinstance(x, dict):
        return {k: _deep(v) for k, v in x.items()}
    return x


def _deep_taint(x: Any) -> bool:
    if isinstance(x, AV):
        return x.rankdep or _deep_taint(x.value)
    if isinstance(x, (tuple, list)):
        return any(_deep_taint(v) for v in x)
    if isinstance(x, dict):
        return any(_deep_taint(v) for v in x.values())
    return False


def _truthy(cond: AV) -> bool | None:
    """The truth of a condition, or None when it is not concrete."""
    try:
        return bool(_deep(cond))
    except _NotConcrete:
        return None


class _NotConcrete(Exception):
    pass



@dataclass(frozen=True)
class PhantomV:
    """Abstract ``Phantom``: a payload with a (possibly unknown) size."""

    nbytes: Any  # float or UNKNOWN


@dataclass(frozen=True)
class SymComm:
    """Abstract communicator at a concrete size."""

    comm_id: int
    rank: int                  # local rank of the owning interpreter
    members: tuple[int, ...]   # world ranks, indexed by local rank

    @property
    def size(self) -> int:
        return len(self.members)


def _abstract_nbytes(payload: Any):
    """Wire size of an abstract payload, or None when unproven."""
    if isinstance(payload, AV):
        return None if not payload.known else _abstract_nbytes(payload.value)
    if payload is None:
        return 0.0
    if isinstance(payload, PhantomV):
        n = payload.nbytes
        if isinstance(n, AV):
            n = n.value if n.known else UNKNOWN
        return float(n) if isinstance(n, (int, float)) else None
    if isinstance(payload, bool) or isinstance(payload, (int, float, complex)):
        return 8.0
    if isinstance(payload, str):
        return float(len(payload.encode("utf-8")))
    if isinstance(payload, (list, tuple)):
        total = 0.0
        for item in payload:
            n = _abstract_nbytes(item)
            if n is None:
                return None
            total += n
        return total
    return None


# ---------------------------------------------------------------------------
# symbolic ops


@dataclass
class SOp:
    """One op of a communication skeleton, fully concrete except
    payloads/requests.  ``site`` anchors findings at the construction
    line (possibly inside an inlined helper in another module)."""

    kind: str
    comm: SymComm | None
    site: tuple[str, int]          # (relpath, line)
    dest: int | None = None
    source: int | None = None
    tag: int = 0
    root: int = 0
    reduce_op: str = "sum"
    payload: Any = None
    sends: tuple = ()              # exchange: ((dest_local, payload), ...)
    recvs: tuple = ()              # exchange: (src_local, ...)
    requests: tuple = ()           # wait/waitall: SReqV handles
    color: Any = None              # split
    key: Any = None                # split

    def describe(self) -> str:
        where = f"{self.site[0]}:{self.site[1]}"
        if self.kind in ("send", "isend"):
            return f"{self.kind}(dest={self.dest}, tag={self.tag}) at {where}"
        if self.kind in ("recv", "irecv"):
            return (f"{self.kind}(source={self.source}, tag={self.tag}) "
                    f"at {where}")
        if self.kind == "sendrecv":
            return (f"sendrecv(dest={self.dest}, source={self.source}, "
                    f"tag={self.tag}) at {where}")
        if self.kind == "exchange":
            return f"exchange(tag={self.tag}) at {where}"
        return f"{self.kind} at {where}"


class _Unresolvable(Exception):
    """This (program, size) is beyond the model; stay quiet."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _JobTable(_Unresolvable):
    """Code read the per-job memo ``Comm._job``: the plain helper doing
    so replays as an empty table (see ``_Interp._call_plain``)."""


class _Return(Exception):
    def __init__(self, value: AV) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Suspend(BaseException):
    """A ``yield`` or ``yield from`` reached inside :meth:`_Interp.eval`.

    ``what`` is the :class:`_Post` to yield, or the resolved generator
    callee with its evaluated arguments.  A ``BaseException``, so no
    ``except`` of the interpreter catches it: it unwinds to the
    statement executor (:meth:`_Interp._value`), which performs it."""

    def __init__(self, node: ast.expr, what: _Post | tuple) -> None:
        super().__init__()
        self.node, self.what = node, what


#: marks, in a statement's memo, a node a suspension interrupted
_PENDING = object()


# ---------------------------------------------------------------------------
# project view: function index + module constant environments


def _is_generator(fn: ast.FunctionDef) -> bool:
    """Does ``fn`` yield, nested function/class scopes aside?  Asked at
    every call a replay resolves; answered once per def."""
    try:
        return fn._is_generator
    except AttributeError:
        fn._is_generator = any(
            isinstance(node, (ast.Yield, ast.YieldFrom))
            for node in iter_direct_body(fn, lambda n: isinstance(n, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                ast.Lambda))))
        return fn._is_generator


def _yields(node: ast.AST) -> bool:
    """Does ``node`` contain a ``yield``/``yield from`` anywhere below
    it?  Asked at every statement and branch; answered once per node."""
    try:
        return node._yields
    except AttributeError:
        pass
    found = isinstance(node, (ast.Yield, ast.YieldFrom))
    for name in node._fields:
        if found:
            break
        child = getattr(node, name, None)
        if isinstance(child, ast.AST):
            found = _yields(child)
        elif isinstance(child, list):
            found = any(_yields(c) for c in child if isinstance(c, ast.AST))
    node._yields = found
    return found


def _loop_shape(loop: ast.For | ast.While):
    """``(names, sinks)`` of a loop, or None when an iteration mentions
    its target: ``names`` are those an iteration may rebind, ``sinks``
    those it only appends to."""
    if hasattr(loop, "_shape"):
        return loop._shape
    if isinstance(loop, ast.For):
        parts, targets = loop.body, frozenset(
            n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name))
    else:
        parts, targets = [loop.test, *loop.body], frozenset()
    nodes = [n for part in parts for n in ast.walk(part)]
    names = Counter(n.id for n in nodes if isinstance(n, ast.Name))
    bound = {n.id for n in nodes if isinstance(n, ast.Name) and
             not isinstance(n.ctx, ast.Load)} | {
        n.name for n in nodes if isinstance(
            n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    appends = Counter(
        n.func.value.id for n in nodes if isinstance(n, ast.Call) and
        isinstance(n.func, ast.Attribute) and n.func.attr == "append" and
        isinstance(n.func.value, ast.Name))
    loop._shape = None if targets & names.keys() else (
        tuple(sorted(bound)),
        frozenset(n for n, k in appends.items() if names[n] == k))
    return loop._shape


def _holds(x: Any, ids: set[int]) -> bool:
    """Does ``x`` hold one of the containers ``ids``, at any depth?"""
    x = x.value if isinstance(x, AV) else x
    return isinstance(x, (list, tuple, set, frozenset, dict)) and (
        id(x) in ids or any(_holds(v, ids) for v in (
            x.values() if isinstance(x, dict) else x)))


def _same(a: Any, b: Any) -> bool:
    """Equal and of one class at every depth (a dataclass's fields
    too), floats bit for bit: ``1``, ``1.0`` and ``True`` are equal, and
    so are ``0.0`` and ``-0.0``, yet a replay tells each pair apart (a
    float tag gives it up)."""
    if a is b:
        return True
    cls = a.__class__
    if cls is not b.__class__:
        return False
    if cls is AV:
        return a.rankdep == b.rankdep and _same(a.value, b.value)
    if cls is float:
        return a.hex() == b.hex()
    if cls in _ATOMS:
        return a == b
    if hasattr(a, "__dataclass_fields__"):    # PhantomV, SymComm, ...
        a, b, cls = vars(a), vars(b), dict
    if cls is dict:
        a, b = a.items(), b.items()
    elif cls not in (list, tuple, set, frozenset):
        return a == b
    return len(a) == len(b) and all(map(_same, a, b))


def is_rank_program(fn: ast.FunctionDef) -> bool:
    """A generator whose first parameter is the communicator."""
    args = fn.args.posonlyargs + fn.args.args
    if not args:
        return False
    first = args[0]
    if first.arg != "comm":
        ann = first.annotation
        if not (ann is not None and "Comm" in ast.dump(ann)):
            return False
    return _is_generator(fn)


def rank_programs(tree: ast.Module) -> list[ast.FunctionDef]:
    """Module-level rank programs, in source order."""
    return [stmt for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef) and is_rank_program(stmt)]


class ProjectIndex:
    """Cross-module view: function definitions and module constants."""

    def __init__(self, modules: Iterable[tuple[str, ast.Module]]) -> None:
        self.modules: list[tuple[str, ast.Module]] = list(modules)
        #: function name -> [(module parts, relpath, node)]
        self.functions: dict[str, list[tuple[tuple[str, ...], str,
                                             ast.FunctionDef]]] = {}
        self.aliases: dict[str, dict[str, str]] = {}
        self.trees: dict[str, ast.Module] = {}
        self._module_envs: dict[str, dict[str, AV]] = {}
        self._resolved: dict[tuple[str, str],
                             tuple[str, ast.FunctionDef] | None] = {}
        for relpath, tree in self.modules:
            self.trees[relpath] = tree
            self.aliases[relpath] = import_aliases(tree)
            parts = tuple(relpath[:-3].split("/")) \
                if relpath.endswith(".py") else tuple(relpath.split("/"))
            for stmt in tree.body:
                if isinstance(stmt, ast.FunctionDef):
                    self.functions.setdefault(stmt.name, []).append(
                        (parts, relpath, stmt))

    def resolve(self, relpath: str,
                dotted: str) -> tuple[str, ast.FunctionDef] | None:
        """Resolve a (possibly dotted) callee name from ``relpath``;
        answered once per pair."""
        key = (relpath, dotted)
        try:
            return self._resolved[key]
        except KeyError:
            pass
        parts = dotted.split(".")
        name, prefix = parts[-1], tuple(parts[:-1])
        candidates = self.functions.get(name, ())
        if prefix:
            matched = [(rel, node) for mod, rel, node in candidates
                       if mod[:-1][-len(prefix):] == prefix or
                       mod[-len(prefix):] == prefix]
        else:
            matched = [(rel, node) for mod, rel, node in candidates
                       if rel == relpath]
            if not matched and len(candidates) == 1:
                matched = [(rel, node) for _, rel, node in candidates]
        found = matched[0] if len(matched) == 1 else None
        self._resolved[key] = found
        return found

    def module_env(self, relpath: str) -> dict[str, AV]:
        """Module-level constant bindings (lazily folded)."""
        env = self._module_envs.get(relpath)
        if env is None:
            env = {}
            self._module_envs[relpath] = env  # break self-recursion
            tree = self.trees.get(relpath)
            if tree is not None:
                interp = _Interp(self, relpath)
                for stmt in tree.body:
                    target = None
                    if isinstance(stmt, ast.Assign) and \
                            len(stmt.targets) == 1 and \
                            isinstance(stmt.targets[0], ast.Name):
                        target, value = stmt.targets[0], stmt.value
                    elif isinstance(stmt, ast.AnnAssign) and \
                            isinstance(stmt.target, ast.Name) and \
                            stmt.value is not None:
                        target, value = stmt.target, stmt.value
                    if target is None:
                        continue
                    try:
                        env[target.id] = interp.eval(value, env)
                    except (_Unresolvable, _NotConcrete):
                        env[target.id] = AV(UNKNOWN, False)
        return env


# ---------------------------------------------------------------------------
# the abstract interpreter (one rank of one program at one size)


class _Post:
    """One yield of the program: a single op or an op batch."""

    __slots__ = ("ops", "batch")

    def __init__(self, ops: list[SOp], batch: bool) -> None:
        self.ops = ops
        self.batch = batch


#: pure callables usable on fully concrete arguments
_BUILTINS = {
    "range": range, "len": len, "min": min, "max": max, "abs": abs,
    "int": int, "float": float, "bool": bool, "sum": sum,
    "sorted": sorted, "enumerate": enumerate, "zip": zip, "list": list,
    "tuple": tuple, "dict": dict, "set": set, "round": round,
    "divmod": divmod, "pow": pow, "str": str, "frozenset": frozenset,
    "reversed": reversed,
}

_MUTATORS = {"append", "extend", "insert", "add", "update"}
#: list/dict/set methods that leave their container as it was
_READERS = {"get", "keys", "values", "items", "copy", "index", "count"}

_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod, ast.Pow: operator.pow,
    ast.BitXor: operator.xor, ast.BitAnd: operator.and_,
    ast.BitOr: operator.or_, ast.LShift: operator.lshift,
    ast.RShift: operator.rshift,
}

_UNARYOPS = {ast.USub: operator.neg, ast.UAdd: operator.pos,
             ast.Not: operator.not_, ast.Invert: operator.invert}

_CMPOPS = {
    ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
    ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
    ast.In: lambda a, b: a in b, ast.NotIn: lambda a, b: a not in b,
    ast.Is: operator.is_, ast.IsNot: operator.is_not,
}


class _Interp:
    """Abstract interpretation of one rank program at a concrete size.

    ``run_program()`` is a generator yielding :class:`_Post` objects
    and being resumed with result :class:`AV`\\ s -- the replay
    simulator drives it exactly like the engine drives real rank
    generators.  Statements execute in generators; expressions are
    plain calls (:meth:`eval`).
    """

    def __init__(self, index: ProjectIndex, relpath: str) -> None:
        self.index = index
        self.relpath = relpath      # current module (frame-dependent)
        self.steps = 0
        self.depth = 0
        self.approx = False
        #: finished (and interrupted) nodes of the statement expression
        #: being evaluated, while it may suspend; None otherwise
        self._memo: dict | None = None
        #: list/dict/set mutations and iterators consumed (container,
        #: method, args) while an iteration is recorded
        self._log: list | None = None

    # -- entry ----------------------------------------------------------------

    def run_program(self, fn: ast.FunctionDef, relpath: str,
                    world: SymComm):
        """Bind entry parameters and execute the program body."""
        env = dict(self.index.module_env(relpath))
        args = fn.args.posonlyargs + fn.args.args
        defaults = fn.args.defaults
        split = len(args) - len(defaults)
        env[args[0].arg] = AV(world, True)
        for i, arg in enumerate(args[1:], start=1):
            if i >= split:
                try:
                    env[arg.arg] = self.eval(defaults[i - split], env)
                except (_Unresolvable, _NotConcrete):
                    env[arg.arg] = AV(UNKNOWN, False)
                    self.approx = True
            else:
                ann = arg.annotation
                if ann is not None and isinstance(ann, ast.Name) and \
                        ann.id == "int":
                    # fabricate a small uniform count; approximate world
                    env[arg.arg] = AV(2, False)
                else:
                    env[arg.arg] = AV(UNKNOWN, False)
                self.approx = True
        for arg in fn.args.kwonlyargs:
            env[arg.arg] = AV(UNKNOWN, False)
            self.approx = True
        prev = self.relpath
        self.relpath = relpath
        try:
            yield from self.exec_block(fn.body, env)
        except _Return:
            pass
        finally:
            self.relpath = prev

    # -- statements -----------------------------------------------------------

    def exec_block(self, stmts: list[ast.stmt], env: dict[str, AV]):
        for stmt in stmts:
            yield from self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: ast.stmt, env: dict[str, AV]):
        self.steps += 1
        if self.steps > MAX_STEPS:
            raise _Unresolvable("step budget exhausted")
        if isinstance(stmt, ast.Assign):
            value = yield from self._value(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, value, env)
            return
        if isinstance(stmt, ast.Expr):
            yield from self._value(stmt.value, env)
            return
        if isinstance(stmt, ast.If):
            yield from self._exec_if(stmt, env)
            return
        if isinstance(stmt, ast.For):
            yield from self._exec_for(stmt, env)
            return
        if isinstance(stmt, ast.AugAssign):
            value = yield from self._value(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                cur = self.eval(stmt.target, env)
                env[stmt.target.id] = self._binop(stmt.op, cur, value)
            return
        if isinstance(stmt, ast.Return):
            value = AV(None, False)
            if stmt.value is not None:
                value = yield from self._value(stmt.value, env)
            raise _Return(value)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            env[stmt.name] = AV(UNKNOWN, False)
            return
        if isinstance(stmt, ast.Break):
            raise _Break()
        if isinstance(stmt, ast.Continue):
            raise _Continue()
        if isinstance(stmt, (ast.Pass, ast.Global, ast.Nonlocal,
                             ast.Import, ast.ImportFrom)):
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = yield from self._value(stmt.value, env)
                self._assign(stmt.target, value, env)
            return
        if isinstance(stmt, ast.Assert):
            yield from self._value(stmt.test, env)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
            return
        if isinstance(stmt, ast.While):
            yield from self._exec_while(stmt, env)
            return
        raise _Unresolvable(
            f"unsupported statement {type(stmt).__name__}")

    def _value(self, node: ast.expr, env: dict[str, AV]):
        """Evaluate one statement-level expression: the one place an
        expression suspends.

        A ``yield`` inside it raises :class:`_Suspend`; this generator
        yields the post (or runs the delegated generator), records the
        result for that node and evaluates the expression again.  The
        memo answers every node finished before the suspension, so the
        retry builds no op, runs no list mutator and counts no step a
        second time."""
        if not _yields(node):
            return self.eval(node, env)
        memo: dict = {}
        while True:
            self._memo = memo
            try:
                return self.eval(node, env)
            except _Suspend as exc:
                # keep no reference to the exception: its traceback holds
                # this frame, and the cycle would wait for the collector
                at, what = exc.node, exc.what
            finally:
                self._memo = None
            if isinstance(what, _Post):
                memo[at] = yield what
            else:
                memo[at] = yield from self._call_generator(*what)

    def _exec_if(self, stmt: ast.If, env: dict[str, AV]):
        cond = yield from self._value(stmt.test, env)
        truthy = _truthy(cond)
        if truthy is True:
            yield from self.exec_block(stmt.body, env)
            return
        if truthy is False:
            yield from self.exec_block(stmt.orelse, env)
            return
        if cond.rankdep:
            # may diverge across ranks: tolerable only when neither arm
            # communicates or alters control flow
            arms = stmt.body + stmt.orelse
            if any(isinstance(node, (ast.Yield, ast.YieldFrom, ast.Break,
                                     ast.Continue, ast.Return))
                   for arm in arms for node in ast.walk(arm)):
                raise _Unresolvable(
                    "rank-dependent branch on unproven condition "
                    "contains communication or control flow")
            for node in (n for arm in arms for n in ast.walk(arm)):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Store):
                    env[node.id] = AV(UNKNOWN, True)
            return
        # unknown but rank-uniform: take the false arm on every rank
        if any(map(_yields, stmt.body)):
            self.approx = True
        yield from self.exec_block(stmt.orelse, env)

    def _exec_for(self, stmt: ast.For, env: dict[str, AV]):
        if any(map(_yields, stmt.orelse)):
            raise _Unresolvable("for-else with communication")
        iterable = yield from self._value(stmt.iter, env)
        items = None
        if iterable.known:
            value = iterable.value
            if isinstance(value, (list, tuple, range, dict, set,
                                  frozenset)):
                items = list(value)
        orelse = stmt.orelse
        if items is None:
            # unknown trip count: unroll once, rank-uniformly, no else
            self.approx, items, orelse = True, [UNKNOWN], []
        elif len(items) > UNROLL_CAP:
            self.approx, items = True, items[:UNROLL_CAP]
        try:
            yield from self._unroll(stmt, env, items, iterable.rankdep,
                                    lambda: self.exec_block(stmt.body, env))
        except _Break:
            return
        yield from self.exec_block(orelse, env)

    def _exec_while(self, stmt: ast.While, env: dict[str, AV]):
        if any(map(_yields, stmt.orelse)):
            raise _Unresolvable("while-else with communication")
        try:
            yield from self._unroll(stmt, env, range(UNROLL_CAP + 1), False,
                                    lambda: self._while_step(stmt, env))
        except _Break:
            return
        self.approx = True

    def _while_step(self, stmt: ast.While, env: dict[str, AV]):
        """A ``while`` iteration: the test, a break unless true, the body."""
        cond = yield from self._value(stmt.test, env)
        truthy = _truthy(cond)
        if truthy is None:
            if cond.rankdep:
                raise _Unresolvable(
                    "while on rank-dependent unproven condition")
            if any(map(_yields, stmt.body)):
                self.approx = True
        if not truthy:
            raise _Break()
        yield from self.exec_block(stmt.body, env)

    def _unroll(self, loop: ast.For | ast.While, env: dict[str, AV],
                items, rankdep: bool, step):
        """One iteration ``step()`` per item, a ``for``'s target bound
        first.  An iteration starting in the state its interpreted
        predecessor (the *twin*) started in -- the names an iteration
        may rebind, ``approx``, ``depth``, ``relpath`` -- posts the
        twin's ops again, each after the twin's steps before it, then
        charges the rest.  At a payload unlike the twin's, it is
        interpreted after all."""
        shape = _loop_shape(loop)
        twin = None
        for item in items:
            if isinstance(loop, ast.For):
                self._assign(loop.target, _wrap(item, rankdep), env)
            if shape is None:
                try:
                    yield from step()
                except _Continue:
                    pass
                continue
            state = (self.approx, self.depth, self.relpath,
                     *map(env.get, shape[0]))
            feed, charged = [], 0
            if twin is not None and _same(twin[0], state) and \
                    self.steps + twin[3] <= MAX_STEPS and \
                    self._summarisable(twin, env, shape[1]):
                for post, payload, at in twin[1]:
                    self.steps += at - charged
                    charged = at
                    feed.append((yield post))
                    if not _same(feed[-1], payload):
                        self.steps -= charged
                        break
                else:
                    for container, _, args in twin[2]:
                        container.append(args[0])
                    if self._log is not None:
                        self._log += twin[2]
                    self.steps += twin[3] - charged
                    continue
            twin = yield from self._record(step, state, feed)

    def _record(self, step, state, feed: list[AV]):
        """Interpret one iteration into a twin ``[state, [(post, payload,
        steps before it)], mutations, steps, summarisable]``; ``feed``
        holds the payloads of its first posts, which are not yielded."""
        outer = self._log
        log = self._log = [] if outer is None else outer
        mark, steps, posts = len(log), self.steps, []
        gen = step()
        try:
            post = next(gen)
            while True:
                at = self.steps - steps
                payload = (feed[len(posts)] if len(posts) < len(feed)
                           else (yield post))
                posts.append((post, payload, at))
                post = gen.send(payload)
        except (StopIteration, _Continue):
            pass
        finally:
            self._log = outer
        return [state, posts, log[mark:], self.steps - steps, None]

    def _summarisable(self, twin: list, env: dict[str, AV],
                      sinks: frozenset) -> bool:
        """Are a twin's only mutations appends of plain values to sinks
        no other name of the frame and no module holds?  Decided once,
        when an iteration first starts in the twin's state."""
        if twin[4] is None:
            log = twin[2]
            held = {id(container) for container, _, _ in log}
            twin[4] = not log or all(
                m == "append" and c.__class__ is list and len(a) == 1 and (
                    a[0].value is UNKNOWN or a[0].value.__class__ in _ATOMS)
                for c, m, a in log) and held <= {
                id(env[n].value) for n in sinks if n in env} and not _holds(
                ({n: v for n, v in env.items() if n not in sinks},
                 *self.index._module_envs.values()), held)
        return twin[4]

    def _assign(self, target: ast.AST, value: AV,
                env: dict[str, AV]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            if any(isinstance(e, ast.Starred) for e in target.elts):
                raise _Unresolvable("starred assignment")
            if value.known and isinstance(value.value, (tuple, list)) \
                    and len(value.value) == len(target.elts):
                for elt, item in zip(target.elts, value.value):
                    self._assign(elt, _wrap(item, value.rankdep), env)
            else:
                for elt in target.elts:
                    self._assign(elt, AV(UNKNOWN, value.rankdep), env)
            return
        # attribute/subscript stores: drop the effect (objects are
        # opaque to the model)
        return

    # -- expressions ----------------------------------------------------------

    def eval(self, node: ast.expr, env: dict[str, AV]) -> AV:
        """The abstract value of ``node``.  A ``yield`` inside raises
        :class:`_Suspend` for the statement executor to perform."""
        memo = self._memo
        if memo is not None:
            return self._eval_resumable(node, env, memo)
        self.steps += 1
        if self.steps > MAX_STEPS:
            raise _Unresolvable("step budget exhausted")
        return _EVAL.get(type(node), _Interp._eval_opaque)(self, node, env)

    def _eval_resumable(self, node: ast.expr, env: dict[str, AV],
                        memo: dict) -> AV:
        """:meth:`eval` inside a statement expression that may suspend:
        a node finished before a suspension answers from ``memo``, one
        that cannot suspend evaluates plainly, and one a suspension
        interrupted is entered again uncounted."""
        value = memo.get(node)
        if value is not None and value is not _PENDING:
            return value
        if not _yields(node):
            self._memo = None
            try:
                value = memo[node] = self.eval(node, env)
            finally:
                self._memo = memo
            return value
        if value is None:
            self.steps += 1
            if self.steps > MAX_STEPS:
                raise _Unresolvable("step budget exhausted")
        try:
            value = _EVAL.get(type(node), _Interp._eval_opaque)(
                self, node, env)
        except _Suspend:
            memo[node] = _PENDING
            raise
        memo[node] = value
        return value

    def _eval_opaque(self, node: ast.expr, env) -> AV:
        return AV(UNKNOWN, False)

    def _eval_constant(self, node: ast.Constant, env) -> AV:
        try:
            return node._av     # constants are immutable: one AV each
        except AttributeError:
            node._av = AV(node.value, False)
            return node._av

    def _eval_starred(self, node: ast.Starred, env) -> AV:
        raise _Unresolvable("starred expression")

    def _eval_seq(self, node, env) -> AV:
        """Tuples, lists, and sets (which fold like lists)."""
        items = []
        rankdep = False
        for elt in node.elts:
            if isinstance(elt, ast.Starred):
                inner = self.eval(elt.value, env)
                if inner.known and isinstance(inner.value, (tuple, list)):
                    items.extend(inner.value)
                    rankdep |= inner.rankdep
                    continue
                return AV(UNKNOWN, rankdep or inner.rankdep)
            items.append(self.eval(elt, env))
        return AV(tuple(items) if isinstance(node, ast.Tuple) else items,
                  rankdep)

    def _eval_dict(self, node: ast.Dict, env) -> AV:
        out = {}
        rankdep = False
        for k, v in zip(node.keys, node.values):
            if k is None:
                return AV(UNKNOWN, rankdep)
            key = self.eval(k, env)
            val = self.eval(v, env)
            rankdep |= key.rankdep
            try:
                out[_deep(key)] = val
            except (_NotConcrete, TypeError):
                return AV(UNKNOWN, rankdep or val.rankdep)
        return AV(out, rankdep)

    def _eval_binop(self, node: ast.BinOp, env) -> AV:
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        return self._binop(node.op, left, right)

    def _eval_unaryop(self, node: ast.UnaryOp, env) -> AV:
        operand = self.eval(node.operand, env)
        try:
            a = _deep(operand)
        except _NotConcrete:
            return AV(UNKNOWN, operand.rankdep)
        fn = _UNARYOPS.get(type(node.op))
        if fn is None:
            return AV(UNKNOWN, operand.rankdep)
        try:
            return AV(fn(a), operand.rankdep)
        except Exception:
            raise _Unresolvable(
                "unary operator failed on folded operand") from None

    def _eval_boolop(self, node: ast.BoolOp, env) -> AV:
        result = None
        rankdep = False
        for i, operand in enumerate(node.values):
            av = self.eval(operand, env)
            rankdep |= av.rankdep
            truthy = _truthy(av)
            if truthy is None:
                # remaining operands still evaluated, one at a time;
                # give up on the value but keep the taint
                for rest in node.values[i + 1:]:
                    if _yields(rest):
                        raise _Unresolvable(
                            "communication behind unproven short-circuit")
                    rankdep |= self.eval(rest, env).rankdep
                return AV(UNKNOWN, rankdep)
            if isinstance(node.op, ast.And) and not truthy:
                return av
            if isinstance(node.op, ast.Or) and truthy:
                return av
            result = av
        return result if result is not None else AV(UNKNOWN, rankdep)

    def _eval_compare(self, node: ast.Compare, env) -> AV:
        left = self.eval(node.left, env)
        rankdep = left.rankdep
        current = left
        for op, comparator in zip(node.ops, node.comparators):
            right = self.eval(comparator, env)
            rankdep |= right.rankdep
            try:
                a, b = _deep(current), _deep(right)
            except _NotConcrete:
                return AV(UNKNOWN, rankdep)
            try:
                ok = _CMPOPS[type(op)](a, b)
            except Exception:
                return AV(UNKNOWN, rankdep)
            if not ok:
                return AV(False, rankdep)
            current = right
        return AV(True, rankdep)

    @staticmethod
    def _binop(op: ast.operator, left: AV, right: AV) -> AV:
        rankdep = _taint(left, right)
        try:
            a, b = _deep(left), _deep(right)
        except _NotConcrete:
            return AV(UNKNOWN, rankdep)
        fn = _BINOPS.get(type(op))
        if fn is None:
            return AV(UNKNOWN, rankdep)
        try:
            return AV(fn(a, b), rankdep)
        except Exception:
            raise _Unresolvable(
                "arithmetic failed on folded operands") from None

    def _eval_ifexp(self, node: ast.IfExp, env) -> AV:
        cond = self.eval(node.test, env)
        truthy = _truthy(cond)
        if truthy is None:
            if _yields(node.body) or _yields(node.orelse):
                raise _Unresolvable(
                    "conditional expression with communication on "
                    "unproven condition")
            a = self.eval(node.body, env)
            b = self.eval(node.orelse, env)
            try:
                if _deep(a) == _deep(b):
                    return AV(a.value, _taint(cond, a, b))
            except (_NotConcrete, Exception):
                pass
            return AV(UNKNOWN, _taint(cond, a, b))
        return self.eval(node.body if truthy else node.orelse, env)

    def _eval_subscript(self, node: ast.Subscript, env) -> AV:
        obj = self.eval(node.value, env)
        idx = self.eval(node.slice, env)
        if not obj.known:
            return AV(UNKNOWN, _taint(obj, idx))
        try:
            key = _deep(idx)
        except _NotConcrete:
            return AV(UNKNOWN, _taint(obj, idx))
        value = obj.value
        try:
            if isinstance(value, (tuple, list)):
                item = value[key]
                if isinstance(key, slice):
                    return AV(item, obj.rankdep)
                return _wrap(item, obj.rankdep)
            if isinstance(value, dict):
                return _wrap(value[key], obj.rankdep)
            if isinstance(value, (str, range)):
                return AV(value[key], _taint(obj, idx))
        except Exception:
            raise _Unresolvable("indexing error in skeleton") from None
        return AV(UNKNOWN, _taint(obj, idx))

    def _eval_slice(self, node: ast.Slice, env) -> AV:
        lower = upper = step = AV(None, False)
        if node.lower is not None:
            lower = self.eval(node.lower, env)
        if node.upper is not None:
            upper = self.eval(node.upper, env)
        if node.step is not None:
            step = self.eval(node.step, env)
        try:
            return AV(slice(_deep(lower), _deep(upper), _deep(step)),
                      _taint(lower, upper, step))
        except _NotConcrete:
            return AV(UNKNOWN, _taint(lower, upper, step))

    def _eval_joinedstr(self, node: ast.JoinedStr, env) -> AV:
        parts = []
        rankdep = False
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                av = self.eval(value.value, env)
                rankdep |= av.rankdep
                try:
                    parts.append(str(_deep(av)))
                except _NotConcrete:
                    return AV(UNKNOWN, rankdep)
            elif isinstance(value, ast.Constant):
                parts.append(str(value.value))
        return AV("".join(parts), rankdep)

    def _eval_comp(self, node, env) -> AV:
        """List/set/dict comprehensions and generator expressions over
        provably concrete iterables; anything else is UNKNOWN.  So is
        one whose iterable is longer than ``4 * UNROLL_CAP`` -- never a
        truncated container -- and the replay becomes approximate."""
        scope = dict(env)
        out: list = []
        capped: list[bool] = []     # the taint of an iterable over the cap

        def gens(i: int) -> None:
            if i == len(node.generators):
                if isinstance(node, ast.DictComp):
                    k = self.eval(node.key, scope)
                    out.append((k, self.eval(node.value, scope)))
                else:
                    out.append(self.eval(node.elt, scope))
                return
            gen = node.generators[i]
            iterable = self.eval(gen.iter, scope)
            if not iterable.known or not isinstance(
                    iterable.value, (list, tuple, range, dict, set,
                                     frozenset)):
                raise _NotConcrete()
            items = list(iterable.value)
            if len(items) > UNROLL_CAP * 4:
                capped.append(iterable.rankdep)
                raise _NotConcrete()
            for item in items:
                self._assign(gen.target,
                             _wrap(item, iterable.rankdep), scope)
                keep = True
                for cond in gen.ifs:
                    keep = bool(_deep(self.eval(cond, scope)))
                    if not keep:
                        break
                if keep:
                    gens(i + 1)

        # the element is evaluated once per item: no statement memo
        memo, self._memo = self._memo, None
        try:
            gens(0)
        except _NotConcrete:
            self.approx |= bool(capped)
            return AV(UNKNOWN, any(capped))
        finally:
            self._memo = memo
        if isinstance(node, ast.DictComp):
            try:
                return AV({_deep(k): v for k, v in out}, False)
            except (_NotConcrete, TypeError):
                return AV(UNKNOWN, False)
        if isinstance(node, ast.SetComp):
            try:
                return AV(frozenset(_deep(v) for v in out), False)
            except (_NotConcrete, TypeError):
                return AV(UNKNOWN, False)
        return AV(out if isinstance(node, ast.ListComp) else tuple(out),
                  False)

    # -- names, attributes, calls ---------------------------------------------

    def _eval_name(self, node: ast.Name, env) -> AV:
        name = node.id
        value = env.get(name)
        if value is not None:
            return value
        menv = self.index.module_env(self.relpath)
        if name in menv:
            return menv[name]
        target = self.index.aliases.get(self.relpath, {}).get(name)
        if target is not None:
            return self._external(target)
        if name in _BUILTINS:
            return AV(("builtin", name), False)
        if self.index.resolve(self.relpath, name) is not None:
            return AV(("fn", name), False)
        return AV(UNKNOWN, False)

    def _external(self, dotted: str) -> AV:
        """An imported name, canonicalised; only pure, well-known
        origins fold to concrete values."""
        parts = dotted.split(".")
        if parts[-1] == "Phantom":
            return AV(("phantom",), False)
        if "units" in parts[:-1] or (len(parts) == 2 and
                                     parts[0] == "units"):
            try:
                from .. import units as _units
                value = getattr(_units, parts[-1])
            except AttributeError:
                return AV(UNKNOWN, False)
            if isinstance(value, (int, float, str)):
                return AV(value, False)
            return AV(UNKNOWN, False)
        if parts[0] == "math":
            value = getattr(math, parts[-1], None)
            if isinstance(value, float):
                return AV(value, False)
            if callable(value):
                return AV(("mathfn", parts[-1]), False)
            return AV(UNKNOWN, False)
        if parts[0] == "numpy" and parts[-1] in (
                "sqrt", "floor", "ceil", "log", "log2", "exp"):
            # scalar numpy math folds like math.* on concrete args
            return AV(("mathfn", parts[-1]), False)
        if self.index.resolve(self.relpath, dotted) is not None:
            return AV(("fn", dotted), False)
        return AV(UNKNOWN, False)

    def _eval_attribute(self, node: ast.Attribute, env) -> AV:
        # math.fn / module.helper style dotted loads first
        dotted = _dotted(node)
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            if head not in env:
                alias = self.index.aliases.get(self.relpath, {}).get(head)
                if alias is not None:
                    return self._external(f"{alias}.{rest}")
        obj = self.eval(node.value, env)
        if not obj.known:
            return AV(UNKNOWN, obj.rankdep)
        value = obj.value
        if isinstance(value, SymComm):
            if node.attr == "rank":
                return AV(value.rank, True)
            if node.attr == "size":
                return AV(value.size, value.comm_id != 0)
            if node.attr == "members":
                return AV(value.members, value.comm_id != 0)
            if node.attr == "comm_id":
                return AV(value.comm_id, False)
            if node.attr in COMM_METHODS:
                return AV(("commop", value, node.attr), False)
            if node.attr == "_job":
                raise _JobTable("per-job table read outside a helper")
            raise _Unresolvable(f"unknown Comm attribute {node.attr!r}")
        if isinstance(value, PhantomV):
            if node.attr == "nbytes":
                return _wrap(value.nbytes, obj.rankdep)
            return AV(UNKNOWN, obj.rankdep)
        if isinstance(value, (list, dict, set, str, tuple)):
            return AV(("method", obj, node.attr), obj.rankdep)
        return AV(UNKNOWN, obj.rankdep)

    def _eval_call(self, node: ast.Call, env) -> AV:
        func = self.eval(node.func, env)
        args: list[AV] = []
        for a in node.args:
            if isinstance(a, ast.Starred):
                inner = self.eval(a.value, env)
                if inner.known and isinstance(inner.value,
                                              (tuple, list)):
                    args.extend(_wrap(v, inner.rankdep)
                                for v in inner.value)
                    continue
                return AV(UNKNOWN, True)
            args.append(self.eval(a, env))
        kwargs: dict[str, AV] = {}
        for kw in node.keywords:
            if kw.arg is None:
                return AV(UNKNOWN, True)
            kwargs[kw.arg] = self.eval(kw.value, env)
        if not func.known:
            return AV(UNKNOWN,
                      func.rankdep or _taint(*args) or
                      _taint(*kwargs.values()))
        target = func.value
        what = target[0] if isinstance(target, tuple) and target else None
        if what == "commop":
            _, symcomm, mname = target
            return self._comm_call(symcomm, mname, args, kwargs, node)
        if what == "phantom":
            size = args[0] if args else kwargs.get("nbytes",
                                                   AV(UNKNOWN, False))
            return AV(PhantomV(size), size.rankdep)
        if what == "builtin":
            return self._apply_concrete(_BUILTINS[target[1]], args,
                                        kwargs)
        if what == "mathfn":
            return self._apply_concrete(getattr(math, target[1]), args,
                                        kwargs)
        if what == "method":
            return self._apply_method(target[1], target[2], args,
                                      kwargs)
        if what == "fn":
            resolved = self.index.resolve(self.relpath, target[1])
            if resolved is None:
                return AV(UNKNOWN, _taint(*args))
            relpath, fnnode = resolved
            if _is_generator(fnnode):
                # a generator called without ``yield from`` is an
                # opaque generator object
                return AV(UNKNOWN, _taint(*args))
            return self._call_plain(fnnode, relpath, args, kwargs)
        return AV(UNKNOWN, _taint(*args))

    def _apply_concrete(self, fn, args: list[AV],
                        kwargs: dict[str, AV]) -> AV:
        rankdep = (_taint(*args) or _taint(*kwargs.values()) or
                   any(_deep_taint(a) for a in args))
        try:
            concrete_args = [_deep(a) for a in args]
            concrete_kwargs = {k: _deep(v) for k, v in kwargs.items()}
        except _NotConcrete:
            return AV(UNKNOWN, rankdep)
        if self._log is not None:   # an iterator argument is consumed
            self._log += [(x, "next", ()) for x in (
                *concrete_args, *concrete_kwargs.values(),
                getattr(fn, "__self__", None)) if hasattr(x, "__next__")]
        try:
            result = fn(*concrete_args, **concrete_kwargs)
        except Exception:
            raise _Unresolvable(
                f"{getattr(fn, '__name__', fn)}() failed on folded "
                f"arguments") from None
        if isinstance(result, (enumerate, zip, reversed)):
            result = list(result)
        return AV(result, rankdep)

    def _apply_method(self, obj: AV, name: str, args: list[AV],
                      kwargs: dict[str, AV]) -> AV:
        value = obj.value
        if self._log is not None and name not in _READERS and \
                isinstance(value, (list, dict, set)):
            self._log.append((value, name, args))
        if name == "get" and isinstance(value, dict) and not value and args:
            # an empty dict misses whatever the (possibly unknown) key
            return args[1] if len(args) > 1 else AV(None, False)
        if name in _MUTATORS:
            method = getattr(value, name, None)
            if method is None:
                return AV(UNKNOWN, obj.rankdep)
            try:
                method(*args) if len(args) != 1 else method(args[0])
            except Exception:
                return AV(UNKNOWN, obj.rankdep)
            return AV(None, False)
        method = getattr(value, name, None)
        if method is None or not callable(method):
            return AV(UNKNOWN, obj.rankdep)
        av = self._apply_concrete(method, args, kwargs)
        return AV(av.value, av.rankdep or obj.rankdep or
                  _deep_taint(obj))

    def _call_plain(self, fnnode: ast.FunctionDef, relpath: str,
                    args: list[AV], kwargs: dict[str, AV]) -> AV:
        """Inline a project-local plain function: run its body to
        completion (a function that yields is a generator, which only
        ``yield from`` reaches)."""
        try:
            self._call_generator(fnnode, relpath, args, kwargs).send(None)
        except StopIteration as stop:
            return stop.value
        except _JobTable:
            # A job-level table (the halo pairing) is not folded: it
            # replays as a table without rows, so every rank takes
            # its reader's off-table path -- no neighbours, the model
            # halo helpers always had.
            return AV([], False)
        raise _Unresolvable("yield in a plain helper")

    def _bind_params(self, fnnode: ast.FunctionDef, args: list[AV],
                     kwargs: dict[str, AV], env: dict[str, AV]) -> None:
        params = fnnode.args.posonlyargs + fnnode.args.args
        if fnnode.args.vararg or fnnode.args.kwarg:
            raise _Unresolvable("*args/**kwargs in inlined helper")
        defaults = fnnode.args.defaults
        split = len(params) - len(defaults)
        for i, param in enumerate(params):
            if i < len(args):
                env[param.arg] = args[i]
            elif param.arg in kwargs:
                env[param.arg] = kwargs.pop(param.arg)
            elif i >= split:
                env[param.arg] = self.eval(defaults[i - split], env)
            else:
                raise _Unresolvable(
                    f"missing argument {param.arg!r} in inlined call")
        kw_defaults = fnnode.args.kw_defaults
        for param, default in zip(fnnode.args.kwonlyargs, kw_defaults):
            if param.arg in kwargs:
                env[param.arg] = kwargs.pop(param.arg)
            elif default is not None:
                env[param.arg] = self.eval(default, env)
            else:
                raise _Unresolvable(
                    f"missing keyword argument {param.arg!r}")

    # -- yields ---------------------------------------------------------------

    def _suspend(self, node: ast.expr, what: _Post | tuple) -> _Suspend:
        if self._memo is None:
            # no statement executor is waiting to perform the yield
            raise _Unresolvable("yield at module level")
        return _Suspend(node, what)

    def _eval_yield(self, node: ast.Yield, env) -> AV:
        value = AV(None, False)
        if node.value is not None:
            value = self.eval(node.value, env)
        ops, batch = self._as_ops(value)
        raise self._suspend(node, _Post(ops, batch))

    def _eval_yield_from(self, node: ast.YieldFrom, env) -> AV:
        inner = node.value
        if isinstance(inner, ast.Call):
            func = self.eval(inner.func, env)
            if func.known and isinstance(func.value, tuple) and \
                    func.value and func.value[0] == "fn":
                resolved = self.index.resolve(self.relpath,
                                              func.value[1])
                if resolved is not None and _is_generator(resolved[1]):
                    args = []
                    for a in inner.args:
                        if isinstance(a, ast.Starred):
                            raise _Unresolvable(
                                "starred args in delegated call")
                        args.append(self.eval(a, env))
                    kwargs = {}
                    for kw in inner.keywords:
                        if kw.arg is None:
                            raise _Unresolvable(
                                "**kwargs in delegated call")
                        kwargs[kw.arg] = self.eval(kw.value, env)
                    raise self._suspend(node, (resolved[1], resolved[0],
                                               args, kwargs))
        raise _Unresolvable("yield from a non-inlinable generator")

    def _call_generator(self, fnnode: ast.FunctionDef, relpath: str,
                        args: list[AV], kwargs: dict[str, AV]):
        """Run a project-local function's body in a frame of its own
        (its module, its parameters, no statement memo)."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.depth -= 1
            raise _Unresolvable("call depth exceeded")
        prev, memo = self.relpath, self._memo
        self.relpath, self._memo = relpath, None
        try:
            env = dict(self.index.module_env(relpath))
            self._bind_params(fnnode, args, kwargs, env)
            try:
                yield from self.exec_block(fnnode.body, env)
            except _Return as ret:
                return ret.value
            return AV(None, False)
        finally:
            self.relpath, self._memo = prev, memo
            self.depth -= 1

    def _as_ops(self, value: AV) -> tuple[list[SOp], bool]:
        if value.known and isinstance(value.value, SOp):
            return [value.value], False
        if value.known and isinstance(value.value, (tuple, list)):
            ops = []
            for item in value.value:
                item = item.value if isinstance(item, AV) else item
                if not isinstance(item, SOp):
                    raise _Unresolvable(
                        "yielded batch contains an unresolvable op")
                ops.append(item)
            return ops, True
        raise _Unresolvable("yielded an unresolvable op")

    # -- op construction ------------------------------------------------------

    def _comm_call(self, symcomm: SymComm, mname: str, args: list[AV],
                   kwargs: dict[str, AV], node: ast.Call) -> AV:
        spec = COMM_METHODS[mname]
        bound: dict[str, AV] = {}
        params = spec["params"]
        if len(args) > len(params):
            raise _Unresolvable(f"too many arguments to comm.{mname}")
        for name, av in zip(params, args):
            bound[name] = av
        for name, av in kwargs.items():
            if name not in params:
                raise _Unresolvable(
                    f"unknown argument {name!r} to comm.{mname}")
            bound[name] = av
        for name, default in spec["defaults"].items():
            bound.setdefault(name, AV(default, False))
        for name in params:
            if name not in bound:
                raise _Unresolvable(
                    f"missing argument {name!r} to comm.{mname}")
        kind = spec["kind"]
        op = SOp(kind=kind, site=(self.relpath, getattr(node, "lineno", 1)),
                 comm=None if kind in ("compute", "elapse") else symcomm,
                 payload=bound.get("payload", bound.get("payloads")))
        # point-to-point endpoints, in the facade's parameter order
        if "dest" in bound:
            op.dest = self._peer(symcomm, bound["dest"])
        if "source" in bound:
            op.source = self._peer(symcomm, bound["source"])
        if "tag" in bound:
            op.tag = self._tag(bound["tag"])
        if kind == "exchange":
            sends = bound["sends"]
            recvs = bound["recvs"]
            if not sends.known or not recvs.known or not \
                    isinstance(sends.value, (tuple, list)) or not \
                    isinstance(recvs.value, (tuple, list)):
                raise _Unresolvable("exchange lists are unresolvable")
            pairs = []
            for item in sends.value:
                item = item.value if isinstance(item, AV) else item
                if not isinstance(item, (tuple, list)) or \
                        len(item) != 2:
                    raise _Unresolvable("malformed exchange send pair")
                dest, payload = item
                pairs.append((self._peer(symcomm, _wrap(dest)),
                              payload))
            op.sends = tuple(pairs)
            op.recvs = tuple(self._peer(symcomm, _wrap(s))
                             for s in recvs.value)
        elif kind == "wait":
            op.requests = (bound["request"],)
        elif kind == "waitall":
            reqs = bound["requests"]
            if not reqs.known or not isinstance(reqs.value, (tuple, list)):
                raise _Unresolvable("waitall on unresolvable list")
            op.requests = tuple(reqs.value)
        elif kind == "split":
            op.color, op.key = bound["color"], bound["key"]
        if kind in REDUCING_KINDS:
            try:
                op.reduce_op = str(_deep(bound["op"]))
            except _NotConcrete:
                raise _Unresolvable(
                    "reduce op is unresolvable") from None
        if kind in ROOTED_KINDS:
            op.root = self._peer(symcomm, bound["root"])
        if kind == "alltoall":
            payload = op.payload
            if isinstance(payload, AV) and payload.known and \
                    isinstance(payload.value, (tuple, list)) and \
                    len(payload.value) != symcomm.size:
                raise _Unresolvable("alltoall payload count mismatch")
        return AV(op, False)

    @staticmethod
    def _peer(symcomm: SymComm, av: AV) -> int:
        try:
            value = _deep(av)
        except _NotConcrete:
            raise _Unresolvable("peer rank is unresolvable") from None
        if isinstance(value, bool) or not isinstance(value, int):
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            else:
                raise _Unresolvable(f"peer rank {value!r} is not an int")
        if not 0 <= value < symcomm.size:
            # the facade raises at construction; a crash, not a
            # protocol bug -- stay quiet at this size
            raise _Unresolvable(
                f"peer {value} outside communicator of size "
                f"{symcomm.size}")
        return value

    @staticmethod
    def _tag(av: AV) -> int:
        try:
            value = _deep(av)
        except _NotConcrete:
            raise _Unresolvable("tag is unresolvable") from None
        if isinstance(value, bool) or not isinstance(value, int) or \
                value < 0:
            raise _Unresolvable(f"invalid tag {value!r}")
        return value


#: ``eval``'s dispatch on the node type; a type not listed is UNKNOWN
_EVAL = {
    ast.Constant: _Interp._eval_constant, ast.Name: _Interp._eval_name,
    ast.Attribute: _Interp._eval_attribute, ast.Tuple: _Interp._eval_seq,
    ast.List: _Interp._eval_seq, ast.Set: _Interp._eval_seq,
    ast.Dict: _Interp._eval_dict, ast.BinOp: _Interp._eval_binop,
    ast.UnaryOp: _Interp._eval_unaryop, ast.BoolOp: _Interp._eval_boolop,
    ast.Compare: _Interp._eval_compare, ast.IfExp: _Interp._eval_ifexp,
    ast.Subscript: _Interp._eval_subscript, ast.Call: _Interp._eval_call,
    ast.Yield: _Interp._eval_yield, ast.YieldFrom: _Interp._eval_yield_from,
    ast.JoinedStr: _Interp._eval_joinedstr,
    ast.Starred: _Interp._eval_starred, ast.Slice: _Interp._eval_slice,
    ast.ListComp: _Interp._eval_comp, ast.SetComp: _Interp._eval_comp,
    ast.GeneratorExp: _Interp._eval_comp, ast.DictComp: _Interp._eval_comp,
}


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` of a Name/Attribute chain, else None; answered once
    per node."""
    try:
        return node._dotted
    except AttributeError:
        pass
    parts = []
    inner = node
    while isinstance(inner, ast.Attribute):
        parts.append(inner.attr)
        inner = inner.value
    dotted = None
    if isinstance(inner, ast.Name):
        parts.append(inner.id)
        dotted = ".".join(reversed(parts))
    node._dotted = dotted
    return dotted


# ---------------------------------------------------------------------------
# findings


@dataclass
class ProtocolFinding:
    """One statically derived protocol violation."""

    rule_id: str
    relpath: str
    line: int
    message: str
    program: str = ""
    program_relpath: str = ""
    program_line: int = 0
    nranks: int = 0
    trace: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# the replay simulator


class _Msg:
    __slots__ = ("payload", "site", "consumed", "eager", "src_local",
                 "dst_local")

    def __init__(self, payload, site, eager, src_local, dst_local):
        self.payload = payload
        self.site = site
        self.eager = eager
        self.consumed = False
        self.src_local = src_local
        self.dst_local = dst_local


class _RecvSlot:
    __slots__ = ("done", "payload", "src_local", "dst_local")

    def __init__(self, src_local, dst_local):
        self.done = False
        self.payload = AV(UNKNOWN, True)
        self.src_local = src_local
        self.dst_local = dst_local


class _GroupWait:
    __slots__ = ("done", "result")

    def __init__(self):
        self.done = False
        self.result = AV(None, False)


@dataclass(frozen=True)
class SReqV:
    """Abstract request handle resumed from isend/irecv."""

    is_send: bool
    part: Any            # _Msg or _RecvSlot
    op: SOp


class _Slot:
    """One posted op of a batch and its completion dependencies."""

    __slots__ = ("op", "parts", "result", "immediate")

    def __init__(self, op: SOp):
        self.op = op
        self.parts: list = []
        self.result: AV = AV(None, False)
        self.immediate = False

    def satisfied(self) -> bool:
        return self.immediate or all(
            part.eager or part.consumed if isinstance(part, _Msg)
            else part.done for part in self.parts)


class _Rank:
    __slots__ = ("gen", "slots", "batch", "done", "started")

    def __init__(self, gen):
        self.gen = gen
        self.slots: list[_Slot] = []
        self.batch = False
        self.done = False
        self.started = False


class _ReplayAbort(Exception):
    """Replay produced verdicts; stop this (program, size)."""


class Replay:
    """Lockstep abstract replay of one program at one size, mirroring
    the engine's matching semantics."""

    def __init__(self, nranks: int) -> None:
        self.n = nranks
        self.ranks: list[_Rank] = []
        self.chan: dict = {}
        self.prq: dict = {}
        self.colls: dict = {}
        self.cseq: dict = {}
        self.xseq: dict = {}
        self.xgroups: dict = {}
        self.next_comm_id = 1
        self.events: list[ProtocolFinding] = []
        self._event_keys: set = set()

    # -- events ---------------------------------------------------------------

    def _event(self, rule_id: str, site: tuple[str, int], message: str,
               trace: list[str] | None = None) -> None:
        key = (rule_id, site)
        if key in self._event_keys:
            return
        self._event_keys.add(key)
        self.events.append(ProtocolFinding(
            rule_id=rule_id, relpath=site[0], line=site[1],
            message=message, nranks=self.n, trace=list(trace or ())))

    # -- driving --------------------------------------------------------------

    def run(self, generators: list) -> None:
        self.ranks = [_Rank(gen) for gen in generators]
        progress = True
        while progress:
            progress = False
            for r, rank in enumerate(self.ranks):
                if self._advance(r):
                    progress = True
            if all(rank.done for rank in self.ranks):
                self._at_exit()
                return
        self._classify_stuck()

    def _advance(self, r: int) -> bool:
        rank = self.ranks[r]
        moved = False
        while not rank.done:
            if rank.started and not all(s.satisfied()
                                        for s in rank.slots):
                break
            if not rank.started:
                rank.started = True
                payload = None
            else:
                results = [self._slot_result(s) for s in rank.slots]
                payload = (AV(tuple(results), _taint(*results))
                           if rank.batch else
                           (results[0] if results else AV(None, False)))
            try:
                post = (rank.gen.send(payload) if payload is not None
                        or rank.started and rank.slots
                        else next(rank.gen))
            except StopIteration:
                rank.done = True
                rank.slots = []
                moved = True
                break
            moved = True
            rank.slots = []
            rank.batch = post.batch
            self._check_batch_collisions(r, post.ops)
            for op in post.ops:
                rank.slots.append(self._post(r, op))
        return moved

    def _slot_result(self, slot: _Slot) -> AV:
        # results are derived at resume time: completion mutates the
        # shared _RecvSlot/_GroupWait parts, not the (frozen) AVs
        op = slot.op
        if op.kind == "recv":
            return slot.parts[0].payload
        if op.kind == "sendrecv":
            return slot.parts[1].payload
        if op.kind == "wait":
            part = slot.parts[0]
            return (part.payload if isinstance(part, _RecvSlot)
                    else AV(None, False))
        if op.kind == "waitall":
            values = tuple(
                part.payload if isinstance(part, _RecvSlot)
                else AV(None, False) for part in slot.parts)
            return AV(values, True)
        for part in slot.parts:
            if isinstance(part, _GroupWait):
                return part.result
        return slot.result

    # -- posting --------------------------------------------------------------

    def _post(self, r: int, op: SOp) -> _Slot:
        slot = _Slot(op)
        kind = op.kind
        if kind in ("compute", "elapse"):
            slot.immediate = True
            return slot
        comm = op.comm
        my_local = comm.rank
        if kind in ("send", "isend"):
            msg = self._send(op, my_local, op.dest)
            if kind == "send":
                slot.parts.append(msg)
            else:
                slot.immediate = True
                slot.result = AV(SReqV(True, msg, op), True)
            return slot
        if kind in ("recv", "irecv"):
            rslot = self._recv(op, op.source, my_local)
            if kind == "recv":
                slot.parts.append(rslot)
                slot.result = AV(UNKNOWN, True)
            else:
                slot.immediate = True
                slot.result = AV(SReqV(False, rslot, op), True)
            return slot
        if kind == "sendrecv":
            msg = self._send(op, my_local, op.dest)
            rslot = self._recv(op, op.source, my_local)
            slot.parts.extend([msg, rslot])
            slot.result = AV(UNKNOWN, True)
            return slot
        if kind in ("wait", "waitall"):
            reqs = []
            for req in op.requests:
                value = req.value if isinstance(req, AV) else req
                if not isinstance(value, SReqV):
                    raise _Unresolvable("waiting on a non-request")
                reqs.append(value)
            for req in reqs:
                slot.parts.append(req.part)
            slot.result = AV(UNKNOWN, True)
            return slot
        if kind == "exchange":
            self._post_exchange(r, op, slot)
            return slot
        # collectives (incl. split)
        self._post_collective(r, op, slot)
        return slot

    def _send(self, op: SOp, src_local: int, dst_local: int) -> _Msg:
        comm = op.comm
        nbytes = _abstract_nbytes(op.payload)
        eager = nbytes is None or nbytes <= EAGER_LIMIT
        msg = _Msg(op.payload, op.site, eager, src_local, dst_local)
        key = (comm.comm_id, src_local, dst_local, op.tag)
        pending = self.prq.get(key)
        if pending:
            rslot = pending.popleft()
            self._match(msg, rslot)
        else:
            self.chan.setdefault(key, deque()).append(msg)
        return msg

    def _recv(self, op: SOp, src_local: int, dst_local: int) -> _RecvSlot:
        comm = op.comm
        rslot = _RecvSlot(src_local, dst_local)
        key = (comm.comm_id, src_local, dst_local, op.tag)
        queued = self.chan.get(key)
        if queued:
            msg = queued.popleft()
            self._match(msg, rslot)
        else:
            self.prq.setdefault(key, deque()).append(rslot)
        return rslot

    @staticmethod
    def _match(msg: _Msg, rslot: _RecvSlot) -> None:
        msg.consumed = True
        rslot.done = True
        payload = msg.payload
        if isinstance(payload, AV):
            rslot.payload = AV(payload.value, True)
        else:
            rslot.payload = AV(payload, True)

    # -- collectives ----------------------------------------------------------

    def _post_collective(self, r: int, op: SOp, slot: _Slot) -> None:
        comm = op.comm
        seq = self.cseq.get((r, comm.comm_id), 0)
        self.cseq[(r, comm.comm_id)] = seq + 1
        gw = _GroupWait()
        slot.parts.append(gw)
        key = (comm.comm_id, seq)
        group = self.colls.setdefault(key, {})
        group[comm.rank] = (op, gw, r)
        if len(group) == comm.size:
            self._complete_collective(key, group)
        slot.result = gw.result

    def _complete_collective(self, key, group) -> None:
        ops = [group[local][0] for local in sorted(group)]
        kinds = {op.kind for op in ops}
        if len(kinds) > 1:
            by_kind = {}
            for local in sorted(group):
                by_kind.setdefault(group[local][0].kind,
                                   []).append(local)
            parts = "; ".join(
                f"{kind} at {group[locals_[0]][0].site[0]}:"
                f"{group[locals_[0]][0].site[1]} (local ranks "
                f"{locals_})" for kind, locals_ in sorted(
                    by_kind.items()))
            self._event(
                "COMM502", ops[0].site,
                f"collective order diverges across ranks of one "
                f"communicator: sequence position {key[1]} mixes "
                f"{parts}",
                trace=[f"communicator id {key[0]}, "
                       f"sequence position {key[1]}"])
            raise _ReplayAbort()
        kind = ops[0].kind
        if kind in REDUCING_KINDS:
            reduce_ops = {op.reduce_op for op in ops}
            if len(reduce_ops) > 1:
                self._event(
                    "COMM505", ops[0].site,
                    f"{kind} reduce op diverges across ranks: "
                    f"{sorted(reduce_ops)}",
                    trace=[f"sequence position {key[1]}"])
                raise _ReplayAbort()
        if kind in ROOTED_KINDS:
            roots = {op.root for op in ops}
            if len(roots) > 1:
                self._event(
                    "COMM505", ops[0].site,
                    f"{kind} root is not consistent across ranks "
                    f"(derived roots {sorted(roots)}); rooted "
                    f"collectives need one rank-invariant root",
                    trace=[f"sequence position {key[1]}"])
                raise _ReplayAbort()
        if kind == "split":
            self._complete_split(group)
            return
        results = self._collective_results(kind, group)
        for local in group:
            _op, gw, _r = group[local]
            gw.done = True
            gw.result = results[local]

    def _collective_results(self, kind: str, group) -> dict[int, AV]:
        locals_ = sorted(group)
        payloads = {local: group[local][0].payload for local in locals_}
        op0 = group[locals_[0]][0]
        rootval = payloads.get(op0.root)
        if isinstance(rootval, AV):
            rootval = rootval.value
        if kind == "barrier":
            return {local: AV(None, False) for local in locals_}
        if kind == "allreduce":
            fn = {"sum": sum, "min": min, "max": max}.get(op0.reduce_op)
            try:
                values = [_deep(payload) for payload in payloads.values()]
            except _NotConcrete:
                fn = None
            if fn is None or not all(isinstance(v, (int, float)) and
                                     not isinstance(v, bool)
                                     for v in values):
                return {local: AV(UNKNOWN, False) for local in locals_}
            return {local: AV(fn(values), False) for local in locals_}
        gathered = tuple(_wrap(payload, True)
                         for payload in payloads.values())
        if kind == "allgather":
            return {local: AV(gathered, False) for local in locals_}
        if kind == "bcast":
            return {local: AV(rootval, False) for local in locals_}
        if kind in ("reduce", "gather"):
            at_root = AV(UNKNOWN if kind == "reduce" else gathered, True)
            return {local: at_root if local == op0.root else AV(None, True)
                    for local in locals_}
        if kind == "scatter" and isinstance(rootval, (tuple, list)) and \
                len(rootval) == len(locals_):
            return {local: _wrap(rootval[local], True) for local in locals_}
        # alltoall, or a scatter of unproven items
        return {local: AV(UNKNOWN, True) for local in locals_}

    def _complete_split(self, group) -> None:
        locals_ = sorted(group)
        colors: dict[int, tuple] = {}
        for local in locals_:
            op = group[local][0]
            try:
                color_key = _deep(op.color), _deep(op.key)
            except _NotConcrete:
                raise _Unresolvable("split color/key unresolvable") \
                    from None
            color, key = color_key
            if key is None:
                key = local
            colors[local] = (color, key)
        parent = group[locals_[0]][0].comm
        by_color: dict = {}
        for local in locals_:
            by_color.setdefault(colors[local][0], []).append(local)
        for color in sorted(by_color, key=repr):
            members_local = sorted(
                by_color[color],
                key=lambda lo: (colors[lo][1], lo))
            members_world = tuple(parent.members[lo]
                                  for lo in members_local)
            comm_id = self.next_comm_id
            self.next_comm_id += 1
            for newrank, lo in enumerate(members_local):
                op, gw, _r = group[lo]
                gw.done = True
                gw.result = AV(SymComm(comm_id, newrank,
                                       members_world), True)

    # -- exchange rounds ------------------------------------------------------

    def _post_exchange(self, r: int, op: SOp, slot: _Slot) -> None:
        comm = op.comm
        rnd = self.xseq.get((r, comm.comm_id, op.tag), 0)
        self.xseq[(r, comm.comm_id, op.tag)] = rnd + 1
        gw = _GroupWait()
        slot.parts.append(gw)
        key = (comm.comm_id, op.tag, rnd)
        group = self.xgroups.setdefault(key, {})
        group[comm.rank] = (op, gw)
        self._sweep_exchanges(key)
        slot.result = gw.result

    @staticmethod
    def _x_touched(op: SOp) -> set[int]:
        return {d for d, _ in op.sends} | set(op.recvs)

    def _sweep_exchanges(self, key) -> None:
        group = self.xgroups[key]
        for local in sorted(group):
            op, gw = group[local]
            if gw.done:
                continue
            ready = True
            for peer in sorted(self._x_touched(op)):
                if peer not in group:
                    ready = False
                    continue
                peer_op = group[peer][0]
                s_out = sum(1 for d, _ in op.sends if d == peer)
                r_in = sum(1 for s in peer_op.recvs if s == local)
                s_in = sum(1 for d, _ in peer_op.sends if d == local)
                r_out = sum(1 for s in op.recvs if s == peer)
                if s_out != r_in or s_in != r_out:
                    self._event(
                        "COMM506", op.site,
                        f"exchange transfer counts disagree between "
                        f"local ranks {local} and {peer} on tag "
                        f"{op.tag}: {local} sends {s_out} / expects "
                        f"{r_out}, {peer} sends {s_in} / expects "
                        f"{r_in}",
                        trace=[f"round {key[2]} on communicator "
                               f"{key[0]}",
                               f"counterpart at {peer_op.site[0]}:"
                               f"{peer_op.site[1]}"])
                    raise _ReplayAbort()
            if ready:
                gw.done = True
                gw.result = AV(tuple(AV(UNKNOWN, True)
                                     for _ in op.recvs), True)

    # -- COMM504: concurrent-channel collisions -------------------------------

    def _check_batch_collisions(self, r: int, ops: list[SOp]) -> None:
        seen: dict = {}
        for op in ops:
            keys = []
            comm = op.comm
            if op.kind in ("send", "isend"):
                keys.append(("s", comm.comm_id, comm.rank, op.dest,
                             op.tag))
            elif op.kind in ("recv", "irecv"):
                keys.append(("r", comm.comm_id, op.source, comm.rank,
                             op.tag))
            elif op.kind == "sendrecv":
                keys.append(("s", comm.comm_id, comm.rank, op.dest,
                             op.tag))
                keys.append(("r", comm.comm_id, op.source, comm.rank,
                             op.tag))
            elif op.kind == "exchange":
                keys.append(("x", comm.comm_id, op.tag))
            for key in keys:
                prev = seen.get(key)
                if prev is not None and prev is not op:
                    what = ("concurrent exchanges share"
                            if key[0] == "x" else
                            "two concurrent point-to-point transfers "
                            "share")
                    self._event(
                        "COMM504", op.site,
                        f"{what} one (communicator, "
                        f"{'tag' if key[0] == 'x' else 'channel, tag'}"
                        f") in a single batch; the tag no longer "
                        f"discriminates the messages (matching falls "
                        f"back to posting order)",
                        trace=[f"first use at {prev.site[0]}:"
                               f"{prev.site[1]}",
                               f"colliding key {key}"])
                else:
                    seen[key] = op

    # -- termination ----------------------------------------------------------

    def _at_exit(self) -> None:
        for key, queue in sorted(self.chan.items(),
                                 key=lambda kv: repr(kv[0])):
            for msg in queue:
                if not msg.consumed:
                    self._event(
                        "COMM506", msg.site,
                        f"send on tag {key[3]} (local {key[1]} -> "
                        f"{key[2]}) is never received: every rank "
                        f"terminated with the message still queued",
                        trace=[f"channel {key}"])

    def _classify_stuck(self) -> None:
        blocked = {r: rank for r, rank in enumerate(self.ranks)
                   if not rank.done}
        edges: dict[int, set[int]] = {}
        sites: dict[int, tuple[str, int]] = {}
        for r, rank in blocked.items():
            waits: set[int] = set()
            for slot in rank.slots:
                if slot.satisfied():
                    continue
                op = slot.op
                sites.setdefault(r, op.site)
                for part in slot.parts:
                    if isinstance(part, _Msg) and not part.eager and \
                            not part.consumed:
                        peer = op.comm.members[part.dst_local]
                        waits.add(peer)
                        self._p2p_stuck(r, op, part.dst_local,
                                        is_send=True)
                    elif isinstance(part, _RecvSlot) and not part.done:
                        peer = op.comm.members[part.src_local]
                        waits.add(peer)
                        self._p2p_stuck(r, op, part.src_local,
                                        is_send=False)
                    elif isinstance(part, _GroupWait) and \
                            not part.done:
                        waits |= self._group_waits(r, slot)
            edges[r] = waits
        if self.events:
            return
        # no terminated-peer or collective verdicts: a wait-for cycle
        # among blocked ranks is a genuine deadlock
        cycle = self._find_cycle(
            {r: {p for p in peers if p in blocked}
             for r, peers in edges.items()})
        if cycle:
            chain = []
            for r in cycle:
                rank = self.ranks[r]
                pending = [s.op.describe() for s in rank.slots
                           if not s.satisfied()]
                chain.append(f"rank {r} blocked at "
                             f"{'; '.join(pending)}")
            anchor = sites.get(cycle[0])
            self._event(
                "COMM503", anchor,
                f"send/recv wait-for cycle across ranks "
                f"{list(cycle)}: no rank can progress (deadlock)",
                trace=chain)

    def _p2p_stuck(self, r: int, op: SOp, peer_local: int, *,
                   is_send: bool) -> None:
        peer_world = op.comm.members[peer_local]
        if self.ranks[peer_world].done:
            what = "send" if is_send else "receive"
            other = "receive" if is_send else "send"
            self._event(
                "COMM506", op.site,
                f"{what} on tag {op.tag} can never complete: local "
                f"rank {peer_local} already terminated without the "
                f"matching {other} (orphan endpoint)",
                trace=[f"blocked world rank {r}",
                       f"peer world rank {peer_world} terminated"])

    def _group_waits(self, r: int, slot: _Slot) -> set[int]:
        op = slot.op
        comm = op.comm
        waits: set[int] = set()
        if op.kind == "exchange":
            rnd = self.xseq[(r, comm.comm_id, op.tag)] - 1
            group = self.xgroups.get((comm.comm_id, op.tag, rnd), {})
            for peer in sorted(self._x_touched(op)):
                if peer not in group:
                    world = comm.members[peer]
                    waits.add(world)
                    if self.ranks[world].done:
                        self._event(
                            "COMM506", op.site,
                            f"exchange on tag {op.tag} waits for "
                            f"local rank {peer}, which terminated "
                            f"without posting its round (orphan "
                            f"exchange endpoint)",
                            trace=[f"round {rnd}"])
            return waits
        # collective: find the group this rank is parked in
        seq = self.cseq[(r, comm.comm_id)] - 1
        group = self.colls.get((comm.comm_id, seq), {})
        missing = [lo for lo in range(comm.size) if lo not in group]
        done_missing = [lo for lo in missing
                        if self.ranks[comm.members[lo]].done]
        live_missing = [lo for lo in missing
                        if not self.ranks[comm.members[lo]].done]
        for lo in missing:
            waits.add(comm.members[lo])
        if done_missing:
            self._event(
                "COMM501", op.site,
                f"collective {op.kind!r} (sequence position {seq} on "
                f"this communicator) is posted by local ranks "
                f"{sorted(group)} but rank(s) "
                f"{sorted(done_missing)} terminated without posting "
                f"it: the collective sits under rank-divergent "
                f"control flow with non-covering branches",
                trace=[f"posted by local ranks {sorted(group)}",
                       f"never posted by local ranks "
                       f"{sorted(done_missing)} (terminated)"])
        elif live_missing:
            details = []
            for lo in live_missing[:4]:
                world = comm.members[lo]
                pending = [s.op.describe()
                           for s in self.ranks[world].slots
                           if not s.satisfied()]
                details.append(
                    f"local rank {lo} is blocked at "
                    f"{'; '.join(pending) if pending else '<start>'}")
            self._event(
                "COMM501", op.site,
                f"collective {op.kind!r} (sequence position {seq}) "
                f"is posted by local ranks {sorted(group)} while "
                f"rank(s) {sorted(live_missing)} took a different "
                f"communication path: rank-divergent control flow "
                f"splits the collective",
                trace=details)
        return waits

    @staticmethod
    def _find_cycle(edges: dict[int, set[int]]) -> list[int]:
        state: dict[int, int] = {}
        stack: list[int] = []

        def visit(node: int) -> list[int] | None:
            state[node] = 1
            stack.append(node)
            for succ in sorted(edges.get(node, ())):
                if state.get(succ) == 1:
                    return stack[stack.index(succ):]
                if state.get(succ, 0) == 0:
                    found = visit(succ)
                    if found:
                        return found
            stack.pop()
            state[node] = 2
            return None

        for start in sorted(edges):
            if state.get(start, 0) == 0:
                found = visit(start)
                if found:
                    return found
        return []


# ---------------------------------------------------------------------------
# top-level driver


def _replays(modules: Iterable[tuple[str, ast.Module]],
             sizes: tuple[int, ...]):
    """``(relpath, program, size, events, approx, gave_up)`` of every
    (program, size) replay of ``modules``."""
    index = ProjectIndex(modules)
    for relpath, tree in index.modules:
        for fn in rank_programs(tree):
            for size in sizes:
                yield (relpath, fn, size,
                       *_replay_program(index, relpath, fn, size))


def unresolved_replays(modules: Iterable[tuple[str, ast.Module]],
                       sizes: tuple[int, ...] = DEFAULT_SIZES,
                       ) -> list[tuple[str, str, int, str]]:
    """``(relpath, program, size, why)`` of each replay the interpreter
    gave up on.  Such programs stay quiet in :func:`analyze_modules`,
    so a construct the model stops understanding silently drops their
    protocol check -- this is the one place that drop is visible (the
    test suite pins it at zero for the live tree)."""
    return [(relpath, fn.name, size, gave_up)
            for relpath, fn, size, _events, _approx, gave_up
            in _replays(modules, sizes) if gave_up is not None]


def analyze_modules(modules: Iterable[tuple[str, ast.Module]],
                    sizes: tuple[int, ...] = DEFAULT_SIZES,
                    ) -> list[ProtocolFinding]:
    """Extract and verify every rank program of ``modules``.

    Returns deduplicated findings (one per rule/site), each stamped
    with the program and the smallest communicator size that exposed
    it -- the differential suite replays exactly that configuration
    through the real engine.
    """
    found: dict[tuple, ProtocolFinding] = {}
    for relpath, fn, size, events, approx, _ in _replays(modules, sizes):
        for event in events:
            if approx and event.rule_id in ("COMM503", "COMM506"):
                # exact-trace verdicts need an exact trace
                continue
            key = (event.rule_id, event.relpath, event.line)
            if key in found:
                continue
            event.program = fn.name
            event.program_relpath = relpath
            event.program_line = fn.lineno
            event.trace = [
                f"program {fn.name} ({relpath}:{fn.lineno})",
                f"nranks={size}",
                *event.trace,
            ]
            if approx:
                event.trace.append(
                    "replay approximated unknown loop "
                    "bounds/parameters")
            found[key] = event
    return sorted(found.values(),
                  key=lambda f: (f.relpath, f.line, f.rule_id))


def _replay_program(index: ProjectIndex, relpath: str,
                    fn: ast.FunctionDef, size: int,
                    ) -> tuple[list[ProtocolFinding], bool, str | None]:
    """One (program, size) replay as ``(events, approx, gave_up)``;
    unresolvable programs stay quiet and say why in ``gave_up``."""
    interps = [_Interp(index, relpath) for _ in range(size)]
    gens = [interp.run_program(
        fn, relpath, SymComm(0, r, tuple(range(size))))
        for r, interp in enumerate(interps)]
    replay = Replay(size)
    try:
        replay.run(gens)
    except _ReplayAbort:
        pass
    except (_Unresolvable, _NotConcrete, RecursionError) as exc:
        return [], True, f"{type(exc).__name__}: {exc}"
    approx = any(interp.approx for interp in interps)
    return replay.events, approx, None


# last, because rules.comm imports names defined above
from .rules.base import import_aliases, iter_direct_body  # noqa: E402
