"""The dimensional model behind the UNIT3xx dataflow rules.

The paper's FOM methodology normalises every benchmark to a *time*
metric while mixing decimal prefixes (HPL's 1 EFLOP/s target, HDR200's
25 GB/s links) with binary ones (JUQCS' ``16 B * 2**n`` state-vector
law).  ``repro/units.py`` documents the convention; this module makes
it machine-checkable: a tiny dimension algebra over the three base
quantities the suite computes with -- seconds, bytes and FLOP -- plus
the plumbing that assigns dimensions to names:

* the ``repro.units`` constants (prefix family si/binary, byte sizes),
* conservative parameter-name heuristics (``*_seconds``, ``nbytes``,
  ``*_bandwidth``, ...),
* an opt-in annotation registry: modules declare
  ``DIMS = register_dims(__name__, {"p2p_time.return": "s", ...})``
  (see :func:`repro.units.register_dims`) and the analyzer reads the
  dict literal straight from the AST -- no import of analysed code.

Everything here is pure data + pure functions so the dataflow rule can
be cached per module (`repro.check.engine` keys on the registry hash).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

#: base quantities, in canonical order: seconds, bytes, FLOP
BASES = ("s", "B", "FLOP")


@dataclass(frozen=True)
class Dim:
    """A physical dimension as integer exponents over :data:`BASES`.

    ``Dim((−1, 1, 0))`` is bytes/second; the all-zero dimension is a
    dimensionless fraction/count.  The algebra is exactly what the
    dataflow pass needs: multiply/divide combine exponents, add/sub
    require equality.
    """

    exps: tuple[int, int, int]

    def __mul__(self, other: "Dim") -> "Dim":
        return Dim(tuple(a + b for a, b in zip(self.exps, other.exps)))

    def __truediv__(self, other: "Dim") -> "Dim":
        return Dim(tuple(a - b for a, b in zip(self.exps, other.exps)))

    def pow(self, n: int) -> "Dim":
        return Dim(tuple(a * n for a in self.exps))

    @property
    def is_dimensionless(self) -> bool:
        return all(e == 0 for e in self.exps)

    @property
    def is_rate(self) -> bool:
        """Anything *per second* (bandwidth, FLOP/s, 1/s)."""
        return self.exps[BASES.index("s")] < 0

    def __str__(self) -> str:
        num = [b if e == 1 else f"{b}^{e}"
               for b, e in zip(BASES, self.exps) if e > 0]
        den = [b if e == -1 else f"{b}^{-e}"
               for b, e in zip(BASES, self.exps) if e < 0]
        if not num and not den:
            return "1"
        head = "*".join(num) if num else "1"
        return head + ("/" + "/".join(den) if den else "")


ONE = Dim((0, 0, 0))
TIME = Dim((1, 0, 0))
BYTES = Dim((0, 1, 0))
FLOP = Dim((0, 0, 1))
BANDWIDTH = BYTES / TIME
FLOPS = FLOP / TIME
PER_SECOND = ONE / TIME

#: the dimension vocabulary of ``DIMS`` annotations and heuristics
_NAMED: dict[str, Dim] = {
    "1": ONE, "s": TIME, "B": BYTES, "FLOP": FLOP,
    "B/s": BANDWIDTH, "FLOP/s": FLOPS, "1/s": PER_SECOND,
}


def parse_dim(text: str) -> Dim:
    """Parse a dimension string (``'s'``, ``'B/s'``, ``'FLOP*s'``).

    Grammar: ``token(*token)*(/token)*`` over the base tokens plus
    ``1``; anything else raises ``ValueError`` (annotations must come
    from the shared vocabulary so typos fail loudly).
    """
    s = text.strip()
    if s in _NAMED:
        return _NAMED[s]
    num, slash, rest = s.partition("/")
    if slash and not rest.strip():
        raise ValueError(f"empty dimension token after '/' in {text!r}")
    dim = ONE
    for tok in filter(None, num.split("*")):
        if tok not in _NAMED or "/" in tok:
            raise ValueError(f"unknown dimension token {tok!r} in {text!r}")
        dim = dim * _NAMED[tok]
    for tok in filter(None, rest.split("/")):
        if tok not in _NAMED:
            raise ValueError(f"unknown dimension token {tok!r} in {text!r}")
        dim = dim / _NAMED[tok]
    return dim


# -- the repro.units constants ----------------------------------------------

#: decimal-prefix constants from repro.units (scale factors, SI family)
SI_PREFIXES = frozenset({"KILO", "MEGA", "GIGA", "TERA", "PETA", "EXA"})
#: binary-prefix constants from repro.units (scale factors, binary family)
BIN_PREFIXES = frozenset({"KIB", "MIB", "GIB", "TIB", "PIB"})
#: byte-size constants: genuine byte quantities, no prefix family
BYTE_CONSTANTS = frozenset({"BYTES_PER_COMPLEX128", "BYTES_PER_FLOAT64"})


def units_constant(name: str | None) -> tuple[Dim, frozenset] | None:
    """``(dim, prefix families)`` of a ``repro.units`` constant.

    Prefix constants are *scale factors*: their dimension is unknown
    (they adapt to the quantity they scale) but they stamp the
    expression with a prefix family for the UNIT303 mixing check --
    returned dim ``None``-like is expressed as dimensionless here and
    ignored by the caller; byte constants are real byte quantities.
    """
    if name is None:
        return None
    head, _, last = name.rpartition(".")
    if not head.endswith("units"):
        return None
    if last in SI_PREFIXES:
        return (ONE, frozenset({"si"}))
    if last in BIN_PREFIXES:
        return (ONE, frozenset({"bin"}))
    if last in BYTE_CONSTANTS:
        return (BYTES, frozenset())
    return None


# -- name heuristics ---------------------------------------------------------

#: exact variable/parameter/attribute names with an unambiguous dimension
EXACT_NAMES: dict[str, Dim] = {
    "nbytes": BYTES, "bytes_moved": BYTES, "nbytes_total": BYTES,
    "nbytes_per_rank": BYTES, "nbytes_per_pair": BYTES,
    "seconds": TIME, "elapsed": TIME, "latency": TIME, "walltime": TIME,
    "duration": TIME, "timeout": TIME,
    "bw": BANDWIDTH, "bandwidth": BANDWIDTH,
    "flops": FLOP,
    "efficiency": ONE, "fraction": ONE, "utilization": ONE,
    "nranks": ONE, "nnodes": ONE,     # counts: dimensionless by fiat
}

#: name suffixes with an unambiguous dimension (checked on ``_``-suffix
#: boundaries; the ISSUE-mandated ``*_s`` / ``*_bytes`` / ``*_gbps`` set)
SUFFIX_DIMS: tuple[tuple[str, Dim], ...] = (
    ("_seconds", TIME), ("_latency", TIME), ("_walltime", TIME),
    ("_duration", TIME), ("_s", TIME),
    ("_bytes", BYTES), ("_capacity", BYTES), ("_mem", BYTES),
    ("_bandwidth", BANDWIDTH), ("_bw", BANDWIDTH),
    ("_gbps", BANDWIDTH), ("_bps", BANDWIDTH),
    ("_flops", FLOPS),
)

#: function-name suffixes implying the *return* dimension
RETURN_SUFFIXES: tuple[tuple[str, Dim], ...] = (
    ("_seconds", TIME), ("_time", TIME), ("_latency", TIME),
    ("_bytes", BYTES), ("_bandwidth", BANDWIDTH),
)


def dim_of_name(name: str) -> Dim | None:
    """Heuristic dimension of a bare name, or None when ambiguous.

    Matching is case-insensitive so module constants follow the same
    conventions as locals (``MESSAGE_BYTES`` and ``message_bytes``).
    """
    name = name.lower()
    if name in EXACT_NAMES:
        return EXACT_NAMES[name]
    for suffix, dim in SUFFIX_DIMS:
        if name.endswith(suffix) and len(name) > len(suffix):
            return dim
    return None


def dim_of_return(func_name: str) -> Dim | None:
    """Heuristic return dimension of a function name, or None."""
    for suffix, dim in RETURN_SUFFIXES:
        if func_name.endswith(suffix) and len(func_name) > len(suffix):
            return dim
    return None


# -- the annotation registry -------------------------------------------------

#: annotations shipped for the ``repro.units`` helpers themselves, so
#: call sites seed dimensions even when units.py is outside the tree
#: under analysis (e.g. fixture runs)
BUILTIN_ANNOTATIONS: dict[str, str] = {
    "fmt_seconds.seconds": "s",
    "fmt_bytes.nbytes": "B",
    "parse_bytes.return": "B",
    "parse_bin.return": "B",
}


class DimRegistry:
    """Merged ``DIMS`` annotations plus function signatures.

    Keys are dotted annotation names -- ``"p2p_time.nbytes"``,
    ``"p2p_time.return"``, ``"DeviceSpec.peak_flops"`` or a bare
    attribute name.  Lookup resolves the most specific key first and
    falls back to the *tail* (last one/two components), but only when
    every registration of that tail agrees -- ambiguous tails resolve
    to nothing rather than to a guess.
    """

    def __init__(self) -> None:
        self._exact: dict[str, Dim] = {}
        self._by_tail: dict[str, Dim | None] = {}
        self._sources: dict[str, str] = {}
        self.signatures: dict[str, tuple[str, ...] | None] = {}
        self.add_annotations("<builtin>", BUILTIN_ANNOTATIONS)

    def add_annotations(self, module: str,
                        annotations: dict[str, str]) -> None:
        for key, text in sorted(annotations.items()):
            dim = parse_dim(text)
            self._exact[key] = dim
            self._sources[key] = module
            for tail in _tails(key):
                if tail in self._by_tail and self._by_tail[tail] != dim:
                    self._by_tail[tail] = None      # ambiguous: disabled
                else:
                    self._by_tail.setdefault(tail, dim)

    def add_signature(self, func_name: str,
                      params: tuple[str, ...]) -> None:
        """Record a function's positional parameter names (tail-keyed;
        conflicting signatures disable the entry)."""
        if func_name in self.signatures and \
                self.signatures[func_name] != params:
            self.signatures[func_name] = None
        else:
            self.signatures.setdefault(func_name, params)

    def lookup(self, *candidates: str) -> Dim | None:
        """First match over exact keys, then unambiguous tails."""
        for key in candidates:
            if key in self._exact:
                return self._exact[key]
        for key in candidates:
            hit = self._by_tail.get(key)
            if hit is not None:
                return hit
        return None

    def params_of(self, func_name: str) -> tuple[str, ...] | None:
        return self.signatures.get(func_name)

    def content(self) -> dict:
        """Canonical content for cache-key hashing."""
        return {"annotations": {k: str(v)
                                for k, v in sorted(self._exact.items())},
                "signatures": {k: list(v) if v else []
                               for k, v in sorted(self.signatures.items())}}


def _tails(key: str) -> Iterable[str]:
    parts = key.split(".")
    for start in range(1, len(parts)):
        yield ".".join(parts[start:])


# -- AST extraction ----------------------------------------------------------

def module_annotations(tree: ast.Module) -> dict[str, str]:
    """The ``DIMS = register_dims(__name__, {...})`` dict of a module.

    Accepts a plain dict literal too (``DIMS = {...}``); only constant
    string keys/values are taken, anything dynamic is ignored (the
    analyzer never imports analysed code).
    """
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not (isinstance(target, ast.Name) and target.id == "DIMS"):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and value.args:
            value = value.args[-1]
        if not isinstance(value, ast.Dict):
            continue
        out: dict[str, str] = {}
        for k, v in zip(value.keys, value.values):
            if isinstance(k, ast.Constant) and isinstance(k.value, str) \
                    and isinstance(v, ast.Constant) \
                    and isinstance(v.value, str):
                out[k.value] = v.value
        return out
    return {}


def module_signatures(tree: ast.Module) -> dict[str, tuple[str, ...]]:
    """Positional parameter names of every function/method, tail-keyed.

    ``self``/``cls`` are dropped so call-site argument positions line
    up with method calls.  Methods are keyed both bare and as
    ``Class.method``.
    """
    from .rules.base import nodes  # the rules package imports this module

    out: dict[str, tuple[str, ...]] = {}

    def params_of(fn: ast.AST) -> tuple[str, ...]:
        names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        if names and names[0] in ("self", "cls"):
            names = names[1:]
        return tuple(names)

    for node in nodes(tree, ast.ClassDef):
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[f"{node.name}.{stmt.name}"] = params_of(stmt)
    for node in nodes(tree, ast.FunctionDef):
        out.setdefault(node.name, params_of(node))
    return out


def build_registry(trees: Iterable[tuple[str, ast.Module]]) -> DimRegistry:
    """The project-wide registry over ``(module name, tree)`` pairs."""
    registry = DimRegistry()
    for name, tree in trees:
        annotations = module_annotations(tree)
        if annotations:
            registry.add_annotations(name, annotations)
        for func, params in module_signatures(tree).items():
            registry.add_signature(func, params)
    return registry
