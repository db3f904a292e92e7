"""Span recorder the benchmark wraps around each layer's entry points.

Nothing under ``src/`` knows about this file: :meth:`Recorder.patch`
resolves an entry point by name (``"repro.vmpi.engine:VmpiEngine.run"``),
replaces it with a timing wrapper for the duration of one traced pass
and puts the original back afterwards.  An entry point that no longer
resolves -- later PRs may rename internals -- is counted and named in
:attr:`Recorder.unresolved`, never raised.

Spans are ``[id, parent, name, layer, start, end]`` records kept in
memory (the id is the index into :attr:`Recorder.spans`) and written
out once, by :meth:`Recorder.dump`.  A layer's *self time* is its
spans' duration minus the part of that interval their child spans
cover.  Calls too hot for a span each (the cluster cost model, called
from inside ``vmpi.run``) go through a flat ``[calls, seconds]``
accumulator instead.

Single-threaded by design: the workloads run serially with
``--workers 1``, so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

ID, PARENT, NAME, LAYER, START, END = range(6)


class Recorder:
    """In-memory spans, flat accumulators and the patches feeding them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.flat: dict[str, list] = {}
        self.unresolved: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, layer: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, layer, self.clock(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][END] = self.clock()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed while {popped} is open")

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[int]:
        sid = self.begin(name, layer)
        try:
            yield sid
        finally:
            self.end(sid)

    def wrap(self, fn: Callable, name: str, layer: str,
             observe: Callable[[tuple, Any], None] | None = None) -> Callable:
        """``fn`` inside a span; ``observe(args, result)`` runs after the
        span has closed, so harvesting counters is not timed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def wrap_flat(self, fn: Callable, key: str) -> Callable:
        """``fn`` timed into the flat accumulator ``key``."""
        acc = self.flat.setdefault(key, [0, 0.0])
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[1] += clock() - start
                acc[0] += 1

        return timed

    # -- patching ------------------------------------------------------------

    def patch(self, target: str, name: str, layer: str, *,
              flat: bool = False,
              observe: Callable[[tuple, Any], None] | None = None) -> bool:
        """Wrap the entry point ``"module:attr.path"`` in place.

        A module-level function is also replaced wherever a loaded
        module of the same package imported it by name.  Returns False
        (and records the target) when it does not resolve to a plain
        function.
        """
        module_name, _, path = target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.unresolved.append(target)
            return False
        if not inspect.isfunction(original):
            self.unresolved.append(target)
            return False
        wrapper = (self.wrap_flat(original, name) if flat
                   else self.wrap(original, name, layer, observe))
        sites = [(owner, attr)]
        if inspect.ismodule(owner):
            package = module_name.partition(".")[0]
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod is owner or \
                        mod_name.partition(".")[0] != package:
                    continue
                sites.extend((mod, key) for key, value in vars(mod).items()
                             if value is original)
        for site, key in sites:
            setattr(site, key, wrapper)
            self._patches.append((site, key, original))
        return True

    def unpatch(self) -> None:
        """Put every original back (reverse order)."""
        while self._patches:
            site, key, original = self._patches.pop()
            setattr(site, key, original)

    # -- analysis ------------------------------------------------------------

    def duration(self, span: list) -> float:
        return span[END] - span[START]

    def self_times(self) -> dict[int, float]:
        """Per span id: duration minus the part its children cover."""
        children: dict[int, list[list]] = {}
        for span in self.spans:
            if span[PARENT] is not None:
                children.setdefault(span[PARENT], []).append(span)
        out = {}
        for span in self.spans:
            covered = 0.0
            edge = span[START]
            for child in sorted(children.get(span[ID], ()),
                                key=lambda c: c[START]):
                lo = max(child[START], edge)
                hi = min(child[END], span[END])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[span[ID]] = self.duration(span) - covered
        return out

    def self_by_layer(self) -> dict[str, float]:
        selfs = self.self_times()
        out: dict[str, float] = {}
        for span in self.spans:
            out[span[LAYER]] = out.get(span[LAYER], 0.0) + selfs[span[ID]]
        return out

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[NAME] == name]

    def total(self, name: str) -> float:
        """Summed duration of the spans called ``name``."""
        return sum(self.duration(s) for s in self.named(name))

    def self_total(self, *names: str) -> float:
        """Summed self time of the spans called any of ``names``."""
        selfs = self.self_times()
        return sum(selfs[s[ID]] for s in self.spans if s[NAME] in names)

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        doc = {"fields": ["id", "parent", "name", "layer", "start", "end"],
               "spans": self.spans,
               "flat": {k: {"calls": v[0], "seconds": v[1]}
                        for k, v in sorted(self.flat.items())},
               "unresolved": self.unresolved}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
