"""Driver of the ``service_loop`` workload: control-plane cost per task.

CLIENTS ``ServiceClient``s submit TASKS seeded envelopes to a
``BenchmarkService`` with ENDPOINTS single-worker ``LocalEndpoint``s
sharing one memory cache (the wiring of ``jubench serve``) and a
file-backed ``ResultStore``.  The suite behind the endpoints is a
constant-time stub, so ``vmpi`` and ``apps`` are bypassed and what is
left is envelope hashing, admission, fair-share dispatch, the engine's
cache lookup and the durable result append.

Closed loop: a client submits its next envelope only once its previous
one has resolved, and the service makes one scheduling round per pass
over the clients; ``drain()`` finishes the tail.  The canonical export
is written twice -- from the live store and from the reopened file --
and the harness compares both with the ``--direct`` export
(``execute_direct`` over the same envelopes, no service in between).

    service_loop.py --seed S --work DIR [--setup-only | --direct]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from repro.core.benchmark import BenchmarkResult
from repro.exec import ExecutionEngine, MemoryCache
from repro.exec.cache import result_key
from repro.service import (
    BenchmarkService,
    Capabilities,
    LocalEndpoint,
    ResultStore,
    ServiceClient,
    execute_direct,
)

TASKS = 4000
CLIENTS = 8
ENDPOINTS = 2
NAMES = ("Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta")
SCALES = (0.25, 0.5, 0.75, 1.0)


class StubSuite:
    """Constant-time stand-in: the FOM is a pure function of the request."""

    def run_key(self, name, nodes=None, *, variant=None, scale=1.0,
                real=False):
        return result_key(name, {"nodes": nodes or 4, "scale": scale,
                                 "real": real,
                                 "variant": variant.value if variant
                                 else None})

    def run(self, name, nodes=None, *, variant=None, scale=1.0, real=False):
        return BenchmarkResult(benchmark=name, nodes=nodes or 4,
                               fom_seconds=1.0 + len(name) * 0.25 + scale)


def seeded_specs(seed: int) -> list[list[dict]]:
    """Per client, the submissions it will make, in order."""
    rng = random.Random(seed)
    specs: list[list[dict]] = [[] for _ in range(CLIENTS)]
    for i in range(TASKS):
        specs[i % CLIENTS].append({"benchmark": rng.choice(NAMES),
                                   "nodes": rng.choice((1, 2, 4, 8)),
                                   "scale": rng.choice(SCALES)})
    return specs


def closed_loop(service: BenchmarkService, clients: list[ServiceClient],
                specs: list[list[dict]]) -> list:
    """Run the submissions to completion; futures in submission order."""
    cursors = [0] * len(clients)
    last = [None] * len(clients)
    futures = []
    remaining = sum(len(s) for s in specs)
    while remaining:
        for c, client in enumerate(clients):
            if cursors[c] == len(specs[c]):
                continue
            if last[c] is not None and not last[c].done():
                continue
            spec = dict(specs[c][cursors[c]])
            last[c] = client.submit(spec.pop("benchmark"), **spec)
            futures.append(last[c])
            cursors[c] += 1
            remaining -= 1
        service.step()
    service.drain()
    return futures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--direct", action="store_true")
    args = parser.parse_args(argv)

    args.work.mkdir(parents=True, exist_ok=True)
    suite = StubSuite()
    specs = seeded_specs(args.seed)
    if args.direct:
        packer = [ServiceClient(None, f"client{c}", suite=suite)
                  for c in range(CLIENTS)]
        envelopes = [packer[c].make_envelope(**spec)
                     for c in range(CLIENTS) for spec in specs[c]]
        doc = execute_direct(envelopes, suite=suite).canonical_export()
        (args.work / "direct.json").write_text(doc, encoding="utf-8")
        return 0

    results = args.work / "results.jsonl"
    results.unlink(missing_ok=True)
    service = BenchmarkService(store=ResultStore(results))
    cache = MemoryCache()
    for i in range(ENDPOINTS):
        service.register_endpoint(LocalEndpoint(
            f"ep{i}", suite=suite,
            engine=ExecutionEngine(workers=1, cache=cache),
            capabilities=Capabilities(workers=1)))
    clients = [ServiceClient(service, f"client{c}", suite=suite)
               for c in range(CLIENTS)]
    if args.setup_only:
        return 0

    futures = closed_loop(service, clients, specs)
    (args.work / "export.json").write_text(
        service.store.canonical_export(), encoding="utf-8")
    (args.work / "reopened.json").write_text(
        ResultStore.open(results).canonical_export(), encoding="utf-8")
    counts = service.store.counts()
    print(json.dumps({"tasks": len(futures), "counts": counts,
                      "rounds": service.dispatch_log[-1]["round"]},
                     sort_keys=True))
    return 0 if counts == {"ok": TASKS} else 1


if __name__ == "__main__":
    sys.exit(main())
