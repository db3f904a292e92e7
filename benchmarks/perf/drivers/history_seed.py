"""Input generator of the ``history_db`` workload.

Builds a history database of RECORDS run records in SERIES series
through ``HistoryStore.append`` (the write path users go through) and
writes the facts the oracle checks the CLI's answers against.

    history_seed.py --seed S --db DB.jsonl --facts FACTS.json

Every series is stationary (+-0.4 % uniform noise, well inside the
detector's 2 % slack) except one, which steps up by 15 % at a seeded
onset: ``jubench regress`` must flag exactly that series from exactly
that point on.  Appends interleave the series in a seeded order, so
the store's canonical ordering has real sorting to do.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from pathlib import Path

from repro.history import HistoryStore, RunRecord

RECORDS = 2000
SERIES = 32
NODE_COUNTS = (1, 4, 16, 64)
SHIFT = 1.15


def seed_db(seed: int, db: Path) -> dict:
    """Append the seeded records to a fresh DB; returns the facts."""
    rng = random.Random(seed)
    names = [f"app{i:02d}" for i in range(SERIES // len(NODE_COUNTS))]
    shapes = [(name, nodes) for name in names for nodes in NODE_COUNTS]
    lengths = [RECORDS // SERIES + (1 if i < RECORDS % SERIES else 0)
               for i in range(SERIES)]
    bases = [rng.uniform(10.0, 500.0) for _ in shapes]
    injected = rng.randrange(SERIES)
    onset = rng.randrange(20, 50)

    store = HistoryStore.open(db)
    written = [0] * SERIES
    open_series = list(range(SERIES))
    fom_values = []
    injected_key = ""
    while open_series:
        i = rng.choice(open_series)
        name, nodes = shapes[i]
        k = written[i]
        value = bases[i] * (1.0 + rng.uniform(-0.004, 0.004))
        if i == injected and k >= onset:
            value *= SHIFT
        rec = store.append(RunRecord(
            benchmark=name, params={"study": "perf", "nodes": nodes},
            fom_seconds=value, vmpi_mode="event", machine="JUWELS Booster",
            machine_hash="perfbench", code=f"commit{k:04d}", seed=seed))
        if i == injected:
            injected_key = rec.series_key
        fom_values.append(value)
        written[i] = k + 1
        if written[i] == lengths[i]:
            open_series.remove(i)
    return {"records": RECORDS, "series": SERIES,
            "fom_sum": math.fsum(fom_values),
            "injected_series": injected_key, "onset": onset,
            "injected_length": lengths[injected]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--db", type=Path, required=True)
    parser.add_argument("--facts", type=Path, required=True)
    args = parser.parse_args(argv)
    facts = seed_db(args.seed, args.db)
    args.facts.write_text(json.dumps(facts, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
