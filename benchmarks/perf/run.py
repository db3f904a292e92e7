"""End-to-end + per-layer host-time benchmark of ``jubench``.

    python benchmarks/perf/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace 0|1] [--out BENCH_perf.json]
    python benchmarks/perf/run.py --compare A.json B.json

Without ``--workload`` all seven run, one after the other.  With
tracing off (the default) each workload's commands run as fresh child
processes for about ``--seconds`` seconds and the end-to-end metrics of
``BENCHMARK.json`` are printed by name with unit, median, min, max and
sample count.  ``--trace 1`` (or ``--traced``) prints the per-layer
metrics instead: a few untraced repetitions for reference, then one
in-process run under span recorders (see ``layers.py``).  The last line
of each workload's report is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--compare`` reads two records written with ``--out`` and judges every
workload x end-to-end metric by the bounds in ``BENCHMARK.json``.

See README.md for what each metric means and which layer should move it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

from harness import PERF_DIR, ROOT, SCRUBBED_PREFIXES, SRC, Box, Stats
from workloads import WORKLOADS, Workload

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: null-command repetitions behind ``setup_s``
SETUP_REPS = 3


def load_spec() -> dict:
    """``BENCHMARK.json``: the one list of metric names, units, bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if not METRIC_NAME.fullmatch(entry["name"]):
            raise ValueError(f"bad metric name {entry['name']!r}")
    return spec


# -- measuring ---------------------------------------------------------------

def accepted(workload: Workload, box: Box, outcomes: list,
             before: int) -> bool:
    """Whether one pass over the commands is correct: every exit code
    as expected (the ledger grew no longer than ``before``) and, then,
    the oracle satisfied."""
    if len(box.failures) == before:
        box.failures.extend(f"{workload.name}: {why}"
                            for why in workload.verify(box, outcomes))
    return len(box.failures) == before


def repetition(workload: Workload, box: Box) -> dict[str, float] | None:
    """One repetition in child processes; None when it failed."""
    before = len(box.failures)
    outcomes = [box.run(c) for c in workload.commands(box)]
    if not accepted(workload, box, outcomes, before):
        return None
    return {"wall_s": sum(o.wall_s for o in outcomes),
            "cpu_s": sum(o.cpu_s for o in outcomes),
            "peak_rss_mb": max(o.rss_mb for o in outcomes)}


def repeat(workload: Workload, box: Box, seconds: float,
           at_least: int) -> list[dict[str, float]]:
    """Repetitions until about ``seconds`` of wall are measured: stop
    once another one would overshoot by more than half its length."""
    reps: list[dict[str, float]] = []
    spent = 0.0
    attempts = 0
    while True:
        attempts += 1
        rep = repetition(workload, box)
        if rep is not None:
            reps.append(rep)
            spent += rep["wall_s"]
        if attempts >= at_least and \
                (not reps or spent + 0.5 * spent / len(reps) > seconds):
            return reps


def end_to_end(workload: Workload, box: Box,
               seconds: float) -> dict[str, Stats]:
    """The untraced pass: set-up, then repetitions, all in children."""
    workload.prepare(box)
    setups = [box.run(workload.null_command(box)) for _ in range(SETUP_REPS)]
    reps = repeat(workload, box, seconds, at_least=2)
    if not reps:
        return {}
    stats = {name: Stats([rep[name] for rep in reps]) for name in reps[0]}
    stats["setup_s"] = Stats([o.wall_s for o in setups])
    return stats


def per_layer(workload: Workload, box: Box, seconds: float,
              declared: list[str]):
    """The traced pass; returns (metrics, recorder).  A metric of a layer
    the workload never enters reads 0."""
    import layers

    workload.prepare(box)
    reps = repeat(workload, box, seconds / 2, at_least=1)
    if not reps:
        return {}, None
    wall = Stats([rep["wall_s"] for rep in reps])
    rec, counters = layers.Recorder(), layers.Counters()
    before = len(box.failures)
    commands, outcomes = layers.traced_run(workload, box, rec, counters)
    for command, outcome in zip(commands, outcomes):
        box.note(command, outcome)
    if not accepted(workload, box, outcomes, before):
        return {}, rec
    metrics = dict.fromkeys(declared, 0.0)
    metrics.update(layers.layer_metrics(rec, counters, wall.median))
    metrics.update(workload.extras(box, wall.median))
    metrics["bench.reps"] = len(reps)
    metrics["bench.wall_range_frac"] = wall.spread
    undeclared = sorted(set(metrics) - set(declared))
    if undeclared:
        raise RuntimeError(f"{workload.name}: metrics missing from "
                           f"BENCHMARK.json: {', '.join(undeclared)}")
    for target in rec.unresolved:
        print(f"  unresolved entry point: {target}")
    return metrics, rec


# -- reporting ---------------------------------------------------------------

def report(name: str, box: Box, mode: str, declared: list[dict],
           rows: dict[str, dict]) -> dict:
    """Print one workload's table and its result line."""
    print(f"== {name}  (seed {box.seed}, {mode})")
    print(f"  {'metric':<30} {'unit':<6} {'median':>14} {'min':>14} "
          f"{'max':>14} {'n':>3}")
    for entry in declared:
        row = rows.get(entry["name"])
        if row is None:
            continue
        print(f"  {entry['name']:<30} {entry['unit']:<6} "
              f"{row['median']:>14.6g} {row['min']:>14.6g} "
              f"{row['max']:>14.6g} {row['n']:>3}")
    for failure in box.failures:
        print(f"  FAILED: {failure}")
    result = {"correct": not box.failures, "attempted": box.attempted,
              "failed": len(box.failures),
              "metrics": {e["name"]: {"value": rows[e["name"]]["median"],
                                      "unit": e["unit"]}
                          for e in declared if e["name"] in rows}}
    print(json.dumps(result))
    return result


def provenance(args: argparse.Namespace) -> dict:
    """What every record carries so two of them can be compared."""
    sys.path.insert(0, str(SRC))
    from repro.history import stamp

    block = stamp({})["provenance"]
    block.update({"python": platform.python_version(),
                  "nproc": os.cpu_count(), "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "env_scrubbed": sorted(
                      k for k in os.environ
                      if k.startswith(SCRUBBED_PREFIXES))})
    return block


def run_one(args: argparse.Namespace) -> int:
    """One workload, in this process."""
    spec = load_spec()
    if not (SRC / "repro").is_dir():
        print(f"run.py: {SRC / 'repro'} is missing: nothing to measure",
              file=sys.stderr)
        return 2
    name = args.workload
    record: dict = {"benchmark": "benchmarks/perf", "workloads": {}}
    box = Box.create(args.seed)
    try:
        workload = WORKLOADS[name]()
        rec = None
        if args.trace:
            metrics, rec = per_layer(workload, box, args.seconds,
                                     [e["name"] for e in spec["per_layer"]])
            rows = {k: {"median": v, "min": v, "max": v, "n": 1}
                    for k, v in metrics.items()}
            result = report(name, box, "traced", spec["per_layer"], rows)
        else:
            stats = end_to_end(workload, box, args.seconds)
            rows = {k: s.to_dict() for k, s in stats.items()}
            result = report(name, box, "tracing off", spec["end_to_end"],
                            rows)
        record["workloads"][name] = dict(result, rows=rows,
                                         failures=box.failures)
    finally:
        box.close()
    if args.out:
        record["provenance"] = provenance(args)
        out = Path(args.out)
        out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        if rec is not None:
            rec.dump(out.with_suffix(".trace.json"))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a harness process of its own, so the
    traced pass of one never sees modules or caches another warmed."""
    parts = PERF_DIR / ".work" / f"parts-{os.getpid()}"
    parts.mkdir(parents=True, exist_ok=True)
    merged: dict = {"benchmark": "benchmarks/perf", "workloads": {}}
    traces: dict = {}
    status = 0
    try:
        for name in WORKLOADS:
            part = parts / f"{name}.json"
            argv = [sys.executable, __file__, "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            if args.out:
                argv += ["--out", str(part)]
            code = subprocess.call(argv)
            status = status or code
            if code == 0 and args.out:
                record = json.loads(part.read_text())
                merged["workloads"].update(record["workloads"])
                merged["provenance"] = record["provenance"]
                trace = part.with_suffix(".trace.json")
                if trace.exists():
                    traces[name] = json.loads(trace.read_text())
    finally:
        shutil.rmtree(parts, ignore_errors=True)
    if args.out:
        out = Path(args.out)
        out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
        if traces:
            out.with_suffix(".trace.json").write_text(
                json.dumps(traces) + "\n")
    return status


# -- comparing ---------------------------------------------------------------

def verdict(a: list[float], b: list[float], bound: float,
            lower_is_better: bool) -> tuple[float, str]:
    """Relative change of B's median against A's, and what it means."""
    sa, sb = Stats(a), Stats(b)
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (sb.median - sa.median) / sa.median
    apart = min(b) > max(a) or max(b) < min(a)
    wide = max(sa.spread, sb.spread) > bound
    if wide and not apart:
        return worse_by, "unresolved"
    return worse_by, "worse" if worse_by > bound else "ok"


def compare(path_a: str, path_b: str) -> int:
    """Judge B against A by the benchmark's own bounds; 1 on any worse."""
    spec = load_spec()
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    print(f"  {'workload':<14} {'metric':<12} {'A median':>12} "
          f"{'B median':>12} {'worse by':>9} {'bound':>6}  verdict")
    verdicts = []
    for name in a:
        if name not in b:
            continue
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            ra, rb = a[name]["rows"].get(metric), b[name]["rows"].get(metric)
            if ra is None or rb is None:
                verdicts.append("unresolved")
                print(f"  {name:<14} {metric:<12} missing on one side"
                      f"{'':>30}  unresolved")
                continue
            worse_by, word = verdict(ra["samples"], rb["samples"],
                                     entry["bound"],
                                     entry["better"] == "lower")
            verdicts.append(word)
            print(f"  {name:<14} {metric:<12} {ra['median']:>12.5g} "
                  f"{rb['median']:>12.5g} {worse_by:>+9.1%} "
                  f"{entry['bound']:>6.2f}  {word}")
    print(f"compare: {verdicts.count('ok')} ok, "
          f"{verdicts.count('worse')} worse, "
          f"{verdicts.count('unresolved')} unresolved")
    return 1 if "worse" in verdicts else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="run one workload (default: all seven)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed of history_db and service_loop")
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall to measure per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass, per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--out", default=None, metavar="BENCH_perf.json",
                        help="write the full record (and, traced, the "
                             "spans next to it as *.trace.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="judge record B against record A")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
