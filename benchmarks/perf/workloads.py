"""The seven workloads: what runs, why, and how its output is checked.

Each workload is a fixed command sequence a user would type (or, for
the layers the CLI cannot drive in isolation, a script under
``drivers/`` that calls the same public API the CLI does), a *null
command* whose wall clock is the workload's ``setup_s``, and an oracle
that decides whether a repetition's outputs are correct.  Inputs are
fixed or generated from the harness seed; the program under test only
ever sees the generated inputs.

``extras`` are the per-layer lines that need a run of their own
(tracing on, a warm disk cache, one rule family at a time); they only
run in the traced pass.

Adding or resizing a workload is a benchmark-only change: it alters
nothing under ``src/``, claims no gain, and the baseline is measured
again afterwards (see README.md).
"""

from __future__ import annotations

import json
import math
import shutil
import time

from harness import EXPECTED, Box, Command, Outcome
from trace import Recorder

LIST = Command("jubench", ("list",))


def must(outcome: Outcome, what: str) -> Outcome:
    """Input building that fails leaves nothing to measure."""
    if outcome.code != 0:
        raise RuntimeError(f"{what} exited {outcome.code}: "
                           f"{outcome.stderr.decode(errors='replace')[-300:]}")
    return outcome


class Workload:
    """Base: one ``jubench`` command whose stdout is pinned byte for byte."""

    name = ""
    why = ""
    #: CLI arguments of the single command
    args: tuple[str, ...] = ()

    def null_command(self, box: Box) -> Command:
        """The workload's start-up without its work (``setup_s``)."""
        return LIST

    def prepare(self, box: Box) -> None:
        """Untimed, once per harness run: build the inputs."""

    def commands(self, box: Box) -> list[Command]:
        """The commands of one repetition (stages fresh scratch state)."""
        return [Command("jubench", self.args)]

    def verify(self, box: Box, outcomes: list[Outcome]) -> list[str]:
        """Oracle failures of one repetition (empty = correct)."""
        pinned = (EXPECTED / f"{self.name}.txt").read_bytes()
        if any(o.stdout != pinned for o in outcomes):
            return [f"stdout differs from expected/{self.name}.txt"]
        return []

    def extras(self, box: Box, wall_s: float) -> dict[str, float]:
        """Per-layer metrics that need a run of their own."""
        return {}

    def telemetry_cost(self, box: Box, wall_s: float) -> dict[str, float]:
        """One more run with ``--trace-out``: what observability costs."""
        trace = box.fresh_dir("trace") / "trace.jsonl"
        out = box.run(Command("jubench", (*self.args, "--trace-out",
                                          str(trace))))
        blob = trace.read_bytes() if trace.exists() else b""
        return {"telemetry.trace_overhead_frac": out.wall_s / wall_s - 1.0,
                "telemetry.trace_events": blob.count(b"\n"),
                "telemetry.trace_bytes": len(blob)}


class Fig2Strong(Workload):
    name = "fig2_strong"
    why = ("jubench fig2: 16 Base apps x 5 node counts, many distinct rank "
           "programs, so per-program constant costs in vmpi show")
    args = ("fig2",)
    extras = Workload.telemetry_cost


class Fig3Weak(Workload):
    name = "fig3_weak"
    why = ("jubench fig3 --nodes 16,128: few programs, up to 512 ranks, so "
           "anything that scales with rank count shows more than on fig2")
    args = ("fig3", "--nodes", "16,128")


class SuiteAll(Workload):
    name = "suite_all"
    why = ("jubench suite: 23 benchmarks at reference nodes; start-up is "
           "half the wall, so import and load_suite work shows here")
    args = ("suite",)

    def extras(self, box: Box, wall_s: float) -> dict[str, float]:
        cached = Command("jubench", (*self.args, "--cache-dir",
                                     str(box.fresh_dir("suite-cache"))))
        runs = [box.run(cached), box.run(cached)]
        box.failures.extend(self.verify(box, runs))
        return {**self.telemetry_cost(box, wall_s),
                "exec.disk_cache_warm_s": runs[1].wall_s}


class CheckCold(Workload):
    name = "check_cold"
    why = ("analyser over the frozen corpus with an empty cache: the check "
           "layer does all the work, vmpi none; cache write path")
    primed = False

    def null_command(self, box: Box) -> Command:
        return Command("check_corpus", ("--work", str(box.fresh_dir("chk")),
                                        "--setup-only"))

    def prepare(self, box: Box) -> None:
        self.work = box.fresh_dir("check")
        args = ("--work", str(self.work))
        if not self.primed:
            args += ("--setup-only",)      # extracts the corpus
        must(box.run(Command("check_corpus", args)), f"{self.name}: set-up")

    def commands(self, box: Box) -> list[Command]:
        if not self.primed:
            shutil.rmtree(self.work / "cache")
        return [Command("check_corpus", ("--work", str(self.work)))]

    def verify(self, box: Box, outcomes: list[Outcome]) -> list[str]:
        out = outcomes[0]
        pinned = (EXPECTED / "check_corpus.json").read_bytes()
        if out.stdout != pinned:
            return ["report differs from expected/check_corpus.json"]
        files = json.loads(pinned)["summary"]["files"]
        hits, misses = (files, 0) if self.primed else (0, files)
        tally = f"check cache: {hits} hit(s), {misses} miss(es)"
        if tally not in out.stderr.decode():
            return [f"expected {tally!r}, got "
                    f"{out.stderr.decode().strip()[-120:]!r}"]
        return []

    def extras(self, box: Box, wall_s: float) -> dict[str, float]:
        """One cold analyser run per rule family, in this process."""
        from repro import check as chk

        corpus = self.work / "corpus"
        baseline = chk.load_baseline(corpus / "check-baseline.json")
        families = {f: chk.expand_rule_prefixes([f])
                    for f in ("UNIT", "COMM", "REP")}
        selections = {f: {"only": ids} for f, ids in families.items()}
        selections["rest"] = {"disable": sum(families.values(), [])}
        out = {}
        for family, selection in selections.items():
            analyzer = chk.Analyzer(baseline=baseline, **selection)
            start = time.perf_counter()
            analyzer.run(corpus / "src" / "repro", rel_base=corpus, workers=1)
            out[f"check.select_{family}_s"] = time.perf_counter() - start
        return out


class CheckWarm(CheckCold):
    name = "check_warm"
    why = ("same analysis with the cache primed: cache read path; "
           "project-scope rules are never cached, so a summary cache "
           "shows here and not in check_cold")
    primed = True

    def extras(self, box: Box, wall_s: float) -> dict[str, float]:
        """The unpinned line: ``jubench check`` over today's tree."""
        live = box.run(Command("jubench", ("check",)))
        return {"check.live_tree_s": live.wall_s}


class HistoryDb(Workload):
    name = "history_db"
    why = ("export + regress on a seeded 2000-record/32-series history DB, "
           "then run --history (open + append) and --compact on a copy: "
           "reads beside writes on the durable-log layer")
    KEEP = 50

    def prepare(self, box: Box) -> None:
        self.home = box.fresh_dir("history")
        self.db = self.home / "db.jsonl"
        must(box.run(Command("history_seed", (
            "--seed", str(box.seed), "--db", str(self.db),
            "--facts", str(self.home / "facts.json")))),
            f"{self.name}: seeding")
        self.facts = json.loads((self.home / "facts.json").read_text())

    def commands(self, box: Box) -> list[Command]:
        self.rep = box.fresh_dir("hist")
        copy = self.rep / "copy.jsonl"
        shutil.copyfile(self.db, copy)
        return [
            Command("jubench", ("history", str(self.db),
                                "--export", str(self.rep / "export.json"))),
            Command("jubench", ("regress", str(self.db), "--json"),
                    expect_code=1),
            Command("jubench", ("run", "STREAM", "--history", str(copy))),
            Command("jubench", ("history", str(copy),
                                "--compact", str(self.KEEP))),
        ]

    def verify(self, box: Box, outcomes: list[Outcome]) -> list[str]:
        facts = self.facts
        failures = []
        records = json.loads(
            (self.rep / "export.json").read_text())["records"]
        order = [(r["series_key"], r["seq"]) for r in records]
        if len(records) != facts["records"]:
            failures.append(f"export holds {len(records)} records, "
                            f"generator wrote {facts['records']}")
        if len({key for key, _ in order}) != facts["series"]:
            failures.append("export series count differs from generator's")
        if order != sorted(order):
            failures.append("export is not sorted by (series_key, seq)")
        if math.fsum(r["fom_seconds"] for r in records) != facts["fom_sum"]:
            failures.append("export FOM sum differs from generator's")

        flagged = {key: [v["index"] for v in summary["verdicts"]
                         if v["status"] == "regression"]
                   for key, summary in json.loads(outcomes[1].stdout).items()}
        expected = {key: [] for key in flagged}
        expected[facts["injected_series"]] = list(
            range(facts["onset"], facts["injected_length"]))
        if flagged != expected:
            failures.append("regress did not flag exactly the injected "
                            "shift from its onset on")

        appended = facts["records"] + 1
        if f"history: {appended} record(s)" not in outcomes[2].stdout.decode():
            failures.append("run --history did not append exactly one record")
        # the STREAM run opened a series of its own, one record long
        kept = facts["series"] * self.KEEP + 1
        if f"compacted {appended} -> {kept} record(s)" \
                not in outcomes[3].stdout.decode():
            failures.append(f"compact did not leave {kept} records")
        return failures

    def extras(self, box: Box, wall_s: float) -> dict[str, float]:
        """Append cost per record: re-seed a DB here, append() timed."""
        import history_seed

        rec = Recorder()
        rec.patch("repro.history.store:HistoryStore.append", "append",
                  "history", flat=True)
        try:
            history_seed.seed_db(box.seed,
                                 box.fresh_dir("reseed") / "db.jsonl")
        finally:
            rec.unpatch()
        calls, seconds = rec.flat.get("append", (0, 0.0))
        return {"history.append_us_per_record":
                1e6 * seconds / calls if calls else 0.0,
                "history.records": self.facts["records"],
                "history.db_bytes": self.db.stat().st_size}


class ServiceLoop(Workload):
    name = "service_loop"
    why = ("8 clients, 4000 seeded envelopes, 2 endpoints over a constant-"
           "time stub suite, closed loop: control-plane cost per task with "
           "vmpi and apps bypassed")

    def null_command(self, box: Box) -> Command:
        return Command("service_loop", ("--seed", str(box.seed), "--work",
                                        str(box.fresh_dir("svc")),
                                        "--setup-only"))

    def prepare(self, box: Box) -> None:
        self.work = box.fresh_dir("service")
        must(box.run(Command("service_loop", (
            "--seed", str(box.seed), "--work", str(self.work), "--direct"))),
            f"{self.name}: direct run")
        self.direct = (self.work / "direct.json").read_bytes()

    def commands(self, box: Box) -> list[Command]:
        return [Command("service_loop", ("--seed", str(box.seed),
                                         "--work", str(self.work)))]

    def verify(self, box: Box, outcomes: list[Outcome]) -> list[str]:
        failures = []
        for name in ("export.json", "reopened.json"):
            if (self.work / name).read_bytes() != self.direct:
                failures.append(f"{name} differs from execute_direct's export")
        self.tally = json.loads(outcomes[0].stdout)
        if self.tally["counts"] != {"ok": self.tally["tasks"]}:
            failures.append(f"not every task ended ok: {self.tally['counts']}")
        return failures

    def extras(self, box: Box, wall_s: float) -> dict[str, float]:
        """Counts the driver printed, and untraced host time per task
        (start-up included)."""
        return {"service.us_per_task": 1e6 * wall_s / self.tally["tasks"],
                "service.tasks": self.tally["tasks"],
                "service.dispatch_rounds": self.tally["rounds"],
                "service.rejected": self.tally["counts"].get("rejected", 0)}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Fig2Strong, Fig3Weak, SuiteAll, CheckCold,
                              CheckWarm, HistoryDb, ServiceLoop)}
