"""Measurement primitives: scrubbed child processes, rusage, medians.

A *command* is what a user types -- ``jubench ARGS`` or one of the
scripts under ``drivers/`` -- and runs as a fresh child process whose
wall clock spans process start to exit and whose CPU time and peak
resident set come from ``os.wait4``.  Children run one at a time (the
box has two cores; the second absorbs the harness and the kernel).

Everything the harness and its children write goes under one scratch
directory inside the checkout, removed when the run ends.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent.parent
SRC = ROOT / "src"
DRIVERS = PERF_DIR / "drivers"
EXPECTED = PERF_DIR / "expected"

#: a child that runs longer than this is killed and counted as failed
COMMAND_TIMEOUT_S = 120.0

#: environment variables that select behaviour of the program under test
SCRUBBED_PREFIXES = ("REPRO_", "JUBENCH_", "PYTHON")

#: One compute thread per child.  numpy's OpenBLAS otherwise starts a
#: thread per core at import; on this 2-vCPU box that costs 0.13 s of
#: every start-up in one host state and spins on the second core in
#: another (cpu_s > wall_s), which moved wall_s and cpu_s by 10-15 % in
#: opposite directions between otherwise identical runs.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


def child_env(tmp: Path) -> dict[str, str]:
    """The environment every child sees: the caller's, minus anything
    that steers ``repro`` or the interpreter, plus a fixed hash seed
    (set iteration order is then the same run to run), one compute
    thread and a temp dir inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(SCRUBBED_PREFIXES)}
    env.update(THREAD_PINS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(tmp)
    return env


@dataclass(frozen=True)
class Command:
    """One thing a user types.  ``kind`` is ``"jubench"`` (``python -m
    repro ARGS``) or the stem of a script under ``drivers/``."""

    kind: str
    args: tuple[str, ...]
    expect_code: int = 0

    def argv(self) -> list[str]:
        if self.kind == "jubench":
            return [sys.executable, "-m", "repro", *self.args]
        return [sys.executable, str(DRIVERS / f"{self.kind}.py"), *self.args]


@dataclass
class Outcome:
    """What one child did."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int | None          # None = killed on timeout
    stdout: bytes
    stderr: bytes


@dataclass
class Box:
    """The scratch directory, environment and failure ledger of one
    harness run.  ``attempted`` counts commands; ``failures`` names each
    command that exited with an unexpected code or timed out and each
    repetition whose outputs the oracle rejected."""

    seed: int
    scratch: Path
    env: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    _serial: int = 0

    @classmethod
    def create(cls, seed: int) -> "Box":
        scratch = PERF_DIR / ".work" / f"run-{os.getpid()}"
        shutil.rmtree(scratch, ignore_errors=True)
        (scratch / "tmp").mkdir(parents=True)
        return cls(seed=seed, scratch=scratch,
                   env=child_env(scratch / "tmp"))

    def fresh_dir(self, stem: str) -> Path:
        """A new empty directory under the scratch root."""
        self._serial += 1
        path = self.scratch / f"{stem}-{self._serial}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def note(self, command: Command, outcome: Outcome) -> Outcome:
        """Enter one executed command into the ledger."""
        self.attempted += 1
        if outcome.code != command.expect_code:
            what = "timed out" if outcome.code is None \
                else f"exited {outcome.code}"
            self.failures.append(
                f"{command.kind} {' '.join(command.args)}: {what}, expected "
                f"{command.expect_code}: "
                f"{outcome.stderr.decode(errors='replace').strip()[-200:]}")
        return outcome

    def run(self, command: Command) -> Outcome:
        """Run one command as a fresh child and wait for it."""
        out_path = self.scratch / "child.out"
        err_path = self.scratch / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command.argv(), stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            timed_out = threading.Event()

            def kill() -> None:
                timed_out.set()
                proc.kill()

            killer = threading.Timer(COMMAND_TIMEOUT_S, kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        # wait4 reaped the child behind Popen's back; tell it so
        proc.returncode = os.waitstatus_to_exitcode(status)
        return self.note(command, Outcome(
            wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            code=None if timed_out.is_set() else proc.returncode,
            stdout=out_path.read_bytes(), stderr=err_path.read_bytes()))


@dataclass
class Stats:
    """Median, extremes and sample count of one metric."""

    samples: list[float]

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    @property
    def spread(self) -> float:
        """(max - min) / median: with fewer than ten samples no
        percentile has ten beyond it, so the range is what there is."""
        mid = self.median
        return (max(self.samples) - min(self.samples)) / mid if mid else 0.0

    def to_dict(self) -> dict:
        return {"median": self.median, "min": min(self.samples),
                "max": max(self.samples), "n": len(self.samples),
                "samples": self.samples}
