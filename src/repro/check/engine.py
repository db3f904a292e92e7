"""The analyzer engine: walk a tree, run rules, classify findings.

The engine parses every ``*.py`` file under a root, runs each enabled
rule over the ASTs, then classifies the raw findings three ways:

* **suppressed** -- an inline ``# repro: allow(RULE-ID): why`` comment
  on the finding line (or the line above) opts one site out;
* **baselined** -- the committed ``check-baseline.json`` covers known,
  justified findings so legacy sites never fail CI;
* **active** -- everything else; any active finding fails the run.

``--strict`` additionally fails suppressions and baseline entries that
carry no justification text: an exemption without a reason is a bug.
"""

from __future__ import annotations

import functools
import gc
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..exec.cache import CODE_VERSION, ResultCache, stable_hash
from .dims import build_registry
from .findings import Baseline, BaselineEntry, Finding, Severity
from .rules import Collector, ModuleInfo, ProjectContext, Rule, default_rules

_ALLOW = re.compile(
    r"#\s*repro:\s*allow\(\s*([A-Za-z0-9_*,\s-]+?)\s*\)(?:\s*:\s*(\S.*))?")


@functools.lru_cache(maxsize=1)
def _ruleset_fingerprint() -> str:
    """Content hash of the check package's own sources.

    Enters every incremental cache key as the "rule-set version": any
    edit to a rule, the engine, or the dimension model invalidates all
    cached per-module results, so stale findings can never be replayed.
    """
    package = Path(__file__).resolve().parent
    sources = {p.relative_to(package).as_posix():
               p.read_text(encoding="utf-8")
               for p in sorted(package.rglob("*.py"))}
    return stable_hash({"version": CODE_VERSION, "sources": sources})


@dataclass
class CheckReport:
    """Classified outcome of one analyzer run."""

    active: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    unused_baseline: list[BaselineEntry] = field(default_factory=list)
    files_checked: int = 0
    rules_run: list[Rule] = field(default_factory=list)
    #: incremental-cache counters; deliberately NOT part of counts()
    #: or any reporter output, so cold and warm runs stay byte-identical
    cache_hits: int = 0
    cache_misses: int = 0

    def strict_violations(self) -> list[Finding]:
        """Suppressed/baselined findings carrying no justification."""
        out = []
        for f in self.suppressed + self.baselined:
            if not f.justification.strip():
                out.append(Finding(
                    rule="SUP001", severity=Severity.ERROR, path=f.path,
                    line=f.line, snippet=f.snippet,
                    message=f"suppression of {f.rule} has no "
                            f"justification text (--strict)"))
        return sorted(out, key=Finding.sort_key)

    def failed(self, strict: bool = False) -> bool:
        if self.active:
            return True
        return strict and bool(self.strict_violations())

    def counts(self) -> dict[str, int]:
        return {"active": len(self.active),
                "suppressed": len(self.suppressed),
                "baselined": len(self.baselined),
                "unused_baseline": len(self.unused_baseline),
                "files": self.files_checked}


class _ParseErrorRule(Rule):
    """Synthetic rule id for files the parser rejects."""

    id = "ENG001"
    name = "parse-error"
    severity = Severity.ERROR
    description = "A source file under analysis failed to parse."


def _decode(value: Any) -> list[Finding] | None:
    """The findings of a cached value; None -- a miss -- for an absent
    entry (``None``) and for one that is torn or of the wrong shape."""
    try:
        return [Finding.from_dict(d) for d in value]
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


class Analyzer:
    """Run a set of rules over a source tree.

    ``only``/``disable`` filter by rule id (the per-rule
    enable/disable switch); ``baseline`` holds the committed known
    findings.
    """

    def __init__(self, rules: Iterable[Rule] | None = None, *,
                 baseline: Baseline | None = None,
                 only: Iterable[str] = (),
                 disable: Iterable[str] = ()) -> None:
        self.rules = list(rules) if rules is not None else default_rules()
        only_set = set(only)
        disable_set = set(disable)
        known: set[str] = set()
        for r in self.rules:
            known.update(r.all_ids())
        unknown = (only_set | disable_set) - known
        if unknown:
            raise ValueError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(known))}")
        kept: list[Rule] = []
        for rule in self.rules:
            enabled = set(rule.all_ids())
            if only_set:
                enabled &= only_set
            enabled -= disable_set
            if not enabled:
                continue
            rule.enabled_ids = frozenset(enabled)
            kept.append(rule)
        self.rules = kept
        self._enabled_ids = frozenset().union(
            *(r.enabled_ids for r in kept)) if kept else frozenset()
        self.baseline = baseline or Baseline()

    # -- running -------------------------------------------------------------

    def run(self, root: str | Path,
            rel_base: str | Path | None = None, *,
            workers: int = 1,
            cache: ResultCache | None = None) -> CheckReport:
        """Analyze every ``*.py`` under ``root``.

        ``rel_base`` anchors reported paths (default: ``root``'s
        parent, so findings read ``repro/...``); pass the repository
        root to get ``src/repro/...`` paths that match the baseline.

        ``cache`` makes the run incremental: every result is keyed on
        the bytes it read and nothing is parsed until one misses.  The
        *project entry* -- parse errors, project-scope rules' findings,
        the registry hash and rule fingerprints that module keys need --
        is keyed on every file's digest, the enabled ids, the rule-set
        version and the side inputs rules declare; a module's
        local-rule findings on its own digest plus what that entry
        carries (DESIGN.md §8).  ``workers`` > 1 computes the modules
        that missed from a thread pool.  Classification runs live on
        the raw findings and is order-insensitive, so cold, warm and
        parallel runs produce identical reports.
        """
        gc_enabled, gc_frozen = gc.isenabled(), gc.get_freeze_count()
        try:
            return self._run(Path(root).resolve(), rel_base, workers, cache)
        finally:
            # the caller's GC state, on every exit: a permanent
            # generation it had already filled is its own, left alone
            if not gc_frozen:
                gc.unfreeze()
            if gc_enabled:
                gc.enable()
            else:
                gc.disable()

    def _run(self, root: Path, rel_base: str | Path | None,
             workers: int, cache: ResultCache | None) -> CheckReport:
        base = Path(rel_base).resolve() if rel_base else root.parent
        out = Collector()
        modules: list[ModuleInfo] = []
        for path in sorted(p for p in root.rglob("*.py") if p.is_file()):
            try:
                relpath = path.relative_to(base).as_posix()
            except ValueError:
                relpath = path.as_posix()
            out._sources[relpath] = path
            modules.append(ModuleInfo(relpath, path.read_bytes()))
        inputs = {name: (base / name).read_text(encoding="utf-8")
                  if (base / name).is_file() else None
                  for rule in self.rules for name in rule.inputs}
        local = [r for r in self.rules if r.scope == "local"]

        @functools.cache
        def prepare() -> tuple[list[ModuleInfo], Collector, str]:
            """Parse every file, build the registry, prepare the rules:
            what the first result that misses the cache pays, once."""
            parsed, col = [], Collector(_sources=out._sources)
            # Building an AST makes no reference cycle, so the cyclic GC
            # would only re-traverse the forest as it grows; frozen, it
            # is left out of every later collection of this run too.
            enabled = gc.isenabled()
            gc.disable()
            for module in modules:
                try:
                    module.tree
                except SyntaxError as exc:
                    col.add(_ParseErrorRule(), module.relpath,
                            exc.lineno or 1, f"syntax error: {exc.msg}")
                else:
                    parsed.append(module)
            if not gc.get_freeze_count():   # else the caller's own
                gc.freeze()
            if enabled:
                gc.enable()
            ctx = ProjectContext(
                modules=parsed, inputs=inputs, registry=build_registry(
                    (m.relpath, m.tree) for m in parsed))
            for rule in self.rules:
                rule.prepare(ctx)
            return parsed, col, stable_hash(ctx.registry.content())

        whole_tree = project_key = None
        if cache is not None:
            project_key = "check-project-" + stable_hash({
                "ruleset": _ruleset_fingerprint(),
                "rules": sorted(self._enabled_ids),
                "files": [(m.relpath, m.digest) for m in modules],
                "inputs": inputs})
            entry = cache.get(project_key)[1]
            try:
                registry_hash = entry["registry"]
                fingerprints = dict(entry["fingerprints"])
                whole_tree = _decode(entry["findings"])
            except (KeyError, TypeError, ValueError):
                pass    # absent, torn or of another shape: a miss
        if whole_tree is None:
            parsed, col, registry_hash = prepare()
            for module in parsed:
                for rule in self.rules:
                    if rule.scope != "local" and \
                            rule.applies_to(module.relpath):
                        rule.check_module(module, col)
            for rule in self.rules:
                rule.finalize(col)
            whole_tree = col.findings
            # rules with cross-module state (interprocedural summaries)
            # contribute a fingerprint so editing a helper in one module
            # invalidates cached verdicts that depended on it
            fingerprints = {r.id: fp for r in local
                            if (fp := r.cache_fingerprint())}
            if cache is not None:
                cache.put(project_key, {
                    "registry": registry_hash,
                    "fingerprints": fingerprints,
                    "findings": [f.to_dict() for f in whole_tree]})
        out.findings.extend(whole_tree)
        unparsed = {f.path for f in whole_tree
                    if f.rule == _ParseErrorRule.id}

        # look every module up first: the misses are then computed
        # (by the pool, if any) after one prepare() on this thread
        hits = 0
        missed: list[tuple[ModuleInfo, list[Rule], str | None]] = []
        for module in modules:
            rules = [r for r in local if r.applies_to(module.relpath)]
            if not rules or module.relpath in unparsed:
                continue
            key = found = None
            if cache is not None:
                key = "check-" + stable_hash({
                    "relpath": module.relpath,
                    "source": module.digest,
                    "ruleset": _ruleset_fingerprint(),
                    "registry": registry_hash,
                    "rules": sorted(i for r in rules
                                    for i in (r.enabled_ids or
                                              r.all_ids())),
                    "fingerprints": {r.id: fingerprints[r.id]
                                     for r in rules
                                     if r.id in fingerprints},
                })
                found = _decode(cache.get(key)[1])
            if found is None:
                missed.append((module, rules, key))
            else:
                hits += 1
                out.findings.extend(found)

        def analyze(job) -> list[Finding]:
            module, rules, key = job
            col = Collector(_sources=out._sources)
            for rule in rules:
                rule.check_module(module, col)
            if key is not None:
                cache.put(key, [f.to_dict() for f in col.findings])
            return col.findings

        if missed:
            prepare()
        if workers > 1 and len(missed) > 1:
            # imported here: a serial or warm run never pays for it
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=workers) as pool:
                computed = list(pool.map(analyze, missed))
        else:
            computed = [analyze(job) for job in missed]
        for findings in computed:
            out.findings.extend(findings)
        report = self._classify(out, files_checked=len(modules))
        report.rules_run = list(self.rules)
        if cache is not None:
            report.cache_hits, report.cache_misses = hits, len(missed)
        return report

    # -- classification ------------------------------------------------------

    def classify(self, findings: Iterable[Finding],
                 sources: dict[str, list[str]]) -> CheckReport:
        """Classify externally produced findings (tests, runtime checks)."""
        out = Collector(findings=list(findings), _sources=dict(sources))
        return self._classify(out, files_checked=0)

    def _classify(self, out: Collector, *,
                  files_checked: int) -> CheckReport:
        report = CheckReport(files_checked=files_checked)
        for finding in sorted(out.findings, key=Finding.sort_key):
            suppression = self._suppression_for(finding, out)
            if suppression is not None:
                finding.justification = suppression
                report.suppressed.append(finding)
                continue
            entry = self.baseline.match(finding)
            if entry is not None:
                finding.justification = entry.justification
                report.baselined.append(finding)
                continue
            report.active.append(finding)
        # entries of rules that did not run cannot have matched; only
        # entries the enabled rule set could have covered count as stale
        report.unused_baseline = [
            e for e in self.baseline.unused()
            if e.rule in self._enabled_ids]
        return report

    @staticmethod
    def _suppression_for(finding: Finding,
                         out: Collector) -> str | None:
        """The inline-allow justification covering a finding, if any.

        Looks at the finding line itself, then at an immediately
        preceding pure-comment line.  Returns the justification text
        (possibly empty) when a matching allow comment exists.
        """
        lines = out.lines(finding.path)
        if not lines:
            return None
        candidates = []
        if 0 < finding.line <= len(lines):
            candidates.append(lines[finding.line - 1])
        prev = finding.line - 2
        if 0 <= prev < len(lines) and lines[prev].lstrip().startswith("#"):
            candidates.append(lines[prev])
        for text in candidates:
            match = _ALLOW.search(text)
            if match is None:
                continue
            ids = {part.strip() for part in match.group(1).split(",")}
            if finding.rule in ids or "*" in ids:
                return match.group(2) or ""
        return None


def runtime_contract_findings() -> list[Finding]:
    """Dynamic contract verification against the *live* registry.

    Complements the AST rules: catches FOMs assigned in ``__init__``,
    variants built dynamically, and anything else static analysis
    cannot see.  Clean at HEAD; any regression shows up as a CON101 /
    CON102 finding anchored at the registry module.
    """
    from ..core.benchmark import Category
    from ..core.fom import FigureOfMerit
    from ..core.registry import BENCHMARKS
    from ..core.suite import load_suite

    registry_path = "src/repro/core/registry.py"
    findings: list[Finding] = []
    for info in BENCHMARKS:
        if Category.HIGH_SCALING not in info.categories:
            continue
        fractions = [v.fraction for v in info.variants]
        if not fractions:
            findings.append(Finding(
                rule="CON102", severity=Severity.ERROR,
                path=registry_path, line=1,
                snippet=f"<runtime: {info.name}>",
                message=f"{info.name}: High-Scaling benchmark has no "
                        f"memory variants at runtime"))
        elif any(b <= a for a, b in zip(fractions, fractions[1:])):
            findings.append(Finding(
                rule="CON102", severity=Severity.ERROR,
                path=registry_path, line=1,
                snippet=f"<runtime: {info.name}>",
                message=f"{info.name}: memory-variant fractions "
                        f"{fractions} are not strictly increasing"))
    suite = load_suite()
    for name in suite.names():
        bench = suite.get(name)
        fom = getattr(bench, "fom", None)
        if not isinstance(fom, FigureOfMerit):
            findings.append(Finding(
                rule="CON101", severity=Severity.ERROR,
                path=registry_path, line=1,
                snippet=f"<runtime: {name}>",
                message=f"{name}: registered implementation "
                        f"{type(bench).__name__} has no FigureOfMerit"))
    return findings
