"""Render FOM trajectories and regression verdicts as text.

Backs ``jubench history`` (trajectory listing), ``jubench regress``
(verdict tables) and the trajectory section ``jubench report`` appends
when a history database is supplied.  Pure functions of the store and
detector -- no wall clocks -- so rendered reports are reproducible.
"""

from __future__ import annotations

from .detect import RegressionDetector
from .record import RunRecord
from .store import HistoryStore

#: marker glyphs per verdict status
_MARKS = {"baseline": "·", "ok": " ", "improvement": "+", "regression": "!"}


def _fmt_value(value: float | None) -> str:
    return f"{value:.6g}s" if value is not None else "-"


def _series_values(records: list[RunRecord]) -> list[float]:
    return [r.value for r in records if r.value is not None]


def _series_header(records: list[RunRecord]) -> str:
    head = records[-1]
    bits = [head.benchmark]
    if head.params:
        bits.append(",".join(f"{k}={head.params[k]}"
                             for k in sorted(head.params)))
    if head.vmpi_mode:
        bits.append(f"vmpi={head.vmpi_mode}")
    if head.machine:
        bits.append(head.machine)
    return "  ".join(bits)


def render_trajectory(store: HistoryStore, *, last: int = 10,
                      benchmark: str | None = None,
                      detector: RegressionDetector | None = None) -> str:
    """The last-N-runs view of every (matching) series.

    Each line shows the point's series position, code fingerprint,
    FOM, relative change vs the previous point, and the detector's
    flag (``!`` regression, ``+`` improvement).
    """
    det = detector or RegressionDetector()
    groups = store.select(benchmark)
    if not groups:
        scope = f" for benchmark {benchmark!r}" if benchmark else ""
        return f"history: no recorded runs{scope}\n"
    lines: list[str] = ["FOM trajectories (lower is better)", ""]
    for key in sorted(groups):
        records = groups[key]
        values = _series_values(records)
        verdicts = {v.index: v for v in det.classify(values)}
        lines.append(f"{_series_header(records)}  [{key}]")
        shown = records[-last:]
        # verdict indices refer to positions among valued records only
        vi = sum(1 for r in records[:-last] if r.value is not None) \
            if len(records) > last else 0
        for rec in shown:
            if rec.value is None:
                lines.append(f"    seq {rec.seq:>3}  {rec.code[:12]:<12}  "
                             f"{'-':>12}  (no figure of merit)")
                continue
            verdict = verdicts.get(vi)
            vi += 1
            mark = _MARKS.get(verdict.status, " ") if verdict else " "
            rel = ""
            if verdict and verdict.baseline:
                rel = f"  {((rec.value - verdict.baseline) / verdict.baseline):+.2%} vs baseline"
            lines.append(f"  {mark} seq {rec.seq:>3}  {rec.code[:12]:<12}  "
                         f"{_fmt_value(rec.value):>12}  "
                         f"{verdict.status if verdict else ''}{rel}")
        lines.append("")
    flagged = _count_flags(store, det, benchmark)
    lines.append(f"series: {len(groups)}   flagged regressions: {flagged}")
    return "\n".join(lines) + "\n"


def _count_flags(store: HistoryStore, det: RegressionDetector,
                 benchmark: str | None) -> int:
    total = 0
    for records in store.select(benchmark).values():
        total += sum(1 for v in det.classify(_series_values(records))
                     if v.status == "regression")
    return total


def render_regressions(store: HistoryStore, *,
                       benchmark: str | None = None,
                       detector: RegressionDetector | None = None,
                       explain: bool = False) -> tuple[str, int]:
    """The ``jubench regress`` body: per-series verdicts plus located
    change points.  Returns ``(text, flagged_regression_count)`` so
    the CLI can derive its exit status."""
    det = detector or RegressionDetector()
    groups = store.select(benchmark)
    if not groups:
        scope = f" for benchmark {benchmark!r}" if benchmark else ""
        return f"regress: no recorded runs{scope}\n", 0
    lines: list[str] = []
    flagged = 0
    for key in sorted(groups):
        records = groups[key]
        values = _series_values(records)
        verdicts = det.classify(values)
        shifts = det.change_points(values)
        regressions = [v for v in verdicts if v.status == "regression"]
        improvements = [v for v in verdicts if v.status == "improvement"]
        flagged += len(regressions)
        lines.append(f"{_series_header(records)}  [{key}]")
        lines.append(f"  points={len(values)} regressions="
                     f"{len(regressions)} improvements="
                     f"{len(improvements)} change-points={len(shifts)}")
        for v in regressions + improvements:
            lines.append(f"    {_MARKS[v.status]} point {v.index}: "
                         f"{_fmt_value(v.value)} vs baseline "
                         f"{_fmt_value(v.baseline)} "
                         f"(delta {v.delta:+.3g}s, margin {v.threshold:.3g}s)")
            if explain:
                lines.append(f"        {v.trace}")
        for cp in shifts:
            lines.append(f"    ~ level shift at point {cp.index} "
                         f"({cp.direction}): {_fmt_value(cp.before)} -> "
                         f"{_fmt_value(cp.after)} ({cp.relative:+.2%}, "
                         f"CUSUM {cp.statistic:.2f} sigma)")
        if explain:
            for v in verdicts:
                if v.status in ("ok", "baseline"):
                    lines.append(f"        point {v.index}: {v.trace}")
        lines.append("")
    verdict_word = "REGRESSION" if flagged else "ok"
    lines.append(f"verdict: {verdict_word} "
                 f"({flagged} flagged point{'s' if flagged != 1 else ''} "
                 f"across {len(groups)} series)")
    return "\n".join(lines) + "\n", flagged
