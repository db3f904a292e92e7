"""Deterministic statistical regression / change-point detection.

Operates on one FOM trajectory (seconds; lower is better) and answers
two questions:

* point-wise: is the newest point consistent with the recent history?
  :meth:`RegressionDetector.classify` walks the series in order,
  maintaining a *stationary-window* baseline -- the median of the last
  ``window`` points previously classified ``ok`` (flagged points are
  excluded so a spike cannot poison its own baseline, and a sustained
  shift keeps flagging until acknowledged) -- with a robust sigma from
  the median absolute deviation, floored at ``noise_floor`` of the
  baseline so near-constant simulated series don't alert on float
  dust.  A point is a ``regression`` when it exceeds baseline by more
  than ``max(sigma * s, slack * baseline)``, an ``improvement`` when
  it undercuts symmetrically.
* series-wise: where did the level shift?  :meth:`
  RegressionDetector.change_points` runs a standardised two-sided
  CUSUM (drift ``k`` sigmas, decision threshold ``h`` sigmas,
  restart-after-detection) against the pre-shift baseline, reporting
  each shift's onset index, direction, and before/after levels.

Everything is pure float arithmetic on the input values -- no clocks,
no RNG -- so verdicts are bit-reproducible across reruns, which the
property tests assert by comparing serialised verdict lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

#: classification labels, in severity order
STATUSES = ("baseline", "ok", "improvement", "regression")


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of empty window")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


@dataclass(frozen=True)
class Verdict:
    """The detector's decision about one trajectory point."""

    #: position in the classified series (0-based)
    index: int
    value: float
    #: one of :data:`STATUSES`
    status: str
    #: stationary-window baseline the point was compared against
    #: (``None`` during burn-in)
    baseline: float | None = None
    #: robust sigma of the baseline window
    sigma: float | None = None
    #: signed deviation from baseline, seconds (positive = slower)
    delta: float | None = None
    #: the decision margin ``max(sigma_threshold, slack_threshold)``
    threshold: float | None = None
    #: human-readable inference trace (how the verdict was reached)
    trace: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {"index": self.index, "value": self.value,
                "status": self.status, "baseline": self.baseline,
                "sigma": self.sigma, "delta": self.delta,
                "threshold": self.threshold, "trace": self.trace}


@dataclass(frozen=True)
class ChangePoint:
    """A sustained level shift located by the CUSUM scan."""

    #: index of the first point of the new regime
    index: int
    #: ``"up"`` (slower = regression) or ``"down"`` (improvement)
    direction: str
    #: median level before and after the shift
    before: float
    after: float
    #: CUSUM statistic (in sigmas) at detection
    statistic: float

    @property
    def relative(self) -> float:
        """Fractional change of the level, signed (+ = slower)."""
        if self.before == 0:
            return 0.0
        return (self.after - self.before) / self.before

    def to_dict(self) -> dict[str, Any]:
        return {"index": self.index, "direction": self.direction,
                "before": self.before, "after": self.after,
                "statistic": self.statistic, "relative": self.relative}


@dataclass
class RegressionDetector:
    """Seeded-series regression detector with configurable thresholds.

    Defaults are tuned for the suite's simulated FOMs: ~1% stationary
    noise stays quiet (the dual sigma/slack margin is ~2-6%), a single
    10-15% step or spike is flagged at the exact onset point.
    """

    #: stationary-window length for the baseline
    window: int = 8
    #: sigma multiplier on the robust (MAD-derived) noise estimate
    sigma: float = 4.0
    #: minimum relative deviation that counts, regardless of noise
    slack: float = 0.02
    #: noise floor as a fraction of baseline (guards ~zero-MAD series)
    noise_floor: float = 0.005
    #: points accepted unconditionally before judging begins
    burn_in: int = 4
    #: CUSUM drift allowance, in sigmas
    cusum_k: float = 0.5
    #: CUSUM decision threshold, in sigmas
    cusum_h: float = 5.0

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.burn_in < 2:
            raise ValueError("burn_in must be >= 2")
        if self.sigma <= 0 or self.slack < 0 or self.noise_floor < 0:
            raise ValueError("thresholds must be positive")

    # -- point-wise classification ------------------------------------------

    def _window_stats(self, window: Sequence[float]) -> tuple[float, float]:
        base = _median(window)
        mad = _median([abs(v - base) for v in window])
        # 1.4826 * MAD estimates sigma for Gaussian noise; the floor
        # keeps near-constant simulated series from alerting on dust.
        sig = max(1.4826 * mad, self.noise_floor * abs(base))
        return base, sig

    def classify(self, values: Iterable[float]) -> list[Verdict]:
        """Classify every point of a trajectory, in order.

        The first ``burn_in`` points are accepted as ``baseline``;
        after that each point is compared to the median of the last
        ``window`` points not previously flagged, so the verdict for
        point *i* depends only on values ``[0, i]`` -- appending new
        runs never rewrites old verdicts.
        """
        verdicts: list[Verdict] = []
        accepted: list[float] = []
        for i, value in enumerate(values):
            value = float(value)
            if len(accepted) < self.burn_in:
                verdicts.append(Verdict(
                    index=i, value=value, status="baseline",
                    trace=f"burn-in point {len(accepted) + 1}/"
                          f"{self.burn_in}: accepted unconditionally"))
                accepted.append(value)
                continue
            window = accepted[-self.window:]
            base, sig = self._window_stats(window)
            margin = max(self.sigma * sig, self.slack * abs(base))
            delta = value - base
            if delta > margin:
                status = "regression"
            elif delta < -margin:
                status = "improvement"
            else:
                status = "ok"
            rel = delta / base if base else 0.0
            trace = (f"baseline=median(last {len(window)} ok)="
                     f"{base:.6g}s sigma={sig:.3g} "
                     f"margin=max({self.sigma:g}*sigma, "
                     f"{self.slack:g}*baseline)={margin:.3g}s "
                     f"delta={delta:+.3g}s ({rel:+.2%}) -> {status}")
            verdicts.append(Verdict(index=i, value=value, status=status,
                                    baseline=base, sigma=sig, delta=delta,
                                    threshold=margin, trace=trace))
            if status == "ok":
                accepted.append(value)
        return verdicts

    # -- series-wise change-point scan --------------------------------------

    def change_points(self, values: Iterable[float]) -> list[ChangePoint]:
        """Locate sustained level shifts with a two-sided CUSUM.

        The pre-shift regime's median/sigma standardise the residuals;
        after a detection the scan re-baselines on the new regime and
        continues, so multiple shifts in one series are all reported.
        """
        series = [float(v) for v in values]
        points: list[ChangePoint] = []
        start = 0
        while True:
            found = self._scan_from(series, start)
            if found is None:
                return points
            points.append(found)
            start = found.index

    def _scan_from(self, series: list[float],
                   start: int) -> ChangePoint | None:
        n = len(series)
        if n - start < self.burn_in + 1:
            return None
        ref = series[start:start + max(self.burn_in, self.window)]
        base, sig = self._window_stats(ref)
        # Floor the standardisation sigma at the slack band: deviations
        # the point-wise detector considers meaningless must not be
        # able to accumulate into a CUSUM alarm either (short reference
        # windows can badly underestimate the true noise).
        sig = max(sig, self.slack * abs(base))
        if sig == 0:
            sig = 1.0
        pos = neg = 0.0
        pos_onset = neg_onset = start + len(ref)
        for i in range(start + len(ref), n):
            z = (series[i] - base) / sig
            prev_pos, prev_neg = pos, neg
            pos = max(0.0, pos + z - self.cusum_k)
            neg = max(0.0, neg - z - self.cusum_k)
            if prev_pos == 0.0 and pos > 0.0:
                pos_onset = i
            if prev_neg == 0.0 and neg > 0.0:
                neg_onset = i
            if pos > self.cusum_h or neg > self.cusum_h:
                up = pos > self.cusum_h
                onset = pos_onset if up else neg_onset
                after_vals = series[onset:min(onset + self.window, n)]
                return ChangePoint(
                    index=onset, direction="up" if up else "down",
                    before=base, after=_median(after_vals),
                    statistic=pos if up else neg)
        return None

    # -- rollup -------------------------------------------------------------

    def summarize(self, values: Iterable[float]) -> dict[str, Any]:
        """One-series rollup: counts by status plus located shifts."""
        verdicts = self.classify(values)
        counts = {status: 0 for status in STATUSES}
        for v in verdicts:
            counts[v.status] += 1
        shifts = [cp.to_dict() for cp in
                  self.change_points([v.value for v in verdicts])]
        summary = {"points": len(verdicts), "counts": counts,
                   "change_points": shifts,
                   "verdicts": [v.to_dict() for v in verdicts]}
        return summary


#: default export used by the CLI when no thresholds are given
DEFAULT_DETECTOR = RegressionDetector()
