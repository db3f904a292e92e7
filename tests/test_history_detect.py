"""Property tests for the statistical regression detector: quiet on
seeded stationary series, catches injected step shifts, verdicts are
bit-reproducible."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.history import ChangePoint, RegressionDetector, Verdict
from repro.history.detect import STATUSES


def stationary(seed: int, n: int, level: float = 100.0,
               noise: float = 0.01) -> list[float]:
    """A seeded stationary series: ``level`` +- uniform ``noise``."""
    rng = random.Random(seed)
    return [level * (1.0 + noise * (2.0 * rng.random() - 1.0))
            for _ in range(n)]


class TestClassify:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(6, 60))
    def test_zero_false_positives_on_stationary_series(self, seed, n):
        det = RegressionDetector()
        verdicts = det.classify(stationary(seed, n))
        assert all(v.status in ("baseline", "ok") for v in verdicts)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shift=st.floats(0.10, 0.50),
           onset=st.integers(6, 20))
    def test_detects_injected_step_shift(self, seed, shift, onset):
        """Any >= 10% sustained slowdown is flagged from its onset."""
        det = RegressionDetector()
        values = stationary(seed, onset + 8)
        values = values[:onset] + [v * (1.0 + shift)
                                   for v in values[onset:]]
        verdicts = det.classify(values)
        assert all(v.status != "regression" for v in verdicts[:onset])
        assert all(v.status == "regression" for v in verdicts[onset:]), \
            "a sustained shift must keep flagging until acknowledged"

    def test_single_spike_flags_exactly_that_point(self):
        values = stationary(7, 12)
        values[9] *= 1.15
        verdicts = RegressionDetector().classify(values)
        flagged = [v.index for v in verdicts if v.status == "regression"]
        assert flagged == [9]
        # the spike does not poison the baseline: later points stay ok
        assert verdicts[10].status == "ok"
        assert verdicts[11].status == "ok"

    def test_improvement_direction(self):
        values = stationary(3, 10) + [80.0]  # 20% faster
        verdict = RegressionDetector().classify(values)[-1]
        assert verdict.status == "improvement"
        assert verdict.delta < 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
    def test_verdicts_bit_reproducible(self, seed, n):
        det = RegressionDetector()
        values = stationary(seed, n)
        if n > 8:
            values[n // 2] *= 1.2
        first = json.dumps([v.to_dict() for v in det.classify(values)],
                           sort_keys=True)
        second = json.dumps([v.to_dict() for v in det.classify(values)],
                            sort_keys=True)
        third = json.dumps(
            [v.to_dict()
             for v in RegressionDetector().classify(list(values))],
            sort_keys=True)
        assert first == second == third

    def test_verdict_depends_only_on_prefix(self):
        """Appending new runs never rewrites old verdicts."""
        det = RegressionDetector()
        values = stationary(11, 20)
        values[12] *= 1.3
        full = det.classify(values)
        for cut in range(1, len(values)):
            prefix = det.classify(values[:cut])
            assert [v.to_dict() for v in prefix] == \
                [v.to_dict() for v in full[:cut]]

    def test_traces_explain_every_judged_point(self):
        verdicts = RegressionDetector().classify(stationary(5, 10))
        for v in verdicts:
            assert v.trace
            if v.status != "baseline":
                assert "baseline=" in v.trace and "margin=" in v.trace

    def test_burn_in_points_accepted_unconditionally(self):
        det = RegressionDetector(burn_in=4)
        verdicts = det.classify([100.0, 900.0, 100.0, 100.0])
        assert [v.status for v in verdicts] == ["baseline"] * 4

    def test_constant_series_stays_quiet(self):
        det = RegressionDetector()
        verdicts = det.classify([5.0] * 20)
        assert all(v.status in ("baseline", "ok") for v in verdicts)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            RegressionDetector(window=1)
        with pytest.raises(ValueError):
            RegressionDetector(sigma=0.0)
        with pytest.raises(ValueError):
            RegressionDetector(burn_in=1)

    def test_empty_series_has_no_verdicts(self):
        assert RegressionDetector().classify([]) == []


class TestChangePoints:
    def test_locates_step_onset(self):
        values = stationary(21, 14) + [v * 1.2
                                       for v in stationary(22, 14)]
        shifts = RegressionDetector().change_points(values)
        assert len(shifts) == 1
        cp = shifts[0]
        assert cp.direction == "up"
        assert cp.index == 14
        assert cp.relative == pytest.approx(0.2, abs=0.05)

    def test_multiple_shifts_reported(self):
        base = stationary(31, 12)
        values = base + [v * 1.3 for v in stationary(32, 12)] + \
            [v * 0.9 for v in stationary(33, 12)]
        shifts = RegressionDetector().change_points(values)
        assert [cp.direction for cp in shifts] == ["up", "down"]
        assert shifts[0].index == 12
        assert 20 <= shifts[1].index <= 26

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_no_shift_on_stationary_series(self, seed):
        assert RegressionDetector().change_points(
            stationary(seed, 40)) == []

    def test_short_series_yield_nothing(self):
        assert RegressionDetector().change_points([1.0, 2.0]) == []

    def test_change_point_serialisation(self):
        cp = ChangePoint(index=3, direction="up", before=10.0,
                         after=12.0, statistic=6.5)
        assert cp.to_dict()["relative"] == pytest.approx(0.2)


class TestSummarize:
    def test_summary_counts_and_shapes(self):
        det = RegressionDetector()
        values = stationary(41, 12)
        values[10] *= 1.15
        summary = det.summarize(values)
        assert summary["points"] == 12
        assert set(summary["counts"]) == set(STATUSES)
        assert summary["counts"]["regression"] == 1
        assert len(summary["verdicts"]) == 12
        assert isinstance(summary["verdicts"][0], dict)

    def test_summary_is_bit_reproducible(self):
        det = RegressionDetector()
        values = stationary(42, 30)
        values[15:] = [v * 1.25 for v in values[15:]]
        a = json.dumps(det.summarize(values), sort_keys=True)
        b = json.dumps(det.summarize(values), sort_keys=True)
        assert a == b

    def test_verdict_dataclass_is_frozen(self):
        verdict = Verdict(index=0, value=1.0, status="ok")
        with pytest.raises(AttributeError):
            verdict.status = "regression"
