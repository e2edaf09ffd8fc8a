"""Threshold monitor and CUSUM drift detector."""

import numpy as np
import pytest

from qcsync.detection import (
    AlarmKind,
    CusumConfig,
    ThresholdConfig,
    collect_alarms,
    cusum_drift,
    score,
    threshold_monitor,
)
from qcsync.errors import ConfigurationError

from conftest import make_series


class TestCollectAlarms:
    def test_both_detectors_merged_in_epoch_then_kind_order(self, rng):
        values = rng.normal(-9900.0, 2.0, 400)
        values[250:] -= 500.0
        series = make_series(values)
        threshold = ThresholdConfig(baseline_window_epochs=60, threshold_ps=200.0)
        cusum = CusumConfig(reference_drift_ps=0.05, decision_limit_ps=25.0)
        alarms = collect_alarms(series, ((threshold_monitor, threshold), (cusum_drift, cusum)))
        separate = threshold_monitor(series, threshold) + cusum_drift(series, cusum)
        assert {a.kind for a in alarms} == {AlarmKind.THRESHOLD, AlarmKind.DRIFT}
        assert alarms == sorted(separate, key=lambda a: (a.epoch_start_s, a.kind.value))
        # The drift alarm at the onset epoch sorts before the threshold one.
        assert [a.kind for a in alarms[:2]] == [AlarmKind.DRIFT, AlarmKind.THRESHOLD]

    def test_unconfigured_detector_skipped(self, rng):
        series = make_series(rng.normal(-9900.0, 2.0, 100))
        cusum = CusumConfig(reference_drift_ps=0.0, decision_limit_ps=1.0)
        only = collect_alarms(series, ((threshold_monitor, None), (cusum_drift, cusum)))
        assert only == cusum_drift(series, cusum)
        assert collect_alarms(series, ((threshold_monitor, None), (cusum_drift, None))) == []


class TestThresholdMonitor:
    def test_quiet_baseline_no_alarms(self, rng):
        series = make_series(rng.uniform(-50.0, 50.0, 300) - 9900.0)
        cfg = ThresholdConfig(baseline_window_epochs=60, threshold_ps=200.0)
        assert threshold_monitor(series, cfg) == []

    def test_step_fires_at_onset_epoch(self, rng):
        values = rng.normal(-9900.0, 2.0, 400)
        values[250:] -= 500.0
        series = make_series(values)
        cfg = ThresholdConfig(baseline_window_epochs=60, threshold_ps=200.0)
        alarms = threshold_monitor(series, cfg)
        assert alarms
        assert alarms[0].epoch_start_s == 250.0
        assert alarms[0].kind is AlarmKind.THRESHOLD
        assert alarms[0].magnitude_ps == pytest.approx(-500.0, abs=10.0)

    def test_series_too_short(self):
        series = make_series([-9900.0] * 60)
        cfg = ThresholdConfig(baseline_window_epochs=60, threshold_ps=200.0)
        with pytest.raises(ConfigurationError):
            threshold_monitor(series, cfg)

    def test_invariant_to_constant_offset(self, rng):
        values = rng.normal(0.0, 2.0, 300)
        values[200:] += 350.0
        cfg = ThresholdConfig(baseline_window_epochs=60, threshold_ps=200.0)
        a0 = threshold_monitor(make_series(values), cfg)
        a1 = threshold_monitor(make_series(values + 12345.0), cfg)
        assert [a.epoch_start_s for a in a0] == [a.epoch_start_s for a in a1]
        np.testing.assert_allclose(
            [a.magnitude_ps for a in a0], [a.magnitude_ps for a in a1], atol=1e-9
        )

    def test_small_jump_evades_threshold(self, rng):
        # A -10 ps step under a 200 ps threshold never fires.
        values = rng.normal(-9900.0, 2.0, 500)
        values[250:] -= 10.0
        cfg = ThresholdConfig(baseline_window_epochs=60, threshold_ps=200.0)
        assert threshold_monitor(make_series(values), cfg) == []

    def test_omitted_level_is_four_calibration_stds(self):
        # The first 60 usable epochs alternate +-10 ps about -9900 ps (a gap
        # among them is skipped), so their std is 10 ps and the level 40 ps.
        values = [-9900.0 + (10.0 if k % 2 else -10.0) for k in range(60)]
        values[5:5] = [None]
        values += [-9900.0] * 140
        values[100] += 39.9
        values[120] += 40.1
        values[150] -= 40.1
        cfg = ThresholdConfig(baseline_window_epochs=60)
        assert cfg.threshold_ps is None
        alarms = threshold_monitor(make_series(values), cfg)
        assert [a.epoch_start_s for a in alarms] == [120.0, 150.0]

    def test_omitted_level_without_calibration_scatter_is_1ps(self):
        values = [-9900.0] * 100
        values[70] += 0.9
        values[80] -= 1.1
        alarms = threshold_monitor(make_series(values), ThresholdConfig())
        assert [a.epoch_start_s for a in alarms] == [80.0]

    def test_latency_within_one_epoch_above_margin(self):
        # Steps larger than threshold + 5 sigma are caught at the onset
        # epoch, for every seed.
        sigma = 2.0
        threshold = 200.0
        amplitude = threshold + 5.0 * sigma + 1.0
        cfg = ThresholdConfig(baseline_window_epochs=60, threshold_ps=threshold)
        for seed in range(20):
            gen = np.random.default_rng(900 + seed)
            values = gen.normal(-9900.0, sigma, 400)
            values[250:] -= amplitude
            alarms = threshold_monitor(make_series(values), cfg)
            assert alarms and alarms[0].epoch_start_s == 250.0


class TestThresholdConfig:
    @pytest.mark.parametrize("window", [float("inf"), float("nan"), 60.0, 9])
    def test_window_must_be_an_integer_of_at_least_ten(self, window):
        with pytest.raises(ConfigurationError, match="^baseline_window_epochs "):
            ThresholdConfig(baseline_window_epochs=window)

    def test_integer_window_accepted(self):
        assert ThresholdConfig(baseline_window_epochs=np.int64(10)).baseline_window_epochs == 10


class TestCusumDrift:
    def test_zero_increments_no_alarms(self):
        series = make_series([-9900.0] * 100)
        cfg = CusumConfig(reference_drift_ps=0.01, decision_limit_ps=5.0)
        assert cusum_drift(series, cfg) == []

    def test_deterministic_ramp_closed_form_latency(self):
        # Ramp at -2 ps per 35 s is -0.0571.. ps/epoch; with k=0.01 and h=5
        # the accumulation h / (rate - k) predicts an alarm at epoch 107.
        rate = 2.0 / 35.0
        values = -9900.0 - rate * np.arange(600)
        series = make_series(values)
        cfg = CusumConfig(reference_drift_ps=0.01, decision_limit_ps=5.0)
        alarms = cusum_drift(series, cfg)
        assert alarms
        predicted = int(np.ceil(5.0 / (rate - 0.01)))
        assert predicted == 107
        assert alarms[0].epoch_start_s == pytest.approx(predicted, abs=1.0)
        assert alarms[0].kind is AlarmKind.DRIFT
        assert alarms[0].magnitude_ps < 0

    def test_positive_ramp_symmetry(self):
        values = -9900.0 + (2.0 / 35.0) * np.arange(600)
        cfg = CusumConfig(reference_drift_ps=0.01, decision_limit_ps=5.0)
        alarms = cusum_drift(make_series(values), cfg)
        assert alarms and alarms[0].magnitude_ps > 0

    def test_white_noise_false_alarm_rate(self, rng):
        # k at three increment sigmas keeps false alarms below 1e-4/epoch.
        sigma = 5.0
        values = rng.normal(0.0, sigma, 10_000)
        k = 3.0 * sigma * np.sqrt(2.0)
        cfg = CusumConfig(reference_drift_ps=k, decision_limit_ps=10.0 * sigma)
        alarms = cusum_drift(make_series(values), cfg)
        assert len(alarms) <= 1

    @staticmethod
    def every_other_epoch_a_gap(values):
        return [None if i % 2 else v for i, v in enumerate(values)]

    def test_gaps_do_not_steepen_a_sub_reference_drift(self):
        # 0.05 ps/epoch under k = 0.06: an increment across a gap spans two
        # epochs and is charged 2k, as its two per-epoch steps would be.
        # Charging it k alone lets the 0.1 ps steps accumulate to 2 alarms.
        values = -9900.0 + 0.05 * np.arange(3000)
        cfg = CusumConfig(reference_drift_ps=0.06, decision_limit_ps=25.0)
        assert cusum_drift(make_series(values), cfg) == []
        assert cusum_drift(make_series(self.every_other_epoch_a_gap(values)), cfg) == []

    def test_drift_above_reference_alarms_across_gaps(self):
        # 0.1 ps/epoch under k = 0.06 accumulates 0.04 ps per epoch either
        # way.  An alarm can fire only on a usable epoch, so each one waits
        # at most an epoch longer, and the n-th at most n epochs.
        values = -9900.0 + 0.1 * np.arange(3000)
        cfg = CusumConfig(reference_drift_ps=0.06, decision_limit_ps=25.0)
        plain = cusum_drift(make_series(values), cfg)
        gapped = cusum_drift(make_series(self.every_other_epoch_a_gap(values)), cfg)
        assert len(plain) == len(gapped) == 4
        for n, (a, b) in enumerate(zip(plain, gapped), start=1):
            assert 0.0 <= b.epoch_start_s - a.epoch_start_s <= n
            assert a.magnitude_ps > 25.0 and b.magnitude_ps > 25.0

    def test_short_series_no_alarms(self):
        series = make_series([0.0])
        assert cusum_drift(series, CusumConfig(0.01, 5.0)) == []


class TestScore:
    def test_no_alarms(self):
        s = score([], 100.0, 500.0)
        assert s.detected is False
        assert s.latency_s is None
        assert s.false_alarms == 0

    def test_alarm_at_onset(self):
        from qcsync.detection import Alarm

        alarms = [Alarm(100.0, AlarmKind.THRESHOLD, 300.0)]
        s = score(alarms, 100.0, 500.0)
        assert s.detected and s.latency_s == 0.0 and s.false_alarms == 0

    def test_mixed_alarms(self):
        from qcsync.detection import Alarm

        alarms = [
            Alarm(90.0, AlarmKind.THRESHOLD, 250.0),
            Alarm(120.0, AlarmKind.DRIFT, -8.0),
        ]
        s = score(alarms, 100.0, 500.0)
        assert s.detected
        assert s.latency_s == 20.0
        assert s.false_alarms == 1

    def test_onset_outside_span(self):
        with pytest.raises(ConfigurationError):
            score([], 600.0, 500.0)
