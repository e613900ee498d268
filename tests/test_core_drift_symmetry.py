"""Tests for drift tracking and exchangeability detection."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from repro.core import detect_drift, estimate_epochs, exchangeable_pairs
from repro.core.drift import Cusum, DriftDetectors, PageHinkley, residual_signals
from repro.errors import EstimationError
from repro.ir import CFGBuilder, const, nop
from repro.markov.sampling import sample_rewards
from repro.mote import MICAZ_LIKE
from repro.placement.layout import Layout
from repro.sim import ProcedureTimingModel
from tests.conftest import build_diamond_procedure


def diamond_model(then_pad=5, else_pad=60):
    proc, _ = build_diamond_procedure(then_cost_pad=then_pad, else_cost_pad=else_pad)
    return ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))


def build_twin_diamonds(pads_a: tuple[int, int], pads_b: tuple[int, int]):
    """Two sequential diamonds with configurable arm paddings."""
    b = CFGBuilder("twins")
    b.emit(const("c", 1))

    for pads in (pads_a, pads_b):
        cond_label = b.current.label
        then_blk, else_blk = b.branch("c")
        join = b.fresh_label("join")
        b.emit(*(nop() for _ in range(pads[0])))
        b.jump(join)
        b.switch_to(else_blk)
        b.emit(*(nop() for _ in range(pads[1])))
        b.jump(join)
        b.block(join)
    b.ret()
    proc = b.build()
    return ProcedureTimingModel(proc, MICAZ_LIKE, Layout.source_order(proc.cfg))


class TestExchangeablePairs:
    def test_identical_diamonds_are_exchangeable(self):
        model = build_twin_diamonds((5, 40), (5, 40))
        assert exchangeable_pairs(model) == [(0, 1)]

    def test_distinct_diamonds_are_not(self):
        model = build_twin_diamonds((5, 40), (5, 80))
        assert exchangeable_pairs(model) == []

    def test_single_branch_has_no_pairs(self):
        assert exchangeable_pairs(diamond_model()) == []


class TestEstimateEpochs:
    def test_stationary_track_is_flat(self):
        model = diamond_model()
        truth = np.array([0.3])
        xs = sample_rewards(model.chain(truth), 3000, rng=1)
        track = estimate_epochs(model, xs, epoch_size=600, rng=2)
        assert track.n_epochs == 5
        assert np.all(np.abs(track.thetas - 0.3) < 0.08)
        assert track.total_variation()[0] < 0.3

    def test_regime_change_is_visible(self):
        model = diamond_model()
        first = sample_rewards(model.chain([0.1]), 1500, rng=3)
        second = sample_rewards(model.chain([0.9]), 1500, rng=4)
        xs = np.concatenate([first, second])
        track = estimate_epochs(model, xs, epoch_size=500, rng=5)
        series = track.parameter_series(0)
        assert series[0] < 0.25
        assert series[-1] > 0.75

    def test_detect_drift_flags_the_jump(self):
        model = diamond_model()
        first = sample_rewards(model.chain([0.1]), 1000, rng=6)
        second = sample_rewards(model.chain([0.9]), 1000, rng=7)
        track = estimate_epochs(
            model, np.concatenate([first, second]), epoch_size=500, rng=8
        )
        events = detect_drift(track, threshold=0.3)
        assert events, "the regime change must be flagged"
        ks = {k for k, _, _ in events}
        assert ks == {0}
        assert all(delta > 0 for _, _, delta in events)

    def test_stationary_track_has_no_drift_events(self):
        model = diamond_model()
        xs = sample_rewards(model.chain([0.5]), 2400, rng=9)
        track = estimate_epochs(model, xs, epoch_size=600, rng=10)
        assert detect_drift(track, threshold=0.2) == []

    def test_partial_trailing_epoch_policy(self):
        model = diamond_model()
        xs = sample_rewards(model.chain([0.5]), 1100, rng=11)
        # 1000-size epochs: trailing 100 samples < half an epoch -> dropped,
        # and the drop is accounted for explicitly rather than silently.
        track = estimate_epochs(model, xs, epoch_size=1000, rng=12)
        assert track.n_epochs == 1
        assert track.n_dropped == 100
        assert sum(track.n_samples) + track.n_dropped == len(xs)
        # 700-size epochs: trailing 400 >= half -> kept, nothing dropped.
        track = estimate_epochs(model, xs, epoch_size=700, rng=13)
        assert track.n_epochs == 2
        assert track.n_dropped == 0
        assert track.n_samples == (700, 400)
        assert sum(track.n_samples) + track.n_dropped == len(xs)

    def test_bad_arguments_rejected(self):
        model = diamond_model()
        with pytest.raises(EstimationError):
            estimate_epochs(model, [], epoch_size=10)
        with pytest.raises(EstimationError):
            estimate_epochs(model, [1.0, 2.0], epoch_size=1)
        xs = sample_rewards(model.chain([0.5]), 100, rng=1)
        track = estimate_epochs(model, xs, epoch_size=50, rng=1)
        with pytest.raises(EstimationError):
            detect_drift(track, threshold=0.0)
        with pytest.raises(EstimationError):
            track.parameter_series(5)


class TestDetectors:
    def test_page_hinkley_quiet_on_stationary_noise(self):
        rng = np.random.default_rng(0)
        ph = PageHinkley()
        assert not any(ph.update(x) for x in rng.normal(0.0, 1.0, 500))
        assert ph.score < 1.0

    def test_cusum_quiet_on_stationary_noise(self):
        rng = np.random.default_rng(1)
        cusum = Cusum()
        assert not any(cusum.update(x) for x in rng.normal(0.0, 1.0, 500))
        assert cusum.score < 1.0

    @pytest.mark.parametrize("detector_cls", [PageHinkley, Cusum])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_level_shift_alarms_in_either_direction(self, detector_cls, direction):
        rng = np.random.default_rng(2)
        detector = detector_cls()
        stream = np.concatenate(
            [rng.normal(0.0, 1.0, 50), rng.normal(direction * 3.0, 1.0, 50)]
        )
        fired_at = None
        for i, x in enumerate(stream):
            if detector.update(x):
                fired_at = i
                break
        assert fired_at is not None, "a 3-sigma level shift must alarm"
        assert fired_at >= 50, "no alarm before the shift"
        # The alarming update reset the statistic; the detector is re-armed.
        assert detector.statistic == 0.0

    @pytest.mark.parametrize("detector_cls", [PageHinkley, Cusum])
    def test_alarm_resets_for_the_next_episode(self, detector_cls):
        detector = detector_cls()
        episodes = 0
        # Two separated bursts of a strong shift, quiet in between.
        for x in [0.0] * 20 + [5.0] * 20 + [0.0] * 40 + [5.0] * 20:
            if detector.update(x):
                episodes += 1
        assert episodes >= 2

    def test_constructor_validation(self):
        with pytest.raises(EstimationError, match="positive"):
            PageHinkley(threshold=0.0)
        with pytest.raises(EstimationError, match=">= 0"):
            PageHinkley(delta=-0.1)
        with pytest.raises(EstimationError, match="positive"):
            Cusum(h=-1.0)
        with pytest.raises(EstimationError, match=">= 0"):
            Cusum(k=-0.5)


class TestResidualSignals:
    class _Moments:
        def __init__(self, mean, variance):
            self.mean = mean
            self.variance = variance

    def test_z_score_of_the_shard_mean(self):
        moments = {"p": self._Moments(10.0, 4.0)}
        signals = residual_signals(moments, {"p": [11.0, 13.0, 12.0, 12.0]})
        # mean 12, mu 10, sigma 2, n 4 -> z = 2 / (2/2) = 2.
        assert signals == {"p": pytest.approx(2.0)}

    def test_skips_unpredicted_and_underpopulated_procedures(self):
        moments = {"p": self._Moments(10.0, 4.0)}
        signals = residual_signals(
            moments, {"p": [10.0], "ghost": [1.0, 2.0]}, min_samples=2
        )
        assert signals == {}  # "p" too small, "ghost" has no prediction

    def test_zero_variance_prediction_does_not_divide_by_zero(self):
        moments = {"p": self._Moments(10.0, 0.0)}
        signals = residual_signals(moments, {"p": [10.0, 10.0]})
        assert math.isfinite(signals["p"])


class TestDriftDetectors:
    def test_alarms_name_the_procedure_and_the_detector(self):
        detectors = DriftDetectors(warmup_shards=2)
        alarms = []
        for i in range(40):
            shifted = 0.0 if i < 4 else 6.0
            alarms += detectors.update({"quiet": 0.0, "shifted": shifted})
        assert alarms and {proc for proc, _ in alarms} == {"shifted"}
        names = {"page-hinkley", "cusum", "page-hinkley+cusum"}
        assert all(name in names for _, name in alarms)
        assert detectors.alarms == len(alarms)
        assert detectors.alarmed_procedures == ("shifted",)

    def test_a_copy_is_a_value(self):
        detectors = DriftDetectors(warmup_shards=2)
        for x in (0.1, -0.2, 0.4):
            detectors.update({"p": x})
        snapshot = copy.deepcopy(detectors)
        assert snapshot == detectors
        detectors.update({"p": 0.3})
        assert snapshot != detectors
        snapshot.update({"p": 0.3})
        assert snapshot == detectors
        assert snapshot.score == detectors.score

    def test_empty_set_scores_zero(self):
        assert DriftDetectors().score == 0.0
        assert DriftDetectors().alarmed_procedures == ()

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"warmup_shards": 0}, "warmup_shards"),
            ({"ph_threshold": 0.0}, "positive"),
            ({"cusum_k": -1.0}, ">= 0"),
        ],
    )
    def test_bad_parameters_rejected_before_any_signal(self, kwargs, match):
        with pytest.raises(EstimationError, match=match):
            DriftDetectors(**kwargs)
