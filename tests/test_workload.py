"""Tests for the workload substrate: CDRs, degree models, generator."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.cdr import CallRecord, CallTrace
from repro.workload.datasets import (
    DATASETS,
    FACEBOOK,
    MOBILE,
    MOBILE_CALLS_PER_USER_DAY,
    TWITTER,
)
from repro.workload.generator import SyntheticTraceConfig, generate_trace
from repro.workload.social import (
    calibrate_alpha,
    degree_sequence,
    estimated_anonymity_set,
)


class TestCallRecord:
    def test_end_time(self):
        r = CallRecord(1, 2, 10.0, 60.0)
        assert r.end == 70.0

    def test_self_call_rejected(self):
        with pytest.raises(ValueError):
            CallRecord(1, 1, 0.0, 10.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            CallRecord(1, 2, 0.0, -1.0)


class TestCallTrace:
    def _trace(self):
        return CallTrace([
            CallRecord(1, 2, 0.0, 100.0),
            CallRecord(3, 4, 50.0, 100.0),
            CallRecord(5, 6, 200.0, 50.0),
        ])

    def test_sorted_by_start(self):
        trace = CallTrace([
            CallRecord(1, 2, 50.0, 10.0),
            CallRecord(3, 4, 0.0, 10.0),
        ])
        assert [r.start for r in trace] == [0.0, 50.0]

    def test_users(self):
        assert self._trace().users == {1, 2, 3, 4, 5, 6}

    def test_span(self):
        assert self._trace().span == (0.0, 250.0)
        assert CallTrace([]).span == (0.0, 0.0)

    def test_binned_events(self):
        starts, ends = self._trace().binned_events(60.0)
        assert list(starts) == [0, 0, 3]
        assert list(ends) == [1, 2, 4]

    def test_binned_events_bad_width(self):
        with pytest.raises(ValueError):
            self._trace().binned_events(0.0)

    def test_concurrency_profile(self):
        profile = self._trace().concurrency_profile(step=25.0)
        # t=0:1, t=25:1, t=50:2, t=75:2, t=100:1 (call 1 ended at 100,
        # searchsorted side="right" counts it as ended), ...
        assert profile.max() == 2

    def test_peak_duty_cycle(self):
        trace = self._trace()
        # peak concurrency 2 calls → 4 users out of 100 → 4%.
        assert trace.peak_duty_cycle(100, step=25.0) == pytest.approx(0.04)

    def test_peak_duty_cycle_validates_users(self):
        with pytest.raises(ValueError):
            self._trace().peak_duty_cycle(0)

    def test_contact_degrees(self):
        trace = CallTrace([
            CallRecord(1, 2, 0.0, 1.0),
            CallRecord(1, 3, 10.0, 1.0),
            CallRecord(2, 1, 20.0, 1.0),  # repeat pair
        ])
        degrees = trace.contact_degrees()
        assert degrees[1] == 2
        assert degrees[2] == 1
        assert degrees[3] == 1

    def test_calls_between(self):
        trace = self._trace()
        assert len(trace.calls_between(0.0, 60.0)) == 2
        assert len(trace.calls_between(60.0, 300.0)) == 1

    def test_window_shifts_times(self):
        sub = self._trace().window(50.0, 300.0)
        assert len(sub) == 2
        assert sub.records[0].start == 0.0

    def test_total_call_seconds(self):
        assert self._trace().total_call_seconds() == 250.0

    def test_empty_profile(self):
        assert CallTrace([]).peak_concurrency() == 0


class TestDegreeSequence:
    def test_median_matches_target(self):
        for median, maximum in ((12, 1500), (8, 4875)):
            seq = degree_sequence(20_000, median, maximum,
                                  rng=random.Random(1))
            assert abs(np.median(seq) - median) <= 2

    def test_max_pinned(self):
        seq = degree_sequence(1000, 12, 1500, rng=random.Random(1))
        assert seq.max() == 1500

    def test_max_not_pinned_when_disabled(self):
        seq = degree_sequence(100, 5, 10_000, rng=random.Random(1),
                              include_max=False)
        assert seq.max() < 10_000

    def test_all_degrees_positive(self):
        seq = degree_sequence(5000, 12, 1500, rng=random.Random(2))
        assert seq.min() >= 1

    def test_heavy_tail(self):
        seq = degree_sequence(20_000, 12, 1500, rng=random.Random(3))
        assert np.mean(seq) > np.median(seq)  # right-skewed

    def test_calibrate_alpha_bounds(self):
        with pytest.raises(ValueError):
            calibrate_alpha(0, 100)
        with pytest.raises(ValueError):
            calibrate_alpha(200, 100)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            degree_sequence(0, 12, 100)

    def test_degrees_within_support(self):
        seq = degree_sequence(5000, 8, 300, rng=random.Random(4))
        assert seq.dtype == np.int64
        assert 1 <= seq.min() and seq.max() <= 300

    def test_same_seed_same_degrees(self):
        first = degree_sequence(500, 12, 1500, rng=random.Random(9))
        second = degree_sequence(500, 12, 1500, rng=random.Random(9))
        assert np.array_equal(first, second)

    def test_single_draw_is_not_pinned(self):
        """The maximum is pinned only when there is more than one
        sample; a lone draw is the plain power-law draw."""
        pinned = degree_sequence(1, 5, 10_000, rng=random.Random(1))
        plain = degree_sequence(1, 5, 10_000, rng=random.Random(1),
                                include_max=False)
        assert pinned.tolist() == plain.tolist()
        assert pinned[0] < 10_000

    def test_explicit_alpha_skips_calibration(self, monkeypatch):
        import repro.workload.social as social

        def refuse(*args, **kwargs):
            raise AssertionError("calibrated despite an explicit alpha")

        monkeypatch.setattr(social, "calibrate_alpha", refuse)
        seq = social.degree_sequence(1000, 12, 1500, rng=random.Random(1),
                                     alpha=2.5)
        assert seq.max() == 1500

    def test_steeper_alpha_lowers_the_median(self):
        shallow = degree_sequence(5000, 12, 1500, rng=random.Random(5),
                                  alpha=1.2)
        steep = degree_sequence(5000, 12, 1500, rng=random.Random(5),
                                alpha=2.5)
        assert np.median(steep) < np.median(shallow)

    def test_calibrated_alpha_falls_as_the_median_rises(self):
        alphas = [calibrate_alpha(median, 1500) for median in (4, 12, 50)]
        assert alphas == sorted(alphas, reverse=True)

    def test_calibrated_alpha_puts_the_median_on_target(self):
        for median, maximum in ((12, 1500), (8, 4875), (343, 5000)):
            alpha = calibrate_alpha(median, maximum)
            weights = np.arange(1, maximum + 1, dtype=np.float64) ** -alpha
            cdf = np.cumsum(weights) / weights.sum()
            assert int(np.searchsorted(cdf, 0.5)) + 1 == median


class TestEstimatedAnonymity:
    def test_estimated_anonymity_matches_paper(self):
        # Fig. 4: H=3 medians 1728, 512, ~40M.
        assert estimated_anonymity_set(12, 3) == 1728
        assert estimated_anonymity_set(8, 3) == 512
        assert estimated_anonymity_set(343, 3) == pytest.approx(40.4e6,
                                                                rel=0.01)

    def test_one_hop_is_the_degree_itself(self):
        assert estimated_anonymity_set(12, 1) == 12.0
        assert estimated_anonymity_set(343, 1) == 343.0

    def test_estimated_anonymity_validates_hops(self):
        with pytest.raises(ValueError):
            estimated_anonymity_set(12, 0)


class TestDatasets:
    def test_registry(self):
        assert set(DATASETS) == {"Mobile", "Twitter", "Facebook"}

    def test_paper_bandwidths(self):
        # Fig. 5: medians 96 KB/s, 64 KB/s, 2.6 MB/s (2744 KB/s).
        assert MOBILE.median_bandwidth_kbps == 96.0
        assert TWITTER.median_bandwidth_kbps == 64.0
        assert FACEBOOK.median_bandwidth_kbps == pytest.approx(2744.0)

    def test_paper_max_bandwidths(self):
        # Fig. 5: maxima 12 MB/s, 39 MB/s, 6.2 GB/s.
        assert MOBILE.max_bandwidth_kbps == pytest.approx(12_000.0)
        assert TWITTER.max_bandwidth_kbps == pytest.approx(39_000.0)
        assert FACEBOOK.max_bandwidth_kbps == pytest.approx(6.2e6)

    def test_implied_call_volume(self):
        assert MOBILE_CALLS_PER_USER_DAY == pytest.approx(1.105, abs=0.01)


class TestGenerator:
    @pytest.fixture(scope="class")
    def week_trace(self):
        cfg = SyntheticTraceConfig(n_users=4000, days=7, seed=42,
                                   max_degree=120)
        return cfg, generate_trace(cfg)

    def test_volume_matches_config(self, week_trace):
        cfg, trace = week_trace
        expected = cfg.n_users * cfg.calls_per_user_day * cfg.days
        # The per-user non-overlap constraint drops a share of the
        # generated calls (heavy callers collide with themselves).
        assert 0.75 * expected < len(trace) <= 1.05 * expected

    def test_all_users_within_range(self, week_trace):
        cfg, trace = week_trace
        assert all(0 <= r.caller < cfg.n_users and
                   0 <= r.callee < cfg.n_users for r in trace)

    def test_peak_duty_cycle_near_paper_value(self, week_trace):
        cfg, trace = week_trace
        duty = trace.peak_duty_cycle(cfg.n_users, step=60.0)
        # Paper: 1.6%.  Accept the right order of magnitude band.
        assert 0.008 < duty < 0.030, duty

    def test_diurnal_shape_visible(self, week_trace):
        _, trace = week_trace
        hours = np.array([int(r.start % 86400) // 3600 for r in trace])
        night = np.sum((hours >= 2) & (hours < 4))
        evening = np.sum((hours >= 18) & (hours < 20))
        assert evening > 10 * night

    def test_median_contact_degree(self, week_trace):
        cfg, trace = week_trace
        degrees = list(trace.contact_degrees().values())
        # Observed partners over a week are a subset of the contact
        # list; the median must not exceed the configured degree and
        # should be in its vicinity.
        assert np.median(degrees) <= cfg.median_degree + 2
        assert np.median(degrees) >= 2

    def test_durations_within_bounds(self, week_trace):
        cfg, trace = week_trace
        durations = [r.duration for r in trace]
        assert min(durations) >= cfg.min_duration
        assert max(durations) <= cfg.max_duration

    def test_duration_distribution_minutes_scale(self, week_trace):
        _, trace = week_trace
        durations = np.array([r.duration for r in trace])
        assert 60 < np.median(durations) < 240
        assert np.mean(durations) > np.median(durations)  # lognormal skew

    def test_deterministic_given_seed(self):
        cfg = SyntheticTraceConfig(n_users=200, days=1, seed=7,
                                   max_degree=50)
        t1, t2 = generate_trace(cfg), generate_trace(cfg)
        assert len(t1) == len(t2)
        assert all(a == b for a, b in zip(t1.records, t2.records))

    def test_different_seed_differs(self):
        base = dict(n_users=200, days=1, max_degree=50)
        t1 = generate_trace(SyntheticTraceConfig(seed=1, **base))
        t2 = generate_trace(SyntheticTraceConfig(seed=2, **base))
        assert [r.start for r in t1.records[:20]] != \
               [r.start for r in t2.records[:20]]

    def test_for_dataset_constructor(self):
        cfg = SyntheticTraceConfig.for_dataset(MOBILE, n_users=500,
                                               max_degree=100)
        assert cfg.median_degree == 12
        assert cfg.n_users == 500

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(n_users=1)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(days=0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(n_users=100, max_degree=100)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(diurnal=(1.0,) * 23)


@settings(max_examples=10, deadline=None)
@given(n_users=st.integers(min_value=50, max_value=500),
       seed=st.integers(min_value=0, max_value=1000))
def test_generator_invariants_property(n_users, seed):
    cfg = SyntheticTraceConfig(n_users=n_users, days=1, seed=seed,
                               max_degree=min(40, n_users - 1))
    trace = generate_trace(cfg)
    for r in trace:
        assert r.caller != r.callee
        assert r.duration >= cfg.min_duration
        assert 0.0 <= r.start < cfg.days * 86400.0


class TestWeekendModulation:
    def test_weekends_lighter(self):
        cfg = SyntheticTraceConfig(n_users=3000, days=14, seed=8,
                                   max_degree=100, weekend_factor=0.6)
        trace = generate_trace(cfg)
        weekday_calls = weekend_calls = 0
        weekday_days = weekend_days = 0
        for day in range(cfg.days):
            count = len(trace.calls_between(day * 86400.0,
                                            (day + 1) * 86400.0))
            if day % 7 in (5, 6):
                weekend_calls += count
                weekend_days += 1
            else:
                weekday_calls += count
                weekday_days += 1
        weekday_rate = weekday_calls / weekday_days
        weekend_rate = weekend_calls / weekend_days
        assert weekend_rate < 0.8 * weekday_rate

    def test_factor_one_is_flat(self):
        cfg = SyntheticTraceConfig(n_users=1000, days=14, seed=8,
                                   max_degree=100, weekend_factor=1.0)
        trace = generate_trace(cfg)
        counts = [len(trace.calls_between(d * 86400.0,
                                          (d + 1) * 86400.0))
                  for d in range(14)]
        assert max(counts) < 1.3 * min(counts)

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(n_users=100, max_degree=50,
                                 weekend_factor=0.0)
