"""Unit tests for latency and throughput statistics and the latency
histogram."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    CounterSet,
    LatencyRecorder,
    ThroughputMeter,
    render_latency_histogram,
)


class TestLatencyRecorder:
    def test_empty_summary_is_zero(self):
        recorder = LatencyRecorder("empty")
        summary = recorder.summary()
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["p99"] == 0.0

    def test_mean_and_max(self):
        recorder = LatencyRecorder()
        recorder.extend([1.0, 2.0, 3.0])
        assert recorder.mean == pytest.approx(2.0)
        assert recorder.max == 3.0
        assert recorder.min == 1.0

    def test_nearest_rank_percentiles(self):
        recorder = LatencyRecorder()
        recorder.extend(float(i) for i in range(1, 101))
        assert recorder.percentile(0.25) == 25.0
        assert recorder.percentile(0.50) == 50.0
        assert recorder.percentile(0.99) == 99.0
        assert recorder.percentile(1.00) == 100.0

    def test_percentile_single_sample(self):
        recorder = LatencyRecorder()
        recorder.record(7.0)
        assert recorder.percentile(0.01) == 7.0
        assert recorder.percentile(0.99) == 7.0

    def test_small_n_float_products_do_not_shift_the_rank(self):
        # 0.1 * 30 == 3.0000000000000004 and 0.7 * 10 == 7.000000000000001:
        # a naive ceil lands one rank high, over-reporting the percentile.
        recorder = LatencyRecorder()
        recorder.extend(float(i) for i in range(1, 31))
        assert recorder.percentile(0.1) == 3.0
        small = LatencyRecorder()
        small.extend(float(i) for i in range(1, 11))
        assert small.percentile(0.3) == 3.0
        assert small.percentile(0.7) == 7.0
        assert small.percentile(0.9) == 9.0

    def test_percentile_bounds_checked(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.percentile(0.0)
        with pytest.raises(ValueError):
            recorder.percentile(1.5)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-0.1)

    def test_merged_with(self):
        a = LatencyRecorder("a")
        b = LatencyRecorder("b")
        a.extend([1.0, 2.0])
        b.extend([3.0])
        merged = a.merged_with(b)
        assert merged.count == 3
        assert merged.mean == pytest.approx(2.0)
        assert a.count == 2  # originals untouched


class TestPercentileProperty:
    """The recorder matches exact-rational nearest-rank arithmetic.

    The fraction is drawn as an exact rational (what a caller writing
    ``0.99`` means) with a denominator small enough that converting it
    through a float cannot move the product across a rank boundary; the
    reference rank is computed with :class:`fractions.Fraction`, immune
    to the float rounding the implementation has to guard against.
    """

    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(
               st.floats(min_value=0.0, max_value=1e4,
                         allow_nan=False, allow_infinity=False),
               min_size=1, max_size=400),
           numerator=st.integers(min_value=1, max_value=1000),
           denominator=st.integers(min_value=1, max_value=1000))
    def test_matches_exact_nearest_rank(self, samples, numerator,
                                        denominator):
        exact = Fraction(min(numerator, denominator), denominator)
        recorder = LatencyRecorder()
        recorder.extend(samples)
        ordered = sorted(samples)
        rank = max(1, min(len(ordered),
                          math.ceil(exact * len(ordered))))
        assert recorder.percentile(float(exact)) == ordered[rank - 1]


class TestThroughputMeter:
    def test_counts_only_inside_window(self):
        meter = ThroughputMeter()
        meter.record(0.5)  # before window: ignored
        meter.start_window(1.0)
        meter.record(2.0)
        meter.record(3.0)
        assert meter.completed == 2
        assert meter.per_second() == pytest.approx(1.0)

    def test_per_minute(self):
        meter = ThroughputMeter()
        meter.start_window(0.0)
        for t in (1.0, 2.0):
            meter.record(t)
        assert meter.per_minute() == pytest.approx(60.0)

    def test_zero_window_is_zero_rate(self):
        meter = ThroughputMeter()
        assert meter.per_second() == 0.0

    def test_batch_amounts(self):
        meter = ThroughputMeter()
        meter.start_window(0.0)
        meter.record(10.0, amount=50)
        assert meter.completed == 50
        assert meter.per_second() == pytest.approx(5.0)


class TestCounterSet:
    def test_add_and_get(self):
        counters = CounterSet()
        counters.add("hits")
        counters.add("hits", 4)
        assert counters.get("hits") == 5
        assert counters.get("misses") == 0

    def test_ratio(self):
        counters = CounterSet()
        counters.add("misses", 2)
        counters.add("accesses", 10)
        assert counters.ratio("misses", "accesses") == pytest.approx(0.2)

    def test_ratio_undefined_is_zero(self):
        assert CounterSet().ratio("a", "b") == 0.0

    def test_as_dict_is_a_copy(self):
        counters = CounterSet()
        counters.add("x")
        snapshot = counters.as_dict()
        snapshot["x"] = 99
        assert counters.get("x") == 1


class TestSortedCache:
    def test_percentile_reflects_samples_recorded_after_a_query(self):
        recorder = LatencyRecorder()
        recorder.extend([0.5, 0.1])
        assert recorder.percentile(1.0) == 0.5  # populates the cache
        recorder.record(0.9)  # must invalidate it
        assert recorder.percentile(1.0) == 0.9
        assert recorder.percentile(0.5) == 0.5

    def test_sorted_samples_is_ordered_and_cached(self):
        recorder = LatencyRecorder()
        recorder.extend([3.0, 1.0, 2.0])
        first = recorder.sorted_samples()
        assert first == [1.0, 2.0, 3.0]
        assert recorder.sorted_samples() is first  # cached between records
        recorder.record(0.5)
        assert recorder.sorted_samples() == [0.5, 1.0, 2.0, 3.0]

    def test_merged_recorder_sorts_fresh(self):
        left, right = LatencyRecorder(), LatencyRecorder()
        left.extend([0.3, 0.1])
        right.extend([0.2])
        left.percentile(0.5)  # warm left's cache before merging
        merged = left.merged_with(right)
        assert merged.sorted_samples() == [0.1, 0.2, 0.3]
        assert merged.percentile(1.0) == 0.3


class TestHistogram:
    def test_renders_buckets(self):
        recorder = LatencyRecorder()
        recorder.extend([0.001, 0.001, 0.002, 0.01, 0.1])
        text = render_latency_histogram(recorder, buckets=5)
        assert "#" in text
        assert "ms" in text
        assert len(text.splitlines()) == 5

    def test_empty_recorder(self):
        assert render_latency_histogram(LatencyRecorder()) == "(no samples)"

    def test_single_value(self):
        recorder = LatencyRecorder()
        recorder.record(0.005)
        text = render_latency_histogram(recorder, buckets=3)
        assert text.count("#") > 0


class TestHistogramBuckets:
    def test_counts_cover_every_sample(self):
        recorder = LatencyRecorder()
        recorder.extend([0.0001 * (i + 1) for i in range(37)])
        text = render_latency_histogram(recorder, buckets=6)
        counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()]
        assert sum(counts) == 37

    def test_extremes_land_in_end_buckets(self):
        recorder = LatencyRecorder()
        recorder.extend([0.001] * 4 + [0.5] * 3)
        text = render_latency_histogram(recorder, buckets=4)
        counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()]
        assert counts[0] == 4
        assert counts[-1] == 3
        assert sum(counts) == 7
