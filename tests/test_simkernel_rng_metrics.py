"""Unit tests for RNG streams and metric primitives."""

import pytest

from repro.simkernel.metrics import Counter, Gauge, MetricRegistry, TimeSeries
from repro.simkernel.rng import RngStream, derive_seed


class TestRng:
    def test_same_seed_same_stream_reproduces(self):
        a = RngStream(7, "dev")
        b = RngStream(7, "dev")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_differ(self):
        a = RngStream(7, "dev1")
        b = RngStream(7, "dev2")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_bounded_gauss_respects_bounds(self):
        stream = RngStream(1, "g")
        values = [stream.bounded_gauss(50, 100, 0, 100) for _ in range(200)]
        assert all(0 <= value <= 100 for value in values)

    def test_expovariate_requires_positive_rate(self):
        with pytest.raises(ValueError):
            RngStream(1, "e").expovariate(0)

    def test_choice_of_empty_raises(self):
        with pytest.raises(ValueError):
            RngStream(1, "c").choice([])

    def test_jitter_within_fraction(self):
        stream = RngStream(1, "j")
        for _ in range(100):
            value = stream.jitter(10.0, 0.2)
            assert 8.0 <= value <= 12.0

    def test_shuffle_returns_permutation(self):
        stream = RngStream(1, "s")
        items = list(range(20))
        shuffled = stream.shuffle(list(items))
        assert sorted(shuffled) == items


class TestMetrics:
    def test_counter_only_increases(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    def test_series_records_and_aggregates(self):
        series = TimeSeries("s")
        for time, value in [(0, 1.0), (1, 3.0), (2, 2.0)]:
            series.record(time, value)
        assert series.last() == 2.0
        assert series.mean() == 2.0
        assert series.maximum() == 3.0
        assert len(series) == 3

    def test_series_rejects_time_regression(self):
        series = TimeSeries("s")
        series.record(5, 1.0)
        with pytest.raises(ValueError):
            series.record(4, 1.0)

    def test_time_weighted_mean_of_step_function(self):
        series = TimeSeries("s")
        series.record(0.0, 0.0)
        series.record(5.0, 10.0)
        # 0 for 5s, 10 for 5s -> mean 5 over [0, 10]
        assert series.time_weighted_mean(horizon=10.0) == pytest.approx(5.0)

    def test_empty_series_aggregates_are_zero(self):
        series = TimeSeries("s")
        assert series.mean() == 0.0
        assert series.maximum() == 0.0
        assert series.last() is None

    def test_registry_reuses_instances(self):
        registry = MetricRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.series("c") is registry.series("c")

    def test_registry_snapshot(self):
        registry = MetricRegistry()
        registry.counter("a").inc(2)
        registry.gauge("b").set(5)
        registry.series("c").record(0, 1)
        snap = registry.snapshot()
        assert snap["counters"] == {"a": 2}
        assert snap["gauges"] == {"b": 5}
        assert snap["series"] == {"c": [(0, 1)]}
