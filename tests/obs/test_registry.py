"""Unit and mutation tests for the typed metrics registry.

The mutation tests follow ``tests/validation/test_bug_injection.py``:
deliberately corrupt an internal invariant (here: a histogram bucket
boundary), assert ``self_check`` reports it, and keep a clean control run
beside every corruption so the check is known to be quiet on healthy data.
"""

from __future__ import annotations

import pytest

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("events")
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_rejects_negative_increment(self):
        c = Counter("events")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_as_dict(self):
        c = Counter("events")
        c.inc(3)
        assert c.as_dict() == {"kind": "counter", "value": 3}


class TestGauge:
    def test_tracks_value_and_high_water_mark(self):
        g = Gauge("depth")
        g.set(5.0)
        g.set(2.0)
        assert g.value == 2.0
        assert g.hwm == 5.0

    def test_as_dict(self):
        g = Gauge("depth")
        g.set(1.5)
        assert g.as_dict() == {"kind": "gauge", "value": 1.5, "hwm": 1.5}


class TestHistogram:
    def test_observe_places_values_in_buckets(self):
        h = Histogram("lat", bounds=(1.0, 5.0, 10.0))
        for v in (0.5, 1.0, 3.0, 10.0, 99.0):
            h.observe(v)
        # bisect_right: a value equal to a bound starts the next bucket,
        # so bucket i covers [bounds[i-1], bounds[i]).
        assert h.counts == [1, 2, 0, 2]
        assert h.count == 5
        assert h.total == pytest.approx(113.5)
        assert h.mean == pytest.approx(113.5 / 5)

    def test_overflow_bucket_catches_everything_above_last_bound(self):
        h = Histogram("lat", bounds=(1.0,))
        h.observe(1e9)
        assert h.counts == [0, 1]

    def test_rejects_empty_bounds(self):
        with pytest.raises(ValueError):
            Histogram("lat", bounds=())

    def test_rejects_non_monotonic_bounds(self):
        with pytest.raises(ValueError):
            Histogram("lat", bounds=(1.0, 1.0, 2.0))

    def test_default_buckets_are_valid(self):
        h = Histogram("lat")
        assert h.bounds == DEFAULT_BUCKETS
        assert len(h.counts) == len(DEFAULT_BUCKETS) + 1


class TestRegistry:
    def test_create_or_get_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_type_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_get_returns_none_for_unknown(self):
        assert MetricsRegistry().get("nope") is None

    def test_snapshot_is_sorted_and_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.counter("a").inc(1)
        snap = reg.snapshot()
        assert list(snap) == ["a", "b"]
        assert snap["a"] == {"kind": "counter", "value": 1}

    def test_len_and_iter(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert len(reg) == 2
        assert [m.name for m in reg] == ["a", "b"]


class TestSelfCheckMutations:
    """Corrupt one invariant at a time; the audit must name each."""

    @staticmethod
    def _healthy_registry() -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("events").inc(10)
        g = reg.gauge("depth")
        g.set(3.0)
        h = reg.histogram("lat", bounds=(1.0, 5.0, 10.0))
        for v in (0.5, 2.0, 7.0, 50.0):
            h.observe(v)
        return reg

    def test_clean_registry_passes_the_audit(self):
        # Control: the same registry every mutation below starts from.
        assert self._healthy_registry().self_check() == []

    def test_corrupted_bucket_boundary_is_detected(self):
        reg = self._healthy_registry()
        h = reg.get("lat")
        # Simulated corruption: the middle bucket boundary collapses below
        # its predecessor (a bad deserialization or a stray write).
        h.bounds = (1.0, 0.5, 10.0)
        problems = reg.self_check()
        assert any("strictly" in p and "'lat'" in p for p in problems)

    def test_bucket_count_length_mismatch_is_detected(self):
        reg = self._healthy_registry()
        reg.get("lat").counts.append(0)
        problems = reg.self_check()
        assert any("buckets" in p for p in problems)

    def test_negative_bucket_count_is_detected(self):
        reg = self._healthy_registry()
        h = reg.get("lat")
        h.counts[1] -= 2  # keeps the length right, breaks non-negativity
        problems = reg.self_check()
        assert any("negative bucket" in p for p in problems)

    def test_bucket_sum_vs_count_disagreement_is_detected(self):
        reg = self._healthy_registry()
        reg.get("lat").count += 1
        problems = reg.self_check()
        assert any("sum to" in p for p in problems)

    def test_negative_counter_is_detected(self):
        reg = self._healthy_registry()
        reg.get("events").value = -1
        problems = reg.self_check()
        assert any("counter" in p and "negative" in p for p in problems)

    def test_gauge_hwm_below_value_is_detected(self):
        reg = self._healthy_registry()
        reg.get("depth").hwm = 1.0  # value is 3.0
        problems = reg.self_check()
        assert any("high-water" in p for p in problems)

    def test_each_mutation_reports_exactly_its_own_problem(self):
        # The audit localizes: corrupting 'lat' never implicates 'events'.
        reg = self._healthy_registry()
        reg.get("lat").bounds = (5.0, 1.0, 10.0)
        problems = reg.self_check()
        assert len(problems) == 1
        assert "'lat'" in problems[0]
