"""Unit and mutation tests for the typed metrics registry.

The mutation tests follow ``tests/validation/test_bug_injection.py``:
deliberately corrupt an internal invariant (here: a histogram bucket
boundary), assert ``self_check`` reports it, and keep a clean control run
beside every corruption so the check is known to be quiet on healthy data.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


class TestMerge:
    def test_counters_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("events").inc(10)
        b.counter("events").inc(32)
        b.counter("only_b").inc(1)
        a.merge(b)
        assert a.get("events").value == 42
        assert a.get("only_b").value == 1

    def test_gauges_take_the_max_of_value_and_hwm(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        ga = a.gauge("depth")
        ga.set(9.0)
        ga.set(3.0)  # value 3, hwm 9
        gb = b.gauge("depth")
        gb.set(5.0)  # value 5, hwm 5
        a.merge(b)
        assert a.get("depth").value == 5.0
        assert a.get("depth").hwm == 9.0

    def test_gauge_absent_on_self_copies_both_fields(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        gb = b.gauge("depth")
        gb.set(7.0)
        gb.set(2.0)
        a.merge(b)
        assert (a.get("depth").value, a.get("depth").hwm) == (2.0, 7.0)

    def test_histograms_add_elementwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        ha = a.histogram("lat", bounds=(1.0, 5.0))
        hb = b.histogram("lat", bounds=(1.0, 5.0))
        for v in (0.5, 3.0):
            ha.observe(v)
        for v in (3.0, 99.0):
            hb.observe(v)
        a.merge(b)
        merged = a.get("lat")
        assert merged.counts == [1, 2, 1]
        assert merged.count == 4
        assert merged.total == pytest.approx(105.5)

    def test_histogram_bounds_mismatch_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("lat", bounds=(1.0, 5.0))
        b.histogram("lat", bounds=(1.0, 10.0))
        with pytest.raises(ValueError, match="bounds mismatch"):
            a.merge(b)

    def test_name_type_collision_rejected(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x")
        b.gauge("x").set(1.0)
        with pytest.raises(ValueError, match="already registered"):
            a.merge(b)

    def test_merge_returns_self(self):
        a = MetricsRegistry()
        assert a.merge(MetricsRegistry()) is a


class TestMergeProperties:
    """Merge of arbitrary splits == the unsharded registry."""

    @staticmethod
    def _apply(reg: MetricsRegistry, ops) -> None:
        for kind, amount in ops:
            if kind == "counter":
                reg.counter("events").inc(amount)
            elif kind == "gauge":
                reg.gauge("depth").set(float(amount))
            else:
                reg.histogram("lat", bounds=(1.0, 5.0, 25.0)).observe(
                    float(amount)
                )

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["counter", "gauge", "hist"]),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=60,
        ),
        n_shards=st.integers(min_value=1, max_value=4),
    )
    def test_merge_of_splits_equals_unsharded(self, ops, n_shards):
        # Counters and histograms are extensive, so any round-robin split
        # of the operation stream must merge back to the whole.  Gauges are
        # last-value/max, so the property pins hwm (order-free) and checks
        # the merged value is the max over the shards' final values.
        whole = MetricsRegistry()
        self._apply(whole, ops)

        shards = [MetricsRegistry() for _ in range(n_shards)]
        for i, op in enumerate(ops):
            self._apply(shards[i % n_shards], [op])
        merged = MetricsRegistry()
        for shard in shards:
            merged.merge(shard)

        assert merged.self_check() == []
        whole_snap, merged_snap = whole.snapshot(), merged.snapshot()
        assert sorted(whole_snap) == sorted(merged_snap)
        for name, data in whole_snap.items():
            if data["kind"] == "gauge":
                finals = [
                    s.get(name).value for s in shards if s.get(name) is not None
                ]
                assert merged_snap[name]["hwm"] == data["hwm"]
                assert merged_snap[name]["value"] == max(finals)
            else:
                assert merged_snap[name] == data

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["counter", "gauge", "hist"]),
                st.integers(min_value=0, max_value=100),
            ),
            max_size=40,
        )
    )
    def test_merge_round_trips_through_dict(self, ops):
        # An empty registry is merge's identity: merging a registry into
        # one copies every instrument exactly.
        reg = MetricsRegistry()
        self._apply(reg, ops)
        assert MetricsRegistry().merge(reg).snapshot() == reg.snapshot()
