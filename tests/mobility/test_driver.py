"""Tests for the mobility driver (movement -> link-event schedule)."""

from __future__ import annotations

import random

import pytest

from repro.mobility import MobilityDriver, RandomWaypoint
from repro.net.dynamics import TopologyDriver


def make_driver(seed=7, **kwargs):
    model = RandomWaypoint(
        10, (1000.0, 1000.0, 0.0), speed=(5.0, 15.0), pause=1.0,
        rng=random.Random(seed),
    )
    defaults = dict(radio_range=400.0, step=1.0)
    defaults.update(kwargs)
    return MobilityDriver(model, **defaults)


class TestSchedule:
    def test_is_a_topology_driver(self):
        assert isinstance(make_driver(), TopologyDriver)

    def test_same_seed_byte_identical_schedule(self):
        a = make_driver(seed=42).build(60.0)
        b = make_driver(seed=42).build(60.0)
        assert a.events == b.events
        assert a.initial_links == b.initial_links
        assert sorted(a.topology.links) == sorted(b.topology.links)

    def test_union_topology_covers_every_event(self):
        schedule = make_driver().build(60.0)
        for event in schedule.events:
            assert schedule.topology.has_link(event.a, event.b)

    def test_initially_down_is_union_minus_initial(self):
        schedule = make_driver().build(60.0)
        down = set(schedule.initially_down)
        assert down == set(schedule.topology.links) - schedule.initial_links
        assert schedule.initially_down == sorted(down)

    def test_events_are_time_ordered(self):
        events = make_driver().build(60.0).events
        assert all(
            events[i].time <= events[i + 1].time for i in range(len(events) - 1)
        )

    def test_alternating_transitions_per_link(self):
        """Per link the schedule must alternate fail/restore — the strict
        LinkScheduler would raise otherwise."""
        schedule = make_driver(seed=5).build(120.0)
        state = {key: True for key in schedule.initial_links}
        for event in schedule.events:
            key = event.link_key
            if event.kind == "fail":
                assert state.get(key, False), f"fail on down link {key}"
                state[key] = False
            else:
                assert not state.get(key, False), f"restore on up link {key}"
                state[key] = True

    def test_events_start_after_start_offset(self):
        schedule = make_driver(start=30.0).build(60.0)
        assert all(e.time > 30.0 for e in schedule.events)

    def test_generate_matches_build(self):
        driver = make_driver()
        events = driver.generate(60.0)
        assert tuple(events) == driver.build(60.0).events

    def test_rebuild_to_other_horizon_rejected(self):
        driver = make_driver()
        driver.build(60.0)
        with pytest.raises(ValueError, match="already built"):
            driver.build(90.0)

    def test_connected_at_start(self):
        schedule = make_driver().build(10.0)
        a, b = next(iter(schedule.initial_links))
        assert schedule.connected_at_start(a, b)
        assert schedule.connected_at_start(a, a)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_driver(step=0.0)
        with pytest.raises(ValueError):
            make_driver(start=-1.0)

    def test_connected_at_start_agrees_with_t0_path_search_for_every_pair(self):
        # A short range splits the field, so both answers occur (and
        # isolated nodes, which appear in no t=0 link, are exercised).
        from repro.topology.spatial import derive_topology

        schedule = make_driver(radio_range=250.0).build(10.0)
        initial = derive_topology(schedule.initial_positions, 250.0)
        answers = set()
        for a in sorted(initial.nodes):
            for b in sorted(initial.nodes):
                reachable = initial.shortest_path(a, b) is not None
                assert schedule.connected_at_start(a, b) == reachable, (a, b)
                answers.add(reachable)
        assert answers == {True, False}
