"""Tests for the packet flight recorder, autopsies, timelines, and dumps."""

from __future__ import annotations

import json

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario
from repro.obs.flight import (
    DEFAULT_CAPACITIES,
    DUMP_KIND,
    DUMP_SCHEMA_VERSION,
    FlightRecorder,
    Ring,
    build_causal_timeline,
    build_dump,
    check_dump,
    dump_records,
    format_autopsy,
    format_causal_timeline,
    load_dump,
    packet_autopsies,
    packet_autopsy,
    perfetto_trace,
    save_dump,
    write_perfetto,
)
from repro.routing.dv_common import DistanceVectorProtocol
from repro.sim.tracing import (
    TRACE_KINDS,
    DropCause,
    LinkEventRecord,
    MessageRecord,
    PacketRecord,
    RouteChangeRecord,
    TraceBus,
)
from repro.validation.monitors import MonitorSuite


def pkt(t, kind, node, pid=1, ttl=60, cause=None, dst=9, flow=0):
    return PacketRecord(
        time=t, kind=kind, packet_id=pid, node=node, flow_id=flow,
        ttl=ttl, cause=cause, dst=dst,
    )


def route(t, node, dest, old, new, cause=None):
    return RouteChangeRecord(
        time=t, node=node, dest=dest, old_next_hop=old, new_next_hop=new,
        cause=cause,
    )


def msg(t, sender, receiver, protocol="rip"):
    return MessageRecord(
        time=t, sender=sender, receiver=receiver, protocol=protocol, n_routes=1
    )


class TestRing:
    @pytest.mark.parametrize("capacity", [0, -1])
    def test_rejects_non_positive_capacity(self, capacity):
        with pytest.raises(ValueError):
            Ring(capacity)

    def test_keeps_exactly_the_newest_n(self):
        ring = Ring(3)
        for i in range(10):
            ring.append(i)
        assert ring.records() == [7, 8, 9]
        assert ring.appended == 10
        assert ring.evicted == 7
        assert len(ring) == 3

    def test_under_capacity_keeps_everything(self):
        ring = Ring(5)
        ring.append("a")
        ring.append("b")
        assert ring.records() == ["a", "b"]
        assert ring.evicted == 0

    def test_clear_resets_counters(self):
        ring = Ring(2)
        ring.append(1)
        ring.append(2)
        ring.append(3)
        ring.clear()
        assert ring.records() == []
        assert ring.appended == 0
        assert ring.evicted == 0

    def test_iterates_oldest_first(self):
        ring = Ring(2)
        for i in range(4):
            ring.append(i)
        assert list(ring) == [2, 3]


class TestFlightRecorder:
    def _quiet_bus(self):
        return TraceBus(
            keep_packets=False, keep_routes=False, keep_messages=False,
            keep_links=False,
        )

    def test_default_capacities_cover_every_kind(self):
        recorder = FlightRecorder()
        assert set(recorder.rings) == set(TRACE_KINDS)
        for kind in TRACE_KINDS:
            assert recorder.rings[kind].capacity == DEFAULT_CAPACITIES[kind]

    def test_rejects_unknown_capacity_kind(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacities={"quic": 16})

    def test_attach_flips_every_wants_guard(self):
        bus = self._quiet_bus()
        assert not any(bus.wants(kind) for kind in TRACE_KINDS)
        recorder = FlightRecorder()
        recorder.attach(bus)
        assert all(bus.wants(kind) for kind in TRACE_KINDS)
        recorder.close()
        assert not any(bus.wants(kind) for kind in TRACE_KINDS)

    def test_records_each_kind_into_its_ring(self):
        bus = self._quiet_bus()
        with FlightRecorder() as recorder:
            recorder.attach(bus)
            bus.publish(pkt(0.1, "send", 0))
            bus.publish(route(0.2, 1, 9, None, 2))
            bus.publish(LinkEventRecord(time=0.3, node_a=0, node_b=1, up=False))
            bus.publish(msg(0.4, 0, 1))
        assert [len(recorder.rings[k]) for k in TRACE_KINDS] == [1, 1, 1, 1]

    def test_double_attach_raises(self):
        recorder = FlightRecorder()
        recorder.attach(self._quiet_bus())
        with pytest.raises(RuntimeError):
            recorder.attach(self._quiet_bus())

    def test_close_is_idempotent_and_rings_stay_readable(self):
        bus = self._quiet_bus()
        recorder = FlightRecorder()
        recorder.attach(bus)
        bus.publish(pkt(0.1, "send", 0))
        recorder.close()
        recorder.close()
        assert not recorder.attached
        assert len(recorder.records("packet")) == 1
        bus.publish(pkt(0.2, "forward", 1))
        assert len(recorder.records("packet")) == 1  # detached: nothing lands

    def test_capacity_override_evicts_oldest(self):
        bus = self._quiet_bus()
        recorder = FlightRecorder(capacities={"packet": 2})
        recorder.attach(bus)
        for i in range(5):
            bus.publish(pkt(float(i), "forward", i, pid=i))
        recorder.close()
        assert [r.packet_id for r in recorder.records("packet")] == [3, 4]
        assert recorder.rings["packet"].evicted == 3

    def test_packet_ids_first_seen_order(self):
        bus = self._quiet_bus()
        recorder = FlightRecorder()
        recorder.attach(bus)
        for pid in (7, 3, 7, 5):
            bus.publish(pkt(0.1, "forward", 0, pid=pid))
        recorder.close()
        assert recorder.packet_ids() == [7, 3, 5]


class TestPacketAutopsy:
    def test_delivered_walk(self):
        records = [
            pkt(1.0, "send", 0, ttl=64),
            pkt(1.1, "forward", 1, ttl=63),
            pkt(1.2, "forward", 2, ttl=62),
            pkt(1.3, "deliver", 9, ttl=62),
        ]
        a = packet_autopsy(records, 1)
        assert a.outcome == "delivered"
        assert a.drop_cause is None
        assert a.path == (0, 1, 2, 9)
        assert a.n_hops == 3
        assert a.loop is None
        assert not a.truncated
        assert a.dst == 9

    def test_drop_cause_reported(self):
        records = [
            pkt(1.0, "send", 0),
            pkt(1.1, "drop", 3, cause=DropCause.NO_ROUTE),
        ]
        a = packet_autopsy(records, 1)
        assert a.outcome == "dropped"
        assert a.drop_cause is DropCause.NO_ROUTE

    def test_loop_detected(self):
        records = [
            pkt(1.0, "send", 0, ttl=5),
            pkt(1.1, "forward", 1, ttl=4),
            pkt(1.2, "forward", 2, ttl=3),
            pkt(1.3, "forward", 1, ttl=2),
            pkt(1.4, "forward", 2, ttl=1),
            pkt(1.5, "drop", 1, ttl=0, cause=DropCause.TTL_EXPIRED),
        ]
        a = packet_autopsy(records, 1)
        assert a.loop == (1, 2, 1)
        assert a.drop_cause is DropCause.TTL_EXPIRED

    def test_consecutive_duplicate_nodes_collapse(self):
        # A deliver happens on the same node as the last forward.
        records = [
            pkt(1.0, "send", 0),
            pkt(1.1, "forward", 9),
            pkt(1.1, "deliver", 9),
        ]
        a = packet_autopsy(records, 1)
        assert a.path == (0, 9)
        assert a.loop is None

    def test_truncated_when_send_evicted(self):
        records = [pkt(1.1, "forward", 3), pkt(1.2, "deliver", 9)]
        a = packet_autopsy(records, 1)
        assert a.truncated
        assert a.outcome == "delivered"

    def test_in_flight_when_no_terminal_record(self):
        a = packet_autopsy([pkt(1.0, "send", 0), pkt(1.1, "forward", 1)], 1)
        assert a.outcome == "in_flight"

    def test_missing_packet_raises_keyerror(self):
        with pytest.raises(KeyError):
            packet_autopsy([pkt(1.0, "send", 0, pid=1)], 42)

    def test_fib_entry_reconstructed_per_hop(self):
        routes = [
            route(0.0, 0, 9, None, 1),
            route(0.0, 1, 9, None, 2),
            route(1.05, 1, 9, 2, 4),  # node 1 flips mid-flight
        ]
        records = [pkt(1.0, "send", 0), pkt(1.1, "forward", 1)]
        a = packet_autopsy(records, 1, route_changes=routes)
        assert a.hops[0].fib_next_hop == 1
        assert a.hops[1].fib_next_hop == 4  # sees the post-flip entry

    def test_fib_unknown_without_route_records(self):
        a = packet_autopsy([pkt(1.0, "send", 0)], 1)
        assert a.hops[0].fib_next_hop is None

    def test_autopsies_groups_interleaved_packets(self):
        records = [
            pkt(1.0, "send", 0, pid=1),
            pkt(1.0, "send", 0, pid=2),
            pkt(1.2, "deliver", 9, pid=2),
            pkt(1.1, "drop", 1, pid=1, cause=DropCause.LINK_DOWN),
        ]
        out = packet_autopsies(records)
        assert set(out) == {1, 2}
        assert out[1].outcome == "dropped"
        assert out[2].outcome == "delivered"

    def test_format_autopsy_mentions_the_story(self):
        records = [
            pkt(1.0, "send", 0, ttl=3),
            pkt(1.1, "forward", 1, ttl=2),
            pkt(1.2, "forward", 0, ttl=1),
            pkt(1.3, "drop", 1, ttl=0, cause=DropCause.TTL_EXPIRED),
        ]
        text = format_autopsy(packet_autopsy(records, 1), origin=1.0)
        assert "dropped (ttl_expired)" in text
        assert "loop: 0 -> 1 -> 0" in text
        assert "+0.100s" in text


class TestCausalTimeline:
    def test_message_trigger_matched_latest_at_or_before(self):
        messages = [msg(1.0, 2, 1), msg(2.0, 2, 1), msg(9.0, 2, 1)]
        flips = build_causal_timeline(
            [route(2.5, 1, 9, None, 2, cause=("message", 2))],
            messages=messages,
        ).flips
        assert flips[0].trigger is messages[1]

    def test_trigger_needs_matching_adjacency(self):
        timeline = build_causal_timeline(
            [route(2.5, 1, 9, None, 2, cause=("message", 2))],
            messages=[msg(2.0, 3, 1), msg(2.0, 2, 4)],  # wrong sender / receiver
        )
        assert timeline.flips[0].trigger is None

    def test_link_cause_has_no_message_trigger(self):
        timeline = build_causal_timeline(
            [route(2.5, 1, 9, 2, None, cause=("link_down", 2))],
            messages=[msg(2.0, 2, 1)],
        )
        assert timeline.flips[0].trigger is None

    def test_wave_ordered_by_first_change(self):
        timeline = build_causal_timeline(
            [
                route(3.0, 5, 9, None, 1),
                route(1.0, 7, 9, None, 1),
                route(4.0, 7, 9, 1, 2),
                route(2.0, 6, 9, None, 1),
            ]
        )
        assert [a.node for a in timeline.wave] == [7, 6, 5]
        seven = timeline.wave[0]
        assert (seven.first_change, seven.last_change, seven.n_changes) == (1.0, 4.0, 2)
        assert timeline.first_change == 1.0
        assert timeline.converged_at == 4.0

    def test_since_and_dest_filters(self):
        timeline = build_causal_timeline(
            [
                route(1.0, 1, 9, None, 2),
                route(5.0, 1, 8, None, 2),
                route(6.0, 1, 9, 2, 3),
            ],
            link_events=[
                LinkEventRecord(time=0.5, node_a=0, node_b=1, up=False),
                LinkEventRecord(time=4.5, node_a=0, node_b=1, up=True),
            ],
            since=4.0,
            dest=9,
        )
        assert [f.record.time for f in timeline.flips] == [6.0]
        assert [e.time for e in timeline.links] == [4.5]

    def test_empty_timeline_has_no_convergence_time(self):
        timeline = build_causal_timeline([])
        assert timeline.first_change is None
        assert timeline.converged_at is None
        assert "(no routing activity)" in format_causal_timeline(timeline)

    def test_format_names_causes_and_wave(self):
        messages = [msg(2.0, 2, 1)]
        timeline = build_causal_timeline(
            [
                route(2.5, 1, 9, None, 2, cause=("message", 2)),
                route(3.0, 4, 9, 2, None, cause=("link_down", 2)),
            ],
            messages=messages,
            link_events=[LinkEventRecord(time=2.4, node_a=1, node_b=2, up=False)],
        )
        text = format_causal_timeline(timeline, origin=2.0)
        assert "link (1, 2) FAILED" in text
        assert "[message from 2 (rip sent t=+0.000s)]" in text
        assert "[link_down 2]" in text
        assert "update wave" in text
        assert "last FIB change t=+1.000s" in text


def _populated_recorder():
    bus = TraceBus(
        keep_packets=False, keep_routes=False, keep_messages=False,
        keep_links=False,
    )
    recorder = FlightRecorder(capacities={"packet": 4})
    recorder.attach(bus)
    for i in range(6):  # overflow the packet ring
        bus.publish(pkt(float(i), "forward", i, pid=i))
    bus.publish(route(1.0, 1, 9, None, 2, cause=("message", 2)))
    bus.publish(LinkEventRecord(time=0.5, node_a=0, node_b=1, up=False))
    bus.publish(msg(0.9, 2, 1))
    recorder.close()
    return recorder


class TestDumps:
    def test_dump_shape_and_ring_accounting(self):
        dump = build_dump(
            _populated_recorder(),
            meta={"protocol": "rip"},
            violations=["[fib-loop] t=1.0: boom"],
            counters={"sends": 6},
        )
        assert dump["schema_version"] == DUMP_SCHEMA_VERSION
        assert dump["kind"] == DUMP_KIND
        assert dump["meta"] == {"protocol": "rip"}
        assert dump["violations"] == ["[fib-loop] t=1.0: boom"]
        assert dump["counters"] == {"sends": 6}
        ring = dump["rings"]["packet"]
        assert ring["capacity"] == 4
        assert ring["appended"] == 6
        assert len(ring["records"]) == 4

    def test_save_load_save_byte_identical(self, tmp_path):
        dump = build_dump(_populated_recorder(), meta={"seed": 7})
        first = tmp_path / "dump.json"
        second = tmp_path / "dump2.json"
        save_dump(dump, str(first))
        save_dump(load_dump(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_dump_records_round_trip(self, tmp_path):
        recorder = _populated_recorder()
        path = tmp_path / "dump.json"
        save_dump(build_dump(recorder), str(path))
        decoded = dump_records(load_dump(str(path)))
        assert decoded["packet"] == recorder.records("packet")
        assert decoded["route"] == recorder.records("route")
        assert decoded["link"] == recorder.records("link")
        assert decoded["message"] == recorder.records("message")

    def test_dump_records_skips_unknown_kind_with_warning(self):
        dump = build_dump(_populated_recorder())
        dump["rings"]["packet"]["records"].append({"type": "quic", "time": 99.0})
        with pytest.warns(UserWarning, match="quic"):
            decoded = dump_records(dump)
        assert len(decoded["packet"]) == 4  # the bad record was dropped

    def test_check_dump_accepts_a_real_dump(self, tmp_path):
        path = tmp_path / "dump.json"
        save_dump(build_dump(_populated_recorder()), str(path))
        assert check_dump(load_dump(str(path))) == []

    def test_check_dump_rejects_non_object(self):
        assert check_dump([1, 2]) == ["dump must be a JSON object"]

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda d: d.update(schema_version=99), "schema_version"),
            (lambda d: d.update(kind="nope"), "kind"),
            (lambda d: d.update(meta=3), "meta"),
            (lambda d: d.update(violations=[1]), "violations"),
            (lambda d: d.update(counters={"sends": -1}), "counters['sends']"),
            (lambda d: d["rings"].pop("link"), "missing kind 'link'"),
            (lambda d: d["rings"].update(quic={}), "unknown kinds"),
            (lambda d: d["rings"]["route"].update(capacity=0), "capacity"),
        ],
    )
    def test_check_dump_flags_structural_damage(self, mutate, needle):
        dump = build_dump(_populated_recorder(), counters={"sends": 6})
        mutate(dump)
        problems = check_dump(dump)
        assert any(needle in p for p in problems), problems

    @pytest.mark.parametrize("field", ["capacity", "appended"])
    def test_check_dump_rejects_json_true_as_a_ring_count(self, field):
        """``isinstance(True, int)`` holds in Python; in a dump it is damage."""
        dump = build_dump(_populated_recorder())
        dump["rings"]["link"][field] = True
        problems = check_dump(dump)
        assert any(f"{field!r} must be an int" in p and "got True" in p for p in problems)

    def test_check_dump_flags_ring_invariant_violations(self):
        dump = build_dump(_populated_recorder())
        ring = dump["rings"]["packet"]
        ring["records"].append(ring["records"][0])  # over capacity + backwards
        problems = check_dump(dump)
        assert any("capacity" in p for p in problems)
        assert any("goes backwards" in p for p in problems)

    def test_check_dump_flags_wrong_record_type(self):
        dump = build_dump(_populated_recorder())
        dump["rings"]["route"]["records"][0]["type"] = "packet"
        problems = check_dump(dump)
        assert any("'type' must be 'route'" in p for p in problems)


class TestPerfetto:
    def _trace(self):
        return perfetto_trace(
            packets=[pkt(1.0, "send", 0), pkt(1.1, "forward", 1)],
            route_changes=[route(1.05, 1, 9, None, 2, cause=("message", 2))],
            link_events=[LinkEventRecord(time=0.9, node_a=0, node_b=1, up=False)],
            messages=[msg(0.95, 2, 1)],
        )

    def test_required_keys_present(self):
        trace = self._trace()
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        for ev in trace["traceEvents"]:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(ev)

    def test_instant_events_monotonic_microseconds(self):
        events = [e for e in self._trace()["traceEvents"] if e["ph"] == "i"]
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)
        assert ts[0] == 900000.0  # 0.9s link failure, in microseconds

    def test_pid_tid_are_node_ids(self):
        trace = self._trace()
        node_ids = {0, 1, 2, 9}  # 9 never emits an event, only appears as dest
        for ev in trace["traceEvents"]:
            assert ev["pid"] == ev["tid"]
            assert ev["pid"] in node_ids

    def test_metadata_names_every_emitting_node(self):
        meta = [e for e in self._trace()["traceEvents"] if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {0, 1, 2}
        assert all(e["name"] == "process_name" for e in meta)

    def test_write_perfetto_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_perfetto(self._trace(), str(path))
        loaded = json.loads(path.read_text())
        assert loaded == self._trace()


GOLDEN_CONFIG = ExperimentConfig.quick().with_(
    rows=5, cols=5, runs=1, post_fail_window=30.0, record_paths=True
)

_RESULT_FIELDS = (
    "sent",
    "delivered",
    "drops_no_route",
    "drops_ttl",
    "drops_link_down",
    "drops_queue",
    "routing_convergence",
    "destination_convergence",
    "forwarding_convergence",
    "converged_to_expected",
    "transient_path_count",
    "messages",
    "withdrawals",
    "sender",
    "receiver",
    "failed_link",
    "pre_failure_path",
    "expected_final_path",
)


class TestRecorderIsInvisible:
    """The recorder must not perturb the physics it observes."""

    @pytest.mark.parametrize("protocol", ["dbf", "bgp3"])
    def test_recorder_on_off_bit_identical(self, protocol):
        plain = run_scenario(protocol, 4, 7, GOLDEN_CONFIG)
        recorder = FlightRecorder()
        recorded = run_scenario(protocol, 4, 7, GOLDEN_CONFIG, recorder=recorder)
        for field in _RESULT_FIELDS:
            assert getattr(recorded, field) == getattr(plain, field), field
        assert recorded.delay.values == plain.delay.values
        assert recorded.throughput.values == plain.throughput.values
        # And it actually recorded: rings hold the run's records.
        assert len(recorder.records("packet")) > 0
        assert len(recorder.records("route")) > 0
        assert len(recorder.records("link")) > 0
        assert len(recorder.records("message")) > 0


def _inverted_split_horizon(self, dest, neighbor):
    """Advertise the *true* metric back to the next hop (the PR 2 bug)."""
    route = self.table[dest]
    if route.next_hop != neighbor:
        return self.config.infinity
    return min(route.metric, self.config.infinity)


class TestPostMortemEndToEnd:
    def test_violation_dumps_and_autopsy_shows_the_loop(self, tmp_path, monkeypatch):
        """Fuzzer-style bug -> monitor fires -> dump written -> the dump's own
        packet autopsies exhibit the transient loop hop sequence."""
        monkeypatch.setattr(
            DistanceVectorProtocol, "_advertised_metric", _inverted_split_horizon
        )
        config = ExperimentConfig.quick().with_(post_fail_window=30.0)
        recorder = FlightRecorder()
        result = run_scenario(
            "rip", 3, 19, config, monitors=MonitorSuite(),
            recorder=recorder, dump_dir=str(tmp_path),
        )
        assert any("[fib-loop]" in v for v in result.violations)
        assert result.dump_path is not None
        assert result.dump_path.startswith(str(tmp_path))

        dump = load_dump(result.dump_path)
        assert check_dump(dump) == []
        assert dump["violations"] == list(result.violations)
        assert dump["meta"]["protocol"] == "rip"
        assert dump["meta"]["seed"] == 19

        records = dump_records(dump)
        autopsies = packet_autopsies(records["packet"], records["route"])
        looped = [a for a in autopsies.values() if a.loop is not None]
        assert looped, "expected packets caught in the transient loop"
        victim = looped[0]
        # The loop is a real hop sequence: the packet revisits a node.
        assert victim.loop[0] == victim.loop[-1]
        assert len(victim.loop) >= 3
        # TTL death is the loop's signature in the aggregate counters.
        assert result.drops_ttl > 0
        assert any(
            a.drop_cause is DropCause.TTL_EXPIRED for a in autopsies.values()
        )

    def test_no_dump_without_violations(self, tmp_path):
        result = run_scenario(
            "dbf", 4, 7, ExperimentConfig.quick(), monitors=MonitorSuite(),
            dump_dir=str(tmp_path),
        )
        assert not result.violations
        assert result.dump_path is None
        assert list(tmp_path.iterdir()) == []
