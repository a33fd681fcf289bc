"""Tests for the packet flight recorder, autopsies, timelines, and dumps."""

from __future__ import annotations

import json
import os
import re
from dataclasses import replace

import pytest

from repro.cli import main
from repro.experiments.churn import run_churn_scenario
from repro.experiments.config import ChurnConfig, ExperimentConfig
from repro.experiments.persistence import diff_runs, scenario_to_dict
from repro.experiments.scenario import ScenarioRun, replay, run_scenario
from repro.metrics.convergence import PathSnapshot
from repro.net.dynamics import ScriptedDriver
from repro.net.packet import reset_packet_ids
from repro.obs.flight import (
    DUMP_KIND,
    DUMP_SCHEMA_VERSION,
    FlightRecorder,
    build_causal_timeline,
    build_dump,
    check_dump,
    format_autopsy,
    format_causal_timeline,
    load_dump,
    packet_autopsies,
    packet_autopsy,
    perfetto_trace,
    save_dump,
    write_perfetto,
)
from repro.records import ArtifactError
from repro.routing.catalog import PROTOCOLS
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

from tests.golden.runs import GOLDEN_CONFIG, GOLDEN_POINTS


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


def guards(bus):
    return [getattr(bus, f"wants_{kind}") for kind in TRACE_KINDS]


class TestFlightRecorder:
    def test_one_stream_per_kind(self):
        assert set(FlightRecorder().streams) == set(TRACE_KINDS)

    def test_attach_flips_every_wants_guard(self):
        bus = TraceBus()
        assert not any(guards(bus))
        recorder = FlightRecorder()
        recorder.attach(bus)
        assert all(guards(bus))
        recorder.close()
        assert not any(guards(bus))

    def test_records_each_kind_into_its_stream(self):
        bus = TraceBus()
        with FlightRecorder() as recorder:
            recorder.attach(bus)
            bus.publish(pkt(0.1, "send", 0))
            bus.publish(route(0.2, 1, 9, None, 2))
            bus.publish(LinkEventRecord(time=0.3, node_a=0, node_b=1, up=False))
            bus.publish(msg(0.4, 0, 1))
        assert [len(recorder.records(k)) for k in TRACE_KINDS] == [1, 1, 1, 1]

    def test_double_attach_raises(self):
        recorder = FlightRecorder()
        recorder.attach(TraceBus())
        with pytest.raises(RuntimeError):
            recorder.attach(TraceBus())

    def test_close_is_idempotent_and_records_stay_readable(self):
        bus = TraceBus()
        recorder = FlightRecorder()
        recorder.attach(bus)
        bus.publish(pkt(0.1, "send", 0))
        recorder.close()
        recorder.close()
        assert not recorder.attached
        assert len(recorder.records("packet")) == 1
        bus.publish(pkt(0.2, "forward", 1))
        assert len(recorder.records("packet")) == 1  # detached: nothing lands

    def test_keeps_every_record(self):
        bus = TraceBus()
        with FlightRecorder() as recorder:
            recorder.attach(bus)
            for i in range(20_000):
                bus.publish(pkt(float(i), "forward", i % 7, pid=i))
        assert [r.packet_id for r in recorder.records("packet")] == list(range(20_000))


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

    def test_lines_come_out_in_time_order(self):
        timeline = build_causal_timeline(
            [route(2.5, 1, 9, 2, None), route(4.0, 0, 9, 1, 2)],
            link_events=[LinkEventRecord(time=2.4, node_a=1, node_b=2, up=False)],
        )
        paths = (
            PathSnapshot(time=2.5, path=(0, 1), state="broken"),
            PathSnapshot(time=3.0, path=(0, 1, 0), state="loop"),
            PathSnapshot(time=4.0, path=(0, 2, 9), state="ok"),
        )
        text = format_causal_timeline(replace(timeline, paths=paths), origin=2.0)
        lines = [line for line in text.splitlines() if line.startswith("  t=")]
        assert [line.split("s  ", 1)[1] for line in lines] == [
            "link (1, 2) FAILED",
            "node 1: dest 9 2 -> None",
            "forwarding path BROKEN at node 1 (0 -> 1 ...)",
            "forwarding path LOOPS: 0 -> 1 -> 0",
            "node 0: dest 9 1 -> 2",
            "forwarding path now 0 -> 2 -> 9",
        ]

    def test_fib_changes_beyond_the_cap_are_counted(self):
        timeline = build_causal_timeline(
            [route(float(i), 1, 9, None, 2) for i in range(12)]
        )
        text = format_causal_timeline(timeline, max_events=10)
        assert text.count(": dest 9 None -> 2") == 10
        assert "... 2 more FIB changes omitted" in text


#: The mobility-churn cell whose monitors fire (16 nodes on a Manhattan grid).
CHURN_CONFIG = ExperimentConfig.quick().with_(
    post_fail_window=20.0,
    churn=ChurnConfig(model="manhattan", n_nodes=16, radio_range=400.0),
)

#: A ticket names its run, it does not carry its records.
TICKET_BYTES = 16_000


def _ticket(protocol="dbf", seed=7):
    result = run_scenario(protocol, 4, seed, GOLDEN_CONFIG)
    return build_dump("scenario", protocol, 4, seed, GOLDEN_CONFIG, scenario_to_dict(result))


def _streams(recorder):
    return {kind: recorder.records(kind) for kind in TRACE_KINDS}


class TestFlowPaths:
    """``paths`` replays the recorded route stream into a tracker: it must
    hold the states the run's own tracker saw."""

    @pytest.mark.parametrize("protocol", list(PROTOCOLS))
    def test_paths_equal_the_live_tracker(self, protocol):
        config = GOLDEN_CONFIG.with_(post_fail_window=10.0)
        recorder = FlightRecorder()
        run = ScenarioRun(protocol, 4, 7, config, flows=(), recorder=recorder)
        try:
            run.execute()
        finally:
            run.close()
        layout = run.layout
        timeline = recorder.timeline(run.fail_at, layout.receiver, layout.sender)
        assert list(timeline.paths) == run.tracker.transient_paths(run.fail_at)

    def test_a_reactive_flow_starts_from_an_empty_view(self, monkeypatch):
        """AODV installs nothing at warm start, so the live tracker starts
        from a broken one-node path; the replay must too, or the first
        install on the way to the sender adds a state the run never saw."""
        runs = []
        to_result = ScenarioRun.to_result
        monkeypatch.setattr(
            ScenarioRun, "to_result", lambda run: runs.append(run) or to_result(run)
        )
        config = CHURN_CONFIG.with_(
            churn=replace(CHURN_CONFIG.churn, model="waypoint")
        )
        recorder = FlightRecorder()
        result = run_churn_scenario("aodv", 1, config, recorder=recorder)
        (run,) = runs
        assert run.tracker.snapshots[0].path == (result.sender,)
        whole = recorder.timeline(dest=result.receiver, src=result.sender)
        assert list(whole.paths) == run.tracker.snapshots[1:]
        after = recorder.timeline(run.fail_at, result.receiver, result.sender)
        assert list(after.paths) == run.tracker.transient_paths(run.fail_at)


class TestDumps:
    def test_dump_is_a_ticket_naming_the_run(self):
        dump = _ticket()
        assert dump["schema_version"] == DUMP_SCHEMA_VERSION == 2
        assert dump["kind"] == DUMP_KIND
        assert (dump["run"], dump["protocol"], dump["degree"], dump["seed"]) == (
            "scenario", "dbf", 4, 7,
        )
        assert dump["config"] == GOLDEN_CONFIG.to_dict()
        assert dump["fingerprint"] == GOLDEN_CONFIG.fingerprint()
        assert dump["result"]["violations"] == []
        assert set(dump) == {
            "schema_version", "kind", "run", "protocol", "degree", "seed",
            "config", "fingerprint", "result",
        }

    def test_save_load_save_byte_identical(self, tmp_path):
        first = tmp_path / "dump.json"
        second = tmp_path / "dump2.json"
        save_dump(_ticket(), str(first))
        save_dump(load_dump(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_check_dump_accepts_a_real_dump(self, tmp_path):
        path = tmp_path / "dump.json"
        save_dump(_ticket(), str(path))
        assert check_dump(load_dump(str(path))) == []

    def test_check_dump_rejects_non_object(self):
        assert check_dump([1, 2]) == ["dump must be a JSON object"]

    @pytest.mark.parametrize(
        "mutate, needle",
        [
            (lambda d: d.update(schema_version=99), "schema_version"),
            (lambda d: d.update(kind="nope"), "kind"),
            (lambda d: d.update(run="narrate"), "'run'"),
            (lambda d: d.update(degree=True), "'degree' must be an int >= 0"),
            (lambda d: d.pop("config"), "'config'"),
            (lambda d: d.update(fingerprint=""), "'fingerprint'"),
            (lambda d: d.update(result=[]), "'result'"),
        ],
    )
    def test_check_dump_flags_structural_damage(self, mutate, needle):
        dump = _ticket()
        mutate(dump)
        problems = check_dump(dump)
        assert any(needle in p for p in problems), problems

    def test_load_dump_names_an_old_version(self, tmp_path):
        path = tmp_path / "v1.json"
        save_dump({**_ticket(), "schema_version": 1}, str(path))
        with pytest.raises(ArtifactError, match="version 1.*only version 2"):
            load_dump(str(path))


class TestReplay:
    """A ticket re-runs to the same result and a complete recording."""

    @pytest.mark.parametrize("protocol, seed", GOLDEN_POINTS)
    def test_golden_ticket_replays(self, protocol, seed, tmp_path):
        direct = FlightRecorder()
        result = run_scenario(protocol, 4, seed, GOLDEN_CONFIG, recorder=direct)
        path = str(tmp_path / "ticket.json")
        save_dump(
            build_dump("scenario", protocol, 4, seed, GOLDEN_CONFIG, scenario_to_dict(result)),
            path,
        )
        assert os.path.getsize(path) < TICKET_BYTES
        replayed, recorder = replay(load_dump(path))
        assert scenario_to_dict(replayed) == scenario_to_dict(result)
        assert _streams(recorder) == _streams(direct)
        assert not recorder.attached

    @pytest.mark.parametrize("protocol", ["rip", "dual"])
    @pytest.mark.parametrize("how", ["monitors", "validate"])
    def test_churn_post_mortem_replays(self, protocol, how, tmp_path):
        """Both ways of asking for monitors write a ticket whose replay
        attaches the same suite and reproduces every violation."""
        if how == "monitors":
            result = run_churn_scenario(
                protocol, 1, CHURN_CONFIG, monitors=MonitorSuite(), dump_dir=str(tmp_path)
            )
        else:
            result = run_churn_scenario(
                protocol, 1, CHURN_CONFIG.with_(validate=True), dump_dir=str(tmp_path)
            )
        assert result.violations and result.dump_path is not None
        assert os.path.getsize(result.dump_path) < TICKET_BYTES
        ticket = load_dump(result.dump_path)
        assert ticket["run"] == "churn"

        replayed, recorder = replay(ticket)
        assert replayed.violations == result.violations
        assert scenario_to_dict(replayed) == {**scenario_to_dict(result), "dump_path": None}
        direct = FlightRecorder()
        reset_packet_ids()  # as the replay does
        run_churn_scenario(protocol, 1, CHURN_CONFIG, monitors=MonitorSuite(), recorder=direct)
        assert _streams(recorder) == _streams(direct)

    def test_replay_keeps_every_control_message(self, tmp_path):
        """The dual cell sends more messages than the old 4 096-record ring held."""
        result = run_churn_scenario(
            "dual", 1, CHURN_CONFIG, monitors=MonitorSuite(), dump_dir=str(tmp_path)
        )
        _, recorder = replay(load_dump(result.dump_path))
        assert len(recorder.records("message")) == 7574

    def test_edited_config_is_refused(self):
        ticket = _ticket()
        ticket["config"]["rate_pps"] += 1.0
        with pytest.raises(ArtifactError, match="fingerprint"):
            replay(ticket)

    def test_config_that_does_not_build_is_refused(self):
        ticket = _ticket()
        ticket["config"]["warp"] = 9
        with pytest.raises(ArtifactError, match="config does not build.*warp"):
            replay(ticket)

    def test_edited_result_field_is_refused(self):
        ticket = _ticket()
        ticket["result"]["sent"] += 1
        with pytest.raises(ArtifactError, match="differs in sent"):
            replay(ticket)

    def test_result_of_another_run_is_refused(self):
        ticket = _ticket()
        ticket["seed"] = 8
        with pytest.raises(ArtifactError, match="names seed 8"):
            replay(ticket)

    def test_v1_ticket_is_refused(self):
        ticket = {**_ticket(), "schema_version": 1}
        with pytest.raises(ArtifactError, match="schema_version must be 2"):
            replay(ticket)

    def test_dump_dir_and_driver_factory_are_refused_together(self, tmp_path):
        with pytest.raises(ValueError, match="dump_dir.*driver_factory"):
            run_scenario(
                "dbf", 4, 7, GOLDEN_CONFIG, dump_dir=str(tmp_path),
                driver_factory=lambda plan: ScriptedDriver(()),
            )


def _trace(argv, capsys):
    assert main(["trace", *argv]) == 0
    return capsys.readouterr().out


class TestTraceCommand:
    def test_default_run_shows_both_lost_packets(self, capsys):
        """Both drops happen at the failure, ~12 000 packet records before
        the run ends: the autopsies need the complete recording."""
        out = _trace(["--protocol", "dbf", "--seed", "7"], capsys)
        assert "drops=2" in out
        assert "2 dropped/looped packet(s)" in out
        assert "packet 100 (flow 1, dst 50): dropped (link_down)" in out
        assert "packet 101 (flow 1, dst 50): dropped (no_route)" in out

    def test_dump_replays_the_live_output(self, capsys, tmp_path):
        ticket = str(tmp_path / "ticket.json")
        live = _trace(["--seed", "7", "--out", ticket], capsys).splitlines()
        replayed = _trace(["--dump", ticket], capsys).splitlines()
        assert replayed[0] == f"replayed flight dump {ticket}: the re-run reproduces its result"
        assert live[-1] == f"flight dump written to {ticket} (self-check ok)"
        assert replayed[1:] == live[:-2]

    def test_timeline_tells_the_flows_story(self, capsys):
        """The MRAI-paced loops of a BGP failure (paper §5.2), each FIB
        change with the message that caused it."""
        out = _trace(["--protocol", "bgp", "--degree", "5", "--seed", "4", "--timeline"], capsys)
        assert "flow: host 49 -> host 50; failing (38, 45) at t=10" in out
        loops = re.findall(r"t=\s*(\S+)s  forwarding path LOOPS", out)
        assert loops == ["+0.051", "+0.053", "+0.053", "+26.631", "+28.251", "+29.720"]
        assert "t=  +29.982s  forwarding path now 49 -> 1 -> 8 -> 15 -> 22" in out
        flips = re.findall(r"node \d+: dest (\d+) .*", out)
        assert flips and all(dest == "50" for dest in flips)
        assert all("  [" in line for line in re.findall(r"node \d+: dest .*", out))

    def test_churn_ticket_prints_one_wave_line_per_event(self, capsys, tmp_path):
        result = run_churn_scenario("rip", 1, CHURN_CONFIG)
        path = str(tmp_path / "ticket.json")
        save_dump(
            build_dump("churn", "rip", 0, 1, CHURN_CONFIG, scenario_to_dict(result)), path
        )
        out = _trace(["--dump", path, "--timeline"], capsys)
        waves = re.findall(r"^    t=.* (fail|restore) \(\d+, \d+\): ", out, re.M)
        assert len(result.events) > 1
        assert waves == [e.kind for e in result.events]

    @pytest.mark.parametrize(
        "edit, needle",
        [
            (lambda d: d.update(schema_version=1), "version 1.*only version 2"),
            (lambda d: d["config"].update(rate_pps=21.0), "fingerprint"),
            (lambda d: d["result"].update(sent=1), "differs in sent"),
        ],
        ids=["v1", "config", "result"],
    )
    def test_hostile_ticket_is_one_named_error(self, edit, needle, capsys, tmp_path):
        ticket = _ticket()
        edit(ticket)
        path = str(tmp_path / "ticket.json")
        save_dump(ticket, path)
        assert main(["trace", "--dump", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert path in captured.err
        assert re.search(needle, captured.err), captured.err


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


class TestRecorderIsInvisible:
    """The recorder must not perturb the physics it observes."""

    @pytest.mark.parametrize("protocol", ["dbf", "bgp3"])
    def test_recorder_on_off_bit_identical(self, protocol):
        plain = run_scenario(protocol, 4, 7, GOLDEN_CONFIG)
        recorder = FlightRecorder()
        recorded = run_scenario(protocol, 4, 7, GOLDEN_CONFIG, recorder=recorder)
        assert diff_runs(plain, recorded) == []
        # And it actually recorded: its streams hold the run's records.
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
        """Fuzzer-style bug -> monitor fires -> ticket written -> its replay's
        packet autopsies exhibit the transient loop hop sequence."""
        monkeypatch.setattr(
            DistanceVectorProtocol, "_advertised_metric", _inverted_split_horizon
        )
        config = ExperimentConfig.quick().with_(post_fail_window=30.0)
        result = run_scenario(
            "rip", 3, 19, config, monitors=MonitorSuite(), dump_dir=str(tmp_path),
        )
        assert any("[fib-loop]" in v for v in result.violations)
        assert result.dump_path is not None
        assert result.dump_path.startswith(str(tmp_path))

        dump = load_dump(result.dump_path)
        assert check_dump(dump) == []
        assert dump["result"]["violations"] == list(result.violations)
        assert (dump["protocol"], dump["seed"]) == ("rip", 19)

        replayed, recorder = replay(dump)
        assert replayed.violations == result.violations
        autopsies = recorder.autopsies()
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
