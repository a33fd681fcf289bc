"""Micro-scale checks on the ablation and extension rows of the catalogue.

The benchmarks run these rows at realistic scale; these tests pin what each
promises at the smallest usable configuration (the ``micro`` fixture), on
the same evaluations ``test_figures.py::test_row`` shapes.
"""

from __future__ import annotations


class TestOverheadSweep:
    def test_reports_messages_per_cell(self, micro, micro_tables):
        (table,) = micro_tables("ovh")
        assert set(table.values) == {(p, 4) for p in micro.protocols}
        assert table.value("rip", 4) > 0


class TestSsldAblation:
    def test_key_shape(self, micro_tables):
        tables = micro_tables("abl5")
        assert [t.title.split("(")[1] for t in tables] == [
            "routing messages)", "drops, no route)", "TTL expirations)",
            "routing convergence, s)",
        ]
        assert tables[0].protocols == ("bgp3", "bgp3-ssld")


class TestDetectionDelayAblation:
    def test_floor_scales_with_delay(self, micro, micro_tables):
        drops, _ = micro_tables("abl4")
        assert drops.protocols == ("dbf",)
        assert drops.degrees == (0.005, 0.05, 0.5, 2.0)
        # The loss is rate x detection delay plus the in-flight packet.
        for delay in drops.degrees:
            assert 0 <= drops.value("dbf", delay) <= micro.rate_pps * delay + 3
        assert drops.value("dbf", 2.0) > drops.value("dbf", 0.05)


class TestFastReroute:
    def test_lfa_never_worse_than_slow_spf(self, micro_tables):
        (stale,) = micro_tables("ext6")
        for degree in (4, 6):
            assert stale.value("spf-lfa", degree) <= stale.value("spf-slow", degree) + 1e-9
            assert stale.value("spf", degree) <= stale.value("spf-slow", degree) + 1e-9


class TestLoopFreedomCost:
    def test_dual_never_loops(self, micro_tables):
        ttl, _, _ = micro_tables("ext7")
        assert ttl.value("dual", 4) == 0


class TestFlapDamping:
    def test_key_shape(self, micro_tables):
        tables = micro_tables("ext5")
        assert len(tables) == 3  # delivery ratio, no-route drops, convergence
        assert tables[0].protocols == ("bgp3", "bgp3-rfd")


class TestScale:
    def test_sweeps_sizes(self, micro_tables):
        _, delivery, _ = micro_tables("ext8")
        assert delivery.protocols == ("rip", "dbf", "bgp3")
        assert delivery.degrees == (25, 49, 100)
        assert all(0 <= v <= 1 for v in delivery.values.values())


class TestMultiflow:
    def test_worst_flow_within_aggregate(self, micro_tables):
        delivery, worst, _ = micro_tables("ext2")
        for key, ratio in delivery.values.items():
            assert 0 <= worst.values[key] <= ratio + 1e-9


class TestTransport:
    def test_reports_every_protocol(self, micro, micro_tables):
        stall, retransmissions = micro_tables("ext3")
        assert stall.protocols == micro.protocols
        assert all(v >= 0 for v in retransmissions.values.values())


class TestRandomTopology:
    def test_alternate_paths_beat_rip(self, micro_tables):
        (table,) = micro_tables("ext4")
        assert table.degrees == (4, 6)
        for degree in table.degrees:
            assert table.value("dbf", degree) <= table.value("rip", degree)
