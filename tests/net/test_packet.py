"""Unit tests for the packet model."""

from __future__ import annotations

import pytest

from repro.net.packet import DEFAULT_TTL, Packet, reset_packet_ids


class TestPacket:
    def test_defaults(self):
        p = Packet(src=1, dst=2)
        assert p.kind == "data"
        assert p.ttl == DEFAULT_TTL == 127

    def test_ids_are_unique_and_increasing(self):
        a, b = Packet(src=1, dst=2), Packet(src=1, dst=2)
        assert b.packet_id == a.packet_id + 1

    def test_reset_packet_ids(self):
        Packet(src=1, dst=2)
        reset_packet_ids()
        assert Packet(src=1, dst=2).packet_id == 0

    def test_control_packet(self):
        p = Packet(src=1, dst=2, kind="control", payload={"x": 1}, protocol="rip")
        assert p.kind == "control"
        assert p.payload == {"x": 1}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "bogus"},
            {"ttl": -1},
            {"size_bytes": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Packet(src=1, dst=2, **kwargs)

    def test_hops_start_empty(self):
        assert Packet(src=1, dst=2).hops == []
