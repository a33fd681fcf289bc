"""Mutation tests for the MANET trio: injected protocol bugs must be caught.

Same discipline as ``test_bug_injection.py``: monkeypatch a classic MANET
implementation bug into a real protocol, run a full monitored scenario, and
assert the validation layer notices.  Each mutation has a clean control run
so detection is attributable to the injected bug.

* **AODV, suppressed RERR propagation** — the node that detects a link
  break invalidates its own route but never tells its precursors.  The
  origin keeps forwarding into a stale-route blackhole for the rest of the
  run: packets die NO_ROUTE mid-path long after the network has otherwise
  quiesced, and the origin's surviving route fails the end-of-run chain
  walk.
* **OLSR, inverted MPR selection** — nodes select exactly the complement
  of the greedy MPR set.  Coverage collapses: selected relays don't cover
  the 2-hop neighborhood, TCs stop describing usable shortest paths, and
  remote destinations go missing or wrong against the SPF oracle.
"""

from __future__ import annotations

import pytest

import repro.routing.olsr as olsr_module
from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario
from repro.routing.aodv import AodvProtocol
from repro.topology import graph
from repro.validation.monitors import MonitorSuite

_REAL_SELECT_MPRS = olsr_module.select_mprs


@pytest.fixture(autouse=True)
def _fresh_topology_memo():
    """The per-topology memo keeps the MPR choices a warm start reconstructs;
    a run under the inverted selection must not hand them to the next test.
    OLSR re-selects MPRs only when its neighbor table changes, so a stale
    choice would survive a whole clean run."""
    graph._MEMO.clear()
    yield
    graph._MEMO.clear()


def _suppressed_rerr(self, affected):
    # The blackhole bug: local state is fixed up, upstream is never told.
    return None


def _inverted_select_mprs(self_id, sym_neighbors, two_hop):
    neighbors = set(sym_neighbors)
    return neighbors - _REAL_SELECT_MPRS(self_id, neighbors, two_hop)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_suppressed_rerr_blackhole_is_caught(monkeypatch, seed):
    monkeypatch.setattr(AodvProtocol, "_propagate_rerr", _suppressed_rerr)
    suite = MonitorSuite()
    result = run_scenario(
        "aodv", 3, seed, ExperimentConfig.quick(), monitors=suite
    )
    assert result.violations, (
        "suppressed RERR propagation went unnoticed by every monitor"
    )


def test_clean_aodv_control_stays_clean():
    suite = MonitorSuite()
    result = run_scenario("aodv", 3, 1, ExperimentConfig.quick(), monitors=suite)
    assert result.violations == ()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_inverted_mpr_selection_is_caught(monkeypatch, seed):
    monkeypatch.setattr(olsr_module, "select_mprs", _inverted_select_mprs)
    suite = MonitorSuite()
    result = run_scenario(
        "olsr", 3, seed, ExperimentConfig.quick(), monitors=suite
    )
    assert result.violations, (
        "inverted MPR selection went unnoticed by every monitor"
    )
    assert any("[rib-consistency]" in v for v in result.violations), (
        result.violations[:3]
    )


def test_clean_olsr_control_stays_clean():
    suite = MonitorSuite()
    result = run_scenario("olsr", 3, 1, ExperimentConfig.quick(), monitors=suite)
    assert result.violations == ()
