"""Reliable sessions on a churning field: a closed session leaves its link.

The message streams of these churn runs are pinned in the golden store
(``tests/golden``, the ``stream-*`` runs).
"""

from __future__ import annotations

import pytest

from repro.experiments import run_churn_scenario
from repro.experiments import scenario as scenario_module
from repro.experiments.config import MOBILITY_MODELS

from tests.golden.runs import RADIO_RANGES, stream_config


@pytest.mark.parametrize("model", MOBILITY_MODELS)
@pytest.mark.parametrize("protocol", ["bgp3", "dual"])
def test_closed_sessions_leave_no_link_listeners(monkeypatch, protocol, model):
    """A session closed by a failure detaches from its link, so however often
    a link flaps it carries at most one listener per direction."""
    listeners = []
    to_result = scenario_module.ScenarioRun.to_result

    def counting_listeners(run):
        # Read the live network: to_result ends the run and drops them.
        links = run.network.links.values()
        listeners.append(max(len(link.fail_listeners) for link in links))
        return to_result(run)

    monkeypatch.setattr(scenario_module.ScenarioRun, "to_result", counting_listeners)
    result = run_churn_scenario(protocol, 7, stream_config(model, RADIO_RANGES[0]))
    assert result.events, "the seed must actually churn links"
    assert 1 <= listeners[0] <= 2
