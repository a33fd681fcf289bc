"""The settle-margin table must cover every protocol and fail loudly otherwise.

Before the MANET work this table fell back to a silent default for unknown
names, which meant a typo'd or newly added protocol was judged with a margin
chosen for some other protocol's timer behavior — quiescence verdicts would
be quietly wrong.  Now an unknown name is a hard error at monitor attach
time, and this test pins both directions: every registered protocol has an
explicit margin, and anything else raises.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import PROTOCOL_NAMES
from repro.routing.catalog import settle_margin as settle_margin_for


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_every_registered_protocol_has_an_explicit_margin(protocol):
    margin = settle_margin_for(protocol)
    assert isinstance(margin, float) and margin > 0


@pytest.mark.parametrize("name", ["", "ripp", "aodv2", "unknown", "OLSR"])
def test_unknown_protocol_name_errors_loudly(name):
    with pytest.raises(ValueError, match="settle margin"):
        settle_margin_for(name)


def test_reactive_margins_cover_full_discovery_backoff():
    # AODV/DSR margins must outlast a full discovery cycle (initial attempt
    # plus two binary-exponential retries: 2.8 + 5.6 s = 8.4 s of legitimate
    # silence before a late RREP can still change state).
    assert settle_margin_for("aodv") > 8.4
    assert settle_margin_for("dsr") > 8.4
