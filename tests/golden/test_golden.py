"""Every golden run reproduces its stored outcome, field for field.

The runs are listed once in ``runs.py`` and pinned once in ``store.json``;
a deliberate behaviour change re-pins them with
``PYTHONPATH=src python scripts/golden.py --because "<cause>"`` (see
docs/validation.md, "Golden values").
"""

from __future__ import annotations

import copy

import pytest

from .runs import SPECS, STORE_PATH, compare, dumps, load_store, run

STORE = load_store()


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.id)
def test_run_matches_store(spec):
    assert compare(run(spec), STORE[spec.id]) == []


def test_store_pins_exactly_the_run_list_in_canonical_form():
    ids = [spec.id for spec in SPECS]
    assert len(ids) == len(set(ids))
    assert set(STORE) == set(ids)
    with open(STORE_PATH, encoding="utf-8") as f:
        assert f.read() == dumps(STORE)


def test_a_moved_value_is_named():
    spec = next(spec for spec in SPECS if spec.streams)
    outcome = run(spec)
    stored = copy.deepcopy(STORE[spec.id])
    sent = stored["result"]["sent"]
    stored["result"]["sent"] += 1
    stored["streams"]["message"][1] = "0" * 64
    count = stored["streams"]["message"][0]
    assert compare(outcome, stored) == [
        f"sent ({sent} vs {sent + 1})",
        f"message stream ({count} vs {count} records)",
    ]
