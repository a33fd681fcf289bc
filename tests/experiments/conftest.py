"""The figure catalogue evaluated once per session at a micro configuration
(5x5 mesh, one degree, one run), for the row tests to share."""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import ROWS, evaluate


@pytest.fixture(scope="session")
def micro() -> ExperimentConfig:
    return ExperimentConfig.quick().with_(
        rows=5, cols=5, degrees=(4,), runs=1, post_fail_window=25.0
    )


@pytest.fixture(scope="session")
def micro_tables(micro):
    """``row id -> evaluate(ROWS[row id], micro)``, each row evaluated once."""
    tables = {}

    def get(row_id: str):
        if row_id not in tables:
            tables[row_id] = evaluate(ROWS[row_id], micro)
        return tables[row_id]

    return get
