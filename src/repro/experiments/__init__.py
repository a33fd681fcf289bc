"""Experiment harness: configs, scenarios, runners, figure reproductions."""

from .campaign import CampaignReport, reproduce
from .churn import make_mobility_model, run_churn_scenario
from .config import MOBILITY_MODELS, PROTOCOL_NAMES, ChurnConfig, ExperimentConfig
from .extensions import (
    FlowOutcome,
    MultiFlowResult,
    NodeFailureResult,
    RepairResult,
    TransportResult,
    run_multiflow_scenario,
    run_node_failure_scenario,
    run_random_topology_scenario,
    run_repair_scenario,
    run_transport_scenario,
    transport_with_baseline,
)
from .figures import ROWS, Panel, Row, SweepTable, evaluate, headline
from .persistence import (
    diff_runs,
    failure_from_dict,
    failure_to_dict,
    load_points,
    save_points,
    scenario_from_dict,
    scenario_to_dict,
)
from .store import StoreMismatchError, SweepStore
from .plotting import line_chart, save_svg, series_chart, sweep_chart
from .report import format_ascii_curve, format_row, format_series_grid, format_sweep_table
from .validation import CheckResult, format_checks, validate_observations
from .runner import PointResult, SweepFailure, run_point, run_sweep
from .scenario import (
    Layout,
    ScenarioPlan,
    ScenarioResult,
    ScenarioRun,
    TopologyEventOutcome,
    lay_out,
    mesh_layout,
    run_scenario,
)

__all__ = [
    "ExperimentConfig",
    "ChurnConfig",
    "MOBILITY_MODELS",
    "PROTOCOL_NAMES",
    "CampaignReport",
    "reproduce",
    "Layout",
    "ScenarioPlan",
    "ScenarioResult",
    "ScenarioRun",
    "TopologyEventOutcome",
    "lay_out",
    "mesh_layout",
    "run_scenario",
    "run_churn_scenario",
    "make_mobility_model",
    "PointResult",
    "SweepFailure",
    "run_point",
    "run_sweep",
    "ROWS",
    "Panel",
    "Row",
    "SweepTable",
    "evaluate",
    "headline",
    "FlowOutcome",
    "MultiFlowResult",
    "NodeFailureResult",
    "run_node_failure_scenario",
    "RepairResult",
    "run_repair_scenario",
    "TransportResult",
    "run_multiflow_scenario",
    "run_transport_scenario",
    "transport_with_baseline",
    "run_random_topology_scenario",
    "format_sweep_table",
    "format_series_grid",
    "format_ascii_curve",
    "format_row",
    "CheckResult",
    "validate_observations",
    "format_checks",
    "save_points",
    "load_points",
    "scenario_to_dict",
    "scenario_from_dict",
    "diff_runs",
    "failure_to_dict",
    "failure_from_dict",
    "SweepStore",
    "StoreMismatchError",
    "line_chart",
    "sweep_chart",
    "series_chart",
    "save_svg",
]
