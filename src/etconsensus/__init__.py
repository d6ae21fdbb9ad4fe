"""Event-triggered leader-follower consensus for nonlinear input-affine systems.

Deterministic fixed-step simulation of a leader and N-1 followers that
exchange state only at self-triggered broadcast instants, with open-loop
estimates between broadcasts, two triggering conditions (asymptotic and
practical with a guaranteed minimum inter-event time), and the analytic
bounds that certify them.
"""

from . import errors
from .config import PRESET_NAMES, load_config, load_preset, preset_config
from .control import (
    TriggerParams,
    TriggerState,
    build_trigger_params,
    check_gain_condition,
    error_growth_gain,
    practical_consensus_bound,
    tau_lower_bound,
)
from .dynamics import (
    CmfCertificate,
    CmfReport,
    LipschitzData,
    SystemModel,
    available_models,
    check_cmf,
    estimate_lipschitz,
    make_model,
    register_model,
    trig_grid,
)
from .graph import Graph, Laplacian, build_laplacian, spectral_bounds
from .metrics import MetricReport, compute_metrics, fit_decay_rate, markdown_tables
from .simulator import (
    RunRecord,
    SimConfig,
    WorldState,
    ZenoGuardReport,
    initial_world,
    load_run_record,
    prepare,
    run,
    run_batch,
    step,
    write_run_outputs,
    zeno_guard_report,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "PRESET_NAMES",
    "load_config",
    "load_preset",
    "preset_config",
    "TriggerParams",
    "TriggerState",
    "build_trigger_params",
    "check_gain_condition",
    "error_growth_gain",
    "practical_consensus_bound",
    "tau_lower_bound",
    "CmfCertificate",
    "CmfReport",
    "LipschitzData",
    "SystemModel",
    "available_models",
    "check_cmf",
    "estimate_lipschitz",
    "make_model",
    "register_model",
    "trig_grid",
    "Graph",
    "Laplacian",
    "build_laplacian",
    "spectral_bounds",
    "MetricReport",
    "compute_metrics",
    "fit_decay_rate",
    "markdown_tables",
    "RunRecord",
    "SimConfig",
    "WorldState",
    "ZenoGuardReport",
    "initial_world",
    "load_run_record",
    "prepare",
    "run",
    "run_batch",
    "step",
    "write_run_outputs",
    "zeno_guard_report",
    "__version__",
]
