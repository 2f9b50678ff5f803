"""Security assessment and key-aware scheduling for trusted-relay QKD networks."""

from .graph_core import (
    DirectLinkError,
    Edge,
    Network,
    Path,
    UnknownNodeError,
    disconnects,
    enumerate_simple_paths,
    max_disjoint_paths,
    min_vertex_cut,
    neighbors,
)
from .harness import Metrics, OracleResult, RunResult, Scenario, oracle_optimal, run, v_sweep
from .scheduler import (
    ControlParams,
    LinkParams,
    NetworkState,
    ScheduleConfig,
    StateInvariantError,
    StepDecision,
    Utility,
    drift_audit,
    initial_state,
    step,
)
from .security import (
    AttackSet,
    ExchangeTranscript,
    KeyAssignment,
    Scheme,
    demo7_network,
    find_secure_path,
    has_direct_link,
    insecure_edges,
    is_strongest,
    m0_exchange,
    min_strongest_attack,
    multipath_exchange,
    scheme_threshold,
    sec,
    security_oracle,
)

__version__ = "0.1.0"
