"""Security assessment and key-aware scheduling for trusted-relay QKD networks.

``import qkdnet`` loads no submodule. Each exported name loads its own
module on first use (PEP 562), so a process that asks only assessment
questions never loads the scheduler or the harness.
"""

from importlib import import_module

__version__ = "0.1.0"

# every exported name and the submodule that defines it
_EXPORTS = {
    "DirectLinkError": "graph_core",
    "Edge": "graph_core",
    "Network": "graph_core",
    "Path": "graph_core",
    "UnknownNodeError": "graph_core",
    "disconnects": "graph_core",
    "enumerate_simple_paths": "graph_core",
    "max_disjoint_paths": "graph_core",
    "min_vertex_cut": "graph_core",
    "Metrics": "harness",
    "OracleResult": "harness",
    "RunResult": "harness",
    "Scenario": "harness",
    "oracle_optimal": "harness",
    "run": "harness",
    "v_sweep": "harness",
    "LinkParams": "scheduler",
    "NetworkState": "scheduler",
    "ScheduleConfig": "scheduler",
    "StateInvariantError": "scheduler",
    "StepDecision": "scheduler",
    "Utility": "scheduler",
    "drift_audit": "scheduler",
    "initial_state": "scheduler",
    "step": "scheduler",
    "AttackSet": "security",
    "ExchangeTranscript": "security",
    "KeyAssignment": "security",
    "Scheme": "security",
    "demo7_network": "security",
    "find_secure_path": "security",
    "insecure_edges": "security",
    "is_strongest": "security",
    "m0_exchange": "security",
    "min_strongest_attack": "security",
    "multipath_exchange": "security",
    "security_oracle": "security",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
