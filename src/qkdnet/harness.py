"""Simulation harness: audited runs, long-run metrics, and the static oracle.

``run`` drives the slot controller over a ``Scenario`` (one
``ScheduleConfig``, which holds the network, the commodities and every
derived constant, plus a horizon and a seed), drift-auditing every slot,
and returns per-slot traces as plain tuples. ``oracle_optimal``
solves the static multicommodity program the controller is measured
against: it knows the whole network and the long-run key budgets, which the
slot controller never sees. It is one flow LP, tightened by tangent cuts for
concave utilities until its bound certifies the answer within a small
relative gap.
``v_sweep`` runs the controller at increasing V and checks each
measured utility against the oracle value minus the guaranteed gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Mapping, Sequence

from .graph_core import Network
from .scheduler import (
    NetworkState,
    ScheduleConfig,
    SlotAudit,
    StepDecision,
    Utility,
    _check_problem,
    _require_number,
    drift_audit,
    initial_state,
    step,
)

__all__ = [
    "Metrics",
    "OracleResult",
    "RunResult",
    "Scenario",
    "SweepRow",
    "oracle_optimal",
    "run",
    "v_sweep",
]

# relative gap at which the cutting-plane oracle stops; tighter gaps hit the
# LP solver's accuracy floor and stop closing
_ORACLE_GAP = 1e-7
_ORACLE_MAX_ROUNDS = 200
# finite-horizon allowance of a sweep row, as a fraction of the oracle value
_SWEEP_SLACK = 0.02

Injector = Callable[[NetworkState, ScheduleConfig, Random, int], StepDecision | None]
Observer = Callable[[int, NetworkState, StepDecision, SlotAudit], None]


@dataclass(frozen=True)
class Scenario:
    """A schedule config plus horizon and seed: everything a run needs.

    Write ``Scenario(ScheduleConfig.build(network, commodities, V, R_max), T, seed)``.
    """

    config: ScheduleConfig
    T: int
    seed: int

    def __post_init__(self) -> None:
        _require_number(self.T, "horizon", integer=True)
        if self.T < 0:
            raise ValueError("horizon must be non-negative")


@dataclass
class Metrics:
    """Per-slot traces as tuples, one entry per slot; backlog is observed at

    slot start. ``admitted`` follows the config's commodity order. A rate is
    the mean over the last ``tail`` fraction of the slots, at least one.
    """

    admitted: dict[tuple[str, str], tuple]
    delivered: dict[str, tuple]
    backlog: tuple

    @staticmethod
    def _tail_mean(x: tuple, tail: float) -> float:
        if not 0 < tail <= 1:
            raise ValueError(f"tail must lie in (0, 1], got {tail}")
        if not x:
            return 0.0
        keep = max(1, round(len(x) * tail))
        return math.fsum(x[len(x) - keep:]) / keep

    def admitted_rate(self, pair: tuple[str, str], tail: float = 0.8) -> float:
        return self._tail_mean(self.admitted[pair], tail)

    def delivered_rate(self, dest: str, tail: float = 0.8) -> float:
        return self._tail_mean(self.delivered[dest], tail)

    def utility_of_rates(self, commodities: Mapping[tuple[str, str], Utility], tail: float = 0.8) -> float:
        """Utility evaluated at the tail-averaged admitted rates."""
        return float(sum(commodities[p].value(self.admitted_rate(p, tail)) for p in self.admitted))

    def max_backlog(self) -> float:
        return float(max(self.backlog, default=0))


@dataclass(frozen=True)
class RunResult:
    final_state: NetworkState
    metrics: Metrics
    drift_ok: bool
    availability_ok: bool
    bounds_checked: bool
    injected_slots: int


def run(
    scenario: Scenario,
    inject: Injector | None = None,
    observer: Observer | None = None,
) -> RunResult:
    """Simulate the horizon, drift-auditing every slot.

    ``inject`` may supply a decision for any slot (return None to let the
    controller decide); injected slots are audited like any other. The
    returned flags aggregate: ``drift_ok`` means the drift inequality held
    on every slot, ``availability_ok`` that no slot spent keys it lacked,
    ``bounds_checked`` that every slot's certified-bounds assert was active.
    ``observer`` sees (slot, state at slot start, decision, audit) per slot.
    """
    cfg = scenario.config
    rng = Random(scenario.seed)
    state = initial_state(cfg)
    pairs, dests = cfg.pairs, cfg.dests
    no_pairs, no_dests = (0,) * len(pairs), (0,) * len(dests)
    backlog, admitted, delivered = [], [], []
    drift_ok = True
    availability_ok = True
    bounds_checked = True
    injected = 0

    for t in range(scenario.T):
        backlog.append(sum(state.Q.values()))
        decision = inject(state, cfg, rng, t) if inject is not None else None
        if decision is not None:
            injected += 1
        prev = state
        state, decision, audit = step(state, cfg, rng, decision=decision)
        drift_ok = drift_ok and drift_audit(decision, cfg).ok
        availability_ok = availability_ok and audit.availability_ok
        bounds_checked = bounds_checked and audit.bounds_checked
        admitted.append(tuple(map(decision.R.get, pairs, no_pairs)))
        delivered.append(tuple(map(audit.delivered.get, dests, no_dests)))
        if observer is not None:
            observer(t, prev, decision, audit)

    metrics = Metrics(
        admitted=_columns(admitted, pairs),
        delivered=_columns(delivered, dests),
        backlog=tuple(backlog),
    )
    return RunResult(
        final_state=state,
        metrics=metrics,
        drift_ok=drift_ok,
        availability_ok=availability_ok,
        bounds_checked=bounds_checked,
        injected_slots=injected,
    )


def _columns(rows: list[tuple], keys: tuple) -> dict:
    """One trace per key from per-slot rows that follow ``keys``."""
    return dict(zip(keys, list(zip(*rows)) or [()] * len(keys)))


@dataclass(frozen=True)
class OracleResult:
    """Optimum of the static program over long-run rates.

    ``rates`` maps each commodity to its optimal admitted rate and ``value``
    is the utility sum there; the rates are feasible, so ``value`` is
    achievable. ``upper`` is the optimum of the last tangent-cut LP, a
    certified upper bound: ``upper - value`` is at most ``_ORACLE_GAP``
    relative to ``1 + |upper|``, and zero up to solver accuracy for linear
    utilities.
    """

    value: float
    rates: dict[tuple[str, str], float]
    upper: float


def oracle_optimal(
    network: Network,
    commodities: Mapping[tuple[str, str], Utility],
    R_max: int | float,
) -> OracleResult:
    """Optimum of the static program: maximize summed utility of long-run

    admitted rates subject to flow conservation and each edge carrying at
    most its long-run key budget.

    One LP over rates ``r`` in ``[0, R_max]``, one epigraph variable ``t``
    per commodity and per-commodity arc flows maximizes ``sum(t)`` under
    tangent cuts ``t <= U(r0) + U'(r0) * (r - r0)`` (Kelley's cutting-plane
    method, 1960). Each round adds a cut at the LP's rate for every
    commodity whose ``t`` still overstates its utility, until the LP bound
    and the utility of its rates agree within the gap. A linear utility is
    its own tangent, so linear instances take one LP.
    """
    links = _check_problem(network, commodities, R_max)
    if any(lp.mu_of_P is not None for lp in links.values()):
        raise ValueError("the static oracle supports identity-rate (one-time pad) links only")
    # imported here, not at module level: numpy and scipy.optimize would cost
    # every ``import qkdnet`` most of its start-up time and memory
    import numpy as np
    from scipy.optimize import linprog

    # a one-time-pad link moves one data bit per key bit spent, and spends
    # at most P_max per slot and at most K per slot on average
    caps = np.array([min(lp.K, lp.P_max) for lp in links.values()], dtype=float)
    pairs = sorted(commodities)
    utils = [commodities[p] for p in pairs]
    n, m, n_c = len(network.nodes), len(network.edges), len(pairs)
    index = network._index

    # node-arc incidence: arc a < m runs u->v along edge a, arc m + a runs v->u
    ends_u = [index[e.u] for e in network.edges]
    ends_v = [index[e.v] for e in network.edges]
    arcs = np.arange(2 * m)
    incidence = np.zeros((n, 2 * m))
    incidence[ends_u + ends_v, arcs] = 1
    incidence[ends_v + ends_u, arcs] = -1

    # variables: rates, epigraphs, then 2m arc flows per commodity; each
    # commodity's net outflow is its rate at the source and 0 elsewhere,
    # except at the destination, whose row follows from the others
    block_start = np.arange(n_c) * n
    sources = np.zeros((n_c * n, n_c))
    sources[block_start + [index[src] for src, _ in pairs], np.arange(n_c)] = -1
    A_eq = np.hstack([sources, np.zeros((n_c * n, n_c)), np.kron(np.eye(n_c), incidence)])
    A_eq = np.delete(A_eq, block_start + [index[dst] for _, dst in pairs], axis=0)
    A_cap = np.hstack([np.zeros((m, 2 * n_c)), np.tile(np.eye(m), 2 * n_c)])
    n_var = A_eq.shape[1]
    objective = np.concatenate([np.zeros(n_c), -np.ones(n_c), np.zeros(n_var - 2 * n_c)])
    bounds = [(0.0, float(R_max))] * n_c + [(None, None)] * n_c + [(0.0, None)] * (n_var - 2 * n_c)

    cuts, cut_rhs = [], []

    def add_cut(i: int, r0: float) -> None:
        slope = utils[i].marginal(r0)
        row = np.zeros(n_var)
        row[i], row[n_c + i] = -slope, 1.0
        cuts.append(row)
        cut_rhs.append(utils[i].value(r0) - slope * r0)

    for i in range(n_c):
        add_cut(i, 0.0)
    for _ in range(_ORACLE_MAX_ROUNDS):
        res = linprog(
            objective,
            A_ub=np.vstack([A_cap, *cuts]),
            b_ub=np.concatenate([caps, cut_rhs]),
            A_eq=A_eq,
            b_eq=np.zeros(len(A_eq)),
            bounds=bounds,
            method="highs",
        )
        if not res.success:
            raise RuntimeError(f"oracle LP failed: {res.message}")
        # the solver may return -0.0 or a rate a rounding error outside the box
        rates = [max(0.0, min(float(r), float(R_max))) for r in res.x[:n_c]]
        values = [u.value(r) for u, r in zip(utils, rates)]
        upper, value = float(-res.fun), float(sum(values))
        if upper - value <= _ORACLE_GAP * (1 + abs(upper)):
            return OracleResult(value=value, rates=dict(zip(pairs, rates)), upper=upper)
        for i, t in enumerate(res.x[n_c:2 * n_c]):
            if t > values[i]:
                add_cut(i, rates[i])
    raise RuntimeError(f"oracle gap still open after {_ORACLE_MAX_ROUNDS} cutting-plane rounds")


@dataclass(frozen=True)
class SweepRow:
    V: int | float
    seed: int
    measured: float
    oracle: float
    gap_bound: float
    max_backlog: float
    passed: bool


def v_sweep(
    network: Network,
    commodities: Mapping[tuple[str, str], Utility],
    R_max: int | float,
    T: int,
    V_values: Sequence[int | float],
    seeds: Sequence[int] = (1,),
    tie_mode: str = "random",
) -> list[SweepRow]:
    """Run the controller at each V and compare tail utility to the oracle.

    A row passes when the utility of the tail-averaged admitted rates is at
    least the oracle value minus the guaranteed B_tilde/V gap, less a
    finite-horizon slack of ``_SWEEP_SLACK`` times the oracle value. Every
    V is checked before the oracle solves or any run starts.
    """
    configs = [ScheduleConfig.build(network, commodities, V, R_max, tie_mode) for V in V_values]
    oracle = oracle_optimal(network, commodities, R_max)
    rows = []
    for config in configs:
        V = config.V
        for seed in seeds:
            scenario = Scenario(config, T, seed)
            result = run(scenario)
            audits = (("drift", result.drift_ok), ("key availability", result.availability_ok))
            failed = " and ".join(f"{name} audit" for name, ok in audits if not ok)
            if failed:
                raise RuntimeError(f"{failed} failed during sweep at V={V} seed={seed}")
            measured = result.metrics.utility_of_rates(commodities)
            gap = config.B_tilde / V
            passed = measured >= oracle.value - gap - _SWEEP_SLACK * oracle.value
            rows.append(
                SweepRow(
                    V=V,
                    seed=seed,
                    measured=measured,
                    oracle=oracle.value,
                    gap_bound=gap,
                    max_backlog=result.metrics.max_backlog(),
                    passed=passed,
                )
            )
    return rows
