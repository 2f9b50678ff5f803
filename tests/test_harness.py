"""Simulation runs, long-run metrics, and the static optimum oracle."""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from random import Random

import numpy as np
import pytest

from qkdnet import harness
from qkdnet.graph_core import Network
from qkdnet.harness import _ORACLE_GAP, Metrics, Scenario, oracle_optimal, run, v_sweep
from qkdnet.scheduler import LinkParams, ScheduleConfig, Utility
from qkdnet.security import demo7_network

from helpers import (
    diamond_network,
    fixed_rate_feasible,
    grid_oracle,
    random_feasible_decision,
    two_node_network,
    with_link_params,
)


LIN = Utility("linear", 1)


def _certified(res) -> bool:
    return 0 <= res.upper - res.value <= _ORACLE_GAP * (1 + abs(res.upper))


# -- static oracle -------------------------------------------------------------

def test_oracle_two_node_rate_is_key_budget():
    res = oracle_optimal(two_node_network(K=5, P_max=5), {("a", "b"): LIN}, R_max=10)
    assert res.upper - res.value <= 1e-9
    assert res.value == pytest.approx(5, abs=1e-9)
    assert res.rates[("a", "b")] == pytest.approx(5, abs=1e-9)


def test_oracle_p_max_binds_below_key_budget():
    res = oracle_optimal(two_node_network(K=9, P_max=4), {("a", "b"): LIN}, R_max=10)
    assert res.value == pytest.approx(4, abs=1e-9)


def test_oracle_diamond_sums_disjoint_paths():
    res = oracle_optimal(diamond_network(K=3, P_max=3), {("a", "b"): LIN}, R_max=8)
    assert res.value == pytest.approx(6, abs=1e-9)


def test_oracle_admission_cap_binds():
    res = oracle_optimal(diamond_network(K=3, P_max=3), {("a", "b"): LIN}, R_max=4)
    assert res.value == pytest.approx(4, abs=1e-9)


def test_oracle_zero_keys_zero_value():
    res = oracle_optimal(diamond_network(K=0, P_max=3), {("a", "b"): LIN}, R_max=8)
    assert res.value == pytest.approx(0, abs=1e-9)


def test_oracle_weighted_commodities_share_capacity():
    net = diamond_network(K=3, P_max=3)
    res = oracle_optimal(
        net, {("a", "b"): Utility("linear", 2), ("m1", "m2"): Utility("linear", 1)}, R_max=10
    )
    # giving all four edges to a>b dominates: 2*6 beats any split
    assert res.value == pytest.approx(12, abs=1e-9)
    assert res.rates[("a", "b")] == pytest.approx(6, abs=1e-9)
    assert res.rates[("m1", "m2")] == pytest.approx(0, abs=1e-9)


def test_oracle_grid_capacity_bound():
    res = oracle_optimal(two_node_network(K=5, P_max=5), {("a", "b"): Utility("log1p", 2)}, 10)
    assert res.rates[("a", "b")] == pytest.approx(5, abs=1e-6)
    assert res.value == pytest.approx(2 * math.log(6), abs=1e-6)
    assert _certified(res)


def test_oracle_grid_r_max_bound():
    res = oracle_optimal(two_node_network(K=20, P_max=20), {("a", "b"): Utility("log1p", 2)}, 10)
    assert res.rates[("a", "b")] == pytest.approx(10, abs=1e-6)
    assert res.value == pytest.approx(2 * math.log(11), abs=1e-6)
    assert _certified(res)


def test_oracle_grid_never_exceeds_lp_on_linearized_instance():
    # one commodity: the log1p optimum is the linear (max-flow) optimum
    # mapped through the utility, ln(1 + 6)
    net = diamond_network(K=3, P_max=3)
    res = oracle_optimal(net, {("a", "b"): Utility("log1p", 1)}, 8)
    cap = oracle_optimal(net, {("a", "b"): LIN}, 8).value
    assert res.value == pytest.approx(math.log1p(cap), abs=1e-6)
    assert res.value == pytest.approx(math.log(7), abs=1e-6)
    assert _certified(res)


def test_oracle_refusals():
    # size is no reason to refuse: seven nodes and four commodities solve
    res = oracle_optimal(
        with_link_params(demo7_network(), LinkParams(K=3, P_max=3)),
        {("a", "b"): LIN},
        8,
    )
    assert res.value == pytest.approx(6, abs=1e-9)  # a has two edges of budget 3
    assert _certified(res)
    four = {
        ("a", "b"): LIN, ("b", "a"): Utility("log1p", 1),
        ("m1", "m2"): LIN, ("m2", "m1"): Utility("log1p", 2),
    }
    res = oracle_optimal(diamond_network(), four, 8)
    assert _certified(res)
    assert fixed_rate_feasible(diamond_network(), res.rates)
    with pytest.raises(ValueError):
        oracle_optimal(demo7_network(), {("a", "b"): LIN}, 8)  # no link params
    rate_fn = with_link_params(
        Network.from_links([("e1", "a", "b")]),
        LinkParams(K=3, P_max=3, delta=2, mu_of_P=lambda p: 2 * p),
    )
    with pytest.raises(ValueError):
        oracle_optimal(rate_fn, {("a", "b"): LIN}, 8)
    for bad in ({}, {("a", "zz"): LIN}, {("a", "a"): LIN}):
        with pytest.raises(ValueError):
            oracle_optimal(diamond_network(), bad, 8)


@pytest.mark.parametrize("R_max", [-1, 0, math.nan, math.inf])
def test_oracle_rejects_a_non_positive_or_non_finite_r_max(R_max):
    with pytest.raises(ValueError, match="R_max must be positive and finite"):
        oracle_optimal(diamond_network(), {("a", "b"): LIN}, R_max)


def test_import_does_not_load_the_lp_solver():
    """``qkdnet.cli`` (the command line and the benchmark load it) pulls in

    neither the LP solver nor numpy: both load only when the oracle runs.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, qkdnet.cli; print('scipy.optimize' in sys.modules, 'numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False False"


LOG = Utility("log1p", 1)


@pytest.mark.parametrize(
    "net,commodities",
    [
        (two_node_network(), {("a", "b"): Utility("log1p", 2)}),
        (two_node_network(), {("a", "b"): Utility("log1p", 2), ("b", "a"): LOG}),
        (diamond_network(), {("a", "b"): LOG}),
        (diamond_network(), {("a", "b"): LOG, ("m1", "m2"): Utility("log1p", 2)}),
        (diamond_network(), {("a", "b"): LOG, ("m1", "m2"): Utility("log1p", 2), ("b", "a"): LOG}),
    ],
    ids=["two-node-1", "two-node-2", "diamond-1", "diamond-2", "diamond-3"],
)
def test_oracle_log1p_against_grid_referee(net, commodities):
    res = oracle_optimal(net, commodities, 8)
    referee_value, _ = grid_oracle(net, commodities, 8)
    assert res.value >= referee_value - 1e-9
    assert fixed_rate_feasible(net, res.rates)
    assert _certified(res)


def test_oracle_three_commodity_log1p_diamond_is_fast():
    commodities = {("a", "b"): LOG, ("m1", "m2"): Utility("log1p", 2), ("b", "a"): LOG}
    t0 = time.perf_counter()
    oracle_optimal(diamond_network(), commodities, 8)
    assert time.perf_counter() - t0 < 1.0


# -- runs ------------------------------------------------------------------------

def test_zero_horizon_run():
    s = Scenario(ScheduleConfig.build(two_node_network(), {("a", "b"): LIN}, V=50, R_max=10), T=0, seed=1)
    r = run(s)
    assert r.drift_ok and r.availability_ok and r.bounds_checked
    assert len(r.metrics.backlog) == 0
    assert r.metrics.admitted_rate(("a", "b")) == 0.0
    assert r.metrics.max_backlog() == 0
    assert r.metrics.delivered_rate("b") == 0.0


def test_negative_horizon_rejected():
    with pytest.raises(ValueError):
        Scenario(ScheduleConfig.build(two_node_network(), {("a", "b"): LIN}, V=50, R_max=10), T=-1, seed=1)


@pytest.mark.parametrize("T", [2.5, math.nan, True, "5"])
def test_non_integer_horizon_rejected(T):
    with pytest.raises(ValueError, match="horizon must be an integer"):
        Scenario(ScheduleConfig.build(two_node_network(), {("a", "b"): LIN}, V=50, R_max=10), T=T, seed=1)


def test_run_is_deterministic():
    s = Scenario(ScheduleConfig.build(diamond_network(), {("a", "b"): LIN}, V=80, R_max=8), T=3000, seed=12)
    r1, r2 = run(s), run(s)
    assert r1.metrics.admitted[("a", "b")] == r2.metrics.admitted[("a", "b")]
    assert r1.metrics.backlog == r2.metrics.backlog
    assert r1.final_state.Q == r2.final_state.Q
    assert r1.final_state.E == r2.final_state.E


def test_delivered_converges_to_oracle_two_node():
    cfg = ScheduleConfig.build(two_node_network(K=5, P_max=5), {("a", "b"): LIN}, V=200, R_max=10)
    s = Scenario(cfg, T=30_000, seed=3)
    r = run(s)
    assert r.drift_ok and r.availability_ok and r.bounds_checked
    assert r.metrics.delivered_rate("b") == pytest.approx(5, abs=0.1)
    assert r.metrics.admitted_rate(("a", "b")) == pytest.approx(5, abs=0.1)


def test_observer_sees_every_slot_in_order():
    s = Scenario(ScheduleConfig.build(two_node_network(), {("a", "b"): LIN}, V=50, R_max=10), T=200, seed=5)
    slots = []
    run(s, observer=lambda t, state, decision, audit: slots.append((t, state.t)))
    assert slots == [(t, t) for t in range(200)]


def test_injection_counted_and_audited():
    s = Scenario(ScheduleConfig.build(diamond_network(), {("a", "b"): LIN}, V=60, R_max=8), T=1500, seed=8)

    def inject(state, cfg, rng, t):
        if 400 <= t < 500:
            return random_feasible_decision(state, cfg, rng)
        return None

    r = run(s, inject=inject)
    assert r.injected_slots == 100
    assert r.drift_ok
    assert not r.bounds_checked


def test_metrics_tail_windows():
    m = Metrics(admitted={("a", "b"): tuple(range(10))}, delivered={"b": (1,) * 10}, backlog=tuple(range(10)))
    assert m.admitted_rate(("a", "b"), tail=0.8) == 5.5  # mean of 2..9
    assert m.admitted_rate(("a", "b"), tail=1.0) == 4.5
    assert m.delivered_rate("b", tail=1.0) == 1.0
    assert m.max_backlog() == 9
    # a window shorter than half a slot still keeps the last slot
    assert m.admitted_rate(("a", "b"), tail=0.04) == 9.0
    for bad in (1.5, 0, -0.2, math.nan):
        with pytest.raises(ValueError, match="tail must lie in"):
            m.admitted_rate(("a", "b"), tail=bad)
        with pytest.raises(ValueError, match="tail must lie in"):
            m.delivered_rate("b", tail=bad)
        with pytest.raises(ValueError, match="tail must lie in"):
            m.utility_of_rates({("a", "b"): LIN}, tail=bad)
    empty = Metrics(admitted={("a", "b"): ()}, delivered={"b": ()}, backlog=())
    assert empty.admitted_rate(("a", "b"), tail=0.01) == 0.0
    assert empty.delivered_rate("b") == 0.0
    assert empty.max_backlog() == 0.0
    with pytest.raises(ValueError, match="tail must lie in"):
        empty.admitted_rate(("a", "b"), tail=1.5)


def _c05_scenario(T):
    K = {"k1": 4, "k2": 3, "k3": 5, "k4": 2, "k5": 4, "k6": 3, "k7": 2, "k8": 5, "k9": 4}
    net = with_link_params(demo7_network(), {eid: LinkParams(K=k, P_max=5) for eid, k in K.items()})
    commodities = {("a", "b"): LIN, ("c3", "c2"): Utility("linear", 2), ("c5", "a"): LIN}
    return Scenario(ScheduleConfig.build(net, commodities, V=100, R_max=6), T=T, seed=11)


@pytest.mark.parametrize(
    "make_scenario,exact",
    [
        (lambda: _c05_scenario(T=5000), True),
        (lambda: Scenario(ScheduleConfig.build(diamond_network(), {("a", "b"): LOG}, V=150, R_max=8), 4000, 4), False),
    ],
    ids=["c05-exact", "diamond-log1p"],
)
def test_rates_match_a_numpy_mean_of_the_same_tail(make_scenario, exact):
    """Each rate against numpy's mean of the same window: equal on the

    integer C05 fixture, within 1e-12 relative on the log1p diamond.
    """
    metrics = run(make_scenario()).metrics
    traces = [(metrics.admitted_rate, key, trace) for key, trace in metrics.admitted.items()]
    traces += [(metrics.delivered_rate, key, trace) for key, trace in metrics.delivered.items()]
    assert any(isinstance(x, float) for _, _, trace in traces for x in trace) != exact
    for tail in (1.0, 0.8, 0.37, 0.001):
        for rate, key, trace in traces:
            keep = max(1, round(len(trace) * tail))
            want = float(np.mean(np.array(trace[len(trace) - keep:], dtype=float)))
            if exact:
                assert rate(key, tail) == want
            else:
                assert rate(key, tail) == pytest.approx(want, rel=1e-12, abs=0)
    assert metrics.max_backlog() == float(np.max(np.array(metrics.backlog, dtype=float)))


# -- sweeps ------------------------------------------------------------------------

def test_v_sweep_diamond_rows_pass():
    rows = v_sweep(
        diamond_network(), {("a", "b"): LIN}, R_max=8, T=15_000,
        V_values=[20, 100, 500], seeds=[1, 2],
    )
    assert len(rows) == 6
    for row in rows:
        assert row.oracle == pytest.approx(6, abs=1e-9)
        assert row.passed
    # the guarantee tightens with V and the backlog price grows with V
    by_seed = {}
    for row in rows:
        by_seed.setdefault(row.seed, []).append(row)
    for seq in by_seed.values():
        backlogs = [r.max_backlog for r in seq]
        assert backlogs == sorted(backlogs)


def test_v_sweep_gap_bound_shrinks():
    rows = v_sweep(diamond_network(), {("a", "b"): LIN}, R_max=8, T=4000, V_values=[50, 200], seeds=[1])
    assert rows[0].gap_bound > rows[1].gap_bound


@pytest.mark.parametrize(
    "drift_ok,availability_ok,failed",
    [
        (False, True, "drift audit"),
        (True, False, "key availability audit"),
        (False, False, "drift audit and key availability audit"),
    ],
)
def test_v_sweep_audit_failure_names_the_audit(monkeypatch, drift_ok, availability_ok, failed):
    real_run = harness.run

    def failing_run(scenario):
        return replace(real_run(scenario), drift_ok=drift_ok, availability_ok=availability_ok)

    monkeypatch.setattr(harness, "run", failing_run)
    with pytest.raises(RuntimeError, match=f"^{failed} failed during sweep at V=50 seed=1$"):
        v_sweep(diamond_network(), {("a", "b"): LIN}, R_max=8, T=10, V_values=[50], seeds=[1])
