"""Slot controller: closed forms, certified bounds, drift audits."""

import hashlib
import math
import re
from random import Random

import pytest
from hypothesis import given, strategies as st

from qkdnet.graph_core import Network
from qkdnet.harness import Scenario, run
from qkdnet.scheduler import (
    LinkParams,
    ScheduleConfig,
    ServedFlow,
    StateInvariantError,
    StepDecision,
    Utility,
    admit,
    drift_audit,
    initial_state,
    key_consumption,
    step,
)
from qkdnet import scheduler
from qkdnet.scheduler import _bounds_violation, _controller_decision

from helpers import (
    diamond_network,
    edge_weights,
    grid_network,
    key_gen_decision,
    random_feasible_decision,
    reference_decision,
    replay_drift_audit,
    schedule_commodity,
    two_node_network,
    walk_bounds_violation,
    with_link_params,
)
from qkdnet.security import demo7_network


def fixture_config(V=100, R_max=6, tie_mode="random"):
    """Seven-node assessment network reused as a scheduling testbed."""
    K = {"k1": 4, "k2": 3, "k3": 5, "k4": 2, "k5": 4, "k6": 3, "k7": 2, "k8": 5, "k9": 4}
    net = with_link_params(
        demo7_network(), {eid: LinkParams(K=k, P_max=5) for eid, k in K.items()}
    )
    commodities = {
        ("a", "b"): Utility("linear", 1),
        ("c3", "c2"): Utility("linear", 2),
        ("c5", "a"): Utility("linear", 1),
    }
    return ScheduleConfig.build(net, commodities, V=V, R_max=R_max, tie_mode=tie_mode)


# -- parameter derivation -----------------------------------------------------

def test_control_params_two_node():
    """Two nodes, one edge of K = P_max = 5: d_max = 1 and mu_max = 5."""
    cfg = ScheduleConfig.build(two_node_network(), {("a", "b"): Utility("linear", 1)}, 200, 10)
    d_max, mu_max, n, m = 1, 5, 2, 1
    assert cfg.beta == 1
    assert cfg.gamma == 10 + d_max * mu_max
    assert cfg.theta == {"e1": 1 * 1 * 200 + 5}
    assert cfg.queue_bound == 210
    assert cfg.store_bound("e1") == 205 + 5
    B2 = n * n * (3 * d_max**2 * mu_max**2 + 2 * 10**2) + m * (5 + 5) ** 2
    assert cfg.B2 == B2
    assert cfg.B_tilde == B2 / 2 + n * n * (10 + d_max * mu_max) * d_max * mu_max
    assert cfg.exact


def test_control_params_beta_is_max_marginal():
    net = diamond_network()
    cfg = ScheduleConfig.build(
        net, {("a", "b"): Utility("linear", 1), ("m1", "m2"): Utility("linear", 3)}, 10, 4
    )
    assert cfg.beta == 3
    assert cfg.theta["e1"] == 3 * 10 + 3


def test_drift_constant_components():
    """B2, B_tilde and gamma against components counted off the network."""
    cfg = ScheduleConfig.build(diamond_network(), {("a", "b"): Utility("linear", 1)}, 100, 8)
    net = cfg.network
    n, m = len(net.nodes), len(net.edges)
    assert (n, m) == (4, 4)
    d_max = max(sum(v in (e.u, e.v) for e in net.edges) for v in net.nodes)
    mu_max = max(e.link_params.P_max for e in net.edges)  # one-time pad: rate = keys spent
    P_cap = max(e.link_params.P_max for e in net.edges)
    K_max = max(e.link_params.K for e in net.edges)
    assert cfg.gamma == 8 + d_max * mu_max
    B = n * n * (1.5 * d_max**2 * mu_max**2 + 8**2) + m / 2 * (P_cap + K_max) ** 2
    assert cfg.B2 == 2 * B and type(cfg.B2) is int
    assert cfg.B_tilde == B + n * n * cfg.gamma * d_max * mu_max


def test_exact_mode_detection():
    net = diamond_network()
    assert ScheduleConfig.build(net, {("a", "b"): Utility("linear", 1)}, 10, 4).exact
    assert not ScheduleConfig.build(net, {("a", "b"): Utility("log1p", 1)}, 10, 4).exact
    fl = with_link_params(demo7_network(), LinkParams(K=2.5, P_max=5))
    assert not ScheduleConfig.build(fl, {("a", "b"): Utility("linear", 1)}, 10, 4).exact


def test_derive_rejects_missing_link_params():
    net = demo7_network()  # no link params attached
    with pytest.raises(ValueError):
        ScheduleConfig.build(net, {("a", "b"): Utility("linear", 1)}, 10, 4)


def test_derive_rejects_bad_inputs():
    net = two_node_network()
    with pytest.raises(ValueError):
        ScheduleConfig.build(net, {}, 10, 4)
    with pytest.raises(ValueError):
        ScheduleConfig.build(net, {("a", "b"): Utility("linear", 1)}, 0, 4)


@pytest.mark.parametrize("key", ["V", "R_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0, -1])
def test_build_rejects_a_non_positive_or_non_finite_constant(key, value):
    constants = {"V": 10, "R_max": 4, key: value}
    with pytest.raises(ValueError, match=f"{key} must be positive and finite"):
        ScheduleConfig.build(two_node_network(), {("a", "b"): Utility("linear", 1)}, **constants)


def test_config_rejects_unknown_commodity_nodes():
    with pytest.raises(Exception):
        ScheduleConfig.build(two_node_network(), {("a", "zz"): Utility("linear", 1)}, 10, 4)
    with pytest.raises(ValueError):
        ScheduleConfig.build(two_node_network(), {("a", "a"): Utility("linear", 1)}, 10, 4)
    with pytest.raises(ValueError):
        ScheduleConfig.build(
            two_node_network(), {("a", "b"): Utility("linear", 1)}, 10, 4, tie_mode="bogus"
        )


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(K=-1, P_max=3)
    with pytest.raises(ValueError):
        LinkParams(K=3, P_max=3, delta=0)
    with pytest.raises(ValueError):
        LinkParams(K=3, P_max=3, mu_of_P=lambda p: p + 1)  # mu(0) != 0
    with pytest.raises(ValueError):
        LinkParams(K=3, P_max=3, delta=1, mu_of_P=lambda p: 5 * p)


@pytest.mark.parametrize("field", ["K", "P_max", "delta"])
@pytest.mark.parametrize("flag", [True, False])
def test_link_params_reject_a_boolean(field, flag):
    """A bool is an int to Python, and True would count as an exact 1."""
    values = {"K": 5, "P_max": 5, field: flag}
    with pytest.raises(ValueError, match=f"{field} must be a number, got {flag}"):
        LinkParams(**values)


@pytest.mark.parametrize("flag", [True, False])
def test_utility_rejects_a_boolean_weight(flag):
    with pytest.raises(ValueError, match=f"utility weight must be a number, got {flag}"):
        Utility("linear", flag)


@pytest.mark.parametrize("field", ["K", "P_max", "delta"])
@pytest.mark.parametrize("value", ["4", None, [4]])
def test_link_params_reject_a_non_number(field, value):
    values = {"K": 5, "P_max": 5, field: value}
    with pytest.raises(ValueError, match=re.escape(f"{field} must be a number, got {value!r}")):
        LinkParams(**values)


@pytest.mark.parametrize("value", ["1", None])
def test_utility_rejects_a_non_number_weight(value):
    with pytest.raises(ValueError, match=re.escape(f"utility weight must be a number, got {value!r}")):
        Utility("linear", value)


@pytest.mark.parametrize("key", ["V", "R_max"])
def test_build_rejects_a_quoted_constant(key):
    constants = {"V": 10, "R_max": 4, key: "4"}
    with pytest.raises(ValueError, match=f"{key} must be a number"):
        ScheduleConfig.build(two_node_network(), {("a", "b"): Utility("linear", 1)}, **constants)


def test_utility_validation():
    with pytest.raises(ValueError):
        Utility("cubic", 1)
    with pytest.raises(ValueError):
        Utility("linear", 0)
    assert Utility("log1p", 2).value(math.e - 1) == pytest.approx(2.0)


# -- closed-form slot operations ----------------------------------------------

def test_key_gen_strictly_below_target():
    assert key_gen_decision(4, 5) == 1
    assert key_gen_decision(5, 5) == 0
    assert key_gen_decision(6, 5) == 0


def test_admit_linear_bang_bang():
    u = Utility("linear", 1)
    assert admit(25, 100, u, 3) == 3
    assert admit(99, 100, u, 3) == 3
    assert admit(100, 100, u, 3) == 0  # tie resolves to 0
    assert admit(101, 100, u, 3) == 0


def test_admit_log1p_clamped_interior():
    u = Utility("log1p", 2)
    assert admit(0, 100, u, 5) == 5
    assert admit(50, 100, u, 5) == pytest.approx(3.0)  # 200/50 - 1
    assert admit(25, 100, u, 5) == 5  # interior optimum 7 clamps to the box
    assert admit(500, 100, u, 5) == 0


def test_admit_maximizes_over_grid():
    # closed form must beat every candidate R on a fine grid
    for u in (Utility("linear", 2), Utility("log1p", 3)):
        for Q in (0, 7, 50, 199, 200, 201, 1000):
            star = admit(Q, 100, u, 8)
            best = max(
                100 * u.value(r / 64) - Q * (r / 64) for r in range(8 * 64 + 1)
            )
            assert 100 * u.value(star) - Q * star >= best - 1e-9, (u.kind, Q)


def test_key_consumption_pad_bang_bang():
    lp = LinkParams(K=3, P_max=3)
    assert key_consumption(5, 2, 4, lp) == 3
    assert key_consumption(2, 2, 4, lp) == 0  # tie resolves to 0
    assert key_consumption(0, 10, 4, lp) == 3  # store above target alone suffices
    assert key_consumption(0, 4, 4, lp) == 0


def test_key_consumption_general_rate_matches_enumeration():
    lp = LinkParams(K=3, P_max=6, delta=2, mu_of_P=lambda p: 2 * p - (p > 3) * (p - 3))
    for W in (0, 1, 5, 11):
        for E in (0, 3, 9, 20):
            theta = 8
            got = key_consumption(W, E, theta, lp)
            best = max(range(7), key=lambda p: (lp.rate(p) * W + (E - theta) * p, -p))
            assert got == best, (W, E)


def test_edge_weights_example():
    net = with_link_params(
        Network.from_links([("e1", "c", "a")]), LinkParams(K=1, P_max=1)
    )
    cfg = ScheduleConfig.build(net, {("a", "c"): Utility("linear", 1)}, 2, 3)
    assert cfg.gamma == 4
    st0 = initial_state(cfg)
    st0.Q[("a", "c")] = 10
    weights = edge_weights(net.edges[0], st0.Q, cfg.dests, cfg.gamma)
    # candidate order: the lower label sends first, whatever the edge's u/v
    assert list(weights) == [("a", "c", "c"), ("c", "a", "c")]
    assert weights[("a", "c", "c")] == 6  # 10 - 0 - 4
    assert weights[("c", "a", "c")] == 0  # floored


def test_schedule_commodity_lexicographic_tie():
    w = {
        ("n1", "n2", "b1"): 5,
        ("n1", "n2", "b2"): 5,
        ("n2", "n1", "b1"): 0,
        ("n2", "n1", "b2"): 0,
    }
    f = schedule_commodity(w, 4, Random(0), "lexicographic")
    assert (f.src, f.dst, f.dest, f.nominal) == ("n1", "n2", "b1", 4)


def test_schedule_commodity_random_tie_is_seeded():
    w = {("n1", "n2", "b1"): 5, ("n1", "n2", "b2"): 5}
    picks = [schedule_commodity(w, 4, Random(s), "random").dest for s in range(40)]
    assert set(picks) == {"b1", "b2"}
    again = [schedule_commodity(w, 4, Random(s), "random").dest for s in range(40)]
    assert picks == again


def test_schedule_commodity_none_when_no_positive_weight():
    assert schedule_commodity({("n1", "n2", "b"): 0}, 4, Random(0)) is None
    assert schedule_commodity({("n1", "n2", "b"): 9}, 0, Random(0)) is None


# -- stepping the controller -----------------------------------------------------

def test_first_slot_from_empty_state():
    cfg = ScheduleConfig.build(two_node_network(), {("a", "b"): Utility("linear", 1)}, 200, 10)
    state, decision, audit = step(initial_state(cfg), cfg, Random(0))
    assert decision.S == {"e1": 1}  # store below target
    assert decision.R == {("a", "b"): 10}  # empty queue admits fully
    assert decision.P == {"e1": 0}  # nothing worth sending, store at zero
    assert state.Q[("a", "b")] == 10
    assert state.E["e1"] == 5
    assert audit.availability_ok and audit.bounds_checked


def test_certified_bounds_hold_fixture_run():
    cfg = fixture_config()
    state = initial_state(cfg)
    rng = Random(9)
    q_hi = cfg.queue_bound
    for _ in range(4000):
        state, decision, audit = step(state, cfg, rng)
        assert audit.bounds_checked
        assert audit.availability_ok
        for (node, dest), q in state.Q.items():
            assert 0 <= q <= q_hi
            if node == dest:
                assert q == 0
        for eid, e in state.E.items():
            assert 0 <= e <= cfg.store_bound(eid)


def test_actual_transfers_match_nominal_on_controller_steps():
    cfg = fixture_config()
    state = initial_state(cfg)
    rng = Random(4)
    for _ in range(3000):
        state, decision, audit = step(state, cfg, rng)
        for flow in decision.served.values():
            assert flow.actual == flow.nominal


def test_availability_margin_never_negative_controller():
    cfg = fixture_config(V=250)
    state = initial_state(cfg)
    rng = Random(13)
    for _ in range(3000):
        state, decision, audit = step(state, cfg, rng)
        assert audit.min_key_margin >= 0


def test_drift_audit_controller_and_injected():
    cfg = fixture_config()
    state = initial_state(cfg)
    rng = Random(21)
    for t in range(2500):
        if t % 5 == 2:
            decision = random_feasible_decision(state, cfg, rng)
            state, decision, audit = step(state, cfg, rng, decision=decision)
        else:
            state, decision, audit = step(state, cfg, rng)
        da = drift_audit(decision, cfg)
        assert da.ok, (t, da.slack)


def test_drift_audit_float_mode():
    net = diamond_network()
    cfg = ScheduleConfig.build(net, {("a", "b"): Utility("log1p", 2)}, 100, 8)
    assert not cfg.exact
    state = initial_state(cfg)
    rng = Random(2)
    for _ in range(1500):
        state, decision, audit = step(state, cfg, rng)
        da = drift_audit(decision, cfg)
        assert da.ok


def test_injected_decisions_respect_feasibility():
    cfg = fixture_config()
    state = initial_state(cfg)
    rng = Random(33)
    P_max = {e.id: e.link_params.P_max for e in cfg.network.edges}
    for _ in range(800):
        decision = random_feasible_decision(state, cfg, rng)
        for eid, p in decision.P.items():
            assert 0 <= p <= min(P_max[eid], state.E[eid])
        for r in decision.R.values():
            assert 0 <= r <= cfg.R_max
        state, decision, audit = step(state, cfg, rng, decision=decision)
        assert not audit.bounds_checked
        for e in state.E.values():
            assert e >= 0


def test_injected_overdraw_is_refused():
    """A decision passed to ``step`` is injected, with no flag to set: one

    that spends 5 keys from an empty store raises and leaves the store at 0.
    """
    cfg = ScheduleConfig.build(two_node_network(), {("a", "b"): Utility("linear", 1)}, 200, 10)
    state = initial_state(cfg)
    overdraw = StepDecision(S={"e1": 0}, R={}, P={"e1": 5}, served={})
    with pytest.raises(ValueError, match="overdraws key store on edge 'e1' at slot 0: spends 5 of 0$"):
        step(state, cfg, Random(0), decision=overdraw)
    assert state.E == {"e1": 0}


def test_dest_queue_pinned_zero():
    cfg = fixture_config()
    state = initial_state(cfg)
    rng = Random(55)
    for _ in range(2000):
        state, _, _ = step(state, cfg, rng)
    for dest in cfg.dests:
        assert state.Q[(dest, dest)] == 0


def test_within_certified_bounds_flags_contamination():
    cfg = fixture_config()
    state = initial_state(cfg)
    assert _bounds_violation(state, cfg) is None
    state.Q[("a", "b")] = cfg.queue_bound + 1
    assert _bounds_violation(state, cfg) is not None


def test_bounds_violation_names_slot_entity_value_and_bound():
    cfg = fixture_config()
    state = initial_state(cfg)
    state.t = 12
    assert _bounds_violation(state, cfg) is None
    state.E["k3"] = 211
    assert _bounds_violation(state, cfg) == "key store k3 = 211 outside [0, 210] entering slot 12"
    state.Q[("c1", "b")] = -1
    assert _bounds_violation(state, cfg) == "queue (c1,b) = -1 outside [0, 206] entering slot 12"
    state.Q[("b", "b")] = 3
    assert _bounds_violation(state, cfg) == "destination queue (b,b) = 3, not 0, entering slot 12"


def _unequal_store_config(kind):
    """demo7 with its own ``delta`` and ``P_max`` on every edge, so every key

    store has its own bound ``theta + K_max``.
    """
    K = {"k1": 4, "k2": 3, "k3": 5, "k4": 2, "k5": 4, "k6": 3, "k7": 2, "k8": 5, "k9": 4}
    links = {
        eid: LinkParams(K=k, P_max=3 + i % 4, delta=1 + i % 3) for i, (eid, k) in enumerate(K.items())
    }
    commodities = {pair: Utility(kind, w) for pair, w in DEMO7_COMMODITIES.items()}
    return ScheduleConfig.build(with_link_params(demo7_network(), links), commodities, 100, 6)


class _NoWalk(dict):
    """Queues that fail the test if anything walks them item by item."""

    def items(self):
        raise AssertionError("the one-pass check fell through to the entity walk")


@pytest.mark.parametrize("kind", ["linear", "log1p"])
def test_bounds_check_matches_an_entity_walk_on_unequal_store_bounds(kind):
    """Random states of a config whose store bounds differ: the one-pass check

    and the entity walk agree on every state, word for word, and an in-bound
    state is cleared without a walk, even with stores above the smallest
    store bound. Out-of-bound states push one entity just past its range:
    by 1 in exact mode, by 1e-9 of its bound in float mode, where a store
    inside its 1e-12 rounding allowance still passes.
    """
    cfg = _unequal_store_config(kind)
    assert cfg.exact == (kind == "linear")
    bounds = {eid: cfg.store_bound(eid) for eid in cfg.theta}
    assert len(set(bounds.values())) > 2
    q_hi = cfg.queue_bound
    rng = Random(kind)

    def draw(hi):
        return rng.randint(0, hi) if cfg.exact else rng.uniform(0, hi)

    def past(bound, up):
        if cfg.exact:
            return bound + 1 if up else -1
        return bound + 1e-9 * bound if up else -1e-9 * bound

    above_smallest = 0
    for i in range(600):
        state = initial_state(cfg)
        state.t = i
        for node, dest in state.Q:
            state.Q[(node, dest)] = 0 if node == dest else draw(q_hi)
        for eid in state.E:
            state.E[eid] = draw(bounds[eid])
        inside = i % 2 == 0
        if inside:
            if not cfg.exact:
                eid = rng.choice(list(bounds))
                state.E[eid] = bounds[eid] + 0.5e-12 * bounds[eid]
            above_smallest += max(state.E.values()) > min(bounds.values())
        else:
            what = rng.randrange(5)
            if what < 2:
                key = rng.choice([k for k in state.Q if k[0] != k[1]])
                state.Q[key] = past(q_hi, what == 0)
            elif what == 2:
                state.Q[(cfg.dests[0], cfg.dests[0])] = 1
            else:
                eid = rng.choice(list(bounds))
                state.E[eid] = past(bounds[eid], what == 3)
        want = walk_bounds_violation(state, cfg)
        assert (want is None) == inside, (i, want)
        if inside:
            state.Q = _NoWalk(state.Q)
        assert _bounds_violation(state, cfg) == want, i
    assert above_smallest > 100


def test_one_bounds_scan_per_slot(monkeypatch):
    """Each slot scans its post-step state once and carries the result

    forward as ``certified``; the next slot does not scan its start state.
    """
    real = scheduler._bounds_violation
    scanned = []

    def counted(state, cfg):
        scanned.append(state.t)
        return real(state, cfg)

    monkeypatch.setattr(scheduler, "_bounds_violation", counted)
    cfg = fixture_config()
    state = initial_state(cfg)
    rng = Random(9)
    for _ in range(1000):
        state, _, audit = step(state, cfg, rng)
        assert audit.bounds_checked
    assert len(scanned) == 1000

    scanned.clear()
    state = initial_state(cfg)
    uncertified = 0
    for t in range(1000):
        decision = random_feasible_decision(state, cfg, rng) if t % 10 in (3, 4, 5) else None
        state, _, _ = step(state, cfg, rng, decision=decision)
        assert scanned.count(t + 1) <= 1
        assert state.certified == (real(state, cfg) is None)
        uncertified += not state.certified
    assert len(scanned) <= 1000 and uncertified > 0


def test_controller_step_short_of_nominal_raises(monkeypatch):
    """A controller flow always moves its nominal rate, so ``step`` raises

    when one moves less. The patched controller asks one flow for more than
    all queues hold together; a passed-in decision may run short.
    """
    cfg = fixture_config()
    state = initial_state(cfg)
    rng = Random(3)
    for _ in range(49):
        state, _, _ = step(state, cfg, rng)
    real = scheduler._controller_decision
    asked = []

    def overasking(state, cfg, rng):
        decision = real(state, cfg, rng)
        eid, flow = next(iter(decision.served.items()))
        more = sum(state.Q.values()) + 1
        asked.append(eid)
        served = {**decision.served, eid: ServedFlow(flow.src, flow.dst, flow.dest, more, more)}
        return StepDecision(S=decision.S, R=decision.R, P=decision.P, served=served)

    injected = overasking(state, cfg, Random(3))
    _, moved, _ = step(state, cfg, Random(3), decision=injected)
    assert moved.served[asked[0]].actual < moved.served[asked[0]].nominal
    monkeypatch.setattr(scheduler, "_controller_decision", overasking)
    with pytest.raises(StateInvariantError, match="of nominal") as failure:
        step(state, cfg, rng)
    assert str(failure.value).endswith(f"on edge {asked[-1]} at slot 49")


def test_trajectories_deterministic_per_seed():
    cfg = fixture_config()
    runs = []
    for _ in range(2):
        state = initial_state(cfg)
        rng = Random(6)
        trace = []
        for _ in range(500):
            state, decision, _ = step(state, cfg, rng)
            trace.append((dict(state.Q), dict(state.E), dict(decision.P)))
        runs.append(trace)
    assert runs[0] == runs[1]


OUT_OF_BOX_CASES = [
    ("demo7-exact", lambda: fixture_config()),
    ("diamond-log1p", lambda: ScheduleConfig.build(
        diamond_network(), {("a", "b"): Utility("log1p", 2)}, 100, 8)),
]


@pytest.mark.parametrize("name,make_cfg", OUT_OF_BOX_CASES, ids=[c[0] for c in OUT_OF_BOX_CASES])
def test_drift_audit_fails_an_admission_outside_the_box(name, make_cfg):
    """One admission of ``isqrt(2B) + 1`` bits, far above ``R_max``, is the

    only increment of its slot, so the slack is ``2B - r^2 < 0``: the audit,
    its replay referee and the run's ``drift_ok`` all report the failure.
    """
    cfg = make_cfg()
    pair = cfg.pairs[0]
    over = math.isqrt(int(cfg.B2)) + 1
    assert over > cfg.R_max

    def outside_the_box(state, cfg, rng, t):
        if t != 40:
            return None
        no_keys = dict.fromkeys(state.E, 0)
        return StepDecision(S=no_keys, R={pair: over}, P=no_keys, served={})

    rng = Random(8)
    state = initial_state(cfg)
    for t in range(40):
        state, _, _ = step(state, cfg, rng)
    decision = outside_the_box(state, cfg, rng, 40)
    new_state, decision, _ = step(state, cfg, rng, decision=decision)
    got = drift_audit(decision, cfg)
    want = replay_drift_audit(state, decision, new_state, cfg, injected=True)
    assert not got.ok and not want.ok
    assert got.slack == cfg.B2 - over * over < 0
    assert abs(got.slack - want.slack) <= 1e-12 * cfg.B2

    result = run(Scenario(cfg, 100, 8), inject=outside_the_box)
    assert result.injected_slots == 1 and not result.drift_ok


def test_lexicographic_mode_ignores_rng():
    cfg = fixture_config(tie_mode="lexicographic")
    finals = []
    for seed in (1, 2, 3):
        state = initial_state(cfg)
        rng = Random(seed)
        for _ in range(400):
            state, _, _ = step(state, cfg, rng)
        finals.append((dict(state.Q), dict(state.E)))
    assert finals[0] == finals[1] == finals[2]


@given(st.integers(0, 500))
def test_drift_audit_holds_for_random_states_and_actions(seed):
    """The drift inequality is pure algebra: it must hold from any in-range

    state under any feasible decision, not only on controller trajectories.
    """
    cfg = ScheduleConfig.build(
        diamond_network(), {("a", "b"): Utility("linear", 1)}, 50, 8
    )
    rng = Random(seed)
    state = initial_state(cfg)
    for key in state.Q:
        node, dest = key
        state.Q[key] = 0 if node == dest else rng.randint(0, cfg.queue_bound)
    for eid in state.E:
        state.E[eid] = rng.randint(0, cfg.store_bound(eid))
    decision = random_feasible_decision(state, cfg, rng)
    new_state, decision, _ = step(state, cfg, rng, decision=decision)
    da = drift_audit(decision, cfg)
    assert da.ok, da.slack


# -- the audit against its replay referee, and pinned trajectories ---------------

AUDIT_CASES = [
    ("demo7-random", lambda: fixture_config(), 3000),
    ("demo7-lexicographic", lambda: fixture_config(tie_mode="lexicographic"), 2000),
    ("diamond-random", lambda: ScheduleConfig.build(
        diamond_network(), {("a", "b"): Utility("linear", 1)}, 60, 8), 2000),
    ("diamond-lexicographic", lambda: ScheduleConfig.build(
        diamond_network(), {("a", "b"): Utility("linear", 1)}, 60, 8, tie_mode="lexicographic"), 2000),
    ("diamond-log1p", lambda: ScheduleConfig.build(
        diamond_network(), {("a", "b"): Utility("log1p", 2), ("m1", "a"): Utility("log1p", 1)},
        100, 8), 2000),
    ("demo7-log1p-lexicographic", lambda: ScheduleConfig.build(
        fixture_config().network, {("a", "b"): Utility("log1p", 2), ("c5", "a"): Utility("log1p", 1)},
        100, 6, tie_mode="lexicographic"), 2000),
]


@pytest.mark.parametrize("name,make_cfg,T", AUDIT_CASES, ids=[c[0] for c in AUDIT_CASES])
def test_drift_audit_matches_replay_referee(name, make_cfg, T):
    """The audit sums the decision's increments; the referee replays every

    transfer and evaluates both sides of the drift inequality in full. Their
    verdicts must agree on every slot, controller and injected alike.
    Injection comes in bursts, so controller slots also run from states
    pushed outside the certified bounds. Exact runs agree on the slack by
    integer arithmetic. Float runs sum different terms in a different order,
    so their slacks may differ by rounding: within 1e-12 of ``2B``, the
    audit's own float tolerance.
    """
    cfg = make_cfg()
    assert cfg.exact == ("log1p" not in name)
    state = initial_state(cfg)
    rng = Random(sum(map(ord, name)))
    injected = short = 0
    for t in range(T):
        prev = state
        decision = random_feasible_decision(state, cfg, rng) if t % 10 in (3, 4, 5) else None
        injected += decision is not None
        state, decision, _ = step(state, cfg, rng, decision=decision)
        got = drift_audit(decision, cfg)
        want = replay_drift_audit(prev, decision, state, cfg, injected=t % 10 in (3, 4, 5))
        assert got.ok == want.ok, t
        if cfg.exact:
            assert got.slack == want.slack and type(got.slack) is int, t
        else:
            assert abs(got.slack - want.slack) <= 1e-12 * cfg.B2, (t, got.slack, want.slack)
        short += any(f.actual != f.nominal for f in decision.served.values())
    assert injected == 3 * T // 10 and short > 0


def _trace_digest(cfg, seed, T):
    """sha256 of a seeded run's per-slot (Q, E, S, P, R, served) trace."""
    h = hashlib.sha256()

    def observe(t, state, decision, audit):
        served = sorted(
            (eid, f.src, f.dst, f.dest, f.nominal, f.actual) for eid, f in decision.served.items()
        )
        row = (t, sorted(state.Q.items()), sorted(state.E.items()), sorted(decision.S.items()),
               sorted(decision.P.items()), sorted(decision.R.items()), served)
        h.update(repr(row).encode())

    result = run(Scenario(cfg, T, seed), observer=observe)
    assert result.drift_ok and result.availability_ok and result.bounds_checked
    final = result.final_state
    h.update(repr((sorted(final.Q.items()), sorted(final.E.items()))).encode())
    return h.hexdigest()


# digests of 10^4-slot runs, recorded before the audit stopped replaying
# transfers; any change to the slot dynamics or to int/float types shows here
PINNED_TRACES = [
    ("c05-random", lambda: fixture_config(), 11,
     "779c86c765af4943518565bf3555985d4bf78afca6fa781ce771328631a0a66d"),
    ("c05-lexicographic", lambda: fixture_config(tie_mode="lexicographic"), 11,
     "50ed1e2fbf1db869d1422e95f88883210b31dfd5a636eb2b525c4907bf194199"),
    ("diamond-log1p", lambda: ScheduleConfig.build(
        diamond_network(), {("a", "b"): Utility("log1p", 2)}, 100, 8), 2,
     "ed659d95c7c41fcf3423a1afb52a4b1f4428021e59185d60fb90bb22f34da545"),
]


@pytest.mark.parametrize("name,make_cfg,seed,digest", PINNED_TRACES, ids=[c[0] for c in PINNED_TRACES])
def test_seeded_trajectory_is_pinned(name, make_cfg, seed, digest):
    assert _trace_digest(make_cfg(), seed, 10_000) == digest


# -- the fused decision against its referee --------------------------------------

def _rated_diamond():
    """Diamond whose links serve two data bits per key bit up to three keys."""
    lp = LinkParams(K=3, P_max=5, delta=2, mu_of_P=lambda p: 2 * p - (p > 3) * (p - 3))
    return with_link_params(diamond_network(), lp)


def _grid_commodities(kind):
    return {
        ("g0_0", "g9_9"): Utility(kind, 1),
        ("g9_0", "g0_9"): Utility(kind, 2),
        ("g4_5", "g0_0"): Utility(kind, 1),
    }


DEMO7_COMMODITIES = {("a", "b"): 1, ("c3", "c2"): 2, ("c5", "a"): 1}
DIAMOND_COMMODITIES = {("a", "b"): 1, ("m1", "a"): 1}

DECISION_NETWORKS = {
    "demo7": (lambda: fixture_config().network, lambda kind: {
        pair: Utility(kind, w) for pair, w in DEMO7_COMMODITIES.items()}, 100, 6, 10_000),
    "diamond": (diamond_network, lambda kind: {
        pair: Utility(kind, w) for pair, w in DIAMOND_COMMODITIES.items()}, 60, 8, 10_000),
    "rated-diamond": (_rated_diamond, lambda kind: {
        pair: Utility(kind, w) for pair, w in DIAMOND_COMMODITIES.items()}, 60, 8, 2_500),
    # the grid runs 10^4 slots across its four cases
    "grid10": (lambda: grid_network(10), _grid_commodities, 80, 6, 2_500),
}
DECISION_CASES = [
    (net, tie_mode, kind)
    for net in DECISION_NETWORKS
    for tie_mode in ("random", "lexicographic")
    for kind in ("linear", "log1p")
]


@pytest.mark.parametrize(
    "net,tie_mode,kind", DECISION_CASES, ids=["-".join(c) for c in DECISION_CASES]
)
def test_fused_decision_matches_reference(net, tie_mode, kind):
    """The one-pass decision equals the per-edge weight-dict referee on every

    controller slot: same S, R, P and served, same number types (compared
    by repr), and the same random draws (the generator states agree).
    Injection comes in bursts, so controller slots also run from states
    pushed outside the certified bounds.
    """
    make_net, make_commodities, V, R_max, T = DECISION_NETWORKS[net]
    cfg = ScheduleConfig.build(make_net(), make_commodities(kind), V, R_max, tie_mode=tie_mode)
    rng = Random(sum(map(ord, net + tie_mode + kind)))
    state = initial_state(cfg)
    controller = draws = 0
    for t in range(T):
        if t % 10 in (3, 4, 5):
            decision = random_feasible_decision(state, cfg, rng)
        else:
            before = rng.getstate()
            referee_rng = Random()
            referee_rng.setstate(before)
            decision = _controller_decision(state, cfg, rng)
            expected = reference_decision(state, cfg, referee_rng)
            assert repr(decision) == repr(expected), t
            assert rng.getstate() == referee_rng.getstate(), t
            controller += 1
            draws += rng.getstate() != before
        state, _, _ = step(state, cfg, rng, decision=decision)
    assert controller == 7 * T // 10
    if tie_mode == "lexicographic":
        assert draws == 0
    elif kind == "linear" and net != "rated-diamond":
        assert draws > 0  # integer backlogs tie, so the random pick is exercised



def test_fused_decision_matches_reference_on_float_ties():
    """Float backlogs forced equal, so the random tie pick is drawn in a

    log1p case and in rate-function cases. On edge e1 (a-m1) the flow a->m1
    toward b weighs ``Q[a,b] - Q[m1,b] - gamma`` and the flow m1->a toward a
    weighs ``Q[m1,a] - gamma``; ``Q[a,b] = 2x`` and ``Q[m1,b] = Q[m1,a] = x``
    tie them exactly for any float x. Every store sits at its target, so e1
    spends keys and serves one of the two. Random mode must draw on every
    state, with the referee's generator drawing alike; lexicographic mode
    never draws.
    """
    for net, kind in (("diamond", "log1p"), ("rated-diamond", "linear"), ("rated-diamond", "log1p")):
        make_net, make_commodities, V, R_max, _ = DECISION_NETWORKS[net]
        for tie_mode in ("random", "lexicographic"):
            cfg = ScheduleConfig.build(make_net(), make_commodities(kind), V, R_max, tie_mode=tie_mode)
            rng = Random(net + kind + tie_mode)
            draws = 0
            for i in range(200):
                state = initial_state(cfg)
                for node, dest in state.Q:
                    state.Q[(node, dest)] = 0.0 if node == dest else rng.uniform(0, cfg.queue_bound)
                x = cfg.gamma + rng.uniform(1, 50)
                state.Q[("a", "b")], state.Q[("m1", "b")], state.Q[("m1", "a")] = 2 * x, x, x
                state.E.update(cfg.theta)
                before = rng.getstate()
                referee_rng = Random()
                referee_rng.setstate(before)
                decision = _controller_decision(state, cfg, rng)
                assert repr(decision) == repr(reference_decision(state, cfg, referee_rng)), (net, kind, i)
                assert rng.getstate() == referee_rng.getstate(), (net, kind, i)
                assert decision.served["e1"].dest in ("a", "b")
                draws += rng.getstate() != before
            assert draws == (200 if tie_mode == "random" else 0), (net, kind, tie_mode)
