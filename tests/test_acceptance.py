"""Acceptance gate: ten end-to-end criteria, one test (and one verdict line)

each. The security criteria sweep exhaustive graph families against
independent brute-force classifiers; the scheduling criteria certify the
queue, store, availability, and drift guarantees on long runs and measure
the controller against the static oracle.
"""

import math
import time
from random import Random

import pytest

from qkdnet.graph_core import max_disjoint_paths
from qkdnet.harness import Scenario, oracle_optimal, run
from qkdnet.scheduler import LinkParams, ScheduleConfig, Utility
from qkdnet.security import (
    BROKEN,
    PERFECTLY_SECRET,
    KeyAssignment,
    Scheme,
    demo7_network,
    is_strongest,
    m0_exchange,
    security_oracle,
)

from helpers import (
    DEMO7_ROUTE_LONG,
    DEMO7_ROUTE_SHORT,
    brute_has_avoiding_path,
    canonical_mask,
    connected_masks,
    diamond_network,
    interior_subsets,
    network_from_mask,
    random_connected_mask,
    random_feasible_decision,
    scheme_threshold,
    two_node_network,
    with_link_params,
)


def _verdict(tag: str, detail: str) -> None:
    print(f"[{tag}] PASS: {detail}")


# -- criterion 1: strongest attacks are exactly the path-denying ones -------------

def test_c01_strongest_iff_no_avoiding_path_exhaustive():
    """Every connected graph on up to 6 nodes (all attack sets), plus 500

    random 7-node graphs: an attack is strongest exactly when depth-first
    search finds no attack-avoiding simple path. Zero mismatches allowed.
    """
    t0 = time.monotonic()
    checked = 0
    for n in range(2, 7):
        for mask in connected_masks(n):
            g = network_from_mask(n, mask)
            a, b = "n0", f"n{n - 1}"
            for attack in interior_subsets(g, a, b):
                expect = not brute_has_avoiding_path(g, a, b, attack)
                assert is_strongest(g, attack) == expect, (n, mask, attack)
                checked += 1
    rng = Random(716)
    for _ in range(500):
        g = network_from_mask(7, random_connected_mask(7, rng))
        for attack in interior_subsets(g, "n0", "n6"):
            expect = not brute_has_avoiding_path(g, "n0", "n6", attack)
            assert is_strongest(g, attack) == expect
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"runtime target exceeded: {elapsed:.1f}s"
    _verdict("C1", f"{checked} (graph, attack) instances, 0 mismatches, {elapsed:.1f}s")


# -- criterion 2: the announcement scheme always agrees on the key ------------------

def test_c02_m0_key_agreement_1000_random_trials():
    rng = Random(32)
    for trial in range(1000):
        n = rng.randint(2, 8)
        g = network_from_mask(n, random_connected_mask(n, rng))
        keys = KeyAssignment.random(g, 32, rng)
        tr = m0_exchange(g, keys)
        assert tr.alice_key == tr.bob_key, trial
    _verdict("C2", "1000/1000 trials agreed on 32-bit keys")


# -- criterion 3: exhaustive secrecy dichotomy for the announcement scheme ----------

def test_c03_m0_oracle_dichotomy_all_small_graphs():
    """On every connected graph with up to 6 nodes and 1-bit keys, the

    enumeration oracle must return perfectly_secret for every
    non-strongest attack and broken for every strongest one.

    Graphs are deduplicated by relabeling interior nodes (endpoints stay
    fixed): relabeling is an isomorphism of the whole instance, and both
    the cut structure and the key-assignment distribution are label-blind,
    so checking one representative per class decides the entire family.
    """
    t0 = time.monotonic()
    classes = 0
    instances = 0
    for n in range(2, 7):
        seen = set()
        for mask in connected_masks(n):
            rep = canonical_mask(n, mask)
            if rep in seen:
                continue
            seen.add(rep)
            classes += 1
            g = network_from_mask(n, rep)
            a, b = "n0", f"n{n - 1}"
            for attack in interior_subsets(g, a, b):
                verdict = security_oracle(g, "m0", attack)
                expect = BROKEN if is_strongest(g, attack) else PERFECTLY_SECRET
                assert verdict == expect, (n, rep, attack)
                instances += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"runtime target exceeded: {elapsed:.1f}s"
    _verdict(
        "C3",
        f"{classes} graph classes / {instances} verdicts, dichotomy exact, {elapsed:.1f}s",
    )


# -- criterion 4: share-splitting security counts hit paths --------------------------

def test_c04_multipath_secrecy_matches_hit_count():
    """Schemes of internally-disjoint routes stay perfectly secret until an

    attack touches every route; the two-route scheme on the seven-node
    testbed needs two compromised nodes, and {c2, c3} suffices.
    """
    demo = demo7_network()
    red_blue = Scheme((DEMO7_ROUTE_SHORT, DEMO7_ROUTE_LONG))
    assert scheme_threshold(red_blue) == 2
    assert security_oracle(demo, red_blue, ["c2", "c3"]) == BROKEN

    checked = 0
    for attack in interior_subsets(demo, "a", "b"):
        hits = sum(1 for p in red_blue.paths if p.interior & set(attack))
        verdict = security_oracle(demo, red_blue, attack)
        assert verdict == (BROKEN if hits == 2 else PERFECTLY_SECRET), attack
        checked += 1

    for n in (4, 5):
        seen = set()
        for mask in connected_masks(n):
            rep = canonical_mask(n, mask)
            if rep in seen:
                continue
            seen.add(rep)
            g = network_from_mask(n, rep)
            a, b = "n0", f"n{n - 1}"
            scheme = Scheme(max_disjoint_paths(g, a, b))
            for attack in interior_subsets(g, a, b):
                hits = sum(1 for p in scheme.paths if p.interior & set(attack))
                verdict = security_oracle(g, scheme, attack)
                expect = BROKEN if hits == len(scheme.paths) else PERFECTLY_SECRET
                assert verdict == expect, (n, rep, attack)
                checked += 1
    _verdict("C4", f"threshold(two-route)=2, {checked} hit-count verdicts exact")


# -- criteria 5 and 6: certified state bounds and key availability -------------------

FIXTURE_T = 100_000


class _BoundsProbe:
    """Records extreme queue/store values and types across a whole run."""

    def __init__(self) -> None:
        self.max_q = 0
        self.min_q = 0
        self.max_e: dict[str, int] = {}
        self.min_e: dict[str, int] = {}
        self.min_margin = math.inf
        self.all_ints = True
        self.dest_pinned = True

    def __call__(self, t, state, decision, audit) -> None:
        for (node, dest), q in state.Q.items():
            self.all_ints = self.all_ints and isinstance(q, int)
            if node == dest:
                self.dest_pinned = self.dest_pinned and q == 0
            else:
                self.max_q = max(self.max_q, q)
                self.min_q = min(self.min_q, q)
        for eid, e in state.E.items():
            self.all_ints = self.all_ints and isinstance(e, int)
            self.max_e[eid] = max(self.max_e.get(eid, 0), e)
            self.min_e[eid] = min(self.min_e.get(eid, 0), e)
        self.min_margin = min(self.min_margin, audit.min_key_margin)


@pytest.fixture(scope="module")
def fixture_run():
    """10^5-slot run on the seven-node network with three commodities."""
    K = {"k1": 4, "k2": 3, "k3": 5, "k4": 2, "k5": 4, "k6": 3, "k7": 2, "k8": 5, "k9": 4}
    net = with_link_params(
        demo7_network(), {eid: LinkParams(K=k, P_max=5) for eid, k in K.items()}
    )
    commodities = {
        ("a", "b"): Utility("linear", 1),
        ("c3", "c2"): Utility("linear", 2),
        ("c5", "a"): Utility("linear", 1),
    }
    scenario = Scenario(ScheduleConfig.build(net, commodities, V=100, R_max=6), T=FIXTURE_T, seed=11)
    probe = _BoundsProbe()
    result = run(scenario, observer=probe)
    return scenario, probe, result


def test_c05_queue_and_store_bounds_hold_100k_slots(fixture_run):
    scenario, probe, result = fixture_run
    cfg = scenario.config
    assert cfg.exact, "scenario must run in integer arithmetic"
    assert probe.all_ints, "state left integer arithmetic"
    q_hi = cfg.queue_bound  # beta*V + R_max = 2*100 + 6
    assert q_hi == 206
    assert 0 <= probe.min_q and probe.max_q <= q_hi
    for eid in probe.max_e:
        e_hi = cfg.store_bound(eid)  # theta + K_max = 205 + 5
        assert e_hi == 210
        assert 0 <= probe.min_e[eid] and probe.max_e[eid] <= e_hi
    assert probe.dest_pinned
    assert result.bounds_checked, "certified-bounds assert must be armed every slot"
    for (node, dest), q in result.final_state.Q.items():
        assert 0 <= q <= (0 if node == dest else q_hi)
    _verdict(
        "C5",
        f"{FIXTURE_T} slots: Q in [0, {q_hi}] (max seen {probe.max_q}), "
        f"E in [0, 210] (max seen {max(probe.max_e.values())}), integer-exact",
    )


def test_c05_tail_utility_within_guaranteed_gap_of_oracle(fixture_run):
    scenario, _, result = fixture_run
    cfg = scenario.config
    oracle = oracle_optimal(cfg.network, cfg.commodities, cfg.R_max)
    assert oracle.value == pytest.approx(13, abs=1e-9)
    measured = result.metrics.utility_of_rates(cfg.commodities)
    floor = oracle.value - cfg.B_tilde / cfg.V - 0.02 * oracle.value
    assert floor <= measured <= oracle.value * (1 + 1e-3), (measured, oracle.value)
    _verdict("C5", f"tail utility {measured:.4f} against U*={oracle.value:g}")


def test_c06_key_spend_never_exceeds_store(fixture_run):
    scenario, probe, result = fixture_run
    assert result.availability_ok
    assert probe.min_margin >= 0
    _verdict(
        "C6",
        f"P <= E on every slot and edge; tightest margin {probe.min_margin}",
    )


# -- criterion 7: the drift inequality holds slot by slot ----------------------------

def test_c07_drift_audit_ten_seeded_runs_with_injections():
    def inject(state, cfg, rng, t):
        if 300 <= t < 700:
            return random_feasible_decision(state, cfg, rng)
        return None

    diamond = diamond_network()
    k_fix = {"k1": 4, "k2": 3, "k3": 5, "k4": 2, "k5": 4, "k6": 3, "k7": 2, "k8": 5, "k9": 4}
    fixture_net = with_link_params(
        demo7_network(), {eid: LinkParams(K=k, P_max=5) for eid, k in k_fix.items()}
    )
    fixture_commodities = {
        ("a", "b"): Utility("linear", 1),
        ("c3", "c2"): Utility("linear", 2),
    }
    runs = []
    for seed in range(6):
        runs.append(
            (
                Scenario(ScheduleConfig.build(diamond, {("a", "b"): Utility("linear", 1)}, 60, 8), 2000, seed),
                inject if seed >= 3 else None,
            )
        )
    for seed in range(6, 10):
        runs.append(
            (
                Scenario(ScheduleConfig.build(fixture_net, fixture_commodities, 80, 6), 2000, seed),
                inject if seed >= 8 else None,
            )
        )
    injected_total = 0
    for scenario, injector in runs:
        result = run(scenario, inject=injector)
        assert result.drift_ok, f"drift audit failed, seed {scenario.seed}"
        injected_total += result.injected_slots
    assert injected_total == 5 * 400
    _verdict("C7", "10 seeded runs x 2000 slots, drift bound held on every slot "
                   f"({injected_total} randomized-action slots included)")


# -- criteria 8 and 9: near-optimal utility and the backlog price of V ----------------

SWEEP_T = 100_000
SWEEP_V = (20, 100, 500)
SWEEP_SEEDS = (1, 2, 3)


@pytest.fixture(scope="module")
def diamond_sweep():
    net = diamond_network(K=3, P_max=3)
    commodities = {("a", "b"): Utility("linear", 1)}
    oracle = oracle_optimal(net, commodities, R_max=8)
    records = []
    for V in SWEEP_V:
        for seed in SWEEP_SEEDS:
            scenario = Scenario(ScheduleConfig.build(net, commodities, V=V, R_max=8), T=SWEEP_T, seed=seed)
            t0 = time.monotonic()
            result = run(scenario)
            elapsed = time.monotonic() - t0
            assert result.drift_ok and result.availability_ok and result.bounds_checked
            measured = result.metrics.utility_of_rates(commodities)
            records.append(
                {
                    "V": V,
                    "seed": seed,
                    "measured": measured,
                    "B_tilde": scenario.config.B_tilde,
                    "avg_backlog": sum(result.metrics.backlog) / len(result.metrics.backlog),
                    "queue_bound": scenario.config.queue_bound,
                    "elapsed": elapsed,
                }
            )
    return oracle, records


def test_c08_utility_within_guaranteed_gap_and_monotone(diamond_sweep):
    oracle, records = diamond_sweep
    assert oracle.value == pytest.approx(6, abs=1e-9)
    for rec in records:
        floor = oracle.value - rec["B_tilde"] / rec["V"] - 0.02 * oracle.value
        assert rec["measured"] >= floor, rec
        assert rec["elapsed"] < 60, f"run exceeded target: {rec['elapsed']:.1f}s"
    for seed in SWEEP_SEEDS:
        gaps = [
            max(0.0, oracle.value - rec["measured"])
            for rec in records
            if rec["seed"] == seed
        ]
        assert gaps == sorted(gaps, reverse=True), (seed, gaps)
    slowest = max(rec["elapsed"] for rec in records)
    _verdict(
        "C8",
        f"9 runs at V={SWEEP_V}: measured utility within guaranteed gap, "
        f"gap non-increasing in V per seed, slowest run {slowest:.1f}s",
    )


def test_c09_backlog_grows_with_v_and_stays_bounded(diamond_sweep):
    _, records = diamond_sweep
    n_nodes = 4
    for rec in records:
        bound = n_nodes**2 * rec["queue_bound"]
        assert rec["avg_backlog"] <= bound, rec
    for seed in SWEEP_SEEDS:
        backlogs = [rec["avg_backlog"] for rec in records if rec["seed"] == seed]
        assert backlogs == sorted(backlogs), (seed, backlogs)
    _verdict(
        "C9",
        "time-average backlog non-decreasing in V and within the aggregate bound "
        + str([round(rec["avg_backlog"], 1) for rec in records[::3]]),
    )


# -- criterion 10: the oracle and the simulator agree on a solvable instance ----------

def test_c10_two_node_oracle_exact_and_simulator_converges():
    net = two_node_network(K=5, P_max=5)
    commodities = {("a", "b"): Utility("linear", 1)}
    oracle = oracle_optimal(net, commodities, R_max=10)
    assert oracle.upper - oracle.value <= 1e-9
    assert oracle.rates[("a", "b")] == pytest.approx(5, abs=1e-9)
    scenario = Scenario(ScheduleConfig.build(net, commodities, V=200, R_max=10), T=100_000, seed=42)
    result = run(scenario)
    assert result.drift_ok and result.availability_ok and result.bounds_checked
    delivered = result.metrics.delivered_rate("b", tail=0.8)
    assert abs(delivered - 5) <= 0.01 * 5, delivered
    _verdict(
        "C10",
        f"LP rate 5 exact; delivered {delivered:.4f}/slot over the last 80% "
        "(within 1%)",
    )
