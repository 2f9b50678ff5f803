"""Attack assessment, key exchanges, and the information-theoretic oracle.

The heaviest checks here enumerate every key assignment through the actual
exchange code and test perfect secrecy empirically from the transcripts,
then demand agreement with security_oracle's verdicts. That route shares no
code with the oracle's rank test. The enumeration referee in helpers must
also agree with the rank test verdict for verdict, and must still refuse
what it cannot enumerate.
"""

import hashlib
import itertools
import math
import time
from random import Random

import pytest
import yaml
from hypothesis import given, strategies as st

from qkdnet.graph_core import Network, Path, max_disjoint_paths
from qkdnet.security import (
    BROKEN,
    PERFECTLY_SECRET,
    _MAX_KEY_BITS,
    AttackSet,
    ExchangeTranscript,
    KeyAssignment,
    Scheme,
    _m0_announcements,
    demo7_network,
    find_secure_path,
    insecure_edges,
    is_strongest,
    m0_exchange,
    min_strongest_attack,
    multipath_exchange,
    security_oracle,
)

from helpers import (
    DEMO7_ROUTE_LONG,
    DEMO7_ROUTE_SHORT,
    EnumerationSizeError,
    backtracking_secure_path,
    brute_all_paths,
    brute_has_avoiding_path,
    canonical_mask,
    connected_masks,
    enumerate_oracle,
    grid_network,
    hit_count_sec,
    interior_subsets,
    mask_connected,
    network_from_mask,
    pair_list,
    per_node_xors,
    random_relay_graph,
    random_connected_mask,
    scheme_threshold,
)


class SeqBits:
    """Stub feeding preset values to getrandbits, in order.

    The exchange only draws share blinds through getrandbits, so this is
    enough to enumerate every coin outcome deterministically.
    """

    def __init__(self, values):
        self._values = list(values)

    def getrandbits(self, n):
        return self._values.pop(0)


@pytest.fixture(scope="module")
def demo():
    return demo7_network()


@pytest.fixture(scope="module")
def demo_scheme():
    return Scheme((DEMO7_ROUTE_SHORT, DEMO7_ROUTE_LONG))


# -- attack sets and schemes ------------------------------------------------------

def test_attack_set_normalizes_and_sorts():
    a = AttackSet(["c3", "c1", "c3"])
    assert list(a) == ["c1", "c3"]
    assert len(a) == 2 and "c1" in a


def test_attack_set_rejects_endpoints(demo):
    with pytest.raises(ValueError):
        AttackSet(["a"]).validate(demo)
    with pytest.raises(ValueError):
        AttackSet(["b", "c1"]).validate(demo)


def test_scheme_requires_shared_endpoints():
    with pytest.raises(ValueError):
        Scheme.of(["a", "c1", "b"], ["a", "c2", "x"])


def test_scheme_rejects_duplicates():
    with pytest.raises(ValueError):
        Scheme.of(["a", "c1", "b"], ["a", "c1", "b"])


def test_scheme_validate_checks_hops(demo):
    bad = Scheme.of(["a", "c5", "b"])  # a-c5 edge does not exist
    with pytest.raises(ValueError):
        bad.validate(demo)


# -- structural assessment --------------------------------------------------------

def test_insecure_edges_fixture(demo):
    assert insecure_edges(demo, ["c1"]) == frozenset({"k1", "k4", "k6"})
    assert insecure_edges(demo, ["c1", "c3"]) == frozenset(
        {"k1", "k2", "k3", "k4", "k6"}
    )
    assert insecure_edges(demo, []) == frozenset()


def test_insecure_edges_never_cover_clean_pairs(demo):
    for attack in interior_subsets(demo, "a", "b"):
        bad = insecure_edges(demo, attack)
        for e in demo.edges:
            touched = e.u in attack or e.v in attack
            assert (e.id in bad) == touched


def test_sec_per_scheme(demo, demo_scheme):
    assert security_oracle(demo, demo_scheme, AttackSet([])) == PERFECTLY_SECRET
    assert security_oracle(demo, demo_scheme, AttackSet(["c1"])) == PERFECTLY_SECRET  # long route unseen
    assert security_oracle(demo, demo_scheme, AttackSet(["c3"])) == PERFECTLY_SECRET  # short route unseen
    assert security_oracle(demo, demo_scheme, AttackSet(["c2", "c3"])) == BROKEN
    assert security_oracle(demo, demo_scheme, AttackSet(["c1", "c3"])) == BROKEN


def test_is_strongest_matches_brute_dfs(demo):
    for attack in interior_subsets(demo, "a", "b"):
        expect = not brute_has_avoiding_path(demo, "a", "b", attack)
        assert is_strongest(demo, attack) == expect


def test_is_strongest_false_on_direct_link():
    g = Network.from_links(
        [("e1", "a", "b"), ("e2", "a", "c"), ("e3", "c", "b")], alice="a", bob="b"
    )
    assert g.edge_between("a", "b") is not None
    assert not is_strongest(g, ["c"])


def test_min_strongest_attack_fixture(demo):
    assert min_strongest_attack(demo) == AttackSet(["c1", "c3"])


def test_find_secure_path(demo):
    assert find_secure_path(demo, ["c2", "c3"]) == Path(("a", "c1", "c4", "c5", "b"))
    assert find_secure_path(demo, ["c1", "c3"]) is None
    p = find_secure_path(demo, [])
    assert p == Path(("a", "c1", "c2", "b"))


def _random_attack(g: Network, rng: Random, p: float) -> list[str]:
    return [v for v in g.nodes if v not in (g.alice, g.bob) and rng.random() < p]


def test_secure_path_matches_backtracking_dfs_on_medium_random_label_graphs():
    # the backtracking referee stays fast up to about 30 relays; beyond
    # that its dead-end searches can run for minutes
    rng = Random(31)
    for _ in range(60):
        g = random_relay_graph(rng, rng.randint(12, 30))
        attack = _random_attack(g, rng, 0.15)
        assert find_secure_path(g, attack) == backtracking_secure_path(g, attack)


def test_secure_path_on_150_random_label_relays_is_fast():
    rng = Random(150)
    for _ in range(5):
        g = random_relay_graph(rng, 150)
        attack = _random_attack(g, rng, 0.1)
        t0 = time.perf_counter()
        path = find_secure_path(g, attack)
        assert time.perf_counter() - t0 < 1.0
        assert path is not None and not path.interior & set(attack)
        path.edges_in(g)


def test_secure_path_on_a_100x100_grid_is_fast():
    """The least path snakes row by row through 9,901 of the 10,000 nodes.
    It takes about 0.1 s on a 2-CPU x86 host; one search from bob per trail
    node took about 16 s."""
    g = grid_network(100)
    t0 = time.perf_counter()
    path = find_secure_path(g, [])
    assert time.perf_counter() - t0 < 1.0
    assert (len(path.nodes), path.nodes[:3], path.nodes[-1]) == (9901, ("g0_0", "g0_1", "g0_2"), "g99_99")
    path.edges_in(g)


def test_scheme_threshold(demo_scheme):
    assert scheme_threshold(demo_scheme) == 2
    assert scheme_threshold(Scheme.of(["a", "c1", "c2", "b"])) == 1
    direct = Scheme.of(["a", "b"], ["a", "c1", "b"])
    assert scheme_threshold(direct) == math.inf


# -- exchanges ---------------------------------------------------------------------

def test_m0_announcement_structure(demo):
    bits = {
        "k1": 0b0001, "k2": 0b0010, "k3": 0b0100, "k4": 0b1000, "k5": 0b0011,
        "k6": 0b0110, "k7": 0b1100, "k8": 0b0101, "k9": 0b1010,
    }
    keys = KeyAssignment(4, bits)
    tr = m0_exchange(demo, keys)
    assert tr.kind == "m0"
    assert set(tr.announcements) == {"c1", "c2", "c3", "c4", "c5"}
    assert tr.announcements["c1"] == bits["k1"] ^ bits["k4"] ^ bits["k6"]
    assert tr.announcements["c2"] == bits["k6"] ^ bits["k7"] ^ bits["k9"]
    assert tr.announcements["c3"] == bits["k2"] ^ bits["k3"]
    assert tr.alice_key == bits["k1"] ^ bits["k2"]
    assert tr.bob_key == tr.alice_key


def test_m0_announcements_match_a_per_node_xor_referee(demo):
    rng = Random(18)
    isolated = Network(demo.nodes + ("c9",), demo.edges, demo.alice, demo.bob)
    graphs = [demo, isolated] + [random_relay_graph(rng, rng.randint(20, 80)) for _ in range(20)]
    for g in graphs:
        keys = KeyAssignment.random(g, 64, rng)
        want = per_node_xors(g, keys)
        alice_xor, bob_xor = want.pop(g.alice), want.pop(g.bob)
        announcements, alice_key, bob_key = _m0_announcements(g, keys.bits)
        assert list(announcements.items()) == list(want.items())
        assert (alice_key, bob_key) == (alice_xor, bob_xor)
    assert _m0_announcements(isolated, KeyAssignment.random(isolated, 8, rng).bits)[0]["c9"] == 0


@given(st.integers(0, 10_000))
def test_m0_keys_agree_random_graphs(seed):
    rng = Random(seed)
    n = rng.randint(2, 8)
    g = network_from_mask(n, random_connected_mask(n, rng))
    keys = KeyAssignment.random(g, 32, rng)
    tr = m0_exchange(g, keys)
    assert tr.alice_key == tr.bob_key


def test_m0_requires_connected_endpoints():
    g = Network.from_links(
        [("e1", "a", "c"), ("e2", "x", "b")], alice="a", bob="b"
    )
    keys = KeyAssignment(1, {"e1": 0, "e2": 1})
    with pytest.raises(ValueError):
        m0_exchange(g, keys)
    # the oracle runs no connectivity check: the relays alice reaches
    # announce her key between them
    assert security_oracle(g, "m0", []) == BROKEN


def test_multipath_roundtrip(demo, demo_scheme):
    rng = Random(5)
    keys = KeyAssignment.random(demo, 32, rng)
    tr = multipath_exchange(demo, demo_scheme, 0xDEADBEEF, keys, rng)
    assert tr.kind == "multipath"
    assert tr.alice_key == tr.bob_key == 0xDEADBEEF
    # one announcement per hop of each path
    assert set(tr.announcements) == {
        "p0:k1", "p0:k6", "p0:k9", "p1:k2", "p1:k3", "p1:k5", "p1:k8",
    }


@given(st.integers(0, 10_000), st.integers(1, 48))
def test_multipath_roundtrip_random(seed, n_bits):
    rng = Random(seed)
    g = demo7_network()
    scheme = Scheme((DEMO7_ROUTE_SHORT, DEMO7_ROUTE_LONG))
    keys = KeyAssignment.random(g, n_bits, rng)
    message = rng.getrandbits(n_bits)
    tr = multipath_exchange(g, scheme, message, keys, rng)
    assert tr.alice_key == tr.bob_key == message


def test_multipath_rejects_oversized_message(demo, demo_scheme):
    keys = KeyAssignment.random(demo, 4, Random(0))
    with pytest.raises(ValueError):
        multipath_exchange(demo, demo_scheme, 1 << 4, keys, Random(0))


def test_key_assignment_validation(demo):
    with pytest.raises(ValueError):
        KeyAssignment(4, {"k1": 16})  # out of range
    partial = KeyAssignment(4, {"k1": 3})
    with pytest.raises(ValueError):
        partial.validate(demo)


@pytest.mark.parametrize("width", [True, False, 16.5, "8", None])
def test_key_width_must_be_an_integer(demo, width):
    with pytest.raises(ValueError, match="keys need an integer width"):
        KeyAssignment.random(demo, width, Random(0))
    with pytest.raises(ValueError, match="keys need an integer width"):
        KeyAssignment(width, {})


@pytest.mark.parametrize("value", [1.5, True, "3", None])
def test_key_values_must_be_integers(value):
    with pytest.raises(ValueError, match=r"key for edge 'k2' must be an integer, got " + repr(value)):
        KeyAssignment(4, {"k1": 3, "k2": value})


def test_key_width_bounds_are_inclusive():
    top = KeyAssignment(_MAX_KEY_BITS, {"k1": (1 << _MAX_KEY_BITS) - 1})
    assert top.n_bits == _MAX_KEY_BITS and KeyAssignment(1, {"k1": 1}).n_bits == 1
    for width in (0, _MAX_KEY_BITS + 1):
        with pytest.raises(ValueError, match="keys take at most|keys need at least one bit"):
            KeyAssignment(width, {})


def test_key_assignment_mismatch_names_only_the_differing_ids(demo):
    bits = {e.id: 1 for e in demo.edges if e.id not in ("k2", "k7")}
    bits["x1"] = bits["k10"] = 0
    keys = KeyAssignment(1, bits)
    with pytest.raises(ValueError) as err:
        keys.validate(demo)
    assert str(err.value) == (
        "key assignment does not match the edges: missing ['k2', 'k7'], unknown ['k10', 'x1']"
    )
    # equal sizes, so only the ids can tell the assignment apart
    swapped = KeyAssignment(1, {("x1" if e.id == "k2" else e.id): 0 for e in demo.edges})
    with pytest.raises(ValueError, match=r"missing \['k2'\], unknown \['x1'\]"):
        swapped.validate(demo)
    KeyAssignment(1, {e.id: 0 for e in demo.edges}).validate(demo)


def test_eve_view_never_contains_clean_keys(demo, demo_scheme):
    rng = Random(11)
    keys = KeyAssignment.random(demo, 8, rng)
    for tr in (
        m0_exchange(demo, keys),
        multipath_exchange(demo, demo_scheme, 0x5A, keys, rng),
    ):
        for attack in interior_subsets(demo, "a", "b"):
            view = tr.eve_view(attack)
            leaked = {k for k in view if k.startswith("key:")}
            expected = {f"key:{e}" for e in insecure_edges(demo, attack)}
            assert leaked == expected
            # every announcement is public
            assert set(tr.announcements) <= set(view)


def test_checks_and_verdicts_never_build_the_neighbour_map(demo_scheme):
    """Membership reads the network's node and edge-id sets, and a hop's
    edge is looked up by its end pair, so a verdict, a scheme check, an
    attack check or a key check builds neither the node index nor the
    neighbour lists nor their label view, also when the check fails."""
    full = {e.id: 0 for e in demo7_network().edges}
    calls = [
        lambda g: security_oracle(g, "m0", ["c1", "c4"]),
        lambda g: security_oracle(g, "m0", []),
        lambda g: AttackSet(["c2", "c5"]).validate(g),
        lambda g: insecure_edges(g, ["c1", "c3"]),
        lambda g: KeyAssignment(1, full).validate(g),
        lambda g: security_oracle(g, demo_scheme, ["c1"]),
        lambda g: security_oracle(g, demo_scheme, ["c1", "c3"]),
        lambda g: demo_scheme.validate(g),
    ]
    failing = [
        lambda g: security_oracle(g, "m0", ["zz"]),
        lambda g: AttackSet(["a", "c1"]).validate(g),
        lambda g: insecure_edges(g, ["c1", "x9"]),
        lambda g: KeyAssignment(1, {"k1": 0}).validate(g),
        lambda g: Scheme.of(("a", "c1", "c5", "b")).validate(g),
    ]
    for call in calls + failing:
        g = demo7_network()
        if call in failing:
            with pytest.raises(ValueError):
                call(g)
        else:
            call(g)
        assert not {"_index", "_adj", "adjacency"} & g.__dict__.keys()
    assert security_oracle(demo7_network(), demo_scheme, ["c1"]) == PERFECTLY_SECRET


def _exchange_cases(name):
    """(network, rng) pairs: demo7, or 20 seeded random connected graphs."""
    if name == "demo7":
        yield demo7_network(), Random(0)
        return
    for seed in range(20):
        rng = Random(seed)
        if seed % 2:
            g = random_relay_graph(rng, rng.randint(10, 30))
        else:
            n = rng.randint(3, 9)
            g = network_from_mask(n, random_connected_mask(n, rng))
        yield g, rng


def _transcript_digest(name, kind):
    """sha256 of each seeded exchange's text and of its view under a random attack."""
    h = hashlib.sha256()
    for g, rng in _exchange_cases(name):
        keys = KeyAssignment.random(g, 32, rng)
        if kind == "m0":
            tr = m0_exchange(g, keys)
        else:
            scheme = Scheme(max_disjoint_paths(g, g.alice, g.bob))
            tr = multipath_exchange(g, scheme, rng.getrandbits(32), keys, rng)
        relays = [v for v in g.nodes if v not in (g.alice, g.bob)]
        attack = rng.sample(relays, rng.randint(0, len(relays)))
        h.update(tr.to_text().encode())
        h.update(repr(sorted(tr.eve_view(attack).items())).encode())
    return h.hexdigest()


# digests recorded before the exchanges and the oracle came to share one
# announcement function per scheme; any change to a transcript shows here
PINNED_TRANSCRIPTS = [
    ("demo7", "m0",
     "21d2d0ab8eafe99880b3afcbc12cda71f5e16fc073594e7f94cd012c9ef78257"),
    ("demo7", "multipath",
     "abb515c1b26add2f1966da0cba7015d2647772cf361fd7ebab9dcb0c5bbaafea"),
    ("random", "m0",
     "72d9d07b8fd515daf1889c71040c1d2495ced4ab18022d6996be2e8819db9021"),
    ("random", "multipath",
     "1bcb381130cc3b02bfa1874dddd03036e932b8b4469201ee3a34ebe68aeb013f"),
]


@pytest.mark.parametrize(
    "name,kind,digest", PINNED_TRANSCRIPTS, ids=[f"{c[0]}-{c[1]}" for c in PINNED_TRANSCRIPTS]
)
def test_seeded_transcripts_are_pinned(name, kind, digest):
    assert _transcript_digest(name, kind) == digest


def test_transcript_text_is_yaml(demo):
    keys = KeyAssignment.random(demo, 16, Random(3))
    tr = m0_exchange(demo, keys)
    doc = yaml.safe_load(tr.to_text())
    assert doc["scheme"] == "m0"
    assert doc["n_bits"] == 16
    # YAML reads the 0x literals back as integers
    assert doc["alice_key"] == tr.alice_key
    assert doc["bob_key"] == tr.bob_key
    assert set(doc["announcements"]) == set(tr.announcements)


# -- referee refusals: the rank test answers what enumeration cannot ----------------

def test_oracle_refuses_large_networks():
    links = [(f"e{i}", f"n{i}", f"n{i + 1}") for i in range(7)]  # 8 nodes
    g = Network.from_links(links, alice="n0", bob="n7")
    with pytest.raises(EnumerationSizeError):
        enumerate_oracle(g, "m0", [])
    assert security_oracle(g, "m0", []) == PERFECTLY_SECRET


def test_oracle_refuses_wide_multipath_views():
    # complete graph on 7 nodes: 21 edges; 4 share bits push past the cap
    nodes = [f"n{i}" for i in range(7)]
    links = [
        (f"e{i}{j}", nodes[i], nodes[j])
        for i in range(7)
        for j in range(i + 1, 7)
    ]
    g = Network.from_links(links, alice="n0", bob="n6")
    paths = [Path(("n0", m, "n6")) for m in ("n1", "n2", "n3", "n4")]
    scheme = Scheme(tuple(paths))
    with pytest.raises(EnumerationSizeError):
        enumerate_oracle(g, scheme, [])
    assert security_oracle(g, scheme, []) == PERFECTLY_SECRET
    assert security_oracle(g, scheme, ["n1", "n2", "n3", "n4"]) == BROKEN


# -- oracle vs structure: fixture dichotomies ---------------------------------------

def test_m0_oracle_dichotomy_fixture(demo):
    for attack in interior_subsets(demo, "a", "b"):
        verdict = security_oracle(demo, "m0", attack)
        expected = BROKEN if is_strongest(demo, attack) else PERFECTLY_SECRET
        assert verdict == expected, attack


def test_multipath_oracle_hit_count_fixture(demo, demo_scheme):
    for attack in interior_subsets(demo, "a", "b"):
        hit = sum(
            1 for p in demo_scheme.paths if p.interior & set(attack)
        )
        verdict = security_oracle(demo, demo_scheme, attack)
        expected = BROKEN if hit == len(demo_scheme.paths) else PERFECTLY_SECRET
        assert verdict == expected, attack


def _grid_attacks(g, densities, seed):
    """Seeded attacks on ``g``, five per density, then the minimum cut."""
    rng = Random(seed)
    for p in densities:
        for _ in range(5):
            yield _random_attack(g, rng, p)
    yield sorted(min_strongest_attack(g))


def test_m0_oracle_dichotomy_on_40x40_grids():
    g = grid_network(40)
    for seed in (1, 2):
        verdicts = set()
        for attack in _grid_attacks(g, (0.1, 0.3, 0.5), seed):
            verdict = security_oracle(g, "m0", attack)
            assert verdict == (BROKEN if is_strongest(g, attack) else PERFECTLY_SECRET), attack
            verdicts.add(verdict)
        assert verdicts == {BROKEN, PERFECTLY_SECRET}


def test_multipath_oracle_hit_count_on_40x40_grids():
    g = grid_network(40)
    scheme = Scheme(max_disjoint_paths(g, g.alice, g.bob))
    for seed in (1, 2):
        verdicts = set()
        for attack in _grid_attacks(g, (0.005, 0.02, 0.05), seed):
            verdict = security_oracle(g, scheme, attack)
            hit_all = hit_count_sec(attack, scheme) == 0
            assert verdict == (BROKEN if hit_all else PERFECTLY_SECRET), attack
            verdicts.add(verdict)
        assert verdicts == {BROKEN, PERFECTLY_SECRET}


def test_m0_oracle_on_a_100x100_grid_is_fast():
    """About 55 ms on a 2-CPU x86 host, where reducing the relay announcements
    before the known keys and building the neighbour map took about 110 ms.
    The best of three runs is timed."""
    g = grid_network(100)
    attack = _random_attack(g, Random(100), 0.1)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        verdict = security_oracle(g, "m0", attack)
        times.append(time.perf_counter() - t0)
    assert verdict == PERFECTLY_SECRET and not is_strongest(g, attack)
    assert min(times) < 0.25


# -- oracle vs transcripts: empirical perfect secrecy --------------------------------

def _empirically_secret(transcripts, attack, secret_bits):
    """Perfect secrecy judged from raw transcripts: within every

    eavesdropper view class, the secret bit must be exactly balanced.
    """
    counts: dict[tuple, list[int]] = {}
    for tr, s in zip(transcripts, secret_bits):
        view = tuple(sorted(tr.eve_view(attack).items()))
        counts.setdefault(view, [0, 0])[s] += 1
    return all(zero == one for zero, one in counts.values())


def test_m0_oracle_agrees_with_exhaustive_transcripts(demo):
    edge_ids = [e.id for e in demo.edges]
    transcripts = []
    for packed in range(1 << len(edge_ids)):
        bits = {eid: packed >> i & 1 for i, eid in enumerate(edge_ids)}
        transcripts.append(m0_exchange(demo, KeyAssignment(1, bits)))
    secrets = [tr.alice_key for tr in transcripts]
    for attack in interior_subsets(demo, "a", "b"):
        empirical = _empirically_secret(transcripts, attack, secrets)
        verdict = security_oracle(demo, "m0", attack)
        assert verdict == (PERFECTLY_SECRET if empirical else BROKEN), attack


def test_multipath_oracle_agrees_with_exhaustive_transcripts(demo, demo_scheme):
    edge_ids = [e.id for e in demo.edges]
    transcripts = []
    secrets = []
    for packed in range(1 << len(edge_ids)):
        bits = {eid: packed >> i & 1 for i, eid in enumerate(edge_ids)}
        keys = KeyAssignment(1, bits)
        for coin in (0, 1):
            for message in (0, 1):
                tr = multipath_exchange(
                    demo, demo_scheme, message, keys, SeqBits([coin])
                )
                transcripts.append(tr)
                secrets.append(message)
    for attack in interior_subsets(demo, "a", "b"):
        empirical = _empirically_secret(transcripts, attack, secrets)
        verdict = security_oracle(demo, demo_scheme, attack)
        assert verdict == (PERFECTLY_SECRET if empirical else BROKEN), attack


def test_single_path_scheme_oracle(demo):
    scheme = Scheme.of(["a", "c1", "c2", "b"])
    assert security_oracle(demo, scheme, []) == PERFECTLY_SECRET
    assert security_oracle(demo, scheme, ["c1"]) == BROKEN
    assert security_oracle(demo, scheme, ["c3"]) == PERFECTLY_SECRET


def test_m0_oracle_small_random_graphs():
    rng = Random(77)
    for _ in range(25):
        n = rng.randint(3, 6)
        g = network_from_mask(n, random_connected_mask(n, rng))
        a, b = "n0", f"n{n - 1}"
        for attack in interior_subsets(g, a, b):
            verdict = security_oracle(g, "m0", attack)
            expected = BROKEN if is_strongest(g, attack) else PERFECTLY_SECRET
            assert verdict == expected, (n, attack)


# -- rank test vs enumeration referee --------------------------------------------------

def _assert_agree(g, scheme, attack):
    verdict = security_oracle(g, scheme, attack)
    assert verdict == enumerate_oracle(g, scheme, attack), (g.edges, scheme, attack)
    return verdict


def _class_representatives(n):
    seen = set()
    for mask in connected_masks(n):
        rep = canonical_mask(n, mask)
        if rep not in seen:
            seen.add(rep)
            yield network_from_mask(n, rep)


def test_rank_test_matches_referee_m0_small_graph_sweep():
    """Every (graph class, attack) of the C3 sweep, up to 6 nodes."""
    for n in range(2, 7):
        for g in _class_representatives(n):
            for attack in interior_subsets(g, "n0", f"n{n - 1}"):
                _assert_agree(g, "m0", attack)


def test_rank_test_matches_referee_disjoint_multipath_sweep():
    """Every C4 instance: maximum disjoint path families on 4 and 5 nodes."""
    for n in (4, 5):
        for g in _class_representatives(n):
            scheme = Scheme(max_disjoint_paths(g, "n0", f"n{n - 1}"))
            for attack in interior_subsets(g, "n0", f"n{n - 1}"):
                _assert_agree(g, scheme, attack)


def _random_network(rng, n, m):
    pairs = pair_list(n)
    while True:
        mask = sum(1 << idx for idx in rng.sample(range(len(pairs)), m))
        if mask_connected(n, mask, pairs):
            return network_from_mask(n, mask)


@pytest.mark.parametrize("kind", ["m0", "multipath"])
def test_rank_test_matches_referee_random_seven_node(kind):
    """35 seeded 7-node instances per scheme, 2^14 to 2^20 outcomes each."""
    rng = Random(2002)
    for k in range(35):
        width = 14 + k % 7
        while True:
            if kind == "m0":
                g, scheme = _random_network(rng, 7, width), "m0"
                break
            g = _random_network(rng, 7, rng.randint(width - 6, min(width - 1, 21)))
            scheme = Scheme(max_disjoint_paths(g, "n0", "n6"))
            if len(g.edges) + len(scheme.paths) == width:
                break
        attack = [f"n{i}" for i in range(1, 6) if rng.random() < 0.5]
        _assert_agree(g, scheme, attack)


def test_rank_test_matches_referee_overlapping_paths():
    """Schemes whose paths share an edge or a relay, where counting hit paths

    is wrong: every scheme of two or three simple routes on demo7, and every
    pair of overlapping routes on random 5-node graphs, under every attack.
    """
    demo = demo7_network()
    routes = brute_all_paths(demo, "a", "b")
    misjudged = 0
    for size in (2, 3):
        for paths in itertools.combinations(routes, size):
            scheme = Scheme(paths)
            for attack in interior_subsets(demo, "a", "b"):
                verdict = _assert_agree(demo, scheme, attack)
                hit_all = hit_count_sec(attack, scheme) == 0
                misjudged += verdict != (BROKEN if hit_all else PERFECTLY_SECRET)
    assert misjudged > 0
    # the two routes share edge k1, so p0:k1 ^ p1:k1 is the message itself
    shared = Scheme.of(["a", "c1", "c2", "b"], ["a", "c1", "c4", "c5", "b"])
    assert security_oracle(demo, shared, []) == BROKEN

    rng = Random(5)
    for _ in range(20):
        g = network_from_mask(5, random_connected_mask(5, rng, p=0.6))
        routes = brute_all_paths(g, "n0", "n4")
        for paths in itertools.combinations(routes, 2):
            if paths[0].interior & paths[1].interior:
                for attack in interior_subsets(g, "n0", "n4"):
                    _assert_agree(g, Scheme(paths), attack)
