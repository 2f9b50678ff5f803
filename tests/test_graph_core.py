"""Graph primitives against brute-force oracles."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st
from random import Random

from qkdnet import graph_core
from qkdnet.graph_core import (
    DirectLinkError,
    Edge,
    Network,
    Path,
    UnknownNodeError,
    _SplitFlow,
    disconnects,
    enumerate_simple_paths,
    max_disjoint_paths,
    min_vertex_cut,
)
from qkdnet.security import demo7_network, min_strongest_attack

from helpers import (
    SortedSplitFlow,
    adjacency,
    backtracking_simple_paths,
    brute_all_paths,
    brute_has_avoiding_path,
    brute_min_vertex_cut,
    connected_masks,
    dict_flow_disjoint_paths,
    edge_list_adjacency,
    grid_network,
    interior_subsets,
    line_events,
    network_from_mask,
    pair_list,
    random_connected_mask,
    random_relay_graph,
    rerun_min_vertex_cut,
)


# -- construction and validation ----------------------------------------------

def test_edge_rejects_self_loop():
    with pytest.raises(ValueError):
        Edge("e1", "a", "a")


def test_edge_rejects_empty_id():
    with pytest.raises(ValueError):
        Edge("", "a", "b")


def test_path_needs_two_distinct_nodes():
    with pytest.raises(ValueError):
        Path(("a",))
    with pytest.raises(ValueError):
        Path(("a", "b", "a"))


def test_network_rejects_duplicate_edge_ids():
    with pytest.raises(ValueError):
        Network.from_links([("e1", "a", "b"), ("e1", "b", "c")])


def test_network_rejects_parallel_edges():
    with pytest.raises(ValueError):
        Network.from_links([("e1", "a", "b"), ("e2", "b", "a")])


def test_network_rejects_unknown_endpoint():
    with pytest.raises(UnknownNodeError):
        Network.from_links([("e1", "a", "b")], alice="a", bob="zz")


@pytest.mark.parametrize("u,v", [("a", "zz"), ("zz", "a")])
def test_network_rejects_an_edge_with_one_unknown_end(u, v):
    with pytest.raises(UnknownNodeError, match="edge 'e1' touches an unknown node"):
        Network(("a", "b"), (Edge("e1", u, v),))


def test_network_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        Network.from_links([("e1", "a", "b")], alice="a", bob="a")


def test_nodes_and_edges_are_sorted():
    g = Network.from_links([("z9", "q", "p"), ("a1", "x", "q")])
    assert g.nodes == ("p", "q", "x")
    assert tuple(e.id for e in g.edges) == ("a1", "z9")


def test_neighbors_sorted_and_unknown_node():
    g = demo7_network()
    assert adjacency(g)["c1"] == ("a", "c2", "c4")
    with pytest.raises(UnknownNodeError):
        g.degree("nope")


@given(st.integers(1, 12), st.floats(0.0, 0.8), st.randoms(use_true_random=False))
def test_constructor_adjacency_matches_the_edge_list(n, p, rng):
    """Random labels, edge ids and densities, isolated nodes included: the
    index and neighbour lists the constructor builds agree with neighbour
    lists read off the edges alone."""
    names = [f"v{k}" for k in rng.sample(range(n), n)]
    pairs = pair_list(n)
    ids = rng.sample(range(len(pairs)), len(pairs))
    links = [(f"e{ids[k]}", names[i], names[j]) for k, (i, j) in enumerate(pairs) if rng.random() < p]
    g = Network.from_links(links, extra_nodes=names)
    assert g._index == {v: g.nodes.index(v) for v in names}
    assert adjacency(g) == edge_list_adjacency(g)


def test_edge_between_and_other():
    g = demo7_network()
    e = g.edge_between("a", "c1")
    assert e is not None and e.id == "k1"
    assert {e.u, e.v} == {"a", "c1"} and g.edge_between("c1", "a") is e
    assert g.edge_between("a", "c5") is None


# -- step bounds: a walk or a flow build that loops fails at once -----------------
# (they come before every other walk and flow test, so a looping mutant of
# either fails here in seconds)

def test_walk_steps_are_linear_on_a_20x20_grid():
    """The first path costs O(n+m): a few line events per node and per
    neighbour read, and each node's neighbours are read at most twice. It
    snakes through most of the grid. With all but column 0, ``g1_1`` and
    ``g0_1`` removed, two paths join ``g19_0`` to ``g0_1``, the first
    through node index 0, which leaves the trail right after that path
    with the marks reset; listing both costs O(n+m) too."""
    g = grid_network(20)
    assert g.nodes[0] == "g0_0"
    budget = 8 * (len(g.nodes) + len(g.edges))
    assert line_events([enumerate_simple_paths], budget, lambda: next(enumerate_simple_paths(g, g.alice, g.bob)))
    keep = {f"g{r}_0" for r in range(20)} | {"g1_1", "g0_1"}
    removed = [v for v in g.nodes if v not in keep]
    paths = []
    line_events([enumerate_simple_paths], budget, lambda: paths.extend(enumerate_simple_paths(g, "g19_0", "g0_1", removed)))
    assert [p.nodes[-3:] for p in paths] == [("g1_0", "g0_0", "g0_1"), ("g1_0", "g1_1", "g0_1")]


@pytest.mark.parametrize("a,b", [("g0_0", "g19_19"), ("g19_19", "g0_0"), ("g0_0", "g0_1"), ("g5_5", "g15_15")])
def test_flow_build_steps_are_linear_per_unit_on_a_20x20_grid(a, b):
    """A flow of value k is built in k + 1 searches of the residual graph,
    each O(n+m), and k is at most 4 on a grid. ``g0_0`` and ``g0_1`` share
    a direct edge, which carries its unit up front."""
    g = grid_network(20)
    budget = 8 * 5 * (len(g.nodes) + len(g.edges))
    flows = []
    steps = [_SplitFlow.__init__, _SplitFlow._push, graph_core._spread]
    assert line_events(steps, budget, lambda: flows.append(_SplitFlow(g, a, b)))
    assert flows[0].value == SortedSplitFlow(g, a, b).value


# -- simple path enumeration ----------------------------------------------------

def test_demo_paths_match_brute_enumeration():
    g = demo7_network()
    got = list(enumerate_simple_paths(g, "a", "b"))
    expected = brute_all_paths(g, "a", "b")
    assert set(got) == set(expected)
    assert len(got) == len(expected) == 8
    assert got == sorted(got, key=lambda p: p.nodes)
    assert got[0] == Path(("a", "c1", "c2", "b"))


def test_paths_match_brute_on_all_small_graphs():
    for n in (2, 3, 4, 5):
        for mask in connected_masks(n):
            g = network_from_mask(n, mask)
            got = list(enumerate_simple_paths(g, "n0", f"n{n - 1}"))
            assert set(got) == set(brute_all_paths(g, "n0", f"n{n - 1}")), (n, mask)
            assert got == list(backtracking_simple_paths(g, "n0", f"n{n - 1}")), (n, mask)


def _without(g: Network, gone) -> Network:
    return Network(
        tuple(v for v in g.nodes if v not in gone),
        tuple(e for e in g.edges if e.u not in gone and e.v not in gone),
    )


def test_paths_avoiding_removed_nodes_match_the_subgraph_on_small_graphs():
    """Removing nodes up front equals enumerating the graph without them."""
    for n in (4, 5):
        for mask in connected_masks(n):
            g = network_from_mask(n, mask)
            a, b = "n0", f"n{n - 1}"
            for gone in ({"n1"}, {"n2"}, {"n1", "n2"}):
                want = list(backtracking_simple_paths(_without(g, gone), a, b))
                assert list(enumerate_simple_paths(g, a, b, gone)) == want, (n, mask, gone)


@settings(max_examples=300)
@given(st.integers(3, 10), st.floats(0.1, 0.7), st.floats(0.0, 0.4), st.randoms(use_true_random=False))
def test_paths_match_the_backtracking_referee_on_random_labelled_graphs(n, p, q, rng):
    """Random labels, densities and removed sets, disconnected endpoints included."""
    names = [f"v{k}" for k in rng.sample(range(n), n)]
    links = [(f"e{i}_{j}", names[i], names[j]) for i, j in pair_list(n) if rng.random() < p]
    g = Network.from_links(links, extra_nodes=names)
    a, b = names[0], names[-1]
    gone = {v for v in names[1:-1] if rng.random() < q}
    want = list(backtracking_simple_paths(_without(g, gone), a, b))
    assert list(enumerate_simple_paths(g, a, b, gone)) == want


WALK_CASES = {
    # y's neighbours u and w both lead to b: the walk backs up past a path
    "two-branches": [("e1", "a", "y"), ("e2", "y", "u"), ("e3", "y", "w"), ("e4", "u", "b"), ("e5", "w", "b")],
    # the pendant p1-p2 is a dead end, tried before u
    "dead-pendant": [
        ("e1", "a", "y"), ("e2", "y", "p1"), ("e3", "p1", "p2"), ("e4", "y", "u"), ("e5", "u", "b"),
        ("e6", "u", "v"), ("e7", "v", "w"), ("e8", "w", "b"), ("e9", "w", "x"),
    ],
    # b hangs off y alone, which the walk reaches round the ring c1-c2-c3-c4
    "ring-before-bob": [
        ("e1", "a", "y"), ("e2", "y", "b"), ("e3", "y", "c1"), ("e4", "c1", "c2"), ("e5", "c2", "c3"),
        ("e6", "c3", "c4"), ("e7", "c4", "c1"), ("e8", "a", "c3"),
    ],
}


@pytest.mark.parametrize("name", sorted(WALK_CASES))
def test_walk_matches_the_referee_on_small_cases(name):
    g = Network.from_links(WALK_CASES[name])
    want = list(backtracking_simple_paths(g, "a", "b"))
    assert list(enumerate_simple_paths(g, "a", "b")) == want


class _CountedReads(list):
    """A network's ``_adj`` that counts how often each node's neighbours are read."""

    def __init__(self, adj):
        super().__init__(adj)
        self.reads = {}

    def __getitem__(self, i):
        self.reads[i] = self.reads.get(i, 0) + 1
        return super().__getitem__(i)


def _pocket_links(entries):
    """The 5x5 grid ``g<row>_<col>`` joined to each ``(node, grid corner)``
    in ``entries``: a pocket with no way on to b."""
    links = [(e.id, e.u, e.v) for e in grid_network(5).edges]
    return links + [(f"in_{u}_{c}", u, c) for u, c in entries]


def _counted(g: Network) -> _CountedReads:
    adj = vars(g)["_adj"] = _CountedReads(g._adj)
    return adj


def test_first_path_reads_at_most_two_adjacencies_per_node():
    """Alice's least neighbour leads into a dead pocket: the walk leaves it
    for good after one pass, where plain backtracking tries every path in
    it."""
    links = _pocket_links([("a", "g0_0")]) + [("az", "a", "z"), ("zb", "z", "b")]
    g = Network.from_links(links)
    adj = _counted(g)
    assert next(enumerate_simple_paths(g, "a", "b")) == Path(("a", "z", "b"))
    assert adj.reads and sum(adj.reads.values()) <= 2 * len(g.nodes)


def test_second_path_reads_at_most_two_adjacencies_per_node():
    """After the path a-x-b, four of x's later neighbours lead into one dead
    pocket: its marks must outlive the first entry, though x lies on a
    path already yielded."""
    corners = ("g0_0", "g0_4", "g4_0", "g4_4")
    links = _pocket_links([("x", c) for c in corners])
    links += [("ax", "a", "x"), ("xb", "x", "b"), ("xz", "x", "z"), ("zb", "z", "b")]
    g = Network.from_links(links)
    adj = _counted(g)
    paths = enumerate_simple_paths(g, "a", "b")
    assert [next(paths), next(paths)] == [Path(("a", "x", "b")), Path(("a", "x", "z", "b"))]
    assert adj.reads and sum(adj.reads.values()) <= 2 * len(g.nodes)


def test_later_paths_match_the_referee_on_mid_size_relay_graphs():
    """Past the first path the walk drops its dead marks whenever a node of
    a yielded path leaves the trail: the first 200 paths of graphs with
    12-30 relays and a random attack."""
    rng = Random(31)
    for _ in range(40):
        g = random_relay_graph(rng, rng.randint(12, 30))
        a, b = g.alice, g.bob
        gone = {v for v in g.nodes if v not in (a, b) and rng.random() < 0.15}
        want = list(itertools.islice(backtracking_simple_paths(_without(g, gone), a, b), 200))
        assert list(itertools.islice(enumerate_simple_paths(g, a, b, gone), 200)) == want


def test_paths_removing_an_endpoint_or_unknown_node_rejected():
    g = demo7_network()
    with pytest.raises(ValueError, match="cannot remove an endpoint"):
        list(enumerate_simple_paths(g, "a", "b", ["b"]))
    with pytest.raises(UnknownNodeError):
        list(enumerate_simple_paths(g, "a", "b", ["zz"]))


def test_paths_same_endpoints_rejected():
    g = demo7_network()
    with pytest.raises(ValueError):
        list(enumerate_simple_paths(g, "a", "a"))


def test_path_edges_in_maps_hops():
    g = demo7_network()
    p = Path(("a", "c1", "c2", "b"))
    assert [e.id for e in p.edges_in(g)] == ["k1", "k6", "k9"]
    with pytest.raises(ValueError, match="^path hop 'a'-'c5' has no edge in the network$"):
        Path(("a", "c5")).edges_in(g)
    # the first missing hop is named, not the first hop nor a later missing one
    with pytest.raises(ValueError, match="^path hop 'c2'-'c4' has no edge in the network$"):
        Path(("a", "c1", "c2", "c4", "b")).edges_in(g)


# -- disconnection -------------------------------------------------------------

def test_disconnects_matches_brute_dfs():
    rng = Random(101)
    for n in (4, 5, 6):
        for _ in range(40):
            g = network_from_mask(n, random_connected_mask(n, rng))
            for removed in interior_subsets(g, "n0", f"n{n - 1}"):
                expect = not brute_has_avoiding_path(g, "n0", f"n{n - 1}", removed)
                assert disconnects(g, removed, "n0", f"n{n - 1}") == expect


def test_disconnects_stops_its_search_at_b():
    """b lies two hops from a, and a 50-node tail hangs off a: the search
    reads a's neighbours and at most two more before it sees b."""
    links = [("ax", "a", "x"), ("xb", "x", "b"), ("at", "a", "t0")]
    links += [(f"e{i}", f"t{i}", f"t{i + 1}") for i in range(49)]
    g = Network.from_links(links)
    adj = _counted(g)
    assert not disconnects(g, (), "a", "b")
    assert adj.reads and sum(adj.reads.values()) <= 3


def test_disconnects_rejects_removed_endpoint():
    g = demo7_network()
    with pytest.raises(ValueError):
        disconnects(g, ["a"], "a", "b")
    # every node known, so the endpoint check names the endpoint
    with pytest.raises(ValueError, match="cannot remove an endpoint: 'a'"):
        disconnects(g, g.nodes, "a", "b")


# -- minimum vertex cuts ---------------------------------------------------------

def test_min_cut_exhaustive_small_graphs():
    """Exact match with subset enumeration, including the lexicographic pick."""
    for n in (2, 3, 4, 5):
        for mask in connected_masks(n):
            g = network_from_mask(n, mask)
            a, b = "n0", f"n{n - 1}"
            expected = brute_min_vertex_cut(g, a, b)
            if expected is None:
                with pytest.raises(DirectLinkError):
                    min_vertex_cut(g, a, b)
            else:
                assert min_vertex_cut(g, a, b) == expected, (n, mask)
                assert rerun_min_vertex_cut(g, a, b) == expected, (n, mask)


def test_min_cut_random_medium_graphs():
    rng = Random(2024)
    for n in (6, 7, 8):
        for _ in range(30):
            g = network_from_mask(n, random_connected_mask(n, rng))
            a, b = "n0", f"n{n - 1}"
            expected = brute_min_vertex_cut(g, a, b)
            if expected is None:
                with pytest.raises(DirectLinkError):
                    min_vertex_cut(g, a, b)
            else:
                assert min_vertex_cut(g, a, b) == expected


def _shuffled_small_graph(rng: Random) -> Network:
    """A random connected 3-9-node graph whose labels are a random permutation."""
    n = rng.randint(3, 9)
    mask = random_connected_mask(n, rng, p=rng.uniform(0.2, 0.7))
    names = [f"v{k}" for k in rng.sample(range(n), n)]
    links = [
        (f"e{idx:02d}", names[i], names[j])
        for idx, (i, j) in enumerate(pair_list(n))
        if mask >> idx & 1
    ]
    return Network.from_links(links, alice=names[0], bob=names[-1], extra_nodes=names)


def test_graph_primitives_match_referees_on_shuffled_small_graphs():
    rng = Random(808)
    for _ in range(400):
        g = _shuffled_small_graph(rng)
        a, b = g.alice, g.bob
        assert max_disjoint_paths(g, a, b) == dict_flow_disjoint_paths(g, a, b)
        assert list(enumerate_simple_paths(g, a, b)) == list(backtracking_simple_paths(g, a, b))
        expected = brute_min_vertex_cut(g, a, b)
        if expected is None:
            with pytest.raises(DirectLinkError):
                min_vertex_cut(g, a, b)
        else:
            assert min_vertex_cut(g, a, b) == rerun_min_vertex_cut(g, a, b) == expected


# alice r049 and bob r066 are joined by 5-hop routes through r077-r081-r020-r114,
# r126-r008-r009-r114 and r077-r104-r050-r042. Edmonds-Karp first sends a unit
# along r077, r081, r020, r114. The second unit enters r114 from r009, backs
# over r020, crosses the edge r020-r081 the other way and backs out of r081 to
# r077 and on to r104, so the max flow keeps the 2-cycle r081 -> r020 -> r081,
# which carries a unit through r020 and r081 without joining alice to bob.
CIRCULATION_LINKS = [
    ("e01", "r049", "r126"), ("e02", "r126", "r008"), ("e03", "r008", "r009"),
    ("e04", "r009", "r114"), ("e05", "r114", "r066"), ("e06", "r049", "r077"),
    ("e07", "r077", "r081"), ("e08", "r081", "r020"), ("e09", "r020", "r114"),
    ("e10", "r077", "r104"), ("e11", "r104", "r050"), ("e12", "r050", "r042"),
    ("e13", "r042", "r066"),
]


def test_min_cut_skips_a_candidate_on_a_flow_circulation():
    g = Network.from_links(CIRCULATION_LINKS, alice="r049", bob="r066")
    flow, at = _SplitFlow(g, "r049", "r066"), g._index
    assert flow.succ[at["r081"]] == at["r020"] and flow.succ[at["r020"]] == at["r081"]
    expected = frozenset({"r008", "r077"})
    assert brute_min_vertex_cut(g, "r049", "r066") == expected
    assert rerun_min_vertex_cut(g, "r049", "r066") == expected
    assert min_vertex_cut(g, "r049", "r066") == expected
    assert max_disjoint_paths(g, "r049", "r066") == dict_flow_disjoint_paths(g, "r049", "r066")


# alice v07 and bob v06; the flow runs v07-v04-v03-v02-v05-v06. The greedy
# rejects v02 and then v03, whose search crosses in-copies that v02's
# rejected search marked: unless those marks leave S, v03 takes v04's place.
REJECTED_MARKS_LINKS = [
    ("e0004", "v07", "v04"), ("e0102", "v08", "v05"), ("e0205", "v05", "v00"), ("e0206", "v05", "v02"),
    ("e0209", "v05", "v06"), ("e0304", "v01", "v04"), ("e0307", "v01", "v03"), ("e0308", "v01", "v09"),
    ("e0407", "v04", "v03"), ("e0408", "v04", "v09"), ("e0508", "v00", "v09"), ("e0607", "v02", "v03"),
]


def test_min_cut_clears_the_marks_of_a_rejected_candidate():
    g = Network.from_links(REJECTED_MARKS_LINKS, alice="v07", bob="v06")
    assert brute_min_vertex_cut(g, "v07", "v06") == frozenset({"v04"})
    assert min_vertex_cut(g, "v07", "v06") == frozenset({"v04"})


def test_cut_and_disjoint_paths_match_referees_on_random_label_relay_graphs():
    rng = Random(4242)
    for _ in range(20):
        g = random_relay_graph(rng, rng.randint(50, 150))
        a, b = g.alice, g.bob
        cut = min_vertex_cut(g, a, b)
        assert cut == rerun_min_vertex_cut(g, a, b)
        assert disconnects(g, cut, a, b)
        assert max_disjoint_paths(g, a, b) == dict_flow_disjoint_paths(g, a, b)


def test_cut_matches_the_referee_on_distance_labelled_relay_graphs():
    """Labels grow with hop distance from bob and the cut lies on alice's
    side, so the greedy rules out every relay nearer to bob first."""
    rng = Random(5151)
    for _ in range(10):
        g = random_relay_graph(rng, rng.randint(50, 150), by_distance=True)
        a, b = g.alice, g.bob
        cut = min_vertex_cut(g, a, b)
        assert cut == rerun_min_vertex_cut(g, a, b)
        assert disconnects(g, cut, a, b)


@settings(max_examples=300)
@given(st.integers(3, 14), st.floats(0.05, 0.6), st.randoms(use_true_random=False))
def test_cut_matches_the_referee_on_random_labelled_graphs(n, p, rng):
    """Random labels and densities, disconnected endpoints included."""
    names = [f"v{k:02d}" for k in rng.sample(range(n), n)]
    links = [(f"e{i:02d}{j:02d}", names[i], names[j]) for i, j in pair_list(n) if rng.random() < p]
    g = Network.from_links(links, alice=names[0], bob=names[-1], extra_nodes=names)
    a, b = g.alice, g.bob
    if g.edge_between(a, b) is not None:
        with pytest.raises(DirectLinkError):
            min_vertex_cut(g, a, b)
        with pytest.raises(DirectLinkError):
            rerun_min_vertex_cut(g, a, b)
    else:
        assert min_vertex_cut(g, a, b) == rerun_min_vertex_cut(g, a, b)
    assert max_disjoint_paths(g, a, b) == dict_flow_disjoint_paths(g, a, b)
    for x, y in ((a, b), (b, a)):
        flow, referee = _SplitFlow(g, x, y), SortedSplitFlow(g, x, y)
        assert (_carried(flow, g), flow.value) == (referee.carried(), referee.value)


def worst_label_grid(n: int) -> Network:
    """An n x n grid, row-major labels ``gRRCC``, bob on every node of row 0
    and alice on three spaced nodes of the last row. Alice's three
    neighbours are the only minimum cut and carry nearly the largest labels,
    so the label-order greedy must rule out almost every node first.
    """
    def lab(r: int, c: int) -> str:
        return f"g{r:02d}{c:02d}"

    links = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                links.append((f"h{r:02d}{c:02d}", lab(r, c), lab(r, c + 1)))
            if r + 1 < n:
                links.append((f"v{r:02d}{c:02d}", lab(r, c), lab(r + 1, c)))
    links += [(f"xa{c:02d}", "a", lab(n - 1, c)) for c in (n - 5, n - 3, n - 1)]
    links += [(f"xb{c:02d}", "b", lab(0, c)) for c in range(n)]
    return Network.from_links(links, alice="a", bob="b")


def test_worst_label_grid_has_one_minimum_cut():
    g = worst_label_grid(6)
    interior = [v for v in g.nodes if v not in ("a", "b")]
    separating = [s for s in itertools.combinations(interior, 3) if disconnects(g, s, "a", "b")]
    assert separating == [("g0501", "g0503", "g0505")]
    assert min_vertex_cut(g, "a", "b") == brute_min_vertex_cut(g, "a", "b") == set(separating[0])


def test_worst_label_30x30_grid_cut_is_fast():
    g = worst_label_grid(30)
    t0 = time.perf_counter()
    cut = min_vertex_cut(g, "a", "b")
    assert time.perf_counter() - t0 < 1.0
    assert cut == frozenset({"g2925", "g2927", "g2929"})


def test_worst_label_80x80_grid_cut_is_fast():
    g = worst_label_grid(80)
    t0 = time.perf_counter()
    cut = min_vertex_cut(g, "a", "b")
    assert time.perf_counter() - t0 < 1.0
    assert cut == frozenset({"g7975", "g7977", "g7979"})


def test_demo_min_cut():
    g = demo7_network()
    assert min_vertex_cut(g, "a", "b") == frozenset({"c1", "c3"})
    assert brute_min_vertex_cut(g, "a", "b") == frozenset({"c1", "c3"})


@pytest.mark.parametrize(
    "links",
    [
        [("e1", "a", "c"), ("e2", "d", "b")],
        [("e1", "c", "b")],
        [("e1", "a", "c")],
        [("e1", "c", "d")],
    ],
    ids=["apart", "alice-isolated", "bob-isolated", "both-isolated"],
)
def test_disconnected_endpoints_give_an_empty_cut_and_no_paths(links):
    g = Network.from_links(links, alice="a", bob="b", extra_nodes=("a", "b"))
    assert min_vertex_cut(g, "a", "b") == frozenset() == rerun_min_vertex_cut(g, "a", "b")
    assert max_disjoint_paths(g, "a", "b") == () == dict_flow_disjoint_paths(g, "a", "b")


def test_min_cut_direct_link_raises():
    g = Network.from_links([("e1", "a", "b"), ("e2", "a", "c"), ("e3", "c", "b")])
    with pytest.raises(DirectLinkError):
        min_vertex_cut(g, "a", "b")


def test_min_cut_unknown_node():
    g = demo7_network()
    with pytest.raises(UnknownNodeError):
        min_vertex_cut(g, "a", "zz")


# -- disjoint paths and duality ---------------------------------------------------

def _assert_internally_disjoint(paths):
    for i, p in enumerate(paths):
        for q in paths[i + 1:]:
            assert not (p.interior & q.interior), (p, q)


def test_disjoint_paths_valid_and_disjoint():
    rng = Random(7)
    for n in (4, 5, 6):
        for _ in range(30):
            g = network_from_mask(n, random_connected_mask(n, rng))
            paths = max_disjoint_paths(g, "n0", f"n{n - 1}")
            assert len(paths) >= 1
            for p in paths:
                p.edges_in(g)  # raises if any hop is missing
                assert p.nodes[0] == "n0" and p.nodes[-1] == f"n{n - 1}"
            _assert_internally_disjoint(paths)


def test_menger_duality_exhaustive():
    """Max internally-disjoint paths == min vertex cut, on every small graph."""
    for n in (3, 4, 5):
        for mask in connected_masks(n):
            g = network_from_mask(n, mask)
            a, b = "n0", f"n{n - 1}"
            cut = brute_min_vertex_cut(g, a, b)
            if cut is None:
                continue
            paths = max_disjoint_paths(g, a, b)
            _assert_internally_disjoint(paths)
            assert len(paths) == len(cut), (n, mask)


def test_demo_disjoint_paths():
    g = demo7_network()
    paths = max_disjoint_paths(g, "a", "b")
    assert len(paths) == 2
    _assert_internally_disjoint(paths)


def test_direct_link_still_yields_paths():
    g = Network.from_links(
        [("e1", "a", "b"), ("e2", "a", "c"), ("e3", "c", "b"), ("e4", "a", "d"), ("e5", "d", "b")]
    )
    paths = max_disjoint_paths(g, "a", "b")
    assert Path(("a", "b")) in paths
    assert len(paths) == 3
    _assert_internally_disjoint(paths)


@given(st.integers(0, 10_000), st.sampled_from([4, 5, 6]))
def test_cut_properties_random(seed, n):
    g = network_from_mask(n, random_connected_mask(n, Random(seed)))
    a, b = "n0", f"n{n - 1}"
    if g.edge_between(a, b) is not None:
        return
    cut = min_vertex_cut(g, a, b)
    assert disconnects(g, cut, a, b)
    for v in sorted(cut):
        assert not disconnects(g, cut - {v}, a, b), "cut is not minimal"
    assert len(cut) <= min(g.degree(a), g.degree(b))


def test_results_are_deterministic():
    g = demo7_network()
    assert list(enumerate_simple_paths(g, "a", "b")) == list(
        enumerate_simple_paths(g, "a", "b")
    )
    assert min_vertex_cut(g, "a", "b") == min_vertex_cut(g, "a", "b")
    assert max_disjoint_paths(g, "a", "b") == max_disjoint_paths(g, "a", "b")


# -- one max flow per network, kept as links ------------------------------------


def _carried(flow, g):
    """The edge directions ``(x, y)`` that carry a unit of a ``_SplitFlow``
    on ``g``, as label pairs."""
    pairs = {(x, y) for x, y in enumerate(flow.succ) if y != x} | {(flow.a, y) for y in flow.firsts}
    return {(g.nodes[x], g.nodes[y]) for x, y in pairs}


def _seeded_relay_graph(seed):
    rng = Random(seed)
    return random_relay_graph(rng, rng.randint(20, 150))


FLOW_BUILD_CASES = {
    "demo7": demo7_network(),
    "grid10": grid_network(10),
    "direct-link": Network.from_links(
        [("e1", "a", "b"), ("e2", "a", "c"), ("e3", "c", "b"), ("e4", "a", "d"), ("e5", "d", "b")],
        alice="a", bob="b",
    ),
    "disconnected": Network.from_links(
        [("e1", "a", "c"), ("e2", "c", "d"), ("e3", "x", "b"), ("e4", "x", "y")],
        alice="a", bob="b",
    ),
    "leaf-endpoints": Network.from_links(
        [("e1", "z", "m"), ("e2", "m", "c"), ("e3", "m", "d"), ("e4", "c", "n"),
         ("e5", "d", "n"), ("e6", "n", "0")],
        alice="z", bob="0",
    ),
    # carries other edges when a node's reverse node arc is scanned after
    # its neighbours instead of at its own place in label order
    "relay-73": _seeded_relay_graph(73),
}


@pytest.mark.parametrize("name", sorted(FLOW_BUILD_CASES))
def test_ordered_flow_build_matches_the_sorted_builder(name):
    """The links carry the edges the arc-list Edmonds-Karp carries, with
    the endpoints either way round."""
    g = FLOW_BUILD_CASES[name]
    for a, b in ((g.alice, g.bob), (g.bob, g.alice)):
        flow, referee = _SplitFlow(g, a, b), SortedSplitFlow(g, a, b)
        assert (_carried(flow, g), flow.value) == (referee.carried(), referee.value)


def test_ordered_flow_build_matches_the_sorted_builder_on_random_label_relay_graphs():
    rng = Random(1818)
    for _ in range(200):
        g = random_relay_graph(rng, rng.randint(20, 150))
        a, b = g.alice, g.bob
        flow, referee = _SplitFlow(g, a, b), SortedSplitFlow(g, a, b)
        assert (_carried(flow, g), flow.value) == (referee.carried(), referee.value)


@pytest.mark.parametrize("g", [FLOW_BUILD_CASES["relay-73"], grid_network(6)], ids=["relay-73", "grid6"])
def test_residual_search_scans_each_wide_copy_once(g):
    flow, n = _SplitFlow(g, g.alice, g.bob), len(g.nodes)
    for root, step in ((flow.a, flow.pred), (flow.b, flow.succ)):
        adj = _CountedReads(g._adj)
        graph_core._spread(adj, step, [root], [False] * n, [None] * n)
        assert adj.reads and max(adj.reads.values()) == 1, root


def test_one_network_builds_one_flow_per_endpoint_pair(monkeypatch):
    rng = Random(77)
    g = random_relay_graph(rng, 80)
    fresh = Network(g.nodes, g.edges, g.alice, g.bob)
    a, b = g.alice, g.bob
    want_cut = min_vertex_cut(fresh, a, b)
    want_paths = max_disjoint_paths(fresh, a, b)
    want_back = max_disjoint_paths(fresh, b, a)
    want_back_cut = min_vertex_cut(fresh, b, a)
    assert len(want_paths) >= 2

    built = []

    class CountedFlow(graph_core._SplitFlow):
        def __init__(self, g, a, b):
            built.append((a, b))
            super().__init__(g, a, b)

    monkeypatch.setattr(graph_core, "_SplitFlow", CountedFlow)
    assert min_strongest_attack(g).nodes == want_cut
    assert max_disjoint_paths(g, a, b) == want_paths
    assert max_disjoint_paths(g, a, b) == want_paths
    assert min_vertex_cut(g, a, b) == want_cut
    assert built == [(a, b)]
    assert max_disjoint_paths(g, b, a) == want_back
    assert min_vertex_cut(g, b, a) == want_back_cut
    assert built == [(a, b), (b, a)]
