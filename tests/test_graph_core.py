"""Graph primitives against brute-force oracles."""

import pytest
from hypothesis import given, strategies as st
from random import Random

from qkdnet.graph_core import (
    DirectLinkError,
    Edge,
    Network,
    Path,
    UnknownNodeError,
    disconnects,
    enumerate_simple_paths,
    max_disjoint_paths,
    min_vertex_cut,
)
from qkdnet.security import demo7_network

from helpers import (
    brute_all_paths,
    brute_has_avoiding_path,
    brute_min_vertex_cut,
    connected_masks,
    interior_subsets,
    network_from_mask,
    random_connected_mask,
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


def test_network_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        Network.from_links([("e1", "a", "b")], alice="a", bob="a")


def test_nodes_and_edges_are_sorted():
    g = Network.from_links([("z9", "q", "p"), ("a1", "x", "q")])
    assert g.nodes == ("p", "q", "x")
    assert tuple(e.id for e in g.edges) == ("a1", "z9")


def test_neighbors_sorted_and_unknown_node():
    g = demo7_network()
    assert g.adjacency["c1"] == ("a", "c2", "c4")
    with pytest.raises(UnknownNodeError):
        g.degree("nope")


def test_edge_between_and_other():
    g = demo7_network()
    e = g.edge_between("a", "c1")
    assert e is not None and e.id == "k1"
    assert e.pair == {"a", "c1"} and g.edge_between("c1", "a") is e
    assert g.edge_between("a", "c5") is None


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
            got = set(enumerate_simple_paths(g, "n0", f"n{n - 1}"))
            assert got == set(brute_all_paths(g, "n0", f"n{n - 1}")), (n, mask)


def test_paths_same_endpoints_rejected():
    g = demo7_network()
    with pytest.raises(ValueError):
        list(enumerate_simple_paths(g, "a", "a"))


def test_path_edges_in_maps_hops():
    g = demo7_network()
    p = Path(("a", "c1", "c2", "b"))
    assert [e.id for e in p.edges_in(g)] == ["k1", "k6", "k9"]
    with pytest.raises(ValueError):
        Path(("a", "c5")).edges_in(g)


# -- disconnection -------------------------------------------------------------

def test_disconnects_matches_brute_dfs():
    rng = Random(101)
    for n in (4, 5, 6):
        for _ in range(40):
            g = network_from_mask(n, random_connected_mask(n, rng))
            for removed in interior_subsets(g, "n0", f"n{n - 1}"):
                expect = not brute_has_avoiding_path(g, "n0", f"n{n - 1}", removed)
                assert disconnects(g, removed, "n0", f"n{n - 1}") == expect


def test_disconnects_rejects_removed_endpoint():
    g = demo7_network()
    with pytest.raises(ValueError):
        disconnects(g, ["a"], "a", "b")


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


def test_demo_min_cut():
    g = demo7_network()
    assert min_vertex_cut(g, "a", "b") == frozenset({"c1", "c3"})
    assert brute_min_vertex_cut(g, "a", "b") == frozenset({"c1", "c3"})


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
