"""Undirected relay-network graphs and the cut/path primitives built on them.

A network is a simple undirected graph whose edges model point-to-point key
links between nodes. Everything downstream (attack assessment, key-exchange
simulation, scheduling) reads its topology through this module.

All operations are deterministic: neighbor lists are sorted, path enumeration
is lexicographic in the node sequence, and cut tie-breaks always pick the
lexicographically smallest witness, so repeated runs produce identical output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from .scheduler import LinkParams

__all__ = [
    "DirectLinkError",
    "Edge",
    "Network",
    "Path",
    "UnknownNodeError",
    "disconnects",
    "enumerate_simple_paths",
    "max_disjoint_paths",
    "min_vertex_cut",
]


class UnknownNodeError(ValueError):
    """A node label was referenced that the network does not contain."""


class DirectLinkError(ValueError):
    """The endpoints share a direct edge, so no interior node set separates them."""


@dataclass(frozen=True)
class Edge:
    """Single undirected link. ``link_params`` is an optional payload for the

    scheduler; the graph algorithms ignore it.
    """

    id: str
    u: str
    v: str
    link_params: "LinkParams | None" = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("edge id must be a non-empty string")
        if self.u == self.v:
            raise ValueError(f"edge {self.id!r} is a self-loop on {self.u!r}")

    @property
    def pair(self) -> frozenset[str]:
        return frozenset((self.u, self.v))


@dataclass(frozen=True)
class Path:
    """Simple path given as its node sequence (at least two distinct nodes)."""

    nodes: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError("a path needs at least two nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"path revisits a node: {self.nodes}")

    @property
    def interior(self) -> frozenset[str]:
        return frozenset(self.nodes[1:-1])

    @property
    def hops(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.nodes, self.nodes[1:]))

    def edges_in(self, g: "Network") -> tuple[Edge, ...]:
        """Map each hop to the network edge it rides on (errors if absent)."""
        out = []
        for u, v in self.hops:
            edge = g.edge_between(u, v)
            if edge is None:
                raise ValueError(f"path hop {u!r}-{v!r} has no edge in the network")
            out.append(edge)
        return tuple(out)


@dataclass(frozen=True)
class Network:
    """Simple undirected graph with optionally designated endpoints.

    ``alice`` and ``bob`` are the two parties trying to agree on a key; the
    pure graph operations take explicit endpoints instead so they stay usable
    on anonymous graphs.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    alice: str | None = None
    bob: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(sorted(self.nodes)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.id)))
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValueError("duplicate node labels")
        ids = set()
        pairs = set()
        for e in self.edges:
            if e.id in ids:
                raise ValueError(f"duplicate edge id {e.id!r}")
            ids.add(e.id)
            if e.u not in node_set or e.v not in node_set:
                raise UnknownNodeError(f"edge {e.id!r} touches an unknown node")
            if e.pair in pairs:
                raise ValueError(f"parallel edge {e.id!r} between {e.u!r} and {e.v!r}")
            pairs.add(e.pair)
        for label, who in ((self.alice, "alice"), (self.bob, "bob")):
            if label is not None and label not in node_set:
                raise UnknownNodeError(f"{who} node {label!r} is not in the network")
        if self.alice is not None and self.alice == self.bob:
            raise ValueError("alice and bob must be distinct nodes")

    @classmethod
    def from_links(
        cls,
        links: Iterable[tuple[str, str, str]],
        alice: str | None = None,
        bob: str | None = None,
        extra_nodes: Iterable[str] = (),
    ) -> "Network":
        """Build from ``(edge_id, u, v)`` triples; nodes are inferred from the
        links plus ``extra_nodes``, and the endpoints must be among them."""
        edges = tuple(Edge(i, u, v) for i, u, v in links)
        nodes = set(extra_nodes)
        for e in edges:
            nodes.update((e.u, e.v))
        return cls(tuple(nodes), edges, alice, bob)

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for e in self.edges:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
        return {n: tuple(sorted(vs)) for n, vs in adj.items()}

    @cached_property
    def _edge_by_pair(self) -> dict[frozenset[str], Edge]:
        return {e.pair: e for e in self.edges}

    @cached_property
    def incident(self) -> dict[str, tuple[Edge, ...]]:
        inc: dict[str, list[Edge]] = {n: [] for n in self.nodes}
        for e in self.edges:
            inc[e.u].append(e)
            inc[e.v].append(e)
        return {n: tuple(sorted(es, key=lambda e: e.id)) for n, es in inc.items()}

    def require_node(self, label: str) -> None:
        if label not in self.adjacency:
            raise UnknownNodeError(f"unknown node {label!r}")

    def edge_between(self, u: str, v: str) -> Edge | None:
        return self._edge_by_pair.get(frozenset((u, v)))

    def require_endpoints(self) -> tuple[str, str]:
        if self.alice is None or self.bob is None:
            raise ValueError("network has no designated alice/bob endpoints")
        return self.alice, self.bob

    def degree(self, v: str) -> int:
        self.require_node(v)
        return len(self.adjacency[v])


def enumerate_simple_paths(g: Network, a: str, b: str) -> Iterator[Path]:
    """Yield every simple ``a`` to ``b`` path.

    Paths come out in lexicographic order of their node sequences because
    neighbors are explored in sorted order.
    """
    g.require_node(a)
    g.require_node(b)
    if a == b:
        raise ValueError("path endpoints must differ")
    adj = g.adjacency

    def walk(node: str, trail: tuple[str, ...], seen: frozenset[str]) -> Iterator[Path]:
        for nxt in adj[node]:
            if nxt == b:
                yield Path(trail + (b,))
            elif nxt not in seen:
                yield from walk(nxt, trail + (nxt,), seen | {nxt})

    yield from walk(a, (a,), frozenset((a,)))


def disconnects(g: Network, removed: Iterable[str], a: str, b: str) -> bool:
    """True iff deleting ``removed`` leaves no ``a`` to ``b`` route."""
    gone = frozenset(removed)
    for v in gone:
        g.require_node(v)
    g.require_node(a)
    g.require_node(b)
    if a in gone or b in gone:
        raise ValueError("cannot remove an endpoint")
    seen = {a}
    frontier = deque((a,))
    while frontier:
        cur = frontier.popleft()
        if cur == b:
            return False
        for nxt in g.adjacency[cur]:
            if nxt not in seen and nxt not in gone:
                seen.add(nxt)
                frontier.append(nxt)
    return True


# Internal max-flow on the node-split digraph. Interior nodes get a unit arc
# from their in-copy to their out-copy, every undirected edge gets a unit arc
# in each direction, so the max a->b flow equals the largest set of
# internally node-disjoint paths.

_Tok = tuple[str, str]


def _split_arcs(
    g: Network, a: str, b: str, removed: frozenset[str]
) -> tuple[dict[_Tok, list[_Tok]], dict[tuple[_Tok, _Tok], int]]:
    adj: dict[_Tok, list[_Tok]] = {}
    cap: dict[tuple[_Tok, _Tok], int] = {}

    def add(x: _Tok, y: _Tok) -> None:
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
        cap[(x, y)] = 1
        cap.setdefault((y, x), 0)

    for v in g.nodes:
        if v in removed or v in (a, b):
            continue
        add((v, "in"), (v, "out"))
    for e in g.edges:
        if e.u in removed or e.v in removed:
            continue
        for x, y in ((e.u, e.v), (e.v, e.u)):
            # arcs out of the sink or into the source carry no flow
            if x == b or y == a:
                continue
            add((x, "out"), (y, "in"))
    for lst in adj.values():
        lst.sort()
    return adj, cap


def _max_flow(
    g: Network, a: str, b: str, removed: frozenset[str] = frozenset()
) -> tuple[int, dict[tuple[_Tok, _Tok], int], dict[_Tok, list[_Tok]]]:
    """Edmonds-Karp on the split digraph; returns (value, per-arc flow, adjacency)."""
    source: _Tok = (a, "out")
    sink: _Tok = (b, "in")
    adj, cap = _split_arcs(g, a, b, removed)
    flow: dict[tuple[_Tok, _Tok], int] = {arc: 0 for arc in cap}
    value = 0
    while True:
        parent: dict[_Tok, _Tok] = {source: source}
        frontier = deque((source,))
        while frontier and sink not in parent:
            cur = frontier.popleft()
            for nxt in adj.get(cur, ()):
                if nxt not in parent and cap.get((cur, nxt), 0) - flow.get((cur, nxt), 0) > 0:
                    parent[nxt] = cur
                    frontier.append(nxt)
        if sink not in parent:
            return value, flow, adj
        node = sink
        while node != source:
            prev = parent[node]
            flow[(prev, node)] = flow.get((prev, node), 0) + 1
            flow[(node, prev)] = flow.get((node, prev), 0) - 1
            node = prev
        value += 1


def min_vertex_cut(g: Network, a: str, b: str) -> frozenset[str]:
    """Smallest interior node set whose removal separates ``a`` from ``b``.

    Among all minimum cuts the lexicographically smallest one (as a sorted
    label tuple) is returned. Raises DirectLinkError when the endpoints are
    adjacent, since then no interior set can separate them.
    """
    g.require_node(a)
    g.require_node(b)
    if a == b:
        raise ValueError("endpoints must differ")
    if g.edge_between(a, b) is not None:
        raise DirectLinkError(f"{a!r} and {b!r} share a direct edge; no interior cut exists")
    k, _, _ = _max_flow(g, a, b)
    chosen: list[str] = []
    need = k
    # Greedy by label: v joins the cut iff some minimum cut extends
    # chosen + [v], i.e. the remainder still separates with need - 1 nodes.
    for v in sorted(set(g.nodes) - {a, b}):
        if need == 0:
            break
        rest, _, _ = _max_flow(g, a, b, removed=frozenset(chosen) | {v})
        if rest == need - 1:
            chosen.append(v)
            need -= 1
    if need != 0:  # cannot happen: the greedy always completes a minimum cut
        raise AssertionError(f"cut construction stalled at {chosen} (need {need} more)")
    return frozenset(chosen)


def max_disjoint_paths(g: Network, a: str, b: str) -> tuple[Path, ...]:
    """A maximum family of internally node-disjoint ``a`` to ``b`` paths.

    A direct edge, when present, contributes the two-node path. With no
    direct edge the family size equals ``len(min_vertex_cut(g, a, b))``.
    """
    g.require_node(a)
    g.require_node(b)
    if a == b:
        raise ValueError("endpoints must differ")
    value, flow, adj = _max_flow(g, a, b)
    paths = []
    for _ in range(value):
        cur: _Tok = (a, "out")
        trail = [a]
        while True:
            # adjacency lists are sorted, so the first positive-flow arc is
            # the lexicographically smallest next hop
            nxt = next(t for t in adj[cur] if flow.get((cur, t), 0) > 0)
            flow[(cur, nxt)] -= 1
            node = nxt[0]
            trail.append(node)
            if node == b:
                break
            flow[(nxt, (node, "out"))] -= 1
            cur = (node, "out")
        paths.append(Path(tuple(trail)))
    return tuple(sorted(paths, key=lambda p: p.nodes))
