"""Undirected relay-network graphs and the cut/path primitives built on them.

A network is a simple undirected graph whose edges model point-to-point key
links between nodes. Everything downstream (attack assessment, key-exchange
simulation, scheduling) reads its topology through this module.

All operations are deterministic: neighbor lists are sorted, path enumeration
is lexicographic in the node sequence, and cut tie-breaks always pick the
lexicographically smallest witness, so repeated runs produce identical output.

Cuts and disjoint paths share one int-indexed unit-capacity max flow on the
node-split digraph (Menger's theorem; Edmonds and Karp, JACM 1972). A
network computes it once per endpoint pair, on first use, and keeps it;
its arc lists are built in head order, with no sort, and no reader changes
it. The lexicographically least minimum cut is read off that flow: the minimum
cuts are the closed sets of its residual graph (Picard and Queyranne, Math.
Prog. Study 13, 1980), so each candidate node is tested by reachability,
not by a fresh augmentation. Accepted nodes cost O(m) in all, a rejected
one at most O(m), so a cut of size k costs O(k*m + n*m) in the worst case.
Path enumeration prunes every branch that can no longer reach ``b``, so
the delay between two paths is polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Container, Iterable, Iterator

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

    def edges_in(self, g: "Network") -> tuple[Edge, ...]:
        """Map each hop to the network edge it rides on (errors if absent)."""
        out = []
        for u, v in zip(self.nodes, self.nodes[1:]):
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
    def _flows(self) -> dict[tuple[str, str], "_SplitFlow"]:
        """The max flow of each endpoint pair asked about, built once."""
        return {}

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


def _require_pair(g: Network, a: str, b: str) -> None:
    g.require_node(a)
    g.require_node(b)
    if a == b:
        raise ValueError("endpoints must differ")


def _reach(adj: dict[str, tuple[str, ...]], root: str, blocked: Container[str]) -> set[str]:
    """Nodes reachable from ``root`` without entering a ``blocked`` node."""
    reach = {root}
    queue = [root]
    for x in queue:
        for y in adj[x]:
            if y not in reach and y not in blocked:
                reach.add(y)
                queue.append(y)
    return reach


def _removal(g: Network, removed: Iterable[str], a: str, b: str) -> frozenset[str]:
    """``removed`` as a set of the network's nodes, refusing ``a`` and ``b``."""
    gone = frozenset(removed)
    if not g.adjacency.keys() >= gone:
        # the least unknown label, so the message does not follow the hash seed
        g.require_node(min(gone - g.adjacency.keys(), key=str))
    for end in (a, b):
        if end in gone:
            raise ValueError(f"cannot remove an endpoint: {end!r}")
    return gone


def enumerate_simple_paths(g: Network, a: str, b: str, removed: Iterable[str] = ()) -> Iterator[Path]:
    """Yield every simple ``a`` to ``b`` path that avoids the ``removed`` nodes.

    Paths come out in lexicographic order of their node sequences because
    neighbors are explored in sorted order. Each depth-first step first
    finds, by one search from ``b`` that avoids the current trail, the
    nodes that can still reach ``b``, and descends only into those: every
    descent ends in a path, so the delay between two paths is polynomial.
    The depth-first search is one loop over an explicit stack, so a path
    may be as long as the network allows.
    """
    _require_pair(g, a, b)
    adj = g.adjacency
    # a removed node is blocked like a node on the trail: never entered
    on_trail = {a, *_removal(g, removed, a, b)}
    # one frame per trail node: the node, its neighbors not yet tried, and
    # the nodes that could reach b when it joined the trail
    stack = [(a, iter(adj[a]), _reach(adj, b, on_trail))]
    while stack:
        _, untried, reach = stack[-1]
        for nxt in untried:
            if nxt == b:
                yield Path(tuple(node for node, _, _ in stack) + (b,))
            elif nxt in reach:
                on_trail.add(nxt)
                stack.append((nxt, iter(adj[nxt]), _reach(adj, b, on_trail)))
                break
        else:
            on_trail.remove(stack.pop()[0])


def disconnects(g: Network, removed: Iterable[str], a: str, b: str) -> bool:
    """True iff deleting ``removed`` leaves no ``a`` to ``b`` route."""
    gone = _removal(g, removed, a, b)
    g.require_node(a)
    g.require_node(b)
    return b not in _reach(g.adjacency, a, gone)


class _SplitFlow:
    """Unit-capacity ``a`` to ``b`` max flow on the node-split digraph of ``g``.

    Node ``i``, its position in the sorted ``g.nodes``, has in-copy ``2i``
    and out-copy ``2i + 1``. Each interior node gets a unit arc from its
    in-copy to its out-copy and each edge direction ``x -> y`` a unit arc
    ``x_out -> y_in``; arcs out of ``b`` or into ``a`` carry no flow and are
    left out. So the flow value is the largest number of internally
    node-disjoint paths. Arc ``e`` and its reverse ``e ^ 1`` are paired in
    ``head`` and ``cap`` (residual capacity): a forward arc, always even,
    carries flow iff its ``cap`` is 0. Node arcs come first; edge arcs
    start at ``edge_base``. Each vertex lists its arcs by head index, which
    is (label, in/out) order, so the breadth-first searches (Edmonds-Karp)
    pick the same augmenting paths on every run.

    The lists come out in head order as they are built, with no sort: node
    ``x``'s out-copy takes its edge arcs in the sorted ``g.adjacency[x]``
    order and its reverse node arc (head ``2x``) at ``x``'s own place among
    them; an in-copy takes its reverse edge arcs as the loop over ``x``
    ascends, and its node arc (head ``2x + 1``) when the loop reaches it.
    ``_max_flow`` builds one per network and endpoint pair and shares it,
    so its readers leave ``cap`` as the augmentation left it.
    """

    def __init__(self, g: Network, a: str, b: str) -> None:
        index = {v: i for i, v in enumerate(g.nodes)}
        ia, ib = index[a], index[b]
        head: list[int] = []
        node_arc = self.node_arc = [-1] * len(g.nodes)
        for i in range(len(g.nodes)):
            if i != ia and i != ib:
                node_arc[i] = len(head)
                head += (2 * i + 1, 2 * i)
        self.edge_base = len(head)
        out: list[list[int]] = [[] for _ in range(2 * len(g.nodes))]
        adjacency = g.adjacency
        for x, v in enumerate(g.nodes):
            back = node_arc[x] + 1  # the reverse node arc, or 0 at an endpoint
            if back:
                out[2 * x].append(back - 1)
            if x == ib:
                continue  # no arc leaves b
            arcs = out[2 * x + 1]
            for w in adjacency[v]:
                y = index[w]
                if back and y > x:
                    arcs.append(back)
                    back = 0
                if y != ia:  # no arc enters a
                    out[2 * y].append(len(head) + 1)
                    arcs.append(len(head))
                    head += (2 * y, 2 * x + 1)
            if back:
                arcs.append(back)
        self.head, self.out = head, out
        self.cap = [1, 0] * (len(head) // 2)
        self.source, self.sink = 2 * ia + 1, 2 * ib
        self.value = 0
        while self.augment():
            self.value += 1

    def augment(self) -> bool:
        """Push one unit along a shortest residual path; False if none exists."""
        head, cap, out, source, sink = self.head, self.cap, self.out, self.source, self.sink
        via = [-1] * len(out)
        via[source] = len(head)
        queue = [source]
        for x in queue:
            for arc in out[x]:
                y = head[arc]
                if cap[arc] and via[y] < 0:
                    via[y] = arc
                    if y == sink:
                        while y != source:
                            arc = via[y]
                            cap[arc] -= 1
                            cap[arc ^ 1] += 1
                            y = head[arc ^ 1]
                        return True
                    queue.append(y)
        return False


def _max_flow(g: Network, a: str, b: str) -> _SplitFlow:
    """The ``a`` to ``b`` split flow of ``g``, built on first use and kept
    on the network; readers must not change it."""
    flow = g._flows.get((a, b))
    if flow is None:
        flow = g._flows[a, b] = _SplitFlow(g, a, b)
    return flow


def min_vertex_cut(g: Network, a: str, b: str) -> frozenset[str]:
    """Smallest interior node set whose removal separates ``a`` from ``b``.

    Among all minimum cuts the lexicographically smallest one (as a sorted
    label tuple) is returned. Raises DirectLinkError when the endpoints are
    adjacent, since then no interior set can separate them; disconnected
    endpoints give the empty cut.

    One max flow of value ``k`` is computed. With edge arcs uncapped it is
    still a max flow, and its minimum cuts are the node-arc sets leaving a
    closed set of the residual graph that holds the source and not the sink
    (Picard and Queyranne, Math. Prog. Study 13, 1980). Each interior node
    ``i``, in label order, joins the cut iff some minimum cut extends the
    chosen nodes and ``i``: iff the least closed set holding the source and
    the in-copies of the chosen nodes and ``i`` misses the sink and their
    out-copies. That set is the union of their reach sets. So with ``S``
    the vertices the source or a chosen in-copy reaches, and ``F`` those
    that reach the sink or a chosen out-copy, ``i`` joins iff ``2i`` is not
    in ``F``, ``2i + 1`` is not in ``S`` and ``2i`` does not reach
    ``2i + 1``. Accepted nodes grow ``S`` and ``F`` by O(m) over the whole
    cut; a rejected node costs at most one search from ``2i``, which stops
    at ``2i + 1``. The worst case is O(k*m + n*m).
    """
    _require_pair(g, a, b)
    if g.edge_between(a, b) is not None:
        raise DirectLinkError(f"{a!r} and {b!r} share a direct edge; no interior cut exists")
    flow = _max_flow(g, a, b)
    head, out, cap = flow.head, flow.out, flow.cap
    # the residual graph with edge arcs uncapped: every forward edge arc,
    # and any other arc with capacity left
    live = [c or arc >= flow.edge_base and not arc & 1 for arc, c in enumerate(cap)]

    def grow(root: int, known: set[int], back: int = 0, halt: int = -1) -> set[int] | None:
        """The vertices outside ``known`` that ``root`` reaches (that reach
        ``root`` if ``back``), or None once ``halt`` is one of them."""
        found = {root}
        queue = [root]
        for x in queue:
            for arc in out[x]:
                y = head[arc]
                if live[arc ^ back] and y not in known and y not in found:
                    if y == halt:
                        return None
                    found.add(y)
                    queue.append(y)
        return found

    S = grow(flow.source, set())
    F = grow(flow.sink, set(), back=1)
    chosen: list[str] = []
    need = flow.value
    for i, v in enumerate(g.nodes):
        if need == 0:
            break
        node = flow.node_arc[i]
        # F is closed backwards, so when 2i is not in F nothing 2i reaches
        # is; an unused node arc means 2i reaches 2i + 1 at once
        if node < 0 or cap[node] or 2 * i in F or 2 * i + 1 in S:
            continue
        reached = grow(2 * i, S, halt=2 * i + 1)
        if reached is None:
            continue
        # S | reached is closed and misses 2i + 1, so nothing in it reaches
        # 2i + 1: the new F stays disjoint from the new S
        S |= reached
        F |= grow(2 * i + 1, F, back=1)
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
    _require_pair(g, a, b)
    flow = _max_flow(g, a, b)
    head, out = flow.head, flow.out
    cap = flow.cap.copy()  # the walk spends flow; the shared flow stays whole
    paths = []
    for _ in range(flow.value):
        y = flow.source
        trail = [a]
        while y != flow.sink:
            # arc lists are sorted by head, so the first flow arc is the
            # lexicographically smallest next hop
            arc = next(arc for arc in out[y] if not arc & 1 and not cap[arc])
            cap[arc] = 1
            y = head[arc]
            if not y & 1:
                trail.append(g.nodes[y >> 1])
        paths.append(Path(tuple(trail)))
    return tuple(sorted(paths, key=lambda p: p.nodes))
