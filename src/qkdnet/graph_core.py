"""Undirected relay-network graphs and the cut/path primitives built on them.

A network is a simple undirected graph whose edges model point-to-point key
links between nodes. Everything downstream (attack assessment, key-exchange
simulation, scheduling) reads its topology through this module.

All operations are deterministic: neighbor lists are sorted, path enumeration
is lexicographic in the node sequence, and cut tie-breaks always pick the
lexicographically smallest witness, so repeated runs produce identical output.
The searches run on node indices, places in the sorted ``Network.nodes``, so
index order is label order; they mark nodes in lists and answer in labels.

Cuts and disjoint paths share one unit-capacity max flow on the node-split
digraph (Menger's theorem; Edmonds and Karp, JACM 1972). A network computes
it once per endpoint pair, on first use, and keeps it. An interior node
carries at most one unit, so the flow is kept as each node's successor and
predecessor; no reader changes it. Its residual graph, with edge arcs
uncapped, is read off those links and the index adjacency, and one search
over it (``_spread``) both grows the flow, a shortest augmenting path at a
time, and tests the cut. The lexicographically least minimum cut is read
off that flow: the minimum cuts are the closed sets of its residual graph
(Picard and Queyranne, Math. Prog. Study 13, 1980), so each candidate
node is tested by reachability, not by a fresh augmentation.
Accepted nodes cost O(m) in all, a rejected one at most O(m), so a cut of
size k costs O(k*m + n*m) in the worst case.
Path enumeration is a depth-first walk that marks a node dead when it
leaves the trail with no path through it, and never enters a dead node,
so the first path costs O(n+m) and the delay between two paths is
polynomial.
"""

from __future__ import annotations

from bisect import bisect
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
        # the node and edge-id sets stay for membership checks, which then
        # never build the neighbour map
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValueError("duplicate node labels")
        ids: set[str] = set()
        object.__setattr__(self, "_node_set", node_set)
        object.__setattr__(self, "_edge_ids", ids)
        pairs: dict[tuple[str, str], Edge] = {}  # by sorted end pair; edge_between reads it
        object.__setattr__(self, "_pairs", pairs)
        for e in self.edges:
            if e.id in ids:
                raise ValueError(f"duplicate edge id {e.id!r}")
            ids.add(e.id)
            if e.u not in node_set or e.v not in node_set:
                raise UnknownNodeError(f"edge {e.id!r} touches an unknown node")
            pair = (e.u, e.v) if e.u < e.v else (e.v, e.u)
            if pair in pairs:
                raise ValueError(f"parallel edge {e.id!r} between {e.u!r} and {e.v!r}")
            pairs[pair] = e
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
    def _index(self) -> dict[str, int]:
        """Each node's place in ``nodes``, so index order is label order."""
        return dict(zip(self.nodes, range(len(self.nodes))))

    @cached_property
    def _adj(self) -> list[list[int]]:
        """Each node's neighbours as ascending indices; readers must not change them."""
        index = self._index
        adj: list[list[int]] = [[] for _ in self.nodes]
        for e in self.edges:
            i, j = index[e.u], index[e.v]
            adj[i].append(j)
            adj[j].append(i)
        for nbrs in adj:
            nbrs.sort()
        return adj

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Each node's neighbour labels in label order: a view of ``_adj``."""
        return {v: tuple(map(self.nodes.__getitem__, nbrs)) for v, nbrs in zip(self.nodes, self._adj)}

    @cached_property
    def _flows(self) -> dict[tuple[str, str], "_SplitFlow"]:
        """The max flow of each endpoint pair asked about, built once."""
        return {}

    def require_node(self, label: str) -> None:
        if label not in self._node_set:
            raise UnknownNodeError(f"unknown node {label!r}")

    def edge_between(self, u: str, v: str) -> Edge | None:
        return self._pairs.get((u, v)) or self._pairs.get((v, u))

    def require_endpoints(self) -> tuple[str, str]:
        if self.alice is None or self.bob is None:
            raise ValueError("network has no designated alice/bob endpoints")
        return self.alice, self.bob

    def degree(self, v: str) -> int:
        self.require_node(v)
        return len(self._adj[self._index[v]])


def _require_pair(g: Network, a: str, b: str) -> None:
    g.require_node(a)
    g.require_node(b)
    if a == b:
        raise ValueError("endpoints must differ")


def _removal(g: Network, removed: Iterable[str], a: str, b: str) -> frozenset[str]:
    """``removed`` as a set of the network's nodes, refusing ``a`` and ``b``."""
    gone = frozenset(removed)
    if not g._node_set >= gone:
        # the least unknown label, so the message does not follow the hash seed
        g.require_node(min(gone - g._node_set, key=str))
    for end in (a, b):
        if end in gone:
            raise ValueError(f"cannot remove an endpoint: {end!r}")
    return gone


def enumerate_simple_paths(g: Network, a: str, b: str, removed: Iterable[str] = ()) -> Iterator[Path]:
    """Yield every simple ``a`` to ``b`` path that avoids the ``removed`` nodes.

    Paths come out in lexicographic order of their node sequences because
    neighbors are tried in index order, which is label order. The walk is a
    depth-first search (Tarjan, SIAM J. Comput. 1972) over node indices that
    never re-enters a dead node. A trail end with no neighbour left to try is
    dropped, and the new end tries its neighbours above the dropped one.
    ``used`` counts the trail's first nodes that lie on a path already
    yielded. A dropped node outside them reached no path and stays marked,
    as dead; dropping one inside them drops every dead mark.

    A dead node cannot reach ``b`` while avoiding the trail, so skipping it
    loses no path. The mark stays true when a dead node ``u`` is dropped: a
    route from a marked node through ``u`` would let ``u`` reach ``b``
    through a neighbour it already tried. Before the first path no mark is
    dropped, so each node joins the trail at most once and the first path
    costs O(n+m). After a path at most one reset happens per trail node
    before the next path, so the delay between two paths is O(n*(n+m)).
    """
    _require_pair(g, a, b)
    adj, index, nodes = g._adj, g._index, g.nodes
    marked = [False] * len(nodes)  # removed, dead or on the trail
    for v in _removal(g, removed, a, b):
        marked[index[v]] = True  # a removed node is never entered, like a dead one
    trail, labels, ib, dead = [index[a]], [a], index[b], []  # labels: the trail's labels
    marked[trail[0]] = True
    after = -1  # the node last dropped from the trail's end
    used = 0
    while trail:
        nbrs = adj[trail[-1]]
        for nxt in nbrs if after < 0 else nbrs[bisect(nbrs, after):]:
            if nxt == ib:
                used = len(trail)
                yield Path((*labels, b))
            elif not marked[nxt]:
                trail.append(nxt)
                labels.append(nodes[nxt])
                marked[nxt] = True
                after = -1
                break
        else:
            after = trail.pop()
            labels.pop()
            if len(trail) < used:
                used = len(trail)
                for i in (after, *dead):
                    marked[i] = False
                dead.clear()
            else:
                dead.append(after)


def disconnects(g: Network, removed: Iterable[str], a: str, b: str) -> bool:
    """True iff deleting ``removed`` leaves no ``a`` to ``b`` route.

    A breadth-first search from ``a`` that stops on first sight of ``b``.
    """
    gone = _removal(g, removed, a, b)
    g.require_node(a)
    g.require_node(b)
    adj, index = g._adj, g._index
    seen = [False] * len(adj)  # the removed nodes count as seen
    for v in gone:
        seen[index[v]] = True
    ib, queue = index[b], [index[a]]
    seen[queue[0]] = True
    for x in queue:
        for y in adj[x]:
            if y == ib:
                return False
            if not seen[y]:
                seen[y] = True
                queue.append(y)
    return True


class _SplitFlow:
    """Unit-capacity ``a`` to ``b`` max flow on the node-split digraph of ``g``.

    Each interior node has an in-copy and an out-copy joined by a unit arc,
    and each edge direction ``x -> y`` gives a unit arc from ``x``'s
    out-copy to ``y``'s in-copy; arcs out of ``b`` or into ``a`` carry no
    flow and are left out. So the flow value is the largest number of
    internally node-disjoint paths. An interior node carries at most one
    unit, so the flow is kept as links on node indices (``a`` and ``b`` are
    indices too): lists ``succ`` and ``pred``, with ``succ[x] == x`` when
    ``x`` carries nothing, and ``firsts``, the nodes ``a`` sends a unit to.
    A unit may also run round a cycle of interior nodes that joins neither
    endpoint; those links are kept as well.

    Each round a ``_spread`` search from ``a`` finds a shortest augmenting
    path (Edmonds-Karp) and ``_push`` carries a unit along it. The search
    leaves edge arcs uncapped, which adds only an arc along each carried
    edge ``x -> y``. An interior ``x``'s out-copy is entered only back from
    ``y``'s in-copy, and that in-copy leads back to ``x``'s out-copy alone,
    so the added arc reaches nothing new and the same edges are carried as
    with unit edge arcs. A direct ``a``-``b`` edge is the one exception: it
    carries its unit up front and the searches leave it out. ``_max_flow``
    builds one flow per network and endpoint pair and shares it; no reader
    changes it.
    """

    def __init__(self, g: Network, a: str, b: str) -> None:
        self.a, self.b = a, b = g._index[a], g._index[b]
        adj, n = g._adj, len(g.nodes)
        self.succ, self.pred = list(range(n)), list(range(n))
        self.firsts: set[int] = set()
        if b in adj[a]:
            # the first search would find it, and uncapped it would carry
            # every later unit too
            self.firsts.add(b)
            adj = adj.copy()
            adj[a] = [y for y in adj[a] if y != b]
        while not _spread(adj, self.pred, [a], [False] * n, into := [None] * n, halt=b):
            self._push(into[b], into)
        self.value = len(self.firsts)

    def _push(self, x: int, into: list[int | None]) -> None:
        """Carry a unit along the path the search found, from ``x``'s
        out-copy into ``b``, walking back to ``a``."""
        a, b, succ, pred = self.a, self.b, self.succ, self.pred
        y = b
        while True:
            if x == y:  # back over x's node arc: x stops carrying a unit
                y = succ[x]
                succ[x] = pred[x] = x
            else:
                if y != b:
                    pred[y] = x
                if x == a:
                    self.firsts.add(y)
                    return
                # x's out-copy was reached from its own in-copy, or back
                # from the in-copy of its old successor
                y, succ[x] = succ[x], y
            x = into[y]


def _max_flow(g: Network, a: str, b: str) -> _SplitFlow:
    """The ``a`` to ``b`` split flow of ``g``, built on first use and kept
    on the network; readers must not change it."""
    flow = g._flows.get((a, b))
    if flow is None:
        flow = g._flows[a, b] = _SplitFlow(g, a, b)
    return flow


def _spread(
    adj: list[list[int]], step: list[int], queue: list[int], wide: list[bool], narrow: list[int | None],
    halt: int | None = None,
) -> bool:
    """Grow a search of a flow's residual graph with its edge arcs uncapped.

    Forward, ``step`` is the flow's ``pred``, a node's wide copy is its
    out-copy and its narrow copy its in-copy; backward (the copies that
    reach a copy), ``step`` is ``succ`` and the roles swap. The wide copy of
    ``x`` leads to the narrow copies of its neighbours, and of ``x`` itself
    when ``x`` carries a unit; the narrow copy of ``y`` leads to the wide
    copy of ``step[y]`` alone. The wide copy of ``x`` is scanned in index
    (so label) order, its own narrow copy at ``x``'s place, so the search is
    breadth-first in the order of an arc-list search. It marks the wide copy
    in ``queue``, starts there and appends each wide copy it reaches. The
    marks are lists over node indices, and a marked copy is never entered:
    ``wide`` is true on the wide copies reached, and ``narrow`` maps each
    narrow copy reached to the wide copy that reached it, None where none
    did. It returns False once it reaches the wide copy of ``halt``. So it
    both tests the cut and builds the flow: ``narrow`` walked back from
    ``halt`` is an augmenting path.
    """
    wide[queue[0]] = True
    for x in queue:
        nbrs = adj[x]
        if step[x] != x:
            i = bisect(nbrs, x)
            nbrs = [*nbrs[:i], x, *nbrs[i:]]
        for y in nbrs:
            if narrow[y] is None:
                narrow[y] = x
                z = step[y]
                if not wide[z]:
                    if z == halt:
                        return False
                    wide[z] = True
                    queue.append(z)
    return True


def min_vertex_cut(g: Network, a: str, b: str) -> frozenset[str]:
    """Smallest interior node set whose removal separates ``a`` from ``b``.

    Among all minimum cuts the lexicographically smallest one (as a sorted
    label tuple) is returned. Raises DirectLinkError when the endpoints are
    adjacent, since then no interior set can separate them; disconnected
    endpoints give the empty cut.

    One max flow of value ``k`` is computed. The flow is built with edge
    arcs uncapped, and its minimum cuts are the node-arc sets leaving a
    closed set of the residual graph that holds the source and not the sink
    (Picard and Queyranne, Math. Prog. Study 13, 1980). Each interior node
    ``v``, in index (so label) order, joins the cut iff some minimum cut
    extends the chosen nodes and ``v``: iff the least closed set holding the
    source and the in-copies of the chosen nodes and ``v`` misses the sink
    and their out-copies. That set is the union of their reach sets. So
    with ``S`` the copies the source or a chosen in-copy reaches, and ``F``
    those that reach the sink or a chosen out-copy, ``v`` joins iff its
    in-copy is not in ``F``, its out-copy is not in ``S`` and its in-copy
    does not reach its out-copy. Accepted nodes grow ``S`` and ``F`` by
    O(m) over the whole cut. A rejected node costs at most one search from
    its in-copy, which marks into ``S`` and stops at its out-copy, and a
    rescan of what it reached to take those marks back out; no O(n) marks
    are allocated per node. The worst case is O(k*m + n*m).
    """
    _require_pair(g, a, b)
    if g.edge_between(a, b) is not None:
        raise DirectLinkError(f"{a!r} and {b!r} share a direct edge; no interior cut exists")
    flow = _max_flow(g, a, b)
    adj, succ, pred, n = g._adj, flow.succ, flow.pred, len(g.nodes)
    s_out, s_in = [False] * n, [None] * n  # S: searched forward, out-copies are wide
    _spread(adj, pred, [flow.a], s_out, s_in)
    f_in, f_out = [False] * n, [None] * n  # F: searched backward, in-copies are wide
    _spread(adj, succ, [flow.b], f_in, f_out)
    chosen: list[str] = []
    need = flow.value
    for v in range(n):
        if need == 0:
            break
        # F is closed backwards, so when v's in-copy is not in F nothing it
        # reaches is; a node carrying no unit reaches its out-copy at once
        if pred[v] == v or f_in[v] or s_out[v]:
            continue
        # v's in-copy has one arc, back to pred[v]'s out-copy
        s_in[v] = v
        if not s_out[pred[v]] and not _spread(adj, pred, queue := [pred[v]], s_out, s_in, halt=v):
            # v's in-copy reaches its out-copy: unmark what it reached; an
            # in-copy it reached names a wide copy it reached, no old one
            s_in[v] = None
            for x in queue:
                s_out[x] = False
                for y in (x, *adj[x]):
                    if s_in[y] == x:
                        s_in[y] = None
            continue
        # S with what v's in-copy reaches is closed and misses v's out-copy,
        # so nothing in it reaches that out-copy: the new F stays disjoint
        # from the new S. v's out-copy is reached back from succ[v]'s in-copy.
        f_out[v] = succ[v]
        if not f_in[succ[v]]:
            _spread(adj, succ, [succ[v]], f_in, f_out)
        chosen.append(g.nodes[v])
        need -= 1
    if need != 0:  # cannot happen: the greedy always completes a minimum cut
        raise AssertionError(f"cut construction stalled at {chosen} (need {need} more)")
    return frozenset(chosen)


def max_disjoint_paths(g: Network, a: str, b: str) -> tuple[Path, ...]:
    """A maximum family of internally node-disjoint ``a`` to ``b`` paths.

    A direct edge, when present, contributes the two-node path. With no
    direct edge the family size equals ``len(min_vertex_cut(g, a, b))``.
    The paths follow the flow's links from each of ``a``'s first hops in
    index order, which is label order, so they come out sorted.
    """
    _require_pair(g, a, b)
    flow = _max_flow(g, a, b)
    nodes, succ = g.nodes, flow.succ
    paths = []
    for y in sorted(flow.firsts):
        trail = [a]
        while y != flow.b:
            trail.append(nodes[y])
            y = succ[y]
        trail.append(b)
        paths.append(Path(tuple(trail)))
    return tuple(paths)
