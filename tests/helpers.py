"""Brute-force oracles, graph enumeration and test hooks for the suite.

Everything here is deliberately naive: subset enumeration, permutation
scans, depth-first searches written from scratch. The point is to check the
package's algorithms against independent code paths, so nothing in this
module may call the routines it is used to verify.
"""

import csv
import itertools
import math
import sys
from collections import deque
from random import Random

import numpy as np
from scipy.optimize import linprog

from qkdnet.graph_core import DirectLinkError, Edge, Network, Path
from qkdnet.scheduler import (
    DriftAudit,
    LinkParams,
    ServedFlow,
    StateInvariantError,
    StepDecision,
    admit,
    key_consumption,
)
from qkdnet.security import (
    BROKEN,
    PERFECTLY_SECRET,
    AttackSet,
    Scheme,
    _hop_ciphertexts,
    _m0_announcements,
    insecure_edges,
)


# -- labeled graph enumeration over bitmasks ---------------------------------

def pair_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def mask_connected(n: int, mask: int, pairs: list[tuple[int, int]] | None = None) -> bool:
    pairs = pairs if pairs is not None else pair_list(n)
    adj: list[list[int]] = [[] for _ in range(n)]
    for idx, (i, j) in enumerate(pairs):
        if mask >> idx & 1:
            adj[i].append(j)
            adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_masks(n: int):
    """Every labeled connected graph on n nodes, as an edge bitmask."""
    pairs = pair_list(n)
    for mask in range(1 << len(pairs)):
        if mask_connected(n, mask, pairs):
            yield mask


def canonical_mask(n: int, mask: int) -> int:
    """Smallest bitmask over relabelings of the interior nodes.

    Node 0 and node n-1 stay fixed (they are the endpoints), so two masks
    with the same canonical form describe the same assessment instance.
    """
    pairs = pair_list(n)
    index = {p: i for i, p in enumerate(pairs)}
    best = mask
    for perm in itertools.permutations(range(1, n - 1)):
        relabel = dict(zip(range(1, n - 1), perm))
        relabel[0] = 0
        relabel[n - 1] = n - 1
        out = 0
        for idx, (i, j) in enumerate(pairs):
            if mask >> idx & 1:
                x, y = relabel[i], relabel[j]
                out |= 1 << index[(x, y) if x < y else (y, x)]
        if out < best:
            best = out
    return best


def network_from_mask(n: int, mask: int, endpoints: bool = True) -> Network:
    pairs = pair_list(n)
    links = [
        (f"e{idx:02d}", f"n{i}", f"n{j}")
        for idx, (i, j) in enumerate(pairs)
        if mask >> idx & 1
    ]
    return Network.from_links(
        links,
        alice="n0" if endpoints else None,
        bob=f"n{n - 1}" if endpoints else None,
        extra_nodes=[f"n{i}" for i in range(n)],
    )


def random_connected_mask(n: int, rng: Random, p: float = 0.45) -> int:
    pairs = pair_list(n)
    while True:
        mask = 0
        for idx in range(len(pairs)):
            if rng.random() < p:
                mask |= 1 << idx
        if mask_connected(n, mask, pairs):
            return mask


# -- brute-force path and cut oracles ----------------------------------------

def adjacency(g: Network) -> dict[str, tuple[str, ...]]:
    """Each node's neighbour labels in label order: a label view of ``g._adj``."""
    return {v: tuple(map(g.nodes.__getitem__, nbrs)) for v, nbrs in zip(g.nodes, g._adj)}


def edge_list_adjacency(g: Network) -> dict[str, tuple[str, ...]]:
    """Each node's neighbour labels in label order, read off ``g.edges``
    alone: the referee for the constructor's ``_adj``."""
    nbrs = {v: [] for v in g.nodes}
    for e in g.edges:
        nbrs[e.u].append(e.v)
        nbrs[e.v].append(e.u)
    return {v: tuple(sorted(ws)) for v, ws in nbrs.items()}


def brute_has_avoiding_path(g: Network, a: str, b: str, removed) -> bool:
    """Depth-first reachability from a to b skipping the removed nodes."""
    removed = set(removed)
    if a in removed or b in removed:
        raise ValueError("endpoints cannot be removed")
    seen = set()
    adj = adjacency(g)

    def dfs(v: str) -> bool:
        if v == b:
            return True
        seen.add(v)
        return any(
            w not in seen and w not in removed and dfs(w) for w in adj[v]
        )

    return dfs(a)


def brute_all_paths(g: Network, a: str, b: str) -> list[Path]:
    """Every simple a-b path, found by scanning interior permutations."""
    interior = [v for v in g.nodes if v != a and v != b]
    adj = adjacency(g)
    out = []
    for r in range(len(interior) + 1):
        for subset in itertools.combinations(interior, r):
            for perm in itertools.permutations(subset):
                seq = (a, *perm, b)
                if all(seq[k + 1] in adj[seq[k]] for k in range(len(seq) - 1)):
                    out.append(Path(seq))
    return out


def brute_min_vertex_cut(g: Network, a: str, b: str) -> frozenset[str] | None:
    """Smallest interior set whose removal separates a from b, scanning

    subsets in (size, lexicographic) order so the winner is also the
    lexicographically smallest cut of minimum size. None when a and b share
    an edge (no interior set can separate them).
    """
    interior = sorted(v for v in g.nodes if v != a and v != b)
    for r in range(len(interior) + 1):
        for combo in itertools.combinations(interior, r):
            if not brute_has_avoiding_path(g, a, b, combo):
                return frozenset(combo)
    return None


def interior_subsets(g: Network, a: str, b: str):
    interior = sorted(v for v in g.nodes if v != a and v != b)
    for r in range(len(interior) + 1):
        yield from itertools.combinations(interior, r)


# -- graph referees: the per-candidate dict-keyed flow and the backtracking DFS

def backtracking_simple_paths(g: Network, a: str, b: str):
    """Every simple a-b path in lexicographic order, by a plain DFS that

    backtracks out of dead ends: the referee for ``enumerate_simple_paths``.
    """
    g.require_node(a)
    g.require_node(b)
    if a == b:
        raise ValueError("path endpoints must differ")
    adj = adjacency(g)

    def walk(node, trail, seen):
        for nxt in adj[node]:
            if nxt == b:
                yield Path(trail + (b,))
            elif nxt not in seen:
                yield from walk(nxt, trail + (nxt,), seen | {nxt})

    yield from walk(a, (a,), frozenset((a,)))


def backtracking_secure_path(g: Network, attack) -> Path | None:
    """First backtracking-DFS path that avoids the attack: the referee for

    ``find_secure_path``.
    """
    gone = set(AttackSet(attack).nodes)
    sub = Network(
        tuple(v for v in g.nodes if v not in gone),
        tuple(e for e in g.edges if e.u not in gone and e.v not in gone),
        g.alice,
        g.bob,
    )
    return next(backtracking_simple_paths(sub, g.alice, g.bob), None)


def _dict_split_arcs(g: Network, a: str, b: str, removed: frozenset):
    """Node-split digraph keyed by (label, "in"/"out") tokens, minus ``removed``."""
    adj: dict = {}
    cap: dict = {}

    def add(x, y):
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
            if x == b or y == a:
                continue
            add((x, "out"), (y, "in"))
    for lst in adj.values():
        lst.sort()
    return adj, cap


def dict_max_flow(g: Network, a: str, b: str, removed: frozenset = frozenset()):
    """Edmonds-Karp on the dict-keyed split digraph; (value, per-arc flow, adjacency)."""
    source, sink = (a, "out"), (b, "in")
    adj, cap = _dict_split_arcs(g, a, b, removed)
    flow = {arc: 0 for arc in cap}
    value = 0
    while True:
        parent = {source: source}
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


def rerun_min_vertex_cut(g: Network, a: str, b: str) -> frozenset[str]:
    """Lex-min minimum vertex cut by one fresh max flow per candidate label:

    the referee for ``min_vertex_cut``.
    """
    if g.edge_between(a, b) is not None:
        raise DirectLinkError(f"{a!r} and {b!r} share a direct edge")
    need, _, _ = dict_max_flow(g, a, b)
    chosen: list[str] = []
    for v in sorted(set(g.nodes) - {a, b}):
        if need == 0:
            break
        rest, _, _ = dict_max_flow(g, a, b, removed=frozenset(chosen) | {v})
        if rest == need - 1:
            chosen.append(v)
            need -= 1
    assert need == 0, (chosen, need)
    return frozenset(chosen)


def dict_flow_disjoint_paths(g: Network, a: str, b: str) -> tuple[Path, ...]:
    """Disjoint-path family read off ``dict_max_flow``, smallest next hop

    first: the referee for ``max_disjoint_paths``.
    """
    value, flow, adj = dict_max_flow(g, a, b)
    paths = []
    for _ in range(value):
        cur = (a, "out")
        trail = [a]
        while True:
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


class SortedSplitFlow:
    """Edmonds-Karp on the int-indexed node-split digraph, built the plain

    way: node ``i`` (its place in ``g.nodes``) has in-copy ``2i`` and
    out-copy ``2i + 1``; every arc is numbered in edge-id order, paired with
    its reverse ``arc ^ 1`` in ``head`` and ``cap`` (residual capacity), and
    appended to its tail's list, and each list is sorted by head afterwards.
    Each search scans those lists with every arc capped, while
    ``_SplitFlow``'s ``_spread`` searches leave edge arcs uncapped and scan
    a node's neighbours and its own in-copy in label order, which is the
    same head order: the referee for the flow ``_SplitFlow`` builds.
    """

    def __init__(self, g: Network, a: str, b: str) -> None:
        self.nodes = g.nodes
        index = {v: i for i, v in enumerate(g.nodes)}
        ia, ib = index[a], index[b]
        head: list[int] = []
        for i in range(len(g.nodes)):
            if i != ia and i != ib:
                head += (2 * i + 1, 2 * i)
        self.edge_base = len(head)
        for e in g.edges:
            for x, y in ((index[e.u], index[e.v]), (index[e.v], index[e.u])):
                if x != ib and y != ia:
                    head += (2 * y, 2 * x + 1)
        self.head = head
        self.cap = [1, 0] * (len(head) // 2)
        self.out = [[] for _ in range(2 * len(g.nodes))]
        for arc in range(len(head)):
            self.out[head[arc ^ 1]].append(arc)
        for arcs in self.out:
            arcs.sort(key=head.__getitem__)
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

    def carried(self) -> set[tuple[str, str]]:
        """The edge directions ``(x, y)`` that carry a unit."""
        return {
            (self.nodes[self.head[arc ^ 1] >> 1], self.nodes[self.head[arc] >> 1])
            for arc in range(self.edge_base, len(self.head), 2)
            if not self.cap[arc]
        }


def per_node_xors(g: Network, keys) -> dict[str, int]:
    """Each node's XOR of the keys of the edges that touch it, node by node."""
    out = {}
    for v in g.nodes:
        acc = 0
        for e in g.edges:
            if v in (e.u, e.v):
                acc ^= keys[e.id]
        out[v] = acc
    return out


def random_relay_graph(rng: Random, n: int, by_distance: bool = False) -> Network:
    """A sparse relay network with random labels: a ring lattice of ``n``

    relays, each linked to the two nearest on either side, n/5 random
    chords, and the endpoints on 3-5 random relays each. Labels are a
    random permutation, so neither the cut nor the lexicographic path
    order follows the topology. With ``by_distance`` alice has 3 access
    relays and bob 5, and the labels grow with hop distance from bob
    (random order within one distance), the shape of the benchmark's relay
    graphs: the cut lies on alice's side and carries large labels, so the
    label-order cut greedy rules out every relay nearer to bob first.
    """
    links = set()
    for i in range(n):
        for d in (1, 2):
            links.add(tuple(sorted((i, (i + d) % n))))
    for _ in range(n // 5):
        links.add(tuple(sorted(rng.sample(range(n), 2))))
    alice, bob = n, n + 1
    links.update((i, alice) for i in rng.sample(range(n), 3 if by_distance else rng.randint(3, 5)))
    links.update((i, bob) for i in rng.sample(range(n), 5 if by_distance else rng.randint(3, 5)))
    rank = rng.sample(range(n + 2), n + 2)
    if by_distance:
        hops = _hops_from(bob, links)
        for k, i in enumerate(sorted(range(n + 2), key=lambda i: (hops[i], rank[i]))):
            rank[i] = k
    names = [f"r{k:03d}" for k in rank]
    return Network.from_links(
        [(f"e{k:04d}", names[i], names[j]) for k, (i, j) in enumerate(sorted(links))],
        alice=names[alice],
        bob=names[bob],
    )


def _hops_from(root: int, links) -> dict[int, int]:
    """Hop distance from ``root`` to every node ``links`` connect it to."""
    adj: dict[int, list[int]] = {}
    for i, j in links:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    hops = {root: 0}
    queue = [root]
    for x in queue:
        for y in adj[x]:
            if y not in hops:
                hops[y] = hops[x] + 1
                queue.append(y)
    return hops


# -- step counting ---------------------------------------------------------------

class OverBudget(Exception):
    """A traced call ran more line events than its budget allows."""


def line_events(functions, budget: int, call) -> int:
    """Run ``call()`` and count the line events in the code of ``functions``.

    Past ``budget`` events it raises OverBudget from inside the traced
    code, so a search that loops fails at once instead of hanging the
    suite. Returns the count.
    """
    codes = {f.__code__ for f in functions}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
            if count > budget:
                raise OverBudget(f"more than {budget} line events")
        return local

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code in codes else None)
    try:
        call()
    finally:
        sys.settrace(old)
    return count


# -- hit-count referees for disjoint routes -------------------------------------

# the two internally disjoint relay routes of the seven-node demo network
DEMO7_ROUTE_SHORT = Path(("a", "c1", "c2", "b"))
DEMO7_ROUTE_LONG = Path(("a", "c3", "c4", "c5", "b"))


def hit_count_sec(attack, scheme: Scheme) -> int:
    """1 if at least one route of the scheme avoids every compromised node.

    Agrees with the secrecy oracle only when the routes are internally
    disjoint; routes that share an edge can leak with no attack at all.
    """
    a = AttackSet(attack)
    for endpoint in (scheme.alice, scheme.bob):
        if endpoint in a:
            raise ValueError(f"attack set may not contain endpoint {endpoint!r}")
    return int(any(not set(p.nodes) & a.nodes for p in scheme.paths))


def scheme_threshold(scheme: Scheme) -> int | float:
    """Fewest compromised nodes that hit every route: an exhaustive

    hitting-set search over the routes' interior nodes. Infinity when some
    route has no interior node (a direct link).
    """
    interiors = [p.interior for p in scheme.paths]
    if any(not i for i in interiors):
        return math.inf
    pool = sorted(set().union(*interiors))
    for size in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if all(set(combo) & i for i in interiors):
                return size
    return math.inf  # unreachable: the full pool hits every interior


# -- exhaustive secrecy referee ------------------------------------------------

ENUM_MAX_NODES = 7
ENUM_MAX_BITS = 24


class EnumerationSizeError(ValueError):
    """The instance is too large for exhaustive enumeration."""


def _parity(outcomes: np.ndarray, mask: int) -> np.ndarray:
    return (np.bitwise_count(outcomes & np.uint64(mask)) & 1).astype(np.uint64)


def _uniform_given_view(view: np.ndarray, secret: np.ndarray) -> bool:
    """True iff the secret bit is split 50/50 within every view value."""
    _, inverse = np.unique(view, return_inverse=True)
    total = np.bincount(inverse)
    ones = np.bincount(inverse[secret == 1], minlength=len(total))
    return bool(np.all(2 * ones == total))


def enumerate_oracle(g: Network, scheme, attack) -> str:
    """Exhaustive secrecy referee for one-bit keys.

    Enumerates every key assignment (and, for a multi-path scheme, every
    message bit and every coin of Alice), packs the eavesdropper's exact
    view of each outcome into one integer, and returns ``perfectly_secret``
    iff the secret is conditionally uniform given every reachable view.
    Refuses instances beyond 7 nodes, 2^24 outcomes or a 63-bit view.
    """
    a = AttackSet(attack)
    a.validate(g)
    if len(g.nodes) > ENUM_MAX_NODES:
        raise EnumerationSizeError(
            f"enumeration handles at most {ENUM_MAX_NODES} nodes, got {len(g.nodes)}"
        )
    index = {e.id: i for i, e in enumerate(g.edges)}
    n_edges = len(index)
    compromised = [e.id for e in g.edges if e.u in a or e.v in a]

    if isinstance(scheme, str):
        if scheme != "m0":
            raise ValueError(f"unknown scheme kind {scheme!r}")
        total_bits = n_edges
        if total_bits > ENUM_MAX_BITS:
            raise EnumerationSizeError(f"enumeration needs 2^{total_bits} cases")
        alice, bob = g.require_endpoints()
        view_masks = []
        for v in g.nodes:
            if v not in (alice, bob):
                mask = 0
                for e in g.edges:
                    if v in (e.u, e.v):
                        mask ^= 1 << index[e.id]
                view_masks.append(mask)
        secret_mask = 0
        for e in g.edges:
            if alice in (e.u, e.v):
                secret_mask ^= 1 << index[e.id]
    else:
        scheme.validate(g)
        n_paths = len(scheme.paths)
        total_bits = n_edges + n_paths  # keys, shares 2..m, message bit
        if total_bits > ENUM_MAX_BITS:
            raise EnumerationSizeError(f"enumeration needs 2^{total_bits} cases")
        secret_mask = 1 << (total_bits - 1)
        share_masks = [secret_mask] + [0] * (n_paths - 1)
        for i in range(1, n_paths):
            share_masks[i] = 1 << (n_edges + i - 1)
            share_masks[0] ^= share_masks[i]
        view_masks = [
            share_masks[i] ^ (1 << index[edge.id])
            for i, path in enumerate(scheme.paths)
            for edge in path.edges_in(g)
        ]
    view_masks += [1 << index[eid] for eid in compromised]
    if len(view_masks) > 63:
        raise EnumerationSizeError(f"view packing needs {len(view_masks)} bits; limit is 63")

    outcomes = np.arange(1 << total_bits, dtype=np.uint64)
    view = np.zeros_like(outcomes)
    for mask in view_masks:
        view = (view << np.uint64(1)) | _parity(outcomes, mask)
    secret = _parity(outcomes, secret_mask)
    return PERFECTLY_SECRET if _uniform_given_view(view, secret) else BROKEN


# -- GF(2) rank-test referee ---------------------------------------------------

def in_span(view_masks, secret_mask: int) -> bool:
    """True iff ``secret_mask`` is an XOR of some of ``view_masks``.

    Each view mask, then the secret's, is reduced against a GF(2) basis
    keyed by each row's top bit, and joins the basis if anything of it is
    left. The secret is in the span iff nothing of it is left.
    """
    basis: dict[int, int] = {}
    for mask in itertools.chain(view_masks, (secret_mask,)):
        while mask:
            top = mask.bit_length() - 1
            row = basis.get(top)
            if row is None:
                basis[top] = mask
                break
            mask ^= row
    return not mask


def rank_oracle(g: Network, scheme, attack) -> str:
    """Secrecy verdict by a GF(2) rank test: the referee for the union-find
    in ``security_oracle`` on instances of any size.

    The scheme's announcements are built with the exchanges' own code
    (``_m0_announcements``, ``_hop_ciphertexts``), fed one-hot masks over
    the uniform bits instead of values: edge keys, and for a multi-path
    scheme Alice's coins and the message. The view is the compromised keys'
    masks in edge order, then the announcement values; the secret is
    ``broken`` iff its mask lies in their span (N. Cai and R. W. Yeung,
    "Secure Network Coding", ISIT 2002). No connectivity check, so
    disconnected endpoints come out ``broken``.
    """
    keys = {e.id: 1 << i for i, e in enumerate(g.edges)}
    if isinstance(scheme, str):
        if scheme != "m0":
            raise ValueError(f"unknown scheme kind {scheme!r}")
        announcements, secret, _ = _m0_announcements(g, keys)
        values = announcements.values()
    else:
        hops = scheme.validate(g)
        m, k = len(keys), len(hops)
        secret = 1 << (m + k - 1)  # the message bit, after the k - 1 coins
        coins = [1 << (m + i) for i in range(k - 1)]
        values = _hop_ciphertexts(hops, secret, coins, keys)
    # edge ids sort in edge order, whatever the string hash seed
    view = [keys[eid] for eid in sorted(insecure_edges(g, attack))]
    view += values
    return BROKEN if in_span(view, secret) else PERFECTLY_SECRET


# -- scheduling networks -------------------------------------------------------

def with_link_params(net: Network, params) -> Network:
    """Clone a network attaching link parameters per edge id (or one default)."""
    if isinstance(params, LinkParams):
        params = {e.id: params for e in net.edges}
    return Network(
        nodes=net.nodes,
        edges=tuple(
            Edge(e.id, e.u, e.v, link_params=params[e.id]) for e in net.edges
        ),
        alice=net.alice,
        bob=net.bob,
    )


def two_node_network(K: int = 5, P_max: int = 5) -> Network:
    net = Network.from_links([("e1", "a", "b")], alice="a", bob="b")
    return with_link_params(net, LinkParams(K=K, P_max=P_max))


def diamond_network(K: int = 3, P_max: int = 3) -> Network:
    net = Network.from_links(
        [("e1", "a", "m1"), ("e2", "m1", "b"), ("e3", "a", "m2"), ("e4", "m2", "b")],
        alice="a",
        bob="b",
    )
    return with_link_params(net, LinkParams(K=K, P_max=P_max))


def grid_network(n: int, K: int = 4, P_max: int = 4) -> Network:
    """An n-by-n grid with nodes ``g<row>_<col>``, alice at one corner and bob at the other."""
    links = []
    for r in range(n):
        for c in range(n):
            if c + 1 < n:
                links.append((f"h{r}_{c}", f"g{r}_{c}", f"g{r}_{c + 1}"))
            if r + 1 < n:
                links.append((f"v{r}_{c}", f"g{r}_{c}", f"g{r + 1}_{c}"))
    net = Network.from_links(links, alice="g0_0", bob=f"g{n - 1}_{n - 1}")
    return with_link_params(net, LinkParams(K=K, P_max=P_max))


def random_feasible_decision(state, cfg, rng: Random) -> StepDecision:
    """Uniformly random decision within the action bounds, for injection.

    Generation bits, admissions, key spends, and the served (direction,
    destination) pick are all random; spends stay within both P_max and the
    current store so the step is physically executable. Weights are ignored
    on purpose, which can serve a commodity uphill.
    """
    S = {eid: rng.randint(0, 1) for eid in state.E}
    R = {}
    for pair in cfg.pairs:
        R[pair] = rng.randint(0, cfg.R_max) if cfg.exact else rng.uniform(0, cfg.R_max)
    P = {}
    served = {}
    for e in cfg.network.edges:
        lp = e.link_params
        cap = max(0, min(lp.P_max, state.E[e.id]))
        P[e.id] = rng.randint(0, int(cap)) if cfg.exact else rng.uniform(0, cap)
        mu = lp.rate(P[e.id])
        if mu > 0 and rng.random() < 0.8:
            src, dst = (e.u, e.v) if rng.random() < 0.5 else (e.v, e.u)
            dest = cfg.dests[rng.randrange(len(cfg.dests))]
            if dest != src:
                served[e.id] = ServedFlow(src=src, dst=dst, dest=dest, nominal=mu, actual=mu)
    return StepDecision(S=S, R=R, P=P, served=served)


# -- slot-decision and CSV referees -------------------------------------------

def key_gen_decision(E, theta) -> int:
    """Generate keys this slot iff the store is strictly below target."""
    return 1 if E < theta else 0


def edge_weights(edge: Edge, Q, dests, gamma) -> dict:
    """Backlog differential per (sender, receiver, destination) on one edge,

    less the margin gamma and floored at zero. Keys come in candidate order
    for ``schedule_commodity``: the lower label sends first, destinations
    follow ``dests``.
    """
    lo, hi = (edge.u, edge.v) if edge.u < edge.v else (edge.v, edge.u)
    weights = {}
    for src, dst in ((lo, hi), (hi, lo)):
        for dest in dests:
            w = Q[(src, dest)] - Q[(dst, dest)] - gamma
            weights[(src, dst, dest)] = w if w > 0 else 0
    return weights


def schedule_commodity(weights, mu, rng: Random, tie_mode: str = "random") -> ServedFlow | None:
    """Pick the (sender, receiver, destination) with the largest positive

    weight and give it the whole rate. ``weights`` holds one edge's
    candidates in order; ties go to a seeded random pick among them, or to
    the first tied candidate in lexicographic mode.
    """
    if mu <= 0:
        return None
    best = 0
    ties = []
    for key, w in weights.items():
        if w > best:
            best, ties = w, [key]
        elif w == best and w > 0:
            ties.append(key)
    if not ties:
        return None
    pick = ties[0] if tie_mode == "lexicographic" or len(ties) == 1 else ties[rng.randrange(len(ties))]
    src, dst, dest = pick
    return ServedFlow(src=src, dst=dst, dest=dest, nominal=mu, actual=mu)


def reference_decision(state, cfg, rng: Random) -> StepDecision:
    """The controller's decision, one closed form per quantity and one

    weight dict per edge: the referee for the fused ``_controller_decision``.
    """
    Q, E = state.Q, state.E
    S = {eid: key_gen_decision(E[eid], th) for eid, th in cfg.theta.items()}
    R = {pair: admit(Q[pair], cfg.V, cfg.commodities[pair], cfg.R_max) for pair in cfg.pairs}
    P = {}
    served = {}
    for e in cfg.network.edges:
        lp = e.link_params
        weights = edge_weights(e, Q, cfg.dests, cfg.gamma)
        P[e.id] = key_consumption(max(weights.values()), E[e.id], cfg.theta[e.id], lp)
        flow = schedule_commodity(weights, lp.rate(P[e.id]), rng, cfg.tie_mode)
        if flow is not None:
            served[e.id] = flow
    return StepDecision(S=S, R=R, P=P, served=served)


class ReferenceCsvObserver:
    """The per-slot CSV written row by row, sorting and labelling every

    slot: the referee for the CLI's ``_CsvObserver``.
    """

    HEADER = ["slot", "entity-id", "Q", "E", "S", "P", "R", "served-b", "served-rate", "actual"]

    def __init__(self, fh) -> None:
        self.writer = csv.writer(fh)
        self.writer.writerow(self.HEADER)

    def __call__(self, t, state, decision, audit) -> None:
        for (node, dest), q in sorted(state.Q.items()):
            r = decision.R.get((node, dest), "")
            self.writer.writerow([t, f"q:{node}>{dest}", q, "", "", "", r, "", "", ""])
        for eid in sorted(state.E):
            flow = decision.served.get(eid)
            self.writer.writerow(
                [
                    t,
                    f"e:{eid}",
                    "",
                    state.E[eid],
                    decision.S[eid],
                    decision.P[eid],
                    "",
                    flow.dest if flow else "",
                    flow.nominal if flow else "",
                    flow.actual if flow else "",
                ]
            )


# -- static-oracle referee ----------------------------------------------------

def fixed_rate_feasible(network: Network, rates: dict) -> bool:
    """Whether per-commodity arc flows can carry ``rates``, each edge within

    its long-run key budget ``min(K, P_max)``: a feasibility LP with the
    rates pinned, rows built entry by entry.
    """
    commodities = sorted(rates)
    nodes = network.nodes
    arcs = [(e.id, e.u, e.v) for e in network.edges] + [
        (e.id, e.v, e.u) for e in network.edges
    ]
    n_c = len(commodities)
    n_var = n_c + n_c * len(arcs)

    def fvar(ci: int, ai: int) -> int:
        return n_c + ci * len(arcs) + ai

    A_eq, b_eq = [], []
    for ci, (src, dst) in enumerate(commodities):
        for v in nodes:
            if v == dst:
                continue
            row = np.zeros(n_var)
            for ai, (_, x, y) in enumerate(arcs):
                if x == v:
                    row[fvar(ci, ai)] = 1
                elif y == v:
                    row[fvar(ci, ai)] = -1
            if v == src:
                row[ci] = -1
            A_eq.append(row)
            b_eq.append(0.0)

    A_ub, b_ub = [], []
    for e in network.edges:
        row = np.zeros(n_var)
        for ai, (eid, _, _) in enumerate(arcs):
            if eid == e.id:
                for ci in range(n_c):
                    row[fvar(ci, ai)] = 1
        A_ub.append(row)
        b_ub.append(float(min(e.link_params.K, e.link_params.P_max)))

    bounds = [(rates[p], rates[p]) for p in commodities]
    bounds.extend([(0.0, None)] * (n_c * len(arcs)))
    res = linprog(
        np.zeros(n_var),
        A_ub=np.array(A_ub),
        b_ub=np.array(b_ub),
        A_eq=np.array(A_eq),
        b_eq=np.array(b_eq),
        bounds=bounds,
        method="highs",
    )
    return bool(res.success)


def grid_oracle(network: Network, commodities, R_max) -> tuple[float, dict]:
    """Static optimum by grid search: the referee for ``oracle_optimal``.

    Refines an 11-point-per-axis grid over the rate box around the best
    rate vector found so far, keeping only vectors ``fixed_rate_feasible``
    accepts, until the grid spacing is 1e-3 of ``R_max``. Every returned
    point is feasible, so its value is a lower bound on the optimum.
    Returns (value, rates).
    """
    pairs = sorted(commodities)
    lo = {p: 0.0 for p in pairs}
    hi = {p: float(R_max) for p in pairs}
    best_rates = {p: 0.0 for p in pairs}
    best_value = sum(commodities[p].value(0.0) for p in pairs)
    grid_n = 11
    while True:
        axes = {p: np.linspace(lo[p], hi[p], grid_n) for p in pairs}
        mesh = np.meshgrid(*[axes[p] for p in pairs], indexing="ij")
        candidates = np.stack([g.ravel() for g in mesh], axis=-1)
        values = np.zeros(len(candidates))
        for i, pt in enumerate(candidates):
            values[i] = sum(commodities[p].value(pt[j]) for j, p in enumerate(pairs))
        for i in np.argsort(-values):
            if values[i] <= best_value:
                break
            fixed = {p: float(candidates[i][j]) for j, p in enumerate(pairs)}
            if fixed_rate_feasible(network, fixed):
                best_rates = fixed
                best_value = float(values[i])
                break
        spans = {p: (hi[p] - lo[p]) / (grid_n - 1) for p in pairs}
        if max(spans.values()) <= 1e-3 * float(R_max):
            return float(best_value), best_rates
        for p in pairs:
            lo[p] = max(0.0, best_rates[p] - spans[p])
            hi[p] = min(float(R_max), best_rates[p] + spans[p])


# -- drift-audit referee ------------------------------------------------------

def replay_drift_audit(state, decision, next_state, cfg, injected) -> DriftAudit:
    """Drift audit by full replay: the referee for ``scheduler.drift_audit``.

    Re-applies every served flow at its nominal rate, in step's operation
    order, to rebuild the nominal next state; checks that a controller step
    (``injected`` false: the caller passed no decision to ``step``) landed
    on it; derives the doubled drift constant 2*B inline from the network
    and its links, maximum degree and largest link rate included, instead
    of reading it; and evaluates both doubled sides of the drift inequality
    in full, squares of whole queues and key gaps included. The slack is
    their difference, ``rhs2 - lhs2``, and ``ok`` allows float mode a
    rounding tolerance of 1e-12 * 2B.
    """
    Q, E = state.Q, state.E
    theta = cfg.theta
    links = {e.id: e.link_params for e in cfg.network.edges}

    nominal_Q = dict(Q)
    for eid in sorted(decision.served):
        flow = decision.served[eid]
        nominal_Q[(flow.src, flow.dest)] -= flow.nominal
        if flow.dst != flow.dest:
            nominal_Q[(flow.dst, flow.dest)] += flow.nominal
    for pair, r in decision.R.items():
        nominal_Q[pair] += r
    nominal_E = {
        eid: E[eid] - decision.P[eid] + decision.S[eid] * links[eid].K for eid in E
    }

    if not injected:
        tol = 0 if cfg.exact else 1e-9
        diverged = any(
            abs(nominal_E[eid] - next_state.E[eid]) > tol for eid in E
        ) or any(abs(next_state.Q[k] - v) > tol for k, v in nominal_Q.items())
        if diverged:
            raise StateInvariantError(
                f"controller step diverged from nominal dynamics at slot {state.t}"
            )

    reward = sum(cfg.commodities[pair].value(decision.R[pair]) for pair in decision.R)
    lhs2 = (
        sum(v * v for v in nominal_Q.values())
        - sum(v * v for v in Q.values())
        + sum((nominal_E[eid] - theta[eid]) ** 2 for eid in E)
        - sum((E[eid] - theta[eid]) ** 2 for eid in E)
        - 2 * cfg.V * reward
    )

    n, m = len(cfg.network.nodes), len(cfg.network.edges)
    P_cap = max(lp.P_max for lp in links.values())
    K_max = max(lp.K for lp in links.values())
    d_max = max(sum(v in (e.u, e.v) for e in cfg.network.edges) for v in cfg.network.nodes)
    mu_max = max(lp.rate(lp.P_max) for lp in links.values())
    B2 = n**2 * (3 * d_max**2 * mu_max**2 + 2 * cfg.R_max**2) + m * (P_cap + K_max) ** 2
    rhs2 = B2
    for eid in E:
        rhs2 += 2 * (E[eid] - theta[eid]) * decision.S[eid] * links[eid].K
        rhs2 -= 2 * (E[eid] - theta[eid]) * decision.P[eid]
    for pair, r in decision.R.items():
        rhs2 -= 2 * (cfg.V * cfg.commodities[pair].value(r) - Q[pair] * r)
    for flow in decision.served.values():
        rhs2 -= 2 * flow.nominal * (Q[(flow.src, flow.dest)] - Q[(flow.dst, flow.dest)])

    slack = rhs2 - lhs2
    return DriftAudit(ok=slack >= (0 if cfg.exact else -1e-12 * B2), slack=slack)


# -- certified-bounds referee -------------------------------------------------

def walk_bounds_violation(state, cfg) -> str | None:
    """The certified ranges checked entity by entity, each key store against

    its own ``theta + K_max``: the referee for ``scheduler._bounds_violation``.
    Float mode lets each bound ``b`` overshoot by ``1e-12 * b``, at either
    end of its range.
    """
    rtol = 0 if cfg.exact else 1e-12
    q_hi = cfg.beta * cfg.V + cfg.R_max
    for (node, dest), q in state.Q.items():
        if node == dest:
            if q != 0:
                return f"destination queue ({node},{dest}) = {q}, not 0, entering slot {state.t}"
        elif q < -rtol * q_hi or q > q_hi + rtol * q_hi:
            return f"queue ({node},{dest}) = {q} outside [0, {q_hi}] entering slot {state.t}"
    for eid, e in state.E.items():
        e_hi = cfg.theta[eid] + cfg.K_max
        if e < -rtol * e_hi or e > e_hi + rtol * e_hi:
            return f"key store {eid} = {e} outside [0, {e_hi}] entering slot {state.t}"
    return None
