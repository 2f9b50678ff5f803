"""Brute-force oracles and graph enumeration shared across the test suite.

Everything here is deliberately naive: subset enumeration, permutation
scans, depth-first searches written from scratch. The point is to check the
package's algorithms against independent code paths, so nothing in this
module may call the routines it is used to verify.
"""

import itertools
from random import Random

import numpy as np

from qkdnet.graph_core import Edge, Network, Path
from qkdnet.scheduler import LinkParams
from qkdnet.security import BROKEN, PERFECTLY_SECRET, AttackSet


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

def brute_has_avoiding_path(g: Network, a: str, b: str, removed) -> bool:
    """Depth-first reachability from a to b skipping the removed nodes."""
    removed = set(removed)
    if a in removed or b in removed:
        raise ValueError("endpoints cannot be removed")
    seen = set()

    def dfs(v: str) -> bool:
        if v == b:
            return True
        seen.add(v)
        return any(
            w not in seen and w not in removed and dfs(w) for w in g.adjacency[v]
        )

    return dfs(a)


def brute_all_paths(g: Network, a: str, b: str) -> list[Path]:
    """Every simple a-b path, found by scanning interior permutations."""
    interior = [v for v in g.nodes if v != a and v != b]
    adj = g.adjacency
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
                for e in g.incident[v]:
                    mask ^= 1 << index[e.id]
                view_masks.append(mask)
        secret_mask = 0
        for e in g.incident[alice]:
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
