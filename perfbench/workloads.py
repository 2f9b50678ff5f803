"""Seeded inputs for the benchmark workloads.

Every generator takes the workload seed (or a ``Random`` built from it) and
returns plain inputs for the program; the program never sees the seed except
where it is an input of the program itself (the controller's tie-break seed).
"""

from __future__ import annotations

from random import Random

from qkdnet import Network, Scheme, demo7_network, max_disjoint_paths

# simulate-demo7: the C05 acceptance fixture (tests/test_acceptance.py).
DEMO7_K = {"k1": 4, "k2": 3, "k3": 5, "k4": 2, "k5": 4, "k6": 3, "k7": 2, "k8": 5, "k9": 4}
DEMO7_COMMODITIES = (("a", "b", 1), ("c3", "c2", 2), ("c5", "a", 1))
DEMO7_T = 600

# assess-attack: backbone sizes of the relay graphs.
ATTACK_NODES = range(50, 151, 10)
ATTACK_KEY_BITS = 256

# assess-verdict: log2 of the oracle's enumeration width, and the schemes.
VERDICT_WIDTHS = range(14, 21)
VERDICT_CASES = [(w, kind) for w in VERDICT_WIDTHS for kind in ("m0", "multipath")]


def strata(rng: Random, values):
    """Yield ``values`` forever in blocks, each block a fresh shuffle of all

    of them. Every run then draws nearly the same mix of sizes, so the
    run-to-run spread comes from the program, not from the draw.
    """
    while True:
        block = list(values)
        rng.shuffle(block)
        yield from block


def demo7_yaml(seed: int, T: int = DEMO7_T) -> str:
    """The C05 fixture as a CLI config: demo7, per-edge K, P_max=5, V=100, R_max=6."""
    lines = ["alice: a", "bob: b", f"seed: {seed}", "edges:"]
    for e in demo7_network().edges:
        lines.append(f"  - {{id: {e.id}, u: {e.u}, v: {e.v}, params: {{K: {DEMO7_K[e.id]}, P_max: 5}}}}")
    lines.append("schedule:")
    lines.append("  commodities:")
    for src, dst, w in DEMO7_COMMODITIES:
        lines.append(f"    - {{src: {src}, dst: {dst}, utility: linear, w: {w}}}")
    lines += ["  V: 100", "  R_max: 6", f"  T: {T}", "  tie_mode: random"]
    return "\n".join(lines) + "\n"


def relay_graph(rng: Random, n: int) -> Network:
    """A sparse relay network: a ring-lattice backbone of ``n`` relays, each
    linked to the two nearest on either side, plus n/5 random chords. Bob is
    an access node on 4 random relays, alice on 3 of the 9 relays farthest
    from bob, so the minimum cut is alice's 3 access relays.

    Relay labels grow with hop distance from bob. The cut then carries the
    largest labels, and ``min_vertex_cut``'s label-order greedy loop tests
    nearly every relay before it completes the cut. ``find_secure_path``
    runs a lexicographic DFS that backtracks exponentially when labels carry
    no sense of direction (ROADMAP open item 5): with random labels about
    one op in twenty ran for seconds to minutes, which no timed run holds.
    """
    links = set()
    for i in range(n):
        for d in (1, 2):
            j = (i + d) % n
            links.add((min(i, j), max(i, j)))
    for _ in range(n // 5):
        i, j = rng.sample(range(n), 2)
        links.add((min(i, j), max(i, j)))
    alice, bob = n, n + 1
    links.update((i, bob) for i in rng.sample(range(n), 4))
    dist = _hops_from(bob, links)
    far = sorted(range(n), key=lambda i: -dist[i])[:9]
    links.update((i, alice) for i in rng.sample(far, 3))
    dist = _hops_from(bob, links)
    tie = list(range(n + 2))
    rng.shuffle(tie)
    order = sorted(range(n + 2), key=lambda i: (dist[i], tie[i]))
    names = [""] * (n + 2)
    for rank, i in enumerate(order):
        names[i] = f"r{rank:03d}"
    triples = [(f"e{k:04d}", names[i], names[j]) for k, (i, j) in enumerate(sorted(links))]
    return Network.from_links(triples, alice=names[alice], bob=names[bob])


def _hops_from(root: int, links) -> dict[int, int]:
    adj: dict[int, list[int]] = {}
    for i, j in links:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def _random_connected(rng: Random, n: int, m: int) -> Network:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        chosen = rng.sample(pairs, m)
        adj: dict[int, set[int]] = {i: set() for i in range(n)}
        for i, j in chosen:
            adj[i].add(j)
            adj[j].add(i)
        seen, stack = {0}, [0]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) == n:
            triples = [(f"e{i}{j}", f"n{i}", f"n{j}") for i, j in sorted(chosen)]
            return Network.from_links(triples, alice="n0", bob=f"n{n - 1}")


def verdict_instance(rng: Random, width: int, kind: str) -> tuple[Network, "Scheme | str", list[str]]:
    """A dense 6-7-node graph, a scheme of ``kind`` (m0 or multipath over a

    maximum disjoint path family) and a random attack, such that the oracle
    enumerates 2^width outcomes. Returns (network, scheme, attack).
    """
    while True:
        n = 7 if width > 15 else rng.choice((6, 7))
        max_m = n * (n - 1) // 2
        if kind == "m0":
            g = _random_connected(rng, n, width)
            scheme: Scheme | str = "m0"
        else:
            m = rng.randint(n - 1, max_m)
            g = _random_connected(rng, n, m)
            scheme = Scheme(max_disjoint_paths(g, g.alice, g.bob))
            if m + len(scheme.paths) != width:
                continue
        interior = [v for v in g.nodes if v not in (g.alice, g.bob)]
        attack = [v for v in interior if rng.random() < 0.5]
        return g, scheme, attack
