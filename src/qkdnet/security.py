"""Attack assessment and hop-by-hop key exchange over trusted-relay networks.

The threat model: an eavesdropper picks a set of relay nodes to compromise.
She reads every classical announcement in the network, and she knows the key
of every edge incident to a compromised node; keys on edges between two
uncompromised nodes stay hidden from her.

Two exchange schemes are simulated bit-exactly. The multi-path scheme splits
the message into XOR shares and relays each share along its own path with
per-hop one-time-pad re-encryption. The whole-network scheme has every relay
broadcast the XOR of all its incident edge keys, which lets Bob reconstruct
the XOR of the keys incident to Alice.

``security_oracle`` is the independent referee. Every view symbol and every
secret of both schemes is an XOR of uniform key and coin bits, so the secret
is perfectly secret iff its mask lies outside the GF(2) span of the view
masks (N. Cai and R. W. Yeung, "Secure Network Coding", ISIT 2002). The test
is Gaussian elimination on bitmasks and has no size limit. An exhaustive
enumeration in the test suite referees it on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import xor
from random import Random
from typing import Iterable

from .graph_core import (
    DirectLinkError,
    Edge,
    Network,
    Path,
    disconnects,
    enumerate_simple_paths,
    min_vertex_cut,
)

__all__ = [
    "AttackSet",
    "BROKEN",
    "ExchangeTranscript",
    "KeyAssignment",
    "PERFECTLY_SECRET",
    "Scheme",
    "demo7_network",
    "DEMO7_ROUTE_SHORT",
    "DEMO7_ROUTE_LONG",
    "find_secure_path",
    "has_direct_link",
    "insecure_edges",
    "is_strongest",
    "m0_exchange",
    "min_strongest_attack",
    "multipath_exchange",
    "scheme_threshold",
    "sec",
    "security_oracle",
]

PERFECTLY_SECRET = "perfectly_secret"
BROKEN = "broken"

@dataclass(frozen=True)
class AttackSet:
    """Set of compromised relay nodes. Never contains alice or bob."""

    nodes: frozenset[str]

    def __init__(self, nodes: Iterable[str] = ()) -> None:
        object.__setattr__(self, "nodes", frozenset(nodes))

    def __iter__(self):
        return iter(sorted(self.nodes))

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, label: str) -> bool:
        return label in self.nodes

    def validate(self, g: Network) -> None:
        for v in self.nodes:
            g.require_node(v)
        for endpoint in (g.alice, g.bob):
            if endpoint is not None and endpoint in self.nodes:
                raise ValueError(f"attack set may not contain endpoint {endpoint!r}")


def _as_attack(g: Network, attack: "AttackSet | Iterable[str]") -> AttackSet:
    a = attack if isinstance(attack, AttackSet) else AttackSet(attack)
    a.validate(g)
    return a


@dataclass(frozen=True)
class Scheme:
    """A multi-path relaying plan: one or more alice-to-bob paths."""

    paths: tuple[Path, ...]

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("a scheme needs at least one path")
        first, last = self.paths[0].nodes[0], self.paths[0].nodes[-1]
        for p in self.paths:
            if p.nodes[0] != first or p.nodes[-1] != last:
                raise ValueError("all paths of a scheme must share their endpoints")
        if len(set(self.paths)) != len(self.paths):
            raise ValueError("scheme repeats a path")

    @classmethod
    def of(cls, *node_lists: Iterable[str]) -> "Scheme":
        return cls(tuple(Path(tuple(nodes)) for nodes in node_lists))

    @property
    def alice(self) -> str:
        return self.paths[0].nodes[0]

    @property
    def bob(self) -> str:
        return self.paths[0].nodes[-1]

    def validate(self, g: Network) -> None:
        alice, bob = g.require_endpoints()
        if self.alice != alice or self.bob != bob:
            raise ValueError("scheme endpoints do not match the network's alice/bob")
        for p in self.paths:
            p.edges_in(g)  # raises on a hop with no edge


@dataclass(frozen=True)
class KeyAssignment:
    """One key value per edge, each an ``n_bits``-wide integer."""

    n_bits: int
    bits: dict[str, int]

    def __post_init__(self) -> None:
        if self.n_bits < 1:
            raise ValueError("keys need at least one bit")
        top = 1 << self.n_bits
        for eid, value in self.bits.items():
            if not 0 <= value < top:
                raise ValueError(f"key for edge {eid!r} out of range for {self.n_bits} bits")

    @classmethod
    def random(cls, g: Network, n_bits: int, rng: Random) -> "KeyAssignment":
        # edges are visited in sorted-id order so a seeded rng reproduces exactly
        return cls(n_bits, {e.id: rng.getrandbits(n_bits) for e in g.edges})

    def validate(self, g: Network) -> None:
        have = set(self.bits)
        want = {e.id for e in g.edges}
        if have != want:
            raise ValueError(f"key assignment covers {sorted(have)} but edges are {sorted(want)}")

    def __getitem__(self, edge_id: str) -> int:
        return self.bits[edge_id]


def _xor_all(values: Iterable[int]) -> int:
    return reduce(xor, values, 0)


@dataclass(frozen=True)
class ExchangeTranscript:
    """Everything broadcast during one exchange, plus both parties' results.

    ``announcements`` maps an announcement label to its bit value: the relay
    node's name for the whole-network scheme, ``p<i>:<edge>`` (share index
    and hop edge) for the per-hop ciphertexts of the multi-path scheme.
    """

    kind: str
    n_bits: int
    announcements: dict[str, int]
    alice_key: int
    bob_key: int
    keys: KeyAssignment
    network: Network = field(repr=False)
    scheme: Scheme | None = None

    def eve_view(self, attack: "AttackSet | Iterable[str]") -> dict[str, int]:
        """All announcements plus the keys of edges touching compromised nodes.

        Keys of edges between two uncompromised nodes never appear here.
        """
        a = _as_attack(self.network, attack)
        view = dict(self.announcements)
        for eid in sorted(insecure_edges(self.network, a)):
            view[f"key:{eid}"] = self.keys[eid]
        return view

    def to_text(self) -> str:
        width = max(1, (self.n_bits + 3) // 4)
        lines = [f"scheme: {self.kind}", f"n_bits: {self.n_bits}", "announcements:"]
        for label, value in self.announcements.items():
            lines.append(f"  {label}: 0x{value:0{width}x}")
        lines.append(f"alice_key: 0x{self.alice_key:0{width}x}")
        lines.append(f"bob_key: 0x{self.bob_key:0{width}x}")
        return "\n".join(lines) + "\n"


def insecure_edges(g: Network, attack: "AttackSet | Iterable[str]") -> frozenset[str]:
    """Ids of edges whose key the eavesdropper learns outright."""
    a = _as_attack(g, attack)
    return frozenset(e.id for e in g.edges if e.u in a.nodes or e.v in a.nodes)


def sec(attack: "AttackSet | Iterable[str]", scheme: Scheme) -> int:
    """1 if at least one path of the scheme avoids every compromised node."""
    a = attack if isinstance(attack, AttackSet) else AttackSet(attack)
    for endpoint in (scheme.alice, scheme.bob):
        if endpoint in a.nodes:
            raise ValueError(f"attack set may not contain endpoint {endpoint!r}")
    for p in scheme.paths:
        if not (set(p.nodes) & a.nodes):
            return 1
    return 0


def has_direct_link(g: Network) -> bool:
    alice, bob = g.require_endpoints()
    return g.edge_between(alice, bob) is not None


def is_strongest(g: Network, attack: "AttackSet | Iterable[str]") -> bool:
    """True iff no scheme whatsoever can survive this attack.

    That holds exactly when removing the compromised nodes disconnects alice
    from bob. With a direct alice-bob edge no attack qualifies, so this
    returns False; callers can distinguish that case via has_direct_link.
    """
    alice, bob = g.require_endpoints()
    a = _as_attack(g, attack)
    if has_direct_link(g):
        return False
    return disconnects(g, a.nodes, alice, bob)


def find_secure_path(g: Network, attack: "AttackSet | Iterable[str]") -> Path | None:
    """Lexicographically least alice-to-bob path avoiding the attack, if any."""
    alice, bob = g.require_endpoints()
    a = _as_attack(g, attack)
    keep = [n for n in g.nodes if n not in a.nodes]
    sub = Network(
        tuple(keep),
        tuple(e for e in g.edges if e.u not in a.nodes and e.v not in a.nodes),
        alice,
        bob,
    )
    return next(enumerate_simple_paths(sub, alice, bob), None)


def min_strongest_attack(g: Network) -> AttackSet:
    """Smallest attack that defeats every scheme; lexicographic tie-break.

    Raises DirectLinkError when alice and bob share an edge (no such attack).
    """
    alice, bob = g.require_endpoints()
    return AttackSet(min_vertex_cut(g, alice, bob))


def scheme_threshold(scheme: Scheme) -> int | float:
    """Minimum number of compromised nodes that breaks the scheme.

    Exhaustive hitting-set search over the paths' interior nodes; infinity if
    some path has no interior node at all (a direct link).
    """
    interiors = [p.interior for p in scheme.paths]
    if any(not i for i in interiors):
        return math.inf
    pool = sorted(set().union(*interiors))
    from itertools import combinations

    for size in range(1, len(pool) + 1):
        for combo in combinations(pool, size):
            chosen = set(combo)
            if all(chosen & i for i in interiors):
                return size
    return math.inf  # unreachable: hitting every interior with the full pool works


def multipath_exchange(
    g: Network,
    scheme: Scheme,
    message: int,
    keys: KeyAssignment,
    rng: Random,
) -> ExchangeTranscript:
    """Split ``message`` into one XOR share per path and relay hop by hop.

    Alice draws uniform shares for every path but the first and sets the
    first share to message XOR (all other shares). Each hop re-encrypts a
    share under that edge's key, and every hop ciphertext is announced. Bob
    decrypts the final hop of each path and XORs the shares back together.
    """
    scheme.validate(g)
    keys.validate(g)
    if not 0 <= message < (1 << keys.n_bits):
        raise ValueError(f"message out of range for {keys.n_bits} bits")
    shares = [0] * len(scheme.paths)
    for i in range(1, len(scheme.paths)):
        shares[i] = rng.getrandbits(keys.n_bits)
    shares[0] = message ^ _xor_all(shares[1:])

    announcements: dict[str, int] = {}
    received = []
    for i, path in enumerate(scheme.paths):
        hops = path.edges_in(g)
        for edge in hops:
            announcements[f"p{i}:{edge.id}"] = shares[i] ^ keys[edge.id]
        received.append(announcements[f"p{i}:{hops[-1].id}"] ^ keys[hops[-1].id])

    recovered = _xor_all(received)
    if recovered != message:  # pure XOR algebra; cannot fail
        raise AssertionError("share reassembly mismatch")
    return ExchangeTranscript(
        kind="multipath",
        n_bits=keys.n_bits,
        announcements=announcements,
        alice_key=message,
        bob_key=recovered,
        keys=keys,
        network=g,
        scheme=scheme,
    )


def m0_exchange(g: Network, keys: KeyAssignment) -> ExchangeTranscript:
    """Whole-network exchange: each relay announces the XOR of its edge keys.

    Alice's key is the XOR of her incident edge keys. Every edge between two
    relays appears in exactly two announcements and cancels, so XORing all
    announcements with his own incident keys hands Bob the same value.
    """
    alice, bob = g.require_endpoints()
    keys.validate(g)
    if disconnects(g, (), alice, bob):
        raise ValueError("alice and bob are in different components; exchange impossible")
    announcements = {
        v: _xor_all(keys[e.id] for e in g.incident[v])
        for v in g.nodes
        if v not in (alice, bob)
    }
    alice_key = _xor_all(keys[e.id] for e in g.incident[alice])
    bob_key = _xor_all(announcements.values()) ^ _xor_all(
        keys[e.id] for e in g.incident[bob]
    )
    if alice_key != bob_key:  # every non-alice key cancels pairwise; cannot fail
        raise AssertionError("announcement cancellation mismatch")
    return ExchangeTranscript(
        kind="m0",
        n_bits=keys.n_bits,
        announcements=announcements,
        alice_key=alice_key,
        bob_key=bob_key,
        keys=keys,
        network=g,
    )


def _reduce(basis: dict[int, int], mask: int) -> int:
    """Reduce ``mask`` against a GF(2) basis keyed by each row's top bit."""
    while mask:
        row = basis.get(mask.bit_length() - 1)
        if row is None:
            return mask
        mask ^= row
    return 0


def _in_span(view_masks: Iterable[int], secret_mask: int) -> bool:
    """True iff ``secret_mask`` is an XOR of some of ``view_masks``."""
    basis: dict[int, int] = {}
    for mask in view_masks:
        mask = _reduce(basis, mask)
        if mask:
            basis[mask.bit_length() - 1] = mask
    return _reduce(basis, secret_mask) == 0


def security_oracle(
    g: Network,
    scheme: "Scheme | str",
    attack: "AttackSet | Iterable[str]",
) -> str:
    """Secrecy verdict by a GF(2) rank test; no size limit.

    Every view symbol and the secret are XORs of uniform independent bits
    (edge keys, and for a multi-path scheme the message and Alice's share
    coins), written here as bitmasks over those bits. The secret is
    independent of the view iff its mask lies outside the GF(2) span of the
    view masks; otherwise the view determines it. Returns ``broken`` in
    that case and ``perfectly_secret`` otherwise. Independent of the
    cut-based assessment: nothing here looks at connectivity.
    """
    a = _as_attack(g, attack)
    index = {e.id: i for i, e in enumerate(g.edges)}
    key_masks = [1 << index[eid] for eid in insecure_edges(g, a)]

    if isinstance(scheme, str):
        if scheme != "m0":
            raise ValueError(f"unknown scheme kind {scheme!r}")
        alice, bob = g.require_endpoints()
        announced = [
            _xor_all(1 << index[e.id] for e in g.incident[v])
            for v in g.nodes
            if v not in (alice, bob)
        ]
        secret_mask = _xor_all(1 << index[e.id] for e in g.incident[alice])
    else:
        scheme.validate(g)
        n_edges, n_paths = len(index), len(scheme.paths)
        secret_mask = 1 << (n_edges + n_paths - 1)  # the message bit
        coins = [1 << (n_edges + i) for i in range(n_paths - 1)]
        share_masks = [secret_mask ^ _xor_all(coins), *coins]
        announced = [
            share_masks[i] ^ (1 << index[edge.id])
            for i, path in enumerate(scheme.paths)
            for edge in path.edges_in(g)
        ]
    return BROKEN if _in_span(announced + key_masks, secret_mask) else PERFECTLY_SECRET


# Canonical demo topology: seven nodes, nine links, two internally disjoint
# relay routes between a and b. Used across tests and CLI examples.
_DEMO7_LINKS = (
    ("k1", "a", "c1"),
    ("k2", "a", "c3"),
    ("k3", "c3", "c4"),
    ("k4", "c1", "c4"),
    ("k5", "c4", "c5"),
    ("k6", "c1", "c2"),
    ("k7", "c2", "c5"),
    ("k8", "c5", "b"),
    ("k9", "c2", "b"),
)

DEMO7_ROUTE_SHORT = Path(("a", "c1", "c2", "b"))
DEMO7_ROUTE_LONG = Path(("a", "c3", "c4", "c5", "b"))


def demo7_network() -> Network:
    """The canonical 7-node demo network with endpoints a and b."""
    return Network.from_links(_DEMO7_LINKS, alice="a", bob="b")
