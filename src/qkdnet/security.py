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

``security_oracle`` is the package's one secrecy verdict and an independent
referee for the cut-based assessment: the paper's ``sec`` of attack ``A``
and scheme ``S`` is ``security_oracle(g, S, A) == "perfectly_secret"``.
It builds the eavesdropper's view with the exchanges' own code, fed one-hot
masks over the uniform key and coin bits instead of values, and the secret
is perfectly secret iff its mask lies outside the GF(2) span of the view
(N. Cai and R. W. Yeung, "Secure Network Coding", ISIT 2002). The test is
Gaussian elimination on bitmasks and has no size limit. An exhaustive
enumeration in the test suite referees it on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import index, xor
from random import Random
from typing import Iterable

from .graph_core import (
    Edge,
    Network,
    Path,
    _removal,
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
    "find_secure_path",
    "insecure_edges",
    "is_strongest",
    "m0_exchange",
    "min_strongest_attack",
    "multipath_exchange",
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
        _removal(g, self.nodes, g.alice, g.bob)


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

    def validate(self, g: Network) -> tuple[tuple[Edge, ...], ...]:
        """Check the scheme against ``g`` and return each path's hop edges."""
        alice, bob = g.require_endpoints()
        if self.alice != alice or self.bob != bob:
            raise ValueError("scheme endpoints do not match the network's alice/bob")
        return tuple(p.edges_in(g) for p in self.paths)  # raises on a hop with no edge


_MAX_KEY_BITS = 1 << 20  # 128 KiB a key


def _require_width(n_bits: int) -> None:
    # a bool is an int to Python, and would pass as the width 0 or 1
    try:
        if isinstance(n_bits, bool):
            raise TypeError
        index(n_bits)
    except TypeError:
        raise ValueError(f"keys need an integer width, got {n_bits!r}") from None
    if n_bits < 1:
        raise ValueError("keys need at least one bit")
    if n_bits > _MAX_KEY_BITS:
        raise ValueError(f"keys take at most {_MAX_KEY_BITS} bits, got {n_bits}")


@dataclass(frozen=True)
class KeyAssignment:
    """One key value per edge, each an ``n_bits``-wide integer."""

    n_bits: int
    bits: dict[str, int]

    def __post_init__(self) -> None:
        _require_width(self.n_bits)
        top = 1 << self.n_bits
        for eid, value in self.bits.items():
            if not 0 <= value < top:
                raise ValueError(f"key for edge {eid!r} out of range for {self.n_bits} bits")

    @classmethod
    def random(cls, g: Network, n_bits: int, rng: Random) -> "KeyAssignment":
        _require_width(n_bits)  # before drawing, which would fail on its own terms
        # edges are visited in sorted-id order so a seeded rng reproduces exactly
        return cls(n_bits, {e.id: rng.getrandbits(n_bits) for e in g.edges})

    def validate(self, g: Network) -> None:
        """Check there is one key per edge; name the missing and unknown ids."""
        bits = self.bits
        if len(bits) == len(g.edges) and all(e.id in bits for e in g.edges):
            return  # edge ids are distinct, so the ids match
        ids = {e.id for e in g.edges}
        missing = sorted(ids.difference(bits))
        unknown = sorted(bits.keys() - ids)
        raise ValueError(f"key assignment does not match the edges: missing {missing}, unknown {unknown}")

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
        return _eve_view(self.network, self.announcements, self.keys.bits, attack)

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
    gone = _removal(g, attack, g.alice, g.bob)
    links = g._links
    return frozenset(e.id for v in gone for e in links[v].values())


def _eve_view(
    g: Network,
    announcements: dict[str, int],
    keys: dict[str, int],
    attack: "AttackSet | Iterable[str]",
) -> dict[str, int]:
    """Every announcement, plus ``key:<edge>`` for each edge touching the attack."""
    view = dict(announcements)
    for eid in sorted(insecure_edges(g, attack)):
        view[f"key:{eid}"] = keys[eid]
    return view


def is_strongest(g: Network, attack: "AttackSet | Iterable[str]") -> bool:
    """True iff no scheme whatsoever can survive this attack.

    That holds exactly when removing the compromised nodes disconnects alice
    from bob. An attack holds relays only, so a direct alice-bob edge
    survives it: ``disconnects`` returns False there, and no attack qualifies.
    """
    alice, bob = g.require_endpoints()
    return disconnects(g, attack, alice, bob)


def find_secure_path(g: Network, attack: "AttackSet | Iterable[str]") -> Path | None:
    """Lexicographically least alice-to-bob path avoiding the attack, if any."""
    alice, bob = g.require_endpoints()
    return next(enumerate_simple_paths(g, alice, bob, attack), None)


def min_strongest_attack(g: Network) -> AttackSet:
    """Smallest attack that defeats every scheme; lexicographic tie-break.

    Raises DirectLinkError when alice and bob share an edge (no such attack).
    """
    alice, bob = g.require_endpoints()
    return AttackSet(min_vertex_cut(g, alice, bob))


def _multipath_announcements(
    hops: tuple[tuple[Edge, ...], ...],
    message: int,
    coins: list[int],
    keys: dict[str, int],
) -> dict[str, int]:
    """``p<i>:<edge>``: path ``i``'s share XOR the key of each of its hops.

    The shares are ``message ^ xor(coins)`` for path 0, then the coins.
    """
    shares = [message ^ _xor_all(coins), *coins]
    return {
        f"p{i}:{edge.id}": share ^ keys[edge.id]
        for i, (share, path) in enumerate(zip(shares, hops))
        for edge in path
    }


def _m0_announcements(g: Network, keys: dict[str, int]) -> tuple[dict[str, int], int, int]:
    """Each relay's XOR of its incident edge keys, then alice's and bob's.

    One pass over the edges: each key joins the XOR of both its ends.
    Alice's XOR is her key.
    """
    alice, bob = g.require_endpoints()
    xors = dict.fromkeys(g.nodes, 0)
    for e in g.edges:
        key = keys[e.id]
        xors[e.u] ^= key
        xors[e.v] ^= key
    alice_xor, bob_xor = xors.pop(alice), xors.pop(bob)
    return xors, alice_xor, bob_xor


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
    hops = scheme.validate(g)
    keys.validate(g)
    if not 0 <= message < (1 << keys.n_bits):
        raise ValueError(f"message out of range for {keys.n_bits} bits")
    coins = [rng.getrandbits(keys.n_bits) for _ in hops[1:]]
    bits = keys.bits
    announcements = _multipath_announcements(hops, message, coins, bits)
    recovered = _xor_all(
        announcements[f"p{i}:{path[-1].id}"] ^ bits[path[-1].id] for i, path in enumerate(hops)
    )
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
    announcements, alice_key, bob_xor = _m0_announcements(g, keys.bits)
    bob_key = _xor_all(announcements.values()) ^ bob_xor
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

    The scheme's announcements and the view are built with one-hot masks
    over the uniform bits: edge keys, and for a multi-path scheme Alice's
    share coins and the message. The view determines the secret iff the
    secret's mask lies in the GF(2) span of the view's masks: ``broken``;
    otherwise the secret is independent of it: ``perfectly_secret``. No
    connectivity check: disconnected endpoints, where ``m0_exchange``
    raises, come out ``broken``.
    """
    keys = {e.id: 1 << i for i, e in enumerate(g.edges)}
    if isinstance(scheme, str):
        if scheme != "m0":
            raise ValueError(f"unknown scheme kind {scheme!r}")
        announcements, secret, _ = _m0_announcements(g, keys)
    else:
        hops = scheme.validate(g)
        m, k = len(keys), len(hops)
        secret = 1 << (m + k - 1)  # the message bit, after the k - 1 coins
        coins = [1 << (m + i) for i in range(k - 1)]
        announcements = _multipath_announcements(hops, secret, coins, keys)
    view = _eve_view(g, announcements, keys, attack)
    return BROKEN if _in_span(view.values(), secret) else PERFECTLY_SECRET


# Canonical demo topology: seven nodes, nine links, two internally disjoint
# relay routes between a and b. Used across tests and the benchmark.
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

def demo7_network() -> Network:
    """The canonical 7-node demo network with endpoints a and b."""
    return Network.from_links(_DEMO7_LINKS, alice="a", bob="b")
