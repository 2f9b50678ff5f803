"""Output checks. Each checker returns a list of failure messages (empty: pass).

The checkers recompute what they can with their own code (connectivity,
path hits, key-edge sets) rather than asking the program again.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque

BROKEN = "broken"
PERFECTLY_SECRET = "perfectly_secret"

_RATE = re.compile(r"^(admitted|delivered) (\S+): ([0-9.eE+-]+) /slot")
_INT = re.compile(r"-?\d+")
_SUMMARY_OK = (
    "drift audit: ok on all slots",
    "key availability: ok on all slots",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_simulate_cli(
    code: int, stdout: str, csv_bytes: bytes, T: int, rows_per_slot: int, dests
) -> tuple[list[str], dict[str, float]]:
    """Check one ``qkdnet simulate --csv`` call; also return CSV statistics

    (row count, mean total backlog, tail utility printed by the CLI).
    """
    fails = []
    if code != 0:
        fails.append(f"exit code {code}")
    for line in _SUMMARY_OK:
        if line not in stdout:
            fails.append(f"summary lacks {line!r}")
    if not re.search(r"^per-queue bound \S+: held on all slots$", stdout, re.M):
        fails.append("certified bounds not held on every slot")
    admitted, delivered = {}, {}
    for line in stdout.splitlines():
        m = _RATE.match(line)
        if m and m.group(1) == "admitted":
            admitted[m.group(2)] = float(m.group(3))
        elif m:
            delivered[m.group(2)] = float(m.group(3))
    if set(delivered) != set(dests):
        fails.append(f"summary reports destinations {sorted(delivered)}, expected {sorted(dests)}")
    fails += _starved(admitted, delivered)
    m = re.search(r"^utility at tail rates: (\S+)$", stdout, re.M)
    utility = float(m.group(1)) if m else 0.0

    lines = csv_bytes.decode().splitlines()
    rows = len(lines) - 1
    if rows != T * rows_per_slot:
        fails.append(f"CSV has {rows} rows, expected {T * rows_per_slot}")
    backlog = 0
    non_int = 0
    for line in lines[1:]:
        f = line.split(",")
        if f[1].startswith("q:"):
            if _INT.fullmatch(f[2]):
                backlog += int(f[2])
            else:
                non_int += 1
        elif not _INT.fullmatch(f[3]):
            non_int += 1
    if non_int:
        fails.append(f"{non_int} CSV rows hold a non-integer Q or E")
    stats = {"rows": rows, "backlog_mean": backlog / T if T else 0.0, "utility_tail": utility}
    return fails, stats


def _starved(admitted: dict[str, float], delivered: dict[str, float]) -> list[str]:
    """Tail rates: every destination whose commodities are admitted must

    receive data. A commodity the controller declines to admit (on demo7 the
    w=2 commodity takes the links a>b needs) leaves its destination idle.
    """
    fails = []
    if not any(v > 0 for v in delivered.values()):
        fails.append("nothing delivered in the tail: the network stalled")
    for dest, rate in delivered.items():
        inflow = sum(r for pair, r in admitted.items() if pair.endswith(f">{dest}"))
        if inflow > 0 and not rate > 0:
            fails.append(f"destination {dest} received nothing in the tail ({inflow:g}/slot admitted)")
    return fails


def _connected_avoiding(g, removed) -> bool:
    """Independent BFS: does an alice-bob route avoid every removed node?"""
    adj: dict[str, list[str]] = {v: [] for v in g.nodes}
    for e in g.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    seen = {g.alice}
    queue = deque([g.alice])
    while queue:
        x = queue.popleft()
        if x == g.bob:
            return True
        for y in adj[x]:
            if y not in seen and y not in removed:
                seen.add(y)
                queue.append(y)
    return False


def _is_route(g, nodes, avoid) -> bool:
    return (
        len(nodes) >= 2
        and nodes[0] == g.alice
        and nodes[-1] == g.bob
        and len(set(nodes)) == len(nodes)
        and not set(nodes) & set(avoid)
        and all(g.edge_between(u, v) is not None for u, v in zip(nodes, nodes[1:]))
    )


def check_attack_op(g, out: dict) -> list[str]:
    """Check one attack op's answers.

    ``out`` holds: cut, reduced (cut minus one node), strongest_cut,
    strongest_reduced, path (secure path under the reduced attack), paths
    (maximum disjoint family), m0 and multipath transcripts, message, and
    the eavesdropper views of the cut on both transcripts.
    """
    fails = []
    cut, reduced, paths = set(out["cut"]), set(out["reduced"]), out["paths"]
    if len(cut) != len(paths):
        fails.append(f"Menger: cut of {len(cut)} but {len(paths)} disjoint paths")
    for p in paths:
        hit = len(set(p) & cut)
        if hit != 1 or not _is_route(g, p, ()):
            fails.append(f"path {p} hits the cut {hit} times or is not a route")
            break
    if len(set().union(*(set(p[1:-1]) for p in paths))) != sum(len(p) - 2 for p in paths):
        fails.append("disjoint paths share an interior node")
    if _connected_avoiding(g, cut):
        fails.append("cut does not separate alice from bob")
    if out["strongest_cut"] is not True:
        fails.append("is_strongest is false on the cut")
    if out["strongest_reduced"] is not False:
        fails.append("is_strongest is true on the cut minus one node")
    if out["path"] is None or not _is_route(g, out["path"], reduced):
        fails.append(f"secure path {out['path']} is not a route avoiding the reduced attack")
    for tr in (out["m0"], out["multipath"]):
        if tr.alice_key != tr.bob_key:
            fails.append(f"{tr.kind}: alice_key != bob_key")
    if out["multipath"].bob_key != out["message"]:
        fails.append("multipath: bob did not recover the message")
    exposed = {e.id for e in g.edges if e.u in cut or e.v in cut}
    for tr, view in ((out["m0"], out["view_m0"]), (out["multipath"], out["view_multipath"])):
        keys = {k[4:] for k in view if k.startswith("key:")}
        if keys != exposed or any(view[f"key:{k}"] != tr.keys[k] for k in keys):
            fails.append(f"{tr.kind}: eve_view keys differ from the edges touching the cut")
        if any(view.get(k) != v for k, v in tr.announcements.items()):
            fails.append(f"{tr.kind}: eve_view lacks an announcement")
    return fails


def attack_record(out: dict) -> str:
    return repr((
        sorted(out["cut"]), out["strongest_cut"], out["strongest_reduced"], out["path"],
        out["paths"], out["m0"].alice_key, out["multipath"].alice_key,
        len(out["view_m0"]), len(out["view_multipath"]),
    ))


def expected_verdict(g, scheme, attack) -> str:
    """The C3/C4 rule: m0 is broken iff the attack is strongest (it separates

    alice from bob and they share no direct link); a scheme of disjoint paths
    is broken iff the attack hits every path.
    """
    attack = set(attack)
    if scheme == "m0":
        strongest = g.edge_between(g.alice, g.bob) is None and not _connected_avoiding(g, attack)
        return BROKEN if strongest else PERFECTLY_SECRET
    hit_all = all(set(p.nodes[1:-1]) & attack for p in scheme.paths)
    return BROKEN if hit_all else PERFECTLY_SECRET


def check_verdict(verdict: str, g, scheme, attack) -> list[str]:
    want = expected_verdict(g, scheme, attack)
    if verdict != want:
        kind = scheme if scheme == "m0" else "multipath"
        return [f"{kind} verdict {verdict!r} on attack {sorted(attack)}, rule says {want!r}"]
    return []


def check_digests_repeat(digests) -> list[str]:
    """Every call on the same input must produce the same digest."""
    if len(set(digests)) > 1:
        return [f"digest changed between identical calls: {sorted(set(digests))}"]
    return []
