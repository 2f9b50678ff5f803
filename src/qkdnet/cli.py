"""Command-line front end.

Subcommands:

  assess    judge an attack: insecure edges, strongest or not, secure path
  attack    find the smallest strongest attack on the configured network
  exchange  run a key exchange (m0 or multipath) and print the transcript
  simulate  run the slot controller, optionally writing a per-slot CSV
  sweep     run the controller across several V values against the oracle
  oracle    solve the static optimum for the configured commodities

All subcommands read a YAML network config (see the README for the schema)
and exit 0 on success, 1 on configuration or usage errors, 3 when a
simulation audit fails.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from random import Random
from typing import Any, Sequence

import yaml

from .graph_core import DirectLinkError, Edge, Network
from .harness import Scenario, oracle_optimal, run, v_sweep
from .scheduler import LinkParams, NetworkState, SlotAudit, StepDecision, Utility
from .security import (
    AttackSet,
    KeyAssignment,
    Scheme,
    find_secure_path,
    insecure_edges,
    is_strongest,
    m0_exchange,
    min_strongest_attack,
    multipath_exchange,
    sec,
    security_oracle,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AUDIT_FAILED = 3


class ConfigError(ValueError):
    pass


def _load_doc(path: str) -> dict[str, Any]:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"malformed YAML: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config must be a YAML mapping")
    return doc


def _network_from_doc(doc: dict[str, Any]) -> Network:
    raw_edges = doc.get("edges")
    if not raw_edges:
        raise ConfigError("config needs a non-empty 'edges' list")
    edges = []
    for item in raw_edges:
        try:
            eid, u, v = item["id"], item["u"], item["v"]
        except (TypeError, KeyError) as e:
            raise ConfigError(f"edge entries need id/u/v: {item!r}") from e
        lp = None
        if "params" in item:
            p = item["params"]
            try:
                lp = LinkParams(
                    K=p["K"], P_max=p["P_max"], delta=p.get("delta", 1)
                )
            except (TypeError, KeyError, ValueError) as e:
                raise ConfigError(f"bad link params on edge {eid!r}: {e}") from e
        edges.append(Edge(str(eid), str(u), str(v), link_params=lp))
    nodes = {e.u for e in edges} | {e.v for e in edges} | set(doc.get("nodes", ()))
    try:
        return Network(
            nodes=tuple(sorted(nodes)),
            edges=tuple(sorted(edges, key=lambda e: e.id)),
            alice=doc.get("alice"),
            bob=doc.get("bob"),
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _require_endpoints(g: Network) -> tuple[str, str]:
    if g.alice is None or g.bob is None:
        raise ConfigError("this command needs 'alice' and 'bob' in the config")
    return g.alice, g.bob


def _attack_from(doc: dict[str, Any], args: argparse.Namespace, g: Network) -> AttackSet:
    if getattr(args, "attack", None):
        labels = [s for part in args.attack for s in part.split(",") if s]
    else:
        labels = (doc.get("security") or {}).get("attack") or []
        if isinstance(labels, str):
            labels = [labels]
        elif not isinstance(labels, list):
            raise ConfigError(f"security.attack must be a node label or a list of labels, got {labels!r}")
    attack = AttackSet(labels)
    attack.validate(g)
    return attack


def _paths_from(doc: dict[str, Any], args: argparse.Namespace) -> list[list[str]] | None:
    if getattr(args, "path", None):
        return [p.split(",") for p in args.path]
    raw = (doc.get("security") or {}).get("paths")
    if raw:
        return [list(p) for p in raw]
    return None


def _scheme_from(doc: dict[str, Any], args: argparse.Namespace, g: Network) -> Scheme | None:
    paths = _paths_from(doc, args)
    if paths is None:
        return None
    scheme = Scheme.of(*paths)
    scheme.validate(g)
    return scheme


def _commodities_from_doc(doc: dict[str, Any]) -> dict[tuple[str, str], Utility]:
    sched = doc.get("schedule") or {}
    raw = sched.get("commodities")
    if not raw:
        raise ConfigError("config needs schedule.commodities")
    out: dict[tuple[str, str], Utility] = {}
    for item in raw:
        try:
            pair = (str(item["src"]), str(item["dst"]))
            utility = Utility(item.get("utility", "linear"), item.get("w", 1))
        except (TypeError, KeyError, ValueError) as e:
            raise ConfigError(f"bad commodity entry {item!r}: {e}") from e
        if pair in out:
            raise ConfigError(f"duplicate commodity {pair[0]}->{pair[1]}")
        out[pair] = utility
    return out


def _sched_value(doc: dict[str, Any], args: argparse.Namespace, key: str, flag: str) -> int | float:
    override = getattr(args, flag, None)
    if override is not None:
        return override
    sched = doc.get("schedule") or {}
    if key not in sched:
        raise ConfigError(f"config needs schedule.{key} (or --{flag.replace('_', '-')})")
    value = sched[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"schedule.{key} must be a finite number, got {value!r}")
    return value


def _seed(doc: dict[str, Any], args: argparse.Namespace) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(doc.get("seed", 0))


def _dump_effective(doc: dict[str, Any]) -> None:
    sys.stdout.write(yaml.safe_dump(doc, sort_keys=True, default_flow_style=False))


def _fmt_nodes(nodes) -> str:
    return ",".join(sorted(nodes))


def _fmt_path(path) -> str:
    return "(" + ",".join(path.nodes) + ")"


def _cmd_assess(args: argparse.Namespace) -> int:
    doc = _load_doc(args.config)
    g = _network_from_doc(doc)
    a, b = _require_endpoints(g)
    attack = _attack_from(doc, args, g)
    print(f"network: {len(g.nodes)} nodes, {len(g.edges)} edges, endpoints {a}-{b}")
    print(f"attack: {_fmt_nodes(attack) or '(none)'}")
    bad = insecure_edges(g, attack)
    print(f"insecure edges: {_fmt_nodes(bad) or '(none)'} ({len(bad)} of {len(g.edges)})")
    try:
        strongest = is_strongest(g, attack)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    scheme = _scheme_from(doc, args, g)
    if strongest:
        print("strongest attack: yes")
        print("communication impossible: every route touches the attack")
        print("secure path: none")
        if scheme is not None:
            print(f"scheme sec={sec(attack, scheme)}")
        print("sec=0")
    else:
        print("strongest attack: no")
        path = find_secure_path(g, attack)
        if path is None:
            # only on direct-link networks where the edge itself is the route
            print(f"secure path: direct link {a}-{b}")
        else:
            print(f"secure path: {_fmt_path(path)}")
        if scheme is not None:
            print(f"scheme sec={sec(attack, scheme)}")
        print("sec=1")
    return EXIT_OK


def _cmd_attack(args: argparse.Namespace) -> int:
    doc = _load_doc(args.config)
    g = _network_from_doc(doc)
    a, b = _require_endpoints(g)
    try:
        attack = min_strongest_attack(g)
    except DirectLinkError:
        print(f"no strongest attack exists: {a} and {b} share a direct link")
        return EXIT_OK
    print(f"strongest attack: {_fmt_nodes(attack)} (size {len(attack)})")
    print(f"removing it disconnects {a} from {b}; sec=0 for every scheme")
    return EXIT_OK


def _cmd_exchange(args: argparse.Namespace) -> int:
    doc = _load_doc(args.config)
    g = _network_from_doc(doc)
    _require_endpoints(g)
    sec_doc = doc.get("security") or {}
    kind = args.scheme or sec_doc.get("scheme") or "m0"
    n_bits = args.n_bits or int(sec_doc.get("n_bits", 16))
    rng = Random(_seed(doc, args))
    keys = KeyAssignment.random(g, n_bits, rng)
    if kind == "m0":
        transcript = m0_exchange(g, keys)
    elif kind == "multipath":
        scheme = _scheme_from(doc, args, g)
        if scheme is None:
            raise ConfigError("multipath exchange needs security.paths (or --path)")
        if args.message is not None:
            message = int(args.message, 0)
        else:
            message = rng.getrandbits(n_bits)
        transcript = multipath_exchange(g, scheme, message, keys, rng)
    else:
        raise ConfigError(f"unknown scheme {kind!r} (expected m0 or multipath)")
    text = transcript.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"transcript written to {args.out}")
    else:
        sys.stdout.write(text)
    attack = _attack_from(doc, args, g)
    if len(attack):
        view = transcript.eve_view(attack)
        print(f"attack: {_fmt_nodes(attack)} sees {len(view)} announcements/keys")
        verdict = security_oracle(g, transcript.scheme or "m0", attack)
        print(f"verdict: {verdict.replace('_', ' ')}")
    return EXIT_OK


class _CsvObserver:
    """Streams one row per queue and per edge each slot.

    Q and E are observed at slot start; R, S, P and the served columns are
    that slot's decision. served-b is the destination the edge served.
    """

    HEADER = ["slot", "entity-id", "Q", "E", "S", "P", "R", "served-b", "served-rate", "actual"]

    def __init__(self, fh, cfg) -> None:
        self.writer = csv.writer(fh)
        self.writer.writerow(self.HEADER)
        self.cfg = cfg

    def __call__(self, t: int, state: NetworkState, decision: StepDecision, audit: SlotAudit) -> None:
        for (node, dest), q in sorted(state.Q.items()):
            pair = (node, dest)
            r = decision.R.get(pair, "")
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


def _cmd_simulate(args: argparse.Namespace) -> int:
    doc = _load_doc(args.config)
    g = _network_from_doc(doc)
    commodities = _commodities_from_doc(doc)
    V = _sched_value(doc, args, "V", "v")
    R_max = _sched_value(doc, args, "R_max", "r_max")
    T = int(_sched_value(doc, args, "T", "horizon"))
    tie_mode = args.tie_mode or (doc.get("schedule") or {}).get("tie_mode", "random")
    try:
        scenario = Scenario.build(g, commodities, V, R_max, T, _seed(doc, args), tie_mode)
    except ValueError as e:
        raise ConfigError(str(e)) from e

    observer = None
    csv_fh = None
    if args.csv:
        csv_fh = open(args.csv, "w", newline="")
        observer = _CsvObserver(csv_fh, scenario.config)
    try:
        result = run(scenario, observer=observer)
    finally:
        if csv_fh is not None:
            csv_fh.close()

    params = scenario.config.params
    print(f"slots: {T}  seed: {scenario.seed}  V: {V}")
    for pair in scenario.config.pairs:
        print(f"admitted {pair[0]}>{pair[1]}: {result.metrics.admitted_rate(pair):.4f} /slot (tail 80%)")
    for dest in scenario.config.dests:
        print(f"delivered {dest}: {result.metrics.delivered_rate(dest):.4f} /slot (tail 80%)")
    print(f"utility at tail rates: {result.metrics.utility_of_rates(commodities):.4f}")
    print(f"max total backlog: {result.metrics.max_backlog():.0f}")
    checked = "held on all slots" if result.bounds_checked else "not certified"
    print(f"per-queue bound {params.queue_bound}: {checked}")
    print(f"drift audit: {'ok on all slots' if result.drift_ok else 'FAILED'}")
    print(f"key availability: {'ok on all slots' if result.availability_ok else 'FAILED'}")
    if args.csv:
        print(f"per-slot CSV written to {args.csv}")
    if not (result.drift_ok and result.availability_ok):
        return EXIT_AUDIT_FAILED
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    doc = _load_doc(args.config)
    g = _network_from_doc(doc)
    commodities = _commodities_from_doc(doc)
    R_max = _sched_value(doc, args, "R_max", "r_max")
    T = int(_sched_value(doc, args, "T", "horizon"))
    if args.v_values:
        v_values = [int(s) for s in args.v_values.split(",")]
    else:
        raw = (doc.get("schedule") or {}).get("V_values")
        if not raw:
            raise ConfigError("sweep needs --v-values or schedule.V_values")
        v_values = [int(x) for x in raw]
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [_seed(doc, args)]
    tie_mode = args.tie_mode or (doc.get("schedule") or {}).get("tie_mode", "random")
    try:
        rows = v_sweep(g, commodities, R_max, T, v_values, seeds, tie_mode)
    except RuntimeError as e:
        print(f"audit failure: {e}", file=sys.stderr)
        return EXIT_AUDIT_FAILED
    print(f"oracle U*={rows[0].oracle:g}")
    all_pass = True
    for row in rows:
        status = "PASS" if row.passed else "FAIL"
        all_pass = all_pass and row.passed
        print(
            f"V={row.V:<6g} seed={row.seed:<3} measured={row.measured:.4f} "
            f"gap_bound={row.gap_bound:.4f} max_backlog={row.max_backlog:.0f} {status}"
        )
    print("PASS" if all_pass else "FAIL")
    return EXIT_OK if all_pass else EXIT_AUDIT_FAILED


def _cmd_oracle(args: argparse.Namespace) -> int:
    doc = _load_doc(args.config)
    g = _network_from_doc(doc)
    commodities = _commodities_from_doc(doc)
    R_max = _sched_value(doc, args, "R_max", "r_max")
    try:
        res = oracle_optimal(g, commodities, R_max)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    print(f"U*={res.value:g}")
    for pair, rate in sorted(res.rates.items()):
        print(f"r {pair[0]}>{pair[1]} = {rate:g}")
    print(f"method: {res.method}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkdnet",
        description="Security assessment and key-aware scheduling for trusted-relay networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="YAML network config")
        p.add_argument("--dump-config", action="store_true", help="print the effective config and exit")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")

    p = sub.add_parser("assess", help="judge an attack against the configured network")
    common(p)
    p.add_argument("--attack", action="append", default=None, help="compromised nodes (comma separated, repeatable)")
    p.add_argument("--path", action="append", default=None, help="scheme path as comma separated nodes (repeatable)")
    p.set_defaults(func=_cmd_assess)

    p = sub.add_parser("attack", help="find the smallest strongest attack")
    common(p)
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("exchange", help="run a key exchange and print the transcript")
    common(p)
    p.add_argument("--scheme", choices=["m0", "multipath"], default=None)
    p.add_argument("--path", action="append", default=None, help="multipath route (comma separated nodes, repeatable)")
    p.add_argument("--n-bits", type=int, default=None, help="key length in bits")
    p.add_argument("--message", default=None, help="message for multipath (int, 0x.. ok)")
    p.add_argument("--attack", action="append", default=None, help="report the eavesdropper view for this attack")
    p.add_argument("--out", default=None, help="write the transcript to a file")
    p.set_defaults(func=_cmd_exchange)

    p = sub.add_parser("simulate", help="run the slot controller")
    common(p)
    p.add_argument("--csv", default=None, help="write per-slot rows to this CSV file")
    p.add_argument("--v", type=int, default=None, help="override V")
    p.add_argument("--r-max", type=int, default=None, help="override R_max")
    p.add_argument("--horizon", type=int, default=None, help="override T")
    p.add_argument("--tie-mode", choices=["random", "lexicographic"], default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="compare the controller against the oracle across V")
    common(p)
    p.add_argument("--v-values", default=None, help="comma separated V values")
    p.add_argument("--seeds", default=None, help="comma separated seeds")
    p.add_argument("--r-max", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--tie-mode", choices=["random", "lexicographic"], default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("oracle", help="solve the static optimum")
    common(p)
    p.add_argument("--r-max", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.dump_config:
            doc = _load_doc(args.config)
            _network_from_doc(doc)  # validate before echoing
            _dump_effective(doc)
            return EXIT_OK
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
