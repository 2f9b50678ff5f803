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
simulation audit fails or the oracle's LP fails or does not converge.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import math
import sys
from dataclasses import dataclass
from random import Random
from typing import Any, Sequence

import yaml

from .graph_core import DirectLinkError, Edge, Network
from .harness import Scenario, oracle_optimal, run, v_sweep
from .scheduler import LinkParams, NetworkState, ScheduleConfig, SlotAudit, StepDecision, Utility
from .security import (
    PERFECTLY_SECRET,
    AttackSet,
    KeyAssignment,
    Scheme,
    find_secure_path,
    insecure_edges,
    m0_exchange,
    min_strongest_attack,
    multipath_exchange,
    security_oracle,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AUDIT_FAILED = 3

# the safe loader over libyaml's C parser reads a config about six times
# faster than the pure-Python one; PyYAML builds without libyaml lack it
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class _Config:
    """A YAML config, every section checked once, at load, with the flags

    that override it applied. ``doc`` is the mapping as read, which
    ``--dump-config`` echoes. A key that is absent or null takes its
    default; any other value must have the documented shape.
    """

    doc: dict[str, Any]
    network: Network
    seed: int
    kind: str
    n_bits: int
    scheme: Scheme | None
    attack: AttackSet
    commodities: dict[tuple[str, str], Utility]
    schedule: dict[str, Any]


def _label(value: Any, what: str) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ConfigError(f"{what} must be a node label, got {value!r}")
    return str(value)


def _split_attack(text: str) -> list[str]:
    """The labels of a comma separated attack, as ``--attack`` and
    ``security.attack`` take it: empty parts are dropped."""
    return [s for s in text.split(",") if s]


def _labels(value: Any, what: str) -> list[str]:
    """A list of labels, or one string of comma separated labels as ``--path`` takes."""
    if isinstance(value, str):
        return value.split(",")
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a node label or a list of labels, got {value!r}")
    return [_label(v, what) for v in value]


def _flag_int(text: str, flag: str, base: int = 10) -> int:
    """``text``, a value of ``flag`` that argparse leaves as a string, as an integer."""
    try:
        return int(text, base)
    except ValueError:
        raise ConfigError(f"{flag} takes integers, got {text!r}") from None


def _number(value: Any, what: str, integer: bool = False) -> int | float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{what} is too large for a float, got an integer of {value.bit_length()} bits")
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    if integer and not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _shaped(doc: dict[str, Any], key: str, kind: type, what: str) -> Any:
    """``doc[key]``, an empty ``kind`` when absent or null, else it must be a ``kind``."""
    value = doc.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def _network(doc: dict[str, Any]) -> Network:
    raw_edges = _shaped(doc, "edges", list, "edges")
    if not raw_edges:
        raise ConfigError("config needs a non-empty 'edges' list")
    edges = []
    for item in raw_edges:
        if not isinstance(item, dict) or not {"id", "u", "v"} <= item.keys():
            raise ConfigError(f"edge entries need id/u/v: {item!r}")
        eid = _label(item["id"], "edge id")
        lp = None
        if "params" in item:
            p = item["params"]
            try:
                lp = LinkParams(
                    K=p["K"], P_max=p["P_max"], delta=p.get("delta", 1)
                )
            except (TypeError, KeyError, ValueError) as e:
                raise ConfigError(f"bad link params on edge {eid!r}: {e}") from e
        edges.append(Edge(eid, _label(item["u"], "edge u"), _label(item["v"], "edge v"), link_params=lp))
    nodes = {e.u for e in edges} | {e.v for e in edges}
    nodes.update(_label(v, "nodes entries") for v in _shaped(doc, "nodes", list, "nodes"))
    alice, bob = (None if doc.get(k) is None else _label(doc[k], k) for k in ("alice", "bob"))
    return Network(nodes=tuple(nodes), edges=tuple(edges), alice=alice, bob=bob)


def _commodities(raw: list[Any]) -> dict[tuple[str, str], Utility]:
    out: dict[tuple[str, str], Utility] = {}
    for i, item in enumerate(raw):
        # named by position and pair, as an edge is by its id: an entry may be long
        what = f"schedule.commodities[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{what} must be a dict, got a {type(item).__name__}")
        for key in ("src", "dst"):
            if key not in item:
                raise ConfigError(f"{what} needs src and dst, has no {key!r}")
        pair = (_label(item["src"], f"{what} src"), _label(item["dst"], f"{what} dst"))
        try:
            utility = Utility(item.get("utility", "linear"), item.get("w", 1))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"{what} ({pair[0]}->{pair[1]}): {e}") from e
        if pair in out:
            raise ConfigError(f"duplicate commodity {pair[0]}->{pair[1]}")
        out[pair] = utility
    return out


def _load_config(args: argparse.Namespace) -> _Config:
    """Read ``args.config``, check every section, and apply the seed, attack and path flags."""
    try:
        with open(args.config) as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"malformed YAML: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config must be a YAML mapping")
    security = _shaped(doc, "security", dict, "security")
    schedule = _shaped(doc, "schedule", dict, "schedule")
    kind = "m0" if security.get("scheme") is None else security["scheme"]
    if kind not in ("m0", "multipath"):
        raise ConfigError(f"unknown scheme {kind!r} (expected m0 or multipath)")
    for key in ("V", "R_max", "T"):
        if schedule.get(key) is not None:
            _number(schedule[key], f"schedule.{key}", integer=key == "T")
    for v in _shaped(schedule, "V_values", list, "schedule.V_values"):
        _number(v, "schedule.V_values entries", integer=True)
    if schedule.get("tie_mode") not in (None, "random", "lexicographic"):
        raise ConfigError(f"schedule.tie_mode must be random or lexicographic, got {schedule['tie_mode']!r}")
    seed = 0 if doc.get("seed") is None else _number(doc["seed"], "seed", integer=True)
    n_bits = 16 if security.get("n_bits") is None else _number(security["n_bits"], "security.n_bits", integer=True)
    raw_attack = security.get("attack")
    if isinstance(raw_attack, str):
        labels = _split_attack(raw_attack)
    else:
        labels = [] if raw_attack is None else _labels(raw_attack, "security.attack")
    routes = [_labels(p, "security.paths entries") for p in _shaped(security, "paths", list, "security.paths")]
    if getattr(args, "attack", None):
        labels = _split_attack(",".join(args.attack))
    if getattr(args, "path", None):
        routes = [p.split(",") for p in args.path]

    network = _network(doc)
    attack = AttackSet(labels)
    attack.validate(network)
    scheme = Scheme.of(*routes) if routes else None
    if scheme is not None:
        scheme.validate(network)
    return _Config(
        doc=doc,
        network=network,
        seed=seed if args.seed is None else args.seed,
        kind=kind,
        n_bits=n_bits,
        scheme=scheme,
        attack=attack,
        commodities=_commodities(_shaped(schedule, "commodities", list, "schedule.commodities")),
        schedule=schedule,
    )


def _require_commodities(cfg: _Config) -> dict[tuple[str, str], Utility]:
    if not cfg.commodities:
        raise ConfigError("config needs schedule.commodities")
    return cfg.commodities


def _sched_value(cfg: _Config, args: argparse.Namespace, key: str, flag: str) -> int | float:
    override = getattr(args, flag, None)
    if override is not None:
        return override
    if cfg.schedule.get(key) is None:
        raise ConfigError(f"config needs schedule.{key} (or --{flag.replace('_', '-')})")
    return cfg.schedule[key]


def _fmt_nodes(nodes) -> str:
    return ",".join(sorted(nodes))


def _fmt_path(path) -> str:
    return "(" + ",".join(path.nodes) + ")"


def _cmd_assess(cfg: _Config, args: argparse.Namespace) -> int:
    g = cfg.network
    a, b = g.require_endpoints()
    attack = cfg.attack
    print(f"network: {len(g.nodes)} nodes, {len(g.edges)} edges, endpoints {a}-{b}")
    print(f"attack: {_fmt_nodes(attack) or '(none)'}")
    bad = insecure_edges(g, attack)
    print(f"insecure edges: {_fmt_nodes(bad) or '(none)'} ({len(bad)} of {len(g.edges)})")
    # the attack is strongest exactly when no alice-bob path avoids it
    path = find_secure_path(g, attack)
    if path is None:
        print("strongest attack: yes")
        print("communication impossible: every route touches the attack")
        print("secure path: none")
    else:
        print("strongest attack: no")
        print(f"secure path: {_fmt_path(path)}")
    if cfg.scheme is not None:
        # the GF(2) verdict, not the path hit count: routes may share edges
        print(f"scheme sec={int(security_oracle(g, cfg.scheme, attack) == PERFECTLY_SECRET)}")
    print(f"sec={int(path is not None)}")
    return EXIT_OK


def _cmd_attack(cfg: _Config, args: argparse.Namespace) -> int:
    g = cfg.network
    a, b = g.require_endpoints()
    try:
        attack = min_strongest_attack(g)
    except DirectLinkError:
        print(f"no strongest attack exists: {a} and {b} share a direct link")
        return EXIT_OK
    if not attack:
        print("strongest attack: (none)")
        print(f"{a} and {b} are already disconnected; sec=0 for every scheme")
        return EXIT_OK
    print(f"strongest attack: {_fmt_nodes(attack)} (size {len(attack)})")
    print(f"removing it disconnects {a} from {b}; sec=0 for every scheme")
    return EXIT_OK


def _cmd_exchange(cfg: _Config, args: argparse.Namespace) -> int:
    g = cfg.network
    g.require_endpoints()
    kind = args.scheme or cfg.kind
    if kind == "m0" and args.message is not None:
        raise ConfigError("--message applies to the multipath scheme only; the m0 key is the XOR of alice's edge keys")
    n_bits, source = (cfg.n_bits, "security.n_bits") if args.n_bits is None else (args.n_bits, "--n-bits")
    rng = Random(cfg.seed)
    try:
        keys = KeyAssignment.random(g, n_bits, rng)
    except ValueError as e:  # the key width, checked before any key is drawn
        raise ConfigError(f"{source}: {e}") from None
    if kind == "m0":
        transcript = m0_exchange(g, keys)
    else:
        scheme = cfg.scheme
        if scheme is None:
            raise ConfigError("multipath exchange needs security.paths (or --path)")
        if args.message is not None:
            message = _flag_int(args.message, "--message", 0)
        else:
            message = rng.getrandbits(n_bits)
        transcript = multipath_exchange(g, scheme, message, keys, rng)
    text = transcript.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"transcript written to {args.out}")
    else:
        sys.stdout.write(text)
    attack = cfg.attack
    if len(attack):
        view = transcript.eve_view(attack)
        print(f"attack: {_fmt_nodes(attack)} sees {len(view)} announcements/keys")
        verdict = security_oracle(g, transcript.scheme or "m0", attack)
        print(f"verdict: {verdict.replace('_', ' ')}")
    return EXIT_OK


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer``'s default dialect writes it in a row: quoted

    only if it holds a comma, a double quote or a line break.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow((text, ""))
    return buf.getvalue()[:-1]


class _CsvObserver:
    """Writes one row per queue and per edge each slot.

    Q and E are observed at slot start; R, S, P and the served columns are
    that slot's decision. served-b is the destination the edge served. Rows
    follow the config's queue keys and edge ids, which are sorted: nodes,
    destinations and edge ids all are. Labels are quoted once, each row is
    one f-string, and each slot's rows go to the file in one write, through
    the file's own buffer: a run that fails leaves every earlier slot on
    disk once the file is closed. The bytes are those ``csv.writer`` writes.
    """

    HEADER = ["slot", "entity-id", "Q", "E", "S", "P", "R", "served-b", "served-rate", "actual"]

    def __init__(self, fh, cfg) -> None:
        self.fh = fh
        fh.write(",".join(map(_csv_field, self.HEADER)) + "\r\n")
        # each label comes with the commas around it: the empty Q column
        # after an edge label included
        self.queues = [(key, f",{_csv_field(f'q:{key[0]}>{key[1]}')},") for key in cfg.queues]
        self.stores = [(eid, f",{_csv_field(f'e:{eid}')},,") for eid in cfg.eids]
        self.dests = {dest: _csv_field(dest) for dest in cfg.dests}

    def __call__(self, t: int, state: NetworkState, decision: StepDecision, audit: SlotAudit) -> None:
        Q, E = state.Q, state.E
        S, P, R, served, dests = decision.S, decision.P, decision.R, decision.served, self.dests
        slot = str(t)
        # only the admitted queues carry R
        rows = [f"{slot}{label}{Q[key]},,,,{R.get(key, '')},,,\r\n" for key, label in self.queues]
        for eid, label in self.stores:
            flow = served.get(eid)
            if flow is None:
                rows.append(f"{slot}{label}{E[eid]},{S[eid]},{P[eid]},,,,\r\n")
            else:
                rows.append(
                    f"{slot}{label}{E[eid]},{S[eid]},{P[eid]},,{dests[flow.dest]},{flow.nominal},{flow.actual}\r\n"
                )
        self.fh.write("".join(rows))


def _cmd_simulate(cfg: _Config, args: argparse.Namespace) -> int:
    commodities = _require_commodities(cfg)
    V = _sched_value(cfg, args, "V", "v")
    R_max = _sched_value(cfg, args, "R_max", "r_max")
    T = _sched_value(cfg, args, "T", "horizon")
    tie_mode = args.tie_mode or cfg.schedule.get("tie_mode") or "random"
    scenario = Scenario(ScheduleConfig.build(cfg.network, commodities, V, R_max, tie_mode), T, cfg.seed)

    with open(args.csv, "w", newline="") if args.csv else contextlib.nullcontext() as csv_fh:
        result = run(scenario, observer=None if csv_fh is None else _CsvObserver(csv_fh, scenario.config))

    print(f"slots: {T}  seed: {scenario.seed}  V: {V}")
    for pair in scenario.config.pairs:
        print(f"admitted {pair[0]}>{pair[1]}: {result.metrics.admitted_rate(pair):.4f} /slot (tail 80%)")
    for dest in scenario.config.dests:
        print(f"delivered {dest}: {result.metrics.delivered_rate(dest):.4f} /slot (tail 80%)")
    print(f"utility at tail rates: {result.metrics.utility_of_rates(commodities):.4f}")
    print(f"max total backlog: {result.metrics.max_backlog():.0f}")
    checked = "held on all slots" if result.bounds_checked else "not certified"
    print(f"per-queue bound {scenario.config.queue_bound}: {checked}")
    print(f"drift audit: {'ok on all slots' if result.drift_ok else 'FAILED'}")
    print(f"key availability: {'ok on all slots' if result.availability_ok else 'FAILED'}")
    if args.csv:
        print(f"per-slot CSV written to {args.csv}")
    if not (result.drift_ok and result.availability_ok):
        return EXIT_AUDIT_FAILED
    return EXIT_OK


def _cmd_sweep(cfg: _Config, args: argparse.Namespace) -> int:
    commodities = _require_commodities(cfg)
    R_max = _sched_value(cfg, args, "R_max", "r_max")
    T = _sched_value(cfg, args, "T", "horizon")
    if args.v_values:
        v_values = [_flag_int(s, "--v-values") for s in args.v_values.split(",")]
    else:
        v_values = cfg.schedule.get("V_values")
        if not v_values:
            raise ConfigError("sweep needs --v-values or schedule.V_values")
    seeds = [_flag_int(s, "--seeds") for s in args.seeds.split(",")] if args.seeds else [cfg.seed]
    tie_mode = args.tie_mode or cfg.schedule.get("tie_mode") or "random"
    try:
        rows = v_sweep(cfg.network, commodities, R_max, T, v_values, seeds, tie_mode)
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


def _cmd_oracle(cfg: _Config, args: argparse.Namespace) -> int:
    commodities = _require_commodities(cfg)
    R_max = _sched_value(cfg, args, "R_max", "r_max")
    try:
        res = oracle_optimal(cfg.network, commodities, R_max)
    except RuntimeError as e:
        print(f"oracle failure: {e}", file=sys.stderr)
        return EXIT_AUDIT_FAILED
    print(f"U*={res.value:g}")
    for pair, rate in sorted(res.rates.items()):
        print(f"r {pair[0]}>{pair[1]} = {rate:g}")
    print(f"upper bound: {res.upper:g}")
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qkdnet",
        description="Security assessment and key-aware scheduling for trusted-relay networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="YAML network config")
        p.add_argument(
            "--dump-config", action="store_true", help="print the config as read, without the flag overrides, and exit"
        )
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
        cfg = _load_config(args)
        if args.dump_config:
            sys.stdout.write(yaml.safe_dump(cfg.doc, sort_keys=True, default_flow_style=False))
            return EXIT_OK
        return args.func(cfg, args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
