"""Command-line interface: subcommands, config handling, exit codes."""

import csv
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from qkdnet import cli
from qkdnet.graph_core import Network
from qkdnet.harness import Scenario, run
from qkdnet.scheduler import LinkParams, ScheduleConfig, StateInvariantError, Utility
from qkdnet.security import demo7_network

from helpers import ReferenceCsvObserver, grid_network, with_link_params


FIXTURE_YAML = """
alice: a
bob: b
seed: 7
edges:
  - {id: k1, u: a,  v: c1, params: {K: 4, P_max: 5}}
  - {id: k2, u: a,  v: c3, params: {K: 4, P_max: 5}}
  - {id: k3, u: c3, v: c4, params: {K: 4, P_max: 5}}
  - {id: k4, u: c1, v: c4, params: {K: 4, P_max: 5}}
  - {id: k5, u: c4, v: c5, params: {K: 4, P_max: 5}}
  - {id: k6, u: c1, v: c2, params: {K: 4, P_max: 5}}
  - {id: k7, u: c2, v: c5, params: {K: 4, P_max: 5}}
  - {id: k8, u: c5, v: b, params: {K: 4, P_max: 5}}
  - {id: k9, u: c2, v: b, params: {K: 4, P_max: 5}}
security:
  scheme: m0
  n_bits: 16
  paths:
    - [a, c1, c2, b]
    - [a, c3, c4, c5, b]
schedule:
  commodities:
    - {src: a, dst: b, utility: linear, w: 1}
  V: 100
  R_max: 6
  T: 1500
"""

DIAMOND_YAML = """
alice: a
bob: b
seed: 2
edges:
  - {id: e1, u: a,  v: m1, params: {K: 3, P_max: 3}}
  - {id: e2, u: m1, v: b,  params: {K: 3, P_max: 3}}
  - {id: e3, u: a,  v: m2, params: {K: 3, P_max: 3}}
  - {id: e4, u: m2, v: b,  params: {K: 3, P_max: 3}}
schedule:
  commodities:
    - {src: a, dst: b, utility: linear, w: 1}
  V: 100
  R_max: 8
  T: 2000
  V_values: [20, 100, 500]
"""


@pytest.fixture
def fixture_cfg(tmp_path):
    p = tmp_path / "fixture.yaml"
    p.write_text(FIXTURE_YAML)
    return str(p)


@pytest.fixture
def diamond_cfg(tmp_path):
    p = tmp_path / "diamond.yaml"
    p.write_text(DIAMOND_YAML)
    return str(p)


def test_assess_strongest_attack(fixture_cfg, capsys):
    assert cli.main(["assess", fixture_cfg, "--attack", "c1,c3"]) == 0
    out = capsys.readouterr().out
    assert "strongest attack: yes" in out
    assert "communication impossible" in out
    assert "insecure edges: k1,k2,k3,k4,k6 (5 of 9)" in out
    assert "sec=0" in out


def test_assess_survivable_attack(fixture_cfg, capsys):
    assert cli.main(["assess", fixture_cfg, "--attack", "c2,c3"]) == 0
    out = capsys.readouterr().out
    assert "strongest attack: no" in out
    assert "secure path: (a,c1,c4,c5,b)" in out
    assert "scheme sec=0" in out  # both configured routes are hit
    assert "sec=1" in out


def test_assess_empty_attack(fixture_cfg, capsys):
    assert cli.main(["assess", fixture_cfg]) == 0
    out = capsys.readouterr().out
    assert "attack: (none)" in out
    assert "sec=1" in out


def test_assess_unknown_attack_node(fixture_cfg, capsys):
    assert cli.main(["assess", fixture_cfg, "--attack", "zz"]) == 1
    assert "error:" in capsys.readouterr().err


def test_attack_subcommand(fixture_cfg, capsys):
    assert cli.main(["attack", fixture_cfg]) == 0
    out = capsys.readouterr().out
    assert "strongest attack: c1,c3 (size 2)" in out


DIRECT_YAML = (
    "alice: a\nbob: b\nedges:\n"
    "  - {id: e1, u: a, v: b}\n  - {id: e2, u: a, v: c}\n  - {id: e3, u: c, v: b}\n"
)


def test_attack_direct_link(tmp_path, capsys):
    p = tmp_path / "direct.yaml"
    p.write_text(DIRECT_YAML)
    assert cli.main(["attack", str(p)]) == 0
    assert "no strongest attack exists" in capsys.readouterr().out


def test_attack_on_disconnected_endpoints_removes_nothing(tmp_path, capsys):
    p = tmp_path / "apart.yaml"
    p.write_text("alice: a\nbob: b\nedges:\n  - {id: e1, u: a, v: c}\n  - {id: e2, u: d, v: b}\n")
    assert cli.main(["attack", str(p)]) == 0
    assert capsys.readouterr().out == (
        "strongest attack: (none)\n"
        "a and b are already disconnected; sec=0 for every scheme\n"
    )


def test_assess_direct_link_secure_path_is_the_link(tmp_path, capsys):
    p = tmp_path / "direct.yaml"
    p.write_text(DIRECT_YAML)
    assert cli.main(["assess", str(p), "--attack", "c"]) == 0
    out = capsys.readouterr().out
    assert "strongest attack: no\nsecure path: (a,b)\n" in out
    assert out.endswith("sec=1\n")


def test_assess_finds_a_path_longer_than_the_recursion_limit(tmp_path, capsys):
    """On a 40x40 grid the lexicographically least path snakes through
    1,561 of the 1,600 nodes, deeper than Python's default recursion limit."""
    g = grid_network(40)
    doc = {"alice": g.alice, "bob": g.bob, "edges": [{"id": e.id, "u": e.u, "v": e.v} for e in g.edges]}
    p = tmp_path / "grid.yaml"
    p.write_text(yaml.safe_dump(doc))
    assert cli.main(["assess", str(p)]) == 0
    out = capsys.readouterr().out
    path = out.split("secure path: (")[1].split(")")[0].split(",")
    assert (len(path), path[0], path[-1]) == (1561, "g0_0", "g39_39")
    assert out.endswith("sec=1\n")


def test_exchange_m0_deterministic(fixture_cfg, capsys):
    assert cli.main(["exchange", fixture_cfg, "--scheme", "m0"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["exchange", fixture_cfg, "--scheme", "m0"]) == 0
    assert capsys.readouterr().out == first
    doc = yaml.safe_load(first)
    assert doc["alice_key"] == doc["bob_key"]


def test_exchange_m0_verdicts(fixture_cfg, capsys):
    assert cli.main(["exchange", fixture_cfg, "--attack", "c1"]) == 0
    assert "verdict: perfectly secret" in capsys.readouterr().out
    assert cli.main(["exchange", fixture_cfg, "--attack", "c1,c3"]) == 0
    assert "verdict: broken" in capsys.readouterr().out


def test_exchange_verdict_on_routes_sharing_an_edge(fixture_cfg, capsys):
    # both routes leave alice over k1, so p0:k1 ^ p1:k1 is the message itself
    rc = cli.main(
        ["exchange", fixture_cfg, "--scheme", "multipath", "--path", "a,c1,c2,b",
         "--path", "a,c1,c4,c5,b", "--attack", "c3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    doc = yaml.safe_load(out.split("attack:")[0])
    ann = doc["announcements"]
    assert ann["p0:k1"] ^ ann["p1:k1"] == doc["alice_key"]
    assert "verdict: broken" in out


def test_exchange_zero_bits_is_an_error(fixture_cfg, capsys):
    assert cli.main(["exchange", fixture_cfg, "--n-bits", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert cli.main(["exchange", fixture_cfg, "--n-bits", "8"]) == 0
    assert "n_bits: 8\n" in capsys.readouterr().out


def test_exchange_multipath_to_file(fixture_cfg, tmp_path, capsys):
    out_file = tmp_path / "transcript.yaml"
    rc = cli.main(
        ["exchange", fixture_cfg, "--scheme", "multipath", "--message", "0xBEEF",
         "--out", str(out_file)]
    )
    assert rc == 0
    doc = yaml.safe_load(out_file.read_text())
    assert doc["scheme"] == "multipath"
    assert doc["alice_key"] == 0xBEEF and doc["bob_key"] == 0xBEEF


def test_exchange_m0_refuses_a_message(fixture_cfg, capsys):
    # the m0 key is the XOR of alice's edge keys: there is no message to send
    assert cli.main(["exchange", fixture_cfg, "--scheme", "m0", "--message", "0x5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--message" in captured.err


def test_exchange_multipath_needs_paths(tmp_path, capsys):
    p = tmp_path / "nopaths.yaml"
    p.write_text("alice: a\nbob: b\nedges:\n  - {id: e1, u: a, v: b}\n")
    assert cli.main(["exchange", str(p), "--scheme", "multipath"]) == 1
    assert "paths" in capsys.readouterr().err


def test_simulate_summary_and_csv(diamond_cfg, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert cli.main(["simulate", diamond_cfg, "--csv", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "drift audit: ok on all slots" in out
    assert "key availability: ok on all slots" in out
    assert "per-queue bound 108: held on all slots" in out
    with open(trace) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "slot", "entity-id", "Q", "E", "S", "P", "R", "served-b", "served-rate", "actual",
    ]
    # per slot: 4 tracked queues + 4 edges
    assert len(rows) == 1 + 2000 * 8
    first_edge = next(r for r in rows[1:] if r[1].startswith("e:"))
    assert first_edge[1] == "e:e1" and first_edge[3] == "0" and first_edge[4] == "1"


SIMULATE_SUMMARIES = {
    ("linear", None): (
        "slots: 2000  seed: 2  V: 100\n"
        "admitted a>b: 6.0000 /slot (tail 80%)\n"
        "delivered b: 6.0000 /slot (tail 80%)\n"
        "utility at tail rates: 6.0000\n"
        "max total backlog: 170\n"
        "per-queue bound 108: held on all slots\n"
    ),
    ("linear", "137"): (
        "slots: 137  seed: 2  V: 100\n"
        "admitted a>b: 5.8909 /slot (tail 80%)\n"
        "delivered b: 5.8364 /slot (tail 80%)\n"
        "utility at tail rates: 5.8909\n"
        "max total backlog: 170\n"
        "per-queue bound 108: held on all slots\n"
    ),
    ("log1p", None): (
        "slots: 2000  seed: 2  V: 100\n"
        "admitted a>b: 3.0000 /slot (tail 80%)\n"
        "delivered b: 3.0000 /slot (tail 80%)\n"
        "utility at tail rates: 1.3863\n"
        "max total backlog: 68\n"
        "per-queue bound 108.0: held on all slots\n"
    ),
    ("log1p", "137"): (
        "slots: 137  seed: 2  V: 100\n"
        "admitted a>b: 2.7393 /slot (tail 80%)\n"
        "delivered b: 2.7818 /slot (tail 80%)\n"
        "utility at tail rates: 1.3189\n"
        "max total backlog: 68\n"
        "per-queue bound 108.0: held on all slots\n"
    ),
}


@pytest.mark.parametrize("kind,horizon", SIMULATE_SUMMARIES, ids=lambda v: str(v))
def test_simulate_prints_the_pinned_summary(tmp_path, capsys, kind, horizon):
    """The printed rates, utility and backlog of the diamond config and its

    log1p twin, digit for digit, over the config's horizon and a short one.
    """
    p = tmp_path / f"diamond-{kind}.yaml"
    p.write_text(DIAMOND_YAML.replace("utility: linear", f"utility: {kind}"))
    argv = ["simulate", str(p)] + (["--horizon", horizon] if horizon else [])
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (
        SIMULATE_SUMMARIES[kind, horizon]
        + "drift audit: ok on all slots\nkey availability: ok on all slots\n"
    )


def test_simulate_overrides(diamond_cfg, capsys):
    assert cli.main(["simulate", diamond_cfg, "--horizon", "50", "--v", "40", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "slots: 50" in out and "V: 40" in out and "seed: 9" in out


def test_simulate_audit_failure_exit_code(diamond_cfg, capsys, monkeypatch):
    import qkdnet.cli as cli_mod

    real_run = cli_mod.run

    def fake_run(scenario, inject=None, observer=None):
        result = real_run(scenario, inject=inject, observer=observer)
        object.__setattr__(result, "drift_ok", False)
        return result

    monkeypatch.setattr(cli_mod, "run", fake_run)
    assert cli_mod.main(["simulate", diamond_cfg, "--horizon", "20"]) == 3
    assert "drift audit: FAILED" in capsys.readouterr().out


def test_oracle_lp_failure_exits_3(diamond_cfg, capsys, monkeypatch):
    def failing(*args):
        raise RuntimeError("oracle LP failed: injected by the test")

    monkeypatch.setattr(cli, "oracle_optimal", failing)
    assert cli.main(["oracle", diamond_cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "oracle failure: oracle LP failed: injected by the test\n"


def test_oracle_subcommand(diamond_cfg, capsys):
    assert cli.main(["oracle", diamond_cfg]) == 0
    out = capsys.readouterr().out
    assert "U*=6" in out
    assert "r a>b = 6" in out
    assert "upper bound: 6" in out


def test_oracle_solves_fixture(fixture_cfg, capsys):
    assert cli.main(["oracle", fixture_cfg]) == 0
    assert "U*=6" in capsys.readouterr().out


@pytest.mark.parametrize("r_max", ["-1", "0"])
def test_oracle_non_positive_r_max_exits_1(fixture_cfg, capsys, r_max):
    assert cli.main(["oracle", fixture_cfg, "--r-max", r_max]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "R_max must be positive" in captured.err


def test_oracle_identity_rate_link_carries_key_rate(tmp_path, capsys):
    # delta does not raise a one-time-pad link's capacity above K per slot
    p = tmp_path / "path.yaml"
    p.write_text(
        "alice: a\nbob: b\nedges:\n"
        "  - {id: e1, u: a, v: m, params: {K: 3, P_max: 5, delta: 2}}\n"
        "  - {id: e2, u: m, v: b, params: {K: 3, P_max: 5, delta: 2}}\n"
        "schedule:\n  commodities: [{src: a, dst: b}]\n  R_max: 10\n"
    )
    assert cli.main(["oracle", str(p)]) == 0
    assert "U*=3\n" in capsys.readouterr().out


def test_sweep_pass(diamond_cfg, capsys):
    assert cli.main(["sweep", diamond_cfg, "--horizon", "8000", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "oracle U*=6" in out
    assert out.strip().endswith("PASS")


def test_sweep_audit_failure_exits_3(diamond_cfg, capsys, monkeypatch):
    def failing(*args):
        raise RuntimeError("audit failed during sweep at V=20 seed=2")

    monkeypatch.setattr(cli, "v_sweep", failing)
    assert cli.main(["sweep", diamond_cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "audit failure: audit failed during sweep at V=20 seed=2\n"


def test_sweep_checks_every_v_before_solving(diamond_cfg, capsys, monkeypatch):
    from qkdnet import harness

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(harness, "oracle_optimal", counted("oracle", harness.oracle_optimal))
    monkeypatch.setattr(harness, "run", counted("run", harness.run))
    assert cli.main(["sweep", diamond_cfg, "--v-values", "20,100,500,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "V must be positive and finite, got 0" in captured.err
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["assess", "fixture.yaml", "--attack", "zz,yy,xx"],
        ["assess", "fixture.yaml", "--attack", "c1,c3"],
        ["attack", "fixture.yaml"],
        ["exchange", "fixture.yaml", "--scheme", "m0"],
        ["exchange", "fixture.yaml", "--scheme", "multipath", "--attack", "c1"],
        ["simulate", "fixture.yaml", "--horizon", "300", "--csv", "trace.csv"],
        ["sweep", "diamond.yaml", "--horizon", "300"],
        ["oracle", "fixture.yaml"],
    ],
    ids=["assess-unknown", "assess", "attack", "exchange-m0", "exchange-multipath", "simulate", "sweep", "oracle"],
)
def test_output_does_not_follow_the_string_hash_seed(tmp_path, argv):
    """``python -m qkdnet.cli`` prints, exits and writes its CSV alike under

    two string hash seeds: set iteration order never reaches the output.
    """
    (tmp_path / "fixture.yaml").write_text(FIXTURE_YAML)
    (tmp_path / "diamond.yaml").write_text(DIAMOND_YAML)
    trace = tmp_path / "trace.csv"
    src = Path(__file__).resolve().parents[1] / "src"
    seen = []
    for hash_seed in ("1", "2"):
        trace.unlink(missing_ok=True)
        out = subprocess.run(
            [sys.executable, "-m", "qkdnet.cli", *argv],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
        )
        seen.append((out.returncode, out.stdout, out.stderr, trace.read_bytes() if trace.exists() else None))
    assert seen[0] == seen[1]


def _csv_bytes(observer_factory, scenario):
    fh = io.StringIO(newline="")
    run(scenario, observer=observer_factory(fh))
    return fh.getvalue().encode()


@pytest.mark.parametrize("kind", ["linear", "log1p"])
def test_csv_writer_bytes_equal_the_reference_writer(kind):
    """The pre-labelled writer against the row-by-row one, on the C05

    fixture (integer) and on the same network with log1p utilities (float).
    """
    K = {"k1": 4, "k2": 3, "k3": 5, "k4": 2, "k5": 4, "k6": 3, "k7": 2, "k8": 5, "k9": 4}
    net = with_link_params(demo7_network(), {eid: LinkParams(K=k, P_max=5) for eid, k in K.items()})
    commodities = {
        ("a", "b"): Utility(kind, 1),
        ("c3", "c2"): Utility(kind, 2),
        ("c5", "a"): Utility(kind, 1),
    }
    scenario = Scenario(ScheduleConfig.build(net, commodities, V=100, R_max=6), T=3000, seed=11)
    got = _csv_bytes(lambda fh: cli._CsvObserver(fh, scenario.config), scenario)
    want = _csv_bytes(ReferenceCsvObserver, scenario)
    assert got == want
    assert got.count(b"\r\n") == 1 + 3000 * (7 * 3 + 9)
    assert (b"." in got) == (kind == "log1p")


def test_csv_writer_quotes_labels_like_the_reference_writer():
    """Node and edge labels holding a comma or a double quote are quoted, and

    quotes doubled, exactly as ``csv.writer`` does: in the entity ids and in
    the served destination.
    """
    net = Network.from_links(
        [("e,1", "a", 'm"1'), ('e"2', 'm"1', "b,x"), ("e3", "a", "m,2"), ("e4", "m,2", "b,x")],
        alice="a",
        bob="b,x",
    )
    net = with_link_params(net, LinkParams(K=3, P_max=3))
    commodities = {("a", "b,x"): Utility("linear", 1), ('m"1', "a"): Utility("linear", 1)}
    scenario = Scenario(ScheduleConfig.build(net, commodities, V=60, R_max=8), T=1500, seed=3)
    got = _csv_bytes(lambda fh: cli._CsvObserver(fh, scenario.config), scenario)
    assert got == _csv_bytes(ReferenceCsvObserver, scenario)
    for quoted in (b'"e:e,1"', b'"e:e""2"', b'"q:m""1>a"', b'"q:m,2>b,x"', b',"b,x",'):
        assert quoted in got, quoted


def test_simulate_zero_horizon_writes_the_header_only(diamond_cfg, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert cli.main(["simulate", diamond_cfg, "--horizon", "0", "--csv", str(trace)]) == 0
    assert "slots: 0" in capsys.readouterr().out
    assert trace.read_bytes() == b"slot,entity-id,Q,E,S,P,R,served-b,served-rate,actual\r\n"


def test_simulate_csv_holds_every_slot_before_a_failure(diamond_cfg, tmp_path, monkeypatch):
    """A run that raises mid-horizon still leaves each slot observed before

    the failure on disk: the same bytes the reference writer gives for a
    run that stops there.
    """
    from qkdnet import harness

    fail_at = 700
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    writer = cli._CsvObserver
    monkeypatch.setattr(cli, "_CsvObserver", lambda fh, cfg: ReferenceCsvObserver(fh))
    assert cli.main(["simulate", diamond_cfg, "--horizon", str(fail_at), "--csv", str(want)]) == 0
    monkeypatch.setattr(cli, "_CsvObserver", writer)

    real_step = harness.step

    def failing_step(state, cfg, rng, decision=None):
        if state.t == fail_at:
            raise StateInvariantError("failure injected by the test")
        return real_step(state, cfg, rng, decision=decision)

    monkeypatch.setattr(harness, "step", failing_step)
    with pytest.raises(StateInvariantError, match="injected by the test"):
        cli.main(["simulate", diamond_cfg, "--csv", str(got)])
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().count(b"\r\n") == 1 + fail_at * 8


def test_dump_config_round_trips(fixture_cfg, capsys):
    assert cli.main(["simulate", fixture_cfg, "--dump-config"]) == 0
    first = capsys.readouterr().out
    reparsed = yaml.safe_load(first)
    assert reparsed == yaml.safe_load(FIXTURE_YAML)
    assert yaml.safe_dump(reparsed, sort_keys=True, default_flow_style=False) == first


def test_dump_config_prints_the_file_without_the_flag_overrides(fixture_cfg, capsys):
    """``--seed`` and ``--v`` change the run, not the dump, and the help says so."""
    assert cli.main(["simulate", fixture_cfg, "--seed", "99", "--v", "20", "--dump-config"]) == 0
    out = capsys.readouterr().out
    assert "seed: 7\n" in out and "  V: 100\n" in out
    assert yaml.safe_load(out) == yaml.safe_load(FIXTURE_YAML)
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "print the config as read, without the flag overrides, and exit" in help_text


def test_missing_config_file(capsys):
    assert cli.main(["assess", "/nonexistent/x.yaml"]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_yaml(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("edges: [:::")
    assert cli.main(["assess", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_that_is_a_list_exits_1(tmp_path, capsys):
    p = tmp_path / "list.yaml"
    p.write_text("- {id: e1, u: a, v: b}\n")
    assert cli.main(["assess", str(p)]) == 1
    assert capsys.readouterr().err == "error: config must be a YAML mapping\n"


def test_config_without_edges(tmp_path, capsys):
    p = tmp_path / "empty.yaml"
    p.write_text("alice: a\nbob: b\n")
    assert cli.main(["assess", str(p)]) == 1
    assert "edges" in capsys.readouterr().err


def test_config_missing_endpoints(tmp_path, capsys):
    p = tmp_path / "noends.yaml"
    p.write_text("edges:\n  - {id: e1, u: a, v: b}\n")
    assert cli.main(["attack", str(p)]) == 1
    assert "alice" in capsys.readouterr().err


@pytest.mark.parametrize("end", ["alice: a", "bob: b"])
@pytest.mark.parametrize("command", ["attack", "assess", "exchange"])
def test_config_with_one_endpoint_exits_1(tmp_path, capsys, command, end):
    p = tmp_path / "oneend.yaml"
    p.write_text(f"{end}\nedges:\n  - {{id: e1, u: a, v: c}}\n  - {{id: e2, u: c, v: b}}\n")
    assert cli.main([command, str(p)]) == 1
    assert "no designated alice/bob endpoints" in capsys.readouterr().err


def test_simulate_requires_schedule(tmp_path, capsys):
    p = tmp_path / "nosched.yaml"
    p.write_text("alice: a\nbob: b\nedges:\n  - {id: e1, u: a, v: b, params: {K: 2, P_max: 2}}\n")
    assert cli.main(["simulate", str(p)]) == 1
    assert "commodities" in capsys.readouterr().err


def _fixture_set(tmp_path, dotted, value):
    """The fixture config with the (possibly nested) key ``dotted`` set to ``value``."""
    doc = yaml.safe_load(FIXTURE_YAML)
    *parents, key = dotted.split(".")
    node = doc
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[key] = value
    p = tmp_path / "edited.yaml"
    p.write_text(yaml.safe_dump(doc))
    return str(p)


@pytest.mark.parametrize("key", ["V", "R_max", "T"])
@pytest.mark.parametrize("value", ["abc", True, [1], float("inf")])
def test_simulate_rejects_non_numeric_schedule_value(tmp_path, capsys, key, value):
    cfg = _fixture_set(tmp_path, f"schedule.{key}", value)
    assert cli.main(["simulate", cfg]) == 1
    assert f"schedule.{key} must be a finite number" in capsys.readouterr().err


def test_scalar_config_attack_is_one_label(tmp_path, capsys):
    cfg = _fixture_set(tmp_path, "security.attack", "c1")
    assert cli.main(["assess", cfg]) == 0
    assert "attack: c1\n" in capsys.readouterr().out


def test_config_attack_string_is_split_like_the_flag(fixture_cfg, tmp_path, capsys):
    cfg = _fixture_set(tmp_path, "security.attack", "c1,")
    assert cli.main(["assess", cfg]) == 0
    from_config = capsys.readouterr().out
    assert cli.main(["assess", fixture_cfg, "--attack", "c1,"]) == 0
    assert "attack: c1\n" in from_config and capsys.readouterr().out == from_config


@pytest.mark.parametrize("value", [5, {"c1": 1}])
def test_non_list_config_attack_is_rejected(tmp_path, capsys, value):
    cfg = _fixture_set(tmp_path, "security.attack", value)
    assert cli.main(["assess", cfg]) == 1
    assert "security.attack must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dotted,value,command,message",
    [
        ("security", 5, "assess", "security must be a dict"),
        ("schedule", 5, "simulate", "schedule must be a dict"),
        ("security.paths", 5, "assess", "security.paths must be a list"),
        ("security.paths", [5], "assess", "security.paths entries must be"),
        ("schedule.commodities", 5, "simulate", "schedule.commodities must be a list"),
        ("schedule.V_values", 5, "sweep", "schedule.V_values must be a list"),
        ("schedule.V_values", [20, 2.5], "sweep", "schedule.V_values entries must be an integer"),
        ("schedule.T", 2.5, "simulate", "schedule.T must be an integer"),
        ("edges", 5, "attack", "edges must be a list"),
        ("nodes", 5, "attack", "nodes must be a list"),
        ("seed", [1], "exchange", "seed must be a finite number"),
        ("alice", ["a"], "assess", "alice must be a node label"),
        ("security.n_bits", [16], "exchange", "security.n_bits must be a finite number"),
        ("security.scheme", "m1", "exchange", "unknown scheme 'm1'"),
        ("schedule.tie_mode", 5, "simulate", "schedule.tie_mode must be"),
        ("edges.0.params.K", math.nan, "simulate", "K, P_max and delta must be finite"),
        ("edges.0.params.K", math.inf, "simulate", "K, P_max and delta must be finite"),
        ("edges.0.params.P_max", math.inf, "simulate", "K, P_max and delta must be finite"),
        ("edges.0.params.delta", math.nan, "simulate", "K, P_max and delta must be finite"),
        ("edges.0.params.K", True, "simulate", "on edge 'k1': K must be a number"),
        ("schedule.commodities.0.w", math.nan, "simulate", "weight must be positive and finite"),
        ("schedule.commodities.0.w", math.inf, "oracle", "weight must be positive and finite"),
        ("schedule.commodities.0.w", True, "oracle", "weight must be a number"),
        ("edges.0.params.K", "4", "simulate", "on edge 'k1': K must be a number, got '4'"),
        ("edges.0.params.delta", None, "simulate", "on edge 'k1': delta must be a number, got None"),
        ("schedule.commodities.0.w", "1", "simulate", "utility weight must be a number, got '1'"),
        ("schedule.V", None, "simulate", "config needs schedule.V (or --v)"),
        ("schedule.V_values", [], "sweep", "sweep needs --v-values or schedule.V_values"),
        ("edges", [{"id": "k1", "u": "a"}], "attack", "edge entries need id/u/v"),
        ("schedule.commodities", [{"src": "a", "dst": "b"}] * 2, "simulate", "duplicate commodity a->b"),
        ("security.attack", "a", "assess", "cannot remove an endpoint: 'a'"),
    ],
)
def test_malformed_config_shape_exits_1(tmp_path, capsys, dotted, value, command, message):
    cfg = _fixture_set(tmp_path, dotted, value)
    assert cli.main([command, cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "argv,flag,value",
    [
        (["sweep", "--v-values", "20,2.5"], "--v-values", "'2.5'"),
        (["sweep", "--seeds", "1,x"], "--seeds", "'x'"),
        (["exchange", "--scheme", "multipath", "--message", "zz"], "--message", "'zz'"),
    ],
    ids=["v-values", "seeds", "message"],
)
def test_bad_integer_flag_value_names_the_flag(fixture_cfg, diamond_cfg, capsys, argv, flag, value):
    cfg = diamond_cfg if argv[0] == "sweep" else fixture_cfg
    assert cli.main([argv[0], cfg, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err and value in err


HUGE = 10**400  # past the largest float


@pytest.mark.parametrize(
    "dotted,value,argv,named",
    [
        ("seed", HUGE, ["simulate"], "seed is too large"),
        ("schedule.V", HUGE, ["simulate"], "schedule.V is too large"),
        ("edges.0.params.K", HUGE, ["simulate"], "on edge 'k1': K is too large"),
        ("schedule.commodities.0.w", HUGE, ["oracle"], "utility weight is too large"),
        ("schedule.T", HUGE, ["assess"], "schedule.T is too large"),
        ("security.n_bits", 10**20, ["exchange"], "security.n_bits: keys take at most"),
        (None, None, ["exchange", "--n-bits", str(10**20)], "--n-bits: keys take at most"),
        (None, None, ["exchange", "--n-bits", "-3"], "--n-bits: keys need at least one bit"),
    ],
    ids=["seed", "V", "K", "w", "T", "n_bits", "n-bits-flag", "n-bits-negative"],
)
def test_out_of_range_integer_names_its_key(fixture_cfg, tmp_path, capsys, dotted, value, argv, named):
    cfg = fixture_cfg if dotted is None else _fixture_set(tmp_path, dotted, value)
    assert cli.main([argv[0], cfg, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and named in captured.err


@pytest.mark.parametrize(
    "entry,named",
    [
        ({"src": "a", "dst": "b", "w": HUGE}, "schedule.commodities[0] (a->b): utility weight is too large"),
        ({"src": "a"}, "schedule.commodities[0] needs src and dst, has no 'dst'"),
        ({"dst": "b"}, "schedule.commodities[0] needs src and dst, has no 'src'"),
        ("a>b", "schedule.commodities[0] must be a dict, got a str"),
    ],
    ids=["huge-w", "no-dst", "no-src", "not-a-dict"],
)
def test_bad_commodity_names_its_position_and_pair(tmp_path, capsys, entry, named):
    cfg = _fixture_set(tmp_path, "schedule.commodities", [entry])
    assert cli.main(["simulate", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and len(err) < 120  # not the 400 digits


def test_string_config_path_is_a_comma_separated_route(tmp_path, capsys):
    cfg = _fixture_set(tmp_path, "security.paths", ["a,c1,c2,b", "a,c3,c4,c5,b"])
    assert cli.main(["assess", cfg, "--attack", "c2"]) == 0
    assert "scheme sec=1" in capsys.readouterr().out  # the route through c3 stays unseen


def test_assess_scheme_sec_follows_the_oracle_on_shared_edges(fixture_cfg, capsys):
    # both routes leave alice over k1, so the announcements alone reveal the
    # message; no route touches c3, which the hit-count rule would call secret
    rc = cli.main(
        ["assess", fixture_cfg, "--path", "a,c1,c2,b", "--path", "a,c1,c4,c5,b", "--attack", "c3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "scheme sec=0" in out
    assert out.endswith("sec=1\n")  # the attack itself is survivable


def _labels_ok(v):
    return isinstance(v, list) and all(isinstance(x, (str, int)) and not isinstance(x, bool) for x in v)


def _not_int(v):
    return v is not None and (isinstance(v, bool) or not isinstance(v, int))


def _not_finite_number(v):
    return v is not None and (
        isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)
    )


# per config key, the values that never have its documented shape (null means absent)
MALFORMED = {
    "security": lambda v: v is not None and not isinstance(v, dict),
    "schedule": lambda v: v is not None and not isinstance(v, dict),
    "edges": lambda v: not isinstance(v, list),
    "nodes": lambda v: v is not None and not _labels_ok(v),
    "seed": _not_int,
    "alice": lambda v: isinstance(v, (bool, float, list, dict)),
    "security.scheme": lambda v: v is not None and v not in ("m0", "multipath"),
    "security.n_bits": _not_int,
    "security.paths": lambda v: v is not None and v != [],
    "security.attack": lambda v: v is not None and not isinstance(v, str) and not _labels_ok(v),
    "schedule.commodities": lambda v: v is not None
    and not (isinstance(v, list) and any(isinstance(x, dict) for x in v)),
    "schedule.V": _not_finite_number,
    "schedule.R_max": _not_finite_number,
    "schedule.T": _not_int,
    "schedule.V_values": lambda v: v is not None
    and not (isinstance(v, list) and all(type(x) is int for x in v)),
    "schedule.tie_mode": lambda v: v is not None and v not in ("random", "lexicographic"),
}

_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(), st.text(max_size=4)
)
_YAML_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzzed_config_sections_exit_1_without_traceback(tmp_path_factory, data):
    dotted = data.draw(st.sampled_from(sorted(MALFORMED)))
    value = data.draw(_YAML_VALUES.filter(MALFORMED[dotted]))
    cfg = _fixture_set(tmp_path_factory.mktemp("fuzz"), dotted, value)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(["simulate", cfg, "--horizon", "3"])
    assert rc == 1, (dotted, value, out.getvalue())
    assert err.getvalue().startswith("error:")
