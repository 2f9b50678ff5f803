"""Command-line interface: subcommands, config handling, exit codes."""

import csv

import pytest
import yaml

from qkdnet import cli


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


def test_attack_direct_link(tmp_path, capsys):
    p = tmp_path / "direct.yaml"
    p.write_text(
        "alice: a\nbob: b\nedges:\n"
        "  - {id: e1, u: a, v: b}\n  - {id: e2, u: a, v: c}\n  - {id: e3, u: c, v: b}\n"
    )
    assert cli.main(["attack", str(p)]) == 0
    assert "no strongest attack exists" in capsys.readouterr().out


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


def test_oracle_subcommand(diamond_cfg, capsys):
    assert cli.main(["oracle", diamond_cfg]) == 0
    out = capsys.readouterr().out
    assert "U*=6" in out
    assert "r a>b = 6" in out
    assert "method: lp" in out


def test_oracle_refuses_fixture(fixture_cfg, capsys):
    assert cli.main(["oracle", fixture_cfg]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_pass(diamond_cfg, capsys):
    assert cli.main(["sweep", diamond_cfg, "--horizon", "8000", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "oracle U*=6" in out
    assert out.strip().endswith("PASS")


def test_dump_config_round_trips(fixture_cfg, capsys):
    assert cli.main(["simulate", fixture_cfg, "--dump-config"]) == 0
    first = capsys.readouterr().out
    reparsed = yaml.safe_load(first)
    assert reparsed == yaml.safe_load(FIXTURE_YAML)
    assert yaml.safe_dump(reparsed, sort_keys=True, default_flow_style=False) == first


def test_missing_config_file(capsys):
    assert cli.main(["assess", "/nonexistent/x.yaml"]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_yaml(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("edges: [:::")
    assert cli.main(["assess", str(p)]) == 1
    assert "error:" in capsys.readouterr().err


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


def test_simulate_requires_schedule(tmp_path, capsys):
    p = tmp_path / "nosched.yaml"
    p.write_text("alice: a\nbob: b\nedges:\n  - {id: e1, u: a, v: b, params: {K: 2, P_max: 2}}\n")
    assert cli.main(["simulate", str(p)]) == 1
    assert "commodities" in capsys.readouterr().err


def _fixture_with(tmp_path, section, key, value):
    doc = yaml.safe_load(FIXTURE_YAML)
    doc[section][key] = value
    p = tmp_path / "edited.yaml"
    p.write_text(yaml.safe_dump(doc))
    return str(p)


@pytest.mark.parametrize("key", ["V", "R_max", "T"])
@pytest.mark.parametrize("value", ["abc", True, [1], float("inf")])
def test_simulate_rejects_non_numeric_schedule_value(tmp_path, capsys, key, value):
    cfg = _fixture_with(tmp_path, "schedule", key, value)
    assert cli.main(["simulate", cfg]) == 1
    assert f"schedule.{key} must be a finite number" in capsys.readouterr().err


def test_scalar_config_attack_is_one_label(tmp_path, capsys):
    cfg = _fixture_with(tmp_path, "security", "attack", "c1")
    assert cli.main(["assess", cfg]) == 0
    assert "attack: c1\n" in capsys.readouterr().out


@pytest.mark.parametrize("value", [5, {"c1": 1}])
def test_non_list_config_attack_is_rejected(tmp_path, capsys, value):
    cfg = _fixture_with(tmp_path, "security", "attack", value)
    assert cli.main(["assess", cfg]) == 1
    assert "security.attack must be" in capsys.readouterr().err
