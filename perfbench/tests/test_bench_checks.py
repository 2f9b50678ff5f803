"""Each output check must reject a corrupted answer, so that the benchmark's

failure count counts real failures. Run with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import io
from contextlib import redirect_stdout
from random import Random

import pytest

import checks
import workloads
from worker import _direct, attack_op


@pytest.fixture(scope="module")
def attack():
    rng = Random(3)
    g = workloads.relay_graph(rng, 30)
    from qkdnet import KeyAssignment

    keys = KeyAssignment.random(g, 64, rng)
    return g, attack_op(_direct, g, keys, rng.getrandbits(64), 5)


def test_attack_answers_pass(attack):
    g, out = attack
    assert checks.check_attack_op(g, out) == []


def test_cut_missing_one_node_is_rejected(attack):
    g, out = attack
    bad = dict(out, cut=frozenset(sorted(out["cut"])[1:]))
    fails = checks.check_attack_op(g, bad)
    assert any("Menger" in f for f in fails)
    assert any("does not separate" in f for f in fails)


def test_flipped_strongest_flag_is_rejected(attack):
    g, out = attack
    assert checks.check_attack_op(g, dict(out, strongest_reduced=True))
    assert checks.check_attack_op(g, dict(out, strongest_cut=False))


@pytest.mark.parametrize("kind", ["m0", "multipath"])
def test_unequal_exchange_keys_are_rejected(attack, kind):
    g, out = attack
    tr = out[kind]
    bad = dict(out, **{kind: dataclasses.replace(tr, bob_key=tr.bob_key ^ 1)})
    assert any("alice_key != bob_key" in f for f in checks.check_attack_op(g, bad))


def test_view_missing_a_key_is_rejected(attack):
    g, out = attack
    view = dict(out["view_m0"])
    view.pop(next(k for k in view if k.startswith("key:")))
    assert checks.check_attack_op(g, dict(out, view_m0=view))


@pytest.mark.parametrize("width,kind", [(14, "m0"), (14, "multipath"), (15, "m0")])
def test_flipped_verdict_is_rejected(width, kind):
    from qkdnet import security_oracle

    for seed in range(4):
        g, scheme, attack = workloads.verdict_instance(Random(seed), width, kind)
        verdict = security_oracle(g, scheme, attack)
        assert checks.check_verdict(verdict, g, scheme, attack) == []
        flipped = checks.BROKEN if verdict == checks.PERFECTLY_SECRET else checks.PERFECTLY_SECRET
        assert checks.check_verdict(flipped, g, scheme, attack)


@pytest.fixture(scope="module")
def cli_call(tmp_path_factory):
    from qkdnet import cli

    work = tmp_path_factory.mktemp("demo7")
    (work / "demo7.yaml").write_text(workloads.demo7_yaml(1, 300))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["simulate", str(work / "demo7.yaml"), "--csv", str(work / "t.csv")])
    return code, out.getvalue(), (work / "t.csv").read_bytes()


def _check_cli(code, stdout, data):
    return checks.check_simulate_cli(code, stdout, data, 300, 30, ["a", "b", "c2"])[0]


def test_cli_call_passes(cli_call):
    assert _check_cli(*cli_call) == []


@pytest.mark.parametrize("line,false", [
    ("drift audit: ok on all slots", "drift audit: FAILED"),
    ("key availability: ok on all slots", "key availability: FAILED"),
    ("per-queue bound 206: held on all slots", "per-queue bound 206: not certified"),
])
def test_false_audit_flag_is_rejected(cli_call, line, false):
    code, stdout, data = cli_call
    assert line in stdout
    assert _check_cli(code, stdout.replace(line, false), data)


def test_failing_exit_code_is_rejected(cli_call):
    code, stdout, data = cli_call
    assert any("exit code" in f for f in _check_cli(3, stdout, data))


def test_cli_short_or_fractional_csv_is_rejected(cli_call):
    code, stdout, data = cli_call
    assert any("rows" in f for f in _check_cli(code, stdout, data.rsplit(b"\n", 2)[0] + b"\n"))
    lines = data.decode().splitlines()
    f = lines[1].split(",")
    f[2] = f[2] + ".5"
    lines[1] = ",".join(f)
    assert any("non-integer" in f for f in _check_cli(code, stdout, ("\n".join(lines) + "\n").encode()))


def test_starved_destination_is_rejected():
    assert checks._starved({"a>b": 1.0}, {"b": 0.0, "c": 2.0})
    assert checks._starved({"a>b": 0.0}, {"b": 0.0})
    assert checks._starved({"a>b": 0.0, "c>d": 6.0}, {"b": 0.0, "d": 5.9}) == []


def test_altered_digest_is_rejected(cli_call):
    code, stdout, data = cli_call
    digest = checks.sha256(data)
    assert checks.check_digests_repeat([digest, digest]) == []
    altered = checks.sha256(data.replace(b",", b";", 1))
    assert altered != digest
    assert checks.check_digests_repeat([digest, altered])


def test_tracer_self_time_excludes_children():
    from tracing import Tracer

    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, range(10_000)))
    tot = tracer.totals()
    outer, inner = tot["outer"], tot["inner"]
    assert outer["calls"] == inner["calls"] == 1
    assert abs(outer["self"] + inner["total"] - outer["total"]) < 1e-9
    assert inner["self"] == inner["total"]


def test_bypassed_boundary_is_unmeasured_not_zero():
    from tracing import Tracer
    from worker import Demo7, _layer_metrics

    tracer = Tracer()
    # a CLI call whose harness loop never reached the wrapped step and audit
    tracer.call("cli.main", tracer.call, "harness.run", tracer.call, "cli.csv", lambda: None)
    res = {"op_s": [1.0], "base_s": [1.0], "stats": []}
    metrics, unmeasured = _layer_metrics("simulate-demo7", Demo7, tracer, res)
    assert unmeasured == ["scheduler.step", "scheduler.drift_audit"]
    assert "scheduler.step_us_per_slot" not in metrics
    assert "scheduler.drift_audit_us_per_slot" not in metrics
    assert "harness.self_us_per_slot" in metrics
