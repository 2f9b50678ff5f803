"""One workload in one fresh, single-threaded process.

Started by run.py as ``python3 perfbench/worker.py --workload W --seed N
--seconds S --trace 0|1 [--probe]`` from the root of a checkout, with the
checkout's ``src`` on PYTHONPATH. It imports the package, builds its inputs,
prints a ``ready`` line (run.py times process start to that line as the
set-up time), then measures for ``--seconds`` and prints one JSON line of
raw results. With ``--probe`` it exits after the ``ready`` line.

With ``--trace 1`` every input runs twice, first untraced and then with
spans around every layer boundary; the ratio of the two timings is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from random import Random
from time import perf_counter

import checks
from tracing import Tracer, patched

MIN_OPS = {"simulate-demo7": 3, "assess-attack": 100, "assess-verdict": 100}
DIGEST_OPS = 20  # assess digests cover this many leading ops, so they repeat per seed


def _timed_loop(seconds, min_ops, block, one_op):
    """Call ``one_op(i)`` until ``seconds`` have passed, ``min_ops`` ran and
    the op count is a whole number of input blocks (see workloads.strata)."""
    end = perf_counter() + seconds
    i = 0
    while i < min_ops or perf_counter() < end or i % block:
        one_op(i)
        i += 1


class Demo7:
    """simulate-demo7: the CLI ``simulate`` on the C05 fixture with a CSV."""

    unit = "slots"
    block = 1

    def __init__(self, seed: int, work: Path) -> None:
        import workloads

        self.T = self.op_units = workloads.DEMO7_T
        self.yaml = work / "demo7.yaml"
        self.yaml.write_text(workloads.demo7_yaml(seed, self.T))
        self.csv = work / "demo7.csv"
        self.dests = sorted({dst for _, dst, _ in workloads.DEMO7_COMMODITIES})
        self.rows_per_slot = 7 * len(self.dests) + len(workloads.DEMO7_K)

    def op(self, i, call):
        from qkdnet import cli

        out = io.StringIO()
        argv = ["simulate", str(self.yaml), "--csv", str(self.csv)]
        with redirect_stdout(out):
            start = perf_counter()
            code = call("cli.main", cli.main, argv)
            elapsed = perf_counter() - start
        data = self.csv.read_bytes()
        fails, stats = checks.check_simulate_cli(code, out.getvalue(), data, self.T, self.rows_per_slot, self.dests)
        return elapsed, "all", fails, checks.sha256(data), stats

    def trace_targets(self, tracer):
        from qkdnet import cli, harness

        original_run = cli.run

        def run(scenario, inject=None, observer=None):
            if observer is not None:
                observer = tracer.wrap("cli.csv", observer)
            return tracer.call("harness.run", original_run, scenario, inject, observer)

        return [(cli, "run", run), *_scheduler_targets(tracer, harness)]


def _scheduler_targets(tracer, harness):
    step, drift_audit = harness.step, harness.drift_audit
    counts = tracer.counts

    def counted_step(state, cfg, rng, decision=None):
        new_state, decision, audit = tracer.call("scheduler.step", step, state, cfg, rng, decision=decision)
        counts["slots"] += 1
        counts["served"] += len(decision.served)
        counts["keygen"] += sum(decision.S.values())
        counts["edge_slots"] += len(decision.S)
        for flow in decision.served.values():
            counts["nominal"] += flow.nominal
            counts["actual"] += flow.actual
        return new_state, decision, audit

    return [
        (harness, "step", counted_step),
        (harness, "drift_audit", tracer.wrap("scheduler.drift_audit", drift_audit)),
    ]


def attack_op(call, g, keys, message, share_seed):
    """One attack op: every answer the assess-attack checks look at."""
    from qkdnet import AttackSet, Scheme, graph_core, security

    out = {"message": message}
    cut = call("security.min_strongest_attack", security.min_strongest_attack, g)
    reduced = AttackSet(sorted(cut.nodes)[1:])
    out["cut"], out["reduced"] = cut.nodes, reduced.nodes
    out["strongest_cut"] = call("security.is_strongest", security.is_strongest, g, cut)
    out["strongest_reduced"] = call("security.is_strongest", security.is_strongest, g, reduced)
    path = call("security.find_secure_path", security.find_secure_path, g, reduced)
    out["path"] = path.nodes if path is not None else None
    paths = call("graph_core.max_disjoint_paths", graph_core.max_disjoint_paths, g, g.alice, g.bob)
    out["paths"] = tuple(p.nodes for p in paths)
    out["m0"] = call("security.m0_exchange", security.m0_exchange, g, keys)
    out["multipath"] = call(
        "security.multipath_exchange", security.multipath_exchange,
        g, Scheme(paths), message, keys, Random(share_seed),
    )
    out["view_m0"] = call("security.eve_view", out["m0"].eve_view, cut)
    out["view_multipath"] = call("security.eve_view", out["multipath"].eve_view, cut)
    return out


class Attack:
    """assess-attack: cut, strongest tests, secure path, disjoint paths and
    both exchanges on one sparse relay graph per op."""

    unit = "ops"
    op_units = 1

    def __init__(self, seed: int, work: Path) -> None:
        import workloads

        self.rng = Random(seed)
        self.sizes = workloads.strata(self.rng, workloads.ATTACK_NODES)
        self.block = len(workloads.ATTACK_NODES)
        self._i = None
        self.inputs(0)

    def inputs(self, i):
        import workloads
        from qkdnet import KeyAssignment

        if self._i != i:
            g = workloads.relay_graph(self.rng, next(self.sizes))
            keys = KeyAssignment.random(g, workloads.ATTACK_KEY_BITS, self.rng)
            message = self.rng.getrandbits(workloads.ATTACK_KEY_BITS)
            self._i, self._inputs = i, (g, keys, message, self.rng.getrandbits(64))
        return self._inputs

    def op(self, i, call):
        g, keys, message, share_seed = self.inputs(i)
        start = perf_counter()
        out = call("bench.op", attack_op, call, g, keys, message, share_seed)
        elapsed = perf_counter() - start
        return elapsed, len(g.nodes) - 2, checks.check_attack_op(g, out), checks.attack_record(out), None

    def trace_targets(self, tracer):
        from qkdnet import security

        return [
            (security, "min_vertex_cut", tracer.wrap("graph_core.min_vertex_cut", security.min_vertex_cut)),
            (security, "disconnects", tracer.wrap("graph_core.disconnects", security.disconnects)),
            (security, "enumerate_simple_paths",
             tracer.wrap_generator("graph_core.enumerate_simple_paths", security.enumerate_simple_paths)),
        ]


class Verdict:
    """assess-verdict: one ``security_oracle`` call per op on a dense
    6-7-node graph, m0 or multipath, random attack, 2^14-2^20 outcomes."""

    unit = "ops"
    op_units = 1

    def __init__(self, seed: int, work: Path) -> None:
        import workloads

        self.rng = Random(seed)
        self.cases = workloads.strata(self.rng, workloads.VERDICT_CASES)
        self.block = len(workloads.VERDICT_CASES)
        self._i = None
        self.inputs(0)
        self.peak_mb = 0.0
        self.outcomes = 0

    def inputs(self, i):
        import workloads

        if self._i != i:
            width, kind = next(self.cases)
            self._i, self._inputs = i, (*workloads.verdict_instance(self.rng, width, kind), width)
        return self._inputs

    def op(self, i, call):
        from qkdnet import security

        g, scheme, attack, width = self.inputs(i)
        traced = call is not _direct
        if traced:
            tracemalloc.start()
        start = perf_counter()
        verdict = call("security.security_oracle", security.security_oracle, g, scheme, attack)
        elapsed = perf_counter() - start
        if traced:
            self.peak_mb = max(self.peak_mb, tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()
            self.outcomes += 1 << width
        kind = "m0" if scheme == "m0" else "multipath"
        paths = scheme if scheme == "m0" else [p.nodes for p in scheme.paths]
        record = repr((sorted(e.id for e in g.edges), paths, sorted(attack), verdict))
        return elapsed, f"{kind}-2^{width}", checks.check_verdict(verdict, g, scheme, attack), record, None

    def trace_targets(self, tracer):
        return []


BOUNDARY_METRICS = {
    "cli.main": ["cli.self_ms"],
    "cli.csv": ["cli.csv_us_per_slot"],
    "harness.run": ["harness.self_us_per_slot"],
    "scheduler.step": ["scheduler.step_us_per_slot", "scheduler.served_per_slot",
                       "scheduler.keygen_duty", "scheduler.filler_ratio"],
    "scheduler.drift_audit": ["scheduler.drift_audit_us_per_slot"],
    "graph_core.min_vertex_cut": ["graph_core.min_vertex_cut_ms"],
    "graph_core.max_disjoint_paths": ["graph_core.max_disjoint_paths_ms"],
    "graph_core.disconnects": ["graph_core.disconnects_calls", "graph_core.disconnects_us"],
    "graph_core.enumerate_simple_paths": ["graph_core.enumerate_simple_paths_ms"],
    "security.m0_exchange": ["security.exchange_ms"],
    "security.multipath_exchange": ["security.exchange_ms"],
    "security.security_oracle": ["security.oracle_ms", "security.oracle_outcomes_per_s",
                                 "security.oracle_peak_mb"],
}
REACHES = {
    "simulate-demo7": ["cli.main", "cli.csv", "harness.run", "scheduler.step", "scheduler.drift_audit"],
    "assess-attack": ["graph_core.min_vertex_cut", "graph_core.max_disjoint_paths", "graph_core.disconnects",
                      "graph_core.enumerate_simple_paths", "security.m0_exchange", "security.multipath_exchange"],
    "assess-verdict": ["security.security_oracle"],
}
WORKLOADS = {"simulate-demo7": Demo7, "assess-attack": Attack, "assess-verdict": Verdict}


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _phase(w, seconds, min_ops, tracer=None):
    """Run ops until time, count and block are met; collect timings and checks.

    With a tracer every input runs twice, untraced and then traced, so the
    two timings compare like for like and the answers must agree.
    """
    res = {"op_s": [], "op_class": [], "base_s": [], "ops": 0, "op_units": w.op_units, "units": 0,
           "failed_units": 0, "failures": [], "stats": []}
    records = []
    targets = w.trace_targets(tracer) if tracer is not None else []

    def attempt(i, call):
        res["ops"] += 1
        res["units"] += w.op_units
        try:
            elapsed, cls, fails, record, stats = w.op(i, call)
        except Exception as e:  # an op that raises is a failed op, not a crashed benchmark
            fails, result = [f"{type(e).__name__}: {e}"], None
        else:
            result = elapsed, record, stats, cls
        if fails:
            res["failed_units"] += w.op_units
            res["failures"].extend(f"op {i}: {f}" for f in fails)
        return result

    def one(i):
        base = attempt(i, _direct)
        if base is None:
            return
        records.append(base[1])
        if tracer is None:
            done = base
        else:
            with patched(targets):
                done = attempt(i, tracer.call)
            if done is None:
                return
            if done[1] != base[1]:
                res["failures"].append(f"op {i}: traced answer differs from the untraced one")
            res["base_s"].append(base[0])
        res["op_s"].append(done[0])
        res["op_class"].append(done[3])
        if done[2]:
            res["stats"].append(done[2])

    _timed_loop(seconds, min_ops, w.block, one)
    if w.unit == "slots":
        # every call repeats one input, so every call must give one digest
        res["failures"] += checks.check_digests_repeat(records)
        res["digest"] = records[0] if records else ""
    else:
        res["digest"] = checks.sha256("\n".join(records[:DIGEST_OPS]).encode())
    if res["failures"] and not res["failed_units"]:
        res["failed_units"] = res["units"]
    return res


def _layer_metrics(workload, w, tracer, res):
    """Per-layer numbers from the traced ops, with their untraced twins as base."""
    tot = tracer.totals()
    counts = tracer.counts

    def total(name):
        return tot.get(name, {}).get("total", 0.0)

    def self_(name):
        return tot.get(name, {}).get("self", 0.0)

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def per(x, n, scale=1.0):
        return x * scale / n if n else 0.0

    n_ops = len(res["op_s"])
    slots = counts["slots"]
    attack = workload == "assess-attack"
    m = {
        "cli.self_ms": per(self_("cli.main"), calls("cli.main"), 1e3),
        "cli.csv_us_per_slot": per(self_("cli.csv"), slots, 1e6),
        "cli.csv_rows": per(sum(s.get("rows", 0) for s in res["stats"]), n_ops),
        "harness.self_us_per_slot": per(self_("harness.run"), slots, 1e6),
        "scheduler.step_us_per_slot": per(self_("scheduler.step"), slots, 1e6),
        "scheduler.drift_audit_us_per_slot": per(self_("scheduler.drift_audit"), slots, 1e6),
        "scheduler.served_per_slot": per(counts["served"], slots),
        "scheduler.keygen_duty": per(counts["keygen"], counts["edge_slots"]),
        "scheduler.filler_ratio": 1 - counts["actual"] / counts["nominal"] if counts["nominal"] else 0.0,
        "sim.utility_tail": per(sum(s["utility_tail"] for s in res["stats"]), len(res["stats"])),
        "sim.backlog_mean": per(sum(s["backlog_mean"] for s in res["stats"]), len(res["stats"])),
        "graph_core.min_vertex_cut_ms": per(
            total("graph_core.min_vertex_cut"), calls("graph_core.min_vertex_cut"), 1e3),
        "graph_core.max_disjoint_paths_ms": per(
            total("graph_core.max_disjoint_paths"), calls("graph_core.max_disjoint_paths"), 1e3),
        "graph_core.disconnects_calls": per(calls("graph_core.disconnects"), n_ops) if attack else 0.0,
        "graph_core.disconnects_us": per(total("graph_core.disconnects"), calls("graph_core.disconnects"), 1e6),
        "graph_core.enumerate_simple_paths_ms": per(
            total("graph_core.enumerate_simple_paths"), counts["graph_core.enumerate_simple_paths"], 1e3),
        "security.attack_self_ms": per(
            sum(v["self"] for k, v in tot.items() if k.startswith("security.")), n_ops, 1e3) if attack else 0.0,
        "security.exchange_ms": per(
            total("security.m0_exchange") + total("security.multipath_exchange"), n_ops, 1e3) if attack else 0.0,
        "security.oracle_ms": per(total("security.security_oracle"), calls("security.security_oracle"), 1e3),
        "security.oracle_outcomes_per_s": per(getattr(w, "outcomes", 0), total("security.security_oracle")),
        "security.oracle_peak_mb": getattr(w, "peak_mb", 0.0),
        "trace.overhead_ratio": per(sum(res["op_s"]), sum(res["base_s"])),
        "trace.self_coverage": per(
            sum(v["self"] for name, v in tot.items() if not name.startswith("bench.")), sum(res["op_s"])),
    }
    # A boundary the workload must reach but that recorded no call was
    # bypassed: its metrics are unmeasured and left out, never reported as 0.
    unmeasured = [b for b in REACHES[workload] if not calls(b)]
    for boundary in unmeasured:
        for key in BOUNDARY_METRICS[boundary]:
            m.pop(key, None)
    return m, unmeasured


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help="exit once set up")
    args = p.parse_args(argv)

    # One CPU for the whole run: the highest-numbered one the process may use,
    # since CPU 0 usually also serves interrupts and housekeeping.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = Path.cwd()
    start = perf_counter()
    import qkdnet

    import_s = perf_counter() - start
    if not Path(qkdnet.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"qkdnet imported from {qkdnet.__file__}, not from {root / 'src'}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        start = perf_counter()
        w = WORKLOADS[args.workload](args.seed, work)
        build_ms = (perf_counter() - start) * 1e3
        print("ready " + json.dumps({"import_s": import_s, "build_ms": build_ms}), flush=True)
        if args.probe:
            return 0

        tracer = Tracer() if args.trace else None
        out = {"workload": args.workload, "seed": args.seed, "unit": w.unit}
        out.update(_phase(w, args.seconds, 1 if tracer else MIN_OPS[args.workload], tracer))
        if tracer is not None:
            out["layers"], out["unmeasured"] = _layer_metrics(args.workload, w, tracer, out)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
