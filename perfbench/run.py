"""qkdnet benchmark: one workload per call, every metric by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload simulate-demo7 --seed 1 --seconds 30 --trace 0

Workloads: simulate-demo7, assess-attack, assess-verdict
(see perfbench/README.md for what each measures and why).

The set-up time is measured SETUP_SAMPLES times, each in a fresh process,
from process start to the moment the worker is ready for its first op; the
median is reported. The middle one of those processes measures the workload.
Each worker runs single-threaded. The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

WORKLOADS = ("simulate-demo7", "assess-attack", "assess-verdict")
SETUP_SAMPLES = 5
DEADLINE_S = 170  # the whole call, set-up samples included, ends within this
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(RuntimeError):
    pass


def _start_worker(root: Path, args, probe: bool) -> tuple[subprocess.Popen, float, dict]:
    """Start a worker and wait for its ready line; return it, the set-up time and its report."""
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **SINGLE_THREAD)
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = perf_counter() - start
    if not line.startswith("ready "):
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed before its first op: {line.strip()!r}")
    return proc, setup_s, json.loads(line[len("ready "):])


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _class_medians(raw: dict) -> list[float]:
    """Median op time of each input class (the sizes a block holds; one class
    on simulate-*). Medians keep the seconds-long slowdowns of a shared host,
    which a mean or a tail would absorb, out of the figures."""
    by_class: dict[str, list[float]] = {}
    for seconds, cls in zip(raw["op_s"], raw["op_class"]):
        by_class.setdefault(str(cls), []).append(seconds)
    return [statistics.median(v) for v in by_class.values()]


def _end_to_end(raw: dict, setup: list[float]) -> dict[str, tuple[float, str]]:
    medians = _class_medians(raw)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (raw["op_units"] * len(medians) / sum(medians), "1/s"),
        "op_ms_p50": (statistics.median(medians) * 1e3, "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.build_ms": "ms",
    "cli.self_ms": "ms",
    "cli.csv_us_per_slot": "us/slot",
    "cli.csv_rows": "count",
    "harness.self_us_per_slot": "us/slot",
    "scheduler.step_us_per_slot": "us/slot",
    "scheduler.drift_audit_us_per_slot": "us/slot",
    "scheduler.served_per_slot": "count",
    "scheduler.keygen_duty": "ratio",
    "scheduler.filler_ratio": "ratio",
    "sim.utility_tail": "utility/slot",
    "sim.backlog_mean": "bits",
    "graph_core.min_vertex_cut_ms": "ms",
    "graph_core.max_disjoint_paths_ms": "ms",
    "graph_core.disconnects_calls": "count",
    "graph_core.disconnects_us": "us",
    "graph_core.enumerate_simple_paths_ms": "ms",
    "security.attack_self_ms": "ms",
    "security.exchange_ms": "ms",
    "security.oracle_ms": "ms",
    "security.oracle_outcomes_per_s": "1/s",
    "security.oracle_peak_mb": "MB",
    "trace.overhead_ratio": "ratio",
    "trace.self_coverage": "ratio",
}


def _per_layer(raw: dict, ready: list[dict]) -> dict[str, tuple[float, str]]:
    layers = dict(raw["layers"])
    layers["setup.import_s"] = statistics.median(r["import_s"] for r in ready)
    layers["setup.build_ms"] = statistics.median(r["build_ms"] for r in ready)
    return {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS.items() if name in layers}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="qkdnet benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qkdnet" / "__init__.py").is_file():
        print(f"error: no qkdnet sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    setup, ready = [], []

    def probe():
        proc, seconds, report = _start_worker(root, args, probe=True)
        _finish(proc, deadline - perf_counter())
        setup.append(seconds)
        ready.append(report)

    try:
        # set-up samples before and after the measuring worker, so that their
        # median spans the run rather than one moment of a shared host
        for _ in range(SETUP_SAMPLES // 2):
            probe()
        proc, seconds, report = _start_worker(root, args, probe=False)
        setup.append(seconds)
        ready.append(report)
        raw = json.loads(_finish(proc, deadline - perf_counter()).strip().splitlines()[-1])
        for _ in range(SETUP_SAMPLES // 2):
            probe()
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    metrics = _per_layer(raw, ready) if args.trace else _end_to_end(raw, setup)
    correct = not raw["failures"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"{raw['ops']} ops  {raw['units']} {raw['unit']} attempted  {raw['failed_units']} failed")
    print(f"fail_ratio {raw['failed_units'] / raw['units']:.6g}")
    print(f"digest {raw['digest']}")
    for stats in raw["stats"][:1]:
        print("simulated " + "  ".join(f"{k} {v:.6g}" for k, v in stats.items()))
    for failure in raw["failures"][:20]:
        print(f"FAILED {failure}")
    for name in raw.get("unmeasured", ()):
        print(f"unmeasured {name}: the workload never reached this boundary")
    if len(raw["op_s"]) > 1:
        p90 = statistics.quantiles(raw["op_s"], n=10)[8] * 1e3
        print(f"op_ms_p90 {p90:.6g} ms over {len(raw['op_s'])} ops (printed only, no bound)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": raw["units"],
        "failed": raw["failed_units"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
