"""Record one trajectory point: medians and quartiles over many seeds.

    python3 perfbench/trajectory.py --seeds 1-10 --seconds 30 --out point.json

Runs ``run.py --trace 0`` once per seed on every workload, then one
``--trace 1`` run per workload on the first seed, from the current directory
(the root of a checkout). Writes the machine, each end-to-end metric's
median, quartiles and relative spread (IQR / median), each digest and the
per-layer numbers. Later changes compare their point against this one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({p.returncode}):\n{p.stdout}{p.stderr}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.split()[1] for line in lines if line.startswith("digest "))
    return result


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()

    point = {"machine": _machine(), "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        seeds = _seeds(args.seeds)
        runs = [_run(workload, seed, args.seconds, 0) for seed in seeds]
        end_to_end = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[name] = {
                "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": values,
            }
        traced = _run(workload, seeds[0], args.seconds, 1)
        point["workloads"][workload] = {
            "seeds": seeds,
            "end_to_end": end_to_end,
            "digests": {str(s): r["digest"] for s, r in zip(seeds, runs)},
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_digest_matches": traced["digest"] == runs[0]["digest"],
        }
        print(workload, json.dumps(end_to_end), flush=True)
    args.out.write_text(json.dumps(point, indent=2) + "\n")


if __name__ == "__main__":
    main()
