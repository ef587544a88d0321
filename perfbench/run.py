"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload nd-1000w --seed 0 --seconds 50 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``:
``setup_s`` is the median over several fresh processes that import
``repro`` and build the workload's specs, and the rest come from one fresh
process that repeats the untraced workload.  With ``--trace 1`` they are the
per-layer ones, from a fresh process that profiles the workload.  Each
process checks every output it produces; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  No simulator code is
imported here, so nothing warms up before a measurement.
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
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: Fresh processes whose set-up time is sampled per run.
SETUP_SAMPLES = 5

#: The whole run must end well within 180 seconds.
DEADLINE_S = 170.0


def _child(args: List[str], deadline: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("REPRO_NO_COALESCE", None)
    return subprocess.run([sys.executable, str(CHILD)] + args, cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, check=True,
                          timeout=max(1.0, deadline - perf_counter()))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator source under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    metrics: Dict[str, float] = {}
    try:
        if not args.trace:
            samples = []
            for _ in range(SETUP_SAMPLES):
                start = perf_counter()
                _child(["setup"] + common, deadline)
                samples.append(perf_counter() - start)
            metrics["setup_s"] = statistics.median(samples)
        mode = "trace" if args.trace else "measure"
        done = _child([mode] + common + ["--seconds", str(args.seconds)], deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics.update(result["metrics"])
    units = {metric["name"]: metric["unit"]
             for metric in benchmark["end_to_end"] + benchmark["per_layer"]}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
