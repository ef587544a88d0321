"""One fresh benchmark process: set up, measure, or trace a workload.

``run.py`` starts this script once per set-up sample and once per
measurement, so imports, caches and the memory high-water mark never carry
over from one measurement to the next.  Modes:

``setup``
    Import ``repro``, load the registry and build the workload's specs, then
    exit; the parent times the whole process.
``measure``
    Repeat the untraced workload for ``--seconds`` (at least twice), check
    every repetition, and print the end-to-end metrics as one JSON line.
``trace``
    One untraced repetition, then two under ``cProfile``; print the
    per-layer metrics as one JSON line.  The profile of the set-up (imports
    and spec building) is added to each profiled repetition, so a layer's
    self time counts what it costs the process at start as well.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402

#: Imported in ``main``, so that a traced run can profile the import.
workloads = None

#: Repetitions a measurement makes at least, so exact repeats can be checked.
MIN_REPS = 2


class Tally:
    """Operations attempted and failed over one process, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def add_rep(self, rep: workloads.Rep) -> None:
        self.attempted += rep.attempted
        self.failed += rep.failed
        self.messages.extend(rep.failures)

    def expect_equal(self, what: str, first: Dict, other: Dict) -> None:
        """One repeat comparison: a drift is a failed operation."""
        self.attempted += 1
        drift = sorted(key for key in first if first[key] != other.get(key))
        if drift:
            self.failed += 1
            self.messages.append(f"{what} drifted between repetitions with "
                                 f"the same seed: {drift}")

    def add_oracle(self, attempted: int, failures: List[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.messages.extend(failures)


def _repeat_key(rep: workloads.Rep) -> Dict[str, object]:
    return dict(rep.counters, fingerprints=rep.digest)


def _check_repeats(tally: Tally, reps: List[workloads.Rep]) -> None:
    for rep in reps[1:]:
        tally.expect_equal("deterministic counters", _repeat_key(reps[0]),
                           _repeat_key(rep))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: workloads.Workload, seconds: float, tally: Tally
            ) -> Dict[str, float]:
    """End-to-end metrics of untraced repetitions (all but ``setup_s``).

    ``wall_s`` is the median timed body over the repetitions;
    ``sim_samples_per_s`` and ``requests_per_s`` divide the confirmed training
    samples and the parameter-server requests committed (training pushes plus
    admitted serving requests) by it.  ``scenario_s.p50``/``.p70`` are
    nearest-rank percentiles over the workload's scenarios of each scenario's
    median wall time.  ``peak_rss_mb`` is this process's memory high-water
    mark after the repetitions.
    """
    reps: List[workloads.Rep] = []
    start = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() - start < seconds:
        reps.append(workload.run_once())
    # Read before the oracle runs, which may simulate more than the body did.
    rss = _peak_rss_mb()
    for rep in reps:
        tally.add_rep(rep)
    _check_repeats(tally, reps)
    tally.add_oracle(*workload.oracle())

    wall = statistics.median(rep.wall_s for rep in reps)
    # One sample per scenario: its median over the repetitions.
    samples = [statistics.median(rep.scenario_walls[name] for rep in reps)
               for name in reps[0].scenario_walls]
    counters = reps[0].counters
    return {
        "wall_s": wall,
        "sim_samples_per_s": counters["samples_confirmed"] / wall,
        "requests_per_s": counters["requests_committed"] / wall,
        "scenario_s.p50": workloads.nearest_rank(samples, 0.50),
        "scenario_s.p70": workloads.nearest_rank(samples, 0.70),
        "peak_rss_mb": rss,
    }


def trace(workload: workloads.Workload, setup: cProfile.Profile,
          tally: Tally) -> Dict[str, float]:
    """Per-layer metrics from two profiled repetitions after a warm one."""
    warm = workload.run_once()
    traced = []
    splits = []
    for _ in range(2):
        profiler = cProfile.Profile()
        traced.append(workload.run_once(profiler))
        splits.append(layers.LayerSplit(pstats.Stats(setup, profiler)))
    reps = [warm] + traced
    for rep in reps:
        tally.add_rep(rep)
    _check_repeats(tally, reps)
    first, second = (split.metrics() for split in splits)
    counts = [name for name in first if name.endswith((".calls", ".resumes"))]
    tally.expect_equal("profiled call counts", {n: first[n] for n in counts},
                       {n: second[n] for n in counts})
    tally.add_oracle(*workload.oracle())

    out: Dict[str, float] = {}
    for name, value in first.items():
        out[name] = value if name in counts else (value + second[name]) / 2.0
    counters = warm.counters
    for name in workloads.COUNTERS:
        if name.split(".")[0] in ("engine", "serving", "control", "elastic"):
            out[name] = counters[name]
    logical = counters["engine.events_logical"]
    coalesced = (logical - counters["engine.events_physical"]
                 - counters["engine.events_folded"])
    out["engine.coalesce_ratio"] = coalesced / logical if logical else 0.0
    out["trace.overhead_x"] = (statistics.mean(rep.wall_s for rep in traced)
                               / warm.wall_s)
    out["error_rate"] = tally.failed / tally.attempted
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    global workloads
    setup = cProfile.Profile()
    if args.mode == "trace":
        setup.enable()
    import workloads
    workload = workloads.make(args.workload, args.seed, ROOT)
    setup.disable()
    if args.mode == "setup":
        workload.close()
        return 0
    tally = Tally()
    try:
        if args.mode == "measure":
            metrics = measure(workload, args.seconds, tally)
        else:
            metrics = trace(workload, setup, tally)
    finally:
        workload.close()
    for message in tally.messages:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
