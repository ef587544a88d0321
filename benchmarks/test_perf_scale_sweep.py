"""Perf scale sweep: 6 -> 48 -> 120 workers through the ND and DD solutions.

The seed benchmarks cap out at 6 simulated workers; the paper evaluates
production-scale clusters.  This sweep proves the optimised engine replays
two orders of magnitude more simulated nodes within an interactive time
budget, on both solution families:

* **ND** (non-dedicated CPU Parameter Server): a full AntDT-ND run with
  transient worker stragglers on the discrete-event engine — this is the
  engine-bound path the perf work targets.
* **DD** (dedicated heterogeneous GPU AllReduce): the AntDT-DD assignment on
  a mixed V100/P100 fleet of the same device count (closed-form per-iteration
  model, so it stays instant at any scale — included to pin that property).

Every sweep point is recorded into ``BENCH_engine.json`` so the events/sec
trajectory is comparable across PRs.
"""

import hashlib

from conftest import BENCH_SCALE

from repro.experiments.evaluation_dd import run_gpu_strategy
from repro.experiments.runner import run_ps_experiment
from repro.experiments.stragglers import worker_scenario
from repro.experiments.workloads import ExperimentScale, make_gpu_groups
from repro.ml.data.imagenet import mini_imagenet_epoch
from repro.ml.models.cost_models import MOBILENET_V1
from repro.perf import PerfReporter, Stopwatch
from repro.scenarios.fingerprint import series_digest

#: Worker counts swept (6 = seed bench scale, 120 = two orders of magnitude
#: beyond the paper-reproduction seed's largest benchmark).
SWEEP_WORKERS = (6, 48, 120)

#: Per-run wall-clock budget, deliberately generous for slow CI machines; an
#: O(n^2) regression at 120 workers blows through it immediately (the seed
#: code needed ~30 s for the 120-worker point, the optimised stack ~2 s).
ND_RUN_BUDGET_S = 30.0


def test_perf_scale_sweep():
    reporter = PerfReporter()
    rows = []
    for num_workers in SWEEP_WORKERS:
        scale = ExperimentScale.for_workers(num_workers)

        # ND: full discrete-event Parameter-Server run under AntDT-ND.
        watch = Stopwatch()
        with watch:
            nd = run_ps_experiment("antdt-nd", scale=scale,
                                   scenario=worker_scenario(0.8), seed=0)
        nd_wall = watch.elapsed
        assert nd.completed, f"ND run at {num_workers} workers did not complete"
        assert nd_wall < ND_RUN_BUDGET_S, (
            f"ND run at {num_workers} workers took {nd_wall:.1f}s "
            f"(budget {ND_RUN_BUDGET_S}s)"
        )
        nd_events = nd.engine_events_processed
        nd_eps = nd_events / nd_wall if nd_wall > 0 else float("inf")

        # DD: closed-form AllReduce on an equally sized mixed GPU fleet.
        watch = Stopwatch()
        with watch:
            dd = run_gpu_strategy("antdt-dd", MOBILENET_V1,
                                  workload=mini_imagenet_epoch(),
                                  groups=make_gpu_groups(num_v100=num_workers // 2,
                                                         num_p100=num_workers - num_workers // 2),
                                  global_batch_size=128 * num_workers)
        dd_wall = watch.elapsed
        assert dd.jct > 0

        rows.append({
            "num_workers": num_workers,
            "nd_wall_s": nd_wall,
            "nd_events": nd_events,
            "nd_events_per_sec": nd_eps,
            "nd_jct_s": nd.jct,
            "dd_wall_s": dd_wall,
            "dd_jct_s": dd.jct,
        })
        reporter.add(f"sweep_nd_{num_workers}w", wall_s=nd_wall,
                     events_processed=float(nd_events), events_per_sec=nd_eps,
                     num_workers=float(num_workers), sim_time=nd.jct, jct_s=nd.jct)
        reporter.add(f"sweep_dd_{num_workers}w", wall_s=dd_wall,
                     num_workers=float(num_workers), jct_s=dd.jct)
    reporter.write()

    print("\nPerf scale sweep (ND = PS event simulation, DD = closed-form AllReduce):")
    print(f"  {'workers':>7} {'ND wall (s)':>12} {'ND events':>10} {'ND ev/s':>12} "
          f"{'ND JCT (s)':>11} {'DD wall (s)':>12} {'DD JCT (s)':>11}")
    for row in rows:
        print(f"  {row['num_workers']:>7} {row['nd_wall_s']:>12.3f} {row['nd_events']:>10} "
              f"{row['nd_events_per_sec']:>12,.0f} {row['nd_jct_s']:>11.1f} "
              f"{row['dd_wall_s']:>12.4f} {row['dd_jct_s']:>11.1f}")

    # Event count grows ~two orders of magnitude across the sweep while the
    # run stays interactive; the 120-worker point must process at a healthy
    # rate, not merely finish.
    assert rows[-1]["nd_events"] > 10 * rows[0]["nd_events"]
    assert rows[-1]["nd_events_per_sec"] > 20_000.0


#: The 1000-worker point gets its own budget: it processes several million
#: logical events and lands around 8 s on a development machine; anything in
#: the tens of seconds on CI is still healthy, minutes is a regression.
ND_1000W_BUDGET_S = 60.0

#: Deterministic counters of the 1000-worker run (seed 0), which do not
#: depend on machine load.  The logical event count and the worker-series
#: digest are the values the run produced before the columnar fan-out and
#: the idle-poll cohorts, which must not change them.  The physical ceiling
#: holds the heap traffic those two fast paths removed (0.96M pops before).
ND_1000W_LOGICAL_EVENTS = 4_834_110
ND_1000W_PHYSICAL_CEILING = 350_000
ND_1000W_WORKER_DIGEST = "a9c9f12837636c00"


def worker_series_digest(metrics) -> str:
    """One digest over every worker's bpt, batch-size and sample series."""
    hasher = hashlib.sha256()
    for tag in sorted(metrics.tags("bpt")):
        for name in ("bpt", "batch_size", "iteration_samples"):
            series = metrics.series(name, tag)
            digest = series_digest(series.times(), series.values())
            hasher.update(f"{name}/{tag}:{digest};".encode())
    return hasher.hexdigest()[:16]


def test_perf_scale_sweep_1000w():
    """A 1000-worker ND run completes in single-digit seconds (generous CI budget).

    This is the cohort-coalescing + array-backed-state headline scale: every
    iteration's push fan-out commits closed-form against the columnar server
    state instead of waking a generator per request, so the logical event
    count (~5M) dwarfs the physical heap traffic.
    """
    num_workers = 1000
    scale = ExperimentScale.for_workers(num_workers)
    watch = Stopwatch()
    with watch:
        nd = run_ps_experiment("antdt-nd", scale=scale,
                               scenario=worker_scenario(0.8), seed=0)
    wall = watch.elapsed
    assert nd.completed, "ND run at 1000 workers did not complete"
    assert wall < ND_1000W_BUDGET_S, (
        f"ND run at 1000 workers took {wall:.1f}s (budget {ND_1000W_BUDGET_S}s)")
    events = nd.engine_events_processed
    eps = events / wall if wall > 0 else float("inf")
    assert eps > 100_000.0
    assert events == ND_1000W_LOGICAL_EVENTS
    assert nd.engine_events_physical < ND_1000W_PHYSICAL_CEILING
    assert worker_series_digest(nd.metrics) == ND_1000W_WORKER_DIGEST

    reporter = PerfReporter()
    reporter.add("sweep_nd_1000w", wall_s=wall, events_processed=float(events),
                 events_per_sec=eps, num_workers=float(num_workers),
                 sim_time=nd.jct, jct_s=nd.jct)
    reporter.write()
    print(f"\nsweep_nd_1000w: wall={wall:.3f}s events={events} "
          f"({eps:,.0f} ev/s) jct={nd.jct:.1f}s")
