"""The benchmark's workloads, their timed bodies and their checks.

Each workload is driven through the simulator's public front doors:
``build_scenario_job`` -> ``PSTrainingJob.run`` -> ``fingerprint`` for
``nd-1000w``, and ``SweepRunner`` for ``registry-cold``.  A
repetition (``Workload.run_once``) times only those calls; every check runs
after the clock stops and records a failure instead of raising.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
import os
import shutil
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.elastic.resharding import audit_allocator, verify_shard_coverage
from repro.experiments.workloads import ExperimentScale
from repro.orchestrator import runner as sweep_runner
from repro.orchestrator.runner import SweepRunner
from repro.orchestrator.store import ResultStore
from repro.orchestrator.worker import simulate_spec
from repro.scenarios import all_scenarios, canonical_json, fingerprint
from repro.scenarios.matrix import build_scenario_job
from repro.scenarios.spec import ScenarioSpec

#: Deterministic counters that must repeat exactly for the same seed.
COUNTERS = ("engine.events_logical", "engine.events_physical",
            "engine.events_folded", "serving.arrivals", "serving.completed",
            "control.actions", "elastic.membership_events",
            "elastic.reshard_events", "samples_confirmed", "requests_committed")


@dataclasses.dataclass
class Rep:
    """One timed repetition of a workload, with what it produced."""

    wall_s: float
    scenario_walls: Dict[str, float]
    counters: Dict[str, int]
    digest: str
    attempted: int = 0
    failed: int = 0
    failures: List[str] = dataclasses.field(default_factory=list)


def _counters_of(job, result) -> Dict[str, int]:
    serving = result.serving or {}
    return {
        "engine.events_logical": result.engine_events_processed,
        "engine.events_physical": result.engine_events_physical,
        "engine.events_folded": result.engine_events_folded,
        "serving.arrivals": int(serving.get("arrivals", 0)),
        "serving.completed": int(serving.get("completed", 0)),
        "control.actions": len(result.action_log),
        "elastic.membership_events": (len(result.membership_events)
                                      + len(result.server_membership_events)),
        "elastic.reshard_events": len(result.reshard_events),
        "samples_confirmed": result.samples_confirmed,
        "requests_committed": job.server_state.total_requests_handled(),
    }


def check_run(spec: ScenarioSpec, job, result) -> List[str]:
    """Invariants every finished run must hold; returns what failed."""
    failures: List[str] = []
    name = spec.name
    if not result.completed:
        failures.append(f"{name}: run did not complete")
    try:
        ledger = audit_allocator(job.allocator, where=name)
    except Exception as exc:  # noqa: BLE001 - a failed check is recorded
        failures.append(f"{name}: allocator audit: {exc}")
    else:
        if ledger is not None and ledger.confirmed != ledger.total_samples:
            failures.append(f"{name}: confirmed {ledger.confirmed} of "
                            f"{ledger.total_samples} samples")
    if job.servers:
        try:
            verify_shard_coverage(job.shard_map, job.active_server_names())
        except Exception as exc:  # noqa: BLE001 - a failed check is recorded
            failures.append(f"{name}: shard coverage: {exc}")
    if spec.serving:
        serving = result.serving or {}
        peak = serving.get("peak_server_inflight")
        if peak is None or peak > spec.serving.queue_capacity:
            failures.append(f"{name}: peak in-flight {peak} exceeds queue "
                            f"capacity {spec.serving.queue_capacity}")
        if serving.get("in_flight_at_end") != 0:
            failures.append(f"{name}: {serving.get('in_flight_at_end')} serving "
                            "requests still in flight at the end")
    return failures


def _timed(profiler, call: Callable[[], object]) -> Tuple[object, float]:
    """Run ``call`` under the clock (and the profiler, when given)."""
    start = perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        value = call()
    finally:
        if profiler is not None:
            profiler.disable()
    return value, perf_counter() - start


class Workload:
    """A named workload: specs built from a seed, and one repetition."""

    name = ""

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed
        self.root = root
        self.specs = self.build_specs()

    def build_specs(self) -> List[ScenarioSpec]:
        raise NotImplementedError

    def run_once(self, profiler=None) -> Rep:
        raise NotImplementedError

    def oracle(self) -> Tuple[int, List[str]]:
        """Checks too costly for every repetition: ``(attempted, failures)``."""
        return 0, []

    def close(self) -> None:
        """Release whatever the workload keeps on disk."""


class Nd1000w(Workload):
    """AntDT-ND on 1000 workers and 333 servers, one scenario per repetition.

    No stragglers are injected: where stragglers fall depends on the seed,
    and at this scale that moves the work done by a third between seeds
    (how many workers are restarted, how long the job runs), so no two runs
    would measure the same workload.  Without them the seed still changes
    the run (its fingerprint differs) but not the amount of work.  Straggler
    handling is measured on ``registry-cold``.
    """

    name = "nd-1000w"

    def build_specs(self) -> List[ScenarioSpec]:
        return [ScenarioSpec.for_scale(
            ExperimentScale.for_workers(1000), name=self.name,
            method="antdt-nd", seed=self.seed)]

    def run_once(self, profiler=None) -> Rep:
        spec = self.specs[0]

        def body():
            job, injector = build_scenario_job(spec)
            result = job.run()
            return job, result, fingerprint(spec, result, injector)

        (job, result, print_), wall = _timed(profiler, body)
        failures = check_run(spec, job, result)
        rep = Rep(wall_s=wall, scenario_walls={spec.name: wall},
                  counters=_counters_of(job, result),
                  digest=hashlib.sha256(canonical_json(print_).encode()).hexdigest(),
                  attempted=1, failed=int(bool(failures)), failures=failures)
        # Finalize the job's suspended processes outside the timed body.
        del job, result, print_
        gc.collect()
        return rep


class RegistryCold(Workload):
    """Every registered scenario, one cold ``SweepRunner`` call each.

    At seed 0 the specs are the registered ones and each fingerprint must
    equal its golden trace byte for byte.  Any other seed is added to every
    spec's seed, and the oracle reruns each spec with cohort coalescing off,
    which must give the same fingerprint.
    """

    name = "registry-cold"

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        self.golden_dir = root / "tests" / "golden" / "traces"
        self.scratch = root / ".perfbench-tmp" / str(os.getpid())
        self._captured: List[object] = []
        self._reps = 0
        self._first_texts: Dict[str, str] = {}
        self._original = sweep_runner.simulate_spec
        # The runner keeps the live job only inside its serial loop; this
        # wrapper hands it to the checks, which run after the clock stops.
        sweep_runner.simulate_spec = self._capture

    def _capture(self, spec: ScenarioSpec, **overrides: object):
        sim = self._original(spec, **overrides)
        self._captured.append(sim)
        return sim

    def build_specs(self) -> List[ScenarioSpec]:
        return [dataclasses.replace(spec, seed=spec.seed + self.seed)
                for spec in all_scenarios()]

    def run_once(self, profiler=None) -> Rep:
        self._reps += 1
        store_dir = self.scratch / f"rep-{self._reps}"
        store_dir.mkdir(parents=True, exist_ok=True)
        walls: Dict[str, float] = {}
        totals = dict.fromkeys(COUNTERS, 0)
        digest = hashlib.sha256()
        failures: List[str] = []
        failed = 0
        for index, spec in enumerate(self.specs):
            store = ResultStore(store_dir / f"{index}.jsonl")
            report, walls[spec.name] = _timed(
                profiler, lambda: SweepRunner(jobs=1, store=store).run([spec]))
            outcome = report.outcomes[0]
            if not outcome.ok or not self._captured:
                failures.append(f"{spec.name}: {outcome.error or 'no simulation'}")
                failed += 1
                self._captured.clear()
                continue
            sim = self._captured.pop()
            found = check_run(spec, sim.job, sim.run)
            text = outcome.golden_trace()
            digest.update(text.encode())
            self._first_texts.setdefault(spec.name, text)
            if self.seed == 0:
                golden = self.golden_dir / f"{spec.name}.json"
                if not golden.is_file() or golden.read_text() != text:
                    found.append(f"{spec.name}: fingerprint differs from "
                                 "its golden trace")
            failures.extend(found)
            failed += int(bool(found))
            for key, value in _counters_of(sim.job, sim.run).items():
                totals[key] += value
            # Finalize this scenario's suspended processes here, not inside
            # the next scenario's timed (and profiled) call.
            del sim, outcome, report
            gc.collect()
        shutil.rmtree(store_dir, ignore_errors=True)
        return Rep(wall_s=sum(walls.values()), scenario_walls=walls,
                   counters=totals, digest=digest.hexdigest(),
                   attempted=len(self.specs), failed=failed, failures=failures)

    def oracle(self) -> Tuple[int, List[str]]:
        if self.seed == 0:
            return 0, []  # the golden traces were compared on every repetition
        failures = []
        for spec in self.specs:
            try:
                stepped = simulate_spec(spec, coalesce=False).fingerprint
            except Exception as exc:  # noqa: BLE001 - a failed check is recorded
                failures.append(f"{spec.name}: oracle run failed: {exc}")
                continue
            if self._first_texts.get(spec.name) != canonical_json(stepped):
                failures.append(f"{spec.name}: fingerprint differs with "
                                "coalescing off")
        return len(self.specs), failures

    def close(self) -> None:
        sweep_runner.simulate_spec = self._original
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (Nd1000w, RegistryCold)}


def make(name: str, seed: int, root: Path) -> Workload:
    """Build the named workload's specs for ``seed``."""
    return WORKLOADS[name](seed, root)


def nearest_rank(values: List[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (0 < q <= 1) of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(round(q * len(ordered), 9)) - 1)]
