"""Scenario execution — the orchestrator's single simulation front door.

:func:`simulate_spec` is what every driver (sweep runner, figure generators,
integrity experiments, CLI) goes through to turn a
:class:`~repro.scenarios.spec.ScenarioSpec` into a finished, fingerprinted
run: it builds the job, runs it, fingerprints the behaviour, and keeps the
live job around for callers that need internals (allocator state, agent
overheads).

:func:`run_payload` is the subprocess entry point the sweep runner submits to
its :class:`~concurrent.futures.ProcessPoolExecutor`: it speaks plain dicts
in both directions (a spec's ``to_dict`` form in, a JSON-safe result record
out) so nothing unpicklable — live jobs, metrics recorders, simulation
environments — ever crosses the process boundary, and a crash inside the
child comes back as an error record instead of poisoning the pool.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Dict, Optional

from ..perf import Stopwatch
from ..psarch.job import PSRunResult, PSTrainingJob
from ..scenarios.fingerprint import fingerprint
from ..scenarios.matrix import ScenarioResult, build_scenario_job
from ..scenarios.spec import ScenarioSpec
from ..sim.failures import FailureInjector

__all__ = ["SimRun", "simulate_spec", "run_payload"]


@dataclass
class SimRun:
    """One completed in-process simulation with its live internals."""

    spec: ScenarioSpec
    job: PSTrainingJob
    injector: FailureInjector
    run: PSRunResult
    fingerprint: Dict[str, object]
    wall_s: float

    def scenario_result(self) -> ScenarioResult:
        """The run reduced to the scenario subsystem's result type."""
        return ScenarioResult(spec=self.spec, run=self.run,
                              fingerprint=self.fingerprint)


def simulate_spec(spec: ScenarioSpec, **overrides: object) -> SimRun:
    """Build, run, and fingerprint one scenario in this process.

    ``overrides`` are forwarded to
    :func:`~repro.scenarios.matrix.build_scenario_job` (real compute backend,
    coverage tracking, ...), so spec-driven experiments that need more than
    the declarative knobs still route through the orchestrator.
    """
    watch = Stopwatch().start()
    job, injector = build_scenario_job(spec, **overrides)
    result = job.run()
    return SimRun(
        spec=spec,
        job=job,
        injector=injector,
        run=result,
        fingerprint=fingerprint(spec, result, injector),
        wall_s=watch.elapsed,
    )


def run_payload(spec_dict: Dict[str, object]) -> Dict[str, object]:
    """Execute one spec (as a plain dict) and return a JSON-safe record.

    Never raises: any failure — an invalid spec, a scenario that crashes
    mid-simulation — is reported as an ``ok=False`` record carrying the
    error and traceback, so one broken scenario cannot take down a sweep.
    """
    watch = Stopwatch().start()
    try:
        spec = ScenarioSpec.from_dict(spec_dict)
        sim = simulate_spec(spec)
        return {
            "ok": True,
            "fingerprint": sim.fingerprint,
            "wall_s": watch.elapsed,
            "engine_events_scheduled": sim.run.engine_events_scheduled,
            "engine_events_processed": sim.run.engine_events_processed,
            "engine_events_physical": sim.run.engine_events_physical,
        }
    except Exception as exc:  # noqa: BLE001 - isolation is the contract
        return {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "wall_s": watch.elapsed,
        }


def outcome_payload(sim: Optional[SimRun], error: Optional[BaseException],
                    wall_s: float) -> Dict[str, object]:
    """The :func:`run_payload`-shaped record for an in-process execution.

    Keeps the serial (jobs=1) path and the subprocess path flowing through
    one record shape, which is what makes them provably equivalent.
    """
    if error is not None:
        return {
            "ok": False,
            "error": f"{type(error).__name__}: {error}",
            "traceback": "".join(traceback.format_exception(
                type(error), error, error.__traceback__)),
            "wall_s": wall_s,
        }
    assert sim is not None
    return {
        "ok": True,
        "fingerprint": sim.fingerprint,
        "wall_s": wall_s,
        "engine_events_scheduled": sim.run.engine_events_scheduled,
        "engine_events_processed": sim.run.engine_events_processed,
        "engine_events_physical": sim.run.engine_events_physical,
    }
