"""Registry-wide proof that cohort coalescing is behaviour-preserving.

The engine's fast paths — eager submit-side commits, batched cohort plans,
vectorized push fan-out, quiescent-window fast-forward — may only ever change
*how fast* a run executes, never *what* it computes.  The golden suite pins
29 checked-in traces; these tests go further and pin, for **every** registered
scenario, that the fingerprint with coalescing forced on is byte-identical to
the fingerprint with coalescing forced off (``Environment(coalesce=False)``),
and that the ``REPRO_NO_COALESCE=1`` escape hatch selects the slow path.

The coalescing × elastic interaction gets its own regression test: a scale-in
that retires a worker mid-iteration — i.e. from inside a live coalesced
cohort plan on the servers — must split the cohort (roll the plan back and
replay the surviving entries), keep the exactly-once sample ledger conserved
(``shard_accounting``), and still fingerprint identically to the uncoalesced
run.
"""

import json

import pytest

from repro.elastic.spec import ElasticSpec, ScaleEvent
from repro.perf import EngineStats
from repro.scenarios import ScenarioSpec, all_scenarios, get_scenario, run_scenario
from repro.scenarios.fingerprint import fingerprint
from repro.scenarios.matrix import build_scenario_job

ALL_NAMES = [spec.name for spec in all_scenarios()]


def test_registry_is_fully_covered():
    # The equivalence sweep below must stay registry-wide: if scenarios are
    # added, they are parametrized in automatically; if the registry ever
    # shrank below the golden set this would be the first alarm.
    assert len(ALL_NAMES) >= 29


def _server_bpt_series(result):
    """Every ``server_bpt`` series of a run: (times, values) per server.

    The series is shared: a server's per-request points and its agent's
    flushed means land in it.  Fingerprints only digest worker series, so
    a reordering here would not show in the golden traces.
    """
    metrics = result.run.metrics
    return {tag: (metrics.series("server_bpt", tag).times(),
                  metrics.series("server_bpt", tag).values())
            for tag in metrics.tags("server_bpt")}


@pytest.mark.parametrize("name", ALL_NAMES)
def test_coalesce_on_off_fingerprints_byte_identical(name):
    spec = get_scenario(name)
    fast = run_scenario(spec, coalesce=True)
    slow = run_scenario(spec, coalesce=False)
    assert fast.golden_trace() == slow.golden_trace(), (
        f"scenario {name!r} fingerprints differently with cohort coalescing "
        f"on vs off — the fast path changed observable behaviour")
    fast_series = _server_bpt_series(fast)
    slow_series = _server_bpt_series(slow)
    assert sorted(fast_series) == sorted(slow_series)
    for tag in sorted(slow_series):
        assert fast_series[tag] == slow_series[tag], (
            f"scenario {name!r}: server_bpt series of {tag} differs with "
            f"cohort coalescing on vs off")


def test_no_coalesce_env_hatch_selects_the_slow_path(monkeypatch):
    spec = get_scenario("dedicated-baseline")
    monkeypatch.setenv("REPRO_NO_COALESCE", "1")
    job, _ = build_scenario_job(spec)
    assert job.env.coalesce is False
    hatched = run_scenario(spec)
    monkeypatch.delenv("REPRO_NO_COALESCE")
    default = run_scenario(spec)
    assert hatched.golden_trace() == default.golden_trace()


def test_scale_in_mid_iteration_splits_cohort_and_conserves_ledger():
    # A deterministic scale-in at a time that is *not* an iteration boundary:
    # when it fires, the retiring worker's requests sit inside live coalesced
    # cohort plans on the servers, so the interrupt must split the cohort
    # (rollback + replay of the surviving entries) rather than merely skip it.
    spec = ScenarioSpec(
        name="coalesce-scale-in-probe",
        method="antdt-nd",
        seed=11,
        elastic=ElasticSpec(events=(
            ScaleEvent(time_s=33.7, action="in", count=1),
        )),
        description="probe: scale-in lands mid-iteration inside a coalesced cohort",
    )

    results = {}
    for coalesce in (True, False):
        job, injector = build_scenario_job(spec, coalesce=coalesce)
        stats = EngineStats(job.env)
        run = job.run()
        accounting = job.allocator.shard_accounting()
        assert accounting["conserved"], (
            f"shard ledger unbalanced after mid-iteration scale-in "
            f"(coalesce={coalesce}): {accounting}")
        results[coalesce] = (fingerprint(spec, run, injector), stats, run)

    fast_print, fast_stats, fast_run = results[True]
    slow_print, slow_stats, slow_run = results[False]

    # The scale-in actually happened mid-run and retired a worker.
    assert fast_print["elastic"]["left"] >= 1
    assert fast_run.completed and slow_run.completed

    # The coalesced run really took the fast path (events were coalesced and
    # later survived the cohort split), yet logical behaviour is identical.
    assert fast_stats.physical < slow_stats.physical
    assert fast_stats.logical == slow_stats.logical
    assert json.dumps(fast_print, sort_keys=True) == \
        json.dumps(slow_print, sort_keys=True)
