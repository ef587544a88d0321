"""The columnar push fan-out and the idle-poll cohorts against plain stepping.

Both fast paths are part of cohort coalescing, so ``coalesce=False`` runs the
same job one event per push and one timeout per data poll.  Each test drives
one job through a perturbation that splits the fast path mid-way, in both
modes, and requires every observable to agree.
"""

import pytest

from repro.elastic.resharding import audit_allocator
from repro.psarch import worker as worker_module
from repro.scenarios import ScenarioSpec, TopologySpec, build_scenario_job
from repro.scenarios.fingerprint import fingerprint
from repro.sim.contention import ConstantContention
from repro.sim.engine import CountdownEvent, Timeout

# ---------------------------------------------------------------------------
# Columnar fan-out: one window split by worker scale-in, a contention swap and
# a server kill.
# ---------------------------------------------------------------------------

FANOUT_SPEC = ScenarioSpec(
    name="probe-fanout-split", method="antdt-nd", seed=4, iterations=12,
    topology=TopologySpec(num_workers=72, num_servers=64),
    description="probe: 64-wide fan-out windows split three ways")

#: Perturbation instants, chosen off every acknowledgement and poll instant.
SCALE_IN_AT, CONTENTION_AT, KILL_AT = 7.6313, 9.2771, 10.8229


def _visible_server_state(job):
    """Per-server observables as of ``now``: points already due, queue depth."""
    now = job.env.now
    view = {}
    for server in job.servers:
        series = job.metrics.series("server_bpt", server.name)
        times, values = series.times(), series.values()
        due = sum(1 for time in times if time <= now)
        view[server.name] = (times[:due], values[:due],
                             server.pending_request_count())
    return view


def _final_server_state(job):
    group = job.agent_group
    servers = {}
    for server in job.servers:
        series = job.metrics.series("server_bpt", server.name)
        agent = server.agent
        servers[server.name] = (series.times(), series.values(),
                                server.requests_handled, list(agent._bpt_buffer),
                                agent._iterations_since_report,
                                server.pending_request_count())
    return (servers, group.report_overhead_s, group.sync_overhead_s,
            job.allocator.total_overhead_s)


def _has_open_window_past_now(job):
    state = job.server_state
    now = job.env.now
    return any(state.plan_end[server._slot] > state.plan_base[server._slot]
               and state.chain_tail[server._slot] > now
               for server in job.servers)


def _run_split_fanout(coalesce, kill_server, monkeypatch):
    fires = []

    def recording_latch(env, count, fire_delay=0.0):
        latch = CountdownEvent(env, count, fire_delay=fire_delay)
        # The consumer resumes at last ack + fire_delay; record the last ack.
        latch.callbacks.append(lambda event: fires.append(env.now - fire_delay))
        return latch

    monkeypatch.setattr(worker_module, "CountdownEvent", recording_latch)
    job, injector = build_scenario_job(FANOUT_SPEC, coalesce=coalesce)
    env = job.env
    job.start()
    views = []
    split_windows = []

    env.run(until=SCALE_IN_AT)
    views.append(_visible_server_state(job))
    split_windows.append(_has_open_window_past_now(job))
    victim = job.active_worker_names()[-1]
    assert job.request_scale_in([victim]) == [victim]

    env.run(until=CONTENTION_AT)
    views.append(_visible_server_state(job))
    split_windows.append(_has_open_window_past_now(job))
    job.cluster.set_contention(job.servers[5].name, ConstantContention(0.002))

    env.run(until=KILL_AT)
    views.append(_visible_server_state(job))
    split_windows.append(_has_open_window_past_now(job))
    if kill_server:
        assert job.request_kill_restart(job.servers[9].name, reason="probe")

    deadline = env.timeout(job.config.max_duration_s)
    env.run(until=env.any_of([job._completion_event, deadline]))
    result = job._build_result(job.completion_time)
    return {
        "views": views,
        "final": _final_server_state(job),
        "fires": fires,
        "fingerprint": fingerprint(FANOUT_SPEC, result, injector),
        "logical": result.engine_events_processed,
        "physical": result.engine_events_physical,
        "split_windows": split_windows,
        "fanout_width": len(job.servers),
    }


@pytest.mark.parametrize("kill_server", [False, True], ids=["no-kill", "kill"])
def test_split_fanout_window_matches_stepping(kill_server, monkeypatch):
    fast = _run_split_fanout(True, kill_server, monkeypatch)
    slow = _run_split_fanout(False, kill_server, monkeypatch)
    assert fast["fanout_width"] >= 64
    # Every perturbation landed inside open columnar windows.
    assert fast["split_windows"] == [True, True, True]
    assert fast["fingerprint"]["completed"]
    for index, (fast_view, slow_view) in enumerate(zip(fast["views"], slow["views"])):
        assert fast_view == slow_view, f"server state differs at checkpoint {index}"
    assert fast["final"] == slow["final"]
    assert fast["fires"] == slow["fires"]
    assert fast["fingerprint"] == slow["fingerprint"]
    if not kill_server:
        # A server killed mid-window loses one logical event in coalesced
        # mode: stepping still pops the killed request's handling timeout.
        assert fast["logical"] == slow["logical"]
    assert fast["physical"] < slow["physical"]


# ---------------------------------------------------------------------------
# Idle-poll cohorts: about 40 workers without a shard.
# ---------------------------------------------------------------------------

#: 44 workers, 7 shards: 37 workers poll the DDS every 0.5 s from t = 0.
POLL_SPEC = ScenarioSpec(
    name="probe-idle-pollers", method="antdt-nd", seed=2, iterations=2,
    topology=TopologySpec(num_workers=44, num_servers=4),
    description="probe: most workers idle-poll the DDS")


def _holders(job):
    return {name: shard for name, shard in job.allocator._current_shard.items()
            if shard is not None}


def _idle_worker_names(job):
    holders = _holders(job)
    return [worker.name for worker in job.workers if worker.name not in holders]


def _parked(job, name):
    """Whether the named worker waits on a cohort ticket (not a timeout)."""
    worker = next(worker for worker in job.workers if worker.name == name)
    target = worker.process.target
    return target is not None and not isinstance(target, Timeout)


def _finish(job, spec, injector):
    deadline = job.env.timeout(job.config.max_duration_s)
    job.env.run(until=job.env.any_of([job._completion_event, deadline]))
    result = job._build_result(job.completion_time)
    audit_allocator(job.allocator, where=spec.name)
    return fingerprint(spec, result, injector), result


def _run_failover_among_pollers(coalesce, kill_at):
    job, injector = build_scenario_job(POLL_SPEC, coalesce=coalesce)
    env = job.env
    job.start()
    env.run(until=1.0)
    assert len(_idle_worker_names(job)) >= 35
    killed = {}

    def killer():
        # Created before the pollers park for ``kill_at``: on a tie it fires
        # ahead of every poll due at that instant.
        yield env.timeout(kill_at - env.now)
        victim, shard = sorted(_holders(job).items())[0]
        killed["shard"] = shard
        killed["parked"] = sum(_parked(job, name) for name in _idle_worker_names(job))
        assert job.request_kill_restart(victim, reason="probe")

    env.process(killer())
    env.run(until=kill_at + 0.75)
    shard = job.allocator._shards[killed["shard"]]
    taker = shard.owner
    print_, result = _finish(job, POLL_SPEC, injector)
    return taker, killed["parked"], print_, result


@pytest.mark.parametrize("kill_at", [3.25, 3.5], ids=["between-polls", "on-a-poll"])
def test_failover_shard_goes_to_the_same_idle_poller(kill_at):
    fast_taker, fast_parked, fast_print, fast_run = \
        _run_failover_among_pollers(True, kill_at)
    slow_taker, slow_parked, slow_print, slow_run = \
        _run_failover_among_pollers(False, kill_at)
    assert fast_parked >= 35 and slow_parked == 0
    assert fast_taker is not None and fast_taker == slow_taker
    assert fast_print == slow_print
    assert fast_run.engine_events_processed == slow_run.engine_events_processed
    assert fast_run.engine_events_physical < slow_run.engine_events_physical


def _run_parked_member_interrupts(coalesce):
    job, injector = build_scenario_job(POLL_SPEC, coalesce=coalesce)
    env = job.env
    job.start()
    env.run(until=2.2)
    idle = _idle_worker_names(job)
    killed, retired = idle[3], idle[-2]
    parked = (_parked(job, killed), _parked(job, retired))
    assert job.request_kill_restart(killed, reason="probe")
    env.run(until=2.9)
    assert job.request_scale_in([retired]) == [retired]
    print_, result = _finish(job, POLL_SPEC, injector)
    return parked, print_, result


def test_kill_and_scale_in_of_parked_members():
    fast_parked, fast_print, fast_run = _run_parked_member_interrupts(True)
    slow_parked, slow_print, slow_run = _run_parked_member_interrupts(False)
    assert fast_parked == (True, True) and slow_parked == (False, False)
    assert fast_print["elastic"]["left"] == 1
    assert fast_print["restarts"]
    assert fast_print == slow_print
    assert fast_run.engine_events_processed == slow_run.engine_events_processed


def _run_past_completion(coalesce):
    job, _ = build_scenario_job(POLL_SPEC, coalesce=coalesce)
    env = job.env
    job.start()
    env.run(until=job._completion_event)
    parked = sum(_parked(job, name) for name in _idle_worker_names(job))
    # Keep stepping past completion: every poller's next poll sees it.
    env.run(until=env.now + 2.0)
    alive = [worker.name for worker in job.workers if worker.process.is_alive]
    exited = sorted(job._exited_workers)
    return parked, alive, exited, env.processed_count + env.coalesced_count


def test_job_completion_releases_every_parked_member():
    fast_parked, fast_alive, fast_exited, fast_logical = _run_past_completion(True)
    slow_parked, slow_alive, slow_exited, slow_logical = _run_past_completion(False)
    assert fast_parked >= 35 and slow_parked == 0
    assert fast_alive == [] and slow_alive == []
    assert fast_exited == slow_exited and len(fast_exited) == POLL_SPEC.topology.num_workers
    assert fast_logical == slow_logical
