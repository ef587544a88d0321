"""Lazy server-window records and the job-level request-id list.

An eager server window is its rows in ``ServerStateArrays``: the rollback
snapshot is derived from the rows, and the rare facts (a report fired, a
private acknowledgement, a wake-up) live in a record made only when a window
needs one.  The fan-out retires and opens windows with array writes, which
leave a retired window's record stale: a record belongs to the window whose
first row carries its id.  Each scenario here
cuts a window whose record history matters, in both coalescing modes, and
requires the agent buffer, the report overhead ledger, the ``server_bpt``
series, the handled counters and the logical event count to agree.

The requests behind the windows' id column live in one list per job, trimmed
below the oldest open window; the last tests pin that it stays bounded and
visible to the cycle collector.
"""

import gc
import weakref

import pytest

from repro.elastic.membership import LEFT
from repro.elastic.spec import ElasticSpec, ScaleEvent, ServerElasticSpec
from repro.experiments.stragglers import worker_scenario
from repro.psarch.server import PushRequest, ServerStateArrays
from repro.scenarios import ScenarioSpec, TopologySpec, build_scenario_job
from repro.scenarios.fingerprint import fingerprint
from repro.sim.engine import Environment, Event

#: Twelve workers pushing to six servers: every server reports once per
#: twelve requests, so one fan-out in twelve fires reports.  The stragglers
#: spread the pushes out, so windows end between them and the next push
#: retires them.
WINDOW_SPEC = ScenarioSpec(
    name="probe-window-records", method="antdt-nd", seed=3, iterations=10,
    topology=TopologySpec(num_workers=12, num_servers=6),
    stragglers=worker_scenario(0.8),
    description="probe: fan-out windows with and without reports")

#: Runs past this instant before a cut is chosen (past the start-up ramp).
WARMUP_S = 4.0

#: Where inside a window the cut lands, as a fraction of the span from the
#: committing fan-out to the acknowledgement of interest (off every
#: acknowledgement instant).
CUT_FRACTION = 0.3719


def _server_observables(job):
    group = job.agent_group
    servers = {}
    for server in job.servers:
        series = job.metrics.series("server_bpt", server.name)
        agent = server.agent
        servers[server.name] = (series.times(), series.values(),
                                server.requests_handled, list(agent._bpt_buffer),
                                agent._iterations_since_report)
    return servers, group.report_overhead_s


def _visible(job):
    """Per-server points already due and handled-by-now, mode-invariant."""
    now = job.env.now
    view = {}
    for server in job.servers:
        series = job.metrics.series("server_bpt", server.name)
        times, values = series.times(), series.values()
        due = sum(1 for time in times if time <= now)
        view[server.name] = (times[:due], values[:due])
    return view


def _record_fanouts(job, on_call):
    """Call ``on_call(targets, before, after)`` around every vectorized fan-out."""
    push_fanout = job.push_fanout

    def recording(worker, nbytes, targets, latch):
        before = {server.name: _window_of(server) for server in targets}
        committed = push_fanout(worker, nbytes, targets, latch)
        if committed:
            after = {server.name: _window_of(server) for server in targets}
            on_call(targets, before, after)
        return committed

    job.push_fanout = recording


def _window_of(server):
    """``(window id, chain tail, live record, reports so far)`` of a server."""
    state = server._state
    slot = server._slot
    return (state.window_id(slot), float(state.chain_tail[slot]),
            server._window_record(), state.reports)


def _finish(job):
    env = job.env
    deadline = env.timeout(job.config.max_duration_s)
    env.run(until=env.any_of([job._completion_event, deadline]))
    return job._build_result(job.completion_time)


def _probe_cut(choose):
    """Run the coalesced job to find a cut; ``choose`` sees every fan-out."""
    job, _ = build_scenario_job(WINDOW_SPEC, coalesce=True)
    found = []

    def on_call(targets, before, after):
        if not found and job.env.now > WARMUP_S:
            pick = choose(job, targets, before, after)
            if pick is not None:
                found.append(pick)

    _record_fanouts(job, on_call)
    job.start()
    job.env.run(until=job._completion_event)
    assert found, "the probe found no window to cut"
    return found[0]


def _cut_run(coalesce, cut_at, victim, cut, check_at_cut=None):
    job, injector = build_scenario_job(WINDOW_SPEC, coalesce=coalesce)
    env = job.env
    job.start()
    env.run(until=cut_at)
    server = next(server for server in job.servers if server.name == victim)
    if check_at_cut is not None and coalesce:
        check_at_cut(job, server)
    if cut == "kill":
        assert job.request_kill_restart(victim, reason="probe")
    else:
        worker = job.active_worker_names()[-1]
        assert job.request_scale_in([worker]) == [worker]
    env.run(until=cut_at + 0.25)
    view = _visible(job)
    result = _finish(job)
    return {
        "view": view,
        "final": _server_observables(job),
        "fingerprint": fingerprint(WINDOW_SPEC, result, injector),
        "logical": result.engine_events_processed,
        "records": result.server_window_records,
    }


def _compare(fast, slow, cut):
    assert fast["view"] == slow["view"]
    assert fast["final"] == slow["final"]
    assert fast["fingerprint"] == slow["fingerprint"]
    # Both kills land on a row in flight, the known case where coalescing
    # loses one logical event: stepping still pops the killed request's
    # handling timeout (ROADMAP item 6).
    assert fast["logical"] == slow["logical"] - (1 if cut == "kill" else 0)
    assert fast["records"] > 0 and slow["records"] == 0


@pytest.mark.parametrize("cut", ["kill", "cohort"])
def test_window_whose_first_report_fired_in_the_fanout_is_cut(cut):
    """(a) A fan-out fires a window's first report, which flushes the agent
    buffer; a kill or a cohort change then cuts the window after the
    reported row's acknowledgement and before its end, so the rollback
    must restore the agent snapshot, drop the flushed point and replay."""
    made_in_fanout = {}

    def choose(job, targets, before, after):
        now = job.env.now
        state = job.server_state
        for server in targets:
            record = after[server.name][2]
            if record is None:
                continue
            if before[server.name][2] is None:
                made_in_fanout[server.name] = record
            if made_in_fanout.get(server.name) is not record or not record.flushes:
                continue
            base = int(state.plan_base[server._slot])
            reported_ack = max(float(state.plan_ack[base + row]) for row in record.reported)
            tail = after[server.name][1]
            if tail > reported_ack:
                start = max(now, reported_ack)
                return start + CUT_FRACTION * (tail - start), server.name
        return None

    cut_at, victim = _probe_cut(choose)

    def check(job, server):
        record = server._window_record()
        assert record is not None and record.reported and record.flushes
        assert record.agent_state is not None and record.wake is None
        state = job.server_state
        base = int(state.plan_base[server._slot])
        assert all(state.plan_ack[base + row] <= job.env.now for row in record.reported)
        assert state.chain_tail[server._slot] > job.env.now

    fast = _cut_run(True, cut_at, victim, cut, check)
    slow = _cut_run(False, cut_at, victim, cut)
    _compare(fast, slow, cut)


@pytest.mark.parametrize("cut", ["kill", "cohort"])
def test_record_of_a_retired_window_is_never_replayed(cut):
    """(b) A window with a record is retired by the fan-out's vectorized
    open; the next window on that slot, which has no record, is cut."""

    def choose(job, targets, before, after):
        now = job.env.now
        for server in targets:
            id_before, tail_before, record_before, _ = before[server.name]
            window_id, tail, record, _ = after[server.name]
            if (record_before is not None and record_before.reported
                    and tail_before < now and window_id != id_before and record is None):
                return now + CUT_FRACTION * (tail - now), server.name
        return None

    cut_at, victim = _probe_cut(choose)

    def check(job, server):
        # The server still holds the old window's record, stale by id.
        stale = server._record
        assert stale is not None and stale.reported and stale.agent_state is not None
        assert server._window_record() is None
        assert job.server_state.chain_tail[server._slot] > job.env.now

    fast = _cut_run(True, cut_at, victim, cut, check)
    slow = _cut_run(False, cut_at, victim, cut)
    _compare(fast, slow, cut)


def test_fanout_without_reports_leaves_no_record():
    """(c) A fan-out in which no server reports creates no record."""
    job, _ = build_scenario_job(WINDOW_SPEC, coalesce=True)
    state = job.server_state
    calls = {"quiet": 0, "before_any_report": 0}

    def on_call(targets, before, after):
        if any(after[name][3] != before[name][3] for name in after):
            return
        calls["quiet"] += 1
        for server in targets:
            if after[server.name][0] != before[server.name][0]:
                # Opened by this fan-out.
                assert after[server.name][2] is None
        if state.reports == 0:
            calls["before_any_report"] += 1
            assert all(server._window_record() is None for server in job.servers)
            assert state.records_created == 0

    _record_fanouts(job, on_call)
    job.start()
    job.env.run(until=job._completion_event)
    assert calls["quiet"] > 100 and calls["before_any_report"] > 5
    assert 0 < state.records_created <= state.reports


# ---------------------------------------------------------------------------
# The request-id list.
# ---------------------------------------------------------------------------


def _open_rows(state):
    size = len(state)
    return int((state.plan_end[:size] - state.plan_base[:size]).sum())


def test_request_list_stays_bounded_on_a_120_worker_run():
    """The list never outgrows twice the most rows ever open, plus the floor.

    A trim keeps the ids from the oldest open window's first row on, which
    that window's rows cover (every fan-out reaches every server), and the
    next trim comes when the list has doubled.  Windows can all close in
    between (a membership change rolls them back), so the bound is on the
    peak open rows, sampled after every fan-out, not on the rows open now.
    """
    from repro.baselines.registry import get_method
    from repro.experiments.runner import PSExperiment
    from repro.experiments.workloads import ExperimentScale

    job = PSExperiment(method=get_method("antdt-nd"),
                       scale=ExperimentScale.for_workers(120),
                       scenario=worker_scenario(0.8), seed=0).build_job()
    state = job.server_state
    env = job.env
    seen = {"peak_rows": 0}

    def on_call(targets, before, after):
        seen["peak_rows"] = max(seen["peak_rows"], _open_rows(state))
        assert len(state.requests) <= (2 * seen["peak_rows"]
                                       + ServerStateArrays._MIN_REQUESTS)

    _record_fanouts(job, on_call)
    job.start()
    env.run(until=job._completion_event)
    # Trimmed many times over.
    assert state.first_id > 3 * ServerStateArrays._MIN_REQUESTS
    # The result rewinds every window; nothing is left to hold.
    job._build_result(job.completion_time)
    assert state.requests == []


def test_departed_server_does_not_hold_the_prefix():
    spec = ScenarioSpec(
        name="probe-server-scale-in", method="antdt-nd", seed=5, iterations=60,
        topology=TopologySpec(num_workers=24, num_servers=4),
        elastic=ElasticSpec(servers=ServerElasticSpec(events=(
            ScaleEvent(time_s=5.0, action="in", count=1),))),
        description="probe: one server retires early, pushes go on")
    job, _ = build_scenario_job(spec, coalesce=True)
    servers = list(job.servers)
    job.start()
    job.env.run(until=job._completion_event)
    left = [event for event in job.server_membership.events if event.kind == LEFT]
    assert len(left) == 1
    state = job.server_state
    departed = next(server for server in servers if server.name == left[0].node)
    assert state.window(departed._slot) == slice(int(state.plan_base[departed._slot]),
                                                  int(state.plan_base[departed._slot]))
    assert state.first_id > 0
    assert min(request.submitted_at for request in state.requests) > left[0].time_s


def test_trim_retires_ended_windows_and_drops_the_dead_prefix():
    """A slot whose window ended and which gets no more commits pins nothing."""
    state = ServerStateArrays(2)
    quiet, busy = state.allocate_slot(), state.allocate_slot()
    env = Environment()

    def commit(slot, now, ack):
        request_id = state.add_requests([PushRequest("w", 1.0, Event(env), now)], now)
        state.reserve()
        state.append_rows(slot, int(state.plan_end[slot]), ack, 1.0, request_id)
        state.chain_tail[slot] = ack
        return request_id

    commit(quiet, 0.0, 1.0)
    now = 2.0
    for _ in range(ServerStateArrays._MIN_REQUESTS + 10):
        if len(state.requests) % 50 == 0:
            state.retire(busy)
        commit(busy, now, now + 1.0)
        now += 0.5
    # The quiet slot's ended window was retired; the busy one stays open.
    assert state.window(quiet).stop == state.window(quiet).start
    assert state.window_id(quiet) == -1
    oldest = int(state.plan_request[state.window(busy).start])
    assert state.first_id == oldest
    assert state.window_requests(busy)[0] is state.requests[0]
    assert len(state.requests) <= 60


def test_job_is_collected_mid_run():
    """Requests (and the latches and processes behind them) are visible to
    the cycle collector: a dropped job is freed with windows still open."""
    job, _ = build_scenario_job(WINDOW_SPEC, coalesce=True)
    job.start()
    job.env.run(until=12.0)
    assert job.server_state.requests and not job.completed
    ref = weakref.ref(job)
    del job
    gc.collect()
    assert ref() is None
