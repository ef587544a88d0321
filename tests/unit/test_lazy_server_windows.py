"""Eager server windows end without a heap event of their own.

A window opened by a commit at submit time (the server parked on an empty
queue) schedules no wake-up: the next commit, enqueue or rollback that finds
its last acknowledgement in the past retires it, and the logical event its
end stands for is credited when it opens.  Each test drives one standalone
server through the same script with coalescing on and off and requires the
observables, the logical event count included, to agree at every checkpoint.
"""

from repro.core.agent import AgentGroup
from repro.core.config import AntDTConfig
from repro.core.monitor import Monitor
from repro.psarch.config import PSJobConfig
from repro.psarch.server import ParameterServer, PushRequest
from repro.sim.cluster import Cluster, NodeRole, NodeSpec
from repro.sim.engine import Environment, Event
from repro.sim.hardware import CPU_SERVER_4C
from repro.sim.metrics import MetricsRecorder
from repro.sim.scheduler import ClusterScheduler, PendingTimeModel

#: Push size: 0.01 s of device overhead plus 0.49 s of bytes per request.
NBYTES = 0.49e9

#: When the script's first push lands (the server is parked by then).
FIRST_PUSH_AT = 1.0


def _server(coalesce):
    env = Environment(coalesce=coalesce)
    cluster = Cluster("c", [NodeSpec(name="server-0", role=NodeRole.SERVER,
                                     device=CPU_SERVER_4C)])
    scheduler = ClusterScheduler(
        env, cluster, pending_model=PendingTimeModel(idle_pending_time=5.0),
        node_init_time=5.0)
    metrics = MetricsRecorder()
    metrics.use_columns(Monitor.SERVER_BPT)
    agent = AgentGroup(Monitor(metrics), AntDTConfig()).create_agent(
        "server-0", is_worker=False)
    server = ParameterServer(
        env=env, node=cluster.get("server-0"), agent=agent, config=PSJobConfig(),
        scheduler=scheduler, metrics=metrics, delay_fraction_provider=lambda: 1.0)
    server.start()
    return env, server


def _window(server):
    """``(window id, record)`` of the server's open window, or None."""
    window_id = server._state.window_id(server._slot)
    if window_id < 0:
        return None
    return window_id, server._window_record()


def _window_rows(server):
    """Rows in the server's open window."""
    window = server._state.window(server._slot)
    return window.stop - window.start


def _ack_after(server, start):
    """Acknowledgement time of a push whose handling starts at ``start``."""
    return start + (server.node.device.base_overhead
                    + NBYTES * server.config.server_per_byte_cost_s)


def _at(env, when):
    """An event processed at exactly ``when``."""
    event = Event(env)
    env.schedule_at(event, when)
    return event


def _observe(env, server, dones):
    series = server.metrics.series(Monitor.SERVER_BPT, server.name)
    now = env.now
    due = [(time, value) for time, value in zip(series.times(), series.values())
           if time <= now]
    return {
        "now": now,
        "logical": env.processed_count + env.coalesced_count,
        "acked": [done.value if done.processed else None for done in dones],
        "series": due,
        "pending": server.pending_request_count(),
    }


def _run(coalesce, script, checkpoints):
    """Run ``script(env, server, dones)`` as a process; observe at each checkpoint."""
    env, server = _server(coalesce)
    dones = []
    env.process(script(env, server, dones))
    views = []
    for when in checkpoints:
        env.run(until=when)
        views.append(_observe(env, server, dones))
    return env, server, views


def _both_modes(script, checkpoints, in_flight=()):
    """Run ``script`` in both modes and compare every checkpoint.

    Logical counts are compared only where no request is in flight: a
    commit credits its event when it is made, stepping pops it at the
    acknowledgement.
    """
    fast = _run(True, script, checkpoints)
    slow = _run(False, script, checkpoints)
    for when, fast_view, slow_view in zip(checkpoints, fast[2], slow[2]):
        if when in in_flight:
            fast_view = dict(fast_view, logical=None)
            slow_view = dict(slow_view, logical=None)
        assert fast_view == slow_view, f"observables differ at t={when}"
    return fast


def test_push_on_the_last_acknowledgement_joins_the_window():
    rows = []

    def script(env, server, dones):
        yield env.timeout(FIRST_PUSH_AT)
        dones.append(server.submit("w0", NBYTES))
        yield _at(env, _ack_after(server, env.now))
        dones.append(server.submit("w1", NBYTES))
        if env.coalesce:
            rows.append(_window_rows(server))

    _, _, views = _both_modes(script, [3.0])
    # Stepping finds the server still on its last request at that instant
    # and takes the push without a queue pop: one window, not two.
    assert rows == [2]
    assert views[-1]["acked"] == [1.5, 2.0]


def test_ended_window_is_retired_by_the_next_commit():
    plans = []

    def script(env, server, dones):
        yield env.timeout(FIRST_PUSH_AT)
        dones.append(server.submit("w0", NBYTES))
        plans.append(_window(server))
        yield env.timeout(1.0)
        if env.coalesce:
            # Ended at 1.5 and still open: nothing has retired it yet.
            assert _window(server) == plans[0]
        dones.append(server.submit("w1", NBYTES))
        plans.append(_window(server))

    _, server, views = _both_modes(script, [1.75, 3.0])
    first, second = plans[:2]
    assert first[0] != second[0] and _window(server) == second
    # Neither window scheduled a wake-up, and the logical count matched
    # stepping at 1.75 s, between the first window's end and its retirement.
    assert first[1].wake is None and second[1].wake is None


def test_request_held_behind_a_live_window_reaches_the_server_at_its_end():
    def script(env, server, dones):
        yield env.timeout(FIRST_PUSH_AT)
        dones.append(server.submit("w0", NBYTES))
        yield env.timeout(0.2)
        held = PushRequest("w1", NBYTES, Event(env), env.now)
        dones.append(held.done)
        server.enqueue(held)

    _, server, views = _both_modes(script, [1.3, 2.5], in_flight=(1.3,))
    assert views[0]["pending"] == 1
    # Handled from the window's last acknowledgement on, not on arrival.
    assert views[-1]["acked"] == [1.5, 2.0]
    assert _window(server) is None


def test_finalize_closes_an_ended_window_that_was_never_retired():
    def script(env, server, dones):
        yield env.timeout(FIRST_PUSH_AT)
        dones.append(server.submit("w0", NBYTES))

    results = []
    for coalesce in (True, False):
        env, server, views = _run(coalesce, script, [2.0])
        assert (_window(server) is not None) == coalesce
        server.finalize_run()
        assert _window(server) is None
        results.append((views, _observe(env, server, []), server.requests_handled,
                        len(server.queue)))
    assert results[0] == results[1]
    assert results[0][2] == 1


def test_rollback_restores_the_agent_to_before_the_first_report():
    """Every commit reports here (no stride provider): the window's record
    snapshots the agent at its first report, not at a later one."""

    def script(env, server, dones):
        yield env.timeout(FIRST_PUSH_AT)
        for worker in ("w0", "w1", "w2"):
            dones.append(server.submit(worker, NBYTES))
        # The third request is in flight (acks at 1.5, 2.0 and 2.5).
        yield env.timeout(1.2)
        server.on_cohort_change()

    results = []
    for coalesce in (True, False):
        env, server, views = _run(coalesce, script, [3.0])
        agent = server.agent
        results.append((views, list(agent._bpt_buffer), agent._iterations_since_report,
                        agent.group.report_overhead_s, server.requests_handled))
    assert results[0] == results[1]
    assert len(results[0][1]) == 3
