"""Unit tests for the engine's idle-poll cohorts and the Store/latch API.

:class:`~repro.sim.engine.PollCohorts` must be a pure speed-up over plain
``env.timeout(interval)`` polling: the same events in the same order, the
same side effects, the same logical event count.  These tests run one small
poll-driven model both ways and compare everything it records, including
work that appears exactly on a poll instant (a tie) and interrupts that land
on a parked poller.
"""

import numpy as np
import pytest

from repro.sim.engine import CountdownEvent, Environment, Interrupt, PollCohorts

INTERVAL = 0.5


def _poll_model(use_cohorts: bool):
    """Ten pollers sharing a work counter; work arrives on and off the grid.

    Like the training workers, a poller also acts when a broadcast happened
    since its last poll (a per-member condition).
    """
    env = Environment()
    log = []
    state = {"work": 0, "idle": 0, "generation": 0}
    applied = {}

    def on_idle(count):
        state["idle"] += count

    def first_acting(keys, start):
        if state["work"] > 0:
            return start
        for index in range(start, len(keys)):
            if applied[keys[index]] != state["generation"]:
                return index
        return len(keys)

    def broadcaster():
        for delay in (6.0, 2.3):
            yield env.timeout(delay)
            state["generation"] += 1

    cohorts = (PollCohorts(env, INTERVAL, first_acting, on_idle)
               if use_cohorts else None)

    def producer():
        # Created first: on a tie with the pollers it runs before them.
        for delay, amount in ((3.0, 2), (1.25, 1), (4.0, 3), (0.5, 1)):
            yield env.timeout(delay)
            state["work"] += amount
            log.append((env.now, "work", amount))

    def poller(name):
        applied[name] = 0
        while True:
            try:
                if applied[name] != state["generation"]:
                    applied[name] = state["generation"]
                    log.append((env.now, name, "sync"))
                    yield env.timeout(0.1)
                    continue
                if state["work"] > 0:
                    state["work"] -= 1
                    log.append((env.now, name, "take"))
                    yield env.timeout(2.0)
                    continue
                state["idle"] += 1
                if cohorts is None:
                    yield env.timeout(INTERVAL)
                else:
                    yield cohorts.park(name)
            except Interrupt as interrupt:
                log.append((env.now, name, "interrupted", interrupt.cause))
                if interrupt.cause == "leave":
                    return
                yield env.timeout(1.0)

    env.process(producer())
    env.process(broadcaster())
    processes = [env.process(poller(f"p{index}")) for index in range(10)]

    def interrupter():
        yield env.timeout(2.2)
        processes[4].interrupt("kill")        # parked between poll instants
        yield env.timeout(0.3)
        processes[7].interrupt("leave")       # exactly on a poll instant

    env.process(interrupter())
    env.run(until=20.0)
    return log, state, env


def test_poll_cohorts_match_plain_timeouts():
    plain_log, plain_state, plain_env = _poll_model(use_cohorts=False)
    cohort_log, cohort_state, cohort_env = _poll_model(use_cohorts=True)
    assert cohort_log == plain_log
    assert cohort_state == plain_state
    # Same logical events; far fewer heap pops.
    assert (cohort_env.processed_count + cohort_env.coalesced_count
            == plain_env.processed_count)
    assert cohort_env.processed_count < plain_env.processed_count / 2


def test_poll_cohort_members_share_one_heap_entry():
    env = Environment()
    cohorts = PollCohorts(env, INTERVAL, lambda keys, start: len(keys),
                          lambda count: None)
    tickets = [cohorts.park(index) for index in range(5)]
    assert len(env._queue) == 1
    # An event scheduled in between breaks the adjacency: a new cohort.
    env.timeout(INTERVAL)
    cohorts.park(5)
    assert len(env._queue) == 3
    assert all(not ticket.triggered for ticket in tickets)


def test_poll_cohorts_reject_a_non_positive_interval():
    with pytest.raises(ValueError):
        PollCohorts(Environment(), 0.0, lambda keys, start: len(keys),
                    lambda count: None)


def test_latch_batch_contributions_fire_at_the_latest_and_rescind():
    env = Environment()
    latch = CountdownEvent(env, 3)
    latch.count_down_many_at([2.0, 5.0, 3.0])
    fired = []
    latch.callbacks.append(lambda event: fired.append((env.now, event.value)))
    # Rescinding a batch contribution re-arms the latch from the rest.
    latch.rescind(5.0, 5.0)
    assert latch.remaining == 1 and not latch.triggered
    latch.count_down_at(4.0, 4.0)
    env.run()
    assert fired == [(4.0, 4.0)]


@pytest.mark.parametrize("rescind", [False, True], ids=["armed", "rescinded"])
def test_latch_array_batch_fires_like_a_list_batch(rescind):
    outcomes = []
    for whens in ([2.0, 5.0, 3.0, 1.0], np.array([2.0, 5.0, 3.0, 1.0])):
        env = Environment()
        latch = CountdownEvent(env, 4, fire_delay=0.25)
        latch.count_down_many_at(whens[:3])
        latch.count_down_many_at(whens[3:])
        fired = []
        latch.callbacks.append(lambda event: fired.append((env.now, event.value)))
        # A latch armed by one batch alone takes its maximum directly.
        single = CountdownEvent(env, 3)
        single.count_down_many_at(whens[:3])
        single.callbacks.append(lambda event: fired.append((env.now, event.value)))
        if rescind:
            latch.rescind(5.0, 5.0)
            assert latch.remaining == 1 and not latch.triggered
            latch.count_down_many_at(whens[:1])
        env.run()
        # The latest contribution decides, and it came with the first batch.
        assert [type(value) for _, value in fired] == [float, float]
        outcomes.append((fired, env.coalesced_count))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == ([(3.25, 3.0), (5.0, 5.0)] if rescind
                              else [(5.0, 5.0), (5.25, 5.0)])


def test_store_public_api_for_held_items():
    env = Environment()
    store = env.store()
    got = store.get()
    assert store.has_getters
    store.hold("a")
    store.requeue_front(["x", "y"])
    assert list(store) == ["x", "y", "a"] and not got.triggered
    store.kick()
    env.run()
    assert got.value == "x"
    assert store.drain() == ["y", "a"] and len(store) == 0
