"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Store,
    Timeout,
)


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(5.0)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [5.0]


def test_environment_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc(env):
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1.0, 3.0, 6.0]


def test_two_processes_interleave():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, "slow", 10.0))
    env.process(proc(env, "fast", 1.0))
    env.run()
    assert order == ["fast", "slow"]


def test_run_until_time_stops_clock():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=5.5)
    assert env.now == 5.5


def test_run_until_event_returns_value():
    env = Environment()
    done = env.event()

    def proc(env, done):
        yield env.timeout(3.0)
        done.succeed("finished")

    env.process(proc(env, done))
    assert env.run(until=done) == "finished"
    assert env.now == 3.0


def test_event_succeed_twice_raises():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(RuntimeError):
        _ = event.value


def test_event_fail_requires_exception():
    env = Environment()
    event = env.event()
    with pytest.raises(ValueError):
        event.fail("not an exception")


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 42

    process = env.process(proc(env))
    env.run()
    assert process.value == 42


def test_process_waits_on_event():
    env = Environment()
    gate = env.event()
    log = []

    def waiter(env, gate):
        value = yield gate
        log.append((env.now, value))

    def opener(env, gate):
        yield env.timeout(7.0)
        gate.succeed("open")

    env.process(waiter(env, gate))
    env.process(opener(env, gate))
    env.run()
    assert log == [(7.0, "open")]


def test_yield_non_event_raises():
    env = Environment()

    def proc(env):
        yield 123

    env.process(proc(env))
    with pytest.raises(RuntimeError):
        env.run()


def test_interrupt_waiting_process():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def killer(env, target):
        yield env.timeout(2.0)
        target.interrupt("die")

    target = env.process(victim(env))
    env.process(killer(env, target))
    env.run()
    assert log == [(2.0, "die")]


def test_interrupt_finished_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            yield env.timeout(5.0)
            log.append(env.now)

    def killer(env, target):
        yield env.timeout(1.0)
        target.interrupt()

    target = env.process(victim(env))
    env.process(killer(env, target))
    env.run()
    assert log == [6.0]


def test_all_of_waits_for_every_timeout():
    env = Environment()
    log = []

    def proc(env):
        yield env.all_of([env.timeout(2.0), env.timeout(5.0), env.timeout(1.0)])
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [5.0]


def test_any_of_fires_on_first_timeout():
    env = Environment()
    log = []

    def proc(env):
        yield env.any_of([env.timeout(2.0), env.timeout(5.0)])
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [2.0]


def test_any_of_with_pending_events():
    env = Environment()
    first = env.event()
    second = env.event()
    log = []

    def proc(env):
        yield env.any_of([first, second])
        log.append(env.now)

    def trigger(env):
        yield env.timeout(4.0)
        second.succeed()

    env.process(proc(env))
    env.process(trigger(env))
    env.run()
    assert log == [4.0]


def test_store_fifo_order():
    env = Environment()
    received = []

    def producer(env, store):
        for item in ("a", "b", "c"):
            yield env.timeout(1.0)
            store.put(item)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    store = env.store()
    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == ["a", "b", "c"]


def test_store_get_blocks_until_put():
    env = Environment()
    log = []

    def consumer(env, store):
        item = yield store.get()
        log.append((env.now, item))

    def producer(env, store):
        yield env.timeout(3.0)
        store.put("late")

    store = env.store()
    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert log == [(3.0, "late")]


def test_store_put_left_has_priority():
    env = Environment()
    store = env.store()
    store.put("second")
    store.put_left("first")
    assert store.try_get() == "first"
    assert store.try_get() == "second"


def test_store_try_get_empty_returns_none():
    env = Environment()
    store = env.store()
    assert store.try_get() is None


def test_store_cancel_pending_get():
    env = Environment()
    store = env.store()
    pending = store.get()
    assert store.cancel(pending) is True
    store.put("item")
    # The cancelled getter must not swallow the item.
    assert store.try_get() == "item"


def test_failed_event_propagates_into_process():
    env = Environment()
    log = []

    def proc(env, gate):
        try:
            yield gate
        except RuntimeError as error:
            log.append(str(error))

    gate = env.event()
    env.process(proc(env, gate))
    gate.fail(RuntimeError("boom"))
    env.run()
    assert log == ["boom"]


def test_run_until_past_time_raises():
    env = Environment()
    env._now = 10.0
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_peek_empty_queue_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def test_trigger_already_triggered_raises():
    env = Environment()
    source = env.event()
    source.succeed("src")
    target = env.event()
    target.succeed("already")
    with pytest.raises(RuntimeError):
        target.trigger(source)


def test_trigger_copies_outcome():
    env = Environment()
    source = env.event()
    source.succeed("payload")
    target = env.event()
    target.trigger(source)
    env.run()
    assert target.value == "payload"


def test_store_put_event_is_already_processed():
    # put never blocks, so its confirmation event is returned pre-processed
    # (no heap traffic per message); yielding it resumes immediately.
    env = Environment()
    store = env.store()
    event = store.put("thing")
    assert event.triggered and event.processed
    assert event.ok and event.value == "thing"


def test_store_push_enqueues_without_event():
    env = Environment()
    store = env.store()
    assert store.push("a") is None
    store.push("b")
    assert store.try_get() == "a"
    assert store.try_get() == "b"


def test_store_push_wakes_waiting_getter():
    env = Environment()
    store = env.store()
    log = []

    def consumer(env, store):
        item = yield store.get()
        log.append((env.now, item))

    def producer(env, store):
        yield env.timeout(2.0)
        store.push("late")

    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert log == [(2.0, "late")]


def test_store_get_with_item_available_is_immediate():
    env = Environment()
    store = env.store()
    store.push("ready")
    event = store.get()
    assert event.triggered and event.value == "ready"


def test_environment_counts_scheduled_and_processed_events():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(2.0)

    env.process(proc(env))
    assert env.processed_count == 0
    env.run()
    assert env.scheduled_count > 0
    # Every scheduled event is eventually processed when the heap drains.
    assert env.processed_count == env.scheduled_count


def test_step_counts_processed_events():
    env = Environment()
    env.timeout(1.0)
    env.step()
    assert env.processed_count == 1
    assert env.now == 1.0


# -- run horizons ---------------------------------------------------------------


def _ticker(env, interval, times, limit=None):
    while limit is None or len(times) < limit:
        yield env.timeout(interval)
        times.append(env.now)


@pytest.mark.parametrize("coalesce", [True, False])
def test_periodic_process_to_numeric_horizon(coalesce):
    env = Environment(coalesce=coalesce)
    times = []
    env.process(_ticker(env, 0.7, times))
    env.run(until=100.0)
    assert env.now == 100.0
    assert len(times) == 142
    assert times[-1] <= 100.0 < times[-1] + 0.7
    # One timeout per tick plus the process start; nothing is coalesced.
    assert env.processed_count == len(times) + 1
    assert env.coalesced_count == 0


def test_numeric_horizons_resume_on_the_same_grid():
    split = Environment()
    split_times = []
    split.process(_ticker(split, 0.3, split_times))
    split.run(until=10.0)
    first_window = len(split_times)
    split.run(until=20.0)

    whole = Environment()
    whole_times = []
    whole.process(_ticker(whole, 0.3, whole_times))
    whole.run(until=20.0)

    assert 0 < first_window < len(split_times)
    assert split_times == whole_times
    assert split.now == whole.now == 20.0


def test_event_due_exactly_at_horizon_is_processed():
    env = Environment()
    fired = []
    env.timeout(5.0).callbacks.append(lambda event: fired.append(env.now))
    env.timeout(5.5).callbacks.append(lambda event: fired.append(env.now))
    env.run(until=5.0)
    assert fired == [5.0]
    assert env.now == 5.0
    env.run()
    assert fired == [5.0, 5.5]


def test_run_without_horizon_drains_a_finite_process():
    env = Environment()
    times = []
    env.process(_ticker(env, 0.25, times, limit=7))
    env.run()
    assert times == [0.25 * k for k in range(1, 8)]
    assert env.now == 1.75
    assert env.peek() == float("inf")


def test_run_until_processed_event_returns_its_value_at_once():
    env = Environment()
    done = env.event()
    done.succeed("early")
    env.run()
    env.timeout(4.0)
    assert env.run(until=done) == "early"
    # Nothing ran: the pending timeout is still queued.
    assert env.now == 0.0
    assert env.peek() == 4.0


def test_run_until_event_that_never_fires_raises():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(RuntimeError, match="never triggered"):
        env.run(until=env.event())


def test_run_restores_the_garbage_collector_state():
    import gc

    was_enabled = gc.isenabled()
    try:
        gc.enable()
        env = Environment()
        seen = []
        env.timeout(1.0).callbacks.append(lambda event: seen.append(gc.isenabled()))
        env.run()
        assert seen == [False]
        assert gc.isenabled()

        gc.disable()
        env.timeout(1.0)
        env.run()
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
