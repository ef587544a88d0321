"""Discrete-event simulation engine.

This module is the foundation substrate for the whole reproduction.  The paper
evaluates AntDT on physical Ant Group clusters; here every timing phenomenon
(batch processing time, queueing at parameter servers, barrier waits, pod
pending time, failover delay) is reproduced on top of a small generator-based
discrete-event simulator in the style of SimPy.

The public surface mirrors the subset of SimPy semantics we need:

* :class:`Environment` — owns the simulation clock and the event heap.
* :class:`Event` — one-shot events with callbacks, ``succeed``/``fail``.
* :class:`Timeout` — an event scheduled ``delay`` units in the future.
* :class:`Process` — a generator-based coroutine; yields events to wait on and
  can be interrupted (used to model node kills in ``KILL_RESTART``).
* :class:`AllOf` / :class:`AnyOf` — condition events over several events.
* :class:`Store` — an unbounded FIFO channel used for message queues between
  workers, servers, agents and the controller.

Cohort coalescing and quiescent-window fast-forward
---------------------------------------------------
Beyond the SimPy subset, the environment supports *absolute-time scheduling*
(:meth:`Environment.schedule_at` / :meth:`Environment.discard_scheduled`):
a component that can compute a whole window of deterministic future outcomes
closed-form — e.g. a parameter server acknowledging a cohort of queued pushes
whose handling times are all known — commits the window eagerly, schedules a
single wake-up event at the end of the window, and the clock fast-forwards
over the window in one heap pop instead of one pop per member.  Should the
window's quiescence break before it elapses (a failure, a straggler
transition, an elastic membership change), the committed tail is *rescinded*:
``discard_scheduled`` lazily kills the stale heap entries and the component
re-plans from the perturbation point.  The ``coalesce`` flag (or the
``REPRO_NO_COALESCE=1`` escape hatch at the experiment layer) turns the whole
mechanism off, falling back to strictly per-event stepping — both modes
produce byte-identical traces, which the golden suite pins.  The same switch
gates :class:`PollCohorts`, which lets idle pollers due at the same instant
share one heap entry.

The environment keeps the two event counters separate: ``processed_count``
counts *physical* heap pops, while :meth:`count_coalesced` accounts the
*logical* events a coalesced window stood in for, so throughput numbers stay
comparable with pre-coalescing benchmarks (see :mod:`repro.perf`).

Example
-------
>>> env = Environment()
>>> def hello(env, log):
...     yield env.timeout(3.0)
...     log.append(env.now)
>>> log = []
>>> _ = env.process(hello(env, log))
>>> env.run()
>>> log
[3.0]
"""

from __future__ import annotations

import gc
import heapq
import itertools
from collections import deque
from operator import attrgetter
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "CountdownEvent",
    "PeriodicTask",
    "PollCohorts",
    "Store",
    "StopSimulation",
    "PENDING",
]


class _PendingType:
    """Sentinel for an event value that has not been decided yet."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "<PENDING>"


#: Sentinel used as the value of untriggered events.
PENDING = _PendingType()

#: Scheduling priorities.  Urgent events (process initialisation, interrupts)
#: run before normal events scheduled for the same simulation time.
_URGENT = 0
_NORMAL = 1


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at a given event."""


class Interrupt(Exception):
    """Thrown into a :class:`Process` when it is interrupted.

    The ``cause`` attribute carries the reason supplied by the interrupter,
    e.g. a :class:`~repro.core.actions.KillRestart` action or a failure
    description from the failure injector.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:
        return f"Interrupt({self.cause!r})"


class Event:
    """A one-shot event that may succeed or fail.

    Events move through three stages: *pending* (just created), *triggered*
    (a value or an exception has been decided and the event sits in the event
    heap), and *processed* (callbacks have run).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or exception has been decided."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event succeeded with (or its exception)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    def defused(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env.scheduled_count += 1
        heapq.heappush(env._queue, (env._now, _NORMAL, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise ValueError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, _NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of another event onto this one (callback helper)."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = event._ok
        self._value = event._value
        self.env._schedule(self, _NORMAL)

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Timeouts are by far the most frequent event type (every compute step,
    network transfer and poll interval is one), so construction writes the
    heap entry directly instead of going through :meth:`Environment._schedule`.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        env.scheduled_count += 1
        heapq.heappush(env._queue, (env._now + delay, _NORMAL, next(env._eid), self))


class _Initialize(Event):
    """Internal event that starts a :class:`Process` on the next step."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self, _URGENT)


class _InterruptTrigger(Event):
    """Internal event that delivers an :class:`Interrupt` to a process."""

    __slots__ = ()

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks.append(process._resume)
        process.env._schedule(self, _URGENT)


class Process(Event):
    """A coroutine driven by the environment.

    The wrapped generator yields :class:`Event` instances; the process is
    resumed with the event's value when it triggers (or the event's exception
    is thrown into the generator).  The process itself is an event that
    triggers with the generator's return value when it finishes.
    """

    __slots__ = ("_generator", "_target", "_send", "_throw")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise ValueError("Process requires a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        # Bound methods cached once: _resume runs once per processed event and
        # the repeated attribute lookups through the generator add up.
        self._send = generator.send
        self._throw = generator.throw
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on (None when running)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process, throwing :class:`Interrupt` into it.

        Interrupting a finished process is an error; interrupting a process
        that currently waits on an event detaches it from that event first.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self._target is self:
            raise RuntimeError("a process cannot interrupt itself while running")
        _InterruptTrigger(self, cause)

    # -- driver -----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_process = self
        # Remove ourselves from the old target if we were pre-empted by an
        # interrupt while waiting on a different event.
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None and self._resume in self._target.callbacks:
                self._target.callbacks.remove(self._resume)
        self._target = None

        send = self._send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    next_event = self._throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                env._schedule(self, _NORMAL)
                break
            except BaseException as exc:  # noqa: BLE001 - propagate into event graph
                self._ok = False
                self._value = exc
                env._schedule(self, _NORMAL)
                break

            if not isinstance(next_event, Event):
                exc = RuntimeError(
                    f"process yielded a non-event {next_event!r}; yield env.timeout(...) "
                    "or another Event instance"
                )
                event = Event(env)
                event._ok = False
                event._value = exc
                continue

            callbacks = next_event.callbacks
            if callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = next_event
                continue

            callbacks.append(self._resume)
            self._target = next_event
            break

        env._active_process = None


class _Condition(Event):
    """Base class for :class:`AllOf` / :class:`AnyOf`.

    An input event only counts as "done" once it has been *processed* by the
    environment (its callbacks have run).  This matters for timeouts, which
    carry their value from creation but only fire at their scheduled time.
    """

    __slots__ = ("_events", "_done_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._events = own_events = list(events)
        self._done_count = 0
        for event in own_events:
            if not isinstance(event, Event):
                raise ValueError(f"{event!r} is not an Event")
        observe = self._observe
        for event in own_events:
            if event.callbacks is None:
                # Already processed before the condition was created.
                if not event._ok:
                    event._defused = True
                    if not self.triggered:
                        self.fail(event._value)
                    return
                self._done_count += 1
            else:
                event.callbacks.append(observe)
        self._check_done()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done_count += 1
        self._check_done()

    def _check_done(self) -> None:
        raise NotImplementedError

    def _collect(self) -> List[Any]:
        return [event._value for event in self._events
                if event.callbacks is None and event.triggered and event._ok]


class AllOf(_Condition):
    """Triggers once every event in ``events`` has been processed successfully."""

    __slots__ = ()

    def _check_done(self) -> None:
        if self._done_count >= len(self._events) and not self.triggered:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers as soon as any event in ``events`` has been processed successfully."""

    __slots__ = ()

    def _check_done(self) -> None:
        if not self.triggered and (self._done_count >= 1 or not self._events):
            self.succeed(self._collect())


class CountdownEvent(Event):
    """An event that succeeds after ``count`` calls to :meth:`count_down`.

    The fan-in primitive for the one-producer-per-slot pattern (a worker
    waiting for one acknowledgement from each parameter server): where
    ``AllOf`` needs one pending event per producer plus the condition — each a
    heap entry — a countdown latch is a single event and a decrement, which
    at 100+ workers removes the dominant share of heap traffic.  It succeeds
    with the value of the final ``count_down``.

    Coalesced producers contribute through :meth:`count_down_at` with an
    explicit (possibly future) completion time; the latch fires at the
    temporally latest contribution via :meth:`Environment.schedule_at`, so a
    mix of batch-committed and step-by-step producers still resolves at the
    same instant as fully sequential execution.  A non-zero ``fire_delay``
    folds the consumer's immediate follow-up wait (the worker's model pull)
    into the same heap entry, saving one event per fan-in.  Contributions
    can be withdrawn again with :meth:`rescind` when a coalesced window is
    rolled back.
    """

    __slots__ = ("_remaining", "_abandoned", "_fire_delay",
                 "_contributions", "_batch", "_fire_id")

    def __init__(self, env: "Environment", count: int,
                 fire_delay: float = 0.0) -> None:
        if count <= 0:
            raise ValueError("count must be positive")
        if fire_delay < 0:
            raise ValueError("fire_delay must be non-negative")
        super().__init__(env)
        self._remaining = int(count)
        self._abandoned = False
        self._fire_delay = fire_delay
        # (when, value) per count_down, in call order.  Kept so a rescinded
        # contribution can be removed and the firing time recomputed.
        self._contributions: List = []
        # A first count_down_many_at batch is kept as the caller's list of
        # times (each contribution valued with its own time) until another
        # contribution or a rescind needs the tuple form.
        self._batch: Optional[List[float]] = None
        self._fire_id: Optional[int] = None

    @property
    def remaining(self) -> int:
        """Pending ``count_down`` calls before the event succeeds."""
        return self._remaining

    @property
    def abandoned(self) -> bool:
        """True once the latch was neutralized via :meth:`abandon`."""
        return self._abandoned

    def abandon(self) -> None:
        """Neutralize the latch: it will never fire, remaining producers no-op.

        Used when the consumer leaves the simulation for good (elastic
        scale-in): producers that still hold a slot must not schedule a stale
        completion event into the heap for a waiter that no longer exists.
        Abandoning an already-triggered latch is an error — the completion
        has been published and cannot be retracted.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._abandoned = True

    def count_down(self, value: Any = None) -> int:
        """Record one completion; succeeds the event on the final call.

        On an abandoned latch this is a no-op (the remaining count is left
        untouched and no event is ever scheduled).
        """
        self.count_down_at(self.env._now, value)
        return self._remaining

    def _contribution_list(self) -> List:
        """The contributions as ``(when, value)`` tuples, in call order."""
        batch = self._batch
        if batch is not None:
            self._contributions.extend(zip(batch, batch))
            self._batch = None
        return self._contributions

    def count_down_at(self, when: float, value: Any = None) -> bool:
        """Record one completion that takes effect at absolute time ``when``.

        Coalesced producers call this with future acknowledgement times; the
        final contribution fires the latch at the *latest* contributed time
        (ties resolved in favour of the most recent call, matching the
        sequential execution where the last ``count_down`` wins), plus the
        latch's ``fire_delay``.  Returns True when this call armed the
        firing event.
        """
        if self._abandoned:
            return False
        if self._remaining <= 0:
            raise RuntimeError(f"{self!r} has already been fully counted down")
        self._remaining -= 1
        self._contribution_list().append((when, value))
        if self._remaining != 0:
            return False
        self._arm_fire()
        return True

    def count_down_many_at(self, whens) -> bool:
        """Record a batch of completions, each valued with its own time.

        Vectorised fan-out entry point: a producer that just committed one
        acknowledgement per slot calls this once with the list of all the
        ack times instead of issuing ``len(whens)`` ``count_down_at`` calls.
        The list is kept as is (the caller must not mutate it).  Returns
        True when the batch armed the firing event.
        """
        if self._abandoned:
            return False
        n = len(whens)
        if n > self._remaining:
            raise RuntimeError(f"{self!r} has already been fully counted down")
        self._remaining -= n
        if self._contributions or self._batch is not None:
            self._contribution_list().extend(zip(whens, whens))
        else:
            self._batch = whens
        if self._remaining != 0:
            return False
        self._arm_fire()
        return True

    def _arm_fire(self) -> None:
        """Schedule the latch at the latest contribution (latest call wins ties)."""
        if self._batch is not None:
            # Every batch contribution is valued with its own time, so equal
            # times carry equal values and the maximum decides alone.
            fire_when = fire_value = max(self._batch)
        else:
            contributions = self._contributions
            fire_when, fire_value = contributions[0]
            for contrib_when, contrib_value in contributions:
                if contrib_when >= fire_when:
                    fire_when, fire_value = contrib_when, contrib_value
        fire_delay = self._fire_delay
        self._fire_id = self.env.schedule_at(
            self, fire_when + fire_delay, fire_value)
        if fire_delay > 0.0:
            # The consumer's follow-up wait rode along on this heap entry:
            # account the timeout event it replaced.
            self.env.count_coalesced(1)

    def rescind(self, when: float, value: Any = None) -> None:
        """Withdraw one prior :meth:`count_down_at` contribution.

        Used when a coalesced window is rolled back before the contributed
        completion was delivered.  If the latch had already armed its firing
        event, the heap entry is discarded and the latch returns to the
        pending state so producers can contribute again.
        """
        self._contribution_list().remove((when, value))
        self._remaining += 1
        if self._fire_id is not None:
            env = self.env
            env.discard_scheduled(self._fire_id)
            self._fire_id = None
            self._ok = None
            self._value = PENDING
            if self._fire_delay > 0.0:
                env.coalesced_count -= 1


class PeriodicTask:
    """A deterministic periodic event stream the engine can fast-forward.

    Fires ``on_tick(when)`` every ``interval`` simulation seconds on the
    fixed grid ``base + k * interval`` (no accumulated drift).  When the
    pending heap holds *nothing but* periodic-task ticks and the run has a
    finite horizon, the run loop advances the clock in closed form instead of
    popping each tick — the quiescent-window fast-forward: each task receives
    one ``on_fold(n, last_when)`` call summarising the ``n`` ticks the window
    covered, and the skipped ticks are accounted as coalesced logical events
    (so logical throughput matches tick-by-tick execution exactly).

    Contract: both callbacks must be *quiescent* — they may update their own
    accumulators but must not schedule events, resume processes, or mutate
    state other simulation components read mid-window.  A periodic activity
    that interacts with the simulation is not a quiescent task; model it as a
    normal process loop.  Because tick times live on a fixed grid, a
    fast-forwarded window leaves the task in the bit-identical state
    tick-by-tick stepping produces (``Environment(coalesce=False)`` disables
    the fast-forward and pins that equivalence in the tests).
    """

    __slots__ = ("env", "interval", "on_tick", "on_fold",
                 "_base", "_index", "_eid", "_stopped")

    def __init__(self, env: "Environment", interval: float,
                 on_tick: Callable[[float], None],
                 on_fold: Callable[[int, float], None],
                 first_at: Optional[float] = None) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.interval = float(interval)
        self.on_tick = on_tick
        self.on_fold = on_fold
        first = float(first_at) if first_at is not None else env._now + self.interval
        if first < env._now:
            raise ValueError(f"first_at={first} lies in the past (now={env._now})")
        # Tick k fires at _base + (k+1) * interval; _index is the number of
        # ticks already fired (or folded).
        self._base = first - self.interval
        self._index = 0
        self._stopped = False
        env._periodic_tasks.append(self)
        self._schedule_tick()

    @property
    def ticks_elapsed(self) -> int:
        """Ticks fired or folded so far."""
        return self._index

    def _next_when(self) -> float:
        return self._base + (self._index + 1) * self.interval

    def _schedule_tick(self) -> None:
        env = self.env
        event = Event(env)
        event.callbacks.append(self._fire)
        self._eid = env.schedule_at(event, self._next_when())
        env._quiescent_pending += 1

    def _fire(self, _event: Event) -> None:
        env = self.env
        env._quiescent_pending -= 1
        self._eid = -1
        if self._stopped:
            return
        self._index += 1
        self.on_tick(env._now)
        if not self._stopped:
            # A tick callback may stop() its own task; then there is no next
            # tick to schedule.
            self._schedule_tick()

    def stop(self) -> None:
        """Cancel the stream; no further ticks fire (callable from a tick)."""
        if self._stopped:
            return
        self._stopped = True
        env = self.env
        if self._eid != -1:
            env.discard_scheduled(self._eid)
            env._quiescent_pending -= 1
        env._periodic_tasks.remove(self)

    def _fast_forward(self, until: float) -> int:
        """Fold every tick due in ``(now, until]``; returns how many."""
        interval = self.interval
        base = self._base
        # Largest k with base + k*interval <= until, robust to the last-ulp
        # ambiguity of the floor division.
        k = int((until - base) // interval)
        while base + k * interval > until:
            k -= 1
        while base + (k + 1) * interval <= until:
            k += 1
        n = k - self._index
        if n <= 0:
            return 0
        env = self.env
        env.discard_scheduled(self._eid)
        env._quiescent_pending -= 1
        self._index = k
        self.on_fold(n, base + k * interval)
        env.coalesced_count += n
        env.folded_count += n
        self._schedule_tick()
        return n


class _Cohort(Event):
    """The heap entry of one :class:`PollCohorts` cohort."""

    __slots__ = ("tickets", "keys", "when", "eid", "last_eid")


#: A ticket's callbacks: empty once its process was interrupted away.
_callbacks_of = attrgetter("callbacks")


class PollCohorts:
    """Idle pollers on one interval, sharing heap entries.

    Processes that poll shared state on a fixed interval and find nothing to
    do (workers waiting for a data shard) would each pop one timeout per
    poll.  A process whose next poll is expected to be a no-op parks here
    with :meth:`park` instead of yielding ``env.timeout(interval)``.  Parks
    due at the same instant whose timeouts would sit next to each other in
    heap order — no other event was scheduled between them — share one heap
    entry, a *cohort*.

    When a cohort fires, its members are visited in the order their
    timeouts would have fired.  ``first_acting(keys, start)`` returns the
    index of the first member at or after ``start`` whose poll would do
    anything (``len(keys)`` when none would).  Members before it stay
    parked: ``on_idle(n)`` applies the side effects of their ``n`` no-op
    polls, and they move on to the cohort due one interval later.  The
    acting member is resumed in place, exactly as its timeout firing would
    resume it; the members after it go back on the heap at the same instant,
    ahead of anything the woken process schedules, so every event keeps the
    position stepping gives it.

    An interrupted member (its process no longer waits on its ticket) is
    dropped when its cohort fires, as a cancelled timeout pops without
    effect.  Every member visited counts as one logical event.  Only
    components that coalesce use this; with ``coalesce=False`` they yield
    plain timeouts.
    """

    __slots__ = ("env", "interval", "first_acting", "on_idle", "_open")

    def __init__(self, env: "Environment", interval: float,
                 first_acting: Callable[[List[Any], int], int],
                 on_idle: Callable[[int], None]) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.env = env
        self.interval = interval
        self.first_acting = first_acting
        self.on_idle = on_idle
        # The newest cohort: a park joins it when due at the same instant
        # and no event id was drawn since the cohort's last member joined.
        self._open: Optional[_Cohort] = None

    def park(self, key: Any) -> Event:
        """Sleep one interval like ``env.timeout(interval)``, in a cohort.

        Returns the event the caller yields; ``key`` is what
        ``first_acting`` sees of this member when the poll falls due.
        """
        ticket = Event(self.env)
        self._join([ticket], [key], self.env._now + self.interval)
        return ticket

    def _join(self, tickets: List[Event], keys: List[Any], when: float) -> None:
        """Schedule members at ``when``, as consecutive timeouts would be."""
        # One id drawn per join stands in for the members' consecutive ids:
        # any event scheduled between two joins draws an id in between.
        eid = next(self.env._eid)
        cohort = self._open
        if cohort is not None and cohort.when == when and cohort.last_eid + 1 == eid:
            cohort.tickets.extend(tickets)
            cohort.keys.extend(keys)
        else:
            cohort = self._open = self._push(tickets, keys, when, eid)
        cohort.last_eid = eid

    def _push(self, tickets: List[Event], keys: List[Any], when: float,
              eid: int) -> _Cohort:
        env = self.env
        cohort = _Cohort(env)
        cohort._ok = True
        cohort._value = None
        cohort.callbacks.append(self._fire)
        cohort.tickets = tickets
        cohort.keys = keys
        cohort.when = when
        cohort.eid = eid
        env.scheduled_count += 1
        heapq.heappush(env._queue, (when, _NORMAL, eid, cohort))
        return cohort

    def _fire(self, cohort: _Cohort) -> None:
        env = self.env
        tickets = cohort.tickets
        keys = cohort.keys
        count = len(tickets)
        staying: List[Event] = []
        staying_keys: List[Any] = []
        start = 0
        while True:
            index = self.first_acting(keys, start)
            if index > start:
                # Members in [start, index) no-op; interrupted ones drop out.
                idle = tickets[start:index]
                if all(map(_callbacks_of, idle)):
                    staying.extend(idle)
                    staying_keys.extend(keys[start:index])
                else:
                    for ticket, key in zip(idle, keys[start:index]):
                        if ticket.callbacks:
                            staying.append(ticket)
                            staying_keys.append(key)
            if index >= count:
                break
            ticket = tickets[index]
            if not ticket.callbacks:
                start = index + 1
                continue
            self._stay(staying, staying_keys)
            env.coalesced_count += index
            if index + 1 < count:
                # The cohort's own heap slot was just popped, so its id
                # orders the rest before anything scheduled from now on.
                self._push(tickets[index + 1:], keys[index + 1:],
                           cohort.when, cohort.eid)
            callbacks, ticket.callbacks = ticket.callbacks, None
            ticket._ok = True
            ticket._value = None
            for callback in callbacks:
                callback(ticket)
            return
        self._stay(staying, staying_keys)
        env.coalesced_count += count - 1

    def _stay(self, tickets: List[Event], keys: List[Any]) -> None:
        """Apply the no-op polls of ``tickets`` and park them one interval on."""
        if tickets:
            self.on_idle(len(tickets))
            self._join(tickets, keys, self.env._now + self.interval)


class Store:
    """An unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns an event that triggers with the
    oldest item as soon as one is available.  This models the message queues
    between workers and parameter servers as well as the shard queue inside
    the Stateful DDS.
    """

    __slots__ = ("env", "items", "_getters")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: deque = deque()
        self._getters: deque = deque()

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        """Iterate over the queued items, oldest first (the store is unchanged)."""
        return iter(self.items)

    @property
    def has_getters(self) -> bool:
        """True while at least one ``get`` request waits for an item."""
        return bool(self._getters)

    def _confirmation(self, item: Any) -> Event:
        """Build the already-processed confirmation event ``put`` returns.

        ``put`` never blocks, so its event exists only to report the inserted
        item back to the caller; nothing ever registers a callback on it.
        Returning it pre-processed (instead of scheduling a no-op heap entry
        per message, as the seed engine did) keeps every ``put`` off the event
        heap entirely.
        """
        event = Event(self.env)
        event._ok = True
        event._value = item
        event.callbacks = None
        return event

    def put(self, item: Any) -> Event:
        """Insert ``item`` and immediately satisfy a waiting getter if any."""
        self.items.append(item)
        if self._getters:
            self._dispatch()
        return self._confirmation(item)

    def push(self, item: Any) -> None:
        """``put`` without the confirmation event.

        Hot-path variant for producers that discard ``put``'s return value
        (e.g. the parameter servers' request queues): same queue semantics,
        no per-message Event allocation.
        """
        self.items.append(item)
        if self._getters:
            self._dispatch()

    def put_left(self, item: Any) -> Event:
        """Insert ``item`` at the head of the queue (priority re-insertion)."""
        self.items.appendleft(item)
        if self._getters:
            self._dispatch()
        return self._confirmation(item)

    def get(self) -> Event:
        """Return an event that triggers with the next available item."""
        event = Event(self.env)
        if self.items and not self._getters:
            # Data ready and nobody queued ahead: equivalent to the event
            # passing through the getter queue, minus the queue round trip.
            event.succeed(self.items.popleft())
            return event
        self._getters.append(event)
        self._dispatch()
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: return an item or ``None`` when empty."""
        if self.items and not self._getters:
            return self.items.popleft()
        return None

    def hold(self, item: Any) -> None:
        """Append ``item`` without serving a waiting getter.

        For a consumer that is logically busy although its getter is parked
        (a coalesced window in flight): the item waits until :meth:`kick`.
        """
        self.items.append(item)

    def requeue_front(self, items: List[Any]) -> None:
        """Put ``items`` back at the head of the queue, keeping their order.

        Like :meth:`hold`, this serves no waiting getter; call :meth:`kick`
        once the consumer may take them.
        """
        self.items.extendleft(reversed(items))

    def drain(self) -> List[Any]:
        """Remove and return every queued item, oldest first."""
        items = list(self.items)
        self.items.clear()
        return items

    def kick(self) -> None:
        """Serve waiting getters from the queued items (see :meth:`hold`)."""
        self._dispatch()

    def cancel(self, get_event: Event) -> bool:
        """Withdraw a pending get request.

        Returns True if the request was still pending and has been removed.
        If the request already triggered, the caller still owns the delivered
        item (``get_event.value``) and is responsible for re-inserting it if
        it can no longer be processed (e.g. the consumer was interrupted).
        """
        try:
            self._getters.remove(get_event)
            return True
        except ValueError:
            return False

    def _dispatch(self) -> None:
        while self.items and self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(self.items.popleft())


class Environment:
    """The simulation environment: clock, event heap and run loop.

    The environment keeps two lightweight counters for the perf subsystem
    (:mod:`repro.perf`): ``scheduled_count`` is the number of events that
    entered the heap, ``processed_count`` the number whose callbacks ran.
    ``coalesced_count`` accounts the *logical* events that never became heap
    entries because a component committed them inside a coalesced window
    (see the module docstring); logical throughput is
    ``processed_count + coalesced_count``.

    ``coalesce`` gates whether components are allowed to batch at all:
    server request coalescing and the worker-side deferred-pull latch both
    consult it, so ``Environment(coalesce=False)`` reproduces the strictly
    event-per-request execution (the golden suite pins both modes to the
    same byte-identical traces).
    """

    __slots__ = ("_now", "_queue", "_eid", "_active_process",
                 "scheduled_count", "processed_count",
                 "coalesce", "coalesced_count", "folded_count", "_dead",
                 "_quiescent_pending", "_periodic_tasks")

    def __init__(self, initial_time: float = 0.0, coalesce: bool = True) -> None:
        self._now = float(initial_time)
        self._queue: List = []
        self._eid = itertools.count()
        self._active_process: Optional[Process] = None
        self.scheduled_count = 0
        self.processed_count = 0
        self.coalesce = bool(coalesce)
        self.coalesced_count = 0
        # Subset of coalesced_count contributed by quiescent-window tick
        # folding (PeriodicTask._fast_forward); coalesced_count minus this is
        # the cohort-commit share.  The perf subsystem reports both.
        self.folded_count = 0
        # Quiescent-window fast-forward bookkeeping: the number of pending
        # heap entries that are PeriodicTask ticks, and the live tasks.  When
        # every pending entry is a tick, the run loop advances closed-form.
        self._quiescent_pending = 0
        self._periodic_tasks: List[PeriodicTask] = []
        # Heap-entry ids rescinded via discard_scheduled().  Entries are
        # killed lazily: the run loop drops them on pop instead of paying an
        # O(n) heap rebuild per rescission.
        self._dead: set = set()

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between steps)."""
        return self._active_process

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` simulation time units."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition that waits for all ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition that waits for the first of ``events``."""
        return AnyOf(self, events)

    def store(self) -> Store:
        """Create a new FIFO :class:`Store`."""
        return Store(self)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        self.scheduled_count += 1
        heapq.heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def schedule_at(self, event: Event, when: float, value: Any = None) -> int:
        """Trigger ``event`` successfully at absolute time ``when``.

        The workhorse of coalesced commits: a component that has computed a
        future outcome closed-form publishes it here and receives the heap
        entry id back, which :meth:`discard_scheduled` accepts should the
        outcome need to be rescinded before it is delivered.  ``when`` must
        not lie in the past (the heap would deliver it out of order).
        """
        if when < self._now:
            raise ValueError(f"schedule_at({when}) lies in the past (now={self._now})")
        if event._value is not PENDING:
            raise RuntimeError(f"{event!r} has already been triggered")
        event._ok = True
        event._value = value
        self.scheduled_count += 1
        eid = next(self._eid)
        heapq.heappush(self._queue, (when, _NORMAL, eid, event))
        return eid

    def discard_scheduled(self, eid: int) -> None:
        """Rescind the heap entry ``eid`` (from :meth:`schedule_at`).

        The entry stays in the heap but is dropped, uncounted, when popped.
        The caller owns resetting the event's triggered state if the event
        object is to be reused.
        """
        self._dead.add(eid)

    def count_coalesced(self, n: int) -> None:
        """Account ``n`` logical events that were absorbed into a coalesced
        window instead of being scheduled individually."""
        self.coalesced_count += n

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        dead = self._dead
        while True:
            if not self._queue:
                raise RuntimeError("no more events scheduled")
            when, _priority, eid, event = heapq.heappop(self._queue)
            if dead and eid in dead:
                dead.discard(eid)
                continue
            break
        self._now = when
        self.processed_count += 1
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the event heap drains), a number
        (run until the clock reaches that time), or an :class:`Event` (run
        until that event is processed and return its value).
        """
        stop_event: Optional[Event] = None
        if until is None:
            stop_time = float("inf")
        elif isinstance(until, Event):
            stop_event = until
            stop_time = float("inf")
            if stop_event.callbacks is None:
                return stop_event.value
            stop_event.callbacks.append(self._stop_callback)
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(f"until={stop_time} lies in the past (now={self._now})")

        # The dispatch loop below is `step()` inlined with the queue, heappop
        # and counters bound to locals: one `step` runs per simulated event, so
        # the attribute lookups per iteration dominate the engine's own cost.
        #
        # The cyclic garbage collector is suspended for the duration of the
        # loop: a large simulation keeps millions of long-lived tracked
        # objects alive (coalesced plan entries, metric series), and each
        # generational collection re-traverses all of them — at 1,000 workers
        # the collector alone more than doubles the wall time.  The engine's
        # object graph is overwhelmingly acyclic (events and requests free by
        # refcount as they resolve), so deferring cycle detection until the
        # run returns only delays reclaiming the rare cycle, it never changes
        # behaviour.  Re-entrant runs (a run started from inside a callback)
        # leave the collector alone — the outermost run owns it.
        queue = self._queue
        heappop = heapq.heappop
        dead = self._dead
        processed = 0
        # Quiescent-window fast-forward: legal only with a finite horizon
        # (a pure periodic stream never drains on its own) and gated by the
        # same ``coalesce`` escape hatch as every other folding optimisation.
        can_fast_forward = self.coalesce and stop_time != float("inf")
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while queue:
                if queue[0][0] > stop_time:
                    self._now = stop_time
                    return None
                if can_fast_forward and self._quiescent_pending == len(queue):
                    # Every pending entry is a deterministic periodic tick:
                    # advance the window closed-form.  (Entries rescinded but
                    # not yet popped keep the counter below len(queue), which
                    # conservatively falls back to stepping.)
                    for task in list(self._periodic_tasks):
                        task._fast_forward(stop_time)
                    continue
                when, _priority, eid, event = heappop(queue)
                if dead and eid in dead:
                    dead.discard(eid)
                    continue
                self._now = when
                processed += 1
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None
        finally:
            self.processed_count += processed
            if gc_was_enabled:
                gc.enable()

        if stop_event is not None and not stop_event.triggered:
            raise RuntimeError("run(until=event) finished but the event never triggered")
        if until is not None and not isinstance(until, Event):
            self._now = stop_time
        return stop_event.value if stop_event is not None else None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        raise event._value
