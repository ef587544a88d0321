"""Simulated parameter server nodes.

Each server owns a shard of the model parameters and processes push requests
from workers through a FIFO queue.  A contended server (the paper's server
straggler) takes longer per request, so its queue backs up and every worker's
:math:`T^s_i` and :math:`T^m_i` grow — which is why only KILL_RESTART helps.

Cohort request coalescing
-------------------------
The FIFO discipline makes a server's near future fully determined the moment
a request arrives: with a deterministic contention model every handling
time — and therefore every acknowledgement time — is a closed-form function
of the time handling starts.  When coalescing is enabled the server exploits
this at two levels:

* **Eager submit-side commits.**  While the server is idle (parked on its
  queue) an arriving request never touches the queue at all: ``submit``
  computes the acknowledgement closed-form, writes one row into the open
  window (:class:`ServerStateArrays`) and publishes the acknowledgement at
  its future time.  The server process stays parked — a full iteration of
  W pushes costs zero generator resumes and zero store round trips per
  server, and a push to every server is one vectorized write per column.
* **Batch commits.**  When requests did accumulate in the queue (after a
  restart, a rollback or a drain re-route), the server process commits the
  whole backlog at once and sleeps until the window's end on a single
  wake-up event.

An eager window schedules no wake-up at all: nothing has to happen at its
end unless a request queues behind it.  It is retired lazily by the next
commit, enqueue or rollback that finds its last acknowledgement in the past.
A 1,000-worker iteration that used to cost W×S heap pops per server costs
none on the server side.

Quiescence can break before a window elapses — a kill-restart, an elastic
membership change (which moves the report stride every server samples), a
worker draining out, or a contention swap.  Every such perturbation rolls the
uncommitted tail back (:meth:`ParameterServer._rollback_plan`): future
acknowledgements are rescinded, observable side effects (the ``server_bpt``
series, the agent's report buffer, the overhead ledger) are rewound to their
pre-window state and the already-delivered prefix is replayed, and the
rescinded requests return to the queue front for re-planning.  That state is
derived from the window's rows, plus a small record (:class:`_BatchPlan`)
that only windows with a report, a private acknowledgement or a wake-up
carry.  The golden suite pins coalesced and uncoalesced execution to
byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.agent import Agent
from ..elastic.membership import SCALE_IN
from ..sim.cluster import Node
from ..sim.engine import CountdownEvent, Environment, Event, Interrupt, PENDING, Store
from ..sim.failures import ErrorCode
from ..sim.metrics import MetricsRecorder
from ..sim.scheduler import ClusterScheduler
from .config import PSJobConfig

__all__ = ["PushRequest", "ServerStateArrays", "ParameterServer"]


@dataclass(slots=True)
class PushRequest:
    """One worker->server gradient push awaiting processing."""

    worker: str
    nbytes: float
    done: Event
    submitted_at: float = 0.0


class ServerStateArrays:
    """Per-server serving state for a whole job, as numpy arrays.

    The columnar twin of :class:`~repro.psarch.worker.WorkerStateArrays`,
    owned by the job with one slot per server ever admitted.  Keeping the
    acknowledgement chain tail, the handled-request counter, the
    per-request overhead and the open coalesced windows columnar lets the
    job commit one worker's whole push fan-out — one request per server —
    as a handful of vectorized array operations (:meth:`PSTrainingJob.push_fanout
    <repro.psarch.job.PSTrainingJob.push_fanout>`) instead of S scalar
    ``submit`` calls.

    A window is nothing but its rows.  The rows of each slot live in flat
    column blocks of ``window_rows`` rows per slot: row ``r`` of slot ``s``
    sits at position ``plan_base[s] + r`` (``s * window_rows + r``), and the
    rows end at ``plan_end[s]``; a window is open exactly while
    ``plan_end[s] > plan_base[s]``.  The columns are the row's
    acknowledgement time, its handling time and its request id.  A row's
    handling starts at the previous row's acknowledgement (or at its commit
    instant, never in the future, for the first one), so the ack column
    also tells which rows have not started.

    Request ids index one job-level list, ``requests`` (a list keeps the
    requests visible to the cycle collector, which cannot see into numpy
    object arrays).  Ids are assigned in commit order, and one fan-out's
    request is shared by every server it reaches.  When the list has
    doubled since it was last trimmed, windows that have ended are retired
    and every id below the first row of the oldest open window — dead by
    construction — is dropped.

    A window is known by the request id of its first row (:meth:`window_id`):
    ids are never reused, so opening a new window on a slot changes it.  The
    rare per-window facts (a report fired, a private acknowledgement, a
    wake-up) live in a :class:`_BatchPlan` record that exists only once a
    window needs one and is keyed by that id, so retiring a window
    (:meth:`retire`, one write) leaves its record stale without touching
    it.  A window's rows are reused once it is retired, so the blocks are
    sized by the longest open window, not by the run.

    Slots are append-only: a departed server's slot keeps its final values,
    and elastic joins extend the arrays.
    """

    _FIELDS = ("chain_tail", "handled", "overhead", "eligible")
    _COLUMNS = ("plan_ack", "plan_handling", "plan_request")
    #: Rows per slot before the first growth (doubled as windows need).
    _INITIAL_WINDOW_ROWS = 64
    #: Request-list length below which it is never trimmed.
    _MIN_REQUESTS = 256

    def __init__(self, capacity: int = 0) -> None:
        capacity = max(int(capacity), 4)
        #: Last committed acknowledgement time (handling of the next request
        #: starts at ``max(chain_tail, now)``).
        self.chain_tail = np.zeros(capacity, dtype=np.float64)
        #: Requests handled (committed), the report-stride counter.
        self.handled = np.zeros(capacity, dtype=np.int64)
        #: Per-request base overhead of the node's device (fixed per slot).
        self.overhead = np.zeros(capacity, dtype=np.float64)
        #: Whether the slot accepts vectorized eager commits right now:
        #: the server is parked on an empty queue, coalescing is on, and
        #: its contention model is null (affine handling times).
        self.eligible = np.zeros(capacity, dtype=bool)
        self.window_rows = self._INITIAL_WINDOW_ROWS
        cells = capacity * self.window_rows
        self.plan_ack = np.zeros(cells, dtype=np.float64)
        self.plan_handling = np.zeros(cells, dtype=np.float64)
        self.plan_request = np.zeros(cells, dtype=np.int64)
        self.plan_base = np.arange(capacity, dtype=np.int64) * self.window_rows
        self.plan_end = self.plan_base.copy()
        #: The requests the ``plan_request`` ids point at; id ``i`` is
        #: ``requests[i - first_id]``.
        self.requests: List[PushRequest] = []
        self.first_id = 0
        self._trim_at = self._MIN_REQUESTS
        #: Deterministic work counters: window records created, agent
        #: reports made by window commits (replays included) and window
        #: wake-ups scheduled.  A record is made only for a report, a
        #: wake-up or a private acknowledgement.
        self.records_created = 0
        self.reports = 0
        self.wakes = 0
        # Upper bound on every window's length, kept without a reduction
        # per commit: it only grows until it reaches window_rows, and is
        # then recomputed exactly.
        self._longest = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def allocate_slot(self) -> int:
        """Claim the next slot (growing the arrays when full); returns its index."""
        slot = self._size
        capacity = len(self.chain_tail)
        if slot >= capacity:
            grown = max(capacity * 2, slot + 1)
            for name in self._FIELDS:
                array = getattr(self, name)
                extended = np.zeros(grown, dtype=array.dtype)
                extended[:capacity] = array
                setattr(self, name, extended)
            self._resize_blocks(grown, self.window_rows)
        self._size = slot + 1
        return slot

    def _resize_blocks(self, new_slots: int, new_rows: int) -> None:
        """Re-lay the window blocks for ``new_slots`` slots of ``new_rows`` rows."""
        slots = len(self.plan_base)
        rows = self.window_rows
        for name in self._COLUMNS:
            block = getattr(self, name)
            grown = np.zeros((new_slots, new_rows), dtype=block.dtype)
            grown[:slots, :rows] = block.reshape(slots, rows)
            setattr(self, name, grown.reshape(-1))
        lengths = self.plan_end - self.plan_base
        self.window_rows = new_rows
        self.plan_base = np.arange(new_slots, dtype=np.int64) * new_rows
        self.plan_end = self.plan_base.copy()
        self.plan_end[:slots] += lengths

    def reserve(self) -> None:
        """Make room for one more entry in every slot's window."""
        if self._longest >= self.window_rows:
            self._longest = int((self.plan_end - self.plan_base).max())
            if self._longest >= self.window_rows:
                self._resize_blocks(len(self.plan_base), 2 * self.window_rows)
        self._longest += 1

    def retire(self, slots) -> None:
        """Close the windows of ``slots`` (an index or an array of distinct ones).

        Their rows become free and their records stale.  The fan-out retires
        every window it is about to reopen with one call.
        """
        self.plan_end[slots] = self.plan_base[slots]

    def window_id(self, slot: int) -> int:
        """The request id of the open window's first row; -1 with no window."""
        base = self.plan_base[slot]
        if self.plan_end[slot] == base:
            return -1
        return int(self.plan_request[base])

    def add_requests(self, requests: List[PushRequest], now: float) -> int:
        """Give ``requests`` consecutive ids; returns the first one.

        Trims the list first when it has doubled since the last trim, which
        retires every window that ended before ``now``.
        """
        if len(self.requests) >= self._trim_at:
            self.trim(now)
        first = self.first_id + len(self.requests)
        self.requests.extend(requests)
        return first

    def trim(self, now: float) -> None:
        """Drop every request below the first row of the oldest open window.

        Windows that ended before ``now`` are retired first, so a server
        that receives no more commits does not hold the prefix alive.
        """
        size = self._size
        base = self.plan_base[:size]
        ended = (self.plan_end[:size] > base) & (self.chain_tail[:size] < now)
        self.retire(np.flatnonzero(ended))
        open_base = base[self.plan_end[:size] > base]
        keep_from = (int(self.plan_request[open_base].min()) if len(open_base)
                     else self.first_id + len(self.requests))
        del self.requests[:keep_from - self.first_id]
        self.first_id = keep_from
        self._trim_at = max(2 * len(self.requests), self._MIN_REQUESTS)

    def append_rows(self, slots, at, acks, handlings, request_ids) -> None:
        """Write one window row per slot, at block position ``at``.

        The one commit routine of every coalesced window: the fan-out passes
        arrays (one scatter per column), scalar commits pass scalars.
        ``at`` is the slot's ``plan_end``, read after :meth:`reserve`.
        """
        self.plan_ack[at] = acks
        self.plan_handling[at] = handlings
        self.plan_request[at] = request_ids
        self.plan_end[slots] = at + 1

    def window(self, slot: int) -> slice:
        """Block positions of the rows in ``slot``'s open window."""
        return slice(int(self.plan_base[slot]), int(self.plan_end[slot]))

    def window_requests(self, slot: int) -> List[PushRequest]:
        """The requests of ``slot``'s open window, in row order."""
        requests = self.requests
        first_id = self.first_id
        return [requests[i - first_id]
                for i in self.plan_request[self.window(slot)].tolist()]

    def total_requests_handled(self) -> int:
        """Requests handled across every slot (vectorized)."""
        return int(self.handled[:self._size].sum())


class _BatchPlan:
    """The rare facts of one open window, created only once it needs them.

    Most windows never need one: the rows in :class:`ServerStateArrays`
    are the whole window, and its rollback snapshot is derived from them.
    Each row adds one handled request and one ``server_bpt`` point, and
    each report flush one more point, so before the window the handled
    counter stood ``rows`` lower and the series ``rows + flushes`` shorter.
    A window gets a record at its first report (which snapshots the agent's
    report state, the one thing rows cannot give back), its first private
    acknowledgement, or its wake-up.  The snapshot can wait for the first
    report because only this server's own commits change its agent's report
    state, and no window is open across a relaunch.  The record is live
    while ``window_id`` is its slot's :meth:`ServerStateArrays.window_id`.

    Logical events: per-request stepping spends k+1 events on a window of k
    requests (the pop that feeds the first request and k handling
    timeouts), and a coalesced window accounts the same k+1.  Every commit
    credits one to ``env.coalesced_count``.  The remaining event is the
    window's end: a physical pop when the window has a wake-up, otherwise
    one credit given when the eager window opens.  A batch window is fed by
    one physical queue pop and ends on its wake-up, so its commits credit
    only k-1.
    """

    __slots__ = ("window_id", "private", "reported", "wake", "wake_id",
                 "agent_state", "flushes")

    def __init__(self, window_id: int) -> None:
        self.window_id = window_id
        #: Rows whose acknowledgement is not a contribution to a shared
        #: latch, mapped to the heap id of their private acknowledgement
        #: event, or to None when nothing was published (the event had
        #: already triggered, or the latch was abandoned).  A rollback
        #: rescinds every other row's latch contribution.
        self.private: Dict[int, Optional[int]] = {}
        #: Rows whose periodic agent report fired, recorded so a rollback
        #: replays delivered entries with the stride decision made at
        #: commit time, not the stride in effect at rollback time.
        self.reported: Set[int] = set()
        #: The wake-up at the window's last acknowledgement: always set for
        #: a batch window (the server process sleeps on it), set for an
        #: eager window only once requests queue behind it (_arm_wake).
        self.wake: Optional[Event] = None
        self.wake_id = -1
        #: The agent's report state before the window's first report.
        self.agent_state: Optional[Tuple[List[float], int, int]] = None
        #: Monitor flushes charged by this window's commits (rolled back as
        #: a delta, not a snapshot — other agents charge the shared ledger
        #: concurrently).
        self.flushes = 0


class ParameterServer:
    """The simulation process of one server node."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        agent: Agent,
        config: PSJobConfig,
        scheduler: ClusterScheduler,
        metrics: MetricsRecorder,
        delay_fraction_provider: Callable[[], float],
        report_stride_provider: Optional[Callable[[], int]] = None,
        requeue_filter: Optional[Callable[[str], bool]] = None,
        drain_handler: Optional[Callable[["ParameterServer", List[PushRequest]], object]] = None,
        outage_handler: Optional[Callable[["ParameterServer", List[PushRequest]], bool]] = None,
        recovery_handler: Optional[Callable[["ParameterServer"], None]] = None,
        state: Optional[ServerStateArrays] = None,
    ) -> None:
        self.env = env
        self.node = node
        # Plain attribute (the node name never changes); see PSWorker.name.
        self.name = node.name
        self.agent = agent
        self.config = config
        self.scheduler = scheduler
        self.metrics = metrics
        self._delay_fraction_provider = delay_fraction_provider
        self._report_stride_provider = report_stride_provider
        # Whether a worker's in-flight request may be requeued on a restart:
        # the job vetoes requeues for draining/departed workers, otherwise a
        # kill-restart racing an elastic scale-in drain resurrects a push
        # that ``discard_requests_from`` already purged.
        self._requeue_filter = requeue_filter
        # Elastic retirement: receives (server, leftover requests) as a
        # simulation sub-process and completes the departure.
        self._drain_handler = drain_handler
        # Warm-standby promotion: on a kill the job may take over this
        # server's unacknowledged requests (returning True) instead of
        # letting them wait out the local restart; called again (recovery)
        # when the relaunch completes so the job can re-admit the server.
        self._outage_handler = outage_handler
        self._recovery_handler = recovery_handler
        self.queue: Store = env.store()
        # Per-server scalar state lives in the job-owned columnar arrays
        # (chain tail, handled counter, eligibility); a server constructed
        # without a state-owning job gets a private single-slot instance.
        self._state = state if state is not None else ServerStateArrays()
        self._slot = self._state.allocate_slot()
        self._state.overhead[self._slot] = node.device.base_overhead
        self.process = None
        self._restart_requested = False
        self._scale_in_requested = False
        # True exactly while the server process is parked on an empty queue:
        # the window in which an arriving request can be committed eagerly
        # at submit time without reordering against queued work.
        self._accepting = False
        # Cached series handle: one append per handled request otherwise pays
        # a recorder key lookup each.
        self._bpt_series = metrics.series("server_bpt", tag=self.name)
        # The record of the open window, if it needed one; stale once that
        # window is retired (see _window_record).
        self._record: Optional[_BatchPlan] = None
        # A mid-run contention swap invalidates the handling times of a
        # committed window (and the slot's vectorized-commit eligibility).
        node.add_contention_listener(self._on_contention_change)
        self._sync_eligibility()

    def start(self) -> None:
        """Launch the server's simulation process."""
        self.process = self.env.process(self.run())

    # -- array-backed scalar state -------------------------------------------------
    @property
    def requests_handled(self) -> int:
        """Requests committed by this server (slot in the job's state arrays)."""
        return int(self._state.handled[self._slot])

    @requests_handled.setter
    def requests_handled(self, value: int) -> None:
        self._state.handled[self._slot] = value

    def _set_accepting(self, value: bool) -> None:
        if self._accepting != value:
            self._accepting = value
            self._sync_eligibility()

    def _sync_eligibility(self) -> None:
        """Refresh this slot's vectorized-commit eligibility."""
        state = self._state
        slot = self._slot
        state.eligible[slot] = (self._accepting and self.env.coalesce
                                and self.node.contention.is_null)

    # -- worker-facing API --------------------------------------------------------
    def submit(self, worker: str, nbytes: float, done: Optional[Event] = None) -> Event:
        """Enqueue a push request; the returned event fires when it is applied.

        ``done`` may be a shared :class:`CountdownEvent` covering the pushes
        of one iteration (one slot per server); the server then counts its
        slot down instead of succeeding a private acknowledgement event.

        While the server is idle-parked and its contention is deterministic,
        the request is committed *eagerly* right here (see the module
        docstring) and never enters the queue.
        """
        env = self.env
        request = PushRequest(worker=worker, nbytes=nbytes,
                              done=done if done is not None else Event(env),
                              submitted_at=env._now)
        if self._accepting and env.coalesce and not self.queue:
            contention = self.node.contention
            if contention.is_null or contention.is_deterministic:
                self._commit_request(request)
                return request.done
        self._enqueue(request)
        return request.done

    def enqueue(self, request: PushRequest) -> None:
        """Route an existing request to this server (drain re-route path)."""
        self._enqueue(request)

    def _enqueue(self, request: PushRequest) -> None:
        """Queue a request, preserving FIFO order against any open window.

        A parked server with a live window is logically *busy* until the
        window's last acknowledgement: feeding its parked getter now would
        start the next window early, so the request is held in the queue and
        the window's wake-up feeds the getter when due (see :meth:`_on_wake`).
        """
        queue = self.queue
        if queue.has_getters:
            self._set_accepting(False)
            if self._window_open():
                queue.hold(request)
                self._arm_wake()
                return
        queue.push(request)

    def discard_requests_from(self, worker: str) -> int:
        """Purge queued push requests of a departed worker; returns the count.

        Part of the elastic scale-in drain: a retiring worker's queued pushes
        must not be handled after it left — the server would burn handling
        time on gradients nobody will confirm and count down a latch whose
        consumer is gone (a stale event).  The request the server is
        *currently* handling cannot be withdrawn; its acknowledgement is
        neutralized by the worker abandoning the latch instead.

        A committed coalesced window is rolled back first (keeping the
        in-flight request, which matches the uncoalesced server's behaviour
        of finishing the handling it already started): the rescinded tail
        returns to the queue front, where the purge below catches the
        departing worker's requests like any other queued push.
        """
        _, queued = self._rollback_plan(self.env.now, keep_in_flight=True)
        queued.extend(self.queue.drain())
        keep = [request for request in queued if request.worker != worker]
        self._requeue_front(keep)
        return len(queued) - len(keep)

    def pending_request_count(self) -> int:
        """Queued pushes awaiting handling (excludes the one being handled).

        Matches the uncoalesced server's queue length: requests that a
        coalesced window committed but whose handling has not *started* yet
        still count as queued; the in-flight one does not.
        """
        # An entry has not started while its predecessor's ack is ahead.
        acks = self._state.plan_ack[self._state.window(self._slot)]
        return len(self.queue) + int(np.count_nonzero(acks[:-1] > self.env.now))

    def pending_requests(self) -> List[PushRequest]:
        """The queued pushes themselves (same window as the count above)."""
        state = self._state
        slot = self._slot
        now = self.env.now
        acks = state.plan_ack[state.window(slot)].tolist()
        return list(self.queue) + [
            request for request, previous_ack
            in zip(state.window_requests(slot)[1:], acks)
            if previous_ack > now]

    def _requeue_front(self, queued: List[PushRequest]) -> None:
        """Return rescinded requests to the queue front for re-planning."""
        if queued:
            self.queue.requeue_front(queued)
            # The retained in-flight entry is still being handled: the
            # server must not pick the requeued tail up (or accept eager
            # commits ahead of it) before the in-flight acknowledgement,
            # where the window's wake-up feeds them to the server process.
            self._set_accepting(False)
            self._arm_wake()

    def on_cohort_change(self) -> None:
        """Worker membership changed: re-plan any committed window.

        The active-worker count feeds both the report stride and the delay
        fraction the server samples per request, so acknowledgements past
        this instant were committed under stale inputs.  The delivered prefix
        and the in-flight request keep their (correct, pre-change) decisions;
        the rescinded tail re-enters the queue and is re-planned at wake-up.
        """
        _, queued = self._rollback_plan(self.env.now, keep_in_flight=True)
        self._requeue_front(queued)

    def _on_contention_change(self, _node: Node) -> None:
        """Contention model swapped mid-run: committed handling times are stale."""
        _, queued = self._rollback_plan(self.env.now, keep_in_flight=True)
        self._requeue_front(queued)
        self._sync_eligibility()

    def finalize_run(self) -> None:
        """Rewind speculative state past the end of the run.

        Called once per server when the job builds its result: a coalesced
        window may extend beyond the instant the run stopped (completion or
        deadline), and the uncoalesced server would not yet have recorded the
        still-in-flight request or the queued tail.  Dropping the in-flight
        entry (its handling never completed) and restoring the tail to the
        queue leaves every observable exactly where per-request stepping
        leaves it.
        """
        _, queued = self._rollback_plan(self.env.now, keep_in_flight=False)
        self.queue.requeue_front(queued)

    # -- controller-facing API -----------------------------------------------------
    def request_kill_restart(self) -> bool:
        """Kill this server and relaunch it (returns False if already restarting)."""
        return self.inject_failure(ErrorCode.PROACTIVE_KILL)

    def inject_failure(self, code: ErrorCode) -> bool:
        """Terminate this server and relaunch it (returns False if already restarting).

        The interrupt cause carries the :class:`ErrorCode` so the relaunch is
        recorded under the real termination reason (see
        :meth:`PSWorker.inject_failure <repro.psarch.worker.PSWorker.inject_failure>`).
        """
        if not self.node.is_running or self.process is None or not self.process.is_alive:
            return False
        if self._restart_requested or self._scale_in_requested:
            return False
        self._restart_requested = True
        self.process.interrupt(code)
        return True

    def request_scale_in(self) -> bool:
        """Gracefully retire this server (elastic scale-in).

        Returns False when the server cannot drain right now: it is already
        restarting, already retiring, its process finished, or no drain
        handler was wired (a fixed-fleet job).  A granted request interrupts
        the serving loop with the :data:`SCALE_IN` sentinel; the drain hands
        every unacknowledged request — queued and in-flight — to the job,
        which re-partitions the parameter shards and re-routes the requests
        to the surviving servers.
        """
        if self._drain_handler is None:
            return False
        if not self.node.is_running or self.process is None or not self.process.is_alive:
            return False
        if self._restart_requested or self._scale_in_requested:
            return False
        self._scale_in_requested = True
        self.process.interrupt(SCALE_IN)
        return True

    # -- simulation process -----------------------------------------------------------
    def run(self):
        """Main loop: pop a request, spend the handling time, acknowledge it.

        With coalescing on and a deterministic contention model this loop is
        almost always *parked*: requests are committed eagerly at submit time
        and never reach the queue.  The loop only turns when a backlog exists
        (post-restart, post-rollback, drain re-routes) — then it commits the
        whole backlog as one batch window — or when the contention model is
        non-deterministic, in which case it steps request by request.
        """
        current: Optional[PushRequest] = None
        get_event: Optional[Event] = None
        # Hot-loop locals: the loop body runs once per popped request.  All
        # bound objects are stable across restarts (only the node's *status*
        # changes).
        env = self.env
        queue = self.queue
        node = self.node
        per_byte_cost = self.config.server_per_byte_cost_s
        delay_fraction_provider = self._delay_fraction_provider
        stride_provider = self._report_stride_provider
        bpt_series = self._bpt_series
        while True:
            try:
                # Backed-up queue: take the next request synchronously instead
                # of riding a one-step event round trip per message (the item
                # popped is the same one the getter event would have carried).
                current = queue.try_get()
                if current is None:
                    self._set_accepting(True)
                    get_event = queue.get()
                    current = yield get_event
                    get_event = None
                self._set_accepting(False)
                contention = node.contention
                if env.coalesce and (contention.is_null or contention.is_deterministic):
                    # Every handling time in the current queue is a closed
                    # form of the pop time: commit the whole window at once
                    # and sleep until its end (see the module docstring).
                    wake = self._commit_batch(current)
                    current = None
                    yield wake
                    self._state.retire(self._slot)
                    continue
                fraction = float(delay_fraction_provider())
                handling = node.server_time(
                    current.nbytes,
                    env.now,
                    per_byte_cost=per_byte_cost,
                    delay_fraction=fraction,
                )
                yield env.timeout(handling)
                done = current.done
                if not done.triggered:
                    if type(done) is CountdownEvent:
                        done.count_down(env.now)
                    else:
                        done.succeed(env.now)
                self.requests_handled += 1
                bpt_series.append(env.now, handling)
                # A server sees one push per worker per iteration, so it only
                # samples its handling time once per (approximate) global
                # iteration — otherwise its reporting traffic would scale with
                # the number of workers.
                stride = (stride_provider() or 1) if stride_provider is not None else 1
                if self.requests_handled % stride == 0:
                    self.agent.report_server_request(handling, env.now)
                current = None
            except Interrupt as interrupt:
                cause = interrupt.cause
                self._set_accepting(False)
                # Reclaim the in-flight and half-delivered requests first —
                # both the relaunch and the drain need them.  A committed
                # coalesced window rolls back completely: the in-flight
                # request joins ``undelivered`` (like the uncoalesced
                # server's ``current``) and the untouched tail returns to
                # the queue front (where per-request stepping left it).
                undelivered: List[PushRequest] = []
                in_flight, queued = self._rollback_plan(env.now, keep_in_flight=False)
                queue.requeue_front(queued)
                if in_flight is not None and not in_flight.done.triggered:
                    undelivered.append(in_flight)
                if get_event is not None:
                    still_pending = self.queue.cancel(get_event)
                    if not still_pending and get_event.triggered:
                        delivered = get_event.value
                        if isinstance(delivered, PushRequest) and not delivered.done.triggered:
                            undelivered.append(delivered)
                    get_event = None
                if current is not None and not current.done.triggered:
                    undelivered.append(current)
                    current = None
                if cause is SCALE_IN:
                    # Graceful retirement: hand every unacknowledged request
                    # (in-flight and queued) to the job, which re-partitions
                    # the parameter shards and re-routes the requests to the
                    # surviving servers, then leave the simulation for good.
                    undelivered.extend(queue.drain())
                    yield from self._drain_handler(self, undelivered)
                    return
                # KILL_RESTART (or injected failure): requeue any in-flight
                # or half-delivered request so no worker waits forever, then
                # relaunch the pod.  Requests of draining/departed workers
                # are NOT requeued: ``discard_requests_from`` purged them for
                # good, and resurrecting one here would burn handling time on
                # a gradient nobody confirms and count down an abandoned
                # latch (the kill-restart-races-scale-in bug).
                #
                # With warm standbys wired, the job may instead take over the
                # unacknowledged requests (promoting each shard's standby
                # owner); the local queue then stays empty until recovery.
                code = cause if isinstance(cause, ErrorCode) else ErrorCode.PROACTIVE_KILL
                outage_handler = self._outage_handler
                if outage_handler is None or not outage_handler(self, undelivered):
                    requeue_filter = self._requeue_filter
                    for request in reversed(undelivered):
                        if requeue_filter is None or requeue_filter(request.worker):
                            self.queue.put_left(request)
                yield from self.scheduler.relaunch(self.node, code)
                yield self.env.timeout(self.config.server_recovery_time_s)
                self.agent.reset_after_restart()
                self._restart_requested = False
                if self._recovery_handler is not None:
                    self._recovery_handler(self)

    # -- coalesced windows ---------------------------------------------------------
    def _window_open(self) -> bool:
        """Whether a window is open, after retiring one that has ended.

        A window ends strictly after its last acknowledgement: a request
        arriving on that very instant joins the window, as it would find the
        stepping server still busy with its last request.  An eager window
        schedules no wake-up (see :meth:`_arm_wake` for when it needs one),
        so this lazy check is what retires it.
        """
        state = self._state
        slot = self._slot
        if state.plan_end[slot] == state.plan_base[slot]:
            return False
        if state.chain_tail[slot] < self.env._now:
            state.retire(slot)
            return False
        return True

    def _window_record(self, create: bool = False) -> Optional[_BatchPlan]:
        """The open window's record; with ``create``, made if it has none."""
        state = self._state
        window_id = state.window_id(self._slot)
        record = self._record
        if record is not None and record.window_id == window_id:
            return record
        if not create:
            return None
        record = self._record = _BatchPlan(window_id)
        state.records_created += 1
        return record

    def _arm_wake(self) -> None:
        """Schedule the eager window's wake-up at its last acknowledgement.

        Needed only once requests are held in the queue behind the window:
        the wake-up feeds them to the parked server process (:meth:`_on_wake`).
        No eager commit can extend the window afterwards (holding a request
        stops the server accepting them), so the wake-up fires at the
        window's end.  Its pop now stands for that end, so the credit given
        when the window opened is withdrawn.
        """
        state = self._state
        slot = self._slot
        if state.plan_end[slot] == state.plan_base[slot]:
            return
        record = self._window_record(create=True)
        if record.wake is not None:
            return
        env = self.env
        wake = Event(env)
        wake.callbacks.append(self._on_wake)
        record.wake = wake
        record.wake_id = env.schedule_at(wake, float(state.chain_tail[slot]))
        state.wakes += 1
        env.coalesced_count -= 1

    def _report(self, row: int, handling: float, ack: float) -> None:
        """The periodic agent report of the committed request at ``row``."""
        record = self._window_record(create=True)
        agent = self.agent
        if record.agent_state is None:
            record.agent_state = agent.snapshot_report_state()
        record.reported.add(row)
        agent.report_server_request(handling, ack)
        if agent._iterations_since_report == 0:
            record.flushes += 1
        self._state.reports += 1

    def _publish_ack(self, row: int, done: Event, ack: float) -> None:
        """Publish one committed acknowledgement at its future time ``ack``.

        Only a contribution to a live shared latch needs no record.
        """
        event_id = None
        if not done.triggered:
            if type(done) is CountdownEvent:
                done.count_down_at(ack, ack)
                if not done.abandoned:
                    return
            else:
                event_id = self.env.schedule_at(done, ack, ack)
        self._window_record(create=True).private[row] = event_id

    def _commit_request(self, request: PushRequest) -> None:
        """Commit one request eagerly at submit time (server stays parked)."""
        env = self.env
        node = self.node
        now = env._now
        state = self._state
        slot = self._slot
        tail = float(state.chain_tail[slot])
        start = tail if tail > now else now
        contention = node.contention
        if contention.is_null:
            handling = node.device.base_overhead \
                + request.nbytes * self.config.server_per_byte_cost_s
        else:
            fraction = float(self._delay_fraction_provider())
            handling = node.server_time(
                request.nbytes, start,
                per_byte_cost=self.config.server_per_byte_cost_s,
                delay_fraction=fraction)
        ack = start + handling
        request_id = state.add_requests([request], now)
        state.reserve()
        base = int(state.plan_base[slot])
        at = int(state.plan_end[slot])
        if at == base or tail < now:
            # No window, or one that ended: this row opens a new one (and
            # so retires the old).  The logical event the new window's end
            # stands for is credited up front, as each commit credits its own.
            at = base
            env.coalesced_count += 1
        row = at - base
        state.append_rows(slot, at, ack, handling, request_id)
        self._publish_ack(row, request.done, ack)
        handled = int(state.handled[slot]) + 1
        state.handled[slot] = handled
        state.chain_tail[slot] = ack
        self._bpt_series.append(ack, handling)
        stride_provider = self._report_stride_provider
        stride = (stride_provider() or 1) if stride_provider is not None else 1
        if handled % stride == 0:
            self._report(row, handling, ack)
        env.coalesced_count += 1

    def _on_wake(self, wake: Event) -> None:
        """Wake-up callback of an eager window that requests queued behind.

        Fires at the window's last acknowledgement (:meth:`_arm_wake`),
        closes the window and feeds the held backlog to the parked server
        process — the backlog had to wait for that acknowledgement (FIFO),
        and this wake-up marks exactly that instant.  A wake-up left
        scheduled by a rollback that found its window fully delivered closes
        nothing and still feeds the backlog.
        """
        record = self._window_record()
        if record is not None and record.wake is wake:
            self._state.retire(self._slot)
        queue = self.queue
        if queue and queue.has_getters:
            # The get event this dispatch schedules exists only because the
            # server parks between coalesced windows (the uncoalesced server
            # would have been busy handling and polled synchronously), so it
            # is cancelled out of the logical-event accounting.
            self._set_accepting(False)
            self.env.coalesced_count -= 1
            queue.kick()

    def _commit_batch(self, first: PushRequest) -> Event:
        """Commit the current queue as one coalesced window; return the wake event.

        Handling times, acknowledgement times and report decisions for
        ``first`` plus every queued request are computed closed-form and
        published immediately — acknowledgements via absolute-time scheduling,
        series/ledger writes eagerly (windowed queries are bisect-bounded, so
        future-dated observations stay invisible until due).  Per-request
        inputs that the uncoalesced loop re-reads each iteration (the delay
        fraction, the report stride) are read once: any event that could move
        them also triggers a rollback of this window.
        """
        env = self.env
        node = self.node
        state = self._state
        slot = self._slot
        requests: List[PushRequest] = [first]
        requests.extend(self.queue.drain())
        k = len(requests)
        t0 = env.now
        per_byte_cost = self.config.server_per_byte_cost_s
        contention = node.contention
        if contention.is_null:
            # base_overhead + nbytes·cost per request; the acknowledgement
            # times are the running total, accumulated with np.cumsum, which
            # adds strictly left-to-right — bit-identical to the sequential
            # ``t += handling`` of per-request stepping.
            chain = np.empty(k + 1, dtype=np.float64)
            chain[0] = t0
            chain[1:] = node.device.base_overhead + per_byte_cost * np.fromiter(
                (request.nbytes for request in requests), dtype=np.float64, count=k)
            handlings = chain[1:].tolist()
            chain = np.cumsum(chain).tolist()
        else:
            # Deterministic non-null contention: the model is a pure function
            # of time, but not an affine one — step the scalar recurrence.
            fraction = float(self._delay_fraction_provider())
            handlings = []
            chain = [t0]
            t = t0
            for request in requests:
                handling = node.server_time(
                    request.nbytes, t,
                    per_byte_cost=per_byte_cost, delay_fraction=fraction)
                t += handling
                handlings.append(handling)
                chain.append(t)
        first_id = state.add_requests(requests, t0)
        # The wake event is scheduled before any acknowledgement so that at
        # the window's final instant the server resumes first, then the last
        # worker — the same callback order per-request stepping produces.
        record = self._record = _BatchPlan(first_id)
        state.records_created += 1
        wake = record.wake = Event(env)
        record.wake_id = env.schedule_at(wake, chain[-1])
        state.wakes += 1
        handled = int(state.handled[slot])
        bpt_series = self._bpt_series
        stride_provider = self._report_stride_provider
        stride = (stride_provider() or 1) if stride_provider is not None else 1
        for row, (request, handling) in enumerate(zip(requests, handlings)):
            ack = chain[row + 1]
            state.reserve()
            base = int(state.plan_base[slot])
            state.append_rows(slot, base + row, ack, handling, first_id + row)
            self._publish_ack(row, request.done, ack)
            handled += 1
            bpt_series.append(ack, handling)
            if handled % stride == 0:
                self._report(row, handling, ack)
        state.handled[slot] = handled
        state.chain_tail[slot] = chain[-1]
        env.count_coalesced(k - 1)
        return wake

    def _rollback_plan(self, now: float, keep_in_flight: bool
                       ) -> Tuple[Optional[PushRequest], List[PushRequest]]:
        """Rescind the undelivered tail of the committed window, if any.

        Entries acknowledged at or before ``now`` are delivered and stay.
        The first entry with a later acknowledgement is *in flight* (its
        handling started at or before ``now``): with ``keep_in_flight`` its
        committed outcome is preserved — only the report decision is remade
        under the stride now in effect, since in per-request stepping that
        decision would happen at the future acknowledgement instant — and a
        scheduled wake-up moves to its acknowledgement; otherwise it is
        rescinded with the rest and handed back as the first returned value.
        Later entries never started and are returned for queue-front
        reinsertion.

        Observables are rewound to the pre-window state (derived from the
        rows, plus the record's agent snapshot and flush count; see
        :class:`_BatchPlan`) and the kept prefix is replayed with its
        recorded decisions, so the series, the handled counter, the agent
        buffer and the shared overhead ledger end up exactly as per-request
        stepping would have left them at ``now``.
        """
        state = self._state
        slot = self._slot
        window = state.window(slot)
        count = window.stop - window.start
        if count == 0:
            return None, []
        if now >= state.chain_tail[slot]:
            # Fully delivered: nothing speculative left to unwind.  (A
            # scheduled wake-up stays and pops as a no-op close; an eager
            # window without one had its end credited when it opened.)
            state.retire(slot)
            return None, []
        env = self.env
        agent = self.agent
        acks = state.plan_ack[window].tolist()
        handlings = state.plan_handling[window].tolist()
        requests = state.window_requests(slot)
        # Acknowledgements grow along the chain: the first one past ``now``
        # is the in-flight entry.
        split = int(np.searchsorted(state.plan_ack[window], now, side="right"))
        first_rescinded = split + 1 if keep_in_flight else split
        # A window without a record reported nothing and published only
        # latch contributions: a blank record stands in for it.
        record = self._window_record() or _BatchPlan(-1)
        private = record.private
        # 1. Rescind the undelivered acknowledgements, newest first.
        for row in range(count - 1, first_rescinded - 1, -1):
            if row in private:
                done_id = private[row]
                if done_id is not None:
                    done = requests[row].done
                    env.discard_scheduled(done_id)
                    done._ok = None
                    done._value = PENDING
            else:
                requests[row].done.rescind(acks[row], acks[row])
        # 2. Rewind every observable to the pre-window state.
        bpt_series = self._bpt_series
        bpt_series.truncate(len(bpt_series) - count - record.flushes)
        handled = int(state.handled[slot]) - count
        if record.agent_state is not None:
            agent.restore_report_state(record.agent_state)
        group = agent.group
        group.report_overhead_s -= record.flushes * group.config.agent_sync_overhead_s
        record.flushes = 0
        reported_rows = record.reported
        record.reported = set()
        record.private = {row: done_id for row, done_id in private.items()
                          if row <= split}
        wake = record.wake
        # 3. Replay the delivered prefix with its recorded decisions.
        for row in range(split):
            handled += 1
            bpt_series.append(acks[row], handlings[row])
            if row in reported_rows:
                self._report(row, handlings[row], acks[row])
        # 4. Re-commit (or drop) the in-flight entry and move the wake-up.
        # Logical-event credits for the retained work: every kept entry plus
        # the window's end, minus what fed the window physically.  An eager
        # window without a wake-up was credited its end when it opened; when
        # the window closes here that credit goes with it.
        credits = split + 1 - count
        if wake is not None:
            env.discard_scheduled(record.wake_id)
            wake._ok = None
            wake._value = PENDING
        elif not keep_in_flight:
            credits -= 1
        env.coalesced_count += credits
        if keep_in_flight:
            in_ack = acks[split]
            in_handling = handlings[split]
            if wake is not None:
                record.wake_id = env.schedule_at(wake, in_ack)
            handled += 1
            bpt_series.append(in_ack, in_handling)
            stride_provider = self._report_stride_provider
            stride = (stride_provider() or 1) if stride_provider is not None else 1
            if handled % stride == 0:
                self._report(split, in_handling, in_ack)
            state.plan_end[slot] = window.start + split + 1
            state.chain_tail[slot] = in_ack
            state.handled[slot] = handled
            return None, requests[split + 1:]
        state.chain_tail[slot] = now
        state.handled[slot] = handled
        state.retire(slot)
        return requests[split], requests[split + 1:]
