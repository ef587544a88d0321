"""Time-series metric recording for simulated training runs.

Every experiment in the paper is a plot or a table over run statistics: batch
processing time per node (Fig. 1, 13, 14), job completion time (Fig. 2, 10,
11, 15, 19, Table III), per-worker batch size (Fig. 12), shard counts and
throughput (Fig. 3, 16), failover delay (Fig. 17), and framework overhead
(Fig. 18).  :class:`MetricsRecorder` is the single sink all simulated
components write to, and the experiment layer reads series back out of it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = ["ColumnSeries", "MetricPoint", "MetricSeries", "MetricsRecorder",
           "SeriesColumns", "window_start"]


def window_start(window_s: float, now: float) -> float:
    """Left edge of the half-open sliding window ``(start, now]`` ending at ``now``.

    Window queries across the code base (the Monitor's ``L_trans`` / ``L_per``
    windows, the failure injector's failure-rate windows) use half-open
    ``(start, now]`` intervals so consecutive windows never double count an
    observation.  For the *first* window of a run the naive ``now - window_s``
    start would silently exclude an observation recorded exactly at t=0
    (``bisect_right`` places it at the open edge); when the window reaches back
    to (or past) the start of the run there is no previous window that could
    have claimed the boundary observation, so the window is widened to cover
    everything up to ``now``.
    """
    start = now - window_s
    return start if start > 0.0 else -math.inf


@dataclass(frozen=True)
class MetricPoint:
    """One recorded observation."""

    time: float
    value: float


class MetricSeries:
    """An append-only, time-ordered series of observations.

    Alongside the raw observations the series maintains a prefix-sum array,
    so every windowed aggregate (:meth:`window_mean`, :meth:`window_stats`)
    is answered with two bisections and one subtraction instead of slicing a
    copy of the window — the Monitor and the straggler detector issue these
    queries every control interval for every node, and the old O(window)
    copies dominated large-cluster runs.

    The prefix sums are maintained *lazily*: appends touch only the raw
    lists (the dominant cost of the simulator's hottest series is the append
    itself), and the first aggregate query after a batch of appends extends
    the prefix array for the new suffix.  The catch-up accumulates strictly
    left to right (``np.cumsum`` seeded with the last synced prefix value),
    so aggregates are bit-identical to eagerly maintained sums.
    """

    __slots__ = ("_times", "_values", "_prefix")

    def __init__(self) -> None:
        self._times: List[float] = []
        self._values: List[float] = []
        # _prefix[i] is the sum of the first i values.  Invariant:
        # len(_prefix) <= len(_values) + 1; the gap is the unsynced suffix.
        self._prefix: List[float] = [0.0]

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time: float, value: float) -> None:
        """Append an observation; times must be non-decreasing."""
        times = self._times
        if times and time < times[-1]:
            raise ValueError(
                f"observations must be appended in time order "
                f"({time} < {times[-1]})"
            )
        value = value if type(value) is float else float(value)
        times.append(time if type(time) is float else float(time))
        self._values.append(value)

    def _sync_prefix(self) -> List[float]:
        """Extend the prefix sums over any values appended since last sync."""
        prefix = self._prefix
        values = self._values
        synced = len(prefix) - 1
        missing = len(values) - synced
        if missing <= 0:
            return prefix
        if missing > 64:
            # Seeding cumsum with the running total keeps the accumulation
            # strictly sequential — bit-identical to one-at-a-time adds.
            block = np.empty(missing + 1, dtype=np.float64)
            block[0] = prefix[-1]
            block[1:] = values[synced:]
            prefix.extend(np.cumsum(block)[1:].tolist())
        else:
            running = prefix[-1]
            for value in values[synced:]:
                running += value
                prefix.append(running)
        return prefix

    def truncate(self, length: int) -> None:
        """Drop every observation past the first ``length``.

        Rollback hook for coalesced commits: when a window is rescinded
        mid-flight (failure, straggler transition, membership change) the
        owning component rewinds the series to its pre-window length before
        re-planning.
        """
        if length < 0 or length > len(self._times):
            raise ValueError(f"cannot truncate series of {len(self._times)} to {length}")
        del self._times[length:]
        del self._values[length:]
        del self._prefix[length + 1:]

    def times(self) -> List[float]:
        """Observation times."""
        return list(self._times)

    def values(self) -> List[float]:
        """Observation values."""
        return list(self._values)

    def last(self) -> Optional[MetricPoint]:
        """Most recent observation, or None when empty."""
        if not self._times:
            return None
        return MetricPoint(self._times[-1], self._values[-1])

    def window(self, start: float, end: float) -> List[float]:
        """Values observed in the half-open interval ``(start, end]``.

        The interval is open at ``start``: an observation recorded exactly at
        ``start`` belongs to the *previous* window, so back-to-back windows
        ``(t0, t1]``, ``(t1, t2]`` partition the series without double
        counting.  Callers whose first window begins at the start of the run
        should pass ``start=-math.inf`` (see ``Monitor``) so observations
        recorded exactly at t=0 are not silently dropped.
        """
        lo = bisect_right(self._times, start)
        hi = bisect_right(self._times, end)
        return self._values[lo:hi]

    def window_stats(self, start: float, end: float) -> Tuple[int, float]:
        """(count, sum) of the values in ``(start, end]`` without copying.

        The sum is ``prefix[hi] - prefix[lo]``, which can differ from a
        freshly computed ``sum(values[lo:hi])`` in the last ulp for windows
        not anchored at the start of the series — acceptable for monitoring
        aggregates (detection thresholds use ratios well away from 1 ulp).
        """
        lo = bisect_right(self._times, start)
        hi = bisect_right(self._times, end)
        if hi <= lo:
            return 0, 0.0
        prefix = self._sync_prefix()
        return hi - lo, prefix[hi] - prefix[lo]

    def window_mean(self, start: float, end: float) -> Optional[float]:
        """Mean of the values in ``(start, end]`` or None if there are none.

        Boundary semantics match :meth:`window`; computed from the running
        prefix sums in O(log n).
        """
        count, total = self.window_stats(start, end)
        if count == 0:
            return None
        return total / count

    def mean(self) -> Optional[float]:
        """Mean over the whole series, or None when empty."""
        if not self._values:
            return None
        return self._sync_prefix()[-1] / len(self._values)

    def total(self) -> float:
        """Sum over the whole series."""
        return self._sync_prefix()[-1]


class SeriesColumns:
    """Many append-only series kept in shared flat float64 column blocks.

    The columnar storage behind :class:`ColumnSeries`, for a metric with one
    series per node and a producer that appends to many of them at once:
    the push fan-out records one ``server_bpt`` point on every server per
    call, and :meth:`append_many` writes them all with one scatter per
    column.  Series ``s`` owns the ``rows`` positions starting at
    ``s * rows`` of each block — ``times``, ``values`` and ``sums`` (the
    running totals behind the windowed aggregates, filled lazily by
    :class:`ColumnSeries`) — and its points end at ``end[s]``.  When a
    series fills its range every range grows fourfold; the copy touches
    only the filled rows, so unused rows cost address space, not memory.
    """

    _COLUMNS = ("times", "values", "sums")
    #: Rows per series before the first growth.
    _INITIAL_ROWS = 256
    _GROWTH = 4

    def __init__(self, capacity: int = 0) -> None:
        capacity = max(int(capacity), 4)
        self.rows = self._INITIAL_ROWS
        for name in self._COLUMNS:
            setattr(self, name, np.zeros(capacity * self.rows, dtype=np.float64))
        self.end = np.arange(capacity, dtype=np.int64) * self.rows
        # Upper bound on every series' length, kept without a reduction per
        # append: it only grows until it reaches ``rows``, and is then
        # recomputed exactly.
        self._longest = 0
        self._size = 0

    def add_series(self) -> int:
        """Claim the next series slot (growing the blocks when full)."""
        slot = self._size
        capacity = len(self.end)
        if slot >= capacity:
            self._resize(max(capacity * 2, slot + 1), self.rows)
        self._size = slot + 1
        return slot

    def _resize(self, new_slots: int, new_rows: int) -> None:
        """Re-lay the blocks for ``new_slots`` series of ``new_rows`` rows."""
        slots = len(self.end)
        rows = self.rows
        lengths = self.end - np.arange(slots, dtype=np.int64) * rows
        filled = int(lengths.max())
        for name in self._COLUMNS:
            block = getattr(self, name).reshape(slots, rows)
            grown = np.zeros((new_slots, new_rows), dtype=np.float64)
            grown[:slots, :filled] = block[:, :filled]
            setattr(self, name, grown.reshape(-1))
        self.rows = new_rows
        self.end = np.arange(new_slots, dtype=np.int64) * new_rows
        self.end[:slots] += lengths

    def reserve(self) -> None:
        """Make room for one more point in every series."""
        if self._longest >= self.rows:
            slots = len(self.end)
            self._longest = int((self.end - np.arange(slots, dtype=np.int64) * self.rows).max())
            if self._longest >= self.rows:
                self._resize(slots, self.rows * self._GROWTH)
        self._longest += 1

    def append(self, slot: int, time: float, value: float) -> None:
        """Append one point to series ``slot`` (the scalar :meth:`append_many`)."""
        at = int(self.end[slot])
        length = at - slot * self.rows
        if length >= self.rows:
            self._resize(len(self.end), self.rows * self._GROWTH)
            at = int(self.end[slot])
        self.times[at] = time
        self.values[at] = value
        self.end[slot] = at + 1
        if length >= self._longest:
            self._longest = length + 1

    def append_many(self, slots: np.ndarray, times: np.ndarray,
                    values: np.ndarray) -> None:
        """Append one point to each series in ``slots`` (distinct slots).

        Trusted hot path: times must not precede each series' last point
        (coalesced commits append acknowledgements in chain order).
        """
        self.reserve()
        at = self.end[slots]
        self.times[at] = times
        self.values[at] = values
        self.end[slots] = at + 1


class ColumnSeries:
    """A :class:`MetricSeries` whose points live in a :class:`SeriesColumns` block.

    Same read and write API and the same results, bit for bit: window
    bounds come from ``searchsorted``, which places a time exactly where
    ``bisect_right`` does, and the running totals are accumulated strictly
    left to right (``np.cumsum`` seeded with the last synced total), as
    :meth:`MetricSeries._sync_prefix` does.
    """

    __slots__ = ("_cols", "_slot", "_synced")

    def __init__(self, columns: SeriesColumns) -> None:
        self._cols = columns
        self._slot = columns.add_series()
        # Points whose running total in ``sums`` is current.
        self._synced = 0

    @property
    def slot(self) -> int:
        """This series' slot in its :class:`SeriesColumns` block."""
        return self._slot

    def _span(self) -> Tuple[SeriesColumns, int, int]:
        """The block and this series' ``[start, stop)`` positions in it."""
        cols = self._cols
        return cols, self._slot * cols.rows, int(cols.end[self._slot])

    def __len__(self) -> int:
        cols = self._cols
        return int(cols.end[self._slot]) - self._slot * cols.rows

    def append(self, time: float, value: float) -> None:
        """Append an observation; times must be non-decreasing."""
        cols, start, stop = self._span()
        if stop > start:
            last = float(cols.times[stop - 1])
            if time < last:
                raise ValueError(
                    f"observations must be appended in time order ({time} < {last})")
        cols.append(self._slot, time, value)

    def truncate(self, length: int) -> None:
        """Drop every observation past the first ``length`` (see :meth:`MetricSeries.truncate`)."""
        cols, start, stop = self._span()
        if length < 0 or length > stop - start:
            raise ValueError(f"cannot truncate series of {stop - start} to {length}")
        cols.end[self._slot] = start + length
        if length < self._synced:
            self._synced = length

    def _total_of_first(self, count: int) -> float:
        """Sum of the first ``count`` values, after syncing the running totals."""
        if count == 0:
            return 0.0
        cols, start, stop = self._span()
        synced = self._synced
        if synced < count:
            block = np.empty(stop - start - synced + 1, dtype=np.float64)
            block[0] = cols.sums[start + synced - 1] if synced else 0.0
            block[1:] = cols.values[start + synced:stop]
            cols.sums[start + synced:stop] = np.cumsum(block)[1:]
            self._synced = stop - start
        return float(cols.sums[start + count - 1])

    def times(self) -> List[float]:
        """Observation times."""
        cols, start, stop = self._span()
        return cols.times[start:stop].tolist()

    def values(self) -> List[float]:
        """Observation values."""
        cols, start, stop = self._span()
        return cols.values[start:stop].tolist()

    def last(self) -> Optional[MetricPoint]:
        """Most recent observation, or None when empty."""
        cols, start, stop = self._span()
        if stop == start:
            return None
        return MetricPoint(float(cols.times[stop - 1]), float(cols.values[stop - 1]))

    def _bounds(self, start: float, end: float) -> Tuple[int, int]:
        """Positions of the half-open interval ``(start, end]`` in the series."""
        cols, first, stop = self._span()
        times = cols.times[first:stop]
        return (int(times.searchsorted(start, side="right")),
                int(times.searchsorted(end, side="right")))

    def window(self, start: float, end: float) -> List[float]:
        """Values observed in ``(start, end]`` (see :meth:`MetricSeries.window`)."""
        lo, hi = self._bounds(start, end)
        cols = self._cols
        first = self._slot * cols.rows
        return cols.values[first + lo:first + hi].tolist()

    def window_stats(self, start: float, end: float) -> Tuple[int, float]:
        """(count, sum) of the values in ``(start, end]`` without copying."""
        lo, hi = self._bounds(start, end)
        if hi <= lo:
            return 0, 0.0
        return hi - lo, self._total_of_first(hi) - self._total_of_first(lo)

    window_mean = MetricSeries.window_mean

    def mean(self) -> Optional[float]:
        """Mean over the whole series, or None when empty."""
        count = len(self)
        if not count:
            return None
        return self._total_of_first(count) / count

    def total(self) -> float:
        """Sum over the whole series."""
        return self._total_of_first(len(self))


#: What :meth:`MetricsRecorder.series` returns.
Series = Union[MetricSeries, ColumnSeries]


class MetricsRecorder:
    """Central sink for simulation metrics.

    Metrics are keyed by ``(name, tag)`` where the tag is typically a node
    name (``"worker-3"``, ``"server-0"``) or ``""`` for job-level metrics.
    """

    GLOBAL = ""

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, str], Series] = {}
        self._counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self._events: List[Tuple[float, str, str, str]] = []
        # Tags per metric name, in first-seen order.  Kept incrementally so
        # per-tag queries (issued every control interval) do not rescan every
        # series key ever recorded.
        self._tags_by_name: Dict[str, List[str]] = {}
        # Metric names whose series share one column block (use_columns).
        self._columns: Dict[str, SeriesColumns] = {}

    def _get_or_create(self, name: str, tag: str) -> Series:
        key = (name, tag)
        series = self._series.get(key)
        if series is None:
            columns = self._columns.get(name)
            series = MetricSeries() if columns is None else ColumnSeries(columns)
            self._series[key] = series
            self._tags_by_name.setdefault(name, []).append(tag)
        return series

    def use_columns(self, name: str, capacity: int = 0) -> SeriesColumns:
        """Keep every series of metric ``name`` in one :class:`SeriesColumns` block.

        Returns the block, so a producer can append to many series at once
        (:meth:`SeriesColumns.append_many`); each series' slot is
        :attr:`ColumnSeries.slot`.  Repeat calls return the same block.  Must
        be called before the first series of ``name`` exists.
        """
        columns = self._columns.get(name)
        if columns is None:
            if name in self._tags_by_name:
                raise ValueError(f"metric {name!r} already has list-backed series")
            columns = self._columns[name] = SeriesColumns(capacity)
        return columns

    # -- recording ----------------------------------------------------------
    def record(self, name: str, value: float, time: float, tag: str = GLOBAL) -> None:
        """Record a time-series observation."""
        self._get_or_create(name, tag).append(time, value)

    def increment(self, name: str, amount: float = 1.0, tag: str = GLOBAL) -> None:
        """Increment a counter."""
        self._counters[(name, tag)] += amount

    def log_event(self, time: float, kind: str, tag: str = GLOBAL, detail: str = "") -> None:
        """Record a discrete event (e.g. a KILL_RESTART or a failover)."""
        self._events.append((float(time), kind, tag, detail))

    # -- queries ------------------------------------------------------------
    def series(self, name: str, tag: str = GLOBAL) -> Series:
        """Return the series for ``(name, tag)`` (empty if never recorded)."""
        return self._get_or_create(name, tag)

    def tags(self, name: str) -> List[str]:
        """All tags that have observations under metric ``name``.

        Tags whose series exist but hold no observations (e.g. series handles
        cached eagerly by workers that never completed an iteration) are not
        listed — figure builders iterate this and must only see nodes that
        actually recorded data.
        """
        series = self._series
        return sorted(tag for tag in self._tags_by_name.get(name, [])
                      if len(series[(name, tag)]) > 0)

    def counter(self, name: str, tag: str = GLOBAL) -> float:
        """Current value of a counter (0.0 if never incremented)."""
        return self._counters[(name, tag)]

    def counters(self, name: str) -> Dict[str, float]:
        """All counters recorded under metric ``name``, keyed by tag."""
        return {tag: value for (metric, tag), value in self._counters.items() if metric == name}

    def events(self, kind: Optional[str] = None, tag: Optional[str] = None) -> List[Tuple[float, str, str, str]]:
        """Recorded events, optionally filtered by kind and/or tag."""
        result = self._events
        if kind is not None:
            result = [event for event in result if event[1] == kind]
        if tag is not None:
            result = [event for event in result if event[2] == tag]
        return list(result)

    def window_mean(self, name: str, start: float, end: float, tag: str = GLOBAL) -> Optional[float]:
        """Mean of metric ``name`` for ``tag`` over ``(start, end]``."""
        return self.series(name, tag).window_mean(start, end)

    def per_tag_window_means(self, name: str, start: float, end: float) -> Dict[str, float]:
        """Window means of metric ``name`` for every tag that has data in the window."""
        means: Dict[str, float] = {}
        series = self._series
        for tag in self.tags(name):
            mean = series[(name, tag)].window_mean(start, end)
            if mean is not None:
                means[tag] = mean
        return means

    def summary(self, name: str) -> Dict[str, float]:
        """Whole-run mean per tag for metric ``name``."""
        result: Dict[str, float] = {}
        for tag in self.tags(name):
            mean = self.series(name, tag).mean()
            if mean is not None:
                result[tag] = mean
        return result
