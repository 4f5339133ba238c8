"""The simulator event loop.

Ordering is fully deterministic: events are processed in
``(time, priority, sequence)`` order where *sequence* is a global FIFO
counter.  Two runs of the same program therefore interleave identically.

Zero-delay events — the bulk of the schedule (every ``succeed``, resource
grant, message hand-off, process start and termination) — bypass the
heap: they are appended to per-priority deques, which are already sorted
because appends happen at the current (nondecreasing) ``now`` with an
increasing sequence number and one fixed priority each.
:meth:`Simulator.step` pops the lexicographic minimum of the heap top and
the deque fronts, so the processed order is exactly the
(time, priority, sequence) total order of a pure-heap schedule — O(1)
instead of O(log n) for the common case, same interleaving.  The heap is
left holding only true timeouts, which also makes its operations cheaper.

Observers (trace recorder, profiler, sanitizer, metrics) share one slot,
:attr:`Simulator.obs`: ``None`` when detached, else the hook fan-out of
:mod:`repro.sim.observers`.  :meth:`Simulator.step` calls its ``on_step``
(when subscribed) once per processed event.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Optional

from repro.sim.events import Event, Timeout, NORMAL, URGENT, SimulationError
from repro.sim.process import Process

_heappush = heapq.heappush
_heappop = heapq.heappop


class EmptySchedule(SimulationError):
    """Raised by :meth:`Simulator.step` when no events remain."""


class UnhandledProcessError(SimulationError):
    """A process failed and nobody was waiting on it."""

    def __init__(self, label: str, cause: BaseException):
        super().__init__(f"process {label!r} failed: {cause!r}")
        self.cause = cause


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        #: zero-delay NORMAL / URGENT events; each sorted by construction
        #: (see module docstring), merged with the heap at :meth:`step`
        self._immediate: deque = deque()
        self._urgent: deque = deque()
        self._seq = itertools.count()
        self._n_processed = 0
        #: the attached observers (:class:`repro.sim.observers.Observers`),
        #: or None.  Every instrumentation site guards on this being None,
        #: which is the entire cost of observation when nothing is attached.
        self.obs = None
        #: the :class:`Process` currently advancing its generator; tracing
        #: uses its label as the emitting track ("thread") name.
        self.active_process = None
        #: callbacks of the event being processed (see :meth:`wakeup_is_next`)
        self._callbacks: list = []

    # -- factories ----------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value=value)

    def process(self, generator, label: str = "") -> Process:
        return Process(self, generator, label=label)

    # -- scheduling -----------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        if delay == 0.0:
            if priority == NORMAL:
                self._immediate.append((self.now, NORMAL, next(self._seq), event))
                return
            if priority == URGENT:
                self._urgent.append((self.now, URGENT, next(self._seq), event))
                return
        _heappush(self._heap, (self.now + delay, priority, next(self._seq), event))

    def peek(self) -> float:
        """Virtual time of the next event, or ``inf`` if none."""
        t = self._heap[0][0] if self._heap else float("inf")
        if self._urgent and self._urgent[0][0] < t:
            t = self._urgent[0][0]
        if self._immediate and self._immediate[0][0] < t:
            t = self._immediate[0][0]
        return t

    def wakeup_is_next(self) -> bool:
        """Whether a zero-delay event triggered now would be the very next
        event processed, with nothing run in between.

        That holds when the running process is the only callback of the
        event being processed, no zero-delay event is queued and no
        timeout is due at ``now``.  A process that would trigger such an
        event and then wait on it may instead continue synchronously: the
        schedule stays the same event for event, minus that wakeup.
        """
        heap = self._heap
        return (
            self.active_process is not None
            and len(self._callbacks) == 1
            and not self._immediate
            and not self._urgent
            and not (heap and heap[0][0] <= self.now)
        )

    def step(self) -> None:
        """Process exactly one event."""
        heap = self._heap
        urg = self._urgent
        imm = self._immediate
        # seq numbers are unique, so the 4-tuple comparisons never reach
        # the (unorderable) Event element
        best = heap[0] if heap else None
        src = heap
        if urg and (best is None or urg[0] < best):
            best = urg[0]
            src = urg
        if imm and (best is None or imm[0] < best):
            best = imm[0]
            src = imm
        if best is None:
            raise EmptySchedule()
        if src is heap:
            t, _prio, _seq, event = _heappop(heap)
        else:
            t, _prio, _seq, event = src.popleft()
        self.now = t
        callbacks, event.callbacks = event.callbacks, None
        self._callbacks = callbacks
        self._n_processed += 1
        obs = self.obs
        if obs is not None and obs.on_step is not None:
            obs.on_step(t, len(heap) + len(urg) + len(imm))
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            cause = event._value
            label = getattr(event, "label", event.name or repr(event))
            raise UnhandledProcessError(label, cause) from cause

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or virtual time exceeds *until*."""
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        while self._heap or self._urgent or self._immediate:
            if until is not None and self.peek() > until:
                self.now = until
                return
            self.step()

    def run_until_complete(self, process: Process, limit: Optional[float] = None) -> Any:
        """Run until *process* terminates; return its value or re-raise.

        *limit* bounds virtual time as a deadlock guard.
        """
        step = self.step
        heap = self._heap
        # process.callbacks is None <=> process.processed — checked raw to
        # skip two property dispatches per event in this innermost loop.
        # An empty schedule surfaces as EmptySchedule from step() rather
        # than being pre-checked, keeping the no-limit loop at two
        # attribute loads per event.
        while process.callbacks is not None:
            # peek() is at most the heap top, so a heap top within the
            # limit settles the check without the call; once it is past
            # the limit (or the heap is empty), pending zero-delay events
            # at ``now`` still run if ``now`` is within it
            if (
                limit is not None
                and not (heap and heap[0][0] <= limit)
                and self.peek() > limit
            ):
                raise SimulationError(
                    f"virtual time limit {limit} exceeded waiting for {process.label!r}"
                )
            try:
                step()
            except EmptySchedule:
                raise SimulationError(
                    f"deadlock: schedule drained but {process.label!r} never finished"
                ) from None
            except UnhandledProcessError:
                if process.triggered and not process.ok:
                    raise process.value
                raise
        if not process.ok:
            raise process.value
        return process.value

    @property
    def events_processed(self) -> int:
        return self._n_processed
