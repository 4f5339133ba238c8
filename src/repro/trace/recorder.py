"""The bounded trace recorder.

Lifecycle::

    rec = TraceRecorder(sim, capacity=1 << 16)   # joins sim.obs
    ... run the program ...
    events = rec.drain()                          # or iterate rec.events

The recorder is one of the observers on the simulator's single hook path
(:mod:`repro.sim.observers`).  Instrumentation sites are zero-cost when
nothing is attached (``sim.obs is None`` — one load and one compare, no
allocation)::

    obs = self.sim.obs
    if obs is not None:
        obs.instant(CAT_PAGE, "twin", node=self.id, page=page)

Spans capture their own start time so the site needs no recorder state.
A region the profiler phases too opens with ``on_enter(phase)`` and
closes with ``on_leave``, which is the profiler's pop and this
recorder's :meth:`span` in one call::

    obs = self.sim.obs
    t0 = self.sim.now
    if obs is not None:
        obs.on_enter(PH_FAULT_FETCH)
    ...  # yield from the work being measured
    if obs is not None:
        obs.on_leave(CAT_PAGE, "fetch", t0, node=self.id, page=page)

The named ``on_*`` hooks (process resume/block/end, message send and
delivery, page-state transitions) build their events here, so a site
pays for argument formatting only when a recorder is attached.

The ring is a ``deque(maxlen=capacity)``: when full, the *oldest* events
are evicted (``n_dropped`` counts them), so memory is bounded by the
configured capacity regardless of run length, and the tail of the run —
usually what you are debugging — is what survives.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, FrozenSet, Iterable, List, Optional

from repro.dsm.states import PageState
from repro.sim.observers import Observer
from repro.trace.events import (
    CAT_COUNTER,
    CAT_NET,
    CAT_PAGE,
    CAT_SIM,
    DEFAULT_CATEGORIES,
    TraceEvent,
)

#: hooks that emit ``sim``-category (kernel scheduling) events
_SIM_HOOKS = frozenset({"on_resume", "on_block", "on_end"})


class TraceRecorder(Observer):
    """Bounded ring buffer of :class:`TraceEvent`, bound to one simulator.

    Parameters
    ----------
    sim : the :class:`~repro.sim.Simulator` whose clock stamps events;
        the recorder joins ``sim.obs`` unless ``attach=False``.
    capacity : ring size in events; oldest events are evicted when full.
    categories : set of category constants to record;
        ``None`` means :data:`~repro.trace.events.DEFAULT_CATEGORIES`
        (everything except the noisy kernel-scheduler category, whose
        hooks the recorder subscribes to only when it is in the set at
        attach time).
    queue_stride : sample the simulator event-queue depth as a counter
        series every this-many processed events (0 disables sampling).
        The simulator calls :meth:`on_step` once per processed event when
        a recorder is attached.
    """

    __slots__ = (
        "sim", "capacity", "categories", "enabled", "n_emitted", "_ring",
        "queue_stride", "_step_count",
    )

    def __init__(
        self,
        sim,
        capacity: int = 1 << 16,
        categories: Optional[Iterable[str]] = None,
        attach: bool = True,
        queue_stride: int = 64,
    ):
        if capacity <= 0:
            raise ValueError(f"trace ring capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.categories: FrozenSet[str] = (
            DEFAULT_CATEGORIES if categories is None else frozenset(categories)
        )
        #: master switch; ``False`` makes emit calls record nothing
        self.enabled = True
        #: events offered and accepted (before eviction)
        self.n_emitted = 0
        self._ring: deque = deque(maxlen=capacity)
        if queue_stride < 0:
            raise ValueError(f"queue_stride must be >= 0, got {queue_stride}")
        self.queue_stride = queue_stride
        self._step_count = 0
        if attach:
            self.attach()

    # -- emission -------------------------------------------------------
    def _tid(self) -> str:
        proc = self.sim.active_process
        return proc.label if proc is not None else "main"

    def instant(
        self, cat: str, name: str, node: int = -1, tid: Optional[str] = None, **args: Any
    ) -> None:
        """Record a point event at the current virtual time."""
        if not self.enabled or cat not in self.categories:
            return
        self.n_emitted += 1
        self._ring.append(
            TraceEvent(
                self.sim.now, cat, name, node=node, tid=tid or self._tid(), args=args or None
            )
        )

    def span(
        self,
        cat: str,
        name: str,
        t0: float,
        node: int = -1,
        tid: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record a completed span that started at virtual time *t0*."""
        if not self.enabled or cat not in self.categories:
            return
        self.n_emitted += 1
        self._ring.append(
            TraceEvent(
                t0,
                cat,
                name,
                node=node,
                tid=tid or self._tid(),
                dur=max(0.0, self.sim.now - t0),
                args=args or None,
            )
        )

    def counter(
        self, cat: str, name: str, node: int = -1, tid: str = "counters", **values: Any
    ) -> None:
        """Record one sample of a counter series (``ph:"C"`` on export).

        *values* are the numeric series values at the current virtual time;
        Chrome/Perfetto stack multiple keys of one counter name.
        """
        if not self.enabled or cat not in self.categories:
            return
        self.n_emitted += 1
        self._ring.append(
            TraceEvent(self.sim.now, cat, name, node=node, tid=tid, args=values, ph="C")
        )

    #: a region's close is a span (the profiler pops on the same hook)
    on_leave = span

    # -- hooks ------------------------------------------------------------
    def on_step(self, now: float, queue_depth: int) -> None:
        """Called by the simulator once per processed event; samples the
        pending-event count every :attr:`queue_stride` events."""
        stride = self.queue_stride
        if not stride:
            return
        self._step_count += 1
        if self._step_count % stride == 0:
            self.counter(CAT_COUNTER, "queue-depth", depth=queue_depth)

    def wants(self, hook: str) -> bool:
        """The kernel-scheduler hooks (one call per resume, block or end)
        are subscribed only when their category is recorded; the category
        set is read when the recorder attaches."""
        return hook not in _SIM_HOOKS or CAT_SIM in self.categories

    def on_resume(self, label: str) -> None:
        self.instant(CAT_SIM, "resume", tid=label)

    def on_block(self, label: str, target) -> None:
        self.instant(
            CAT_SIM, "block", tid=label,
            target=target.name or getattr(target, "label", "")
            or target.__class__.__name__,
        )

    def on_end(self, label: str, ok: bool) -> None:
        self.instant(CAT_SIM, "end", tid=label, ok=ok)

    def on_send(self, msg) -> None:
        self.instant(
            CAT_NET, "msg-send", node=msg.src, dst=msg.dst, nbytes=msg.nbytes,
            tag=str(msg.tag), seq=msg.seq,
        )

    def on_deliver(self, msg, flight_t0) -> None:
        self.instant(
            CAT_NET, "msg-deliver", node=msg.dst, tid="wire",
            src=msg.src, nbytes=msg.nbytes, tag=str(msg.tag), seq=msg.seq,
        )

    def on_page_state(self, node: int, page: int, src, dst, reason: str) -> None:
        self.instant(
            CAT_PAGE, "page-state", node=node,
            page=page, src=src.name, dst=dst.name, reason=reason,
        )

    def on_page_census(self, node: int, states) -> None:
        """Counter sample of one node's page-state census (post-barrier).

        All counter args must stay numeric series values: Chrome stacks
        every ``args`` key as one band of the counter track.
        """
        counts = {st.name: 0 for st in PageState}
        for st in states:
            counts[st.name] += 1
        self.counter("counter", "page-census", node=node, **counts)

    # -- inspection -----------------------------------------------------
    @property
    def events(self) -> List[TraceEvent]:
        """Snapshot of the ring, oldest first (spans ordered by start)."""
        return sorted(self._ring, key=lambda e: e.ts)

    @property
    def n_dropped(self) -> int:
        """Events evicted from the ring so far."""
        return self.n_emitted - len(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def drain(self) -> List[TraceEvent]:
        """Return all buffered events (oldest first) and clear the ring."""
        out = self.events
        self._ring.clear()
        return out

    def counts_by_category(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for ev in self._ring:
            out[ev.cat] = out.get(ev.cat, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TraceRecorder {len(self._ring)}/{self.capacity} events, "
            f"{self.n_dropped} dropped, cats={sorted(self.categories)}>"
        )
