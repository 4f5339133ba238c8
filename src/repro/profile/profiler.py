"""The virtual-time profiler.

One of the observers on the simulator's single hook path
(:mod:`repro.sim.observers`)::

    prof = Profiler(sim)          # joins sim.obs
    ... run the program ...
    prof.finalize()               # close open phases (ParadeRuntime.run
                                  # already closed them at the run's end)
    data = prof.snapshot()        # ProfileData: ledgers, path, hot tables

Instrumentation sites throughout the stack guard on ``sim.obs is None``
(one load and one compare — the entire cost when detached) and drive a
per-thread **phase stack**:

* ``on_enter(phase)`` starts a nested phase on the calling simulation
  thread;
* ``pop()`` returns to the enclosing phase; ``on_leave(cat, name, t0,
  **attrs)`` does the same and is, on the same hook, the trace recorder's
  span of the region;
* ``replace(phase, active)`` swaps the top (CPU grant: cpu-wait → busy);
* ``replace_busy()`` swaps the top for an *active* copy of the enclosing
  phase — how raw protocol CPU bursts inherit their context (a diff
  computed during a flush is *flush* time, a spin slice during a lock
  acquire is *lock-wait* time).

Time is attributed to the innermost (top) phase; every transition closes
the current slice into the thread's ledger, so per-thread phase times sum
exactly to the thread's virtual lifetime.  With ``record_intervals`` the
closed slices are also kept as a flat interval list — the input of the
critical-path sweep (:mod:`repro.profile.critical_path`) and the
Chrome-counter export (:mod:`repro.profile.export`).

``finalize(t)`` closes the books (``ParadeRuntime.run`` calls it at the
run's elapsed time); phase transitions after that are ignored, so
nothing past the run's end is attributed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.profile.phases import (
    ALL_GROUPS,
    PH_IDLE,
    NET_TID,
    group_of,
    node_of_tid,
)
from repro.sim.observers import Observer
from repro.util.tables import percentile

#: an emitted interval: (t0, t1, tid, phase, active)
Interval = Tuple[float, float, str, str, bool]


class _ThreadState:
    """Phase stack + ledger of one simulation thread."""

    __slots__ = ("tid", "node", "start", "last", "end", "stack", "ledger")

    def __init__(self, tid: str, now: float):
        self.tid = tid
        self.node = node_of_tid(tid)
        self.start = now
        self.last = now
        self.end: Optional[float] = None
        #: innermost last; entries are (phase, active)
        self.stack: List[Tuple[str, bool]] = []
        self.ledger: Dict[str, float] = {}


class LockStats:
    """Per-distributed-lock accumulator (hot-lock table row)."""

    __slots__ = ("acquires", "remote_acquires", "hops", "waits", "last_holder")

    def __init__(self):
        self.acquires = 0
        self.remote_acquires = 0
        #: grants whose requester differs from the previous holder — the
        #: token actually moved between nodes
        self.hops = 0
        self.waits: List[float] = []
        self.last_holder: Optional[int] = None


class PageStats:
    """Per-page accumulator (hot-page table row)."""

    __slots__ = ("read_faults", "write_faults", "fetches", "fetch_bytes",
                 "diffs", "diff_bytes")

    def __init__(self):
        self.read_faults = 0
        self.write_faults = 0
        self.fetches = 0
        self.fetch_bytes = 0
        self.diffs = 0
        self.diff_bytes = 0


class Profiler(Observer):
    """Bounded-state virtual-time profiler, bound to one simulator.

    Parameters
    ----------
    sim : the :class:`~repro.sim.Simulator` whose clock stamps phases; the
        profiler joins ``sim.obs`` unless ``attach=False``.
    record_intervals : keep the flat interval stream (needed for the
        critical path and the Chrome-counter export; ledgers and hot
        tables work without it).
    """

    def __init__(self, sim, attach: bool = True, record_intervals: bool = True):
        self.sim = sim
        self.record_intervals = record_intervals
        self.threads: Dict[str, _ThreadState] = {}
        self.intervals: List[Interval] = []
        #: switch-propagation intervals of the pseudo-thread ``net``
        self.net_intervals: List[Interval] = []
        self.net_flight_s = 0.0
        self.net_flights = 0
        #: reliability-layer retransmit-timer dead time (chaos runs only)
        self.retransmit_waits = 0
        self.retransmit_wait_s = 0.0
        self.pages: Dict[int, PageStats] = {}
        self.locks: Dict[int, LockStats] = {}
        self.finalized_at: Optional[float] = None
        if attach:
            self.attach()

    # -- thread state ---------------------------------------------------
    def _state(self) -> _ThreadState:
        proc = self.sim.active_process
        tid = proc.label if proc is not None else "main"
        st = self.threads.get(tid)
        if st is None:
            st = _ThreadState(tid, self.sim.now)
            self.threads[tid] = st
        return st

    def _close(self, st: _ThreadState, now: float) -> None:
        """Attribute [st.last, now) to the current top phase (nothing once
        the books are closed: late pops of the run's drain)."""
        if self.finalized_at is not None:
            return
        dur = now - st.last
        if dur > 0.0:
            phase, active = st.stack[-1] if st.stack else (PH_IDLE, False)
            st.ledger[phase] = st.ledger.get(phase, 0.0) + dur
            if self.record_intervals:
                self.intervals.append((st.last, now, st.tid, phase, active))
        st.last = now

    # -- phase stack hooks ----------------------------------------------
    def push(self, phase: str, active: bool = False) -> None:
        st = self._state()
        self._close(st, self.sim.now)
        st.stack.append((phase, active))

    #: a region opens with a phase push
    on_enter = push

    def pop(self) -> None:
        st = self._state()
        self._close(st, self.sim.now)
        if st.stack:
            st.stack.pop()

    def on_leave(self, cat: str, name: str, t0: float, **attrs) -> None:
        """Region close: pop (the recorder spans the region on this hook)."""
        st = self._state()
        self._close(st, self.sim.now)
        if st.stack:
            st.stack.pop()

    def replace(self, phase: str, active: bool = True) -> None:
        """Swap the top phase in place (CPU grant: cpu-wait → busy)."""
        st = self._state()
        self._close(st, self.sim.now)
        entry = (phase, active)
        if st.stack:
            st.stack[-1] = entry
        else:
            st.stack.append(entry)

    def replace_busy(self) -> None:
        """Swap the top for an *active* copy of the enclosing phase: a raw
        CPU burst inherits its context (flush, fault-work, comm-service,
        lock-wait spin ...); with no context it is bare ``overhead``."""
        from repro.profile.phases import PH_OVERHEAD

        st = self._state()
        self._close(st, self.sim.now)
        below = st.stack[-2][0] if len(st.stack) >= 2 else PH_OVERHEAD
        entry = (below, True)
        if st.stack:
            st.stack[-1] = entry
        else:
            st.stack.append(entry)

    # -- process lifecycle hooks (called from Process._resume) -----------
    def on_resume(self, label: str) -> None:
        """Ensure a ledger exists from the thread's first resume (which is
        at its creation virtual time), so leading waits are not lost."""
        if label not in self.threads:
            self.threads[label] = _ThreadState(label, self.sim.now)

    def on_end(self, label: str, ok: bool) -> None:
        st = self.threads.get(label)
        if st is not None and st.end is None:
            self._close(st, self.sim.now)
            st.end = self.sim.now
            st.stack.clear()

    def finalize(self, now: Optional[float] = None) -> "Profiler":
        """Close every open phase at *now* (default: the current virtual
        time).  The first call wins: a profiler that
        :meth:`ParadeRuntime.run <repro.runtime.ParadeRuntime.run>` closed
        at the run's end keeps that end."""
        if self.finalized_at is not None:
            return self
        if now is None:
            now = self.sim.now
        for st in self.threads.values():
            if st.end is None:
                self._close(st, now)
                st.end = now
                st.stack.clear()
        self.finalized_at = now
        return self

    # -- network hooks ---------------------------------------------------
    def on_deliver(self, msg, flight_t0: Optional[float]) -> None:
        """Record one remote message's switch-propagation interval
        [*flight_t0*, now); loopback deliveries (``None``) never flew."""
        if flight_t0 is None:
            return
        t1 = self.sim.now
        self.net_flights += 1
        self.net_flight_s += t1 - flight_t0
        if self.record_intervals and t1 > flight_t0:
            from repro.profile.phases import PH_NET_FLIGHT

            self.net_intervals.append((flight_t0, t1, NET_TID, PH_NET_FLIGHT, True))

    def on_retransmit_wait(self, t0: float, t1: float) -> None:
        """Record the dead time preceding one reliability-layer retransmit:
        the frame (or its ack) was lost at *t0* and the retransmit timer
        fired at *t1*.  Attributed to the pseudo-thread ``net`` like
        switch propagation, so lossy-link stalls show up on the critical
        path as ``retransmit-wait`` rather than unattributed slack."""
        self.retransmit_waits += 1
        self.retransmit_wait_s += t1 - t0
        if self.record_intervals and t1 > t0:
            from repro.profile.phases import PH_RETRANSMIT

            self.net_intervals.append((t0, t1, NET_TID, PH_RETRANSMIT, True))

    # -- hot-page hooks ---------------------------------------------------
    def _page(self, page: int) -> PageStats:
        ps = self.pages.get(page)
        if ps is None:
            ps = PageStats()
            self.pages[page] = ps
        return ps

    def on_fault(self, page: int, is_write: bool) -> None:
        ps = self._page(page)
        if is_write:
            ps.write_faults += 1
        else:
            ps.read_faults += 1

    def on_fetch(self, page: int, nbytes: int) -> None:
        ps = self._page(page)
        ps.fetches += 1
        ps.fetch_bytes += nbytes

    def on_diff(self, page: int, nbytes: int) -> None:
        ps = self._page(page)
        ps.diffs += 1
        ps.diff_bytes += nbytes

    # -- hot-lock hooks ----------------------------------------------------
    def _lock(self, lock_id: int) -> LockStats:
        ls = self.locks.get(lock_id)
        if ls is None:
            ls = LockStats()
            self.locks[lock_id] = ls
        return ls

    def on_lock_acquired(self, lock_id: int, wait: float, remote: bool) -> None:
        ls = self._lock(lock_id)
        ls.acquires += 1
        if remote:
            ls.remote_acquires += 1
        ls.waits.append(wait)

    def on_lock_grant(self, manager: int, lock_id: int, requester: int,
                      start: int, end: int, log_len: int) -> None:
        """Manager-side grant: counts holder-to-holder token hops."""
        ls = self._lock(lock_id)
        if ls.last_holder is not None and ls.last_holder != requester:
            ls.hops += 1
        ls.last_holder = requester

    # -- aggregation -------------------------------------------------------
    def ledgers(self) -> Dict[str, Dict[str, float]]:
        """``{tid: {phase: seconds}}`` snapshot (finalize first)."""
        return {tid: dict(st.ledger) for tid, st in sorted(self.threads.items())}

    def totals(self) -> Dict[str, float]:
        """Phase seconds summed over every thread, plus net flight."""
        out: Dict[str, float] = {}
        for st in self.threads.values():
            for phase, sec in st.ledger.items():
                out[phase] = out.get(phase, 0.0) + sec
        return out

    def group_totals(self) -> Dict[str, float]:
        out = {g: 0.0 for g in ALL_GROUPS}
        for phase, sec in self.totals().items():
            out[group_of(phase)] += sec
        return out

    def group_fractions(self, ndigits: int = 6) -> Dict[str, float]:
        """Group shares of total thread-time (what the bench records)."""
        gt = self.group_totals()
        total = sum(gt.values())
        if total <= 0.0:
            return {g: 0.0 for g in ALL_GROUPS}
        return {g: round(sec / total, ndigits) for g, sec in gt.items()}

    def thread_total(self, tid: str) -> float:
        st = self.threads[tid]
        end = st.end if st.end is not None else st.last
        return end - st.start

    def max_sum_error(self) -> float:
        """Largest |sum(phases) - lifetime| over all threads — the
        invariant ``--check`` asserts (should be ~float rounding)."""
        worst = 0.0
        for tid, st in self.threads.items():
            err = abs(sum(st.ledger.values()) - self.thread_total(tid))
            if err > worst:
                worst = err
        return worst

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Profiler {len(self.threads)} threads, "
            f"{len(self.intervals)} intervals, {len(self.pages)} pages, "
            f"{len(self.locks)} locks>"
        )


#: nearest-rank percentile — re-exported from :mod:`repro.util.tables`,
#: shared with the metrics scorecard so the hot-lock table and the live
#: histograms agree on the definition
__all__ = ["Profiler", "LockStats", "PageStats", "percentile"]
