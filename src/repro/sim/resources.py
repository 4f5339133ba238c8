"""Shared resources with FIFO (optionally prioritised) grant order.

Used to model CPUs (capacity = cores per node), NIC transmit engines
(capacity 1 → serialisation), and pthread mutexes.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Optional

from repro.sim.events import Event, PENDING, SimulationError


class Preempted(SimulationError):
    """Reserved for future preemptive scheduling experiments."""


class Request(Event):
    """Grant event for a resource request; fires when capacity is assigned.

    An uncontended request can come back already *processed*, granted
    without an event (see :class:`Resource`).
    """

    __slots__ = ("resource", "priority", "t_grant")

    def __init__(self, resource: "Resource", priority: int):
        # Event.__init__ inlined (with the name precomputed by the
        # resource): requests are the single hottest event allocation,
        # one per CPU burst
        self.sim = resource.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.name = resource._req_name
        self.resource = resource
        self.priority = priority


class Resource:
    """Capacity-limited resource.

    Usage from a process::

        req = cpu.request()
        yield req
        ...           # hold the resource
        cpu.release(req)

    or the convenience generator ``yield from cpu.execute(duration)``.

    A free resource with an empty queue is granted at once.  When its
    grant event would also be the next event the simulator processes
    (:meth:`Simulator.wakeup_is_next`), the grant costs no event: the
    returned request is already processed, so ``yield req`` continues
    the process synchronously and a burst costs one event, its timeout,
    with the schedule otherwise unchanged.  Otherwise the grant is a
    zero-delay event, so the requester resumes after the events already
    due at this instant, as before.  A contended request is queued and
    granted by an event from :meth:`release`, in (priority, FIFO) order.
    """

    def __init__(self, sim, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._req_name = f"req:{name}"
        self.users: set = set()
        self._queue: list = []
        self._seq = itertools.count()
        # statistics
        self.total_busy_time = 0.0
        self.n_grants = 0

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of users currently holding the resource."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        req = Request(self, priority)
        if len(self.users) >= self.capacity or self._queue:
            heapq.heappush(self._queue, (priority, next(self._seq), req))
        elif self.sim.wakeup_is_next():
            # the grant event would be processed next anyway: grant
            # without it and return the request already processed
            self.users.add(req)
            req.t_grant = self.sim.now
            self.n_grants += 1
            req._ok = True
            req._value = req
            req.callbacks = None
        else:
            self._grant(req)
        return req

    def release(self, request: Request) -> None:
        if request not in self.users:
            raise SimulationError(f"release of non-held request on {self.name}")
        self.users.discard(request)
        self.total_busy_time += self.sim.now - request.t_grant
        while self._queue and len(self.users) < self.capacity:
            _, _, req = heapq.heappop(self._queue)
            self._grant(req)

    def cancel(self, request: Request) -> None:
        """Withdraw a queued (ungranted) request."""
        self._queue = [entry for entry in self._queue if entry[2] is not request]
        heapq.heapify(self._queue)

    def _grant(self, req: Request) -> None:
        self.users.add(req)
        req.t_grant = self.sim.now
        self.n_grants += 1
        req.succeed(req)

    # -- convenience ----------------------------------------------------
    def execute(self, duration: float, priority: int = 0):
        """Hold one capacity unit for *duration* virtual seconds."""
        req = self.request(priority=priority)
        yield req
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release(req)

    @property
    def utilization_until_now(self) -> float:
        """Fraction of (capacity × elapsed time) spent busy so far."""
        if self.sim.now <= 0:
            return 0.0
        busy = self.total_busy_time + sum(
            self.sim.now - req.t_grant for req in self.users
        )
        return busy / (self.capacity * self.sim.now)
