"""The one hook path from the simulated stack to its observers.

Observers (trace recorder, profiler, sanitizer, metrics) watch a run
without changing it.  They attach to one slot, :attr:`Simulator.obs
<repro.sim.core.Simulator.obs>`, which is ``None`` while none is attached.
Every instrumentation site follows one pattern, one load and one compare
when detached::

    obs = self.sim.obs
    if obs is not None:
        obs.on_fault(page, is_write)

An attached slot holds an :class:`Observers`: one attribute per name in
:data:`HOOKS`, resolved when an observer attaches or detaches.  A hook
reaches every attached observer that defines a method of that name (and,
if it has a ``wants(hook)`` method, wants it), in attach order.  With
exactly one subscriber the attribute *is* that subscriber's bound
method, so the call costs what a direct call costs; with none it is a
no-op — except the hooks the engine calls per event,
:data:`PER_EVENT_HOOKS`, which are ``None`` then and which their one
call site each checks.  Region sites pair ``on_enter(phase)`` (the
profiler's phase push) with ``on_leave(cat, name, t0, **attrs)`` (the
profiler's pop and the recorder's span in one call) or with ``pop()``
when the region records no span.

The hub is rebuilt, never mutated: a site that read ``sim.obs`` before an
attach or detach keeps calling the set it read, so a region's enter and
leave always reach the same observers.

Fault injection (:mod:`repro.chaos`) changes the schedule, so it is not
an observer; it hangs off :attr:`Network.chaos
<repro.cluster.network.Network.chaos>`.
"""

from __future__ import annotations

from typing import Tuple

#: every hook an instrumentation site may call on ``sim.obs``
HOOKS: Tuple[str, ...] = (
    # engine
    "on_step", "on_resume", "on_block", "on_end",
    # phase regions: profiler stack, recorder span
    "on_enter", "on_leave", "pop", "replace", "replace_busy",
    # recorder primitives
    "instant", "span", "counter",
    # network
    "on_send", "on_deliver", "on_retransmit_wait",
    # dsm pages
    "on_page_state", "on_page_census", "on_access", "on_fault", "on_fetch",
    "on_diff",
    # dsm barrier and locks
    "on_barrier_arrive", "on_barrier_depart", "on_barrier_epoch",
    "on_lock_acquired", "on_lock_hold", "on_lock_grant", "on_lock_piggyback",
    # happens-before edges (threads, mutexes, teams, messages)
    "on_fork", "on_join", "on_lock_acquire", "on_lock_release", "on_gather",
    "on_gather_leader", "on_gate_open", "on_gate_wait", "on_msg_send",
    "on_msg_recv",
)


#: called once per processed event, resume or blocking yield; unsubscribed
#: they are None rather than a no-op call
PER_EVENT_HOOKS = ("on_step", "on_resume", "on_block")


def _noop(*args, **kwargs) -> None:
    return None


def _fan_out(fns):
    if len(fns) == 2:
        first, second = fns

        def fan2(*args, **kwargs):
            first(*args, **kwargs)
            second(*args, **kwargs)

        return fan2

    def fan(*args, **kwargs):
        for fn in fns:
            fn(*args, **kwargs)

    return fan


class Observers:
    """The attached observers of one simulator, one attribute per hook."""

    __slots__ = ("members",) + HOOKS

    def __init__(self, members: tuple):
        self.members = members
        for name in HOOKS:
            fns = tuple(
                getattr(o, name) for o in members
                if hasattr(o, name) and (not hasattr(o, "wants") or o.wants(name))
            )
            if not fns:
                hook = None if name in PER_EVENT_HOOKS else _noop
            elif len(fns) == 1:
                hook = fns[0]
            else:
                hook = _fan_out(fns)
            setattr(self, name, hook)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Observers {[type(o).__name__ for o in self.members]}>"


def attached(sim) -> tuple:
    """The observers attached to *sim*, in attach order."""
    obs = getattr(sim, "obs", None)
    return () if obs is None else obs.members


def attach(sim, observer) -> None:
    """Add *observer* to *sim*'s hook path (no-op if already attached)."""
    members = attached(sim)
    if not any(m is observer for m in members):
        sim.obs = Observers(members + (observer,))


def detach(sim, observer) -> None:
    """Remove *observer*; the slot returns to ``None`` with the last one."""
    members = tuple(m for m in attached(sim) if m is not observer)
    sim.obs = Observers(members) if members else None


def close(sim, t: float) -> None:
    """End the observation at virtual time *t*: every attached observer
    with books to close (``finalize(t)``: profiler, metrics) closes them
    at *t* and is detached, so nothing after the run's end (the chaos
    layer's retransmit settling) reaches it.  The others (recorder,
    sanitizer) stay."""
    for o in attached(sim):
        finalize = getattr(o, "finalize", None)
        if finalize is not None:
            finalize(t)
            detach(sim, o)


class Observer:
    """Mixin of the attachable observers: ``attach``/``detach`` on
    ``self.sim``."""

    __slots__ = ()

    def attach(self):
        """Join the simulator's hook path."""
        attach(self.sim, self)
        return self

    def detach(self):
        """Leave the simulator's hook path."""
        detach(self.sim, self)
        return self
