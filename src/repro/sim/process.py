"""Generator-driven processes.

A :class:`Process` wraps a generator.  Yielding an :class:`Event` suspends
the process until the event fires; a failed event is thrown into the
generator as an exception.  ``return value`` inside the generator sets the
process's own event value (a process *is* an event, so processes can wait on
each other).
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Optional

from repro.sim.events import Event, Interrupted, NORMAL, PENDING, URGENT


class Process(Event):
    """An event that fires when its generator terminates."""

    __slots__ = ("_gen", "_target", "label")

    def __init__(self, sim, generator, label: str = ""):
        if not isinstance(generator, GeneratorType):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__} "
                "(did you forget a 'yield' in the process function?)"
            )
        super().__init__(sim)
        self._gen = generator
        self._target: Optional[Event] = None
        self.label = label or getattr(generator, "__name__", "process")
        # Kick-start at current time.
        init = Event(sim, name=f"init:{self.label}")
        init._ok = True
        init._value = None
        sim.schedule(init, delay=0.0, priority=URGENT)
        init.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at the current time.

        Only valid while the process is suspended on an event that has not
        yet fired.  The interrupted process stops waiting on its target (the
        target event itself is unaffected).
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt terminated process {self.label}")
        ev = Event(self.sim, name=f"interrupt:{self.label}")
        ev._ok = False
        ev._value = Interrupted(cause)
        ev._defused = True
        self.sim.schedule(ev, delay=0.0, priority=URGENT)
        ev.add_callback(self._resume)

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        if self._value is not PENDING:  # triggered, without the property hop
            # Interrupted after termination or double-resume: ignore.
            return
        # Detach from a previous target when resumed by an interrupt.
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:
                    pass
        self._target = None

        sim = self.sim
        obs = sim.obs
        prev_active = sim.active_process
        sim.active_process = self
        if obs is not None and obs.on_resume is not None:
            obs.on_resume(self.label)
        gen = self._gen
        try:
            while True:
                try:
                    if event._ok:
                        next_ev = gen.send(event._value)
                    else:
                        event._defused = True
                        next_ev = gen.throw(event._value)
                except StopIteration as stop:
                    if obs is not None:
                        obs.on_end(self.label, True)
                    self.succeed(stop.value, priority=URGENT)
                    return
                except BaseException as exc:
                    # Unhandled failure inside the process: fail the process
                    # event.  If nobody waits on it the simulator will crash
                    # loudly when it processes the failure.
                    if obs is not None:
                        obs.on_end(self.label, False)
                    self.fail(exc, priority=URGENT)
                    return

                try:
                    cbs = next_ev.callbacks
                except AttributeError:
                    exc = TypeError(
                        f"process {self.label!r} yielded {next_ev!r}; "
                        "processes may only yield Events"
                    )
                    event = Event(self.sim)
                    event._ok = False
                    event._value = exc
                    continue

                if cbs is None:  # processed: continue
                    # synchronously with its outcome
                    event = next_ev
                    continue

                cbs.append(self._resume)
                self._target = next_ev
                if obs is not None and obs.on_block is not None:
                    obs.on_block(self.label, next_ev)
                return
        finally:
            sim.active_process = prev_active

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "done" if self.processed else "finishing" if self.triggered else "running"
        )
        return f"<Process {self.label} {state}>"
