"""Happens-before sanitizer for the DSM runtime.

Attach a :class:`Sanitizer` to a simulator's hook path (``sim.obs``, see
:mod:`repro.sim.observers`), or pass ``sanitize=True`` to
:class:`~repro.runtime.ParadeRuntime`, to get vector-clock data-race
detection over every DSM access plus live protocol-invariant checking.  ``python -m repro run <app> --sanitize``
runs a registered workload under the sanitizer; see ``docs/SANITIZER.md``.
"""

from repro.sanitizer.clocks import VectorClock, ordered_before, vc_copy, vc_join
from repro.sanitizer.core import AccessSite, Finding, Sanitizer

__all__ = [
    "AccessSite",
    "Finding",
    "Sanitizer",
    "VectorClock",
    "ordered_before",
    "vc_copy",
    "vc_join",
]
