"""Which functions belong to which layer, and how to wrap them.

Every entry names a class of the simulator and the functions through
which other layers call into it.  :func:`install` replaces each with a
span-recording wrapper (see :mod:`spans`) and returns a handle whose
:meth:`Installed.restore` puts the originals back.  Nothing under
``src/`` is edited: the wrappers are class attributes set at run time.

Install before any :class:`~repro.runtime.ParadeRuntime` is built.
Some call sites bind methods once (the comm thread hoists
``node.busy_cpu``, DSM handlers are registered as bound methods), so a
runtime built earlier would keep calling the unwrapped functions.

A layer's self time is the self time of its spans.  Code that runs
under no span of its own is charged to the innermost open span, which
is why the runtime's process bodies and the engine's helpers that other
layers call (``schedule``, ``Resource.request``, ``Store.put`` ...) are
wrapped too.  ``on_*`` in a name list stands for every ``on_*`` hook the
class defines.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Dict, List, Tuple

from spans import SpanRecorder

#: (layer, module, class, function names)
LAYER_TABLE: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("sim", "repro.sim.core", "Simulator",
     ("step", "run", "run_until_complete", "schedule", "timeout", "process",
      "event")),
    ("sim", "repro.sim.events", "Event", ("succeed", "fail", "trigger")),
    ("sim", "repro.sim.events", "Timeout", ("__init__",)),
    ("sim", "repro.sim.events", "_Condition", ("__init__",)),
    ("sim", "repro.sim.process", "Process", ("__init__", "interrupt")),
    ("sim", "repro.sim.resources", "Resource",
     ("request", "release", "cancel", "execute")),
    ("sim", "repro.sim.store", "Store", ("put", "get", "get_filtered")),
    ("sim", "repro.sim.sync", "Mutex", ("acquire", "release")),
    ("sim", "repro.sim.sync", "ConditionVar", ("wait", "notify", "notify_all")),
    ("sim", "repro.sim.sync", "Semaphore", ("post", "wait")),
    ("sim", "repro.sim.sync", "SimBarrier", ("arrive",)),
    ("sim", "repro.sim.sync", "Latch", ("count_down", "wait")),
    ("cluster", "repro.cluster.network", "Network", ("send", "_deliver")),
    ("cluster", "repro.cluster.node", "Node", ("compute", "busy_cpu")),
    ("cluster", "repro.cluster.cluster", "Cluster", ("stats",)),
    ("vm", "repro.vm.addrspace", "AddressSpace",
     ("map", "map_identity", "unmap", "protect", "check_range", "can_access", "read",
      "write", "view")),
    ("vm", "repro.vm.memory", "PhysicalMemory", ("frame_view", "read_frame", "write_frame")),
    ("dsm.access", "repro.dsm.sharedarray", "NodeArrayView",
     ("get", "writable", "set", "get_scalar", "set_scalar", "raw")),
    ("dsm.access", "repro.dsm.sharedarray", "NodeScalarView",
     ("get", "set", "raw_get", "raw_set")),
    ("dsm.access", "repro.dsm.node", "DsmNode",
     ("try_fast_access", "read", "write")),
    ("dsm.handler", "repro.dsm.node", "DsmNode",
     ("acquire_read", "acquire_write", "barrier", "handle_dsm", "handle_barrier",
      "busy", "mark_object_pages", "_readahead_sender", "_push_sender")),
    ("dsm.handler", "repro.dsm.system", "DsmSystem", ("alloc", "stats")),
    ("dsm.sync", "repro.dsm.node", "DsmNode",
     ("lock_acquire", "lock_release", "handle_lock")),
    ("mpi", "repro.mpi.communicator", "RankComm",
     ("send", "recv", "recv_with_status", "irecv", "bcast", "reduce", "allreduce",
      "barrier", "gather", "allgather", "scatter")),
    ("mpi", "repro.mpi.matching", "MatchQueue", ("deliver", "post")),
    ("mpi", "repro.mpi.commthread", "CommThread", ("_loop", "register", "start", "shutdown")),
    ("runtime", "repro.runtime.runtime", "ParadeRuntime",
     ("__init__", "run", "run_region", "_agent_loop", "_run_region_on_node",
      "_thread_main", "shared_array", "shared_scalar", "lock_id_for",
      "reduce_scratch", "single_flag")),
    ("runtime", "repro.runtime.context", "_CtxBase", ("array", "scalar", "compute")),
    ("runtime", "repro.runtime.context", "ThreadCtx",
     ("for_range", "for_chunks", "dynamic_loop", "barrier", "critical_update",
      "atomic_update", "critical_region", "reduce_into", "reduce_value", "single",
      "master", "sections", "set_lock", "unset_lock")),
    ("runtime", "repro.runtime.context", "MasterCtx",
     ("parallel", "shared_array", "shared_scalar")),
    ("runtime", "repro.runtime.team", "NodeTeam",
     ("named_mutex", "combining", "barrier", "first_arriver", "wait_gate", "open_gate")),
    ("runtime", "repro.runtime.dynamic", "DynamicScheduler", ("request",)),
    ("runtime", "repro.runtime.dynamic", "DynamicLoop", ("next_chunk",)),
    ("trace", "repro.trace.recorder", "TraceRecorder",
     ("instant", "span", "counter", "on_*")),
    ("profile", "repro.profile.profiler", "Profiler",
     ("push", "pop", "replace", "replace_busy", "finalize", "on_*")),
    ("sanitizer", "repro.sanitizer.core", "Sanitizer", ("on_*",)),
    ("metrics", "repro.metrics.sampler", "Metrics", ("sample", "finalize", "on_*")),
    ("chaos", "repro.chaos.engine", "ChaosEngine",
     ("install", "transmit", "_launch", "_arrive", "_send_ack", "_arm_timer",
      "comm_stall")),
]

#: every layer, in report order; ``apps`` is the application code the
#: benchmark hands to the runtime (programs and parallel-region bodies)
LAYERS: Tuple[str, ...] = (
    "sim", "cluster", "vm", "dsm.access", "dsm.handler", "dsm.sync", "mpi",
    "runtime", "apps", "trace", "profile", "sanitizer", "metrics", "chaos",
)

#: span names of the application code
APP_PROGRAM = "apps:program"
APP_BODY = "apps:body"


def _names(cls, names) -> List[str]:
    out = []
    for n in names:
        if n == "on_*":
            out.extend(sorted(k for k in vars(cls) if k.startswith("on_")))
        else:
            out.append(n)
    return out


class Installed:
    """Handle on the installed wrappers."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        #: span name -> layer
        self.layer_of: Dict[str, str] = {APP_PROGRAM: "apps", APP_BODY: "apps"}
        #: names listed in LAYER_TABLE that the code does not define
        self.missing: List[str] = []
        self._saved: List[Tuple[type, str, object]] = []

    def restore(self) -> None:
        for cls, name, orig in reversed(self._saved):
            setattr(cls, name, orig)
        self._saved.clear()

    def layer_totals(self, totals) -> Dict[str, Dict[str, float]]:
        """Per layer, calls and self seconds summed from per-name
        :meth:`SpanRecorder.totals`."""
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, tot in totals.items():
            layer = out[self.layer_of[name]]
            layer["calls"] += tot["calls"]
            layer["self_s"] += tot["self_s"]
        return out


def _wrap(rec: SpanRecorder, span: str, fn):
    if span == "runtime:ParadeRuntime.run":
        return _wrap_run(rec, span, fn)
    if span == "runtime:MasterCtx.parallel":
        return _wrap_parallel(rec, span, fn)
    if span == "dsm.access:DsmNode.try_fast_access":
        return rec.wrap_call(span, fn, count_hits=True)
    if inspect.isgeneratorfunction(fn):
        return rec.wrap_genfn(span, fn)
    return rec.wrap_call(span, fn)


def _wrap_run(rec: SpanRecorder, span: str, fn):
    """``ParadeRuntime.run``, with the master program timed as ``apps``."""
    program_id = rec.name_id(APP_PROGRAM)

    def run(self, program, *args, **kwargs):
        def program_gen(*pargs):
            return rec.timed_generator(program_id, program(*pargs))

        return fn(self, program_gen, *args, **kwargs)

    return rec.wrap_call(span, run)


def _wrap_parallel(rec: SpanRecorder, span: str, fn):
    """``MasterCtx.parallel``, with the region body timed as ``apps``."""
    body_id = rec.name_id(APP_BODY)

    def parallel(self, body, *args, **kwargs):
        def body_gen(*bargs):
            return rec.timed_generator(body_id, body(*bargs))

        return fn(self, body_gen, *args, **kwargs)

    return rec.wrap_genfn(span, parallel)


def install(rec: SpanRecorder) -> Installed:
    """Wrap every function of :data:`LAYER_TABLE`; names the code no
    longer defines are skipped and listed in ``Installed.missing``."""
    inst = Installed(rec)
    for layer, module, clsname, names in LAYER_TABLE:
        cls = getattr(importlib.import_module(module), clsname)
        for name in _names(cls, names):
            fn = vars(cls).get(name)
            span = f"{layer}:{clsname}.{name}"
            if not inspect.isfunction(fn):
                inst.missing.append(span)
                continue
            inst.layer_of[span] = layer
            inst._saved.append((cls, name, fn))
            setattr(cls, name, _wrap(rec, span, fn))
    return inst
