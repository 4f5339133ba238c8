"""The live metrics object: registry + deterministic periodic sampler.

:class:`Metrics` is one of the observers on the simulator's single hook
path (:mod:`repro.sim.observers`): sites guard on ``sim.obs is None``, so
a detached run pays one attribute load and one compare per guarded site
and nothing else.

Sampling is **passive**: the simulator calls :meth:`Metrics.on_step`
once per processed event (when attached), and the sampler snapshots its
sources whenever virtual time has crossed the next multiple of
``period``.  No timeout events are ever scheduled, no CPU is charged, no
sequence numbers are consumed — the event schedule of an observed run is
*bit-identical* to the unobserved run, which is what lets the goldens
pin virtual times with metrics on.  The cost of that passivity: samples
land on the first event *at or after* each grid point (exactly the grid
under any workload that processes events steadily), and a quiet tail
yields no samples until :meth:`finalize` takes the closing one, at the
run's elapsed time.

Sources are ``(prefix, fn)`` pairs where ``fn() -> {name: number}``;
each key becomes the time-series ``prefix/name``.  The stock sources for
every layer live in :mod:`repro.metrics.sources`.

Hook sites additionally feed the registry's latency histograms directly
(lock wait/hold, barrier epoch latency, network delivery latency) and
maintain the in-flight per-link gauges — see the ``on_*`` methods.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.metrics.registry import Histogram, MetricsRegistry
from repro.sim.observers import Observer

#: series name of one sampled value stream
Series = Tuple[List[float], List[float]]

#: metric names the hooks maintain (export adds the ``parade_`` prefix)
NET_LATENCY = "net_latency_seconds"
LOCK_WAIT = "lock_wait_seconds"
LOCK_HOLD = "lock_hold_seconds"
BARRIER_EPOCH = "barrier_epoch_seconds"


class Metrics(Observer):
    """Live metrics for one simulator; joins ``sim.obs``.

    Parameters
    ----------
    sim : the :class:`~repro.sim.Simulator` whose virtual clock drives
        the sampling grid; joins ``sim.obs`` unless ``attach=False``.
    period : virtual seconds between samples (the grid spacing).
    max_samples : per-series bound; once reached, further samples of that
        series are dropped (``n_dropped`` counts them) so memory stays
        bounded on arbitrarily long runs.
    """

    def __init__(
        self,
        sim,
        period: float = 1e-4,
        attach: bool = True,
        max_samples: int = 1 << 16,
    ):
        if period <= 0.0:
            raise ValueError(f"sampling period must be positive, got {period}")
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self.sim = sim
        self.period = period
        self.max_samples = max_samples
        self.registry = MetricsRegistry()
        #: series name -> ([times], [values]); insertion-ordered
        self.series: Dict[str, Series] = {}
        self.sources: List[Tuple[str, Callable[[], Dict[str, float]]]] = []
        self.n_samples = 0
        self.n_dropped = 0
        self.finalized_at: Optional[float] = None
        self._next_due = period
        #: (src, dst) -> [msgs, bytes] currently in flight (sent, not yet
        #: delivered into the destination inbox)
        self.inflight: Dict[Tuple[int, int], List[int]] = {}
        self._inflight_msgs = 0
        self._inflight_bytes = 0
        self.add_source("net", self._net_source)
        if attach:
            self.attach()

    # -- lifecycle ------------------------------------------------------
    def add_source(self, prefix: str, fn: Callable[[], Dict[str, float]]) -> None:
        """Register a snapshot source; its keys become ``prefix/name``
        series.  Sources must only *read* state — they run inside the
        event loop and anything else would perturb the schedule."""
        self.sources.append((prefix, fn))

    # -- sampling -------------------------------------------------------
    def on_step(self, now: float, queue_depth: int) -> None:
        """Called by the simulator once per processed event (attached
        runs only); samples when *now* has crossed the next grid point."""
        if now < self._next_due:
            return
        self.sample(now, queue_depth)
        self._next_due = self.period * (math.floor(now / self.period) + 1.0)

    def sample(self, now: float, queue_depth: Optional[int] = None) -> None:
        """Snapshot every source at virtual time *now*."""
        self.n_samples += 1
        if queue_depth is not None:
            self._record("sim/queue_depth", now, queue_depth)
        for prefix, fn in self.sources:
            for name, value in fn().items():
                self._record(f"{prefix}/{name}", now, value)

    def _record(self, name: str, t: float, v: float) -> None:
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = ([], [])
        if len(s[0]) >= self.max_samples:
            self.n_dropped += 1
            return
        s[0].append(t)
        s[1].append(float(v))

    def finalize(self, now: Optional[float] = None) -> "Metrics":
        """Take the closing sample at *now* (default: the current virtual
        time) and stamp ``finalized_at``.  The first call wins: a sampler
        that :meth:`ParadeRuntime.run <repro.runtime.ParadeRuntime.run>`
        closed at the run's end keeps that end."""
        if self.finalized_at is None:
            now = self.sim.now if now is None else now
            self.sample(now)
            self.finalized_at = now
        return self

    def _net_source(self) -> Dict[str, float]:
        out = {
            "inflight_msgs": self._inflight_msgs,
            "inflight_bytes": self._inflight_bytes,
        }
        for (src, dst), (msgs, nbytes) in sorted(self.inflight.items()):
            out[f"link/{src}->{dst}/msgs_inflight"] = msgs
            out[f"link/{src}->{dst}/bytes_inflight"] = nbytes
        return out

    # -- network hooks ---------------------------------------------------
    def on_send(self, msg) -> None:
        """A frame entered the network (loopback included)."""
        src, dst, nbytes = msg.src, msg.dst, msg.nbytes
        ent = self.inflight.get((src, dst))
        if ent is None:
            ent = self.inflight[(src, dst)] = [0, 0]
        ent[0] += 1
        ent[1] += nbytes
        self._inflight_msgs += 1
        self._inflight_bytes += nbytes
        self.registry.counter("net_frames_total", src=src, dst=dst).inc()
        self.registry.counter("net_bytes_total", src=src, dst=dst).inc(nbytes)

    def on_deliver(self, msg, flight_t0) -> None:
        """The frame reached the destination inbox: its latency is the
        virtual time since the send call started (queueing + wire +
        recovery)."""
        src, dst, nbytes = msg.src, msg.dst, msg.nbytes
        latency = self.sim.now - msg.send_time
        ent = self.inflight.get((src, dst))
        if ent is not None:
            ent[0] -= 1
            ent[1] -= nbytes
        self._inflight_msgs -= 1
        self._inflight_bytes -= nbytes
        self.registry.histogram(NET_LATENCY).observe(latency)

    # -- DSM hooks -------------------------------------------------------
    def on_lock_acquired(self, lock_id: int, wait: float, remote: bool) -> None:
        """Request-to-grant latency of one distributed-lock acquire."""
        self.registry.histogram(LOCK_WAIT, lock=lock_id).observe(wait)

    def on_lock_hold(self, lock_id: int, hold: float) -> None:
        """Grant-to-release time of one critical section."""
        self.registry.histogram(LOCK_HOLD, lock=lock_id).observe(hold)

    def on_barrier_epoch(self, node: int, duration: float) -> None:
        """Arrival-to-departure latency of one barrier epoch on *node*."""
        self.registry.histogram(BARRIER_EPOCH, node=node).observe(duration)

    # -- convenience -----------------------------------------------------
    def histogram_percentiles(self, name: str, qs=(50, 90, 99)) -> Dict[str, float]:
        """Percentiles over the *merged* label sets of histogram *name*
        (e.g. lock wait across every lock) — empty histograms yield 0s."""
        merged: Optional[Histogram] = None
        for inst in self.registry.find(name):
            if isinstance(inst, Histogram):
                if merged is None:
                    merged = Histogram.from_dict(name, (), inst.as_dict())
                else:
                    merged.merge(inst)
        if merged is None:
            merged = Histogram(name)
        return merged.percentiles(qs)

    # -- serialisation ---------------------------------------------------
    def dump(self, meta: Optional[Dict] = None) -> Dict:
        """Plain-dict snapshot: the input of every exporter and of the
        ``export`` CLI round trip (see :mod:`repro.metrics.export`)."""
        instruments = []
        for inst in self.registry:
            ent = {
                "kind": inst.kind,
                "name": inst.name,
                "labels": {k: v for k, v in inst.labels},
            }
            if inst.kind == "histogram":
                ent.update(inst.as_dict())
            else:
                ent["value"] = inst.value
            instruments.append(ent)
        return {
            "schema": 1,
            "meta": dict(meta or {}),
            "period": self.period,
            "finalized_at": self.finalized_at,
            "n_samples": self.n_samples,
            "n_dropped": self.n_dropped,
            "series": {
                name: {"t": list(t), "v": list(v)}
                for name, (t, v) in self.series.items()
            },
            "instruments": instruments,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Metrics {len(self.series)} series, {self.n_samples} samples, "
            f"{len(self.registry)} instruments, period={self.period}>"
        )
