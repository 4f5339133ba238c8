"""A simulated SMP node: CPUs, NIC, inbox."""

from __future__ import annotations

from repro.sim import Resource, Store, Timeout


class Node:
    """One SMP node of the cluster.

    * ``cpus`` — capacity-limited resource (capacity = cores);
    * ``nic_tx`` — transmit engine, capacity 1, serialises outgoing frames;
    * ``inbox`` — FIFO of delivered :class:`~repro.cluster.network.Message`
      objects, drained by the node's communication thread.
    """

    def __init__(self, sim, node_id: int, config):
        self.sim = sim
        self.id = node_id
        self.config = config
        self.cpus = Resource(sim, capacity=config.cpus_per_node, name=f"cpu[{node_id}]")
        self.nic_tx = Resource(sim, capacity=1, name=f"nic[{node_id}]")
        self.inbox = Store(sim, name=f"inbox[{node_id}]")
        self.speed_factor = config.speed_factor(node_id)
        # statistics
        self.msgs_sent = 0
        self.msgs_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.compute_time = 0.0
        self.overhead_time = 0.0

    # compute/busy_cpu are the two hottest generators in the simulator
    # (one per CPU burst); Resource.execute is inlined to save a
    # delegation frame per burst, with the same events: the grant (none
    # when request() grants on the spot and ``yield req`` continues
    # synchronously, see Resource), then one timeout, then release.
    def compute(self, work_units: float, priority: int = 0):
        """Generator: occupy one CPU for *work_units* of application work."""
        # same float expression as config.compute_seconds, but through the
        # node's *live* speed, so a chaos NodeSlowdown window derates
        # compute bursts too (the cached factor equals the config's)
        seconds = work_units * self.config.seconds_per_work_unit / self.speed_factor
        self.compute_time += seconds
        req = self.cpus.request(priority=priority)
        obs = self.sim.obs
        if obs is not None:
            from repro.profile.phases import PH_COMPUTE, PH_CPU_WAIT

            obs.on_enter(PH_CPU_WAIT)
        yield req
        if obs is not None:
            obs.replace(PH_COMPUTE, True)
        try:
            yield Timeout(self.sim, seconds)
        finally:
            if obs is not None:
                obs.pop()
            self.cpus.release(req)

    def busy_cpu(self, seconds: float, priority: int = 0):
        """Generator: occupy one CPU for raw protocol-overhead *seconds*
        (already expressed in wall time; scaled by CPU speed)."""
        scaled = seconds / self.speed_factor
        self.overhead_time += scaled
        req = self.cpus.request(priority=priority)
        obs = self.sim.obs
        if obs is not None:
            from repro.profile.phases import PH_CPU_WAIT

            obs.on_enter(PH_CPU_WAIT)
        yield req
        if obs is not None:
            # the burst itself is charged to the *enclosing* phase (diff
            # work under flush, spin under lock-wait ...), marked active
            obs.replace_busy()
        try:
            yield Timeout(self.sim, scaled)
        finally:
            if obs is not None:
                obs.pop()
            self.cpus.release(req)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.id} ({self.config.cpu_mhz[self.id]} MHz x{self.config.cpus_per_node})>"
