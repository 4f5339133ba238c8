"""Unit tests for resources, stores, and pthread-style sync primitives."""

import pytest

from repro.sim import (
    Simulator,
    Resource,
    Store,
    Mutex,
    ConditionVar,
    SimBarrier,
    Semaphore,
    Latch,
)
from repro.sim.events import SimulationError


# ---------------------------------------------------------------- Resource
def test_resource_capacity_limits_concurrency(sim):
    res = Resource(sim, capacity=2)
    active = []
    peak = []

    def worker(i):
        yield from res.execute(1.0)
        peak.append(sim.now)

    for i in range(4):
        sim.process(worker(i))
    sim.run()
    # 4 jobs of 1s on 2 slots -> finish at 1,1,2,2
    assert sorted(peak) == [1.0, 1.0, 2.0, 2.0]


def test_resource_fifo_grant_order(sim):
    res = Resource(sim, capacity=1)
    order = []

    def worker(i):
        req = res.request()
        yield req
        order.append(i)
        yield sim.timeout(1)
        res.release(req)

    for i in range(5):
        sim.process(worker(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_priority_beats_fifo(sim):
    res = Resource(sim, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(5)
        res.release(req)

    def worker(i, prio):
        yield sim.timeout(1)  # queue up while held
        req = res.request(priority=prio)
        yield req
        order.append(i)
        res.release(req)

    sim.process(holder())
    sim.process(worker("low", 5))
    sim.process(worker("high", -5))
    sim.run()
    assert order == ["high", "low"]


def test_resource_release_of_unheld_raises(sim):
    res = Resource(sim, capacity=1)
    req = res.request()

    def proc():
        yield req
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    sim.process(proc())
    sim.run()


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_utilization_accounting(sim):
    res = Resource(sim, capacity=1)

    def worker():
        yield from res.execute(2.0)
        yield sim.timeout(2.0)

    sim.process(worker())
    sim.run()
    assert res.total_busy_time == pytest.approx(2.0)
    assert res.utilization_until_now == pytest.approx(0.5)


def test_resource_cancel_queued_request(sim):
    res = Resource(sim, capacity=1)
    granted = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(2)
        res.release(req)

    def canceller():
        yield sim.timeout(0.5)
        req = res.request()
        res.cancel(req)
        granted.append(req.triggered)

    sim.process(holder())
    sim.process(canceller())
    sim.run()
    assert granted == [False]


# ---------------------------------------------------- eventless grants
def test_uncontended_request_returns_processed(sim):
    res = Resource(sim, capacity=1)
    seen = []

    def proc():
        req = res.request()
        seen.append((req.processed, req.ok, req.value is req, res.count))
        yield req
        res.release(req)

    sim.process(proc())
    sim.run()
    assert seen == [(True, True, True, 1)]
    assert res.n_grants == 1


def test_request_outside_a_process_is_granted_by_event(sim):
    res = Resource(sim, capacity=1)
    req = res.request()
    assert req.triggered and not req.processed
    assert res.count == 1
    sim.run()
    assert req.processed and sim.events_processed == 1


def test_yield_uncontended_request_adds_no_event(sim):
    res = Resource(sim, capacity=1)
    deltas = []

    def proc():
        yield sim.timeout(1)
        before = sim.events_processed
        req = res.request()
        yield req
        deltas.append((sim.events_processed - before, sim.now))
        res.release(req)

    sim.process(proc())
    sim.run()
    assert deltas == [(0, 1)]


def test_two_uncontended_compute_bursts_cost_two_events(sim):
    from repro.cluster.config import ClusterConfig
    from repro.cluster.node import Node

    node = Node(sim, 0, ClusterConfig(n_nodes=1))
    out = []

    def proc():
        before = sim.events_processed
        yield from node.compute(100)
        yield from node.compute(100)
        out.append(sim.events_processed - before)

    sim.process(proc())
    sim.run()
    assert out == [2]
    assert node.cpus.n_grants == 2 and node.cpus.count == 0


def test_contended_requests_granted_by_event_in_priority_fifo_order(sim):
    res = Resource(sim, capacity=1)
    held = res.request()
    queued = [res.request(priority=p) for p in (3, 1, 3, 1)]
    assert not any(req.triggered for req in queued)
    order = []
    for i, req in enumerate(queued):
        req.add_callback(lambda ev, i=i: order.append(i))
    res.release(held)
    # the winner is triggered (queued as an event), not yet processed
    assert queued[1].triggered and not queued[1].processed
    assert res.count == 1
    while queued[1].callbacks is not None:
        sim.step()
    for _ in range(3):
        res.release(next(iter(res.users)))
        sim.run()
    assert order == [1, 3, 0, 2]
    assert res.n_grants == 5


def _finish_order(case: str):
    """Two 1 s bursts that end at the same instant; which ends first
    depends on the order in which their timeouts were created, i.e. on
    when each requester resumed after its grant."""
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def burst(label, req):
        yield req
        yield sim.timeout(1.0)
        res.release(req)
        done.append(label)

    if case == "contended-grant-pending":
        # at t=1 a release grants C by event; H then finds a free slot
        def holder(label, again):
            req = res.request()
            yield req
            yield sim.timeout(1.0)
            res.release(req)
            if again:
                yield from burst(label, res.request())

        def late():
            yield sim.timeout(0.5)
            yield from burst("C", res.request())

        sim.process(holder("K", False))
        sim.process(holder("H", True))
        sim.process(late())
    elif case == "timeout-due-now":
        # A requests at t=1 while B's timeout is still due at t=1
        def a():
            yield sim.timeout(1.0)
            yield from burst("A", res.request())

        def b():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)
            done.append("B")

        sim.process(a())
        sim.process(b())
    elif case == "process-started":
        # S starts W (an URGENT start event), then requests
        def w():
            yield sim.timeout(1.0)
            done.append("W")

        def s():
            sim.process(w())
            yield from burst("S", res.request())

        sim.process(s())
    else:  # "shared-wakeup": P and Q wait on one event; P runs first
        ev = sim.event()

        def p():
            yield ev
            yield from burst("P", res.request())

        def q():
            yield ev
            yield sim.timeout(1.0)
            done.append("Q")

        def trigger():
            yield sim.timeout(1.0)
            ev.succeed()

        sim.process(p())
        sim.process(q())
        sim.process(trigger())
    sim.run()
    return done


@pytest.mark.parametrize(
    "case, want",
    [
        ("contended-grant-pending", ["C", "H"]),
        ("timeout-due-now", ["B", "A"]),
        ("shared-wakeup", ["Q", "P"]),
        ("process-started", ["W", "S"]),
    ],
)
def test_grant_keeps_evented_order_when_others_are_due(case, want):
    """When other work is due at the same instant, the grant stays an
    event, so the requester resumes after it exactly as before: same-time
    burst ends keep their order."""
    assert _finish_order(case) == want


def test_accounting_unchanged_on_scripted_schedule(sim):
    """Busy time, utilisation, grant and holder counts on a mixed
    contended/uncontended schedule (capacity 2, three holders)."""
    res = Resource(sim, capacity=2)
    snap = {}

    def holder(start, hold):
        yield sim.timeout(start)
        req = res.request()
        yield req
        yield sim.timeout(hold)
        res.release(req)

    def probe():
        yield sim.timeout(2.5)
        snap.update(count=res.count, util=res.utilization_until_now,
                    busy=res.total_busy_time, queue=res.queue_length)

    sim.process(holder(0.0, 3.0))   # [0, 3]
    sim.process(holder(1.0, 1.0))   # [1, 2]
    sim.process(holder(1.5, 2.0))   # queued at 1.5, granted at 2 -> [2, 4]
    sim.process(probe())
    sim.run()
    # at 2.5: B's 1 s closed, A open for 2.5 s, C open for 0.5 s
    assert snap == {"count": 2, "util": 0.8, "busy": 1.0, "queue": 0}
    assert res.total_busy_time == 6.0
    assert res.utilization_until_now == 0.75
    assert res.n_grants == 3 and res.count == 0


def test_mutex_counts_unchanged_on_scripted_schedule(sim):
    mtx = Mutex(sim)
    got = []

    def worker(i, start):
        yield sim.timeout(start)
        yield from mtx.acquire()
        got.append((i, sim.now))
        yield sim.timeout(1.0)
        mtx.release()

    for i, start in enumerate((0.0, 0.5, 3.0)):
        sim.process(worker(i, start))
    sim.run()
    assert got == [(0, 0.0), (1, 1.0), (2, 3.0)]
    assert mtx.n_acquisitions == 3 and mtx.n_contended == 1
    assert not mtx.locked


# ---------------------------------------------------------------- Store
def test_store_fifo_order(sim):
    box = Store(sim)
    got = []

    def consumer():
        for _ in range(3):
            v = yield box.get()
            got.append(v)

    def producer():
        for i in range(3):
            yield sim.timeout(1)
            box.put(i)

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [0, 1, 2]


def test_store_get_before_put_blocks(sim):
    box = Store(sim)
    out = []

    def consumer():
        v = yield box.get()
        out.append((sim.now, v))

    sim.process(consumer())

    def producer():
        yield sim.timeout(7)
        box.put("x")

    sim.process(producer())
    sim.run()
    assert out == [(7, "x")]


def test_store_get_filtered(sim):
    box = Store(sim)
    box.put(("a", 1))
    box.put(("b", 2))
    box.put(("a", 3))
    assert box.get_filtered(lambda m: m[0] == "b") == ("b", 2)
    assert box.get_filtered(lambda m: m[0] == "z") is None
    assert len(box) == 2


# ---------------------------------------------------------------- Mutex
def test_mutex_mutual_exclusion(sim):
    mtx = Mutex(sim)
    inside = [0]
    max_inside = [0]

    def worker():
        yield from mtx.acquire()
        inside[0] += 1
        max_inside[0] = max(max_inside[0], inside[0])
        yield sim.timeout(1)
        inside[0] -= 1
        mtx.release()

    for _ in range(4):
        sim.process(worker())
    sim.run()
    assert max_inside[0] == 1
    assert mtx.n_acquisitions == 4
    assert mtx.n_contended == 3


def test_mutex_release_unheld_raises(sim):
    mtx = Mutex(sim)
    with pytest.raises(SimulationError):
        mtx.release()


# ---------------------------------------------------------------- ConditionVar
def test_condition_var_wait_notify(sim):
    mtx = Mutex(sim)
    cond = ConditionVar(sim, mtx)
    state = {"ready": False}
    out = []

    def waiter():
        yield from mtx.acquire()
        while not state["ready"]:
            yield from cond.wait()
        out.append(sim.now)
        mtx.release()

    def notifier():
        yield sim.timeout(5)
        yield from mtx.acquire()
        state["ready"] = True
        cond.notify_all()
        mtx.release()

    sim.process(waiter())
    sim.process(notifier())
    sim.run()
    assert out == [5]


def test_condition_var_notify_one_wakes_one(sim):
    mtx = Mutex(sim)
    cond = ConditionVar(sim, mtx)
    woken = []

    def waiter(i):
        yield from mtx.acquire()
        yield from cond.wait()
        woken.append(i)
        mtx.release()

    for i in range(3):
        sim.process(waiter(i))

    def notifier():
        yield sim.timeout(1)
        cond.notify()

    sim.process(notifier())
    sim.run()
    assert woken == [0]
    assert cond.n_waiting == 2


# ---------------------------------------------------------------- SimBarrier
def test_barrier_releases_all_at_last_arrival(sim):
    bar = SimBarrier(sim, 3)
    out = []

    def worker(i):
        yield sim.timeout(i)
        yield from bar.arrive()
        out.append((i, sim.now))

    for i in range(3):
        sim.process(worker(i))
    sim.run()
    assert all(t == 2 for _, t in out)
    assert bar.n_cycles == 1


def test_barrier_is_reusable(sim):
    bar = SimBarrier(sim, 2)
    times = []

    def worker(delay):
        for k in range(3):
            yield sim.timeout(delay)
            yield from bar.arrive()
            if delay == 2:
                times.append(sim.now)

    sim.process(worker(1))
    sim.process(worker(2))
    sim.run()
    assert times == [2, 4, 6]
    assert bar.n_cycles == 3


def test_barrier_invalid_count(sim):
    with pytest.raises(ValueError):
        SimBarrier(sim, 0)


# ---------------------------------------------------------------- Semaphore
def test_semaphore_counts(sim):
    sem = Semaphore(sim, value=1)
    order = []

    def worker(i):
        yield from sem.wait()
        order.append(("in", i, sim.now))
        yield sim.timeout(1)
        sem.post()

    for i in range(3):
        sim.process(worker(i))
    sim.run()
    assert [t for _, _, t in order] == [0, 1, 2]


def test_semaphore_negative_init():
    sim = Simulator()
    with pytest.raises(ValueError):
        Semaphore(sim, value=-1)


# ---------------------------------------------------------------- Latch
def test_latch_opens_at_zero(sim):
    latch = Latch(sim, 2)
    out = []

    def waiter():
        yield latch.wait()
        out.append(sim.now)

    def counter():
        yield sim.timeout(1)
        latch.count_down()
        yield sim.timeout(1)
        latch.count_down()

    sim.process(waiter())
    sim.process(counter())
    sim.run()
    assert out == [2]
    assert latch.open


def test_latch_overcount_raises(sim):
    latch = Latch(sim, 1)
    latch.count_down()
    with pytest.raises(SimulationError):
        latch.count_down()


def test_latch_zero_is_open_immediately(sim):
    latch = Latch(sim, 0)
    assert latch.open
