"""Protocol accelerator: write-notice edge cases, update push, the
flag matrix, CG termination at the sizes that once deadlocked, and
flags-on/off value identity.

The accelerator (docs/PERFORMANCE.md "Protocol optimizations") changes
*virtual* time and message counts, never computed values — every A/B test
here pins values bit-identical while asserting the protocol counters
moved the way the mechanism promises.
"""

import numpy as np
import pytest

from repro.apps import cg
from repro.dsm import SharedArray
from repro.dsm.config import PARADE_ACCEL, PARADE_DSM
from repro.dsm.writenotice import (
    NoticeLog,
    WriteNotice,
    dedupe_notices,
    merge_notice_bytes,
)
from repro.runtime import ParadeRuntime
from repro.testing import build_dsm, run_all


# ----------------------------------------------------- notice units
def test_dedupe_suppresses_duplicate_page_writer_pairs():
    # one notice per lock interval -> only the first (page, writer) ships
    ns = [
        WriteNotice(page=3, writer=1, interval=0),
        WriteNotice(page=3, writer=1, interval=1),   # dup: later interval
        WriteNotice(page=3, writer=2, interval=1),   # distinct writer: kept
        WriteNotice(page=4, writer=1, interval=2),
        WriteNotice(page=3, writer=1, interval=2),   # dup again
    ]
    out = dedupe_notices(ns)
    assert [(wn.page, wn.writer) for wn in out] == [(3, 1), (3, 2), (4, 1)]
    # first occurrence wins, preserving arrival order and intervals
    assert out[0].interval == 0


def test_dedupe_is_per_call_not_global():
    # dedupe happens per barrier arrival; a fresh epoch's notice for the
    # same (page, writer) must not be suppressed by history
    first = dedupe_notices([WriteNotice(1, 1, 0)])
    second = dedupe_notices([WriteNotice(1, 1, 1)])
    assert len(first) == 1 and len(second) == 1


def test_merge_notice_bytes_sums_per_writer():
    per_node = {
        1: [WriteNotice(7, 1, 0, nbytes=100), WriteNotice(7, 1, 0, nbytes=50)],
        2: [WriteNotice(7, 2, 0, nbytes=30), WriteNotice(8, 2, 0, nbytes=8)],
    }
    by_page = merge_notice_bytes(per_node)
    assert by_page == {7: {1: 150, 2: 30}, 8: {2: 8}}


def test_noticelog_stores_diffs_and_writer_history():
    log = NoticeLog()
    log.append(
        [WriteNotice(5, 1, 0), WriteNotice(6, 1, 0)],
        diffs={5: [(0, b"ab")]},
    )
    log.append([WriteNotice(5, 2, 1)])
    assert log.diff_at(0) == [(0, b"ab")]
    assert log.diff_at(1) is None          # no diff attached for page 6
    assert log.history_of(1) == {5, 6}
    assert log.history_of(2) == {5}
    assert log.history_of(3) == set()
    # cursor semantics: a consumer sees each entry exactly once
    assert len(log.unseen_by(2)) == 3
    assert log.unseen_by(2) == []


def test_notices_not_coalesced_across_barrier_epochs():
    """A page re-written in a later epoch must re-invalidate the reader:
    duplicate suppression is scoped to one barrier arrival, never across
    epochs."""
    cluster, _cts, dsm = build_dsm(2)
    arr = SharedArray.allocate(dsm, "x", (8,))
    seen = []

    def n0():
        for epoch in range(3):
            yield from arr.on(0).set_scalar(0, float(epoch))
            yield from dsm.node(0).barrier()
            yield from dsm.node(0).barrier()

    def n1():
        for _ in range(3):
            yield from dsm.node(1).barrier()
            v = yield from arr.on(1).get_scalar(0)
            seen.append(float(v))
            yield from dsm.node(1).barrier()

    run_all(cluster, [n0(), n1()])
    assert seen == [0.0, 1.0, 2.0]
    # epoch 0 installs the first copy; epochs 1 and 2 each invalidate it
    assert dsm.node(1).stats.invalidations == 2
    assert dsm.node(1).stats.pages_fetched == 3


# ------------------------------------------------ app-level A/B identity
def _helmholtz_ab(**accel_kw):
    base = ParadeRuntime(n_nodes=4, pool_bytes=1 << 21)
    res_base = base.run(_helm_prog())
    acc = ParadeRuntime(n_nodes=4, pool_bytes=1 << 21, **accel_kw)
    res_acc = acc.run(_helm_prog())
    return res_base, res_acc


def _helm_prog():
    from repro.apps import helmholtz

    return helmholtz.make_program(n=48, m=48, max_iters=4)


def test_accel_values_bit_identical_and_no_slower():
    res_base, res_acc = _helmholtz_ab(protocol_accel=True)
    assert res_acc.value.iterations == res_base.value.iterations
    assert np.array_equal(res_acc.value.u, res_base.value.u)
    assert res_acc.value.error == res_base.value.error
    assert res_acc.elapsed <= res_base.elapsed
    # flags-off runs never touch the accelerator counters
    for key in ("diffs_piggybacked", "updates_pushed", "updates_installed"):
        assert res_base.dsm_stats.get(key, 0) == 0
    # the accelerated run exercised the push pipeline, and installs
    # cannot exceed pushes (the gap is staleness drops)
    assert res_acc.dsm_stats["updates_pushed"] > 0
    assert 0 < res_acc.dsm_stats["updates_installed"] <= res_acc.dsm_stats[
        "updates_pushed"
    ]
    assert (
        res_acc.cluster_stats["total_messages"]
        < res_base.cluster_stats["total_messages"]
    )


def test_accel_flag_matrix_each_mechanism_value_safe():
    """Every single-flag configuration must reproduce the baseline values
    exactly — mechanisms are independently toggleable."""
    from repro.apps import helmholtz

    def run(cfg_kw):
        rt = ParadeRuntime(
            n_nodes=2,
            pool_bytes=1 << 21,
            dsm_config=PARADE_DSM.replace(**cfg_kw) if cfg_kw else None,
        )
        return rt.run(helmholtz.make_program(n=32, m=32, max_iters=3))

    ref = run({})
    for kw in (
        {"lock_piggyback": True},
        {"adaptive_migration": True},
    ):
        res = run(kw)
        assert np.array_equal(res.value.u, ref.value.u), kw
        assert res.value.error == ref.value.error, kw
        assert res.value.iterations == ref.value.iterations, kw


# ------------------------------------------- CG at the deadlock-prone size
@pytest.fixture(scope="module")
def cg_s():
    a = cg.make_matrix("S")
    return a, cg.cg_reference("S", a=a, niter=1)


@pytest.mark.parametrize("hier", [False, True], ids=["accel", "accel+hier"])
def test_accel_cg_class_s_terminates_with_reference_zeta(cg_s, hier):
    """CG class S, one outer iteration, 4 nodes: the configuration family
    in which the removed fetch read-ahead left a fault parked on a frame
    that never came.  The run must finish well inside its virtual time
    limit and reproduce the sequential zeta."""
    a, ref = cg_s
    rt = ParadeRuntime(
        n_nodes=4, pool_bytes=1 << 23, dsm_config=PARADE_ACCEL,
        hierarchical=hier,
    )
    res = rt.run(cg.make_program("S", a=a, niter=1), time_limit=2.0)
    assert abs(res.value.zeta - ref.zeta) <= 1e-10 * abs(ref.zeta)
