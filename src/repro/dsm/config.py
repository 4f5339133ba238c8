"""DSM protocol configuration: ParADE variant vs the KDSM baseline."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DsmConfig:
    """Protocol knobs distinguishing the two systems the paper compares."""

    name: str = "parade"
    #: shared-memory pool size (bytes); paper's CG run used 64 MB
    pool_bytes: int = 32 * 1024 * 1024
    #: migrate a page's home to its sole modifier at barriers (§5.2.2)
    home_migration: bool = True
    #: lock clients busy-wait (spin on CPU) instead of blocking — the KDSM
    #: behaviour behind the 2-node `single` anomaly (§6.1)
    lock_spin: bool = False
    #: CPU burst per spin poll while busy-waiting (seconds)
    spin_slice: float = 5e-6
    #: atomic page update strategy name (see repro.vm.strategies)
    update_strategy: str = "sysv-shm"
    #: OS cost profile name: "linux-2.4" or "aix-4.3.3"
    os_profile: str = "linux-2.4"
    #: homeless (TreadMarks-style) LRC: writers retain diffs, faulting nodes
    #: pull missing diffs from every writer (§5.2.2 argues home-based is
    #: preferable — this flag exists to measure that claim).  Barrier
    #: synchronisation only; the lock protocol requires a home directory.
    homeless: bool = False
    #: host-side (wall-clock) optimisation only — never changes virtual
    #: time or protocol behaviour: accesses to already-valid page ranges
    #: skip the generator fault loop via a version-stamped cache
    #: (:meth:`DsmNode.try_fast_access`).  Off = always take the slow
    #: path; the equivalence test pins both to identical traces.
    fast_path: bool = True
    #: protocol accelerator — lock-grant diff piggybacking: a releaser
    #: attaches its small diffs (at most
    #: :data:`~repro.dsm.node.PIGGYBACK_MAX_BYTES` each) to the release
    #: message; the manager stores them alongside the
    #: :class:`~repro.dsm.writenotice.NoticeLog` and, at grant time,
    #: ships the complete per-page diff chains for pages the acquirer
    #: wrote under this lock before (last-acquirer history).  The
    #: acquirer patches its READ_ONLY copy in place instead of
    #: invalidating, eliminating the fault + page-fetch round-trip inside
    #: the critical section.
    lock_piggyback: bool = False
    #: protocol accelerator — adaptive home migration: the barrier master
    #: keeps per-page byte-weighted writer histories (EWMA, halved every
    #: epoch) fed by sized write notices, and migrates a page's home to
    #: its dominant writer when that writer's share exceeds
    #: :data:`~repro.dsm.node.MIGRATION_SHARE` — including multi-writer
    #: pages, which the eager sole-writer rule (``home_migration``) can
    #: never move; the old home hands the current page copy to the new
    #: home at the barrier.  Homes additionally keep per-page *reader* histories
    #: (which nodes fetched the page recently) and, right after a barrier
    #: departure, push the fresh copy to predicted re-fetchers — turning
    #: the steady-state invalidate/fault/fetch round-trip of stable
    #: producer-consumer pages into a one-way update.  Sized notices cost
    #: 16 B on the wire instead of 12.
    adaptive_migration: bool = False
    #: hierarchical synchronization — tree barrier fan-in: 0 keeps the
    #: flat centralized master (every node sends its arrival straight to
    #: node 0, the master answers with one departure per node — O(n)
    #: serial frames at the master).  >= 2 arranges the nodes as a k-ary
    #: tree rooted at the master (parent of i is ``(i-1)//fanin``);
    #: arrivals climb the tree, each interior node merging its subtree's
    #: write notices into one page-level aggregate frame before
    #: forwarding, so the master receives at most ``fanin`` frames per
    #: epoch; departures fan out down the same tree.  Values are
    #: bit-identical either way — only message topology and timing move.
    barrier_fanin: int = 0

    def __post_init__(self):
        if self.barrier_fanin < 0 or self.barrier_fanin == 1:
            raise ValueError(
                f"barrier_fanin must be 0 (flat) or >= 2, got {self.barrier_fanin}"
            )

    def replace(self, **kw) -> "DsmConfig":
        from dataclasses import replace as _replace

        return _replace(self, **kw)

    def accelerated(self) -> "DsmConfig":
        """This config with all protocol accelerators enabled."""
        return self.replace(lock_piggyback=True, adaptive_migration=True)

    def hierarchical(self, fanin: int = 4) -> "DsmConfig":
        """This config with hierarchical synchronization enabled: a tree
        barrier with the given fan-in."""
        return self.replace(barrier_fanin=fanin)


#: ParADE's DSM: HLRC + migratory home, blocking locks.
PARADE_DSM = DsmConfig(name="parade", home_migration=True, lock_spin=False)

#: KDSM baseline [20]: conventional HLRC, fixed home, busy-wait lock client.
KDSM_BASELINE = DsmConfig(name="kdsm", home_migration=False, lock_spin=True)

#: Homeless LRC ablation: TreadMarks-style diff pulling, no home directory.
HOMELESS_LRC = DsmConfig(name="homeless", home_migration=False, homeless=True)

#: ParADE's DSM with the protocol accelerator on: lock-grant diff
#: piggybacking and adaptive (byte-weighted) home migration with update
#: push.  See docs/PERFORMANCE.md "Protocol optimizations".
PARADE_ACCEL = PARADE_DSM.accelerated()

#: ParADE's DSM with hierarchical synchronization on: fan-in-4 tree
#: barrier with in-tree write-notice merging.  See docs/PERFORMANCE.md
#: "Scaling to 16-32 nodes".
PARADE_HIER = PARADE_DSM.hierarchical()
