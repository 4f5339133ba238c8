"""Trace replay checker: protocol correctness from recorded events.

A trace is more than a visualisation — it is a transcript of the DSM
protocol.  :func:`check_trace` replays that transcript against the
specification and reports violations:

* **page-state machine** — every ``dsm.page/page-state`` event must be a
  legal Figure-5 transition (:data:`repro.dsm.states.VALID_TRANSITIONS`),
  and per ``(node, page)`` the transitions must chain (each event's
  ``src`` state equals the previous event's ``dst``);
* **barrier epochs** — per node, ``dsm.barrier/barrier`` spans must carry
  consecutive epochs (no node skips or repeats a barrier; the chain may
  start above 0 when the ring evicted the head of the run), and every
  epoch in the cross-node overlap window must be reached by every
  participating node exactly once (a mismatch means a node missed a
  barrier the others took; eviction may truncate each node's prefix at
  a different epoch, so epochs before the latest first-seen one are not
  compared).

Run it over any traced run (``python -m repro run --trace`` does so by
default); an empty violation list is a protocol-correctness pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.dsm.states import PageState, VALID_TRANSITIONS
from repro.trace.events import TraceEvent, CAT_PAGE, CAT_BARRIER


@dataclass
class Violation:
    """One protocol violation found in a trace."""

    kind: str  #: ``illegal-transition`` | ``broken-chain`` | ``epoch-order`` | ``epoch-membership``
    node: int
    ts: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] node {self.node} @ t={self.ts:.6e}: {self.detail}"


@dataclass
class CheckReport:
    """Outcome of :func:`check_trace`."""

    violations: List[Violation] = field(default_factory=list)
    n_transitions: int = 0
    n_barriers: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        lines = [
            f"protocol check: {status}",
            f"  page-state transitions checked : {self.n_transitions}",
            f"  barrier spans checked          : {self.n_barriers}",
        ]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)


def _parse_state(name: str) -> PageState:
    return PageState[name]


def check_trace(events: Iterable[TraceEvent]) -> CheckReport:
    """Validate page-state transitions and barrier epochs; see module doc."""
    report = CheckReport()
    # (node, page) -> last known state (chain continuity)
    last_state: Dict[Tuple[int, int], PageState] = {}
    # node -> ordered list of barrier epochs
    epochs_by_node: Dict[int, List[int]] = {}

    for ev in sorted(events, key=lambda e: e.ts):
        if ev.cat == CAT_PAGE and ev.name == "page-state":
            report.n_transitions += 1
            args = ev.args or {}
            page = args.get("page", -1)
            try:
                src = _parse_state(args["src"])
                dst = _parse_state(args["dst"])
            except (KeyError, Exception):
                report.violations.append(
                    Violation(
                        "illegal-transition",
                        ev.node,
                        ev.ts,
                        f"page {page}: malformed page-state event args {args!r}",
                    )
                )
                continue
            reason = args.get("reason", "")
            if (src, dst, reason) not in VALID_TRANSITIONS:
                report.violations.append(
                    Violation(
                        "illegal-transition",
                        ev.node,
                        ev.ts,
                        f"page {page}: {src.name} -> {dst.name} ({reason!r}) "
                        "is not a Figure-5 transition",
                    )
                )
            key = (ev.node, page)
            prev = last_state.get(key)
            if prev is not None and prev is not src:
                report.violations.append(
                    Violation(
                        "broken-chain",
                        ev.node,
                        ev.ts,
                        f"page {page}: transition departs from {src.name} but the "
                        f"previous recorded state was {prev.name}",
                    )
                )
            last_state[key] = dst
        elif ev.cat == CAT_BARRIER and ev.name == "barrier":
            report.n_barriers += 1
            epoch = (ev.args or {}).get("epoch", -1)
            epochs_by_node.setdefault(ev.node, []).append(epoch)

    # Per-node barrier epochs must be consecutive: no gap, no repeat.
    for node, epochs in sorted(epochs_by_node.items()):
        for i, epoch in enumerate(epochs):
            expected = epochs[0] + i
            if epoch != expected:
                report.violations.append(
                    Violation(
                        "epoch-order",
                        node,
                        0.0,
                        f"barrier #{i} on node {node} carries epoch {epoch} "
                        f"(expected {expected})",
                    )
                )
                break
    # All participating nodes must reach the same epochs.  Ring eviction
    # truncates each node's prefix at a different point, so only the
    # overlap window — epochs from the latest first-seen epoch onward —
    # is comparable; a node missing an epoch *inside* that window missed
    # a barrier the others took.
    if epochs_by_node:
        window_start = max(ep[0] for ep in epochs_by_node.values() if ep)
        reference = None
        for node, epochs in sorted(epochs_by_node.items()):
            eset = {e for e in epochs if e >= window_start}
            if reference is None:
                reference = (node, eset)
                continue
            ref_node, ref_set = reference
            if eset != ref_set:
                missing = sorted(ref_set - eset)
                extra = sorted(eset - ref_set)
                report.violations.append(
                    Violation(
                        "epoch-membership",
                        node,
                        0.0,
                        f"node {node} barrier epochs differ from node {ref_node}'s: "
                        f"missing {missing}, extra {extra}",
                    )
                )
    return report
