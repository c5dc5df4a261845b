"""Distributed termination detection for the counting phase.

Every launched walk eventually dies exactly once - absorbed at the target
or expired at length 0 - and deaths are local events.  With ``n`` and
``K`` known, the expected global death count is ``(n - 1) * K``, so the
root can detect termination by aggregating a *monotone* counter:

* each node tracks its local death count and the latest value reported by
  each tree child;
* whenever its best-known subtree total changes, it reports the new total
  to its parent (at most one ``O(log n)``-bit message per tree edge per
  round);
* because the counter only grows and every death is counted by exactly
  one node, the root's view is always a lower bound, and equality with
  ``(n - 1) * K`` certifies that every walk is dead *and* every count
  message has drained.

The root then sends a field-less ``done`` down the tree, and each node
switches to the exchange phase in the round the wave reaches it; the
exchange is paced per node from that round
(:mod:`repro.core.protocol`).

When to report is one rule, :func:`report_due`.  On the per-message
loop (and the asynchronous executor) each node runs it inside its own
:class:`DeathCounterLogic`.  On the fast path there are no per-node
counters: on both link models the counting engine
(:class:`~repro.core.walk_engine.CountingWalkEngine`) claims ``term`` and
``done`` as rows, applies the rule to every node's totals as arrays at
once, and sends the done wave itself.
"""

from __future__ import annotations

import numpy as np

from repro.congest.errors import ProtocolError
from repro.congest.node import RoundContext

KIND_TERM = "term"
KIND_DONE = "done"


def report_due(total, last_reported, stopped, parent):
    """The convergecast's report rule: a node reports its subtree total
    iff it has not stopped, it has a parent (``parent >= 0``; the root
    never reports), and the total exceeds its last report.

    Arguments are scalars or equal-length arrays; the result is a bool
    or a bool array."""
    return (total > last_reported) & (parent >= 0) & np.logical_not(stopped)


class DeathCounterLogic:
    """One node's monotone-counter convergecast, for the per-message
    loop; the fast path runs the same rule for every node at once, as
    arrays, inside the counting engine."""

    def __init__(
        self,
        node_id: int,
        parent: int | None,
        children: tuple[int, ...],
        expected_total: int,
        strict: bool = True,
    ) -> None:
        if expected_total < 0:
            raise ProtocolError("expected_total must be >= 0")
        self.node_id = node_id
        self.parent = parent
        self.children = children
        self.expected_total = expected_total
        self.strict = strict
        self.local_deaths = 0
        self._child_totals: dict[int, int] = {child: 0 for child in children}
        self._last_reported = -1
        self.stopped = False

    def record_deaths(self, count: int) -> None:
        if count < 0:
            raise ProtocolError("death count must be >= 0")
        self.local_deaths += count

    def receive_report(self, child: int, total: int) -> None:
        """Fold in a child's subtree total (monotone: keep the max).

        In non-strict (loss-tolerant) mode an unknown reporter is
        adopted on the spot: under message loss a child's ``adopt``
        announcement can still be in retransmission when its first
        death report lands, and a node only ever reports to the parent
        its own flood state names, so the sender genuinely belongs to
        this subtree.
        """
        if child not in self._child_totals:
            if self.strict:
                raise ProtocolError(
                    f"termination report from non-child {child} at "
                    f"node {self.node_id}"
                )
            self._child_totals[child] = 0
        if total > self._child_totals[child]:
            self._child_totals[child] = total

    @property
    def subtree_total(self) -> int:
        return self.local_deaths + sum(self._child_totals.values())

    def pop_report(self) -> int | None:
        """Consume a pending report: the new subtree total if it changed
        since the last report (marking it reported), else ``None``.

        The caller must send the returned total to the parent as a
        ``term`` message this round - popping without sending would
        desynchronize the convergecast.
        """
        total = self.subtree_total
        parent = -1 if self.parent is None else self.parent
        if not report_due(total, self._last_reported, self.stopped, parent):
            return None
        self._last_reported = total
        return total

    def maybe_report(self, ctx: RoundContext) -> None:
        """Send the subtree total to the parent if it changed."""
        total = self.pop_report()
        if total is not None:
            ctx.send(self.parent, KIND_TERM, total)

    @property
    def root_detects_completion(self) -> bool:
        """True at the root when the global counter has fully drained."""
        return self.parent is None and self.subtree_total >= self.expected_total

    def stop(self) -> None:
        """Cease reporting (called once the done wave arrives)."""
        self.stopped = True
