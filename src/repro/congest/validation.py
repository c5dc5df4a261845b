"""Post-hoc CONGEST compliance auditing of recorded message logs.

The transport enforces the model limits as the rounds run; this module
*re-verifies* them independently from a recorded log (and checks what the
transport cannot: that every message travelled along an actual edge of
the graph).  Used by the lower-bound experiments, where the whole
argument rests on the accounting being right, and by tests as a second
opinion on the enforcement layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.congest.message import Message
from repro.congest.transport import BandwidthPolicy
from repro.graphs.graph import Graph


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit; ``violations`` empty means fully compliant."""

    rounds: int
    messages: int
    violations: tuple[str, ...] = field(default_factory=tuple)

    @property
    def compliant(self) -> bool:
        return not self.violations


def audit_message_log(
    message_log: list[list[Message]],
    graph: Graph,
    policy: BandwidthPolicy,
    max_violations: int = 20,
) -> AuditReport:
    """Check every recorded message against the model.

    Verified per message: the (sender, receiver) pair is an edge of
    ``graph`` and the message fits the per-message bit budget.  Verified
    per (edge, round): the message count stays within
    ``policy.messages_per_edge``.
    """
    violations: list[str] = []

    def record(problem: str) -> None:
        if len(violations) < max_violations:
            violations.append(problem)

    total = 0
    for round_number, round_messages in enumerate(message_log, start=1):
        edge_counts: dict[tuple[int, int], int] = {}
        for message in round_messages:
            total += 1
            if not graph.has_edge(message.sender, message.receiver):
                record(
                    f"round {round_number}: message on non-edge "
                    f"{message.sender}->{message.receiver}"
                )
            if message.bits > policy.bits_per_message:
                record(
                    f"round {round_number}: {message.bits}-bit message "
                    f"exceeds budget {policy.bits_per_message} "
                    f"({message.kind!r})"
                )
            edge = (message.sender, message.receiver)
            edge_counts[edge] = edge_counts.get(edge, 0) + 1
        for edge, count in edge_counts.items():
            if count > policy.messages_per_edge:
                record(
                    f"round {round_number}: {count} messages on edge "
                    f"{edge} (limit {policy.messages_per_edge})"
                )
    return AuditReport(
        rounds=len(message_log),
        messages=total,
        violations=tuple(violations),
    )
