"""Round/message/bit accounting for simulated runs.

These counters are the experimental observables of the reproduction: the
paper's Theorems 4 and 5 are statements about exactly these quantities
(bits per edge per round, total rounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.congest.message import Message


@dataclass
class RunMetrics:
    """Aggregated statistics for one simulation run.

    All "edge" quantities are per *directed* edge (the model's bandwidth is
    per direction).
    """

    rounds: int = 0
    total_messages: int = 0
    total_bits: int = 0
    max_messages_per_edge_round: int = 0
    max_bits_per_edge_round: int = 0
    max_message_bits: int = 0
    messages_per_round: list[int] = field(default_factory=list)
    bits_per_round: list[int] = field(default_factory=list)
    # Injected-fault accounting (dropped / duplicated / delayed /
    # crash_dropped / crash_node_rounds); empty when the run had no
    # FaultPlan.  Message/bit counters above always reflect *delivered*
    # traffic, so a faulty run's totals exclude what the plan destroyed.
    faults: dict[str, int] = field(default_factory=dict)
    # Optional repro.obs.InstrumentSet: when attached, each recorded
    # round also folds its per-edge bit/message loads into the
    # bits_per_edge_round / messages_per_edge_round histograms.
    # Observation only - never read back by protocol code.
    instruments: object | None = field(default=None, repr=False, compare=False)

    def record_round_aggregate(self, traffic) -> None:
        """Fold one delivered round into the totals.

        ``traffic`` is the round's merged (bulk + control)
        :class:`~repro.congest.transport.RoundTraffic`, as the scheduler
        computes it in either dispatch mode.
        """
        self.rounds += 1
        self.total_messages += traffic.total_messages
        self.total_bits += traffic.total_bits
        self.max_messages_per_edge_round = max(
            self.max_messages_per_edge_round, traffic.max_edge_messages
        )
        self.max_bits_per_edge_round = max(
            self.max_bits_per_edge_round, traffic.max_edge_bits
        )
        self.max_message_bits = max(
            self.max_message_bits, traffic.max_message_bits
        )
        self.messages_per_round.append(traffic.total_messages)
        self.bits_per_round.append(traffic.total_bits)
        if self.instruments is not None:
            if traffic.edge_messages is not None:
                self.instruments.observe_array(
                    "messages_per_edge_round", traffic.edge_messages
                )
            if traffic.edge_bits is not None:
                self.instruments.observe_array(
                    "bits_per_edge_round", traffic.edge_bits
                )

    def bits_crossing_cut(
        self, messages_log: list[list[Message]], cut_nodes: set[int]
    ) -> int:
        """Total bits on edges with exactly one endpoint in ``cut_nodes``.

        Requires the full message log (``Simulator(record_messages=True)``).
        This is the quantity the lower-bound simulation argument
        (Theorem 7) charges to the two-party protocol.
        """
        total = 0
        for round_messages in messages_log:
            for message in round_messages:
                if (message.sender in cut_nodes) != (
                    message.receiver in cut_nodes
                ):
                    total += message.bits
        return total

    def summary(self) -> dict[str, float]:
        """Flat dict of headline numbers for reports."""
        numbers = {
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "max_messages_per_edge_round": self.max_messages_per_edge_round,
            "max_bits_per_edge_round": self.max_bits_per_edge_round,
            "max_message_bits": self.max_message_bits,
        }
        for name, value in self.faults.items():
            numbers[f"faults_{name}"] = value
        return numbers
