"""A synchronous CONGEST-model simulator.

The model (Peleg 2000; paper section III-A): nodes communicate in
synchronous rounds; per round, each directed edge carries at most a
constant number of ``O(log n)``-bit messages.  The simulator enforces
both limits in the round they are broken (a message's bits when it is
sent, an edge's messages when the round closes) and records the metrics
(rounds, messages, bits, per-edge congestion) the paper's complexity
claims are phrased in.
"""

from repro.congest.errors import (
    ConfigError,
    CongestViolation,
    ProtocolError,
    RoundLimitExceeded,
    SimulatorError,
)
from repro.congest.message import Message, int_bits, payload_bits
from repro.congest.metrics import RunMetrics
from repro.congest.node import NodeInfo, NodeProgram, RoundContext
from repro.congest.scheduler import SimulationResult, Simulator, run_program
from repro.congest.trace import NullTracer, Tracer
from repro.congest.transport import BandwidthPolicy, RoundOutbox

__all__ = [
    "BandwidthPolicy",
    "ConfigError",
    "CongestViolation",
    "Message",
    "NodeInfo",
    "NodeProgram",
    "NullTracer",
    "ProtocolError",
    "RoundContext",
    "RoundLimitExceeded",
    "RoundOutbox",
    "RunMetrics",
    "SimulationResult",
    "Simulator",
    "SimulatorError",
    "Tracer",
    "int_bits",
    "payload_bits",
    "run_program",
]
