"""Message envelopes and bit-size accounting.

The CONGEST model constrains *bits per edge per round*, so the simulator
needs a concrete cost model for messages.  We charge:

* ``TAG_BITS`` for the message kind (a small protocol-constant alphabet),
* ``max(1, int.bit_length(abs(x))) + 1`` bits per integer field (the +1 is
  a sign bit; zero costs 2 bits).

Only integers are allowed as payload fields.  This is deliberate: the paper
(section V, challenge 2) observes that probabilities cannot be shipped
exactly in ``O(log n)`` bits, and the algorithm is designed so that every
transmitted quantity is an integer count bounded by ``poly(n)``.  Keeping
floats out of the transport makes that property structural rather than
aspirational.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.congest.errors import ProtocolError

TAG_BITS = 8


def int_bits(value: int) -> int:
    """Bit cost of one integer field (magnitude bits plus a sign bit)."""
    return max(1, abs(value).bit_length()) + 1


def int_bits_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`int_bits` over an integer array.

    ``np.frexp`` returns the binary exponent of each magnitude, which for
    positive integers below 2**53 equals ``int.bit_length`` exactly (the
    float64 mantissa is wide enough); zero maps to exponent 0 and is then
    floored to 1 magnitude bit, matching the scalar formula.
    """
    magnitudes = np.abs(np.asarray(values)).astype(np.float64)
    _, exponents = np.frexp(magnitudes)
    return np.maximum(1, exponents).astype(np.int64) + 1


def message_bits_array(fields: np.ndarray) -> np.ndarray:
    """Vectorized :attr:`Message.bits`: the size of each message whose
    payload is one row of the ``(messages, f)`` integer matrix
    ``fields``."""
    return TAG_BITS + int_bits_array(fields).sum(axis=1)


def payload_bits(fields: tuple[int, ...]) -> int:
    """Total bit cost of a message payload, excluding the kind tag."""
    return sum(int_bits(value) for value in fields)


@dataclass(frozen=True, slots=True)
class Message:
    """One message on one directed edge in one round.

    Attributes
    ----------
    sender, receiver:
        Node identifiers of the directed edge endpoints.
    kind:
        Short protocol tag, e.g. ``"walk"`` or ``"bfs"``.
    fields:
        Integer payload.  Use node indices and counts, never floats.
    """

    sender: int
    receiver: int
    kind: str
    fields: tuple[int, ...] = field(default_factory=tuple)
    _bits: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        # Bit size is charged on push and again by the traffic metrics,
        # so it is computed once here rather than per read.
        total = TAG_BITS
        for value in self.fields:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(
                    f"message field {value!r} is not an int; the transport "
                    "only carries integers (see module docstring)"
                )
            total += max(1, abs(value).bit_length()) + 1
        object.__setattr__(self, "_bits", total)

    @property
    def bits(self) -> int:
        """Total size charged against the edge's bandwidth."""
        return self._bits

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Message({self.sender}->{self.receiver}, {self.kind!r}, "
            f"{self.fields}, {self.bits}b)"
        )
