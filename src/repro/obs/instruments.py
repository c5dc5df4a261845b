"""Passive instruments: power-of-two histograms and per-round counters.

An :class:`InstrumentSet` is the run-wide container that the simulator,
the reliable channels, and the walk engine write into when telemetry is
enabled.  Everything here is strictly *observational*: instruments hold
no protocol state, are never read by protocol code, and draw no
randomness, so enabling them cannot perturb a seeded run (pinned by
``tests/test_obs_neutrality.py``).

Two shapes of data are recorded:

* :class:`Log2Histogram` - fixed 64-bucket power-of-two histograms for
  distributions whose dynamic range is wide but whose exact values do
  not matter (bits per edge per round, ARQ window occupancy, recovery
  latency in rounds).  Bucket ``b`` counts values in ``[2**b, 2**(b+1))``
  with all of ``{0, 1}`` landing in bucket 0;
* **round counters** - sparse ``round -> int`` maps for events that the
  per-phase report wants to attribute to a window of rounds
  (retransmissions, acks, walk sends, per-kind fault deltas).

The canonical instrument names used across the codebase:

==========================  ====================================================
``bits_per_edge_round``     histogram; bits delivered on one edge in one round
``messages_per_edge_round`` histogram; messages delivered on one edge per round
``arq_window``              histogram; unacked entries per node after a flush
``recovery_latency_rounds`` histogram; rounds between first send and ack
``retransmissions``         round counter; ARQ token retransmits per round
``acks``                    round counter; ack messages emitted per round
``walk_sends``              round counter; walk-token messages sent per round
``faults_*``                round counters; per-round deltas of FaultCounters
==========================  ====================================================
"""

from __future__ import annotations

import numpy as np

__all__ = ["InstrumentSet", "Log2Histogram"]

_BUCKETS = 64


class Log2Histogram:
    """Fixed-size power-of-two histogram over non-negative values."""

    __slots__ = ("buckets", "count", "total", "max")

    def __init__(self) -> None:
        self.buckets = np.zeros(_BUCKETS, dtype=np.int64)
        self.count = 0
        self.total = 0
        self.max = 0

    def observe(self, value: int) -> None:
        value = int(value)
        bucket = value.bit_length() - 1
        if bucket < 0:
            bucket = 0
        self.buckets[bucket] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def observe_array(self, values: np.ndarray) -> None:
        """Vectorized bulk observation (used by the fast path)."""
        if len(values) == 0:
            return
        values = np.asarray(values)
        # A value v >= 1 is m * 2**e with 0.5 <= m < 1, so its bucket,
        # floor(log2(v)), is e - 1; 0 and 1 both land in bucket 0.  The
        # exponent is the float64's: it matches the scalar bit_length()
        # path below 2**53.
        buckets = (np.frexp(values)[1] - 1).clip(0, _BUCKETS - 1)
        self.buckets += np.bincount(buckets, minlength=_BUCKETS)
        self.count += int(len(values))
        self.total += int(values.sum())
        peak = int(values.max())
        if peak > self.max:
            self.max = peak

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        """JSON-friendly digest; ``buckets`` lists ``[2**b, count]``
        pairs for non-empty buckets only."""
        nonzero = np.nonzero(self.buckets)[0]
        return {
            "type": "hist_log2",
            "count": self.count,
            "sum": self.total,
            "max": self.max,
            "mean": self.mean,
            "buckets": [[int(2**b), int(self.buckets[b])] for b in nonzero],
        }


class InstrumentSet:
    """Named histograms plus sparse per-round counters for one run."""

    def __init__(self) -> None:
        self.histograms: dict[str, Log2Histogram] = {}
        self.round_counters: dict[str, dict[int, int]] = {}
        self._fault_snapshot: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------
    def hist(self, name: str) -> Log2Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = Log2Histogram()
            self.histograms[name] = histogram
        return histogram

    def observe(self, name: str, value: int) -> None:
        self.hist(name).observe(value)

    def observe_array(self, name: str, values: np.ndarray) -> None:
        self.hist(name).observe_array(values)

    # ------------------------------------------------------------------
    # Round counters
    # ------------------------------------------------------------------
    def bump_round(self, name: str, round_number: int, count: int = 1) -> None:
        counter = self.round_counters.get(name)
        if counter is None:
            counter = {}
            self.round_counters[name] = counter
        counter[round_number] = counter.get(round_number, 0) + count

    def round_series(self, name: str, rounds: int) -> list[int]:
        """Dense per-round series (index ``i`` is round ``i + 1``)."""
        counter = self.round_counters.get(name, {})
        series = [0] * rounds
        for round_number, count in counter.items():
            if 1 <= round_number <= rounds:
                series[round_number - 1] += count
        return series

    def record_fault_counters(self, round_number: int, snapshot: dict[str, int]) -> None:
        """Fold per-round deltas of a ``FaultCounters.snapshot()`` into
        ``faults_<kind>`` round counters."""
        previous = self._fault_snapshot or {}
        for key, value in snapshot.items():
            delta = value - previous.get(key, 0)
            if delta:
                self.bump_round(f"faults_{key}", round_number, delta)
        self._fault_snapshot = dict(snapshot)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        return {name: hist.summary() for name, hist in self.histograms.items()}

    def totals(self) -> dict[str, int]:
        """Total per round-counter name, across all rounds."""
        return {
            name: sum(counter.values())
            for name, counter in self.round_counters.items()
        }
