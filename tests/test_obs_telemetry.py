"""Unit tests for the observability primitives (repro.obs)."""

import numpy as np
import pytest

from repro.obs import NULL_PROFILER, InstrumentSet, Log2Histogram, Telemetry
from repro.obs.spans import SpanProfiler


class TestSpanProfiler:
    def test_span_records_count_and_wall(self):
        profiler = SpanProfiler()
        for _ in range(3):
            with profiler.span("work"):
                pass
        summary = profiler.summary()
        assert summary["work"]["count"] == 3
        assert summary["work"]["wall_s"] >= 0.0

    def test_nested_spans_use_slash_paths(self):
        profiler = SpanProfiler()
        with profiler.span("outer"):
            with profiler.span("inner"):
                pass
        with profiler.span("inner"):
            pass
        summary = profiler.summary()
        assert set(summary) == {"outer", "outer/inner", "inner"}
        assert summary["outer/inner"]["count"] == 1
        assert summary["inner"]["count"] == 1

    def test_same_handle_under_different_parents(self):
        # span() caches one handle per name; the path must still be
        # resolved at exit from the live stack.
        profiler = SpanProfiler()
        handle = profiler.span("kernel")
        assert profiler.span("kernel") is handle
        with profiler.span("a"):
            with handle:
                pass
        with profiler.span("b"):
            with handle:
                pass
        summary = profiler.summary()
        assert summary["a/kernel"]["count"] == 1
        assert summary["b/kernel"]["count"] == 1

    def test_round_series(self):
        profiler = SpanProfiler()
        assert profiler.round_wall == []
        profiler.round_tick(1)
        profiler.round_tick(2)
        profiler.round_tick(3)
        profiler.run_finished()
        assert len(profiler.round_wall) == 3
        assert all(wall >= 0.0 for wall in profiler.round_wall)
        assert profiler.total_round_wall == sum(profiler.round_wall)
        # run_finished is idempotent.
        profiler.run_finished()
        assert len(profiler.round_wall) == 3

    def test_null_profiler_is_inert(self):
        with NULL_PROFILER.span("anything"):
            pass
        NULL_PROFILER.round_tick(1)
        NULL_PROFILER.run_finished()
        assert NULL_PROFILER.summary() == {}
        assert NULL_PROFILER.round_wall == []
        assert len(NULL_PROFILER) == 0


class TestLog2Histogram:
    def test_bucketing(self):
        hist = Log2Histogram()
        for value in (0, 1, 2, 3, 4, 7, 8, 1023, 1024):
            hist.observe(value)
        assert hist.count == 9
        assert hist.max == 1024
        assert hist.total == sum((0, 1, 2, 3, 4, 7, 8, 1023, 1024))
        digest = hist.summary()
        buckets = dict(digest["buckets"])
        assert buckets[1] == 2  # 0 and 1
        assert buckets[2] == 2  # 2 and 3
        assert buckets[4] == 2  # 4 and 7
        assert buckets[8] == 1
        assert buckets[512] == 1  # 1023
        assert buckets[1024] == 1

    def test_scalar_and_array_paths_agree(self):
        # Every bucket boundary 2**k - 1, 2**k, 2**k + 1 the float64
        # exponent resolves (k <= 52).
        edges = [
            2**k + offset for k in range(1, 53) for offset in (-1, 0, 1)
        ]
        values = np.array(
            [0, 1, 2, 3, 5, 8, 13, 21, 1000, 65536] + edges, dtype=np.int64
        )
        scalar = Log2Histogram()
        for value in values:
            scalar.observe(int(value))
        vectorized = Log2Histogram()
        vectorized.observe_array(values)
        assert np.array_equal(scalar.buckets, vectorized.buckets)
        assert scalar.count == vectorized.count
        assert scalar.total == vectorized.total
        assert scalar.max == vectorized.max
        assert scalar.mean == pytest.approx(vectorized.mean)

    def test_empty_array_is_noop(self):
        hist = Log2Histogram()
        hist.observe_array(np.array([], dtype=np.int64))
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.summary()["buckets"] == []


class TestInstrumentSet:
    def test_round_counters(self):
        instruments = InstrumentSet()
        instruments.bump_round("walk_sends", 3, 5)
        instruments.bump_round("walk_sends", 3, 2)
        instruments.bump_round("walk_sends", 5, 1)
        assert instruments.round_series("walk_sends", 6) == [0, 0, 7, 0, 1, 0]
        assert instruments.totals() == {"walk_sends": 8}
        # Out-of-range rounds are dropped, not crashed on.
        assert instruments.round_series("walk_sends", 2) == [0, 0]

    def test_fault_counter_deltas(self):
        instruments = InstrumentSet()
        instruments.record_fault_counters(1, {"dropped": 2, "delayed": 0})
        instruments.record_fault_counters(2, {"dropped": 2, "delayed": 1})
        instruments.record_fault_counters(3, {"dropped": 5, "delayed": 1})
        assert instruments.round_series("faults_dropped", 3) == [2, 0, 3]
        assert instruments.round_series("faults_delayed", 3) == [0, 1, 0]


class TestTelemetry:
    def test_default_construction(self):
        telemetry = Telemetry()
        assert isinstance(telemetry.profiler, SpanProfiler)
        assert isinstance(telemetry.instruments, InstrumentSet)
        assert telemetry.meta == {}

    def test_explicit_parts(self):
        profiler = SpanProfiler()
        instruments = InstrumentSet()
        telemetry = Telemetry(profiler=profiler, instruments=instruments)
        assert telemetry.profiler is profiler
        assert telemetry.instruments is instruments
