"""Tests for the strided detailed-search (refinement) path.

``ChunkedDetector`` refines a level's alarms in batches through
``WindowEngine.dsr_values``; ``StreamingDetector`` refines one alarm at
a time through ``search_dsr``.  Both must report the same bursts and the
same operation counts, for every size set and stream position.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.aggregates import MAX, SUM, SumWindowEngine, WindowEngine
from repro.core.chunked import ChunkedDetector
from repro.core.detector import StreamingDetector
from repro.core.dsr import LevelPlan
from repro.core.events import BurstSet
from repro.core.naive import naive_detect
from repro.core.sbt import shifted_binary_tree
from repro.core.thresholds import (
    FixedThresholds,
    NormalThresholds,
    all_sizes,
    stepped_sizes,
)

IRREGULAR = [2, 3, 5, 8, 13, 21, 34]


def _stream(rng, n=6000):
    data = rng.poisson(8.0, n).astype(float)
    data[2500:2560] += 5.0  # a planted burst so every size set has hits
    return data


def _setup(data, sizes):
    th = NormalThresholds.from_data(data[:2000], 1e-3, sizes)
    return shifted_binary_tree(int(max(sizes))), th


def _assert_parity(chunked, streaming, got, want):
    assert got == want
    assert chunked.counters.as_dict() == streaming.counters.as_dict()


class TestParityWithStreaming:
    @pytest.mark.parametrize(
        "sizes",
        [stepped_sizes(5, 100), IRREGULAR, all_sizes(40)],
        ids=["stepped", "irregular", "all"],
    )
    @pytest.mark.parametrize("refine_filter", [True, False])
    def test_size_sets(self, rng, sizes, refine_filter):
        data = _stream(rng)
        structure, th = _setup(data, sizes)
        ref = StreamingDetector(structure, th, refine_filter=refine_filter)
        want = ref.detect(data)
        chk = ChunkedDetector(structure, th, refine_filter=refine_filter)
        got = chk.detect(data, chunk_size=700)
        _assert_parity(chk, ref, got, want)
        assert got == naive_detect(data, th)
        assert len(want) > 0

    def test_first_chunk_shorter_than_largest_size(self, rng):
        # Every DSR of the first chunk holds windows clipped at stream
        # start: they are neither searched nor charged.
        data = _stream(rng)
        data[:30] += 20.0
        structure, th = _setup(data, stepped_sizes(5, 100))
        ref = StreamingDetector(structure, th)
        want = ref.detect(data)
        chk = ChunkedDetector(structure, th)
        got = chk.process(data[:17])
        for lo in range(17, data.size, 900):
            got += chk.process(data[lo : lo + 900])
        got += chk.finish()
        _assert_parity(chk, ref, BurstSet(got), want)
        assert any(b.end < 100 for b in want)

    def test_restore_carry_mid_stream(self, rng):
        data = _stream(rng)
        structure, th = _setup(data, IRREGULAR)
        ref = StreamingDetector(structure, th)
        want = ref.detect(data)
        first = ChunkedDetector(structure, th)
        got = first.process(data[:2490])
        resumed = ChunkedDetector.from_carry(structure, th, first.carry())
        for lo in range(2490, data.size, 600):
            got += resumed.process(data[lo : lo + 600])
        got += resumed.finish()
        _assert_parity(resumed, ref, type(want)(got), want)

    def test_amend_between_chunks(self, rng):
        data = _stream(rng)
        structure, th = _setup(data, stepped_sizes(5, 100))
        head, tail = data[:3000], data[3000:]
        # Windows ending in the second chunk reach back over index 2990,
        # so they must see the amended value; the reference amends its
        # own engine at the same point of the stream.
        ref = StreamingDetector(structure, th)
        want = ref.process(head)
        ref._engine.amend(2990, 60.0)
        want += ref.process(tail) + ref.finish()
        chk = ChunkedDetector(structure, th)
        got = chk.process(head)
        chk.amend(2990, 60.0)
        got += chk.process(tail) + chk.finish()
        _assert_parity(chk, ref, BurstSet(got), BurstSet(want))
        assert any(b.end >= 3000 and b.end - b.size < 2990 for b in got)

    def test_max_aggregate_irregular_sizes(self, rng):
        data = _stream(rng)
        th = FixedThresholds({w: 14.0 + 0.05 * w for w in IRREGULAR})
        structure = shifted_binary_tree(34)
        ref = StreamingDetector(structure, th, MAX)
        want = ref.detect(data)
        chk = ChunkedDetector(structure, th, MAX)
        got = chk.detect(data, chunk_size=500)
        _assert_parity(chk, ref, got, want)

    def test_query_behind_retained_history_raises(self, rng):
        data = _stream(rng)
        structure, th = _setup(data, stepped_sizes(5, 100))
        det = ChunkedDetector(structure, th)
        det.process(data[:3000])
        carry = det.carry()
        # Keep only the last few prefix sums: windows of the next chunk
        # now reach behind the retained history.
        short = type(carry)(
            length=carry.length,
            aggregate=carry.aggregate,
            offset=carry.length - 4,
            tail=carry.tail[-5:],
            counters=carry.counters,
        )
        resumed = ChunkedDetector.from_carry(structure, th, short)
        with pytest.raises(IndexError, match="history"):
            resumed.process(data[3000:4000])


class TestDsrValues:
    """``SumWindowEngine.dsr_values`` against the generic grid path."""

    @pytest.mark.parametrize("step", [1, 3])
    @pytest.mark.parametrize("chunk", [7, 50])
    def test_matches_values_grid(self, rng, step, chunk):
        data = rng.uniform(0, 10, 200)
        engine = SumWindowEngine(history=40)
        checked = 0
        for lo in range(0, data.size, chunk):
            engine.append(data[lo : lo + chunk])
            node_ends = np.arange(lo + 3, min(lo + chunk, data.size), 4)
            if node_ends.size == 0:
                continue
            got = engine.dsr_values(node_ends, 4, 19, step, 19 // step)
            want = WindowEngine.dsr_values(
                engine, node_ends, 4, 19, step, 19 // step
            )
            np.testing.assert_array_equal(got, want)
            checked += 1
        assert checked > 0

    def test_nan_exactly_where_window_starts_before_zero(self, rng):
        engine = SumWindowEngine(history=32)
        engine.append(rng.uniform(0, 1, 10))
        got = engine.dsr_values(np.array([3, 9]), 4, 8, 1, 8)
        first = np.array([0, 6])
        for a in range(2):
            for j in range(4):
                for h in range(8):
                    end, size = first[a] + j, 8 - h
                    assert np.isnan(got[a, j, h]) == (end < size - 1)

    def test_behind_retained_history_raises(self):
        engine = SumWindowEngine(history=4)
        for _ in range(20):
            engine.append(np.ones(10))
        with pytest.raises(IndexError, match="history"):
            engine.dsr_values(np.array([199]), 4, 60, 1, 10)

    def test_end_beyond_stream_raises(self):
        engine = SumWindowEngine(history=4)
        engine.append(np.ones(10))
        with pytest.raises(IndexError, match="beyond"):
            engine.dsr_values(np.array([10]), 2, 2, 1, 2)


class TestPlanHull:
    def test_hull_of_irregular_sizes(self):
        plan = LevelPlan(
            level=1,
            size=16,
            shift=4,
            lo=4,
            hi=13,
            sizes=np.array([4, 6, 10], dtype=np.int64),
            thresholds=np.array([4.0, 6.0, 10.0]),
            min_threshold=4.0,
            monotone=True,
        )
        assert plan.hull_step == 2
        np.testing.assert_array_equal(
            plan.hull_thresholds, [10.0, np.inf, 6.0, 4.0]
        )


class TestRefinementMemory:
    def test_transient_peak_bounded_by_cell_budget(self):
        # SBT(256), one 65,536-point chunk and every node alarming with
        # its whole DSR searched: thresholds just above each window's
        # sum on a constant stream, so nodes alarm but no window bursts.
        # Batching by alarms alone peaked near 200 MiB here.
        sizes = all_sizes(256)
        th = FixedThresholds({int(w): w + 0.5 for w in sizes})
        det = ChunkedDetector(shifted_binary_tree(256), th, SUM)
        data = np.ones(1 << 16)
        tracemalloc.start()
        try:
            out = det.process(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == []
        counters = det.counters
        assert int(counters.alarms[1:].sum()) > 60_000
        assert int(counters.search_cells.sum()) > 10_000_000
        assert peak < 48 * 2**20
