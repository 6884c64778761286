"""Tests for the diagnose() report and the batched-alarm DSR path."""

import numpy as np
import pytest

from repro.core.analysis import diagnose
from repro.core.chunked import ChunkedDetector
from repro.core.detector import StreamingDetector
from repro.core.sbt import shifted_binary_tree
from repro.core.thresholds import FixedThresholds, NormalThresholds, all_sizes


class TestDiagnose:
    @pytest.fixture
    def run(self, rng):
        data = rng.poisson(8.0, 10_000).astype(float)
        th = NormalThresholds.from_data(data[:3000], 1e-4, all_sizes(32))
        structure = shifted_binary_tree(32)
        d = ChunkedDetector(structure, th)
        d.detect(data)
        return structure, th, d

    def test_one_line_per_level(self, run):
        structure, th, d = run
        text = diagnose(structure, th, d.counters)
        assert len(text.splitlines()) == structure.num_levels + 1

    def test_prediction_column_optional(self, run):
        structure, th, d = run
        without = diagnose(structure, th, d.counters)
        with_pred = diagnose(
            structure, th, d.counters, mu=8.0, sigma=np.sqrt(8.0)
        )
        assert "pred" not in without
        assert "pred" in with_pred

    def test_prediction_tracks_measurement(self, run):
        # The per-level prediction should be close to the measured alarm
        # probability on well-behaved Poisson data (spot-check one level).
        structure, th, d = run
        from repro.core.analysis import level_alarm_probabilities

        predicted = level_alarm_probabilities(
            structure, th, 8.0, np.sqrt(8.0)
        )
        measured = d.counters.alarm_probabilities()
        mid = structure.num_levels // 2
        assert measured[mid] == pytest.approx(predicted[mid], abs=0.1)

    def test_ops_shares_sum_to_about_one(self, run):
        structure, th, d = run
        text = diagnose(structure, th, d.counters)
        shares = [
            float(line.rsplit(None, 1)[-1].rstrip("%"))
            for line in text.splitlines()[1:]
        ]
        # Level 0 ops are excluded from the listing, so <= 100.
        assert 0 < sum(shares) <= 100.0


class TestAlarmBatching:
    def test_batch_boundary_parity(self, rng):
        # Force a tiny cell budget (one alarm per batch) so a single
        # chunk spans many batches; results must not depend on it.
        data = rng.poisson(10.0, 4000).astype(float)
        th = NormalThresholds.from_data(data[:1000], 1e-2, all_sizes(24))
        structure = shifted_binary_tree(24)
        normal = ChunkedDetector(structure, th)
        want = normal.detect(data)
        tiny = ChunkedDetector(structure, th)
        tiny._CELL_BUDGET = 3
        got = tiny.detect(data)
        assert got == want
        assert tiny.counters.as_dict() == normal.counters.as_dict()

    def test_batched_path_matches_streaming_under_alarm_saturation(self):
        # Every node alarms: the batched path must still agree exactly.
        data = np.full(1200, 10.0)
        th = FixedThresholds({w: 2.0 * w for w in range(2, 16)})
        structure = shifted_binary_tree(15)
        ref = StreamingDetector(structure, th)
        want = ref.detect(data)
        chk = ChunkedDetector(structure, th)
        got = chk.detect(data, chunk_size=100)
        assert got == want
        assert chk.counters.as_dict() == ref.counters.as_dict()

    def test_single_alarm_batch(self, rng):
        # One isolated alarm exercises the batch path with a == 1.
        data = np.zeros(600)
        data[400:404] = 50.0
        # 160 excludes the 3-of-4 overlap windows (sum 150), leaving only
        # the exact injected window (sum 200).
        th = FixedThresholds({4: 160.0})
        structure = shifted_binary_tree(4)
        chk = ChunkedDetector(structure, th)
        got = chk.detect(data)
        assert got.keys() == {(403, 4)}
        assert chk.counters.total_alarms >= 1
