"""Percentile refusal and drift-normalization math.

    python3 -m unittest discover -s tsbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tsb import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(99)), 90)
        self.assertAlmostEqual(stats.percentile(list(range(100)), 90), 89.1)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(999)), 99)
        stats.percentile(list(range(1000)), 99)

    def test_median_needs_no_tail(self):
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)

    def test_interpolates_between_ranks(self):
        values = list(range(0, 1000, 10))  # 100 samples: 0, 10, ..., 990
        self.assertAlmostEqual(stats.percentile(values, 90), 891.0)
        self.assertEqual(stats.percentile(values, 0), 0)

    def test_refuses_nonsense(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.percentile([1], 101)


class NormalizeTest(unittest.TestCase):
    def test_reference_speed_is_identity(self):
        ref = stats.PROBE_REF_MS
        self.assertEqual(stats.normalize([10.0, 20.0], [ref, ref]), [10.0, 20.0])

    def test_slow_host_scales_down(self):
        ref = stats.PROBE_REF_MS
        self.assertEqual(stats.normalize([300.0] * 3, [2 * ref] * 3), [150.0] * 3)

    def test_drift_cancels(self):
        # The op and the probe slow down together by 1.4x halfway through.
        ops = [100.0] * 10 + [140.0] * 10
        probes = [50.0] * 10 + [70.0] * 10
        norm = stats.normalize(ops, probes, ref=50.0, window=0)
        self.assertTrue(all(abs(v - 100.0) < 1e-9 for v in norm))

    def test_local_median_ignores_one_disturbed_probe(self):
        probes = [50.0, 50.0, 500.0, 50.0, 50.0]
        self.assertEqual(stats.local_probe(probes, 2, window=2), 50.0)
        self.assertEqual(stats.normalize([80.0] * 5, probes, ref=50.0, window=2), [80.0] * 5)

    def test_window_is_clipped_at_the_ends(self):
        probes = [10.0, 20.0, 30.0, 40.0]
        self.assertEqual(stats.local_probe(probes, 0, window=1), 15.0)
        self.assertEqual(stats.local_probe(probes, 3, window=1), 35.0)

    def test_lengths_must_match(self):
        with self.assertRaises(ValueError):
            stats.normalize([1.0, 2.0], [1.0])


if __name__ == "__main__":
    unittest.main()
