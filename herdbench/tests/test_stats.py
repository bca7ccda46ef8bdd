"""The percentile rule and the spread figure."""

import unittest

from herdbench import stats


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        # p75 needs 40 samples, p90 100, p95 200, p99 1000, p99.9 10k.
        self.assertIsNone(stats.tail_percentile(39))
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(99), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10_000), 99.9)

    def test_supports(self):
        self.assertFalse(stats.supports(80, 90.0))   # 8 beyond
        self.assertTrue(stats.supports(4000, 90.0))  # 400 beyond

    def test_percentile_interpolates_between_ranks(self):
        values = [4.0, 1.0, 3.0, 2.0, 5.0]
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 50), 3.0)
        self.assertEqual(stats.percentile(values, 100), 5.0)
        self.assertAlmostEqual(stats.percentile(values, 90), 4.6)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class Spread(unittest.TestCase):
    def test_interquartile_share_of_median(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0]
        # statistics.quantiles(n=4) → 10.5, 12, 13.5
        self.assertAlmostEqual(stats.spread(values), 3.0 / 12.0)

    def test_degenerate_samples(self):
        self.assertEqual(stats.spread([7.0]), 0.0)
        self.assertEqual(stats.spread([0.0, 0.0, 0.0]), 0.0)


if __name__ == "__main__":
    unittest.main()
