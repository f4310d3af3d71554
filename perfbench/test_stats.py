"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The statistics tests are pure Python. TimingJournalTest builds and runs
perfbench_selftest (selftest.cc), which checks that journaling through
the timing decorator leaves the WAL byte-identical.
"""

import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99.9), 100)
        self.assertEqual(stats.percentile([7], 75), 7)


class TailTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 40 samples: p75 leaves exactly 10 above it, p90 only 4.
        t = stats.tail(list(range(40)))
        self.assertEqual(t["percentile"], 75)
        self.assertEqual(t["beyond"], 10)
        self.assertEqual(t["samples"], 40)
        self.assertEqual(t["value"], 29)

    def test_more_samples_reach_higher_percentiles(self):
        self.assertEqual(stats.tail(list(range(100)))["percentile"], 90)
        self.assertEqual(stats.tail(list(range(1000)))["percentile"], 99)
        self.assertEqual(stats.tail(list(range(10000)))["percentile"], 99.9)

    def test_cap_limits_the_percentile(self):
        t = stats.tail(list(range(1000)), cap=90)
        self.assertEqual(t["percentile"], 90)
        self.assertGreaterEqual(t["beyond"], stats.MIN_BEYOND)

    def test_ties_do_not_count_as_beyond(self):
        # Ten distinct values above a block of ties at the percentile.
        values = [1.0] * 30 + [float(v) for v in range(2, 12)]
        t = stats.tail(values)
        self.assertEqual(t["percentile"], 75)
        self.assertEqual(t["value"], 1.0)
        self.assertEqual(t["beyond"], 10)

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail(list(range(15))))


class FailureShareTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(stats.failure_share(0, 10), 0.0)
        self.assertEqual(stats.failure_share(3, 12), 0.25)

    def test_invalid(self):
        with self.assertRaises(ValueError):
            stats.failure_share(1, 0)
        with self.assertRaises(ValueError):
            stats.failure_share(5, 4)


class InputsTest(unittest.TestCase):
    def test_trace_periods_repeat_per_seed(self):
        self.assertEqual(run.trace_periods("lbm", 7),
                         run.trace_periods("lbm", 7))
        periods = run.trace_periods("Search1", 3)
        self.assertEqual(sum(periods), 800)
        self.assertTrue(all(185 <= p <= 215 for p in periods))

    def test_reconcile_streams_are_balanced(self):
        streams = run.reconcile_streams(5)
        self.assertEqual(streams, run.reconcile_streams(5))
        self.assertNotEqual(streams, run.reconcile_streams(6))
        for stream in streams:
            self.assertEqual(len(stream), 48)
            self.assertEqual(len(set(stream)), 6)
            self.assertTrue(all(stream.count(m) == 8 for m in stream))


class TimingJournalTest(unittest.TestCase):
    def test_wal_is_byte_identical_through_the_decorator(self):
        out = run.build(["perfbench_selftest"])
        got = subprocess.run([str(out / "perfbench_selftest"),
                              str(out / "selftest.tmp")],
                             capture_output=True, text=True)
        self.assertEqual(got.returncode, 0, got.stderr)
        self.assertIn("PASS", got.stdout)


if __name__ == "__main__":
    unittest.main()
