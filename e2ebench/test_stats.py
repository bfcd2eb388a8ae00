"""Tests for the benchmark's statistics helpers.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""
import unittest

import stats


class TailPercentileTest(unittest.TestCase):
    def test_sixty_four_samples_give_p84_with_ten_beyond(self):
        values = list(range(1, 65))  # 1..64, already the sorted ranks
        pct, value = stats.tail_percentile(values)
        self.assertEqual(value, 54)
        self.assertAlmostEqual(pct, 84.375)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_of_input_does_not_matter(self):
        values = [float(v) for v in range(64)]
        shuffled = values[::2] + values[1::2]
        self.assertEqual(stats.tail_percentile(values),
                         stats.tail_percentile(shuffled))

    def test_too_few_samples_report_no_tail(self):
        self.assertIsNone(stats.tail_percentile([1.0] * 10))
        pct, value = stats.tail_percentile([3.0] * 10 + [1.0])
        self.assertEqual(value, 1.0)
        self.assertAlmostEqual(pct, 100.0 / 11)


class SummarizeTest(unittest.TestCase):
    def test_reports_sample_count_and_median(self):
        s = stats.summarize([3.0, 1.0, 2.0])
        self.assertEqual(s["n"], 3)
        self.assertEqual(s["median"], 2.0)
        self.assertNotIn("tail", s)

    def test_tail_present_once_enough_samples(self):
        s = stats.summarize([float(v) for v in range(20)])
        self.assertEqual(s["n"], 20)
        self.assertEqual(s["tail"], 9.0)
        self.assertAlmostEqual(s["tail_pct"], 50.0)


class SelfTimeTest(unittest.TestCase):
    def test_no_children_is_the_whole_span(self):
        self.assertEqual(stats.self_time((10, 5), []), 5)

    def test_disjoint_children_are_subtracted(self):
        self.assertEqual(stats.self_time((0, 100), [(10, 20), (50, 5)]), 75)

    def test_overlapping_children_count_once(self):
        self.assertEqual(stats.self_time((0, 100), [(10, 30), (20, 30)]), 60)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(stats.self_time((10, 10), [(0, 15), (18, 50)]), 3)

    def test_total_self_time_pairs_children_by_thread(self):
        spans = [
            ("stage.barrier", 0, 0, 100), ("sdp.solve", 0, 10, 40),
            ("stage.barrier", 1, 0, 50), ("sdp.solve", 1, 0, 10),
            ("sdp.solve", 2, 0, 100),  # another thread: not a child
        ]
        self.assertEqual(
            stats.total_self_time(spans, "stage.barrier", "sdp.solve"),
            (100 - 40) + (50 - 10))

    def test_span_total_sums_one_name(self):
        spans = [("sdp.solve", 0, 0, 3), ("sdp.solve", 1, 5, 4),
                 ("stage.barrier", 0, 0, 20)]
        self.assertEqual(stats.span_total(spans, "sdp.solve"), 7)


class DigestTest(unittest.TestCase):
    def test_equal_maps_have_no_mismatch(self):
        a = {"C1": "00aa", "C9": "00bb"}
        self.assertEqual(stats.digest_mismatches(a, dict(a)), [])

    def test_changed_and_missing_names_are_reported(self):
        a = {"C1": "00aa", "C9": "00bb", "F1-0": "0001"}
        b = {"C1": "00aa", "C9": "00bc", "F1-1": "0002"}
        self.assertEqual(stats.digest_mismatches(a, b), ["C9", "F1-0", "F1-1"])


if __name__ == "__main__":
    unittest.main()
