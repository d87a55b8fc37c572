"""Tests of the benchmark's own logic: metric names, correctness checks and
the trace self-time arithmetic. Needs no build and runs no benchmark.

    python3 -m unittest discover -s perfbench/tests
"""

import copy
import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def span(id_, parent, name, start, dur, cpu=None):
    return {"id": id_, "parent": parent, "name": name, "start": start,
            "dur": dur, "cpu": dur if cpu is None else cpu}


class MetricNames(unittest.TestCase):
    def test_names_are_unique_and_well_formed(self):
        metrics = run.END_TO_END + run.per_layer_metrics()
        names = [name for name, _ in metrics]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in metrics:
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)

    def test_benchmark_json_lists_what_run_reports(self):
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         run.per_layer_metrics())

    def test_every_timing_has_a_cpu_twin(self):
        names = {name for name, _ in run.per_layer_metrics()}
        for name in names:
            if name.endswith("_s") and not name.endswith(".cpu_s") \
                    and not name.endswith("per_s"):
                self.assertIn(name[:-2] + ".cpu_s", names)


class Checks(unittest.TestCase):
    def test_flipped_byte_fails_the_digest_check(self):
        report = b"loaded 195909 records (141463 JSON)\n"
        digest = run.hashlib.sha256(report).hexdigest()
        self.assertTrue(all(ok for _, ok in run.check_digest(report, [digest])))
        flipped = bytearray(report)
        flipped[7] ^= 0x01
        checks = run.check_digest(bytes(flipped), [digest, digest])
        failed = sum(1 for _, ok in checks if not ok)
        self.assertGreater(failed, 0)
        self.assertLess((len(checks) - failed) / len(checks), 1.0)

    def stream_pair(self):
        exact = {
            "exact": {"total_records": 1000, "json_records": 600,
                      "methods.get": 500},
            "distinct_urls": 100.4, "distinct_clients": 50.2,
            "distinct_domains": 4.0,
            "top_urls": [["/a", 300], ["/b", 100], ["/c", 2]],
            "json_sizes": {"p50": 100.0}, "html_sizes": {"p50": 1000.0},
        }
        estimates = copy.deepcopy(exact)
        # "/c" is below N / capacity = 600 / 10, so it may be missing.
        estimates["top_urls"] = [["/a", 310, 10], ["/b", 100, 0]]
        estimates["json_sizes"] = {"p50": 100.9}
        estimates["config"] = {"hll_precision": 12, "heavy_hitters": 10,
                               "quantile_alpha": 0.01}
        return estimates, exact

    def test_stream_estimates_within_bounds_pass(self):
        estimates, exact = self.stream_pair()
        checks = run.check_stream(estimates, exact)
        self.assertEqual([n for n, ok in checks if not ok], [])

    def test_stream_counter_or_bound_violation_fails(self):
        estimates, exact = self.stream_pair()
        estimates["exact"]["methods.get"] += 1
        # Within any error bound, but not the batch sketch's estimate.
        estimates["distinct_urls"] = 100.5
        estimates["top_urls"] = [["/b", 100, 0]]
        estimates["json_sizes"] = {"p50": 102.0}
        failed = sorted(n for n, ok in run.check_stream(estimates, exact)
                        if not ok)
        self.assertEqual(failed, ["exact.methods.get", "heavy_hitter.found",
                                  "hll.distinct_urls",
                                  "quantile.json_sizes.p50"])


class SelfTimes(unittest.TestCase):
    def tree(self):
        # job [0, 10] holds a [1, 4] and b [3, 6], which overlap on [3, 4];
        # a holds c [2, 3]; d [9, 12] runs past its parent's end.
        return [
            span(0, -1, "job", 0.0, 10.0),
            span(1, 0, "shard.read_all", 1.0, 3.0),
            span(2, 0, "core.ngram", 3.0, 3.0),
            span(3, 1, "logs.sort_by_time", 2.0, 1.0),
            span(4, 0, "core.render", 9.0, 3.0),
        ]

    def test_self_time_subtracts_the_union_of_children(self):
        selfs = run.self_times(self.tree())
        # Children cover [1, 6] and [9, 10] of the root: 6 of 10.
        self.assertAlmostEqual(selfs[0][0], 4.0)
        self.assertAlmostEqual(selfs[1][0], 2.0)
        self.assertAlmostEqual(selfs[2][0], 3.0)
        self.assertAlmostEqual(selfs[3][0], 1.0)
        self.assertAlmostEqual(selfs[4][0], 3.0)

    def test_nested_self_times_sum_to_the_root(self):
        spans = [
            span(0, -1, "job", 0.0, 10.0, cpu=9.0),
            span(1, 0, "shard.scan", 1.0, 6.0, cpu=6.0),
            span(2, 1, "stream.ingest", 2.0, 2.0, cpu=2.0),
            span(3, 1, "stream.ingest", 4.5, 2.0, cpu=1.5),
            span(4, 0, "stream.summary", 8.0, 1.0, cpu=1.0),
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(sum(w for w, _ in selfs.values()), 10.0)
        self.assertAlmostEqual(selfs[1][1], 2.5)
        self.assertTrue(all(ok for _, ok in run.check_span_tree(spans)))
        m = run.span_metrics(spans)
        self.assertAlmostEqual(m["shard.scan_self_s"], 2.0)
        self.assertAlmostEqual(m["stream.ingest_s"], 4.0)
        self.assertAlmostEqual(m["stream.self_s"], 5.0)
        self.assertAlmostEqual(m["stream.chunk_ingest_p50_s"], 2.0)
        self.assertAlmostEqual(m["stream.chunk_ingest_max.cpu_s"], 2.0)

    def test_children_longer_than_parent_fail_the_tree_check(self):
        self.assertFalse(all(ok for _, ok in run.check_span_tree(self.tree())))


if __name__ == "__main__":
    unittest.main()
