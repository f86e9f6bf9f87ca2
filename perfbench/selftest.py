"""Self-tests of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

They check that every metric BENCHMARK.json names is printed with its unit,
that a wrong expected answer is reported as a failed operation rather than
a crash, and that one seed always yields the same inputs and the same
counts.  About a minute on one core.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import run  # noqa: E402

TINY_SPHERES = {"sphere_counts": {"4": 1, "5": 1, "6": 2}}


def tiny(workload: str, seed: int = 3, trace: bool = False, expect: dict | None = None) -> dict:
    """One round of the workload on the smallest input it accepts: the
    relabeled 9-vertex CP^2, or 2-spheres up to 6 vertices."""
    if workload == "enumerate":
        inps, want = [{"max_vertices": 6}], TINY_SPHERES
    else:
        inps, want = inputs.generate("calibration", seed), inputs.expected(workload)
    return run.run_workload(workload, seed, 0, trace, inputs=inps, expect=expect or want)


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def test_tables_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_every_metric_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, table in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = tiny(workload, trace=trace)["result"]
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, {m["name"]: m["unit"] for m in self.spec[table]})
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))


class WrongAnswers(unittest.TestCase):
    def test_wrong_sphere_count_is_a_failed_op(self):
        result = tiny("enumerate", expect={"sphere_counts": {"4": 1, "5": 1, "6": 3}})["result"]
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))

    def test_wrong_p1_total_fails_local_and_direct(self):
        out = tiny("perturbed_cold", expect={"p1_total": "4"})
        self.assertFalse(out["result"]["correct"])
        self.assertEqual((out["result"]["attempted"], out["result"]["failed"]), (2, 2))
        self.assertEqual(sorted(k.split(":")[0] for k in out["report"]["failures"]), ["p1_direct", "p1_local"])


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(inputs.generate(workload, 11), inputs.generate(workload, 11))
        a, b = inputs.generate("perturbed_cold", 11), inputs.generate("perturbed_cold", 12)
        self.assertNotEqual(a, b)
        # another seed relabels the same complexes
        self.assertEqual([len(x["facets"]) for x in a], [len(x["facets"]) for x in b])

    def test_same_seed_same_counts(self):
        runs = [tiny("calibration", seed=5, trace=True) for _ in range(2)]
        counts = [
            {k: v["value"] for k, v in r["result"]["metrics"].items() if v["unit"] == "count"} for r in runs
        ]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(runs[0]["report"]["inputs"], runs[1]["report"]["inputs"])


if __name__ == "__main__":
    unittest.main()
