"""``BENCHMARK.json`` says what the code reports."""

import re
import unittest

from herdbench import benchmark_spec
from herdbench.harness import END_TO_END
from herdbench.layers import PER_LAYER, TARGETS, WORKLOAD_SPANS
from herdbench.metrics import NAMED
from herdbench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = benchmark_spec()

    def test_keys_and_limits(self):
        spec = self.spec
        self.assertEqual(sorted(spec), [
            "command", "end_to_end", "paths", "per_layer",
            "run_seconds", "workloads"])
        self.assertEqual(spec["paths"], ["herdbench"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = [m["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertTrue(0 < m["bound"] <= 0.25)
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    def test_workloads_match_the_code(self):
        self.assertEqual(
            [(w["name"], w["why"]) for w in self.spec["workloads"]],
            [(name, cls.why) for name, cls in WORKLOADS.items()
             if cls.gated])
        self.assertEqual([name for name, cls in WORKLOADS.items()
                          if not cls.gated], ["udp-backbone"])
        self.assertEqual(set(NAMED), set(WORKLOADS))

    def test_end_to_end_matches_the_harness(self):
        self.assertEqual([m["name"] for m in self.spec["end_to_end"]],
                         list(END_TO_END))
        setup = self.spec["end_to_end"][0]
        self.assertEqual((setup["name"], setup["unit"],
                          setup["better"]), ("setup_s", "s", "lower"))
        self.assertEqual(setup["bound"], max(
            m["bound"] for m in self.spec["end_to_end"]))

    def test_per_layer_matches_the_layer_table(self):
        self.assertEqual(
            [(m["name"], m["unit"], m["better"])
             for m in self.spec["per_layer"]],
            [(row.name, row.unit, row.better) for row in PER_LAYER])

    def test_every_span_metric_has_a_target(self):
        spans = {t.span for t in TARGETS} | set(WORKLOAD_SPANS)
        for row in PER_LAYER:
            if row.source[0] in ("busy", "calls", "setup_busy",
                                 "finish_busy"):
                self.assertIn(row.source[1], spans, row.name)


if __name__ == "__main__":
    unittest.main()
