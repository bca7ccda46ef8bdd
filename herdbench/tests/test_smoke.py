"""All five workloads at tiny size, untraced and traced, plus the
guarantee that a refactor under ``src/`` cannot break a run."""

import unittest

from herdbench import harness
from herdbench.layers import PER_LAYER, TARGETS, Target
from herdbench.metrics import NAMED
from herdbench.workloads import WORKLOADS, CircuitCalls, Workload


class Smoke(unittest.TestCase):
    def test_untraced_runs_report_every_end_to_end_metric(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                detail = harness.run_workload(name, seed=11,
                                              seconds=0.2, tiny=True)
                self.assertTrue(detail["correct"], detail)
                self.assertEqual(detail["failed"], 0)
                self.assertEqual(detail["trials"], 2)
                self.assertEqual(detail["metrics"]["setup_s"]["n"], 2)
                self.assertGreaterEqual(
                    detail["ops"], 2 * detail["sizes"]["min_ops"])
                wanted = set(harness.END_TO_END) | {
                    spec.name for spec in NAMED[name]}
                self.assertLessEqual(wanted, set(detail["metrics"]))
                for metric in harness.END_TO_END:
                    self.assertGreater(
                        detail["metrics"][metric]["value"], 0.0)
                line = harness.contract_line(detail)
                self.assertEqual(sorted(line), [
                    "attempted", "correct", "failed", "metrics"])
                self.assertEqual(list(line["metrics"]),
                                 list(harness.END_TO_END))

    def test_traced_runs_report_every_per_layer_metric(self):
        shares = {}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                detail = harness.run_workload(name, seed=11,
                                              seconds=0.2, trace=True,
                                              tiny=True)
                self.assertTrue(detail["correct"], detail)
                self.assertEqual(detail["layers"]["missing"], [])
                line = harness.contract_line(detail)
                self.assertEqual(list(line["metrics"]),
                                 [row.name for row in PER_LAYER])
                for value in line["metrics"].values():
                    self.assertIsInstance(value["value"],
                                          (int, float))
                shares[name] = detail["layers"]["shares"]
                self.assertLess(
                    detail["metrics"]["trace.unattributed_share"]
                    ["value"], 0.10)

        def share(workload, prefix):
            return sum(v for k, v in shares[workload].items()
                       if k.startswith(prefix))

        # Who does the work where (README, "How they interact").
        self.assertGreater(share("zone-steady", "crypto."), 0.5)
        self.assertGreater(share("zone-join", "crypto."), 0.5)
        self.assertGreater(share("circuit-calls", "crypto."), 0.5)
        self.assertGreater(share("wire-backbone", "netsim."), 0.5)
        self.assertGreater(share("udp-backbone", "net.")
                           + share("udp-backbone", "core.wire"), 0.5)
        for backbone in ("wire-backbone", "udp-backbone"):
            self.assertEqual(share(backbone, "crypto."), 0.0)

    def test_equal_seeds_give_equal_digests_and_counts(self):
        first = harness.run_workload("zone-steady", seed=5,
                                     seconds=0.1, tiny=True)
        again = harness.run_workload("zone-steady", seed=5,
                                     seconds=0.3, tiny=True)
        self.assertIsNotNone(first["digest"])
        self.assertEqual(first["digest"], again["digest"])
        self.assertEqual(first["exact"], again["exact"])

    def test_a_vanished_target_yields_null_not_a_crash(self):
        broken = tuple(t for t in TARGETS if t.span != "crypto.kdf") \
            + (Target("crypto.kdf", "repro.crypto.kdf.renamed_away"),)
        original = harness.TARGETS
        harness.TARGETS = broken
        try:
            detail = harness.run_workload("zone-join", seed=3,
                                          seconds=0.1, trace=True,
                                          tiny=True)
        finally:
            harness.TARGETS = original
        self.assertTrue(detail["correct"])
        self.assertEqual(detail["layers"]["missing"],
                         ["repro.crypto.kdf.renamed_away"])
        self.assertIsNone(
            detail["metrics"]["crypto.kdf.busy_s"]["value"])
        self.assertEqual(
            detail["metrics"]["trace.missing"]["value"], 1)
        line = harness.contract_line(detail)
        self.assertEqual(
            line["metrics"]["crypto.kdf.busy_s"]["value"], 0.0)


class _Drifting(Workload):
    """Two trials of the same seed that do not build the same
    system."""

    name = "drifting"
    TINY = dict(min_ops=2, trials=2)
    built = 0

    def setup(self):
        _Drifting.built += 1
        return {}

    def op(self, i):
        self.attempted += 1

    def finish(self):
        return {"exact": {"built": _Drifting.built}, "digest": None,
                "totals": {}, "notes": []}

    def named_metrics(self, op_s, work_per_s, samples, result):
        return {}


class Trials(unittest.TestCase):
    def test_trials_that_disagree_fail_the_run(self):
        WORKLOADS[_Drifting.name] = _Drifting
        try:
            detail = harness.run_workload(_Drifting.name, seed=1,
                                          seconds=0.01, tiny=True)
        finally:
            del WORKLOADS[_Drifting.name]
        self.assertEqual(detail["ops"], 4)
        self.assertEqual((detail["attempted"], detail["failed"]),
                         (5, 1))
        self.assertFalse(detail["correct"])

    def test_reference_round_takes_each_path_at_its_own_percentile(
            self):
        w = CircuitCalls(seed=1, tiny=True)
        w.mixes_crossed = [3, 3, 4, 4]  # this seed drew no 2-mix path
        samples = {"frame": [1.0, 2.0, 3.0],
                   "frame_3_mixes": [3.0, 3.0, 5.0],
                   "frame_4_mixes": [4.0, 6.0]}
        # 4 frames: 1 at the average frame, 2 over 3 mixes, 1 over 4.
        self.assertEqual(w.op_cost_s([], samples, 50.0),
                         1 * 2.0 + 2 * 3.0 + 1 * 5.0)


if __name__ == "__main__":
    unittest.main()
