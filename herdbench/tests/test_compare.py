"""``compare`` verdicts on synthetic result files."""

import unittest

from herdbench.compare import compare, verdict
from herdbench.metrics import Spec

LOWER = Spec("op_ms_p05", "ms", "lower", 0.10)
HIGHER = Spec("cells_per_s", "1/s", "higher", 0.10)
EXACT = Spec("call_setup_rounds", "rounds", "lower", 0.0)


def _run(workload="zone-join", seed=1, trace=False, failed=0,
         digest=None, exact=None, **values):
    metrics = {"setup_s": 1.0, "op_ms_p05": 20.0, "mem_peak_mb": 40.0,
               "joins_per_s": 50.0, "join_ms_p90": 25.0,
               "failed_share": 0.0}
    metrics.update(values)
    return {"workload": workload, "seed": seed, "trace": trace,
            "failed": failed, "digest": digest, "exact": exact or {},
            "metrics": {k: {"value": v, "unit": "x", "n": 1}
                        for k, v in metrics.items()}}


def _file(*runs):
    return {"schema": "herdbench/1", "runs": list(runs)}


class Verdicts(unittest.TestCase):
    def test_within_bound_is_ok(self):
        self.assertEqual(verdict(LOWER, [100, 101, 102],
                                 [105, 106, 107])[0], "ok")
        self.assertEqual(verdict(HIGHER, [100, 101, 102],
                                 [95, 96, 97])[0], "ok")

    def test_beyond_bound_is_regression(self):
        self.assertEqual(verdict(LOWER, [100, 101, 102],
                                 [115, 116, 117])[0], "regression")
        self.assertEqual(verdict(HIGHER, [100, 101, 102],
                                 [85, 86, 87])[0], "regression")

    def test_direction_matters(self):
        # 15 % *higher* throughput, 15 % *lower* latency: both fine.
        self.assertEqual(verdict(HIGHER, [100, 101, 102],
                                 [115, 116, 117])[0], "ok")
        self.assertEqual(verdict(LOWER, [100, 101, 102],
                                 [85, 86, 87])[0], "ok")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [80, 100, 120, 140]
        self.assertEqual(verdict(LOWER, noisy, [90, 100, 130, 150])[0],
                         "unresolved")
        # ... even when the medians look like a regression,
        self.assertEqual(verdict(LOWER, noisy, [100, 130, 160, 190])[0],
                         "unresolved")
        # ... unless every run of B beats every run of A.
        self.assertEqual(verdict(LOWER, noisy, [40, 50, 60, 70])[0],
                         "ok")

    def test_zero_bound_allows_no_worsening(self):
        self.assertEqual(verdict(EXACT, [2, 2], [2, 2])[0], "ok")
        self.assertEqual(verdict(EXACT, [2, 2], [3, 3])[0],
                         "regression")
        self.assertEqual(verdict(EXACT, [3, 3], [2, 2])[0], "ok")


class CompareFiles(unittest.TestCase):
    def _verdicts(self, a, b):
        return {(w, m): v for w, m, v, _ in compare(a, b)}

    def test_same_numbers_are_all_ok(self):
        a = _file(_run(), _run(), _run())
        rows = self._verdicts(a, a)
        self.assertEqual(set(rows.values()), {"ok"})
        # One row per metric: the generic ones and the named ones.
        for name in ("setup_s", "op_ms_p05", "mem_peak_mb",
                     "joins_per_s", "join_ms_p90", "failed_share",
                     "failed", "digest+exact"):
            self.assertIn(("zone-join", name), rows)

    def test_slower_candidate_is_a_regression_on_its_rows_only(self):
        a = _file(_run(), _run(), _run())
        b = _file(*[_run(op_ms_p05=30.0, joins_per_s=33.0)
                    for _ in range(3)])
        rows = self._verdicts(a, b)
        self.assertEqual(rows[("zone-join", "op_ms_p05")],
                         "regression")
        self.assertEqual(rows[("zone-join", "joins_per_s")],
                         "regression")
        self.assertEqual(rows[("zone-join", "setup_s")], "ok")
        self.assertEqual(rows[("zone-join", "mem_peak_mb")], "ok")

    def test_traced_runs_are_ignored(self):
        a = _file(_run(), _run(trace=True, op_ms_p05=500.0))
        rows = self._verdicts(a, _file(_run()))
        self.assertEqual(rows[("zone-join", "op_ms_p05")], "ok")

    def test_failures_and_digest_mismatch_are_regressions(self):
        a = _file(_run(digest="aa", exact={"cells": 4}))
        rows = self._verdicts(a, _file(_run(digest="bb",
                                            exact={"cells": 4})))
        self.assertEqual(rows[("zone-join", "digest+exact")],
                         "regression")
        rows = self._verdicts(a, _file(_run(digest="aa",
                                            exact={"cells": 5})))
        self.assertEqual(rows[("zone-join", "digest+exact")],
                         "regression")
        # Another seed may differ; the same seed may not.
        rows = self._verdicts(a, _file(_run(seed=2, digest="bb")))
        self.assertEqual(rows[("zone-join", "digest+exact")], "ok")
        rows = self._verdicts(a, _file(_run(digest="aa",
                                            exact={"cells": 4},
                                            failed=1,
                                            failed_share=0.01)))
        self.assertEqual(rows[("zone-join", "failed")], "regression")
        self.assertEqual(rows[("zone-join", "failed_share")],
                         "regression")

    def test_workload_missing_on_one_side_is_unresolved(self):
        rows = self._verdicts(_file(_run()),
                              _file(_run(workload="zone-steady")))
        self.assertEqual(rows[("zone-join", "*")], "unresolved")
        self.assertEqual(rows[("zone-steady", "*")], "unresolved")


if __name__ == "__main__":
    unittest.main()
