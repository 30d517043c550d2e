"""Tests of the output checks: corrupted verb outputs must count as failed.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import tempfile
import unittest

import checks

# A reference record as probe/src/reference.rs writes it: photo 0 is S0.
REF = {
    "id": "solve",
    "budget": 100,
    "required": [0],
    "costs": [10, 40, 50, 30, 60],
    "selected": [0, 3, 1],
    "score": 12.3456,
    "score_bits": "4028b0f27bb2fec5",
    "cost": 80,
    "max": 20.0,
    "bound_score": 12.3456,
    "ub": 15.0,
    "photos": 5,
}

SOLVE_STDOUT = """dataset P-10K — 5 photos, 2 subsets, archive 0.0 MB
PHOcus run report
quality: 12.346 of max 20.000 (61.7%)
online bound: OPT ≤ 15.000 ⇒ achieved ratio ≥ 0.823
"""


def solve_output(ids, stdout=SOLVE_STDOUT):
    tsv = "".join("%d\t%d\tp%d.jpg\n" % (p, REF["costs"][p], p) for p in ids)
    return checks.parse_solve(stdout, tsv)["solve"]


class CorruptedOutputTest(unittest.TestCase):
    def test_the_correct_output_passes(self):
        self.assertEqual(checks.check(REF, solve_output([0, 3, 1])), [])

    def test_over_budget_fails(self):
        reasons = checks.check(REF, solve_output([0, 3, 1, 2]))
        self.assertIn("retained cost exceeds the budget", reasons)

    def test_missing_s0_fails(self):
        reasons = checks.check(REF, solve_output([3, 1]))
        self.assertIn("S0 is not retained", reasons)

    def test_wrong_selection_fails_even_when_feasible(self):
        # Same photos in another order, and a feasible different set.
        self.assertIn("selection differs from the reference solver", checks.check(REF, solve_output([0, 1, 3])))
        self.assertIn("selection differs from the reference solver", checks.check(REF, solve_output([0, 2])))

    def test_wrong_score_or_ratio_fails(self):
        out = solve_output([0, 3, 1], SOLVE_STDOUT.replace("12.346", "12.400").replace("0.823", "0.900"))
        reasons = checks.check(REF, out)
        self.assertIn("score differs from the reference solver", reasons)
        self.assertIn("printed online-bound ratio differs", reasons)

    def test_unknown_photo_fails(self):
        self.assertEqual(len(checks.check(REF, solve_output([0, 3, 1]) | {"selected": [0, 9]})), 1)

    def test_missing_or_failed_decision_fails(self):
        self.assertTrue(checks.check(REF, None))
        self.assertTrue(checks.check(REF, {"ok": False, "line": "fail\tepoch=3: boom"}))

    def test_summary_only_decisions(self):
        ref = dict(REF, id="epoch=1")
        good = {"ok": True, "photos": 5, "retained": 3, "cost_mb": 0.0, "score": 12.346, "score_decimals": 3}
        self.assertEqual(checks.check(ref, good), [])
        self.assertTrue(checks.check(ref, dict(good, retained=4)))
        self.assertTrue(checks.check(ref, dict(good, cost_mb=0.02)))
        # The reference itself over budget or without S0 also fails.
        self.assertIn("retained cost exceeds the budget", checks.check(dict(ref, budget=79), good))
        self.assertIn("S0 is not retained", checks.check(dict(ref, required=[2]), good))

    def test_compress_needs_one_action_per_parent(self):
        ref = dict(REF, id="compress", parent=[0, 1, 2, 1, 2], remove_only_score=10.0)
        stdout = "remove-only quality:        10.00\ncompression-aware quality:  12.35 (+23.5%)\n"
        tsv = "0\t0\tkeep\t10\ta\n3\t1\trecompress@0\t30\tb\n1\t1\tkeep\t40\tc\n"
        reasons = checks.check(ref, checks.parse_compress(stdout, tsv)["compress"])
        self.assertEqual(reasons, ["more than one action for a parent photo"])


class ParseTest(unittest.TestCase):
    def test_serve_lines_and_selection_files(self):
        with tempfile.TemporaryDirectory() as sols:
            with open(os.path.join(sols, "00001_fleet_t00001.tsv"), "w") as f:
                f.write("0\n3\n")
            stdout = (
                "fail\tfleet/t00000: pack does not match\n"
                "ok\tfleet/t00001\tphotos=5\tretained=2\tcost_mb=0.00\tscore=1.500\tms=0.1\n"
                "batch\ttenants=2\tok=1\tfailed=1\tinst_per_sec=1.00\n"
            )
            out = checks.parse_serve(stdout, sols)
        self.assertFalse(out["fleet/t00000"]["ok"])
        self.assertEqual(out["fleet/t00001"]["selected"], [0, 3])
        self.assertEqual(out["fleet/t00001"]["score"], 1.5)

    def test_epoch_lines(self):
        stdout = (
            "ok\tepoch=0\tphotos=9\tdirty_shards=all\treplayed=0\tlive=5\tretained=3\tcost_mb=1.25\tscore=7.125\tms=3.0\n"
            "fail\tepoch=1\tdelta names an unknown photo\n"
            "session\tepochs=2\tok=1\tfailed=1\n"
        )
        out = checks.parse_epochs(stdout)
        self.assertEqual(out["epoch=0"]["retained"], 3)
        self.assertEqual(out["epoch=0"]["cost_mb"], 1.25)
        self.assertFalse(out["epoch=1"]["ok"])

    def test_traced_run_must_match_verb_and_reference_bits(self):
        out = solve_output([0, 3, 1])
        traced = {"selected": [0, 3, 1], "score": 12.3456, "score_bits": REF["score_bits"]}
        self.assertEqual(checks.check_traced(REF, traced, out), [])
        self.assertTrue(checks.check_traced(REF, dict(traced, score_bits="0"), out))
        self.assertTrue(checks.check_traced(REF, dict(traced, selected=[0, 1, 3]), out))
        self.assertTrue(checks.check_traced(REF, None, out))


if __name__ == "__main__":
    unittest.main()
