"""Golden checks: a flipped golden must fail ops and raise op_fail_frac.

    python3 -m unittest discover -s tsbench/tests
"""

import os
import stat
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tsb import golden  # noqa: E402
from tsb.workloads import Bins, ReplayWorkload  # noqa: E402

KEY = "db2-x1-s1000"


def replay_line(g, workload="DB2", engine="TSE"):
    """The result line ``tracectl replay`` prints for golden ``g``."""
    return (f"{workload} [{engine}]: {g['records']} measured records, {g['consumptions']} "
            f"consumptions, coverage {g['coverage_pct']}%, discards {g['discards_pct']}%, "
            f"{g['spin_misses']} spin misses")


class ParseTest(unittest.TestCase):
    def test_round_trips_every_committed_golden(self):
        goldens = golden.load("replay.json")
        self.assertGreaterEqual(len(goldens), 25)
        for g in goldens.values():
            self.assertEqual(golden.parse_replay("noise\n" + replay_line(g) + "\n"), g)

    def test_no_result_line_is_none(self):
        self.assertIsNone(golden.parse_replay("tracectl: cannot open x\n"))

    def test_missing_output_or_golden_fails(self):
        self.assertFalse(golden.check({"a": 1}, "a", None))
        self.assertFalse(golden.check({}, "a", 1))
        self.assertTrue(golden.check({"a": 1}, "a", 1))

    def test_sweepd_goldens_cover_the_pool(self):
        from tsb.workloads import CELL_CLASSES, CLASS_SIZE
        goldens = golden.load("sweepd.json")
        self.assertEqual(len(goldens), len(CELL_CLASSES) * CLASS_SIZE + 1)
        self.assertIn("warm", goldens)


class FlippedGoldenTest(unittest.TestCase):
    """Drives ReplayWorkload's op path against a stand-in tracectl that
    prints the committed golden's result line, so the only difference
    between the two runs is the golden itself."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        d = self.tmp.name
        g = golden.load("replay.json")[f"{KEY}/tse"]
        fake = os.path.join(d, "release", "tracectl")
        os.makedirs(os.path.dirname(fake))
        with open(fake, "w") as f:
            f.write(f"#!/bin/sh\necho '{replay_line(g)}'\n")
        os.chmod(fake, os.stat(fake).st_mode | stat.S_IEXEC)
        self.wl = ReplayWorkload("replay_oltp", Bins(d, None), seed=1)
        self.wl.traces = [{"path": "unused.tsb1", "key": KEY, "workload": "DB2",
                           "records": g["records"]}]
        self.wl.order = [0]

    def tearDown(self):
        self.tmp.cleanup()

    def run_ops(self, n=4):
        return [self.wl.op(i, self.tmp.name) for i in range(n)]

    def test_committed_golden_passes(self):
        results = self.run_ops()
        self.assertTrue(all(r.ok for r in results))
        self.assertEqual(golden.fail_frac([r.ok for r in results]), 0)

    def test_flipped_golden_fails_every_op(self):
        flipped = dict(self.wl.goldens)
        g = dict(flipped[f"{KEY}/tse"])
        g["consumptions"] += 1
        flipped[f"{KEY}/tse"] = g
        self.wl.goldens = flipped
        results = self.run_ops()
        self.assertGreater(golden.fail_frac([r.ok for r in results]), 0)
        self.assertFalse(any(r.ok for r in results))


if __name__ == "__main__":
    unittest.main()
