"""The benchmark calls none of tse-sim's replay entry points, which the
replay API consolidation may collapse or delete: no `run_*`, no `_par`,
no streamed and no reference symbols, and no tse-sim dependency of its
own (tracectl and sweepd reach the simulator through their CLIs).

    python3 -m unittest discover -s tsbench/tests
"""

import os
import re
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(BENCH, "tests")

FORBIDDEN = [
    re.compile(r"\btse_sim\b"),
    re.compile(r"\brun_(trace|timing|parallel)\w*"),
    re.compile(r"\w_par\s*\("),
    re.compile(r"\w+_par\b"),
    re.compile(r"[Ss]treamed\w*\s*[(:<]"),
    re.compile(r"\w+_reference\b"),
]


def sources():
    for dirpath, dirnames, filenames in os.walk(BENCH):
        dirnames[:] = [d for d in dirnames if d != "target"]
        if dirpath.startswith(TESTS):
            continue
        for name in filenames:
            if name.endswith((".rs", ".py", ".toml")):
                yield os.path.join(dirpath, name)


class SourceTest(unittest.TestCase):
    def test_sources_exist(self):
        names = {os.path.basename(p) for p in sources()}
        self.assertTrue({"main.rs", "run.py", "Cargo.toml"} <= names)

    def test_no_sim_entry_points(self):
        for path in sources():
            with open(path) as f:
                for n, line in enumerate(f, 1):
                    for pat in FORBIDDEN:
                        self.assertIsNone(pat.search(line), f"{path}:{n}: {line.strip()}")

    def test_patterns_catch_the_entry_points(self):
        for call in ("tse_sim::run_trace_stored(&t, &cfg)", "run_trace_mapped_par(n, t, &c, p)",
                     "run_timing_streamed_path(p)", "run_trace_stored_reference(&t, &c)",
                     "use tse_sim::StreamedRecords;"):
            self.assertTrue(any(p.search(call) for p in FORBIDDEN), call)

    def test_helper_does_not_depend_on_tse_sim(self):
        with open(os.path.join(BENCH, "layers", "Cargo.toml")) as f:
            self.assertNotIn("tse-sim", f.read())


if __name__ == "__main__":
    unittest.main()
