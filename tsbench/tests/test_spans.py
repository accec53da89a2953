"""Self-time computation of the traced run.

    python3 -m unittest discover -s tsbench/tests
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tsb.spans import SpanStore, layer_self_ms, self_times_ns  # noqa: E402


def span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": 0}


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_count_once(self):
        spans = [span(0, "bench.op", 0, 100), span(1, "sim.replay", 10, 30, 0),
                 span(2, "host.probe", 20, 50, 0)]
        self.assertEqual(self_times_ns(spans), {0: 60, 1: 20, 2: 30})

    def test_children_are_clipped_to_the_parent(self):
        spans = [span(0, "bench.op", 0, 100), span(1, "sim.replay", 90, 130, 0)]
        self.assertEqual(self_times_ns(spans)[0], 90)

    def test_layers_sum_by_prefix(self):
        spans = [span(0, "bench.op", 0, 4_000_000), span(1, "sim.replay", 0, 1_000_000, 0),
                 span(2, "sim.replay_base", 1_000_000, 2_000_000, 0),
                 span(3, "host.probe", 2_000_000, 3_000_000, 0)]
        self.assertEqual(layer_self_ms(spans), {"bench": 1.0, "sim": 2.0, "host": 1.0})

    def test_adopted_spans_nest_under_their_parent(self):
        store = SpanStore(True)
        root = store.begin("bench.helper", op="layers")
        store.end(root)
        store.adopt([{"name": "trace.file", "start_ns": 0, "end_ns": 10, "parent": None},
                     {"name": "trace.open", "start_ns": 1, "end_ns": 2, "parent": 0}],
                    root, "layers")
        self.assertEqual(store.spans[1]["parent"], root)
        self.assertEqual(store.spans[2]["parent"], 1)

    def test_disabled_store_records_nothing(self):
        store = SpanStore(False)
        store.end(store.begin("bench.op"))
        self.assertEqual(store.spans, [])


if __name__ == "__main__":
    unittest.main()
