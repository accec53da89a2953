"""In-memory span store for the traced run.

A span is a name, a start and an end (wall-clock ns), the id of the span
that caused it and the op it belongs to. The layer is the name's prefix
up to the first dot (``sim.replay`` -> ``sim``). Spans stay in memory and
are written out once, when the run ends.
"""

import json
import time


class SpanStore:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []

    def begin(self, name, parent=None, op=None):
        """Opens a span and returns its id (None when tracing is off)."""
        if not self.enabled:
            return None
        t = time.time_ns()
        self.spans.append({"id": len(self.spans), "name": name, "start_ns": t,
                           "end_ns": t, "parent": parent, "op": op})
        return len(self.spans) - 1

    def end(self, sid):
        if sid is not None:
            self.spans[sid]["end_ns"] = time.time_ns()

    def adopt(self, child_spans, parent, op):
        """Adds spans recorded by a helper process under ``parent``.
        ``child_spans`` carry parent indices local to their own list."""
        if not self.enabled:
            return
        base = len(self.spans)
        for s in child_spans:
            self.spans.append({
                "id": len(self.spans), "name": s["name"],
                "start_ns": int(s["start_ns"]), "end_ns": int(s["end_ns"]),
                "parent": parent if s["parent"] is None else base + int(s["parent"]),
                "op": op,
            })

    def write(self, path, extra):
        with open(path, "w") as f:
            json.dump(dict(extra, spans=self.spans), f)
            f.write("\n")


def self_times_ns(spans):
    """Self time of every span: its duration minus the part of it that
    its children cover (children clipped to the parent's interval,
    overlapping children counted once)."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered, cursor = 0, lo
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            a, b = max(c["start_ns"], cursor), min(c["end_ns"], hi)
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = max(0, hi - lo - covered)
    return out


def layer_self_ms(spans):
    """Summed self time per layer, in ms."""
    totals = {}
    for sid, ns in self_times_ns(spans).items():
        layer = spans[sid]["name"].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + ns / 1e6
    return totals
