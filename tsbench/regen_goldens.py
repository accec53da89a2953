#!/usr/bin/env python3
"""Rewrites tsbench/goldens/ from the current build. Run from the
repository root:

    python3 tsbench/regen_goldens.py

Only for a change that is meant to alter simulated results: a speed-up
must leave every golden as it is. Replays every trace of the replay
workloads under each engine they use, and submits every fresh cell of
sweepd_incr's pool to a warm daemon, recording the merged grid's digest.
"""

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import OUT_DIR, ROOT, build, log  # noqa: E402
from tsb import golden  # noqa: E402
from tsb.workloads import CELL_CLASSES, CLASS_SIZE, ReplayWorkload, SweepdWorkload  # noqa: E402


def main():
    os.chdir(ROOT)
    bins = build()
    work = os.path.join(OUT_DIR, "regen")
    shutil.rmtree(work, ignore_errors=True)

    replay = {}
    for name, engines in (("replay_oltp", ("tse", "base")), ("replay_sci", ("base",))):
        wl = ReplayWorkload(name, bins, 0)
        wl.setup(os.path.join(work, name))
        for t in wl.traces:
            for engine in engines:
                r = wl.replay(t, engine, os.path.join(work, name))
                if r.parsed is None:
                    raise RuntimeError(f"replay of {t['key']} with {engine} failed")
                replay[f"{t['key']}/{engine}"] = r.parsed
    golden.save("replay.json", replay)
    log(f"replay.json: {len(replay)} goldens")

    wl = SweepdWorkload("sweepd_incr", bins, 0)
    sweepd = {}
    try:
        wl.setup(os.path.join(work, "sweepd"))
        sweepd["warm"] = wl.submit(wl.warm_path, "warm").parsed
        for i in range(len(CELL_CLASSES) * CLASS_SIZE):
            r = wl.op(i, wl.work)
            if r.parsed is None:
                raise RuntimeError(f"submit of {r.key} failed")
            sweepd[r.key] = r.parsed
    finally:
        wl.teardown()
    golden.save("sweepd.json", sweepd)
    log(f"sweepd.json: {len(sweepd)} goldens")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
