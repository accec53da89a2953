"""Expected outputs, committed with the benchmark.

A simulator speed-up must leave every simulated statistic identical, so
each op's output is compared with a golden and any difference fails the
op. Replay ops compare the fields of ``tracectl replay``'s result line;
``sweepd_incr`` ops compare a digest of the whole merged grid.
"""

import hashlib
import json
import os
import re

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "goldens")

# `DB2 [TSE]: 244948 measured records, 100790 consumptions, coverage 66.9%,
#  discards 32.6%, 2 spin misses`
_REPLAY_LINE = re.compile(
    r"^(?P<workload>\S+) \[(?P<engine>[^\]]+)\]: (?P<records>\d+) measured records, "
    r"(?P<consumptions>\d+) consumptions, coverage (?P<coverage>[\d.]+)%, "
    r"discards (?P<discards>[\d.]+)%, (?P<spin_misses>\d+) spin misses$"
)


def parse_replay(stdout):
    """The result fields of ``tracectl replay``'s output, or None when no
    line has the result's shape."""
    for line in reversed(stdout.strip().splitlines()):
        m = _REPLAY_LINE.match(line.strip())
        if m:
            return {
                "records": int(m["records"]),
                "consumptions": int(m["consumptions"]),
                "coverage_pct": m["coverage"],
                "discards_pct": m["discards"],
                "spin_misses": int(m["spin_misses"]),
            }
    return None


def grid_digest(data):
    """Digest of a merged grid file's bytes."""
    return "sha256:" + hashlib.sha256(data).hexdigest()[:32]


def load(name):
    """The goldens in ``name``; none (so every op fails) when it is missing."""
    try:
        with open(os.path.join(GOLDEN_DIR, name)) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def save(name, value):
    with open(os.path.join(GOLDEN_DIR, name), "w") as f:
        json.dump(value, f, indent=1, sort_keys=True)
        f.write("\n")


def check(goldens, key, got):
    """True when ``got`` equals the golden recorded under ``key``. A
    missing golden or a missing output is a failure, never a pass."""
    return got is not None and key in goldens and goldens[key] == got


def fail_frac(outcomes):
    """Ops that errored or mismatched their golden, over ops attempted."""
    if not outcomes:
        raise ValueError("no ops attempted")
    return sum(1 for ok in outcomes if not ok) / len(outcomes)
