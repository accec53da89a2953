"""Percentiles and host-drift normalization.

Every timed metric the benchmark reports is normalized by the host-speed
probe: an op's latency is scaled by ``PROBE_REF_MS / probe``, where
``probe`` is the median of the probe samples taken around that op. On a
host running at reference speed the probe reads ``PROBE_REF_MS`` and the
normalized value equals the raw one; when the host slows down, the probe
and the op slow together and the ratio stays put.
"""

import statistics

# Median probe duration on the host the benchmark was defined on (2
# cores, see README.md). Only the scale of the normalized figures
# depends on it; changing it would shift every normalized baseline.
PROBE_REF_MS = 36.0

# Probe samples on each side of an op that form its local host-speed
# estimate. The median of 2*W+1 neighbours ignores a single disturbed
# probe but still follows drift that lasts a few seconds.
PROBE_WINDOW = 2

# A tail percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, p):
    """The p-th percentile (0..100) of ``values``, linearly interpolated
    between closest ranks.

    A percentile above the median is refused unless at least
    ``MIN_TAIL_SAMPLES`` samples lie beyond it, so a p90 needs 100
    samples: below that the figure is a single unlucky sample.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} out of range")
    n = len(values)
    if p > 50 and n * (100 - p) / 100 < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{p:g} needs {MIN_TAIL_SAMPLES} samples beyond it; "
            f"{n} samples leave {n * (100 - p) / 100:g}"
        )
    s = sorted(values)
    rank = (n - 1) * p / 100
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def local_probe(probes, i, window=PROBE_WINDOW):
    """Median of the probe samples within ``window`` of index ``i``."""
    lo = max(0, i - window)
    return statistics.median(probes[lo:i + window + 1])


def normalize(values, probes, ref=PROBE_REF_MS, window=PROBE_WINDOW):
    """Scales ``values[i]`` by ``ref / local_probe(probes, i)``.

    ``probes[i]`` is the probe taken right after ``values[i]``; both
    lists have one entry per op.
    """
    if len(values) != len(probes):
        raise ValueError(f"{len(values)} values but {len(probes)} probes")
    return [v * ref / local_probe(probes, i, window) for i, v in enumerate(values)]
