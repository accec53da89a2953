"""Per-layer metrics of the traced run.

Layer calls go through the helper (public functions of ``tse-trace``,
``tse-memsim`` and ``tse-sweepd``) and the shipped binaries; each call
sits in a span recorded here, and its counts are read at that same
boundary. A layer that is not on a workload's op path reports 0 there:
no ``sweepd.*`` time on the replay workloads, no engine time on
``replay_sci``.
"""

import json
import statistics
import subprocess

from . import golden
from .host import run_timed
from .spans import layer_self_ms
from .workloads import OpResult, SweepdWorkload

# Wall-clock spans of the traced run, by layer (the span name's prefix).
SELF_LAYERS = ["sim", "sweepd", "trace", "memsim", "host"]
PAR_REPS = 3
WARM_REPS = 5

ZERO_SWEEPD = {"sweepd.ping_ms": 0.0, "sweepd.submit_ms": 0.0, "sweepd.warm_job_ms": 0.0,
               "sweepd.reply_bytes": 0.0, "sweepd.cache_hit_frac": 0.0,
               "sim.cold_cell_ms": 0.0, "sim.timing_cell_ms": 0.0}


def helper(argv, tracer, parent, op):
    """Runs a helper subcommand, adopts its spans under ``parent`` and
    returns its JSON output."""
    s = tracer.begin("bench.helper", parent=parent, op=op)
    r = subprocess.run(argv, capture_output=True, text=True)
    tracer.end(s)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {r.returncode}: {r.stderr.strip()}")
    out = json.loads(r.stdout.strip().splitlines()[-1])
    tracer.adopt(out.pop("spans"), s, op)
    return out


def trace_layers(bins, paths, corpus, tracer):
    """trace.* and memsim.* over ``paths``: medians across the traces."""
    out = helper([bins.helper, "trace"] + paths, tracer, None, "layers")["traces"]
    ver = helper([bins.helper, "verify", corpus], tracer, None, "layers")

    def med(key):
        return statistics.median(t[key] for t in out)

    return {
        "trace.open_ms": med("open_ms"),
        "trace.decode_ns_per_rec": med("decode_ns_per_rec"),
        "trace.lower_ns_per_rec": med("lower_ns_per_rec"),
        "trace.bytes_per_rec": med("bytes_per_rec"),
        "trace.verify_ms": statistics.median(ver["verify_ms"]),
        "memsim.ns_per_access": med("memsim_ns_per_access"),
        "memsim.read_miss_frac": med("read_miss_frac"),
        "memsim.coherence_misses": med("coherence_misses"),
        "memsim.invalidations": med("invalidations"),
        "records": med("records"),
    }


def par2_ratio(bins, path, engine, work, tracer):
    """``--threads 2`` over ``--threads 1`` wall time on one trace, and
    the consistency checks it makes (both outputs must agree). 0 when
    the flag no longer exists."""
    walls = {1: [], 2: []}
    checks = []
    for _ in range(PAR_REPS):
        outs = {}
        for n in (1, 2):
            s = tracer.begin(f"sim.replay_threads{n}", op="layers")
            r = run_timed([bins.tracectl, "replay", path, "--engine", engine, "--threads", str(n)],
                          work)
            tracer.end(s)
            if r.code == 2:
                return 0.0, []
            walls[n].append(r.wall_ms)
            outs[n] = golden.parse_replay(r.stdout) if r.code == 0 else None
        ok = outs[1] is not None and outs[1] == outs[2]
        checks.append(OpResult(ok, 0.0, 0, 0, "threads"))
    return statistics.median(walls[2]) / statistics.median(walls[1]), checks


def measure(wl, work, spanned, tracer):
    """Per-layer metrics for workload ``wl`` given the traced ops.
    Returns the metrics and the extra checked ops it ran."""
    bins = wl.bins
    if isinstance(wl, SweepdWorkload):
        return _measure_sweepd(wl, bins, work, spanned, tracer)
    return _measure_replay(wl, bins, work, spanned, tracer)


def _measure_replay(wl, bins, work, spanned, tracer):
    m = trace_layers(bins, [t["path"] for t in wl.traces], wl.corpus, tracer)
    records = m.pop("records")
    replay_ms = statistics.median(r.wall_ms for r in spanned)
    m["sim.replay_ms"] = replay_ms
    m["sim.kernel_ms"] = replay_ms - m["trace.open_ms"] - records * (
        m["trace.decode_ns_per_rec"] + m["trace.lower_ns_per_rec"]) / 1e6
    checks = []
    engine = wl.spec["engine"]
    if engine == "base":
        m["core.engine_ms"] = m["core.coverage"] = m["core.discard_frac"] = 0.0
    else:
        # Engine time: the op's replay minus a base-engine replay of the
        # same trace, per trace, then the median across traces.
        diffs = []
        for t in wl.traces:
            mine = [r.wall_ms for r in spanned if r.key == t["key"]]
            if not mine:
                continue
            s = tracer.begin("sim.replay_base", op="layers")
            base = wl.replay(t, "base", work)
            tracer.end(s)
            checks.append(base)
            diffs.append(statistics.median(mine) - base.wall_ms)
        parsed = [r.parsed for r in spanned if r.parsed]
        m["core.engine_ms"] = statistics.median(diffs)
        m["core.coverage"] = statistics.mean(float(p["coverage_pct"]) for p in parsed) / 100
        m["core.discard_frac"] = statistics.mean(float(p["discards_pct"]) for p in parsed) / 100
    ratio, par_checks = par2_ratio(bins, wl.trace_for(0)["path"], engine, work, tracer)
    m["sim.par2_ratio"] = ratio
    m.update(ZERO_SWEEPD)
    return m, checks + par_checks


def _measure_sweepd(wl, bins, work, spanned, tracer):
    m = trace_layers(bins, wl.cell_traces, wl.corpus, tracer)
    m.pop("records")
    out = helper([bins.helper, "sweepd", wl.endpoint, wl.warm_path], tracer, None, "layers")
    m["sweepd.ping_ms"] = statistics.median(out["ping_ms"])
    m["sweepd.submit_ms"] = statistics.median(out["submit_ms"])
    m["sweepd.warm_job_ms"] = statistics.median(out["warm_job_ms"])
    m["sweepd.reply_bytes"] = out["reply_bytes"]
    lookups = out["cache_hits"] + out["cache_misses"]
    m["sweepd.cache_hit_frac"] = out["cache_hits"] / lookups if lookups else 0.0
    # Cell costs: traced ops minus a warm-only submit through the same
    # client binary, so spawn, reply and file write cancel out.
    checks = []
    for _ in range(WARM_REPS):
        s = tracer.begin("sweepd.warm_submit", op="layers")
        checks.append(wl.submit(wl.warm_path, "warm"))
        tracer.end(s)
    warm = statistics.median(r.wall_ms for r in checks)
    trace_ops = [r.wall_ms for r in spanned if r.kind.startswith("trace-")]
    timing_ops = [r.wall_ms for r in spanned if r.kind.startswith("timing-")]
    m["sim.cold_cell_ms"] = statistics.median(trace_ops) - warm if trace_ops else 0.0
    m["sim.timing_cell_ms"] = statistics.median(timing_ops) - warm if timing_ops else 0.0
    m["sim.replay_ms"] = m["sim.kernel_ms"] = 0.0
    m["core.engine_ms"] = m["core.coverage"] = m["core.discard_frac"] = 0.0
    ratio, par_checks = par2_ratio(bins, wl.cell_traces[0], "tse", work, tracer)
    m["sim.par2_ratio"] = ratio
    return m, checks + par_checks


def self_times(spans):
    totals = layer_self_ms(spans)
    return {f"self.{layer}_ms": totals.get(layer, 0.0) for layer in SELF_LAYERS}


def predicted_split(workload, metrics):
    """The split the benchmark predicts, checked against the traced run.
    Returns human-readable deviations (empty when all hold)."""
    dev = []
    if workload == "replay_oltp" and not metrics["core.engine_ms"] > 0.5 * metrics["sim.replay_ms"]:
        dev.append(f"core.engine_ms {metrics['core.engine_ms']:.1f} is not more than half of "
                   f"the op ({metrics['sim.replay_ms']:.1f} ms)")
    if workload == "replay_sci" and metrics["core.engine_ms"] != 0:
        dev.append("core.engine_ms is not zero on replay_sci")
    if workload.startswith("replay_") and metrics["self.sweepd_ms"] != 0:
        dev.append(f"sweepd time on {workload}")
    return dev
