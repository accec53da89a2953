#!/usr/bin/env python3
"""The repository benchmark. Run from the repository root:

    python3 tsbench/run.py --workload replay_oltp --seed 1 --seconds 25 --trace 0

Builds ``tracectl``, ``sweepctl``, ``sweepd`` and the benchmark's helper
from source, sets the workload up, drives it closed-loop for
``--seconds`` and prints one JSON object as the last line of stdout.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones from a traced run. Everything else
goes to stderr; artifacts (results with their host record, spans) land
in ``.tsbench/``. See tsbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tsbench"))

from tsb import golden, layers, stats  # noqa: E402
from tsb.host import Probe, host_record  # noqa: E402
from tsb.spans import SpanStore  # noqa: E402
from tsb.workloads import REPLAY, Bins, ReplayWorkload, SweepdWorkload  # noqa: E402

WORKLOADS = ["replay_oltp", "replay_sci", "sweepd_incr"]
OUT_DIR = ".tsbench"
# Set-up runs this many times per run; setup_s is their median.
SETUP_REPS = 3
# A p90 needs ten samples beyond it, so the timed loop runs past
# --seconds until it has this many ops, up to MAX_LOOP_S.
MIN_OPS = 100
MAX_LOOP_S = 75


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "tse-experiments", "--bin", "tracectl",
         "--bin", "sweepctl", "-p", "tse-sweepd", "--bin", "sweepd"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         "tsbench/layers/Cargo.toml"],
    ):
        r = subprocess.run(argv, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise RuntimeError(f"build failed: {' '.join(argv)}")
    return Bins(target, os.path.join(target, "release", "tsbench-layers"))


def make_workload(name, bins, seed):
    if name in REPLAY:
        return ReplayWorkload(name, bins, seed)
    return SweepdWorkload(name, bins, seed)


def run_setups(wl, probe, base, reps):
    """Sets the workload up ``reps`` times, each from nothing; the last
    set-up stays live for the ops. Returns raw and normalized seconds
    and generation seconds per million records, one entry per set-up."""
    raw, norm, gen = [], [], []
    for k in range(reps):
        wl.teardown()
        before = probe()
        t = time.perf_counter()
        gen_s, records = wl.setup(os.path.join(base, f"setup{k}"))
        dt = time.perf_counter() - t
        after = probe()
        raw.append(dt)
        norm.append(dt * stats.PROBE_REF_MS / statistics.median([before, after]))
        gen.append(gen_s / (records / 1e6))
    return raw, norm, gen


def timed_loop(wl, probe, work, seconds, min_ops, first, tracer):
    """Closed loop, one op in flight, a probe after every op."""
    results, probes = [], []
    span_name = "sweepd.job" if isinstance(wl, SweepdWorkload) else "sim.replay"
    t0 = time.monotonic()
    i = first
    while not wl.exhausted(i):
        elapsed = time.monotonic() - t0
        if (elapsed >= seconds and len(results) >= min_ops) or elapsed >= MAX_LOOP_S:
            break
        op = tracer.begin("bench.op", op=i)
        s = tracer.begin(span_name, parent=op, op=i)
        results.append(wl.op(i, work))
        tracer.end(s)
        s = tracer.begin("host.probe", parent=op, op=i)
        probes.append(probe())
        tracer.end(s)
        tracer.end(op)
        i += 1
    return results, probes, i


def end_to_end(wl, probe, work, seconds):
    raw_setup, norm_setup, _ = run_setups(wl, probe, work, SETUP_REPS)
    live = os.path.join(work, f"setup{SETUP_REPS - 1}")
    results, probes, _ = timed_loop(wl, probe, live, seconds, MIN_OPS, 0, SpanStore(False))
    if not results:
        raise RuntimeError("no op completed")
    wall = [r.wall_ms for r in results]
    norm = stats.normalize(wall, probes)
    metrics = {
        "setup_s": statistics.median(norm_setup),
        "sim_mrec_s": sum(r.records for r in results) / (sum(norm) / 1000) / 1e6,
        "op_p50_ms": stats.percentile(norm, 50),
        "op_p90_ms": stats.percentile(norm, 90),
        "peak_rss_mb": wl.peak_rss_kb(results) / 1024,
        "op_ok_frac": 1 - golden.fail_frac([r.ok for r in results]),
    }
    detail = {"ops": len(results), "op_wall_ms": wall, "probe_ms": probes,
              "setup_raw_s": raw_setup, "setup_norm_s": norm_setup,
              "host.raw_op_p50_ms": stats.percentile(wall, 50)}
    return metrics, results, wl.warm_ok, detail


def traced(wl, probe, work, seconds, tracer):
    raw_setup, _, gen = run_setups(wl, probe, work, 1)
    live = os.path.join(work, "setup0")
    # Untraced half first, then the same ops with spans on: the ratio of
    # their normalized medians is the tracing overhead.
    plain, plain_probes, nxt = timed_loop(wl, probe, live, seconds / 2, 0, 0, SpanStore(False))
    spanned, spanned_probes, _ = timed_loop(wl, probe, live, seconds / 2, 0, nxt, tracer)
    if not plain or not spanned:
        raise RuntimeError("no op completed")
    plain_p50 = stats.percentile(stats.normalize([r.wall_ms for r in plain], plain_probes), 50)
    spanned_p50 = stats.percentile(
        stats.normalize([r.wall_ms for r in spanned], spanned_probes), 50)
    metrics, checks = layers.measure(wl, live, spanned, tracer)
    metrics.update({
        "workloads.gen_s_per_mrec": gen[0],
        "host.probe_ms": statistics.median(plain_probes),
        "host.raw_op_p50_ms": stats.percentile([r.wall_ms for r in plain], 50),
        "host.raw_setup_s": raw_setup[0],
        "host.tracing_overhead": spanned_p50 / plain_p50,
    })
    metrics.update(layers.self_times(tracer.spans))
    deviations = layers.predicted_split(wl.name, metrics)
    for d in deviations:
        log(f"predicted split does not hold: {d}")
    results = plain + spanned + checks
    return metrics, results, wl.warm_ok, {"ops": len(plain) + len(spanned),
                                          "split_deviations": deviations}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    bins = build()
    hostrec = host_record()
    log(f"host: {json.dumps(hostrec)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    wl = make_workload(args.workload, bins, args.seed)
    probe = Probe(bins.helper)
    tracer = SpanStore(bool(args.trace))
    try:
        if args.trace:
            metrics, results, warm_ok, detail = traced(wl, probe, work, args.seconds, tracer)
        else:
            metrics, results, warm_ok, detail = end_to_end(wl, probe, work, args.seconds)
    finally:
        wl.teardown()
        probe.close()
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    failed = sum(1 for r in results if not r.ok)
    out = {
        "correct": failed == 0 and warm_ok,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    stem = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}")
    artifact = {"host": hostrec, "args": vars(args), "result": out, "detail": detail}
    with open(stem + ".json", "w") as f:
        json.dump(artifact, f)
        f.write("\n")
    if args.trace:
        tracer.write(stem + ".spans.json", {"host": hostrec, "args": vars(args)})
    log(f"{args.workload}: {detail['ops']} ops, {failed} failed")
    print(json.dumps(out))


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        main()
    except Exception as e:  # report, print no result, exit non-zero
        log(f"tsbench: {type(e).__name__}: {e}")
        sys.exit(1)
