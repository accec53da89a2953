"""The three workloads. Each is one closed-loop client with one op in
flight: the next op starts when the previous one has returned.

* ``replay_oltp``: ``tracectl replay --engine tse`` over DB2 and Oracle
  traces. The TSE engine (CMOB, stream queues, SVB) is most of the op.
* ``replay_sci``: ``tracectl replay --engine base`` over em3d traces. No
  engine work; the memory-system model and decode are the op.
* ``sweepd_incr``: a warm ``sweepd`` daemon gets the fig08 plan plus one
  cell it has never seen; 56 cache hits, one simulated cell, one insert.

Within a workload op costs stay close to each other, so a median sits
inside one cluster of op costs rather than in the gap between two.
"""

import copy
import json
import os
import random
import statistics
import subprocess
import time

from . import golden
from .host import run_timed

TRACE_SEEDS = [1000 + 7 * i for i in range(5)]

REPLAY = {
    "replay_oltp": {"workloads": ["DB2", "Oracle"], "scale": 1.0, "engine": "tse"},
    "replay_sci": {"workloads": ["em3d"], "scale": 0.5, "engine": "base"},
}

SWEEPD_SCALE = 0.1
SWEEPD_WORKERS = 2
# The fresh cell of each sweepd op rotates through these classes, in
# this order; each class holds CLASS_SIZE configs no warm cell uses.
CELL_CLASSES = ["trace-tse", "trace-stride", "trace-ghb", "timing-tse"]
CLASS_SIZE = 200
# The daemon keeps every job's plan and merged grid (~1 MB each) in
# memory, so its RSS grows with the ops a run completes. Its peak is read
# after this many ops, which every timed run reaches, so the figure does
# not move with throughput.
RSS_AFTER_OPS = 100


class OpResult:
    def __init__(self, ok, wall_ms, records, rss_kb, kind, parsed=None, key=None):
        self.ok, self.wall_ms, self.records = ok, wall_ms, records
        self.rss_kb, self.kind, self.parsed, self.key = rss_kb, kind, parsed, key


class Bins:
    def __init__(self, target_dir, helper):
        rel = os.path.join(target_dir, "release")
        self.tracectl = os.path.join(rel, "tracectl")
        self.sweepctl = os.path.join(rel, "sweepctl")
        self.sweepd = os.path.join(rel, "sweepd")
        self.helper = helper


def _check_call(argv, **kw):
    r = subprocess.run(argv, capture_output=True, text=True, **kw)
    if r.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {r.returncode}: {r.stderr.strip()}")
    return r.stdout


def gen_corpus(bins, corpus, scale, seeds, workloads=None):
    """Generates a managed corpus (traces and manifest); returns the
    manifest entries."""
    argv = [bins.tracectl, "corpus", "gen", "--dir", corpus, "--scales", str(scale),
            "--seeds", ",".join(map(str, seeds))]
    if workloads:
        argv += ["--workloads", ",".join(workloads)]
    _check_call(argv)
    with open(os.path.join(corpus, "corpus.json")) as f:
        return json.load(f)["entries"]


class ReplayWorkload:
    def __init__(self, name, bins, seed):
        self.name, self.bins = name, bins
        self.spec = REPLAY[name]
        self.seed = seed
        self.goldens = golden.load("replay.json")

    def setup(self, work):
        """Corpus generation, manifest, digest and structure verify, and
        one warm replay per application. Returns the seconds spent
        generating and the records generated."""
        corpus = os.path.join(work, "corpus")
        t = time.perf_counter()
        entries = gen_corpus(self.bins, corpus, self.spec["scale"], TRACE_SEEDS,
                             self.spec["workloads"])
        gen_s = time.perf_counter() - t
        _check_call([self.bins.tracectl, "corpus", "verify", corpus])
        self.corpus = corpus
        self.traces = sorted(
            ({"path": os.path.join(corpus, e["path"]), "key": e["path"].rsplit(".", 1)[0],
              "workload": e["workload"], "records": e["records"]} for e in entries),
            key=lambda e: e["key"])
        order = list(range(len(self.traces)))
        random.Random(f"{self.seed}/{self.name}").shuffle(order)
        self.order = order
        self.warm_ok = True
        for w in self.spec["workloads"]:
            trace = next(t for t in self.traces if t["workload"] == w)
            self.warm_ok &= self.replay(trace, self.spec["engine"], work).ok
        return gen_s, sum(t["records"] for t in self.traces)

    def trace_for(self, i):
        return self.traces[self.order[i % len(self.order)]]

    def replay(self, trace, engine, work, threads=None):
        argv = [self.bins.tracectl, "replay", trace["path"], "--engine", engine]
        if threads is not None:
            argv += ["--threads", str(threads)]
        r = run_timed(argv, work)
        parsed = golden.parse_replay(r.stdout) if r.code == 0 else None
        ok = golden.check(self.goldens, f"{trace['key']}/{engine}", parsed)
        return OpResult(ok, r.wall_ms, trace["records"], r.maxrss_kb, engine, parsed, trace["key"])

    def op(self, i, work):
        return self.replay(self.trace_for(i), self.spec["engine"], work)

    def exhausted(self, i):
        return False

    def peak_rss_kb(self, results):
        """Median over ops of each replay process's own peak."""
        return statistics.median(r.rss_kb for r in results)

    def teardown(self):
        pass


def cell_pool(templates, seed):
    """The fresh-cell configs, per class: CLASS_SIZE (key, mode, engine,
    workload) tuples, shuffled by ``seed``. Keys name the config so the
    goldens can be looked up without the seed."""
    tse_base = {"cmob_capacity": 262144, "compared_streams": 2, "lookahead": 8,
                "svb_entries": 32, "stream_queues": 8, "directory_pointers": 2,
                "chunk": 32, "spin_filter": True}
    pools = {c: [] for c in CELL_CLASSES}
    for wl in sorted(templates):
        for la in range(1, 26):
            for cs in (1, 2, 3, 4):
                pools["trace-tse"].append(
                    (f"trace-tse-{wl}-l{la}-c{cs}", "Trace",
                     {"kind": "tse", "config": dict(tse_base, lookahead=la, compared_streams=cs,
                                                    directory_pointers=max(2, cs))}, wl))
            for svb in (16, 32, 64, 128):
                pools["timing-tse"].append(
                    (f"timing-tse-{wl}-l{la}-v{svb}", "Timing",
                     {"kind": "tse", "config": dict(tse_base, lookahead=la, svb_entries=svb)}, wl))
            for buf in (8, 16, 32, 64):
                pools["trace-stride"].append(
                    (f"trace-stride-{wl}-d{la}-b{buf}", "Trace",
                     {"kind": "stride", "depth": la, "buffer": buf}, wl))
        for idx, tag in (("AddressCorrelation", "ac"), ("DistanceCorrelation", "dc")):
            for entries in (128, 256, 512, 1024, 2048):
                for width in range(1, 11):
                    pools["trace-ghb"].append(
                        (f"trace-ghb-{wl}-{tag}-e{entries}-w{width}", "Trace",
                         {"kind": "ghb", "indexing": idx, "entries": entries, "width": width,
                          "buffer": 32}, wl))
    for c in CELL_CLASSES:
        assert len(pools[c]) == CLASS_SIZE, (c, len(pools[c]))
        random.Random(f"{seed}/{c}").shuffle(pools[c])
    return pools


def plan_with_cell(warm_plan, templates, cell):
    """The warm plan plus one appended cell."""
    _, mode, engine, wl = cell
    job = copy.deepcopy(templates[wl])
    job["cell"] = len(warm_plan["jobs"])
    job["mode"] = mode
    job["config"]["engine"] = engine
    plan = dict(warm_plan)
    plan["jobs"] = warm_plan["jobs"] + [job]
    return plan


class SweepdWorkload:
    def __init__(self, name, bins, seed):
        self.name, self.bins, self.seed = name, bins, seed
        self.goldens = golden.load("sweepd.json")
        self.daemon = None
        self.hwm_kb = None

    def setup(self, work):
        """Corpus generation and manifest, the fig08 plan, daemon start,
        a cold submit that fills the result cache, and a daemon restart."""
        corpus = os.path.join(work, "corpus")
        t = time.perf_counter()
        entries = gen_corpus(self.bins, corpus, SWEEPD_SCALE, [42])
        gen_s = time.perf_counter() - t
        self.corpus = corpus
        self.records = {e["workload"]: e["records"] for e in entries}
        self.cell_traces = sorted(os.path.join(corpus, e["path"]) for e in entries
                                  if e["workload"] in ("DB2", "Oracle"))
        warm_path = self.warm_path = os.path.join(work, "warm.json")
        _check_call([self.bins.sweepctl, "plan", "--figure", "fig08", "--shards", "1",
                     "--corpus", corpus, "--scale", str(SWEEPD_SCALE), "--out", warm_path],
                    env=dict(os.environ, TSE_SEEDS="1"))
        with open(warm_path) as f:
            self.warm_plan = json.load(f)
        self.templates = {}
        for job in self.warm_plan["jobs"]:
            if job["trace"]["workload"] in ("DB2", "Oracle"):
                self.templates.setdefault(job["trace"]["workload"], job)
        self.pools = cell_pool(self.templates, self.seed)
        # `work` is relative to the checkout root, where the daemon and
        # every client run: Unix socket paths are capped near 108 bytes.
        self.work = work
        self.endpoint = os.path.join(work, "sd.sock")
        self.start_daemon()
        self.warm_ok = self.submit(warm_path, "warm").ok
        # The ops run against a restarted daemon over the warm cache: its
        # memory is what serving the workload costs, not what the cold
        # fill's 56 concurrent simulations left behind in the allocator.
        self.teardown()
        self.start_daemon()
        return gen_s, sum(e["records"] for e in entries)

    def start_daemon(self):
        with open(os.path.join(self.work, "daemon.log"), "a") as log:
            self.daemon = subprocess.Popen(
                [self.bins.sweepd, "serve", "--corpus", self.corpus, "--cache",
                 os.path.join(self.work, "cache"), "--listen", self.endpoint,
                 "--workers", str(SWEEPD_WORKERS)],
                stdout=subprocess.DEVNULL, stderr=log)
        deadline = time.monotonic() + 30
        while subprocess.run([self.bins.sweepd, "ping", "--via", self.endpoint],
                             capture_output=True).returncode != 0:
            if self.daemon.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"sweepd did not come up (see {self.work}/daemon.log)")
            time.sleep(0.02)

    def submit(self, plan_path, key, records=0, kind="warm"):
        out = os.path.join(self.work, "merged.json")
        r = run_timed([self.bins.sweepd, "submit", "--plan", plan_path, "--via", self.endpoint,
                       "--wait", "--out", out], self.work)
        got = None
        if r.code == 0:
            with open(out, "rb") as f:
                got = golden.grid_digest(f.read())
        return OpResult(golden.check(self.goldens, key, got), r.wall_ms, records, r.maxrss_kb,
                        kind, got, key)

    def cell_for(self, i):
        cls = CELL_CLASSES[i % len(CELL_CLASSES)]
        return cls, self.pools[cls][i // len(CELL_CLASSES)]

    def exhausted(self, i):
        return i // len(CELL_CLASSES) >= CLASS_SIZE

    def op(self, i, work):
        cls, cell = self.cell_for(i)
        path = os.path.join(work, "op.json")
        with open(path, "w") as f:
            json.dump(plan_with_cell(self.warm_plan, self.templates, cell), f)
        result = self.submit(path, cell[0], self.records[cell[3]], cls)
        if i + 1 == RSS_AFTER_OPS:
            self.hwm_kb = self.daemon_hwm_kb()
        return result

    def peak_rss_kb(self, results):
        """The serving daemon's VmHWM after RSS_AFTER_OPS ops."""
        if self.hwm_kb is None:
            raise RuntimeError(f"fewer than {RSS_AFTER_OPS} ops; no daemon peak RSS")
        return self.hwm_kb

    def daemon_hwm_kb(self):
        with open(f"/proc/{self.daemon.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM for the daemon")

    def teardown(self):
        if self.daemon is None:
            return
        if self.daemon.poll() is None:
            subprocess.run([self.bins.sweepd, "shutdown", "--via", self.endpoint],
                           capture_output=True, timeout=30)
            try:
                self.daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
        self.daemon = None
