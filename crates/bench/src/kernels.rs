//! Microbenchmarks of the hot hardware-model kernels: the structures a
//! TSE implementation exercises on every miss and every streamed block.

use criterion::{black_box, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tse_core::{Cmob, DirectoryPointers, Pop, StreamQueue, Svb};
use tse_interconnect::Torus;
use tse_memsim::{Directory, DsmSystem, FillPath, SetAssocCache};
use tse_prefetch::{GhbIndexing, GhbPrefetcher, Prefetcher, StridePrefetcher};
use tse_types::{Cycle, Line, NodeId, SystemConfig};

/// Registers every kernel benchmark on `c`.
pub fn all(c: &mut Criterion) {
    bench_cmob(c);
    bench_svb(c);
    bench_stream_queue(c);
    bench_directory(c);
    bench_cache(c);
    bench_torus(c);
    bench_prefetchers(c);
    bench_dsm_access(c);
    bench_result_cache(c);
}

/// CMOB append and windowed reads.
pub fn bench_cmob(c: &mut Criterion) {
    let mut g = c.benchmark_group("cmob");
    g.bench_function("append", |b| {
        let mut cmob = Cmob::new(256 * 1024);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(cmob.append(Line::new(i)));
        });
    });
    g.bench_function("read_window_32", |b| {
        let mut cmob = Cmob::new(256 * 1024);
        for i in 0..100_000u64 {
            cmob.append(Line::new(i));
        }
        let mut pos = 0u64;
        b.iter(|| {
            pos = (pos + 37) % 90_000;
            black_box(cmob.read_window(pos, 32));
        });
    });
    g.finish();
}

/// SVB insert/take, LRU eviction from a full buffer, and a probe miss.
pub fn bench_svb(c: &mut Criterion) {
    let mut g = c.benchmark_group("svb");
    g.bench_function("insert_take", |b| {
        let mut svb = Svb::new(Some(32));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            svb.insert(Line::new(i), 0, FillPath::LocalMemory, Cycle::ZERO);
            black_box(svb.take(Line::new(i)));
        });
    });
    g.bench_function("insert_evict_full", |b| {
        // Every insert into the full 32-entry buffer evicts its oldest
        // entry: the streaming steady state once lookahead exceeds use.
        let mut svb = Svb::new(Some(32));
        let mut i = 0u64;
        while i < 32 {
            svb.insert(Line::new(i), 0, FillPath::LocalMemory, Cycle::ZERO);
            i += 1;
        }
        b.iter(|| {
            i += 1;
            black_box(svb.insert(Line::new(i), 0, FillPath::LocalMemory, Cycle::ZERO))
        });
    });
    g.bench_function("probe_miss", |b| {
        let mut svb = Svb::new(Some(32));
        for i in 0..32u64 {
            svb.insert(Line::new(i), 0, FillPath::LocalMemory, Cycle::ZERO);
        }
        b.iter(|| black_box(svb.contains(Line::new(1_000_000))));
    });
    g.finish();
}

/// Builds a queue of `ways` agreeing candidate streams of `len` lines.
fn agreed_queue(ways: usize, len: u64) -> StreamQueue {
    let mut q = StreamQueue::new(0, Line::new(0), ways);
    let addrs: Vec<Line> = (0..len).map(Line::new).collect();
    for w in 0..ways {
        q.add_stream(NodeId::new(w as u16), len, addrs.clone(), true);
    }
    q
}

/// The stream-queue comparator paths: agreed pops with 2 and 4 compared
/// streams, the refill-candidate scan, and the lookahead-cap
/// head-consumption check (every one runs per streamed block or per
/// miss, so all must stay allocation-free).
pub fn bench_stream_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("stream_queue");
    for ways in [2usize, 4] {
        g.bench_function(&format!("pop_agreed_{ways}way"), |b| {
            b.iter_batched(
                || agreed_queue(ways, 64),
                |mut q| {
                    while let Pop::Agreed(l) = q.pop_agreed() {
                        black_box(l);
                    }
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.bench_function("refill_candidates", |b| {
        let mut q = StreamQueue::new(0, Line::new(0), 2);
        let addrs: Vec<Line> = (0..64).map(Line::new).collect();
        q.add_stream(NodeId::new(0), 64, addrs.clone(), false);
        q.add_stream(NodeId::new(1), 64, addrs[..4].to_vec(), false);
        q.add_stream(NodeId::new(2), 64, Vec::new(), true);
        let mut threshold = 0usize;
        b.iter(|| {
            threshold = (threshold + 7) % 32;
            black_box(q.refill_candidates(threshold).len())
        });
    });
    g.bench_function("try_consume_head", |b| {
        let mut q = agreed_queue(2, 4);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            // Never matches the head: the steady-state outcome for the
            // per-miss check against every active queue.
            black_box(q.try_consume_head(Line::new(1_000_000 + i)))
        });
    });
    g.finish();
}

/// Directory sharer transactions and CMOB-pointer maintenance.
pub fn bench_directory(c: &mut Criterion) {
    let mut g = c.benchmark_group("directory");
    g.bench_function("read_write_cycle", |b| {
        let mut dir = Directory::new(16);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let l = Line::new(i % 10_000);
            dir.add_sharer(NodeId::new((i % 16) as u16), l);
            black_box(dir.acquire_exclusive(NodeId::new(((i + 1) % 16) as u16), l));
        });
    });
    g.bench_function("pointer_record_lookup", |b| {
        let mut dp = DirectoryPointers::new(2);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let l = Line::new(i % 10_000);
            dp.record(l, NodeId::new((i % 16) as u16), i);
            black_box(dp.lookup(l).len());
        });
    });
    g.finish();
}

/// L2 lookups and fills.
pub fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/l2_get_insert", |b| {
        let mut cache = SetAssocCache::new(8 * 1024 * 1024, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let l = Line::new(rng.gen_range(0..200_000));
            if !cache.get(l) {
                cache.insert(l);
            }
        });
    });
}

/// Torus hop/bisection arithmetic.
pub fn bench_torus(c: &mut Criterion) {
    c.bench_function("torus/hops_and_bisection", |b| {
        let t = Torus::new(4, 4).unwrap();
        let mut i = 0u16;
        b.iter(|| {
            i = i.wrapping_add(7);
            let a = NodeId::new(i % 16);
            let z = NodeId::new((i / 16) % 16);
            black_box(t.hops(a, z) + t.bisection_crossings(a, z));
        });
    });
}

/// The baseline prefetchers' per-miss work.
pub fn bench_prefetchers(c: &mut Criterion) {
    let mut g = c.benchmark_group("prefetchers");
    g.bench_function("stride_on_miss", |b| {
        let mut p = StridePrefetcher::new(8);
        let mut i = 0u64;
        b.iter(|| {
            i += 3;
            black_box(p.on_miss(Line::new(i)));
        });
    });
    g.bench_function("ghb_ac_on_miss", |b| {
        let mut p = GhbPrefetcher::new(GhbIndexing::AddressCorrelation, 512, 8);
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| {
            let l = Line::new(rng.gen_range(0..256));
            black_box(p.on_miss(l));
        });
    });
    g.finish();
}

/// The sweepd result cache's per-cell costs: key derivation (paid on
/// every lookup and insert, warm or cold) and a disk-served hit (what a
/// fully warm sweep pays instead of simulating).
pub fn bench_result_cache(c: &mut Criterion) {
    use tse_sim::shard::{CellOutput, ShardJob, ShardMode, TraceRef};
    use tse_sim::{RunConfig, RunResult};
    use tse_sweepd::cache::cache_key;
    use tse_sweepd::ResultCache;

    let job = |cell: u64| ShardJob {
        figure: "bench".into(),
        cell,
        mode: ShardMode::Trace,
        trace: TraceRef {
            workload: "em3d".into(),
            scale: 0.1,
            seed: 42,
            digest: Some("fnv1a64:00c0ffee00c0ffee".into()),
        },
        config: RunConfig {
            seed: 1000 + cell,
            ..RunConfig::default()
        },
    };
    let output = CellOutput::Trace(RunResult {
        workload: "em3d".into(),
        engine_name: "BENCH".into(),
        mem: Default::default(),
        engine: Default::default(),
        traffic: tse_interconnect::TrafficReport {
            total_bytes: 0,
            demand_bytes: 0,
            overhead_bytes: 0,
            stream_address_bytes: 0,
            discarded_data_bytes: 0,
            cmob_bytes: 0,
            bisection_demand_bytes: 0,
            bisection_overhead_bytes: 0,
            messages: 0,
        },
        consumptions: Vec::new(),
        records: 1,
        spin_misses: 0,
    });

    let mut g = c.benchmark_group("result_cache");
    g.bench_function("key_derivation", |b| {
        let j = job(0);
        b.iter(|| black_box(cache_key(&j)));
    });
    g.bench_function("lookup_hit", |b| {
        let dir = std::env::temp_dir().join(format!("tse-bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = ResultCache::open(&dir).unwrap();
        for cell in 0..64 {
            cache.insert(&job(cell), &output).unwrap();
        }
        cache.save().unwrap();
        let mut cell = 0u64;
        b.iter(|| {
            cell = (cell + 1) % 64;
            black_box(cache.lookup(&job(cell)).is_some())
        });
        let _ = std::fs::remove_dir_all(&dir);
    });
    g.finish();
}

/// Building the Table 1 machine (every node's caches written once), and
/// a full DSM write+read pair through caches, directory and torus.
pub fn bench_dsm_access(c: &mut Criterion) {
    c.bench_function("dsm/system_new", |b| {
        let cfg = SystemConfig::default();
        b.iter(|| DsmSystem::new(&cfg).unwrap());
    });
    c.bench_function("dsm/read_write_pair", |b| {
        let cfg = SystemConfig::default();
        let mut dsm = DsmSystem::new(&cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            let l = Line::new(rng.gen_range(0..50_000));
            let w = NodeId::new(rng.gen_range(0..16));
            let r = NodeId::new(rng.gen_range(0..16));
            dsm.write(w, l);
            black_box(dsm.read(r, l));
        });
    });
}
