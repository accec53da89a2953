//! Sweep-executor and replay benchmarks: the cost of dispatching a
//! batch through the persistent [`SweepPool`] and of replaying a stored
//! trace through the batched kernel.

use criterion::{black_box, Criterion};
use std::sync::OnceLock;
use tse_sim::{run_parallel, run_trace_stored, EngineKind, RunConfig, StoredTrace, SweepPool};
use tse_types::TseConfig;
use tse_workloads::{OltpFlavor, Tpcc};

/// Registers every sweep benchmark on `c`.
pub fn all(c: &mut Criterion) {
    bench_pool(c);
    bench_replay(c);
}

/// One shared small Tpcc trace (a few TSB1 blocks' worth of records).
fn db2_trace() -> &'static StoredTrace {
    static TRACE: OnceLock<StoredTrace> = OnceLock::new();
    TRACE.get_or_init(|| StoredTrace::from_workload(&Tpcc::scaled(OltpFlavor::Db2, 0.1), 42))
}

fn tse_cfg() -> RunConfig {
    RunConfig {
        engine: EngineKind::Tse(TseConfig::default()),
        ..RunConfig::default()
    }
}

/// Batch dispatch overhead on the persistent pool.
pub fn bench_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep");
    g.bench_function("run_parallel_64_jobs", |b| {
        b.iter(|| {
            let r = run_parallel((0..64u64).collect(), 0, |x| x.wrapping_mul(2_654_435_761));
            black_box(r.len())
        });
    });
    g.bench_function("pool_submit_latency", |b| {
        let pool = SweepPool::global();
        b.iter(|| {
            let (tx, rx) = std::sync::mpsc::channel();
            pool.execute(move || {
                let _ = tx.send(1u8);
            });
            black_box(rx.recv().expect("worker alive"))
        });
    });
    g.finish();
}

/// Replay of an in-memory trace through the batched kernel.
pub fn bench_replay(c: &mut Criterion) {
    let stored = db2_trace();
    let mut g = c.benchmark_group("sweep");
    g.bench_function("stored_replay_db2", |b| {
        b.iter(|| {
            let r = run_trace_stored(stored, &tse_cfg()).expect("replay");
            black_box(r.engine.covered)
        });
    });
    g.finish();
}
