//! Sweep-executor and replay benches, plus the mapped-replay
//! acceptance measurement.
//!
//! Two parts, mirroring `trace_store.rs`:
//!
//! * an **acceptance check** on a >=10^6-record Tpcc trace — mapped
//!   replay (blocks decoded on the pool straight out of a memory
//!   mapping) must produce results bit-identical to materialized
//!   `StoredTrace` replay (the property that lets figure sweeps replay
//!   10^8-record traces off disk without loading them);
//! * steady-state **criterion kernels** for pool dispatch and stored
//!   replay (`tse_bench::sweep`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::io::Cursor;
use std::time::Instant;
use tse_sim::{run_trace_mapped_path, run_trace_stored, EngineKind, RunConfig, StoredTrace};
use tse_trace::interleave;
use tse_types::TseConfig;
use tse_workloads::{OltpFlavor, Tpcc, Workload};

/// Concatenates full-scale Tpcc/DB2 traces (one per seed) until at
/// least `min_records` records are collected (~278k records/seed).
fn tpcc_trace(min_records: usize) -> StoredTrace {
    let wl = Tpcc::scaled(OltpFlavor::Db2, 1.0);
    let mut records = Vec::with_capacity(min_records + min_records / 4);
    let mut seed = 0u64;
    while records.len() < min_records {
        records.extend(interleave(
            wl.generate(seed).into_iter().map(Vec::into_iter).collect(),
        ));
        seed += 1;
    }
    StoredTrace::from_records("DB2", wl.nodes(), records).expect("valid records")
}

/// The acceptance measurement: on a >=10^6-record Tpcc trace, mapped
/// replay must be bit-identical to stored replay.
fn acceptance(_c: &mut Criterion) {
    let stored = tpcc_trace(1_000_000);
    assert!(
        stored.len() >= 1_000_000,
        "acceptance trace must have >=10^6 records"
    );
    let mut cur = Cursor::new(Vec::new());
    stored.save_tsb1(&mut cur).expect("in-memory save");
    let path =
        std::env::temp_dir().join(format!("tse-sweep-acceptance-{}.tsb1", std::process::id()));
    std::fs::write(&path, cur.into_inner()).expect("write acceptance trace");
    let cfg = RunConfig {
        engine: EngineKind::Tse(TseConfig::default()),
        ..RunConfig::default()
    };

    let t0 = Instant::now();
    let a = run_trace_stored(&stored, &cfg).expect("stored replay");
    let stored_time = t0.elapsed();
    let t0 = Instant::now();
    let b = run_trace_mapped_path(&path, &cfg).expect("mapped replay");
    let mapped_time = t0.elapsed();
    let _ = std::fs::remove_file(&path);

    assert_eq!(a.engine, b.engine, "engine stats must be bit-identical");
    assert_eq!(a.mem, b.mem, "memory stats must be bit-identical");
    assert_eq!(a.traffic, b.traffic, "traffic must be bit-identical");
    assert_eq!(a.records, b.records);
    assert_eq!(a.spin_misses, b.spin_misses);
    println!(
        "sweep/acceptance: {} records; stored replay {:.1} ms vs mapped {:.1} ms (bit-identical, coverage {:.3})",
        stored.len(),
        stored_time.as_secs_f64() * 1e3,
        mapped_time.as_secs_f64() * 1e3,
        b.coverage(),
    );
}

criterion_group! {
    name = sweep_group;
    config = Criterion::default().sample_size(10);
    targets = acceptance, tse_bench::sweep::all
}
criterion_main!(sweep_group);
