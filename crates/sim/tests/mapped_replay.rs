//! Bit-identity of the zero-copy mapped replay path.
//!
//! The contract under test: [`run_trace_mapped`] / [`run_timing_mapped`]
//! (pool-parallel block decode straight out of a shared memory mapping)
//! produce results *equal* to the in-memory stored replay of the same
//! records — including on a Tpcc trace large enough (>= 10^6 records)
//! that the mmap block index, the decode reorder window and lazy CRC
//! validation all engage hundreds of times over.

use std::io::Cursor;
use std::sync::Arc;
use tse_sim::{
    mapped_node_count, run_timing_mapped, run_timing_mapped_path, run_timing_stored,
    run_trace_mapped, run_trace_mapped_path, run_trace_stored, EngineKind, ReplayError, RunConfig,
    StoredTrace,
};
use tse_trace::store::MappedTrace;
use tse_types::{SystemConfig, TseConfig};
use tse_workloads::{Em3d, OltpFlavor, Tpcc};

/// Saves a stored trace to a TSB1 file under a per-test temp dir and
/// returns (dir, path). Callers remove the dir when done.
fn save(trace: &StoredTrace, tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let mut cur = Cursor::new(Vec::new());
    trace.save_tsb1(&mut cur).unwrap();
    let dir = std::env::temp_dir().join(format!("tse-mapped-replay-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}.tsb1", trace.name()));
    std::fs::write(&path, cur.into_inner()).unwrap();
    (dir, path)
}

#[test]
fn mapped_trace_replay_matches_stored() {
    let wl = Em3d::scaled(0.03);
    let stored = StoredTrace::from_workload(&wl, 42);
    let (dir, path) = save(&stored, "trace");
    let trace = Arc::new(MappedTrace::open(&path).unwrap());
    assert_eq!(mapped_node_count(&trace), stored.nodes());

    for engine in [
        EngineKind::Baseline,
        EngineKind::Tse(TseConfig::builder().lookahead(8).build().unwrap()),
    ] {
        let cfg = RunConfig {
            engine,
            ..RunConfig::default()
        };
        let from_store = run_trace_stored(&stored, &cfg).unwrap();
        let mapped = run_trace_mapped(stored.name(), Arc::clone(&trace), &cfg).unwrap();
        assert_eq!(mapped, from_store, "mapped != stored");
        let from_path = run_trace_mapped_path(&path, &cfg).unwrap();
        assert_eq!(from_path.workload, stored.name());
        assert_eq!(from_path.coverage(), mapped.coverage());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn million_record_tpcc_trace_is_bit_identical_mapped_vs_stored() {
    // The acceptance bar for the zero-copy plane: a Tpcc trace past
    // 10^6 records (hundreds of 4096-record TSB1 blocks) replays
    // bit-identically through the mapping and from memory.
    let wl = Tpcc::scaled(OltpFlavor::Db2, 1.0).with_txns_per_node(1600);
    let stored = StoredTrace::from_workload(&wl, 42);
    assert!(
        stored.len() >= 1_000_000,
        "trace must hold >= 10^6 records, got {}",
        stored.len()
    );
    let (dir, path) = save(&stored, "million");

    let cfg = RunConfig {
        engine: EngineKind::Tse(TseConfig::default()),
        ..RunConfig::default()
    };
    let from_store = run_trace_stored(&stored, &cfg).unwrap();
    let mapped = run_trace_mapped_path(&path, &cfg).unwrap();
    assert_eq!(mapped, from_store, "mapped != stored at 10^6 records");
    // The run did real work: the engine covered misses.
    assert!(mapped.engine.covered > 0);

    // And the timing model over the same mapping.
    let sys = SystemConfig::default();
    let engine = EngineKind::Tse(TseConfig::default());
    let timing_stored = run_timing_stored(&stored, &sys, &engine, 0.25).unwrap();
    let timing_mapped = run_timing_mapped_path(&path, &sys, &engine, 0.25).unwrap();
    assert_eq!(
        timing_mapped, timing_stored,
        "mapped timing != stored timing at 10^6 records"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mapped_timing_shares_one_mapping_across_engines() {
    let stored = StoredTrace::from_workload(&Em3d::scaled(0.02), 7);
    let (dir, path) = save(&stored, "timing");
    let trace = Arc::new(MappedTrace::open(&path).unwrap());
    let sys = SystemConfig::default();
    for engine in [EngineKind::Baseline, EngineKind::Tse(TseConfig::default())] {
        let from_store = run_timing_stored(&stored, &sys, &engine, 0.25).unwrap();
        let mapped =
            run_timing_mapped(stored.name(), Arc::clone(&trace), &sys, &engine, 0.25).unwrap();
        assert_eq!(mapped, from_store, "mapped timing != stored timing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mapped_replay_surfaces_corruption_and_node_mismatch() {
    let stored = StoredTrace::from_workload(&Em3d::scaled(0.02), 1); // 16 nodes
    let (dir, path) = save(&stored, "corrupt");

    // Flip a payload byte: the mapped replay must fail with a trace
    // error (lazy CRC catches it when the damaged block is reached).
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let bad = dir.join("bad.tsb1");
    std::fs::write(&bad, bytes).unwrap();
    match run_trace_mapped_path(&bad, &RunConfig::default()) {
        Err(ReplayError::Trace(_)) => {}
        other => panic!("expected a trace error, got {other:?}"),
    }

    // A 4-node system cannot replay a 16-node trace.
    let small = SystemConfig::builder()
        .nodes(4)
        .torus(2, 2)
        .build()
        .unwrap();
    match run_timing_mapped_path(&path, &small, &EngineKind::Baseline, 0.25) {
        Err(ReplayError::Config(_)) => {}
        other => panic!("expected a config error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
