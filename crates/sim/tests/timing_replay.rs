//! Bit-identity of the timing model's three input paths.
//!
//! The contract under test: [`run_timing`] (generate-then-replay),
//! [`run_timing_stored`] (in-memory [`StoredTrace`]) and
//! [`run_timing_mapped`] (pipelined TSB1 block decode off a memory
//! mapping) produce *equal* [`TimingResult`]s — every counter, stall
//! breakdown and derived float — for the same records, including on a
//! trace large enough (>= 10^6 records) that block decode, the reorder
//! window and the warm-up boundary all engage many times over.

use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;
use tse_sim::{
    run_timing, run_timing_mapped, run_timing_mapped_path, run_timing_stored, EngineKind,
    ReplayError, StoredTrace,
};
use tse_trace::interleave;
use tse_trace::store::MappedTrace;
use tse_types::{SystemConfig, TseConfig};
use tse_workloads::{Em3d, OltpFlavor, Tpcc, Workload};

fn engines() -> Vec<EngineKind> {
    vec![
        EngineKind::Baseline,
        EngineKind::Tse(TseConfig::builder().lookahead(8).build().unwrap()),
    ]
}

/// Saves a stored trace to TSB1 bytes.
fn tsb1(trace: &StoredTrace) -> Vec<u8> {
    let mut cur = Cursor::new(Vec::new());
    trace.save_tsb1(&mut cur).unwrap();
    cur.into_inner()
}

/// A per-test temp dir, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("tse-timing-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    /// Writes `bytes` as `<file>` in the dir and returns its path.
    fn write(&self, file: &str, bytes: &[u8]) -> PathBuf {
        let path = self.0.join(file);
        std::fs::write(&path, bytes).unwrap();
        path
    }

    /// Writes `bytes` as `<file>` in the dir and maps it.
    fn map(&self, file: &str, bytes: &[u8]) -> Arc<MappedTrace> {
        Arc::new(MappedTrace::open(self.write(file, bytes)).unwrap())
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn all_three_paths_agree_with_generation() {
    let sys = SystemConfig::default();
    for wl in [
        Box::new(Em3d::scaled(0.03)) as Box<dyn Workload>,
        Box::new(Tpcc::scaled(OltpFlavor::Db2, 0.05)),
    ] {
        let stored = StoredTrace::from_workload(wl.as_ref(), 42);
        let dir = TempDir::new("paths");
        let mapped_trace = dir.map("t.tsb1", &tsb1(&stored));
        for engine in engines() {
            let direct = run_timing(wl.as_ref(), &sys, &engine, 42, 0.25).unwrap();
            let replayed = run_timing_stored(&stored, &sys, &engine, 0.25).unwrap();
            assert_eq!(direct, replayed, "{}: stored != generated", wl.name());
            let mapped = run_timing_mapped(
                stored.name(),
                Arc::clone(&mapped_trace),
                &sys,
                &engine,
                0.25,
            )
            .unwrap();
            assert_eq!(direct, mapped, "{}: mapped != generated", wl.name());
        }
    }
}

#[test]
fn million_record_trace_is_bit_identical_across_paths() {
    // Scale the OLTP workload up (4x the paper's transaction count at
    // full scale) so the trace crosses 10^6 records — hundreds of TSB1
    // blocks, thousands of warm-boundary-straddling streams.
    let wl = Tpcc::scaled(OltpFlavor::Db2, 1.0).with_txns_per_node(1600);
    let per_node = wl.generate(42);
    let total: usize = per_node.iter().map(Vec::len).sum();
    assert!(
        total >= 1_000_000,
        "trace must hold >= 10^6 records, got {total}"
    );
    let stored = StoredTrace::from_records(
        wl.name(),
        wl.nodes(),
        interleave(per_node.into_iter().map(Vec::into_iter).collect()).collect(),
    )
    .unwrap();
    let dir = TempDir::new("million");
    let mapped_trace = dir.map("t.tsb1", &tsb1(&stored));

    let sys = SystemConfig::default();
    let engine = EngineKind::Tse(TseConfig::default());
    let direct = run_timing(&wl, &sys, &engine, 42, 0.25).unwrap();
    let replayed = run_timing_stored(&stored, &sys, &engine, 0.25).unwrap();
    assert_eq!(direct, replayed, "stored != generated at 10^6 records");
    let mapped = run_timing_mapped(stored.name(), mapped_trace, &sys, &engine, 0.25).unwrap();
    assert_eq!(direct, mapped, "mapped != generated at 10^6 records");
    // The runs did real work: coherent stalls and coverage both nonzero.
    assert!(direct.coherent_stall > 0);
    assert!(direct.engine.covered > 0);
}

#[test]
fn mapped_path_variant_matches_and_names_after_file_stem() {
    let wl = Em3d::scaled(0.02);
    let stored = StoredTrace::from_workload(&wl, 7);
    let dir = TempDir::new("stem");
    let path = dir.write("em3d.tsb1", &tsb1(&stored));

    let sys = SystemConfig::default();
    let engine = EngineKind::Baseline;
    let from_path = run_timing_mapped_path(&path, &sys, &engine, 0.25).unwrap();
    let from_store = run_timing_stored(&stored, &sys, &engine, 0.25).unwrap();
    assert_eq!(from_path.workload, "em3d");
    assert_eq!(from_path, from_store);
}

#[test]
fn mapped_timing_rejects_node_count_mismatch_and_corruption() {
    let stored = StoredTrace::from_workload(&Em3d::scaled(0.02), 1); // 16 nodes
    let bytes = tsb1(&stored);
    let dir = TempDir::new("reject");

    let small = SystemConfig::builder()
        .nodes(4)
        .torus(2, 2)
        .build()
        .unwrap();
    match run_timing_mapped(
        "t",
        dir.map("t.tsb1", &bytes),
        &small,
        &EngineKind::Baseline,
        0.25,
    ) {
        Err(ReplayError::Config(_)) => {}
        other => panic!("expected a config error, got {other:?}"),
    }

    let mut corrupt = bytes;
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    match run_timing_mapped(
        "t",
        dir.map("corrupt.tsb1", &corrupt),
        &SystemConfig::default(),
        &EngineKind::Baseline,
        0.25,
    ) {
        Err(ReplayError::Trace(_)) => {}
        other => panic!("expected a trace error, got {other:?}"),
    }
}
