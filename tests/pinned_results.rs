//! Pinned simulated results.
//!
//! The equivalence suites (`batched_equivalence`, `mapped_replay`,
//! `timing_replay`) compare two replay paths that share one memory
//! model, so a semantic slip inside `tse-memsim` or the SVB would move
//! both sides and still pass. This suite pins the *absolute* outcome
//! instead: an FNV-1a digest of the full `Debug` rendering of every
//! [`RunResult`] and [`TimingResult`] for a fixed grid of workloads,
//! engines and stream scopes.
//!
//! A change that is meant to be result-neutral (a layout or speed
//! change) must leave every digest untouched. A change that is meant to
//! move results must update the constants below and say why. To print
//! the current digests, run
//! `cargo test --release --test pinned_results -- --nocapture`.

use temporal_streaming::prefetch::GhbIndexing;
use temporal_streaming::sim::{
    run_timing_stored, run_trace_stored, EngineKind, RunConfig, StoredTrace, StreamScope,
};
use temporal_streaming::types::{SystemConfig, TseConfig};
use temporal_streaming::workloads::{Em3d, OltpFlavor, Tpcc, Workload};

const SCALE: f64 = 0.05;
const SEED: u64 = 42;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

fn engines() -> Vec<(&'static str, EngineKind)> {
    vec![
        ("base", EngineKind::Baseline),
        ("tse", EngineKind::Tse(TseConfig::default())),
        (
            "tse-unbounded-svb",
            EngineKind::Tse(TseConfig {
                svb_entries: None,
                ..TseConfig::default()
            }),
        ),
        (
            "tse-svb4-q2",
            EngineKind::Tse(TseConfig {
                svb_entries: Some(4),
                stream_queues: Some(2),
                ..TseConfig::default()
            }),
        ),
        ("stride", EngineKind::paper_stride()),
        (
            "ghb",
            EngineKind::paper_ghb(GhbIndexing::AddressCorrelation),
        ),
    ]
}

fn traces() -> Vec<StoredTrace> {
    [
        Box::new(Tpcc::scaled(OltpFlavor::Db2, SCALE)) as Box<dyn Workload>,
        Box::new(Em3d::scaled(SCALE)),
    ]
    .iter()
    .map(|wl| StoredTrace::from_workload(wl.as_ref(), SEED))
    .collect()
}

/// `(label, digest)` for every trace-mode cell of the grid.
fn run_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for trace in traces() {
        for (engine_label, engine) in engines() {
            for scope in [StreamScope::CoherentReads, StreamScope::AllReads] {
                let cfg = RunConfig {
                    sys: SystemConfig::default(),
                    engine: engine.clone(),
                    seed: SEED,
                    collect_consumptions: true,
                    stream_scope: scope,
                    ..RunConfig::default()
                };
                let r = run_trace_stored(&trace, &cfg).unwrap();
                let label = format!("{}/{engine_label}/{scope:?}", trace.name());
                out.push((label, digest(&r)));
            }
        }
    }
    out
}

/// `(label, digest)` for every timing-mode cell of the grid.
fn timing_digests() -> Vec<(String, u64)> {
    let sys = SystemConfig::default();
    let mut out = Vec::new();
    for trace in traces() {
        for (engine_label, engine) in [
            ("base", EngineKind::Baseline),
            ("tse", EngineKind::Tse(TseConfig::default())),
        ] {
            let r = run_timing_stored(&trace, &sys, &engine, 0.25).unwrap();
            let label = format!("{}/{engine_label}/timing", trace.name());
            out.push((label, digest(&r)));
        }
    }
    out
}

fn check(actual: Vec<(String, u64)>, pinned: &[(&str, u64)]) {
    for (label, d) in &actual {
        println!("    (\"{label}\", 0x{d:016x}),");
    }
    let actual: Vec<(&str, u64)> = actual.iter().map(|(l, d)| (l.as_str(), *d)).collect();
    assert_eq!(actual, pinned, "simulated results moved");
}

#[test]
fn trace_mode_results_are_pinned() {
    check(run_digests(), RUN_DIGESTS);
}

#[test]
fn timing_mode_results_are_pinned() {
    check(timing_digests(), TIMING_DIGESTS);
}

const RUN_DIGESTS: &[(&str, u64)] = &[
    ("DB2/base/CoherentReads", 0xe456df1bf1b6c300),
    ("DB2/base/AllReads", 0xe456df1bf1b6c300),
    ("DB2/tse/CoherentReads", 0x1680fb71a0529fca),
    ("DB2/tse/AllReads", 0x1491c4cfbd83c2d1),
    ("DB2/tse-unbounded-svb/CoherentReads", 0x617891b37163953b),
    ("DB2/tse-unbounded-svb/AllReads", 0x21beed82f9f4677d),
    ("DB2/tse-svb4-q2/CoherentReads", 0x3f441a5c2c852007),
    ("DB2/tse-svb4-q2/AllReads", 0xc3b2a6e521cf0883),
    ("DB2/stride/CoherentReads", 0x2e6956bd66f04edc),
    ("DB2/stride/AllReads", 0x2e6956bd66f04edc),
    ("DB2/ghb/CoherentReads", 0x91f70d36b62bfb1a),
    ("DB2/ghb/AllReads", 0x91f70d36b62bfb1a),
    ("em3d/base/CoherentReads", 0xd2652d74a14b2c16),
    ("em3d/base/AllReads", 0xd2652d74a14b2c16),
    ("em3d/tse/CoherentReads", 0x4755c02d74cc442c),
    ("em3d/tse/AllReads", 0x4755c02d74cc442c),
    ("em3d/tse-unbounded-svb/CoherentReads", 0x4755c02d74cc442c),
    ("em3d/tse-unbounded-svb/AllReads", 0x4755c02d74cc442c),
    ("em3d/tse-svb4-q2/CoherentReads", 0x9f2c244c4821805b),
    ("em3d/tse-svb4-q2/AllReads", 0x310b6725bd1899bd),
    ("em3d/stride/CoherentReads", 0x3412d136f9e1a06b),
    ("em3d/stride/AllReads", 0x3412d136f9e1a06b),
    ("em3d/ghb/CoherentReads", 0x62de3097d0f4bbaa),
    ("em3d/ghb/AllReads", 0x62de3097d0f4bbaa),
];

const TIMING_DIGESTS: &[(&str, u64)] = &[
    ("DB2/base/timing", 0x4211a8eace5a96c1),
    ("DB2/tse/timing", 0x60f007d6cfe6388e),
    ("em3d/base/timing", 0x0aa3800e1273e2fe),
    ("em3d/tse/timing", 0x6b4342da41aee312),
];
