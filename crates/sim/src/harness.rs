//! Trace-driven simulation harness.
//!
//! Drives a [`DsmSystem`] (and optionally a TSE or a baseline prefetcher)
//! with a workload's globally interleaved access stream, reproducing the
//! paper's trace-based methodology (Section 4): in-order execution at
//! fixed IPC, warm-up before measurement, spin misses excluded from
//! consumptions.

use crate::{EngineKind, StreamScope};
use serde::{Deserialize, Serialize};
use tse_core::{SvbSet, TemporalStreamingEngine, TseStats};
use tse_interconnect::{TrafficClass, TrafficReport};
use tse_memsim::{DsmSystem, MemStats, MissClass};
use tse_prefetch::{GhbPrefetcher, Prefetcher, StridePrefetcher};
use tse_trace::{interleave, AccessKind, AccessRecord, Consumption, SpinFilter};
use tse_types::{ConfigError, Cycle, Line, NodeId, SystemConfig};
use tse_workloads::Workload;

/// Configuration of one simulation run.
///
/// Serializes to JSON (via the [`crate::shard`] job-spec machinery) so a
/// sweep cell can be shipped to another host; every field round-trips
/// exactly, floats included.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunConfig {
    /// The simulated machine (Table 1).
    pub sys: SystemConfig,
    /// Which engine (if any) sits beside the cache hierarchy.
    pub engine: EngineKind,
    /// Workload generation seed.
    pub seed: u64,
    /// Fraction of the trace used to warm caches/CMOBs before statistics
    /// are measured (the paper warms caches, predictors and CMOBs).
    pub warm_fraction: f64,
    /// Capture the consumption sequence (needed by the Figure 6
    /// correlation analysis; baseline runs only).
    pub collect_consumptions: bool,
    /// Which misses the TSE records and streams on. The paper focuses on
    /// coherent reads; [`StreamScope::AllReads`] implements its
    /// "generalized address streams" extension (Section 2).
    pub stream_scope: StreamScope,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            sys: SystemConfig::default(),
            engine: EngineKind::Baseline,
            seed: 42,
            warm_fraction: 0.15,
            collect_consumptions: false,
            stream_scope: StreamScope::CoherentReads,
        }
    }
}

/// Result of a trace-driven run.
///
/// `PartialEq` compares every counter, so equality means *bit-identical*
/// runs — the property the shard merge path asserts against the
/// in-process sweep. Serialization (JSON, exact round-trip) is what a
/// shard worker ships back to the merge step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Engine display name (`"base"`, `"TSE"`, `"Stride"`, ...).
    pub engine_name: String,
    /// Memory-system counters (measured region only).
    pub mem: MemStats,
    /// Engine counters: coverage, discards, stream lengths. For baseline
    /// runs only `uncovered` is populated (every consumption missed).
    pub engine: TseStats,
    /// Interconnect traffic report (measured region only).
    pub traffic: TrafficReport,
    /// Captured consumptions (empty unless requested).
    pub consumptions: Vec<Consumption>,
    /// Records processed in the measured region.
    pub records: u64,
    /// Coherence read misses excluded as spins.
    pub spin_misses: u64,
}

impl RunResult {
    /// Total consumptions in the measured region.
    pub fn consumption_count(&self) -> u64 {
        self.engine.consumptions()
    }

    /// Engine coverage (0 for baseline).
    pub fn coverage(&self) -> f64 {
        self.engine.coverage()
    }

    /// Engine discard rate (0 for baseline).
    pub fn discard_rate(&self) -> f64 {
        self.engine.discard_rate()
    }
}

/// State of a baseline-prefetcher run: one predictor per node plus the
/// nodes' prefetch buffers (identical to the TSE's SVBs, per Section
/// 5.5).
pub(crate) struct Prefetchers {
    pub(crate) predictors: Vec<Box<dyn Prefetcher>>,
    pub(crate) buffers: SvbSet,
}

impl Prefetchers {
    fn new(
        nodes: usize,
        buffer: Option<usize>,
        predictor: impl Fn() -> Box<dyn Prefetcher>,
    ) -> Self {
        Prefetchers {
            predictors: (0..nodes).map(|_| predictor()).collect(),
            buffers: SvbSet::new(nodes, buffer),
        }
    }

    /// A write by any processor: every buffered copy of `line` becomes
    /// a discard (the write already removed its sharer registrations).
    pub(crate) fn write(&mut self, dsm: &mut DsmSystem, stats: &mut TseStats, line: Line) {
        self.buffers.invalidate(line, |node, entry| {
            stats.discarded += 1;
            dsm.account_fill_traffic(node, entry.fill, TrafficClass::DiscardedData);
        });
    }
}

pub(crate) enum Engine {
    Baseline,
    Tse(Box<TemporalStreamingEngine>),
    Prefetch(Prefetchers),
}

/// Instantiates the engine beside the cache hierarchy, shared by the
/// batched kernel ([`crate::kernel`]) and the record-at-a-time
/// reference loop.
pub(crate) fn build_engine(
    kind: &EngineKind,
    sys: &SystemConfig,
    nodes: usize,
) -> Result<Engine, ConfigError> {
    Ok(match kind {
        EngineKind::Baseline => Engine::Baseline,
        EngineKind::Tse(tse_cfg) => {
            Engine::Tse(Box::new(TemporalStreamingEngine::new(sys, tse_cfg)?))
        }
        EngineKind::Stride { depth, buffer } => {
            Engine::Prefetch(Prefetchers::new(nodes, *buffer, || {
                Box::new(StridePrefetcher::new(*depth))
            }))
        }
        EngineKind::Ghb {
            indexing,
            entries,
            width,
            buffer,
        } => Engine::Prefetch(Prefetchers::new(nodes, *buffer, || {
            Box::new(GhbPrefetcher::new(*indexing, *entries, *width))
        })),
    })
}

/// Whether spin misses are filtered out of the consumption stream. The
/// TSE's spin filter can be ablated; baselines always exclude spins, as
/// the paper's methodology does.
pub(crate) fn spin_filtering_for(kind: &EngineKind) -> bool {
    match kind {
        EngineKind::Tse(t) => t.spin_filter,
        _ => true,
    }
}

/// Teardown shared by the batched kernel and the reference loop:
/// residual buffered blocks are discards, then the counters assemble
/// into the [`RunResult`].
pub(crate) fn finish_run(
    name: &str,
    mut dsm: DsmSystem,
    engine: Engine,
    mut baseline_stats: TseStats,
    consumptions: Vec<Consumption>,
    records: u64,
    spin_misses: u64,
) -> RunResult {
    let (engine_name, engine_stats) = match engine {
        Engine::Baseline => ("base".to_string(), baseline_stats),
        Engine::Tse(mut tse) => {
            tse.finish(&mut dsm);
            ("TSE".to_string(), tse.stats().clone())
        }
        Engine::Prefetch(mut pf) => {
            for n in 0..pf.predictors.len() {
                let node = NodeId::new(n as u16);
                for entry in pf.buffers.drain(node) {
                    baseline_stats.discarded += 1;
                    dsm.account_fill_traffic(node, entry.fill, TrafficClass::DiscardedData);
                    dsm.drop_sharer(node, entry.line);
                }
            }
            let name = pf.predictors.last().map_or("", |p| p.name()).to_string();
            (name, baseline_stats)
        }
    };

    RunResult {
        workload: name.to_string(),
        engine_name,
        mem: *dsm.stats(),
        engine: engine_stats,
        traffic: dsm.traffic().report(),
        consumptions,
        records,
        spin_misses,
    }
}

/// Runs a workload through the trace-driven harness.
///
/// The workload is generated from `cfg.seed`, interleaved into global
/// order and replayed. To replay the same records under many
/// configurations without regenerating (or to run a trace loaded from a
/// TSB1 file), build a [`crate::StoredTrace`] and use
/// [`crate::run_trace_stored`] instead.
///
/// # Errors
///
/// Returns a [`ConfigError`] if the system or engine configuration is
/// invalid.
pub fn run_trace(workload: &dyn Workload, cfg: &RunConfig) -> Result<RunResult, ConfigError> {
    // Validate before generating: at production scale the trace is
    // millions of records, too expensive to build for a doomed run.
    cfg.sys.validate()?;
    if workload.nodes() != cfg.sys.nodes {
        return Err(ConfigError::new(format!(
            "trace is configured for {} nodes but the system has {}",
            workload.nodes(),
            cfg.sys.nodes
        )));
    }
    let per_node = workload.generate(cfg.seed);
    let total: usize = per_node.iter().map(Vec::len).sum();
    run_interleaved(
        workload.name(),
        workload.nodes(),
        total,
        interleave(per_node.into_iter().map(Vec::into_iter).collect()),
        cfg,
    )
}

/// The replay core shared by [`run_trace`] (generate-then-replay) and
/// [`crate::run_trace_stored`] (replay a stored global order): drives
/// the DSM + engine with an already-interleaved record stream, by
/// buffering it into blocks for the batched kernel ([`crate::kernel`]).
pub(crate) fn run_interleaved(
    name: &str,
    trace_nodes: usize,
    total: usize,
    records: impl Iterator<Item = AccessRecord>,
    cfg: &RunConfig,
) -> Result<RunResult, ConfigError> {
    let mut src = crate::kernel::IterBlocks::new(records);
    crate::kernel::run_blocks(name, trace_nodes, total, &mut src, cfg)
}

/// The record-at-a-time interpretation of the replay semantics, kept as
/// the executable specification the batched kernel is asserted
/// bit-identical against (`tests/batched_equivalence.rs`). Not part of
/// the public API.
#[doc(hidden)]
pub fn run_interleaved_reference(
    name: &str,
    trace_nodes: usize,
    total: usize,
    records: impl Iterator<Item = AccessRecord>,
    cfg: &RunConfig,
) -> Result<RunResult, ConfigError> {
    let mut dsm = DsmSystem::new(&cfg.sys)?;
    let nodes = cfg.sys.nodes;
    if trace_nodes != nodes {
        return Err(ConfigError::new(format!(
            "trace is configured for {trace_nodes} nodes but the system has {nodes}"
        )));
    }

    let mut engine = build_engine(&cfg.engine, &cfg.sys, nodes)?;
    let warm_records = (total as f64 * cfg.warm_fraction) as usize;
    let spin_filtering = spin_filtering_for(&cfg.engine);
    let mut spin_filter = SpinFilter::new(nodes);
    let mut baseline_stats = TseStats::default();
    let mut consumptions = Vec::new();
    let mut spin_misses = 0u64;
    let mut processed = 0usize;
    let mut measured_records = 0u64;

    #[allow(clippy::explicit_counter_loop)] // `processed` is also read inside the body
    for rec in records {
        let measuring = processed >= warm_records;
        if processed == warm_records {
            // Warm-up boundary: caches, CMOBs and predictors stay warm;
            // counters restart (the paper's measurement discipline).
            dsm.reset_stats();
            if let Engine::Tse(tse) = &mut engine {
                tse.reset_stats();
            }
            baseline_stats = TseStats::default();
            spin_misses = 0;
        }
        processed += 1;
        if measuring {
            measured_records += 1;
        }

        match rec.kind {
            AccessKind::Write => {
                dsm.write(rec.node, rec.line);
                match &mut engine {
                    Engine::Baseline => {}
                    Engine::Tse(tse) => tse.write(&mut dsm, rec.line),
                    Engine::Prefetch(pf) => pf.write(&mut dsm, &mut baseline_stats, rec.line),
                }
            }
            AccessKind::Read => {
                dsm.count_read();
                if dsm.probe_local(rec.node, rec.line).is_some() {
                    continue;
                }
                match &mut engine {
                    Engine::Baseline => {
                        let miss = dsm.read_miss(rec.node, rec.line);
                        if miss.class == MissClass::Coherence {
                            let spin = rec.spin || spin_filter.is_spin(rec.node, rec.line);
                            if spin {
                                spin_misses += 1;
                            } else {
                                baseline_stats.uncovered += 1;
                                if cfg.collect_consumptions && measuring {
                                    consumptions.push(Consumption {
                                        node: rec.node,
                                        line: rec.line,
                                        clock: rec.clock,
                                        global_seq: miss.global_seq,
                                    });
                                }
                            }
                        }
                    }
                    Engine::Tse(tse) => {
                        if tse
                            .demand_read(&mut dsm, rec.node, rec.line, Cycle::ZERO)
                            .is_some()
                        {
                            continue;
                        }
                        let miss = dsm.read_miss(rec.node, rec.line);
                        let in_scope = match cfg.stream_scope {
                            StreamScope::CoherentReads => miss.class == MissClass::Coherence,
                            StreamScope::AllReads => true,
                        };
                        if in_scope {
                            let spin = spin_filtering
                                && ((miss.class == MissClass::Coherence && rec.spin)
                                    || spin_filter.is_spin(rec.node, rec.line));
                            if spin {
                                spin_misses += 1;
                                tse.observe_miss(&mut dsm, rec.node, rec.line, Cycle::ZERO);
                            } else {
                                tse.consumption_miss(&mut dsm, rec.node, rec.line, Cycle::ZERO);
                            }
                        } else {
                            tse.observe_miss(&mut dsm, rec.node, rec.line, Cycle::ZERO);
                        }
                    }
                    Engine::Prefetch(pf) => {
                        let n = rec.node.index();
                        if let Some(entry) = pf.buffers.take(rec.node, rec.line) {
                            // Prefetch-buffer hit: a covered consumption.
                            baseline_stats.covered += 1;
                            dsm.account_fill_traffic(rec.node, entry.fill, TrafficClass::Demand);
                            dsm.install(rec.node, rec.line);
                            // Train (keep history contiguous) but do not
                            // chain: fixed-depth engines fetch only in
                            // response to misses (Section 5.5).
                            let _ = pf.predictors[n].on_miss(rec.line);
                            continue;
                        }
                        let miss = dsm.read_miss(rec.node, rec.line);
                        if miss.class != MissClass::Coherence {
                            continue;
                        }
                        let spin = rec.spin || spin_filter.is_spin(rec.node, rec.line);
                        if spin {
                            spin_misses += 1;
                            continue;
                        }
                        baseline_stats.uncovered += 1;
                        let predicted = pf.predictors[n].on_miss(rec.line);
                        for line in predicted {
                            if dsm.peek_local(rec.node, line) || pf.buffers.contains(rec.node, line)
                            {
                                baseline_stats.skipped_fetches += 1;
                                continue;
                            }
                            let fill = dsm.stream_fetch(rec.node, line);
                            baseline_stats.fetched += 1;
                            if let Some(victim) =
                                pf.buffers.insert(rec.node, line, 0, fill, Cycle::ZERO)
                            {
                                baseline_stats.discarded += 1;
                                dsm.account_fill_traffic(
                                    rec.node,
                                    victim.fill,
                                    TrafficClass::DiscardedData,
                                );
                                dsm.drop_sharer(rec.node, victim.line);
                            }
                        }
                    }
                }
            }
        }
    }

    Ok(finish_run(
        name,
        dsm,
        engine,
        baseline_stats,
        consumptions,
        measured_records,
        spin_misses,
    ))
}

/// Shorthand: baseline run capturing consumptions for trace analyses.
///
/// # Errors
///
/// Propagates configuration errors from [`run_trace`].
pub fn run_baseline_collecting(
    workload: &dyn Workload,
    sys: &SystemConfig,
    seed: u64,
) -> Result<RunResult, ConfigError> {
    run_trace(
        workload,
        &RunConfig {
            sys: sys.clone(),
            engine: EngineKind::Baseline,
            seed,
            collect_consumptions: true,
            ..RunConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_prefetch::GhbIndexing;
    use tse_types::TseConfig;
    use tse_workloads::{Em3d, OltpFlavor, Tpcc};

    fn sys() -> SystemConfig {
        SystemConfig::default()
    }

    fn em3d() -> Em3d {
        Em3d::scaled(0.03)
    }

    #[test]
    fn baseline_em3d_has_coherent_misses_in_order() {
        let r = run_baseline_collecting(&em3d(), &sys(), 1).unwrap();
        assert!(
            r.consumption_count() > 100,
            "em3d must produce consumptions"
        );
        assert!(!r.consumptions.is_empty());
        assert_eq!(r.coverage(), 0.0);
        // em3d's coherence misses dominate its read misses after warmup.
        assert!(
            r.mem.coherence_fraction() > 0.5,
            "coherence fraction {:.2}",
            r.mem.coherence_fraction()
        );
    }

    #[test]
    fn tse_covers_em3d_nearly_fully() {
        let cfg = RunConfig {
            engine: EngineKind::Tse(TseConfig::default()),
            ..RunConfig::default()
        };
        let r = run_trace(&em3d(), &cfg).unwrap();
        assert!(
            r.coverage() > 0.9,
            "em3d trace coverage should be near-perfect, got {:.3}",
            r.coverage()
        );
        assert!(
            r.discard_rate() < 0.2,
            "em3d discards should be small, got {:.3}",
            r.discard_rate()
        );
    }

    #[test]
    fn tse_oltp_coverage_in_paper_band() {
        let cfg = RunConfig {
            engine: EngineKind::Tse(TseConfig::default()),
            ..RunConfig::default()
        };
        let r = run_trace(&Tpcc::scaled(OltpFlavor::Db2, 0.15), &cfg).unwrap();
        assert!(
            r.coverage() > 0.3 && r.coverage() < 0.85,
            "OLTP coverage should be partial, got {:.3}",
            r.coverage()
        );
    }

    /// Formerly an `#[ignore]`d diagnostic; scaled down (and replaying
    /// one stored trace instead of regenerating per k) so it runs in
    /// tier-1, with the qualitative claims asserted: widening the
    /// comparator slashes discards at little coverage cost, and the
    /// sweep's diagnostics stay available via `--nocapture`.
    #[test]
    fn k_sweep_discards_shrink_with_comparator_width() {
        let trace = crate::StoredTrace::from_workload(&Tpcc::scaled(OltpFlavor::Db2, 0.05), 42);
        let sys = SystemConfig::builder()
            .l2(2 * 1024 * 1024, 8)
            .build()
            .unwrap();
        let mut sweep = Vec::new();
        for k in [1usize, 2, 3, 4] {
            let mut t = TseConfig::unconstrained();
            t.compared_streams = k;
            t.directory_pointers = k.max(2);
            let r = crate::run_trace_stored(
                &trace,
                &RunConfig {
                    sys: sys.clone(),
                    engine: EngineKind::Tse(t),
                    ..RunConfig::default()
                },
            )
            .unwrap();
            eprintln!("k={k}: cov={:.3} disc={:.3} cons={} fetched={} skipped={} stalls={} resol={} queues={}",
                r.coverage(), r.discard_rate(), r.consumption_count(), r.engine.fetched,
                r.engine.skipped_fetches, r.engine.queue_stalls, r.engine.queue_resolutions, r.engine.queues_allocated);
            sweep.push((k, r.coverage(), r.discard_rate()));
        }
        let (_, cov1, disc1) = sweep[0];
        for &(k, cov, disc) in &sweep[1..] {
            assert!(
                disc < 0.6 * disc1,
                "k={k} discards {disc:.2} must be well below k=1's {disc1:.2}"
            );
            assert!(
                cov > cov1 - 0.10,
                "k={k} coverage {cov:.2} must not fall far below k=1's {cov1:.2}"
            );
        }
    }

    #[test]
    fn single_stream_has_more_discards_than_two_streams() {
        let wl = Tpcc::scaled(OltpFlavor::Db2, 0.1);
        // A 2 MB L2 keeps the (scaled-down) stock pool uncacheable, as
        // the 10 GB database is against the paper's 8 MB L2.
        let sys = SystemConfig::builder()
            .l2(2 * 1024 * 1024, 8)
            .build()
            .unwrap();
        let one = TseConfig {
            compared_streams: 1,
            directory_pointers: 1,
            ..TseConfig::default()
        };
        let r1 = run_trace(
            &wl,
            &RunConfig {
                sys: sys.clone(),
                engine: EngineKind::Tse(one),
                ..RunConfig::default()
            },
        )
        .unwrap();
        let r2 = run_trace(
            &wl,
            &RunConfig {
                sys,
                engine: EngineKind::Tse(TseConfig::default()),
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert!(
            r1.discard_rate() > 2.0 * r2.discard_rate(),
            "k=1 discards {:.2} vs k=2 {:.2}",
            r1.discard_rate(),
            r2.discard_rate()
        );
    }

    #[test]
    fn stride_rarely_covers_pointer_chasing() {
        let cfg = RunConfig {
            engine: EngineKind::Stride {
                depth: 8,
                buffer: Some(32),
            },
            ..RunConfig::default()
        };
        let r = run_trace(&Tpcc::scaled(OltpFlavor::Db2, 0.1), &cfg).unwrap();
        assert!(
            r.coverage() < 0.15,
            "stride must not cover OLTP, got {:.3}",
            r.coverage()
        );
    }

    #[test]
    fn ghb_ac_covers_less_than_tse_on_oltp() {
        let wl = Tpcc::scaled(OltpFlavor::Db2, 0.1);
        let ghb = run_trace(
            &wl,
            &RunConfig {
                engine: EngineKind::Ghb {
                    indexing: GhbIndexing::AddressCorrelation,
                    entries: 512,
                    width: 8,
                    buffer: Some(32),
                },
                ..RunConfig::default()
            },
        )
        .unwrap();
        let tse = run_trace(
            &wl,
            &RunConfig {
                engine: EngineKind::Tse(TseConfig::default()),
                ..RunConfig::default()
            },
        )
        .unwrap();
        assert!(
            tse.coverage() > ghb.coverage(),
            "TSE {:.3} must beat GHB {:.3} (512-entry history)",
            tse.coverage(),
            ghb.coverage()
        );
    }

    #[test]
    fn spins_are_excluded() {
        let mut wl = Tpcc::scaled(OltpFlavor::Db2, 0.05);
        wl.spin_prob = 0.8;
        let r = run_baseline_collecting(&wl, &sys(), 3).unwrap();
        assert!(
            r.spin_misses > 0,
            "spin misses must be detected and excluded"
        );
    }

    #[test]
    fn node_count_mismatch_is_rejected() {
        let wl = em3d(); // 16 nodes
        let cfg = RunConfig {
            sys: SystemConfig::builder()
                .nodes(4)
                .torus(2, 2)
                .build()
                .unwrap(),
            ..RunConfig::default()
        };
        assert!(run_trace(&wl, &cfg).is_err());
    }

    #[test]
    fn tse_accounting_balances() {
        let cfg = RunConfig {
            engine: EngineKind::Tse(TseConfig::default()),
            warm_fraction: 0.0,
            ..RunConfig::default()
        };
        let r = run_trace(&em3d(), &cfg).unwrap();
        assert!(
            r.engine.accounting_balanced(),
            "fetched {} != covered {} + discarded {}",
            r.engine.fetched,
            r.engine.covered,
            r.engine.discarded
        );
    }
}
