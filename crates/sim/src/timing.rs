//! First-order ("interval") timing model of the DSM.
//!
//! The paper evaluates TSE with cycle-accurate full-system simulation of
//! out-of-order cores. We substitute an interval model that captures the
//! first-order effects its timing results depend on (see DESIGN.md):
//!
//! * cores retire at peak width between miss events;
//! * independent misses overlap within the ROB window and MSHR budget
//!   (memory-level parallelism); address-dependent misses serialize;
//! * stall time is attributed to the miss class blocking retirement —
//!   coherent read stalls vs. everything else (Figure 14's breakdown);
//! * with TSE, SVB hits whose data is in flight stall only for the
//!   residual latency (partial coverage, Table 3).
//!
//! Coherence and TSE state evolve in the workload's logical-clock order
//! while each node's physical time advances through the interval model —
//! a decoupled approximation that keeps the simulator fast and
//! deterministic.

use crate::replay::{mapped_node_count, MappedRecords};
use crate::{EngineKind, ReplayError, StoredTrace};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::path::Path;
use std::rc::Rc;
use tse_core::{TemporalStreamingEngine, TseStats};
use tse_interconnect::TrafficReport;
use tse_memsim::{DsmSystem, HitLevel, MemStats, MissClass};
use tse_trace::store::{LoweredBlock, MappedTrace};
use tse_trace::{interleave, AccessKind, AccessRecord, SpinFilter, TraceIoError};
use tse_types::ops::{OP_DEPENDENT, OP_SPIN, OP_WRITE};
use tse_types::{ConfigError, Cycle, Line, NodeId, SystemConfig};
use tse_workloads::Workload;

/// Cycles charged for an L2 hit after out-of-order hiding (the 25-cycle
/// L2 of Table 1 is mostly covered by a 256-entry window).
const L2_CHARGE: u64 = 5;

/// One outstanding read miss in a core's window.
#[derive(Debug, Clone, Copy)]
struct Outstanding {
    complete: u64,
    insn_at_issue: u64,
    coherent: bool,
}

/// Interval model of one core.
#[derive(Debug)]
struct Core {
    t: u64,
    insns: u64,
    busy: u64,
    stall_coherent: u64,
    stall_other: u64,
    window: VecDeque<Outstanding>,
    last_read: Option<Outstanding>,
    // Consumption MLP accounting (issue-weighted).
    mlp_sum: u64,
    mlp_events: u64,
    // Config.
    width: u64,
    rob: u64,
    mshrs: usize,
}

impl Core {
    fn new(cfg: &SystemConfig) -> Self {
        Core {
            t: 0,
            insns: 0,
            busy: 0,
            stall_coherent: 0,
            stall_other: 0,
            window: VecDeque::new(),
            last_read: None,
            mlp_sum: 0,
            mlp_events: 0,
            width: cfg.issue_width as u64,
            rob: cfg.rob_entries as u64,
            mshrs: cfg.mshrs,
        }
    }

    fn work(&mut self, insns: u64) {
        let cycles = insns.div_ceil(self.width);
        self.t += cycles;
        self.busy += cycles;
        self.insns += insns;
    }

    /// Non-overlappable private execution time attached to a record
    /// (private-cache misses, dependent compute): counted as busy time —
    /// it exists with or without TSE.
    fn private_stall(&mut self, cycles: u64) {
        self.t += cycles;
        self.busy += cycles;
    }

    fn stall_until(&mut self, when: u64, coherent: bool) {
        if when > self.t {
            let d = when - self.t;
            if coherent {
                self.stall_coherent += d;
            } else {
                self.stall_other += d;
            }
            self.t = when;
        }
    }

    fn l2_hit(&mut self) {
        self.t += L2_CHARGE;
        self.stall_other += L2_CHARGE;
    }

    /// Issues a read miss through the window model.
    fn read_miss(&mut self, latency: u64, coherent: bool, dependent: bool) {
        // ROB limit: misses issued more than a window ago must retire.
        while let Some(&front) = self.window.front() {
            if self.insns - front.insn_at_issue >= self.rob {
                self.stall_until(front.complete, front.coherent);
                self.window.pop_front();
            } else {
                break;
            }
        }
        // MSHR limit.
        while self.window.len() >= self.mshrs {
            let front = self.window.pop_front().expect("nonempty");
            self.stall_until(front.complete, front.coherent);
        }
        // Address dependence on the previous read.
        if dependent {
            if let Some(prev) = self.last_read {
                self.stall_until(prev.complete, prev.coherent);
            }
        }
        let entry = Outstanding {
            complete: self.t + latency,
            insn_at_issue: self.insns,
            coherent,
        };
        if coherent {
            let outstanding = self
                .window
                .iter()
                .filter(|o| o.coherent && o.complete > self.t)
                .count() as u64;
            self.mlp_sum += outstanding + 1;
            self.mlp_events += 1;
        }
        self.window.push_back(entry);
        self.last_read = Some(entry);
    }

    /// Drains the window at the end of the run.
    fn finish(&mut self) {
        while let Some(front) = self.window.pop_front() {
            self.stall_until(front.complete, front.coherent);
        }
    }

    fn mlp(&self) -> f64 {
        if self.mlp_events == 0 {
            1.0
        } else {
            self.mlp_sum as f64 / self.mlp_events as f64
        }
    }
}

/// Result of a timing run.
///
/// `PartialEq` compares every field (including the derived floats), so
/// equality means *bit-identical* runs — the property the stored and
/// mapped replay paths guarantee against the generation path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingResult {
    /// Workload name.
    pub workload: String,
    /// Engine display name.
    pub engine_name: String,
    /// Makespan: the slowest node's measured cycles.
    pub cycles: u64,
    /// Sum over nodes of busy cycles.
    pub busy: u64,
    /// Sum over nodes of non-coherent stall cycles.
    pub other_stall: u64,
    /// Sum over nodes of coherent-read stall cycles.
    pub coherent_stall: u64,
    /// Consumption memory-level parallelism (Table 3), averaged over
    /// nodes weighted by consumption count.
    pub mlp: f64,
    /// Memory counters for the measured region.
    pub mem: MemStats,
    /// Engine counters (empty for baseline runs).
    pub engine: TseStats,
    /// Traffic for the measured region.
    pub traffic: TrafficReport,
    /// Simulated seconds of the measured region (for Figure 11's GB/s).
    pub seconds: f64,
}

impl TimingResult {
    /// Total accounted cycles (busy + stalls) across nodes.
    pub fn total_cycles(&self) -> u64 {
        self.busy + self.other_stall + self.coherent_stall
    }

    /// Fraction of time spent on coherent read stalls.
    pub fn coherent_fraction(&self) -> f64 {
        let t = self.total_cycles();
        if t == 0 {
            0.0
        } else {
            self.coherent_stall as f64 / t as f64
        }
    }

    /// Speedup of this run relative to a baseline run.
    pub fn speedup_over(&self, base: &TimingResult) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            base.cycles as f64 / self.cycles as f64
        }
    }
}

/// Runs the interval timing model over a workload: generates the trace
/// at `seed`, interleaves it, and replays it through the shared
/// interval-model core. A thin generate-then-replay wrapper —
/// replaying the same records from a [`StoredTrace`]
/// ([`run_timing_stored`]) or a mapped TSB1 file ([`run_timing_mapped`])
/// produces bit-identical results.
///
/// `engine` must be [`EngineKind::Baseline`] or [`EngineKind::Tse`];
/// the fixed-depth prefetchers are evaluated in trace mode only, as in
/// the paper.
///
/// # Errors
///
/// Returns a [`ConfigError`] for invalid configurations or a prefetcher
/// engine kind.
pub fn run_timing(
    workload: &dyn Workload,
    sys: &SystemConfig,
    engine: &EngineKind,
    seed: u64,
    warm_fraction: f64,
) -> Result<TimingResult, ConfigError> {
    let per_node = workload.generate(seed);
    let total: usize = per_node.iter().map(Vec::len).sum();
    run_timing_interleaved(
        workload.name(),
        workload.nodes(),
        total,
        interleave(per_node.into_iter().map(Vec::into_iter).collect()),
        sys,
        engine,
        warm_fraction,
    )
}

/// Replays a stored trace through the interval timing model.
///
/// Identical semantics to [`run_timing`] — warm-up boundary, spin
/// filtering, logical-clock work accounting, per-record private stalls
/// — except that the records come from `trace` rather than being
/// regenerated. Replaying a [`StoredTrace::from_workload`] trace is
/// bit-identical to `run_timing` at the same seed.
///
/// # Errors
///
/// Returns a [`ConfigError`] for invalid configurations, a prefetcher
/// engine kind, or a trace/system node-count mismatch.
pub fn run_timing_stored(
    trace: &StoredTrace,
    sys: &SystemConfig,
    engine: &EngineKind,
    warm_fraction: f64,
) -> Result<TimingResult, ConfigError> {
    run_timing_interleaved(
        trace.name(),
        trace.nodes(),
        trace.len(),
        trace.records().iter().copied(),
        sys,
        engine,
        warm_fraction,
    )
}

/// Replays a memory-mapped TSB1 trace through the timing model,
/// decoding blocks on the pool straight out of the shared mapping — the
/// same block source as [`run_trace_mapped`](crate::run_trace_mapped),
/// feeding the timing event loop instead of the trace-driven harness.
/// Bit-identical to [`run_timing_stored`] over the same file.
///
/// # Errors
///
/// [`ReplayError::Trace`] on any TSB1 structural failure;
/// [`ReplayError::Config`] for invalid configurations, a prefetcher
/// engine kind, or a trace/system node-count mismatch.
pub fn run_timing_mapped(
    name: impl Into<String>,
    trace: std::sync::Arc<MappedTrace>,
    sys: &SystemConfig,
    engine: &EngineKind,
    warm_fraction: f64,
) -> Result<TimingResult, ReplayError> {
    let nodes = mapped_node_count(&trace);
    let total = usize::try_from(trace.records()).unwrap_or(usize::MAX);
    let error: Rc<RefCell<Option<TraceIoError>>> = Rc::new(RefCell::new(None));
    let mut stream = MappedRecords::new(trace, nodes, Rc::clone(&error));
    let result = run_timing_blocks(
        &name.into(),
        nodes,
        total,
        &mut stream,
        sys,
        engine,
        warm_fraction,
    )?;
    // A trace error mid-stream ends the record iterator early; surface
    // it instead of the truncated result.
    if let Some(e) = error.borrow_mut().take() {
        return Err(e.into());
    }
    Ok(result)
}

/// Mapped timing replay of a TSB1 file, named after the file stem.
///
/// # Errors
///
/// As [`run_timing_mapped`], plus open/map failures as
/// [`ReplayError::Trace`].
pub fn run_timing_mapped_path(
    path: impl AsRef<Path>,
    sys: &SystemConfig,
    engine: &EngineKind,
    warm_fraction: f64,
) -> Result<TimingResult, ReplayError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".to_string());
    let trace = std::sync::Arc::new(MappedTrace::open(path)?);
    run_timing_mapped(name, trace, sys, engine, warm_fraction)
}

/// All mutable state of one timing run: the DSM, the optional TSE, the
/// per-node interval cores and the warm-up bookkeeping. Shared by the
/// batched block loop ([`run_timing_blocks`]) and the record-at-a-time
/// reference ([`run_timing_interleaved_reference`]), which differ only
/// in how they walk the trace.
struct TimingRun {
    dsm: DsmSystem,
    tse: Option<Box<TemporalStreamingEngine>>,
    cores: Vec<Core>,
    warm_marks: Vec<(u64, u64, u64, u64)>,
    prev_clock: Vec<u64>,
    spin_filter: SpinFilter,
}

impl TimingRun {
    fn new(
        trace_nodes: usize,
        sys: &SystemConfig,
        engine: &EngineKind,
    ) -> Result<Self, ConfigError> {
        let dsm = DsmSystem::new(sys)?;
        if trace_nodes != sys.nodes {
            return Err(ConfigError::new(format!(
                "trace is configured for {trace_nodes} nodes but the system has {}",
                sys.nodes
            )));
        }
        let tse = match engine {
            EngineKind::Baseline => None,
            EngineKind::Tse(cfg) => {
                let mut t = TemporalStreamingEngine::new(sys, cfg)?;
                t.set_timing(true);
                Some(Box::new(t))
            }
            _ => {
                return Err(ConfigError::new(
                    "timing model supports Baseline and Tse engines only",
                ))
            }
        };
        Ok(TimingRun {
            dsm,
            tse,
            cores: (0..sys.nodes).map(|_| Core::new(sys)).collect(),
            warm_marks: vec![(0, 0, 0, 0); sys.nodes],
            prev_clock: vec![0; sys.nodes],
            spin_filter: SpinFilter::new(sys.nodes),
        })
    }

    /// Warm-up boundary: caches, CMOBs and core clocks stay warm;
    /// counters restart (the paper's measurement discipline).
    fn warm_reset(&mut self) {
        self.dsm.reset_stats();
        if let Some(t) = self.tse.as_mut() {
            t.reset_stats();
        }
        for (n, core) in self.cores.iter_mut().enumerate() {
            core.mlp_sum = 0;
            core.mlp_events = 0;
            self.warm_marks[n] = (core.t, core.busy, core.stall_other, core.stall_coherent);
        }
    }

    /// Advances logical-clock work and private stall for one record's
    /// slot, returning the node's physical time afterwards.
    #[inline]
    fn advance_clock(&mut self, n: usize, clock: u64, stall: u32) -> Cycle {
        let work = clock.saturating_sub(self.prev_clock[n]);
        self.prev_clock[n] = clock;
        self.cores[n].work(work);
        if stall > 0 {
            self.cores[n].private_stall(u64::from(stall));
        }
        Cycle::new(self.cores[n].t)
    }

    /// The timing event sequence for one read that missed the L1 and
    /// L2 (SVB probe, miss classification, interval-model issue).
    fn read_miss_event(&mut self, node: NodeId, line: Line, now: Cycle, spin: bool, dep: bool) {
        if let Some(t) = self.tse.as_mut() {
            if let Some(hit) = t.demand_read(&mut self.dsm, node, line, now) {
                if hit.ready_at > now {
                    // Partially covered: the access behaves like a miss
                    // whose latency is the residual flight time
                    // (overlapping with other accesses exactly as a
                    // demand miss would).
                    let residual = (hit.ready_at - now).raw().min(hit.full_latency.raw());
                    self.cores[node.index()].read_miss(residual, true, dep);
                }
                return;
            }
        }
        let miss = self.dsm.read_miss(node, line);
        let latency = self.dsm.fill_latency(node, miss.fill).raw();
        let is_coh = miss.class == MissClass::Coherence;
        let spin = is_coh && (spin || self.spin_filter.is_spin(node, line));
        let consumption = is_coh && !spin;
        self.cores[node.index()].read_miss(latency, consumption, dep);
        if let Some(t) = self.tse.as_mut() {
            if consumption {
                t.consumption_miss(&mut self.dsm, node, line, now);
            } else {
                t.observe_miss(&mut self.dsm, node, line, now);
            }
        }
    }

    /// One record of the record-at-a-time reference loop.
    fn step(&mut self, rec: &AccessRecord) {
        let n = rec.node.index();
        let now = self.advance_clock(n, rec.clock, rec.private_stall);
        match rec.kind {
            AccessKind::Write => {
                self.dsm.write(rec.node, rec.line);
                if let Some(t) = self.tse.as_mut() {
                    t.write(&mut self.dsm, rec.line);
                }
                // Stores retire through the store buffer; with the
                // paper's aggressive TSO implementation their latency is
                // fully hidden.
            }
            AccessKind::Read => {
                self.dsm.count_read();
                match self.dsm.probe_local(rec.node, rec.line) {
                    Some(HitLevel::L1) => {}
                    Some(HitLevel::L2) => self.cores[n].l2_hit(),
                    None => self.read_miss_event(rec.node, rec.line, now, rec.spin, rec.dependent),
                }
            }
        }
    }

    /// One lowered slice of the batched block loop. Per-record clock
    /// work and private stalls are preserved exactly (the interval
    /// model's `div_ceil` rounding is per record), but dispatch and
    /// probes batch: the kernel columns drive a dispatch-free loop, and
    /// same-node same-line read runs collapse into one resolved head
    /// plus a batched L1 probe — tail reads are guaranteed L1 hits,
    /// which the timing model charges nothing for.
    fn advance_slice(&mut self, lowered: &LoweredBlock) {
        let (ops, nodes, lines) = (lowered.ops(), lowered.nodes(), lowered.lines());
        let (clocks, stalls) = (lowered.clocks(), lowered.stalls());
        let mut i = 0usize;
        while i < ops.len() {
            let n = usize::from(nodes[i]);
            let node = NodeId::new(nodes[i]);
            let line = Line::new(lines[i]);
            let now = self.advance_clock(n, clocks[i], stalls[i]);
            if ops[i] & OP_WRITE != 0 {
                self.dsm.write(node, line);
                if let Some(t) = self.tse.as_mut() {
                    t.write(&mut self.dsm, line);
                }
                i += 1;
                continue;
            }
            let j = crate::kernel::run_end(ops, nodes, lines, i);
            self.dsm.count_read();
            match self.dsm.probe_local(node, line) {
                Some(HitLevel::L1) => {}
                Some(HitLevel::L2) => self.cores[n].l2_hit(),
                None => self.read_miss_event(
                    node,
                    line,
                    now,
                    ops[i] & OP_SPIN != 0,
                    ops[i] & OP_DEPENDENT != 0,
                ),
            }
            for k in (i + 1)..j {
                self.advance_clock(n, clocks[k], stalls[k]);
            }
            if j - i > 1 {
                self.dsm.probe_repeat(node, line, (j - i - 1) as u64);
            }
            i = j;
        }
    }

    /// Drains the cores and assembles the [`TimingResult`].
    fn finish(mut self, name: &str, engine: &EngineKind, sys: &SystemConfig) -> TimingResult {
        for core in self.cores.iter_mut() {
            core.finish();
        }
        let engine_stats = match self.tse {
            Some(mut t) => {
                t.finish(&mut self.dsm);
                t.stats().clone()
            }
            None => TseStats::default(),
        };

        let mut busy = 0;
        let mut other = 0;
        let mut coh = 0;
        let mut makespan = 0;
        let mut mlp_sum = 0.0;
        let mut mlp_w = 0u64;
        for (core, mark) in self.cores.iter().zip(&self.warm_marks) {
            makespan = makespan.max(core.t - mark.0);
            busy += core.busy - mark.1;
            other += core.stall_other - mark.2;
            coh += core.stall_coherent - mark.3;
            mlp_sum += core.mlp() * core.mlp_events as f64;
            mlp_w += core.mlp_events;
        }
        let mlp = if mlp_w == 0 {
            1.0
        } else {
            mlp_sum / mlp_w as f64
        };

        TimingResult {
            workload: name.to_string(),
            engine_name: match engine {
                EngineKind::Baseline => "base".to_string(),
                _ => "TSE".to_string(),
            },
            cycles: makespan,
            busy,
            other_stall: other,
            coherent_stall: coh,
            mlp,
            mem: *self.dsm.stats(),
            engine: engine_stats,
            traffic: self.dsm.traffic().report(),
            seconds: sys.cycles_to_seconds(Cycle::new(makespan)),
        }
    }
}

/// The batched timing core: pulls blocks, lowers them, and executes
/// each through [`TimingRun::advance_slice`]. All timing entry points
/// (generate, stored, mapped) route here; blocks straddling
/// the warm-up boundary split so counter resets land exactly between
/// the same two records as in the reference loop.
fn run_timing_blocks(
    name: &str,
    trace_nodes: usize,
    total: usize,
    src: &mut dyn crate::kernel::BlockSource,
    sys: &SystemConfig,
    engine: &EngineKind,
    warm_fraction: f64,
) -> Result<TimingResult, ConfigError> {
    let mut run = TimingRun::new(trace_nodes, sys, engine)?;
    let warm_records = (total as f64 * warm_fraction) as usize;
    let mut processed = 0usize;
    let mut lowered = LoweredBlock::new();

    while let Some(block) = src.next_block() {
        let mut start = 0usize;
        while start < block.len() {
            let end = if processed < warm_records {
                block.len().min(start + (warm_records - processed))
            } else {
                block.len()
            };
            let slice = &block[start..end];
            start = end;
            if processed == warm_records {
                run.warm_reset();
            }
            processed += slice.len();
            lowered.clear();
            lowered.lower_records(slice);
            run.advance_slice(&lowered);
        }
    }

    Ok(run.finish(name, engine, sys))
}

/// The timing event loop shared by [`run_timing`] (generate) and
/// [`run_timing_stored`] (in-memory replay): drives coherence + TSE state in logical-clock
/// order while each node's physical time advances through the interval
/// model, block-at-a-time through the batched kernel.
pub(crate) fn run_timing_interleaved(
    name: &str,
    trace_nodes: usize,
    total: usize,
    records: impl Iterator<Item = AccessRecord>,
    sys: &SystemConfig,
    engine: &EngineKind,
    warm_fraction: f64,
) -> Result<TimingResult, ConfigError> {
    let mut src = crate::kernel::IterBlocks::new(records);
    run_timing_blocks(
        name,
        trace_nodes,
        total,
        &mut src,
        sys,
        engine,
        warm_fraction,
    )
}

/// The record-at-a-time interpretation of the timing semantics, kept as
/// the executable specification the batched kernel is asserted
/// bit-identical against (`tests/batched_equivalence.rs`). Not part of
/// the public API.
#[doc(hidden)]
pub fn run_timing_interleaved_reference(
    name: &str,
    trace_nodes: usize,
    total: usize,
    records: impl Iterator<Item = AccessRecord>,
    sys: &SystemConfig,
    engine: &EngineKind,
    warm_fraction: f64,
) -> Result<TimingResult, ConfigError> {
    let mut run = TimingRun::new(trace_nodes, sys, engine)?;
    let warm_records = (total as f64 * warm_fraction) as usize;
    for (processed, rec) in records.enumerate() {
        if processed == warm_records {
            run.warm_reset();
        }
        run.step(&rec);
    }
    Ok(run.finish(name, engine, sys))
}

/// [`run_timing_stored`] through the record-at-a-time reference loop —
/// the executable specification the batched kernel is asserted
/// bit-identical against. Not part of the public API.
#[doc(hidden)]
pub fn run_timing_stored_reference(
    trace: &StoredTrace,
    sys: &SystemConfig,
    engine: &EngineKind,
    warm_fraction: f64,
) -> Result<TimingResult, ConfigError> {
    run_timing_interleaved_reference(
        trace.name(),
        trace.nodes(),
        trace.len(),
        trace.records().iter().copied(),
        sys,
        engine,
        warm_fraction,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_types::TseConfig;
    use tse_workloads::{Em3d, Ocean, OltpFlavor, Tpcc};

    fn sys() -> SystemConfig {
        SystemConfig::default()
    }

    #[test]
    fn baseline_em3d_is_coherence_bound() {
        let r = run_timing(&Em3d::scaled(0.03), &sys(), &EngineKind::Baseline, 1, 0.15).unwrap();
        assert!(r.cycles > 0);
        assert!(
            r.coherent_fraction() > 0.3,
            "em3d should be communication bound, got {:.2}",
            r.coherent_fraction()
        );
    }

    #[test]
    fn tse_speeds_up_em3d() {
        let wl = Em3d::scaled(0.03);
        let base = run_timing(&wl, &sys(), &EngineKind::Baseline, 1, 0.15).unwrap();
        let tse = run_timing(
            &wl,
            &sys(),
            &EngineKind::Tse(TseConfig::builder().lookahead(18).build().unwrap()),
            1,
            0.15,
        )
        .unwrap();
        let speedup = tse.speedup_over(&base);
        assert!(speedup > 1.3, "em3d speedup {speedup:.2} too small");
        assert!(
            tse.coherent_stall < base.coherent_stall,
            "TSE must cut coherent stalls"
        );
    }

    #[test]
    fn oltp_mlp_is_low_and_ocean_mlp_is_high() {
        let oltp = run_timing(
            &Tpcc::scaled(OltpFlavor::Db2, 0.08),
            &sys(),
            &EngineKind::Baseline,
            1,
            0.15,
        )
        .unwrap();
        let ocean =
            run_timing(&Ocean::scaled(0.5), &sys(), &EngineKind::Baseline, 1, 0.15).unwrap();
        assert!(
            oltp.mlp < 2.0,
            "OLTP consumptions are serial, got MLP {:.2}",
            oltp.mlp
        );
        assert!(
            ocean.mlp > 3.0,
            "ocean consumptions are bursty, got MLP {:.2}",
            ocean.mlp
        );
        assert!(ocean.mlp > oltp.mlp);
    }

    #[test]
    fn tse_timing_produces_partial_coverage_for_ocean() {
        let wl = Ocean::scaled(0.5);
        let tse = run_timing(
            &wl,
            &sys(),
            &EngineKind::Tse(TseConfig::builder().lookahead(24).build().unwrap()),
            1,
            0.15,
        )
        .unwrap();
        assert!(
            tse.engine.partial_covered > 0,
            "bursty ocean must show in-flight (partial) hits"
        );
    }

    #[test]
    fn prefetcher_engines_are_rejected() {
        let r = run_timing(
            &Em3d::scaled(0.02),
            &sys(),
            &EngineKind::Stride {
                depth: 8,
                buffer: Some(32),
            },
            1,
            0.0,
        );
        assert!(r.is_err());
    }

    #[test]
    fn breakdown_sums_match_time_accounting() {
        let r = run_timing(&Em3d::scaled(0.02), &sys(), &EngineKind::Baseline, 1, 0.0).unwrap();
        // Every node's t equals busy + stalls; summed equality holds.
        assert!(r.total_cycles() > 0);
        assert!(r.busy > 0);
        // Makespan cannot exceed the total over nodes.
        assert!(r.cycles <= r.total_cycles());
    }

    #[test]
    fn seconds_follow_clock_rate() {
        let r = run_timing(&Em3d::scaled(0.02), &sys(), &EngineKind::Baseline, 1, 0.0).unwrap();
        let expect = r.cycles as f64 / 4e9;
        assert!((r.seconds - expect).abs() < 1e-12);
    }
}
