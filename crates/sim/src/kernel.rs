//! The batched replay kernel: block-at-a-time execution over lowered
//! record batches.
//!
//! The record-at-a-time loop (retained as
//! [`run_interleaved_reference`](crate::run_interleaved_reference))
//! dispatches on every record: an engine-enum match, field loads
//! scattered across an array-of-structs record, and a set-associative
//! probe per access. This module restructures replay into three
//! batched phases per block:
//!
//! 1. **Lower** — a block of records becomes parallel
//!    structure-of-arrays columns
//!    ([`LoweredBlock`](tse_trace::store::LoweredBlock)): one op byte
//!    ([`tse_types::ops`]) plus node/line/clock/stall columns, so the
//!    hot loop walks dense arrays with no per-record dispatch.
//! 2. **Execute** — the engine match is hoisted out of the record loop;
//!    each engine gets a straight-line loop over the columns. Maximal
//!    same-node same-line read runs collapse into one fully resolved
//!    head access plus a single batched L1 probe
//!    ([`DsmSystem::probe_repeat`]), sound because every head
//!    resolution path — local hit, SVB hit (which installs), miss fill
//!    — leaves the line L1-resident and MRU, so the tail accesses are
//!    guaranteed L1 hits whose only observable effect is the probe
//!    count and LRU touch.
//! 3. **Flush** — block-local counters (spin misses, uncovered
//!    consumptions) accumulate in scalars and fold into the run totals
//!    once per slice; interconnect byte counters accumulate in the
//!    DSM's [`tse_interconnect::TrafficScratch`] and flush at report
//!    time.
//!
//! The warm-up boundary is honoured by splitting the block that
//! straddles it, so counter resets land exactly between the same two
//! records as in the reference loop, and results stay bit-identical
//! (`tests/batched_equivalence.rs` asserts this per engine, plus a
//! property test over random traces).

use crate::harness::{build_engine, finish_run, spin_filtering_for, Engine, Prefetchers};
use crate::{RunConfig, RunResult, StreamScope};
use tse_core::TseStats;
use tse_interconnect::TrafficClass;
use tse_memsim::{DsmSystem, MissClass};
use tse_trace::store::LoweredBlock;
use tse_trace::{AccessRecord, Consumption, SpinFilter};
use tse_types::ops::{OP_SPIN, OP_WRITE};
use tse_types::{ConfigError, Cycle, Line, NodeId};

/// Records per kernel block when the source has no natural block
/// granularity (in-memory slices, generator iterators). Matches the
/// TSB1 block length so every replay path lowers equally sized batches.
pub(crate) const BLOCK_RECORDS: usize = tse_trace::store::DEFAULT_BLOCK_LEN as usize;

/// A supplier of record blocks in global trace order.
///
/// The kernel pulls blocks until `None`; sources that can fail (mapped
/// TSB1 decode) report errors out of band and end the stream early.
pub(crate) trait BlockSource {
    /// The next block of records, or `None` at end of stream (or after
    /// a source error).
    fn next_block(&mut self) -> Option<&[AccessRecord]>;
}

/// Blocks carved out of an in-memory record slice — the zero-copy
/// source behind [`crate::run_trace_stored`].
pub(crate) struct SliceBlocks<'a> {
    records: &'a [AccessRecord],
    pos: usize,
}

impl<'a> SliceBlocks<'a> {
    pub(crate) fn new(records: &'a [AccessRecord]) -> Self {
        SliceBlocks { records, pos: 0 }
    }
}

impl BlockSource for SliceBlocks<'_> {
    fn next_block(&mut self) -> Option<&[AccessRecord]> {
        if self.pos >= self.records.len() {
            return None;
        }
        let end = self.records.len().min(self.pos + BLOCK_RECORDS);
        let block = &self.records[self.pos..end];
        self.pos = end;
        Some(block)
    }
}

/// Blocks buffered off an arbitrary record iterator — the source behind
/// the generate-then-replay path, where records stream out of the
/// workload interleaver.
pub(crate) struct IterBlocks<I> {
    iter: I,
    buf: Vec<AccessRecord>,
}

impl<I: Iterator<Item = AccessRecord>> IterBlocks<I> {
    pub(crate) fn new(iter: I) -> Self {
        IterBlocks {
            iter,
            buf: Vec::with_capacity(BLOCK_RECORDS),
        }
    }
}

impl<I: Iterator<Item = AccessRecord>> BlockSource for IterBlocks<I> {
    fn next_block(&mut self) -> Option<&[AccessRecord]> {
        self.buf.clear();
        while self.buf.len() < BLOCK_RECORDS {
            match self.iter.next() {
                Some(rec) => self.buf.push(rec),
                None => break,
            }
        }
        if self.buf.is_empty() {
            None
        } else {
            Some(&self.buf)
        }
    }
}

/// End (exclusive) of the maximal same-node same-line read run starting
/// at `i`. The head access resolves in full; the tail is booked as one
/// batched L1 probe.
#[inline]
pub(crate) fn run_end(ops: &[u8], nodes: &[u16], lines: &[u64], i: usize) -> usize {
    let mut j = i + 1;
    while j < ops.len() && ops[j] & OP_WRITE == 0 && nodes[j] == nodes[i] && lines[j] == lines[i] {
        j += 1;
    }
    j
}

/// The batched replay core: pulls blocks, lowers them, and executes
/// each through the engine-specific slice loop. All three trace-driven
/// entry points (generate, stored, mapped) route here.
pub(crate) fn run_blocks(
    name: &str,
    trace_nodes: usize,
    total: usize,
    src: &mut dyn BlockSource,
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
    let all_reads = matches!(cfg.stream_scope, StreamScope::AllReads);
    let mut spin_filter = SpinFilter::new(nodes);
    let mut baseline_stats = TseStats::default();
    let mut consumptions = Vec::new();
    let mut spin_misses = 0u64;
    let mut processed = 0usize;
    let mut measured_records = 0u64;
    let mut lowered = LoweredBlock::new();

    while let Some(block) = src.next_block() {
        let mut start = 0usize;
        while start < block.len() {
            // A slice never straddles the warm-up boundary, so one
            // measuring flag covers the whole slice and the counter
            // reset lands exactly between the same two records as in
            // the record-at-a-time reference.
            let end = if processed < warm_records {
                block.len().min(start + (warm_records - processed))
            } else {
                block.len()
            };
            let slice = &block[start..end];
            start = end;
            if processed == warm_records {
                dsm.reset_stats();
                if let Engine::Tse(tse) = &mut engine {
                    tse.reset_stats();
                }
                baseline_stats = TseStats::default();
                spin_misses = 0;
            }
            let measuring = processed >= warm_records;
            processed += slice.len();
            if measuring {
                measured_records += slice.len() as u64;
            }

            lowered.clear();
            lowered.lower_records(slice);

            spin_misses += match &mut engine {
                Engine::Baseline => baseline_slice(
                    &mut dsm,
                    &mut spin_filter,
                    &mut baseline_stats,
                    &lowered,
                    cfg.collect_consumptions && measuring,
                    &mut consumptions,
                ),
                Engine::Tse(tse) => tse.advance_block(
                    &mut dsm,
                    lowered.ops(),
                    lowered.nodes(),
                    lowered.lines(),
                    all_reads,
                    spin_filtering,
                    &mut |n, l| spin_filter.is_spin(n, l),
                ),
                Engine::Prefetch(pf) => prefetch_slice(
                    &mut dsm,
                    pf,
                    &mut spin_filter,
                    &mut baseline_stats,
                    &lowered,
                ),
            };
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

/// Baseline slice loop: no engine beside the hierarchy, coherent read
/// misses classified as spins or consumptions (the latter optionally
/// captured). Returns the slice's spin-miss count; `uncovered` flushes
/// into `stats` once at the end of the slice.
fn baseline_slice(
    dsm: &mut DsmSystem,
    spin_filter: &mut SpinFilter,
    stats: &mut TseStats,
    lowered: &LoweredBlock,
    collecting: bool,
    consumptions: &mut Vec<Consumption>,
) -> u64 {
    let (ops, nodes, lines) = (lowered.ops(), lowered.nodes(), lowered.lines());
    let clocks = lowered.clocks();
    let mut spins = 0u64;
    let mut uncovered = 0u64;
    let mut i = 0usize;
    while i < ops.len() {
        let node = NodeId::new(nodes[i]);
        let line = Line::new(lines[i]);
        if ops[i] & OP_WRITE != 0 {
            dsm.write(node, line);
            i += 1;
            continue;
        }
        let j = run_end(ops, nodes, lines, i);
        dsm.count_read();
        if dsm.probe_local(node, line).is_none() {
            let miss = dsm.read_miss(node, line);
            if miss.class == MissClass::Coherence {
                let spin = ops[i] & OP_SPIN != 0 || spin_filter.is_spin(node, line);
                if spin {
                    spins += 1;
                } else {
                    uncovered += 1;
                    if collecting {
                        consumptions.push(Consumption {
                            node,
                            line,
                            clock: clocks[i],
                            global_seq: miss.global_seq,
                        });
                    }
                }
            }
        }
        if j - i > 1 {
            dsm.probe_repeat(node, line, (j - i - 1) as u64);
        }
        i = j;
    }
    stats.uncovered += uncovered;
    spins
}

/// Fixed-depth prefetcher slice loop (stride / GHB baselines of Section
/// 5.5): per-node predictor plus an SVB-equivalent buffer, fetching
/// only in response to misses. Returns the slice's spin-miss count.
fn prefetch_slice(
    dsm: &mut DsmSystem,
    pf: &mut Prefetchers,
    spin_filter: &mut SpinFilter,
    stats: &mut TseStats,
    lowered: &LoweredBlock,
) -> u64 {
    let (ops, nodes, lines) = (lowered.ops(), lowered.nodes(), lowered.lines());
    let mut spins = 0u64;
    let mut i = 0usize;
    while i < ops.len() {
        let node = NodeId::new(nodes[i]);
        let line = Line::new(lines[i]);
        if ops[i] & OP_WRITE != 0 {
            dsm.write(node, line);
            pf.write(dsm, stats, line);
            i += 1;
            continue;
        }
        let j = run_end(ops, nodes, lines, i);
        dsm.count_read();
        if dsm.probe_local(node, line).is_none() {
            let n = node.index();
            if let Some(entry) = pf.buffers.take(node, line) {
                // Prefetch-buffer hit: a covered consumption. Train
                // (keep history contiguous) but do not chain:
                // fixed-depth engines fetch only in response to misses.
                stats.covered += 1;
                dsm.account_fill_traffic(node, entry.fill, TrafficClass::Demand);
                dsm.install(node, line);
                let _ = pf.predictors[n].on_miss(line);
            } else {
                let miss = dsm.read_miss(node, line);
                if miss.class == MissClass::Coherence {
                    let spin = ops[i] & OP_SPIN != 0 || spin_filter.is_spin(node, line);
                    if spin {
                        spins += 1;
                    } else {
                        stats.uncovered += 1;
                        let predicted = pf.predictors[n].on_miss(line);
                        for pline in predicted {
                            if dsm.peek_local(node, pline) || pf.buffers.contains(node, pline) {
                                stats.skipped_fetches += 1;
                                continue;
                            }
                            let fill = dsm.stream_fetch(node, pline);
                            stats.fetched += 1;
                            if let Some(victim) =
                                pf.buffers.insert(node, pline, 0, fill, Cycle::ZERO)
                            {
                                stats.discarded += 1;
                                dsm.account_fill_traffic(
                                    node,
                                    victim.fill,
                                    TrafficClass::DiscardedData,
                                );
                                dsm.drop_sharer(node, victim.line);
                            }
                        }
                    }
                }
            }
        }
        if j - i > 1 {
            dsm.probe_repeat(node, line, (j - i - 1) as u64);
        }
        i = j;
    }
    spins
}
