//! The system-wide Temporal Streaming Engine.

use crate::{Cmob, CmobPtr, DirectoryPointers, Pop, StreamQueue, SvbEntry, SvbSet, TseStats};
use tse_interconnect::TrafficClass;
use tse_memsim::{DsmSystem, FastHashMap, MissClass};
use tse_types::ops::{OP_SPIN, OP_WRITE};
use tse_types::{ConfigError, Cycle, Line, NodeId, SystemConfig, TseConfig};

/// Hard ceiling on stream queues when the configuration asks for
/// "unlimited": stalled queues that are never resolved would otherwise
/// accumulate without bound. Far above the paper's sensitivity range.
const UNLIMITED_QUEUE_CAP: usize = 512;

/// Stack budget for the per-miss candidate-queue list. More queues than
/// this sharing one head line is pathological; the (correct but slower)
/// full scan handles the overflow.
const MISS_CANDIDATES: usize = 16;

/// Result of a demand read that hit in the SVB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvbHit {
    /// When the streamed data arrives. In timing mode, a hit with
    /// `ready_at` in the future is *partially* covered: the processor
    /// still stalls for the residual latency.
    pub ready_at: Cycle,
    /// The full fill latency this consumption would have paid unstreamed.
    pub full_latency: Cycle,
}

/// Per-node stream engine state: the node's CMOB, its stream queues,
/// and the lookup maps that keep the per-miss and per-hit paths O(1)
/// instead of scanning every queue.
///
/// Every per-node component except the SVB lives in exactly one of
/// these, mirroring the DSM's per-node cache state. The SVBs live
/// together in the engine's [`SvbSet`], whose residency index lets a
/// write find every buffered copy of a line without probing each node.
#[derive(Debug)]
struct EngineNode {
    cmob: Cmob,
    queues: Vec<StreamQueue>,
    /// Queue id → current position in `queues`, maintained across
    /// `swap_remove` evictions (SVB hits resolve their owning queue
    /// through this instead of a linear id scan).
    qindex: FastHashMap<u64, usize>,
    /// FIFO head line → ids of queues currently exposing it. A demand
    /// miss consults this to find the queues it could resolve or
    /// advance, replacing the per-miss scan over all queues.
    head_index: FastHashMap<Line, Vec<u64>>,
    /// Queue id → the head lines last published into `head_index`
    /// (the diff base for incremental index maintenance).
    head_cache: FastHashMap<u64, Vec<Line>>,
    /// Reusable scratch for head-set recomputation.
    head_scratch: Vec<Line>,
}

impl EngineNode {
    fn new(cmob_capacity: usize) -> Self {
        EngineNode {
            cmob: Cmob::new(cmob_capacity),
            queues: Vec::new(),
            qindex: FastHashMap::default(),
            head_index: FastHashMap::default(),
            head_cache: FastHashMap::default(),
            head_scratch: Vec::new(),
        }
    }

    /// Appends a queue, registering it in the id→index map. Its head
    /// lines are published by the next `sync_heads` call.
    fn push_queue(&mut self, q: StreamQueue) -> usize {
        let idx = self.queues.len();
        self.qindex.insert(q.id(), idx);
        self.queues.push(q);
        idx
    }

    /// Removes the queue at `idx` (swap-remove), fixing the id→index
    /// entry of the queue that takes its slot and unpublishing its head
    /// lines.
    fn remove_queue(&mut self, idx: usize) -> StreamQueue {
        let q = self.queues.swap_remove(idx);
        self.qindex.remove(&q.id());
        if let Some(moved) = self.queues.get(idx) {
            self.qindex.insert(moved.id(), idx);
        }
        if let Some(heads) = self.head_cache.remove(&q.id()) {
            for h in heads {
                unpublish(&mut self.head_index, h, q.id());
            }
        }
        q
    }

    /// Re-derives the queue's current head lines and applies the diff
    /// against its last-published set to the head-line index.
    fn sync_heads(&mut self, idx: usize) {
        let q = &self.queues[idx];
        let qid = q.id();
        let mut new_heads = std::mem::take(&mut self.head_scratch);
        new_heads.clear();
        q.collect_heads(&mut new_heads);
        let old = self.head_cache.entry(qid).or_default();
        for &h in old.iter() {
            if !new_heads.contains(&h) {
                unpublish(&mut self.head_index, h, qid);
            }
        }
        for &h in new_heads.iter() {
            if !old.contains(&h) {
                self.head_index.entry(h).or_default().push(qid);
            }
        }
        std::mem::swap(old, &mut new_heads);
        self.head_scratch = new_heads;
    }
}

/// Drops `qid` from the index entry for head line `h`.
fn unpublish(head_index: &mut FastHashMap<Line, Vec<u64>>, h: Line, qid: u64) {
    if let Some(v) = head_index.get_mut(&h) {
        if let Some(p) = v.iter().position(|&x| x == qid) {
            v.swap_remove(p);
        }
        if v.is_empty() {
            head_index.remove(&h);
        }
    }
}

/// The Temporal Streaming Engine, coordinating every node's CMOB, stream
/// engine and SVB with the directory's CMOB pointers (Section 3 of the
/// paper).
///
/// The engine is driven by the simulation harness around three events:
///
/// 1. [`demand_read`] — a read missed the local hierarchy; probe the SVB.
///    On a hit the block moves to L1, the address is recorded in the
///    CMOB, and the stream advances (consumption-rate matching).
/// 2. [`consumption_miss`] — an uncovered coherent read miss; record the
///    order, resolve stalled comparators, and launch a new stream from
///    the directory's CMOB pointers.
/// 3. [`write`] — any processor wrote a line; all SVB copies invalidate.
///
/// Call [`finish`] at the end of a run to drain residual streamed blocks
/// into the discard accounting.
///
/// [`demand_read`]: TemporalStreamingEngine::demand_read
/// [`consumption_miss`]: TemporalStreamingEngine::consumption_miss
/// [`write`]: TemporalStreamingEngine::write
/// [`finish`]: TemporalStreamingEngine::finish
///
/// # Example
///
/// ```
/// use tse_core::TemporalStreamingEngine;
/// use tse_memsim::DsmSystem;
/// use tse_types::{Cycle, Line, NodeId, SystemConfig, TseConfig};
///
/// let cfg = SystemConfig::default();
/// let mut dsm = DsmSystem::new(&cfg)?;
/// let mut tse = TemporalStreamingEngine::new(&cfg, &TseConfig::default())?;
///
/// // Node 0 consumes lines 1,2,3 (written by node 1), recording its order.
/// for l in [1u64, 2, 3] {
///     dsm.write(NodeId::new(1), Line::new(l));
/// }
/// for l in [1u64, 2, 3] {
///     dsm.read(NodeId::new(0), Line::new(l));
///     tse.consumption_miss(&mut dsm, NodeId::new(0), Line::new(l), Cycle::ZERO);
/// }
/// # Ok::<(), tse_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct TemporalStreamingEngine {
    tse_cfg: TseConfig,
    sys_cfg: SystemConfig,
    pointers: DirectoryPointers,
    nodes: Vec<EngineNode>,
    svbs: SvbSet,
    stats: TseStats,
    next_qid: u64,
    lru_tick: u64,
    timing: bool,
    /// Reusable per-miss buffer for the directory pointers of the missed
    /// line (the hot consumption path must not allocate).
    ptr_scratch: Vec<CmobPtr>,
}

impl TemporalStreamingEngine {
    /// Builds an engine for the given system and TSE configurations.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if either configuration is invalid.
    pub fn new(sys: &SystemConfig, tse: &TseConfig) -> Result<Self, ConfigError> {
        sys.validate()?;
        tse.validate()?;
        let nodes = (0..sys.nodes)
            .map(|_| EngineNode::new(tse.cmob_capacity))
            .collect();
        Ok(TemporalStreamingEngine {
            pointers: DirectoryPointers::new(tse.directory_pointers),
            nodes,
            svbs: SvbSet::new(sys.nodes, tse.svb_entries),
            stats: TseStats::default(),
            next_qid: 0,
            lru_tick: 0,
            timing: false,
            ptr_scratch: Vec::new(),
            tse_cfg: tse.clone(),
            sys_cfg: sys.clone(),
        })
    }

    /// Enables timing mode: SVB hits whose data has not yet arrived count
    /// as partial coverage, and fetch arrival times are computed from the
    /// fill path latency.
    pub fn set_timing(&mut self, timing: bool) {
        self.timing = timing;
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &TseStats {
        &self.stats
    }

    /// Zeroes the counters while keeping all architectural state (CMOB
    /// contents, directory pointers, SVB residents, live queues). Used at
    /// the warm-up/measurement boundary, as in the paper's methodology.
    pub fn reset_stats(&mut self) {
        self.stats = TseStats::default();
    }

    /// The engine configuration.
    pub fn config(&self) -> &TseConfig {
        &self.tse_cfg
    }

    /// A node's CMOB (for inspection/tests).
    pub fn cmob(&self, node: NodeId) -> &Cmob {
        &self.nodes[node.index()].cmob
    }

    /// The directory pointer extension (for inspection/tests).
    pub fn pointers(&self) -> &DirectoryPointers {
        &self.pointers
    }

    /// Number of live stream queues at `node`.
    pub fn queue_count(&self, node: NodeId) -> usize {
        self.nodes[node.index()].queues.len()
    }

    /// Whether `node`'s SVB currently holds `line`.
    pub fn svb_contains(&self, node: NodeId, line: Line) -> bool {
        self.svbs.contains(node, line)
    }

    // ------------------------------------------------------------------
    // Event: demand read missed the hierarchy — probe the SVB
    // ------------------------------------------------------------------

    /// Probes `node`'s SVB for a demand read that missed L1/L2. On a hit:
    /// installs the block into the hierarchy, accounts its fetch as
    /// demand traffic, records the address in the CMOB (useful streamed
    /// blocks replace the misses they eliminated), and advances the
    /// owning stream queue by one block.
    ///
    /// Returns `None` on an SVB miss; the caller should perform the
    /// demand miss and, if it is a consumption, call
    /// [`TemporalStreamingEngine::consumption_miss`].
    pub fn demand_read(
        &mut self,
        dsm: &mut DsmSystem,
        node: NodeId,
        line: Line,
        now: Cycle,
    ) -> Option<SvbHit> {
        let n = node.index();
        let entry = self.svbs.take(node, line)?;

        self.stats.covered += 1;
        dsm.account_fill_traffic(node, entry.fill, TrafficClass::Demand);
        dsm.install(node, line);
        self.record_order(dsm, node, line);

        let full_latency = dsm.fill_latency(node, entry.fill);
        if self.timing && entry.ready_at > now {
            self.stats.partial_covered += 1;
            let residual = entry.ready_at - now;
            self.stats.partial_residual_cycles += residual.raw().min(full_latency.raw());
            self.stats.partial_full_cycles += full_latency.raw();
        }

        // Consumption-rate matching: retrieve the next block of the stream.
        if let Some(&qidx) = self.nodes[n].qindex.get(&entry.queue) {
            self.lru_tick += 1;
            let q = &mut self.nodes[n].queues[qidx];
            q.hits += 1;
            q.outstanding = q.outstanding.saturating_sub(1);
            q.last_active = self.lru_tick;
            self.advance_queue(dsm, node, qidx, now);
        }

        Some(SvbHit {
            ready_at: entry.ready_at,
            full_latency,
        })
    }

    // ------------------------------------------------------------------
    // Batched block advance
    // ------------------------------------------------------------------

    /// Drives the engine and DSM over one lowered block of accesses:
    /// the batch-execution equivalent of the record-at-a-time event
    /// sequence (`write`, probe, [`TemporalStreamingEngine::demand_read`],
    /// [`TemporalStreamingEngine::consumption_miss`] /
    /// [`TemporalStreamingEngine::observe_miss`]), with identical
    /// observable state and statistics.
    ///
    /// The three parallel columns are a block's per-record op bits
    /// ([`tse_types::ops`]), node indices and line addresses. `all_reads`
    /// widens the streamed scope from coherent reads to every read miss;
    /// `spin_filtering` gates the spin heuristics, and `is_spin` is the
    /// caller's (stateful) spin filter — it is invoked with exactly the
    /// short-circuit pattern of the interpretive loop, so a filter that
    /// mutates on every call sees the same call sequence.
    ///
    /// Consecutive same-node reads of one line collapse: after the head
    /// access resolves — local hit, SVB hit (which installs), or miss
    /// fill — the line is L1-resident and MRU, so the tail is booked as
    /// one batched L1 probe ([`DsmSystem::probe_repeat`]) without
    /// re-dispatching per record.
    ///
    /// Returns the number of spin-filtered misses in the block.
    // The parallel columns stay separate slices: this crate cannot see
    // the trace plane's `LoweredBlock`, and a core-side bundle struct
    // would just restate the three borrows.
    #[allow(clippy::too_many_arguments)]
    pub fn advance_block(
        &mut self,
        dsm: &mut DsmSystem,
        ops: &[u8],
        nodes: &[u16],
        lines: &[u64],
        all_reads: bool,
        spin_filtering: bool,
        is_spin: &mut dyn FnMut(NodeId, Line) -> bool,
    ) -> u64 {
        debug_assert!(ops.len() == nodes.len() && ops.len() == lines.len());
        let mut spin_misses = 0u64;
        let mut i = 0usize;
        while i < ops.len() {
            let node = NodeId::new(nodes[i]);
            let line = Line::new(lines[i]);
            if ops[i] & OP_WRITE != 0 {
                dsm.write(node, line);
                self.write(dsm, line);
                i += 1;
                continue;
            }
            // Maximal same-node same-line read run starting at `i`.
            let mut j = i + 1;
            while j < ops.len()
                && ops[j] & OP_WRITE == 0
                && nodes[j] == nodes[i]
                && lines[j] == lines[i]
            {
                j += 1;
            }
            dsm.count_read();
            if dsm.probe_local(node, line).is_none()
                && self.demand_read(dsm, node, line, Cycle::ZERO).is_none()
            {
                spin_misses += self.handle_uncovered_read(
                    dsm,
                    node,
                    line,
                    ops[i] & OP_SPIN != 0,
                    all_reads,
                    spin_filtering,
                    is_spin,
                );
            }
            if j - i > 1 {
                dsm.probe_repeat(node, line, (j - i - 1) as u64);
            }
            i = j;
        }
        spin_misses
    }

    /// The dispatch of a read that missed hierarchy and SVB: classify
    /// via the directory, then route to the spin / consumption / observation
    /// arm with the interpretive loop's exact short-circuit order.
    /// Returns 1 if the miss was spin-filtered.
    #[allow(clippy::too_many_arguments)]
    fn handle_uncovered_read(
        &mut self,
        dsm: &mut DsmSystem,
        node: NodeId,
        line: Line,
        spin_bit: bool,
        all_reads: bool,
        spin_filtering: bool,
        is_spin: &mut dyn FnMut(NodeId, Line) -> bool,
    ) -> u64 {
        let miss = dsm.read_miss(node, line);
        let coherent = miss.class == MissClass::Coherence;
        if all_reads || coherent {
            let spin = spin_filtering && ((coherent && spin_bit) || is_spin(node, line));
            if spin {
                self.observe_miss(dsm, node, line, Cycle::ZERO);
                return 1;
            }
            self.consumption_miss(dsm, node, line, Cycle::ZERO);
        } else {
            self.observe_miss(dsm, node, line, Cycle::ZERO);
        }
        0
    }

    // ------------------------------------------------------------------
    // Event: uncovered consumption
    // ------------------------------------------------------------------

    /// Handles an uncovered consumption (a coherent read miss that was
    /// not a spin and missed the SVB): monitors stalled comparators for a
    /// resolving match, records the miss in the node's order, and — if no
    /// existing queue absorbed the miss — launches a new stream from the
    /// directory's CMOB pointers.
    pub fn consumption_miss(&mut self, dsm: &mut DsmSystem, node: NodeId, line: Line, now: Cycle) {
        self.stats.uncovered += 1;
        let absorbed = self.observe_miss_inner(dsm, node, line, now);

        // Look up the previous consumers BEFORE recording this miss, so a
        // node never streams from its own in-progress order. The copy
        // lands in a reused scratch buffer: this path runs per
        // consumption and must not allocate.
        let mut ptrs = std::mem::take(&mut self.ptr_scratch);
        ptrs.clear();
        ptrs.extend(
            self.pointers
                .lookup(line)
                .iter()
                .take(self.tse_cfg.compared_streams),
        );

        self.record_order(dsm, node, line);

        if !absorbed && !ptrs.is_empty() {
            self.launch_stream(dsm, node, line, &ptrs, now);
        }
        self.ptr_scratch = ptrs;
    }

    /// Monitors comparators with a miss that is *not* a consumption
    /// (spins, cold/replacement misses): stalled queues may still resolve
    /// on it, and active queues may consume their next agreed head.
    pub fn observe_miss(&mut self, dsm: &mut DsmSystem, node: NodeId, line: Line, now: Cycle) {
        self.observe_miss_inner(dsm, node, line, now);
    }

    /// Returns true if an existing queue absorbed the miss (resolved a
    /// stall or consumed its next agreed head).
    ///
    /// Only queues currently exposing `line` as a FIFO head can absorb
    /// it, so candidates come from the head-line index rather than a
    /// scan over every queue. Candidates are visited in queue-position
    /// order, preserving the first-match semantics of the former scan.
    fn observe_miss_inner(
        &mut self,
        dsm: &mut DsmSystem,
        node: NodeId,
        line: Line,
        now: Cycle,
    ) -> bool {
        let n = node.index();
        let mut cand = [0usize; MISS_CANDIDATES];
        let mut cand_n = 0;
        let mut overflow = false;
        match self.nodes[n].head_index.get(&line) {
            None => return false,
            Some(qids) => {
                for &qid in qids {
                    if cand_n == cand.len() {
                        overflow = true;
                        break;
                    }
                    cand[cand_n] = self.nodes[n].qindex[&qid];
                    cand_n += 1;
                }
            }
        }
        let cand = &mut cand[..cand_n];
        cand.sort_unstable();
        let mut full_scan = 0..if overflow {
            self.nodes[n].queues.len()
        } else {
            0
        };
        let mut candidates = cand.iter().copied();
        let mut next = || {
            if overflow {
                full_scan.next()
            } else {
                candidates.next()
            }
        };
        while let Some(qidx) = next() {
            let q = &mut self.nodes[n].queues[qidx];
            let absorbed = if q.is_stalled() {
                if q.try_resolve(line) {
                    self.stats.queue_resolutions += 1;
                    true
                } else {
                    false
                }
            } else if q.try_consume_head(line) {
                self.stats.consumed_heads += 1;
                true
            } else {
                false
            };
            if absorbed {
                self.lru_tick += 1;
                q.last_active = self.lru_tick;
                self.advance_queue(dsm, node, qidx, now);
                return true;
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Event: write
    // ------------------------------------------------------------------

    /// Propagates a write (by any processor, including the local one) to
    /// every SVB: matching entries are invalidated and their fetches
    /// become discards.
    pub fn write(&mut self, dsm: &mut DsmSystem, line: Line) {
        let stats = &mut self.stats;
        self.svbs.invalidate(line, |node, entry| {
            discard(stats, dsm, node, entry, false);
        });
    }

    // ------------------------------------------------------------------
    // Teardown
    // ------------------------------------------------------------------

    /// Drains residual SVB contents and live queues into the statistics:
    /// blocks still buffered were streamed but never used (discards), and
    /// each live queue contributes its stream length.
    pub fn finish(&mut self, dsm: &mut DsmSystem) {
        for n in 0..self.nodes.len() {
            let node = NodeId::new(n as u16);
            for entry in self.svbs.drain(node) {
                discard(&mut self.stats, dsm, node, entry, true);
            }
            let queues = std::mem::take(&mut self.nodes[n].queues);
            self.nodes[n].qindex.clear();
            self.nodes[n].head_index.clear();
            self.nodes[n].head_cache.clear();
            for q in queues {
                self.stats.stream_lengths.push(q.hits);
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Appends a consumption to the node's CMOB and updates the directory
    /// pointer (Figure 3's steps 3-4).
    fn record_order(&mut self, dsm: &mut DsmSystem, node: NodeId, line: Line) {
        let pos = self.nodes[node.index()].cmob.append(line);
        self.stats.cmob_appends += 1;
        // Packetized append: entry bytes over the processor pins to local
        // memory (no interconnect traffic).
        self.stats.cmob_pin_bytes += self.sys_cfg.cmob_entry_bytes;
        // Pointer update message to the line's home directory.
        self.pointers.record(line, node, pos);
        self.stats.pointer_updates += 1;
        let home = self.sys_cfg.home_node(line);
        dsm.traffic_mut().record(
            node,
            home,
            TrafficClass::CmobMaintenance,
            self.sys_cfg.header_bytes,
        );
    }

    /// Allocates a stream queue for `line` at `node` and fetches the
    /// initial lookahead (Figure 4's steps 2-4).
    fn launch_stream(
        &mut self,
        dsm: &mut DsmSystem,
        node: NodeId,
        line: Line,
        ptrs: &[crate::CmobPtr],
        now: Cycle,
    ) {
        let n = node.index();
        let qid = self.next_qid;
        self.next_qid += 1;
        self.stats.queues_allocated += 1;

        let mut queue = StreamQueue::new(qid, line, self.tse_cfg.compared_streams);
        let home = self.sys_cfg.home_node(line);
        let hdr = self.sys_cfg.header_bytes;
        let entry_bytes = self.sys_cfg.cmob_entry_bytes;
        for ptr in ptrs {
            // Stream request: directory -> source node.
            dsm.traffic_mut()
                .record(home, ptr.node, TrafficClass::StreamAddresses, hdr);
            let start = ptr.pos + 1; // the head's own data went via coherence
            let window = self.nodes[ptr.node.index()]
                .cmob
                .read_window(start, self.tse_cfg.chunk);
            let exhausted = window.len() < self.tse_cfg.chunk;
            // Address stream: source -> requesting node.
            dsm.traffic_mut().record(
                ptr.node,
                node,
                TrafficClass::StreamAddresses,
                hdr + window.len() as u64 * entry_bytes,
            );
            let next_pos = start + window.len() as u64;
            queue.add_stream(ptr.node, next_pos, window, exhausted);
        }
        self.lru_tick += 1;
        queue.last_active = self.lru_tick;

        // Respect the queue bound: evict the least recently active queue.
        let cap = self.tse_cfg.stream_queues.unwrap_or(UNLIMITED_QUEUE_CAP);
        if self.nodes[n].queues.len() >= cap {
            if let Some(victim_idx) = self.nodes[n]
                .queues
                .iter()
                .enumerate()
                .min_by_key(|(_, q)| q.last_active)
                .map(|(i, _)| i)
            {
                let victim = self.nodes[n].remove_queue(victim_idx);
                self.stats.stream_lengths.push(victim.hits);
            }
        }
        let qidx = self.nodes[n].push_queue(queue);
        self.advance_queue(dsm, node, qidx, now);
    }

    /// Advances the queue ([`Self::advance_queue_inner`]), then restores
    /// the invariants every mutation must leave behind: the head-line
    /// index reflects the queue's current FIFO heads, and a queue whose
    /// stream has ended (dead, nothing outstanding) is retired
    /// immediately rather than by a scan on the next miss.
    fn advance_queue(&mut self, dsm: &mut DsmSystem, node: NodeId, qidx: usize, now: Cycle) {
        self.advance_queue_inner(dsm, node, qidx, now);
        let n = node.index();
        let q = &self.nodes[n].queues[qidx];
        if q.is_dead() && q.outstanding == 0 {
            let q = self.nodes[n].remove_queue(qidx);
            self.stats.stream_lengths.push(q.hits);
        } else {
            self.nodes[n].sync_heads(qidx);
        }
    }

    /// Pops agreed addresses and fetches blocks until the queue reaches
    /// its lookahead, stalls, dies, or cannot refill further.
    fn advance_queue_inner(&mut self, dsm: &mut DsmSystem, node: NodeId, qidx: usize, now: Cycle) {
        let n = node.index();
        let lookahead = self.tse_cfg.lookahead;
        loop {
            // Refill FIFOs that have drained below half a chunk.
            let threshold = (self.tse_cfg.chunk / 2).max(1);
            let candidates = self.nodes[n].queues[qidx].refill_candidates(threshold);
            for idx in candidates {
                self.refill_fifo(dsm, node, qidx, idx);
            }

            let q = &mut self.nodes[n].queues[qidx];
            if q.outstanding >= lookahead {
                return;
            }
            match q.pop_agreed() {
                Pop::Agreed(next) => {
                    let qid = q.id();
                    self.fetch_block(dsm, node, qidx, qid, next, now);
                }
                Pop::NeedRefill(idxs) => {
                    let mut progressed = false;
                    for idx in idxs {
                        progressed |= self.refill_fifo(dsm, node, qidx, idx);
                    }
                    if !progressed {
                        return; // sources dry; queue will die on next pop
                    }
                }
                Pop::Stalled => {
                    self.stats.queue_stalls += 1;
                    return;
                }
                Pop::Dead => return,
            }
        }
    }

    /// Reads another chunk from a FIFO's source CMOB. Returns true if the
    /// FIFO state changed (addresses added or exhaustion discovered).
    fn refill_fifo(&mut self, dsm: &mut DsmSystem, node: NodeId, qidx: usize, fidx: usize) -> bool {
        let n = node.index();
        let (src, next_pos) = {
            let f = &self.nodes[n].queues[qidx].fifos()[fidx];
            if f.exhausted {
                return false;
            }
            (f.src, f.next_pos)
        };
        let window = self.nodes[src.index()]
            .cmob
            .read_window(next_pos, self.tse_cfg.chunk);
        let exhausted = window.len() < self.tse_cfg.chunk;
        let got = window.len();
        // Refill request + address chunk.
        let hdr = self.sys_cfg.header_bytes;
        dsm.traffic_mut()
            .record(node, src, TrafficClass::StreamAddresses, hdr);
        dsm.traffic_mut().record(
            src,
            node,
            TrafficClass::StreamAddresses,
            hdr + got as u64 * self.sys_cfg.cmob_entry_bytes,
        );
        let new_next = next_pos + got as u64;
        self.nodes[n].queues[qidx].refill(fidx, window, new_next, exhausted);
        got > 0 || exhausted
    }

    /// Fetches one streamed block into the node's SVB (skipping blocks
    /// the node already holds).
    fn fetch_block(
        &mut self,
        dsm: &mut DsmSystem,
        node: NodeId,
        qidx: usize,
        qid: u64,
        line: Line,
        now: Cycle,
    ) {
        if dsm.peek_local(node, line) || self.svbs.contains(node, line) {
            self.stats.skipped_fetches += 1;
            return;
        }
        let fill = dsm.stream_fetch(node, line);
        self.stats.fetched += 1;
        let ready_at = if self.timing {
            now + dsm.fill_latency(node, fill)
        } else {
            Cycle::ZERO
        };
        if let Some(victim) = self.svbs.insert(node, line, qid, fill, ready_at) {
            discard(&mut self.stats, dsm, node, victim, true);
        }
        self.nodes[node.index()].queues[qidx].outstanding += 1;
    }
}

/// Books a never-used streamed block: its fetch traffic is overhead,
/// and (unless a write already removed it) its sharer registration is
/// dropped.
fn discard(
    stats: &mut TseStats,
    dsm: &mut DsmSystem,
    node: NodeId,
    entry: SvbEntry,
    drop_sharer: bool,
) {
    stats.discarded += 1;
    dsm.account_fill_traffic(node, entry.fill, TrafficClass::DiscardedData);
    if drop_sharer {
        dsm.drop_sharer(node, entry.line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_memsim::MissClass;

    fn setup(tse_cfg: TseConfig) -> (SystemConfig, DsmSystem, TemporalStreamingEngine) {
        let cfg = SystemConfig::builder()
            .nodes(4)
            .torus(2, 2)
            .l1(2 * 1024, 2)
            .l2(64 * 1024, 4)
            .build()
            .unwrap();
        let dsm = DsmSystem::new(&cfg).unwrap();
        let tse = TemporalStreamingEngine::new(&cfg, &tse_cfg).unwrap();
        (cfg, dsm, tse)
    }

    /// Drives one read through the TSE-enabled system the way the harness
    /// does, returning true if the read was covered by the SVB.
    fn tse_read(
        dsm: &mut DsmSystem,
        tse: &mut TemporalStreamingEngine,
        node: NodeId,
        line: Line,
    ) -> bool {
        dsm.count_read();
        if dsm.probe_local(node, line).is_some() {
            return false;
        }
        if tse.demand_read(dsm, node, line, Cycle::ZERO).is_some() {
            return true;
        }
        let miss = dsm.read_miss(node, line);
        if miss.class == MissClass::Coherence {
            tse.consumption_miss(dsm, node, line, Cycle::ZERO);
        } else {
            tse.observe_miss(dsm, node, line, Cycle::ZERO);
        }
        false
    }

    fn tse_write(dsm: &mut DsmSystem, tse: &mut TemporalStreamingEngine, node: NodeId, line: Line) {
        dsm.write(node, line);
        tse.write(dsm, line);
    }

    /// Producer writes a sequence; consumer reads it twice. The second
    /// pass must be streamed from the consumer's own recorded order.
    #[test]
    fn repeated_sequence_is_covered_on_second_pass() {
        let (_, mut dsm, mut tse) = setup(TseConfig::default());
        let producer = NodeId::new(0);
        let consumer = NodeId::new(1);
        let seq: Vec<Line> = (10..40).map(Line::new).collect();

        // Iteration 1: produce + consume (records the order).
        for &l in &seq {
            tse_write(&mut dsm, &mut tse, producer, l);
        }
        for &l in &seq {
            assert!(!tse_read(&mut dsm, &mut tse, consumer, l));
        }
        // Iteration 2: produce (invalidates consumer) + consume again.
        for &l in &seq {
            tse_write(&mut dsm, &mut tse, producer, l);
        }
        let mut covered = 0u64;
        for &l in &seq {
            if tse_read(&mut dsm, &mut tse, consumer, l) {
                covered += 1;
            }
        }
        // The first miss of iteration 2 launches the stream; the rest hit.
        assert!(
            covered as usize >= seq.len() - 2,
            "expected near-full coverage, got {covered}/{}",
            seq.len()
        );
        let s = tse.stats();
        assert_eq!(s.covered, covered);
        assert!(s.queues_allocated >= 1);
    }

    /// With two compared streams that disagree, nothing is fetched until
    /// a subsequent miss resolves the comparator.
    #[test]
    fn disagreeing_streams_stall_and_resolve() {
        let tse_cfg = TseConfig {
            compared_streams: 2,
            directory_pointers: 2,
            ..TseConfig::default()
        };
        let (_, mut dsm, mut tse) = setup(tse_cfg);
        let producer = NodeId::new(0);
        let (c1, c2, c3) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));

        // Two consumers follow different orders after line 100:
        // c1: 100, 101, 102...   c2: 100, 201, 202...
        let head = Line::new(100);
        let seq1: Vec<Line> = (100..110).map(Line::new).collect();
        let seq2: Vec<Line> = std::iter::once(head)
            .chain((201..210).map(Line::new))
            .collect();
        for &l in seq1.iter().chain(seq2.iter()) {
            tse_write(&mut dsm, &mut tse, producer, l);
        }
        for &l in &seq1 {
            tse_read(&mut dsm, &mut tse, c1, l);
        }
        for &l in &seq2 {
            tse_read(&mut dsm, &mut tse, c2, l);
        }

        // Third consumer misses on the head: two pointers exist (c2 then
        // c1) whose following addresses disagree -> stall, no fetches.
        let fetched_before = tse.stats().fetched;
        assert!(!tse_read(&mut dsm, &mut tse, c3, head));
        assert_eq!(
            tse.stats().fetched,
            fetched_before,
            "disagreeing comparator must not fetch"
        );
        assert!(tse.stats().queue_stalls >= 1);

        // c3 then follows c1's order: the miss on 101 resolves the stall
        // and the remaining blocks stream.
        assert!(!tse_read(&mut dsm, &mut tse, c3, Line::new(101)));
        assert!(tse.stats().queue_resolutions >= 1);
        let mut covered = 0;
        for l in 102..110 {
            if tse_read(&mut dsm, &mut tse, c3, Line::new(l)) {
                covered += 1;
            }
        }
        assert!(covered >= 6, "post-resolution coverage too low: {covered}");
    }

    /// A single-pointer stream launches unconditionally (basic temporal
    /// streaming), even when k=2 streams are configured.
    #[test]
    fn single_pointer_streams_with_k2() {
        let (_, mut dsm, mut tse) = setup(TseConfig::default());
        let producer = NodeId::new(0);
        let consumer = NodeId::new(1);
        let seq: Vec<Line> = (10..20).map(Line::new).collect();
        for &l in &seq {
            tse_write(&mut dsm, &mut tse, producer, l);
        }
        for &l in &seq {
            tse_read(&mut dsm, &mut tse, consumer, l);
        }
        for &l in &seq {
            tse_write(&mut dsm, &mut tse, producer, l);
        }
        // Second pass: only one pointer (consumer itself) exists per line.
        let mut covered = 0;
        for &l in &seq {
            if tse_read(&mut dsm, &mut tse, consumer, l) {
                covered += 1;
            }
        }
        assert!(covered > 0, "self-stream must cover");
    }

    /// Writes invalidate SVB entries and turn them into discards.
    #[test]
    fn write_invalidates_streamed_blocks() {
        let (_, mut dsm, mut tse) = setup(TseConfig::default());
        let producer = NodeId::new(0);
        let consumer = NodeId::new(1);
        let seq: Vec<Line> = (10..20).map(Line::new).collect();
        // Two produce/consume rounds record two agreeing occurrences.
        for _ in 0..2 {
            for &l in &seq {
                tse_write(&mut dsm, &mut tse, producer, l);
            }
            for &l in &seq {
                tse_read(&mut dsm, &mut tse, consumer, l);
            }
        }
        for &l in &seq {
            tse_write(&mut dsm, &mut tse, producer, l);
        }
        // Miss on the head launches the stream (lookahead blocks fetched).
        let fetched_before = tse.stats().fetched;
        let discarded_before = tse.stats().discarded;
        tse_read(&mut dsm, &mut tse, consumer, seq[0]);
        assert!(
            tse.stats().fetched > fetched_before,
            "head miss must stream"
        );
        // Producer rewrites everything: all streamed blocks invalidated.
        for &l in &seq {
            tse_write(&mut dsm, &mut tse, producer, l);
        }
        assert!(
            tse.stats().discarded > discarded_before,
            "invalidated streamed blocks must become discards"
        );
        for &l in &seq {
            assert!(!tse.svb_contains(consumer, l));
        }
    }

    /// After finish(), every fetched block is either covered or discarded.
    #[test]
    fn accounting_balances_after_finish() {
        let (_, mut dsm, mut tse) = setup(TseConfig::default());
        let producer = NodeId::new(0);
        let consumer = NodeId::new(1);
        for round in 0..3 {
            for l in 0..50u64 {
                tse_write(&mut dsm, &mut tse, producer, Line::new(l));
            }
            // Read a prefix that varies by round to leave residuals.
            for l in 0..(30 + 5 * round) {
                tse_read(&mut dsm, &mut tse, consumer, Line::new(l));
            }
        }
        tse.finish(&mut dsm);
        let s = tse.stats();
        assert!(
            s.accounting_balanced(),
            "fetched {} != covered {} + discarded {}",
            s.fetched,
            s.covered,
            s.discarded
        );
    }

    /// Stream traffic is booked in the right classes.
    #[test]
    fn traffic_classes_populated() {
        let (_, mut dsm, mut tse) = setup(TseConfig::default());
        let producer = NodeId::new(0);
        let consumer = NodeId::new(1);
        let seq: Vec<Line> = (10..30).map(Line::new).collect();
        for &l in &seq {
            tse_write(&mut dsm, &mut tse, producer, l);
        }
        for &l in &seq {
            tse_read(&mut dsm, &mut tse, consumer, l);
        }
        for &l in &seq {
            tse_write(&mut dsm, &mut tse, producer, l);
        }
        for &l in &seq {
            tse_read(&mut dsm, &mut tse, consumer, l);
        }
        tse.finish(&mut dsm);
        let r = dsm.traffic().report();
        assert!(r.demand_bytes > 0);
        assert!(r.stream_address_bytes > 0, "address streams must be booked");
        assert!(r.cmob_bytes > 0, "pointer updates must be booked");
    }

    /// Queue bound: allocating beyond the cap evicts the LRU queue.
    #[test]
    fn queue_cap_is_respected() {
        let tse_cfg = TseConfig {
            stream_queues: Some(2),
            ..TseConfig::default()
        };
        let (_, mut dsm, mut tse) = setup(tse_cfg);
        let producer = NodeId::new(0);
        let consumer = NodeId::new(1);
        // Build three independent recorded sequences.
        for base in [100u64, 200, 300] {
            for l in base..base + 10 {
                tse_write(&mut dsm, &mut tse, producer, Line::new(l));
            }
            for l in base..base + 10 {
                tse_read(&mut dsm, &mut tse, consumer, Line::new(l));
            }
        }
        for base in [100u64, 200, 300] {
            for l in base..base + 10 {
                tse_write(&mut dsm, &mut tse, producer, Line::new(l));
            }
        }
        // Launch three streams via three head misses.
        for base in [100u64, 200, 300] {
            tse_read(&mut dsm, &mut tse, consumer, Line::new(base));
        }
        assert!(tse.queue_count(consumer) <= 2);
    }

    /// The engine validates configurations.
    #[test]
    fn invalid_config_is_rejected() {
        let cfg = SystemConfig::default();
        let bad = TseConfig {
            lookahead: 0,
            ..TseConfig::default()
        };
        assert!(TemporalStreamingEngine::new(&cfg, &bad).is_err());
    }

    /// Timing mode: a hit whose data is still in flight is partial.
    #[test]
    fn timing_mode_partial_coverage() {
        let (_, mut dsm, mut tse) = setup(TseConfig::default());
        tse.set_timing(true);
        let producer = NodeId::new(0);
        let consumer = NodeId::new(1);
        let seq: Vec<Line> = (10..20).map(Line::new).collect();
        // Two produce/consume rounds record two agreeing occurrences.
        for _ in 0..2 {
            for &l in &seq {
                tse_write(&mut dsm, &mut tse, producer, l);
            }
            for &l in &seq {
                dsm.count_read();
                if dsm.probe_local(consumer, l).is_none()
                    && tse
                        .demand_read(&mut dsm, consumer, l, Cycle::ZERO)
                        .is_none()
                {
                    let miss = dsm.read_miss(consumer, l);
                    if miss.class == MissClass::Coherence {
                        tse.consumption_miss(&mut dsm, consumer, l, Cycle::ZERO);
                    }
                }
            }
        }
        for &l in &seq {
            tse_write(&mut dsm, &mut tse, producer, l);
        }
        // Head miss at cycle 0 launches the stream; blocks become ready
        // in the future. Immediately reading the next line is a partial hit.
        dsm.count_read();
        assert!(dsm.probe_local(consumer, seq[0]).is_none());
        assert!(tse
            .demand_read(&mut dsm, consumer, seq[0], Cycle::ZERO)
            .is_none());
        let miss = dsm.read_miss(consumer, seq[0]);
        assert_eq!(miss.class, MissClass::Coherence);
        tse.consumption_miss(&mut dsm, consumer, seq[0], Cycle::ZERO);

        dsm.count_read();
        assert!(dsm.probe_local(consumer, seq[1]).is_none());
        let hit = tse
            .demand_read(&mut dsm, consumer, seq[1], Cycle::ZERO)
            .expect("streamed block present");
        assert!(hit.ready_at > Cycle::ZERO, "data must still be in flight");
        assert!(tse.stats().partial_covered >= 1);
        assert!(tse.stats().partial_latency_hidden() >= 0.0);
    }
}
