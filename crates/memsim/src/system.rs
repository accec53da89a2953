//! The DSM system model: per-node cache hierarchies + directory protocol.
//!
//! The model is split along the axis the paper's machine is built on:
//! everything a node owns privately lives in a per-node `NodeCaches`
//! (the L1/L2 caches and their MRU way hints), and everything nodes
//! serialize through lives in the shared `CoherencePlane` (directory,
//! traffic accounting, miss ordering). Miss classification needs no
//! per-node state: the directory entry records which nodes have held
//! the line's current version ([`crate::DirectoryEntry::held`]).
//! [`DsmSystem`] is the facade over the two.

use crate::{Directory, MemStats, SetAssocCache};
use tse_interconnect::{Torus, Traffic, TrafficClass, TrafficScratch};
use tse_types::{ConfigError, Line, NodeId, SystemConfig, LINE_BYTES};

/// Which level of the local hierarchy served a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the unified L2.
    L2,
}

/// Classification of a read miss, following the standard
/// cold / replacement / coherence taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MissClass {
    /// First reference to data nobody has written (no producer).
    Cold,
    /// The node held exactly this data before and lost it to eviction.
    Replacement,
    /// Another node produced the data since the reader last held the line
    /// (or the reader never held producer-written data). These are the
    /// paper's coherent read misses.
    Coherence,
}

/// How a read miss was filled, determining latency and traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillPath {
    /// Home is the requester and memory supplies the data (no network).
    LocalMemory,
    /// Home is remote; its memory supplies the data (2-hop transaction).
    RemoteMemory {
        /// The line's home node.
        home: NodeId,
    },
    /// A third node's cache holds the only valid copy (3-hop transaction).
    RemoteCache {
        /// The line's home node.
        home: NodeId,
        /// The node supplying dirty data.
        owner: NodeId,
    },
}

impl FillPath {
    /// The node that supplied the data.
    pub fn supplier(&self, requester: NodeId) -> NodeId {
        match *self {
            FillPath::LocalMemory => requester,
            FillPath::RemoteMemory { home } => home,
            FillPath::RemoteCache { owner, .. } => owner,
        }
    }
}

/// Outcome of a read access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Local hit level, or `None` if the read missed through the hierarchy.
    pub hit: Option<HitLevel>,
    /// Miss details when `hit` is `None`.
    pub miss: Option<MissInfo>,
}

impl ReadOutcome {
    /// The miss class, if this read missed.
    pub fn miss_class(&self) -> Option<MissClass> {
        self.miss.map(|m| m.class)
    }

    /// True if this read was a coherence miss.
    pub fn is_coherence_miss(&self) -> bool {
        self.miss_class() == Some(MissClass::Coherence)
    }
}

/// Details of a read miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissInfo {
    /// Cold / replacement / coherence.
    pub class: MissClass,
    /// Where the fill came from.
    pub fill: FillPath,
    /// Global directory-order sequence number of this miss.
    pub global_seq: u64,
}

/// Outcome of a write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// True if the write completed without a directory transaction
    /// (the node already held the line exclusively).
    pub silent: bool,
    /// Bitmask of nodes whose registered copies (cached, or fetched
    /// into a stream buffer) were invalidated. Their cached copies are
    /// already gone; stream buffers beside the hierarchy must drop
    /// their own copies of the line.
    pub invalidated: u64,
}

/// Everything the DSM keeps per node: its L1/L2 hierarchy plus the
/// last-hit way hints that accelerate probes (see
/// [`SetAssocCache::get_hinted`]). The caches are *pure* with respect
/// to hints: `get_hinted` produces identical observable state for any
/// hint value, so the hints are a performance property, never a
/// correctness dependency.
#[derive(Debug)]
struct NodeCaches {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l1_hint: usize,
    l2_hint: usize,
}

impl NodeCaches {
    fn new(cfg: &SystemConfig) -> Result<Self, ConfigError> {
        Ok(NodeCaches {
            l1: SetAssocCache::new(cfg.l1_bytes, cfg.l1_ways)?,
            l2: SetAssocCache::new(cfg.l2_bytes, cfg.l2_ways)?,
            l1_hint: usize::MAX,
            l2_hint: usize::MAX,
        })
    }
}

/// The shared half of the DSM — the state every node's accesses
/// serialize through: the full-map directory, interconnect traffic
/// accounting and the global miss ordering. There is exactly one plane
/// per system.
#[derive(Debug)]
struct CoherencePlane {
    cfg: SystemConfig,
    torus: Torus,
    directory: Directory,
    traffic: Traffic,
    /// Batch-local traffic counters: the hot paths record into this
    /// scratch and [`DsmSystem::traffic`]/[`DsmSystem::traffic_mut`]
    /// fold it into `traffic` on the way out, so the run-level
    /// accumulator stays off the per-message path. Byte counts commute,
    /// so the deferred flush is observation-equivalent to direct
    /// recording.
    scratch: TrafficScratch,
    stats: MemStats,
    global_seq: u64,
    /// `nodes - 1` when the node count is a power of two, so the hot
    /// paths compute a line's home with a mask instead of a `u64` modulo.
    home_mask: Option<u64>,
}

/// The simulated DSM: `nodes` processors, each with an inclusive
/// L1/L2 hierarchy, plus a full-map directory and traffic accounting.
///
/// Drive it with reads and writes in global (interleaved) order. See the
/// crate docs for an end-to-end example.
#[derive(Debug)]
pub struct DsmSystem {
    nodes: Vec<NodeCaches>,
    plane: CoherencePlane,
}

impl DsmSystem {
    /// Builds the system described by `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid (see
    /// [`SystemConfig::validate`]) or has more than 64 nodes.
    pub fn new(cfg: &SystemConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if cfg.nodes > 64 {
            return Err(ConfigError::new("DsmSystem supports at most 64 nodes"));
        }
        let torus = Torus::from_config(cfg)?;
        let nodes = (0..cfg.nodes)
            .map(|_| NodeCaches::new(cfg))
            .collect::<Result<_, _>>()?;
        Ok(DsmSystem {
            nodes,
            plane: CoherencePlane {
                torus,
                directory: Directory::new(cfg.nodes),
                traffic: Traffic::new(&torus),
                scratch: TrafficScratch::new(),
                stats: MemStats::default(),
                global_seq: 0,
                home_mask: cfg.nodes.is_power_of_two().then_some(cfg.nodes as u64 - 1),
                cfg: cfg.clone(),
            },
        })
    }

    /// The line's home node — [`SystemConfig::home_node`], with the
    /// modulo strength-reduced to a mask for power-of-two node counts.
    #[inline]
    fn home_of(&self, line: Line) -> NodeId {
        match self.plane.home_mask {
            Some(mask) => NodeId::new((line.index() & mask) as u16),
            None => self.plane.cfg.home_node(line),
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.plane.cfg
    }

    /// The interconnect topology.
    pub fn torus(&self) -> &Torus {
        &self.plane.torus
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &MemStats {
        &self.plane.stats
    }

    /// Folds the batch-local scratch into the run-level accumulator.
    fn flush_traffic(&mut self) {
        self.plane.traffic.absorb(&mut self.plane.scratch);
    }

    /// Accumulated traffic (shared with TSE overhead recording).
    pub fn traffic(&mut self) -> &Traffic {
        self.flush_traffic();
        &self.plane.traffic
    }

    /// Mutable access to the traffic accumulator, so engines layered on
    /// top (TSE) can book their overhead messages in the same report.
    pub fn traffic_mut(&mut self) -> &mut Traffic {
        self.flush_traffic();
        &mut self.plane.traffic
    }

    /// The directory (read-only view).
    pub fn directory(&self) -> &Directory {
        &self.plane.directory
    }

    /// Monotonic count of directory read-miss transactions processed.
    pub fn global_seq(&self) -> u64 {
        self.plane.global_seq
    }

    // ------------------------------------------------------------------
    // Local hierarchy
    // ------------------------------------------------------------------

    /// Probes the local hierarchy for a read, updating LRU state and
    /// filling L1 from L2 on an L2 hit. Returns `None` on a miss
    /// (the caller decides whether to consult a streamed-value buffer
    /// before paying for the directory transaction).
    pub fn probe_local(&mut self, node: NodeId, line: Line) -> Option<HitLevel> {
        let c = &mut self.nodes[node.index()];
        if c.l1.get_hinted(line, &mut c.l1_hint) {
            self.plane.stats.l1_hits += 1;
            return Some(HitLevel::L1);
        }
        if c.l2.get_hinted(line, &mut c.l2_hint) {
            self.plane.stats.l2_hits += 1;
            // Inclusive fill into L1; L1 victims are clean (write-through
            // to L2 is implied) and evicted silently. The L1 missed just
            // above, so the fill skips the residency scan.
            c.l1.insert_absent(line);
            return Some(HitLevel::L2);
        }
        None
    }

    /// Returns true if the node's hierarchy holds the line (no side
    /// effects). Used by the stream engine to skip fetching blocks the
    /// consumer already has.
    pub fn peek_local(&self, node: NodeId, line: Line) -> bool {
        let c = &self.nodes[node.index()];
        c.l1.contains(line) || c.l2.contains(line)
    }

    /// Installs a line into the node's L1+L2 (used when a streamed block
    /// moves from the SVB into the hierarchy on a hit). The node must
    /// already be registered as a sharer (the stream fetch did that).
    pub fn install(&mut self, node: NodeId, line: Line) {
        self.plane.directory.mark_held(node, line);
        self.fill_hierarchy(node, line);
    }

    /// Fills `line` into the node's L2 and L1, handling the L2 victim.
    fn fill_hierarchy(&mut self, node: NodeId, line: Line) {
        let n = node.index();
        if let Some(victim) = self.nodes[n].l2.insert(line) {
            self.handle_l2_eviction(node, victim);
        }
        self.nodes[n].l1.insert(line);
    }

    /// [`DsmSystem::fill_hierarchy`] for a line proven absent from both
    /// levels (a fill right after a local probe missed, with no
    /// intervening insertion): skips both residency scans. L1 absence
    /// follows from L2 absence by inclusion; the eviction handler only
    /// removes lines, so the L1 stays clear of `line` across it.
    fn fill_hierarchy_absent(&mut self, node: NodeId, line: Line) {
        let n = node.index();
        if let Some(victim) = self.nodes[n].l2.insert_absent(line) {
            self.handle_l2_eviction(node, victim);
        }
        self.nodes[n].l1.insert_absent(line);
    }

    fn handle_l2_eviction(&mut self, node: NodeId, victim: Line) {
        // Inclusion: drop the L1 copy.
        self.nodes[node.index()].l1.invalidate(victim);
        self.plane.stats.evictions += 1;
        let home = self.home_of(victim);
        let dirty = self.plane.directory.remove_node(node, victim);
        if dirty {
            self.plane.stats.writebacks += 1;
            self.plane.traffic.record_into(
                &mut self.plane.scratch,
                node,
                home,
                TrafficClass::Demand,
                self.plane.cfg.header_bytes + LINE_BYTES,
            );
        } else {
            // Replacement hint keeps the full-map directory precise.
            self.plane.traffic.record_into(
                &mut self.plane.scratch,
                node,
                home,
                TrafficClass::Demand,
                self.plane.cfg.header_bytes,
            );
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Performs a full read: local probe, then the directory transaction
    /// on a miss.
    pub fn read(&mut self, node: NodeId, line: Line) -> ReadOutcome {
        self.plane.stats.reads += 1;
        if let Some(level) = self.probe_local(node, line) {
            return ReadOutcome {
                hit: Some(level),
                miss: None,
            };
        }
        let miss = self.read_miss(node, line);
        ReadOutcome {
            hit: None,
            miss: Some(miss),
        }
    }

    /// Performs `count` consecutive reads of the same line by the same
    /// node, equivalent to `count` [`DsmSystem::read`] calls with no
    /// intervening access, in at most one directory transaction.
    ///
    /// The first read resolves normally; every subsequent one then hits
    /// the L1 (the first probe or fill made the line resident and MRU),
    /// so the remainder collapses into one batched L1 probe
    /// ([`SetAssocCache::get_repeat`]). The batched replay kernel uses
    /// this for the run-length-encoded same-line runs the lowering pass
    /// finds.
    pub fn read_repeat(&mut self, node: NodeId, line: Line, count: u64) -> ReadOutcome {
        debug_assert!(count > 0, "read_repeat of zero reads");
        let first = self.read(node, line);
        if count > 1 {
            self.plane.stats.reads += count - 1;
            self.plane.stats.l1_hits += count - 1;
            let c = &mut self.nodes[node.index()];
            let hit = c.l1.get_repeat(line, &mut c.l1_hint, count - 1);
            debug_assert!(hit, "line absent from L1 right after a read");
        }
        first
    }

    /// Books `count` reads that are guaranteed L1 hits, equivalent to
    /// `count` probe-and-count sequences (`stats.reads += 1` plus
    /// [`DsmSystem::probe_local`]) against an L1-resident line.
    ///
    /// This is [`DsmSystem::read_repeat`]'s tail for paths where the
    /// *first* access of a run did not go through [`DsmSystem::read`] —
    /// an SVB hit that installed the line, or an engine-mediated miss —
    /// but still left the line resident and MRU in the L1.
    pub fn probe_repeat(&mut self, node: NodeId, line: Line, count: u64) {
        debug_assert!(count > 0, "probe_repeat of zero probes");
        self.plane.stats.reads += count;
        self.plane.stats.l1_hits += count;
        let c = &mut self.nodes[node.index()];
        let hit = c.l1.get_repeat(line, &mut c.l1_hint, count);
        debug_assert!(hit, "probe_repeat of a line absent from L1");
    }

    /// Counts a read access that was satisfied outside the hierarchy
    /// (e.g. by the SVB); keeps `stats.reads` meaningful for harnesses
    /// that intercept between [`DsmSystem::probe_local`] and
    /// [`DsmSystem::read_miss`].
    pub fn count_read(&mut self) {
        self.plane.stats.reads += 1;
    }

    /// The directory transaction for a read miss: classifies the miss,
    /// registers the node as a sharer, fills the caches and accounts
    /// traffic. Callers must have established that the local hierarchy
    /// (and any SVB) missed.
    pub fn read_miss(&mut self, node: NodeId, line: Line) -> MissInfo {
        // One fused directory transaction registers the sharer and
        // classifies: never-written data is cold; a node that already
        // held the current version lost it to eviction (replacement);
        // anyone else reads data produced since it last held the line.
        let grant = self.plane.directory.read_fill(node, line);
        let class = if grant.version == 0 {
            MissClass::Cold
        } else if grant.held {
            MissClass::Replacement
        } else {
            MissClass::Coherence
        };

        let home = self.home_of(line);
        let fill = match grant.supplier {
            Some(owner) if owner != node => FillPath::RemoteCache { home, owner },
            _ if home == node => FillPath::LocalMemory,
            _ => FillPath::RemoteMemory { home },
        };
        self.account_fill_traffic(node, fill, TrafficClass::Demand);

        // The caller established a local miss, so the fill is
        // scan-free (see `fill_hierarchy_absent`).
        self.fill_hierarchy_absent(node, line);

        match class {
            MissClass::Cold => self.plane.stats.cold_misses += 1,
            MissClass::Replacement => self.plane.stats.replacement_misses += 1,
            MissClass::Coherence => self.plane.stats.coherence_misses += 1,
        }
        let global_seq = self.plane.global_seq;
        self.plane.global_seq += 1;
        MissInfo {
            class,
            fill,
            global_seq,
        }
    }

    /// Books the messages of a fill transaction under `class`.
    ///
    /// Public so the TSE can defer accounting of streamed-data fetches
    /// until it knows whether the block was used (Demand) or discarded
    /// (DiscardedData).
    pub fn account_fill_traffic(&mut self, node: NodeId, fill: FillPath, class: TrafficClass) {
        let hdr = self.plane.cfg.header_bytes;
        match fill {
            FillPath::LocalMemory => {}
            FillPath::RemoteMemory { home } => {
                self.plane
                    .traffic
                    .record_into(&mut self.plane.scratch, node, home, class, hdr);
                self.plane.traffic.record_into(
                    &mut self.plane.scratch,
                    home,
                    node,
                    class,
                    hdr + LINE_BYTES,
                );
            }
            FillPath::RemoteCache { home, owner } => {
                self.plane
                    .traffic
                    .record_into(&mut self.plane.scratch, node, home, class, hdr);
                self.plane
                    .traffic
                    .record_into(&mut self.plane.scratch, home, owner, class, hdr);
                self.plane.traffic.record_into(
                    &mut self.plane.scratch,
                    owner,
                    node,
                    class,
                    hdr + LINE_BYTES,
                );
                // Sharing writeback: the downgraded owner updates memory.
                self.plane.traffic.record_into(
                    &mut self.plane.scratch,
                    owner,
                    home,
                    class,
                    hdr + LINE_BYTES,
                );
            }
        }
    }

    /// Fetches a line on behalf of `node`'s stream engine: registers the
    /// node as a sharer (so subsequent writes invalidate its SVB entry)
    /// and returns the fill path for latency/deferred-traffic purposes —
    /// but does **not** install the line into the caches (streamed blocks
    /// live in the SVB until they are used, per Section 3.3).
    pub fn stream_fetch(&mut self, node: NodeId, line: Line) -> FillPath {
        let home = self.home_of(line);
        let grant = self.plane.directory.read_fill(node, line);
        match grant.supplier {
            Some(owner) if owner != node => FillPath::RemoteCache { home, owner },
            _ if home == node => FillPath::LocalMemory,
            _ => FillPath::RemoteMemory { home },
        }
    }

    /// Notifies the directory that `node` dropped a streamed (clean) copy
    /// of `line` without using it (SVB eviction or stream discard).
    pub fn drop_sharer(&mut self, node: NodeId, line: Line) {
        // Only drop if the hierarchy doesn't also hold the line.
        if !self.peek_local(node, line) {
            self.plane.directory.remove_node(node, line);
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Performs a write: acquires exclusive ownership, invalidating other
    /// copies. Returns which nodes were invalidated so SVBs can be kept
    /// coherent.
    pub fn write(&mut self, node: NodeId, line: Line) -> WriteOutcome {
        self.plane.stats.writes += 1;
        let n = node.index();
        // One directory transaction decides everything: a silent upgrade
        // (`was_exclusive`) leaves the entry untouched. Every L2 eviction
        // notifies the directory (`remove_node`), so `Modified(node)`
        // implies the line is still resident in `node`'s L2 — the silent
        // path needs no residency probe at all, and the hinted LRU
        // refresh below skips even the set scan for the common
        // same-line write run.
        let grant = self.plane.directory.write_acquire(node, line);

        if grant.was_exclusive {
            // Silent store hit: refresh LRU (a `get` that provably hits).
            let c = &mut self.nodes[n];
            let refreshed = c.l2.get_hinted(line, &mut c.l2_hint);
            debug_assert!(refreshed, "exclusive owner lost its L2 copy");
            c.l1.insert(line);
            return WriteOutcome {
                silent: true,
                invalidated: 0,
            };
        }

        let had_line = self.nodes[n].l2.contains(line);
        let invalidated = grant.invalidated;
        self.plane.stats.write_transactions += 1;
        let home = self.home_of(line);
        let hdr = self.plane.cfg.header_bytes;

        // Request + grant/data.
        self.plane.traffic.record_into(
            &mut self.plane.scratch,
            node,
            home,
            TrafficClass::Demand,
            hdr,
        );
        let fill_bytes = if had_line { hdr } else { hdr + LINE_BYTES };
        self.plane
            .traffic
            .record(home, node, TrafficClass::Demand, fill_bytes);

        // Invalidations + acks.
        let mut mask = invalidated;
        while mask != 0 {
            let idx = mask.trailing_zeros() as u16;
            mask &= mask - 1;
            let victim = NodeId::new(idx);
            self.plane.stats.invalidations += 1;
            self.plane.traffic.record_into(
                &mut self.plane.scratch,
                home,
                victim,
                TrafficClass::Demand,
                hdr,
            );
            self.plane.traffic.record_into(
                &mut self.plane.scratch,
                victim,
                node,
                TrafficClass::Demand,
                hdr,
            );
            // Remove the line from the victim's hierarchy.
            let c = &mut self.nodes[victim.index()];
            c.l1.invalidate(line);
            c.l2.invalidate(line);
        }

        if had_line {
            self.fill_hierarchy(node, line);
        } else {
            // The writer's L2 missed (and with it the inclusive L1), and
            // the invalidations above only touched other nodes: the fill
            // skips both residency scans.
            self.fill_hierarchy_absent(node, line);
        }
        WriteOutcome {
            silent: false,
            invalidated,
        }
    }

    /// Resets statistics and traffic (cache and directory state stay
    /// warm), e.g. between warm-up and measurement.
    pub fn reset_stats(&mut self) {
        self.plane.stats = MemStats::default();
        self.plane.traffic = Traffic::new(&self.plane.torus);
        self.plane.scratch = TrafficScratch::new();
    }

    // ------------------------------------------------------------------
    // Latency model (shared by the TSE and the timing simulator)
    // ------------------------------------------------------------------

    /// End-to-end latency of a fill transaction for `node`, from the
    /// Table 1 parameters: per-hop wire latency, protocol-controller
    /// occupancy at each controller visited, memory access time for
    /// memory-sourced data and an L2 probe at a supplying owner.
    pub fn fill_latency(&self, node: NodeId, fill: FillPath) -> tse_types::Cycle {
        let hop = self.plane.cfg.hop_latency();
        let ctrl = self.plane.cfg.controller_occupancy;
        let mem = self.plane.cfg.memory_latency();
        let hops = |a: NodeId, b: NodeId| {
            tse_types::Cycle::new(self.plane.torus.hops(a, b) as u64 * hop.raw())
        };
        match fill {
            FillPath::LocalMemory => ctrl + mem,
            FillPath::RemoteMemory { home } => hops(node, home) + ctrl + mem + hops(home, node),
            FillPath::RemoteCache { home, owner } => {
                hops(node, home)
                    + ctrl
                    + hops(home, owner)
                    + ctrl
                    + self.plane.cfg.l2_latency
                    + hops(owner, node)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SystemConfig {
        SystemConfig::builder()
            .nodes(4)
            .torus(2, 2)
            .l1(2 * 1024, 2)
            .l2(16 * 1024, 4)
            .build()
            .unwrap()
    }

    fn dsm() -> DsmSystem {
        DsmSystem::new(&small_cfg()).unwrap()
    }

    #[test]
    fn first_read_of_unwritten_data_is_cold() {
        let mut d = dsm();
        let out = d.read(NodeId::new(0), Line::new(5));
        assert_eq!(out.miss_class(), Some(MissClass::Cold));
        assert_eq!(d.stats().cold_misses, 1);
    }

    #[test]
    fn second_read_hits_l1() {
        let mut d = dsm();
        let n = NodeId::new(0);
        d.read(n, Line::new(5));
        let out = d.read(n, Line::new(5));
        assert_eq!(out.hit, Some(HitLevel::L1));
        assert_eq!(d.stats().l1_hits, 1);
    }

    #[test]
    fn producer_consumer_is_coherence_miss() {
        let mut d = dsm();
        d.write(NodeId::new(0), Line::new(5));
        let out = d.read(NodeId::new(1), Line::new(5));
        assert_eq!(out.miss_class(), Some(MissClass::Coherence));
        // And it is a 3-hop fill from the owner's cache.
        match out.miss.unwrap().fill {
            FillPath::RemoteCache { owner, .. } => assert_eq!(owner, NodeId::new(0)),
            other => panic!("expected RemoteCache, got {other:?}"),
        }
    }

    #[test]
    fn invalidation_then_reread_is_coherence_miss() {
        let mut d = dsm();
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let l = Line::new(5);
        d.write(a, l);
        d.read(b, l); // b now shares
        let w = d.write(a, l); // re-acquire: invalidates b
        assert!(!w.silent);
        assert_eq!(w.invalidated, 0b10);
        let out = d.read(b, l);
        assert_eq!(out.miss_class(), Some(MissClass::Coherence));
    }

    #[test]
    fn eviction_reread_is_replacement_miss() {
        // L2: 16 KB 4-way = 64 sets; lines mapping to the same set are 64
        // lines apart. Use 5 conflicting lines in a 4-way set.
        let mut d = dsm();
        let n = NodeId::new(0);
        let set_stride = 64;
        for i in 0..5u64 {
            d.read(n, Line::new(4 + i * set_stride));
        }
        // Line 4 was evicted by the 5th conflicting fill; nobody wrote it.
        let out = d.read(n, Line::new(4));
        // Never-written data: cold again, not coherence.
        assert_eq!(out.miss_class(), Some(MissClass::Cold));

        // Now with written data: producer writes, reader caches, evicts, re-reads.
        let l = Line::new(1);
        d.write(NodeId::new(1), l);
        d.read(n, l);
        for i in 1..=4u64 {
            d.read(n, Line::new(1 + i * set_stride));
        }
        assert!(!d.peek_local(n, l), "line should have been evicted");
        let out = d.read(n, l);
        assert_eq!(
            out.miss_class(),
            Some(MissClass::Replacement),
            "unmodified data lost to eviction is a replacement miss"
        );
    }

    #[test]
    fn same_node_rewrite_is_silent() {
        let mut d = dsm();
        let n = NodeId::new(2);
        let l = Line::new(7);
        assert!(!d.write(n, l).silent);
        assert!(d.write(n, l).silent);
        assert_eq!(d.stats().write_transactions, 1);
    }

    #[test]
    fn own_write_then_read_is_a_hit() {
        let mut d = dsm();
        let n = NodeId::new(0);
        d.write(n, Line::new(3));
        let out = d.read(n, Line::new(3));
        assert!(out.hit.is_some());
    }

    #[test]
    fn stream_fetch_registers_sharer_for_invalidation() {
        let mut d = dsm();
        let (producer, consumer) = (NodeId::new(0), NodeId::new(1));
        let l = Line::new(11);
        d.write(producer, l);
        let fill = d.stream_fetch(consumer, l);
        assert!(matches!(fill, FillPath::RemoteCache { .. }));
        // The streamed copy is not in the consumer's caches...
        assert!(!d.peek_local(consumer, l));
        // ...but a subsequent write does report the consumer invalidated.
        let w = d.write(producer, l);
        assert_eq!(w.invalidated & 0b10, 0b10);
    }

    #[test]
    fn stream_fetch_then_demand_read_is_hit_after_install() {
        let mut d = dsm();
        let (producer, consumer) = (NodeId::new(0), NodeId::new(1));
        let l = Line::new(11);
        d.write(producer, l);
        d.stream_fetch(consumer, l);
        d.install(consumer, l);
        let out = d.read(consumer, l);
        assert!(out.hit.is_some(), "installed streamed block must hit");
    }

    #[test]
    fn drop_sharer_stops_invalidations() {
        let mut d = dsm();
        let (producer, consumer) = (NodeId::new(0), NodeId::new(1));
        let l = Line::new(11);
        d.write(producer, l);
        d.stream_fetch(consumer, l);
        d.drop_sharer(consumer, l);
        let w = d.write(producer, l);
        assert_eq!(
            w.invalidated & 0b10,
            0,
            "dropped sharer must not be invalidated"
        );
    }

    #[test]
    fn read_after_stream_fetch_without_install_still_classifies_replacement() {
        // stream_fetch marks the consumer as a holder of the current
        // version; if the SVB entry is lost and the data unchanged, the
        // demand miss is a replacement, not coherence.
        let mut d = dsm();
        let (producer, consumer) = (NodeId::new(0), NodeId::new(1));
        let l = Line::new(11);
        d.write(producer, l);
        d.stream_fetch(consumer, l);
        d.drop_sharer(consumer, l);
        let out = d.read(consumer, l);
        assert_eq!(out.miss_class(), Some(MissClass::Replacement));
    }

    #[test]
    fn traffic_accumulates_for_remote_fills() {
        let mut d = dsm();
        // Line 1's home is node 1; node 0 reading it is a 2-hop fill.
        let out = d.read(NodeId::new(0), Line::new(1));
        assert!(matches!(
            out.miss.unwrap().fill,
            FillPath::RemoteMemory { .. }
        ));
        let r = d.traffic().report();
        assert!(r.demand_bytes > 0);
        assert_eq!(r.overhead_bytes, 0);
    }

    #[test]
    fn local_home_fill_has_no_traffic() {
        let mut d = dsm();
        // Line 0's home is node 0.
        let out = d.read(NodeId::new(0), Line::new(0));
        assert!(matches!(out.miss.unwrap().fill, FillPath::LocalMemory));
        assert_eq!(d.traffic().report().total_bytes, 0);
    }

    #[test]
    fn global_seq_increments_per_miss() {
        let mut d = dsm();
        d.read(NodeId::new(0), Line::new(1));
        d.read(NodeId::new(0), Line::new(2));
        d.read(NodeId::new(0), Line::new(1)); // hit: no seq
        assert_eq!(d.global_seq(), 2);
    }

    #[test]
    fn read_repeat_matches_repeated_reads() {
        // Same-line runs through every first-read outcome (cold miss,
        // L2 hit after L1 pressure, plain L1 hit) must leave both
        // systems in identical observable state.
        let mut a = dsm();
        let mut b = dsm();
        let n = NodeId::new(0);
        let runs = [
            (Line::new(5), 4u64), // cold miss then L1 hits
            (Line::new(5), 3),    // L1 hit run
            (Line::new(69), 2),   // different set
            (Line::new(5), 1),    // run of one
        ];
        for &(line, count) in &runs {
            let first = a.read(n, line);
            for _ in 1..count {
                let rest = a.read(n, line);
                assert_eq!(rest.hit, Some(HitLevel::L1), "run tail must hit L1");
            }
            assert_eq!(b.read_repeat(n, line, count), first);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.global_seq(), b.global_seq());
        assert_eq!(a.traffic().report(), b.traffic().report());
    }

    #[test]
    fn fill_path_supplier() {
        let n0 = NodeId::new(0);
        assert_eq!(FillPath::LocalMemory.supplier(n0), n0);
        assert_eq!(
            FillPath::RemoteMemory {
                home: NodeId::new(2)
            }
            .supplier(n0),
            NodeId::new(2)
        );
        assert_eq!(
            FillPath::RemoteCache {
                home: NodeId::new(2),
                owner: NodeId::new(3)
            }
            .supplier(n0),
            NodeId::new(3)
        );
    }

    #[test]
    fn fill_latency_ordering() {
        let d = dsm();
        let n = NodeId::new(0);
        let local = d.fill_latency(n, FillPath::LocalMemory);
        let two_hop = d.fill_latency(
            n,
            FillPath::RemoteMemory {
                home: NodeId::new(1),
            },
        );
        let three_hop = d.fill_latency(
            n,
            FillPath::RemoteCache {
                home: NodeId::new(1),
                owner: NodeId::new(3),
            },
        );
        assert!(local < two_hop, "{local} !< {two_hop}");
        assert!(two_hop < three_hop, "{two_hop} !< {three_hop}");
        // Local: controller (16) + memory (240 cy at 4 GHz).
        assert_eq!(local.raw(), 16 + 240);
    }

    /// A test-only copy of the per-node seen-version rule the directory's
    /// `held` set replaced: every fill, stream fetch, install and
    /// version-bumping write records the line's current version for the
    /// node, and a read miss is cold on never-written data, coherence
    /// when the node never saw the line or saw an older version, and
    /// replacement otherwise.
    #[derive(Default)]
    struct SeenModel {
        seen: std::collections::HashMap<(NodeId, Line), u64>,
    }

    impl SeenModel {
        fn record(&mut self, d: &DsmSystem, node: NodeId, line: Line) {
            let version = d.directory().entry(line).version;
            self.seen.insert((node, line), version);
        }

        fn classify(&self, d: &DsmSystem, node: NodeId, line: Line) -> MissClass {
            match (
                self.seen.get(&(node, line)),
                d.directory().entry(line).version,
            ) {
                (_, 0) => MissClass::Cold,
                (None, _) => MissClass::Coherence,
                (Some(&v), cur) if cur > v => MissClass::Coherence,
                _ => MissClass::Replacement,
            }
        }
    }

    proptest::proptest! {
        /// Miss classes from the directory's `held` set equal the
        /// seen-version rule over random reads, writes, stream fetches,
        /// installs and sharer drops on a 4-node machine whose tiny
        /// caches evict often.
        #[test]
        fn miss_classes_match_the_seen_version_rule(
            ops in proptest::collection::vec((0u8..5, 0u16..4, 0u64..40), 0..400),
        ) {
            let mut d = dsm();
            let mut model = SeenModel::default();
            for (op, node, k) in ops {
                let (n, l) = (NodeId::new(node), Line::new(k * 16));
                match op {
                    0 => {
                        let expected = model.classify(&d, n, l);
                        let out = d.read(n, l);
                        if let Some(class) = out.miss_class() {
                            proptest::prop_assert_eq!(class, expected);
                            model.record(&d, n, l);
                        }
                    }
                    1 => {
                        if !d.write(n, l).silent {
                            model.record(&d, n, l);
                        }
                    }
                    2 => {
                        d.stream_fetch(n, l);
                        model.record(&d, n, l);
                    }
                    3 => {
                        d.install(n, l);
                        model.record(&d, n, l);
                    }
                    _ => d.drop_sharer(n, l),
                }
            }
        }
    }

    #[test]
    fn rejects_oversized_system() {
        let cfg = SystemConfig::builder()
            .nodes(128)
            .torus(16, 8)
            .build()
            .unwrap();
        assert!(DsmSystem::new(&cfg).is_err());
    }
}
