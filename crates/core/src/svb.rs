//! The Streamed Value Buffer (SVB).

use std::collections::VecDeque;
use tse_memsim::{FastHashMap, FillPath};
use tse_types::{Cycle, Line, NodeId};

/// One SVB entry: a streamed (clean) cache block awaiting use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvbEntry {
    /// The block's line address.
    pub line: Line,
    /// The stream queue that fetched it.
    pub queue: u64,
    /// How the block was fetched (for deferred traffic accounting).
    pub fill: FillPath,
    /// When the block's data arrives (timing mode; `Cycle::ZERO` in trace
    /// mode). A demand access before `ready_at` is *partially* covered.
    pub ready_at: Cycle,
}

/// The streamed value buffer: a small fully-associative LRU buffer holding
/// streamed blocks beside the cache hierarchy (Section 3.3 of the paper).
///
/// Entries hold only clean data; a write to the block by *any* processor
/// invalidates the entry. A demand hit removes the entry (the block moves
/// to the L1 data cache). The paper chooses 32 entries (2 KB).
///
/// Only an insertion refreshes an entry's recency, so the LRU victim is
/// always the oldest live insertion. The buffer keeps its insertions in
/// order, with lazy deletion: a taken, invalidated or re-inserted entry
/// leaves a stale record behind, which eviction skips and compaction
/// drops. Eviction is amortized O(1) instead of a scan over every entry.
///
/// # Example
///
/// ```
/// use tse_core::Svb;
/// use tse_memsim::FillPath;
/// use tse_types::{Cycle, Line};
///
/// let mut svb = Svb::new(Some(2));
/// svb.insert(Line::new(1), 0, FillPath::LocalMemory, Cycle::ZERO);
/// assert!(svb.contains(Line::new(1)));
/// let hit = svb.take(Line::new(1)).expect("hit");
/// assert_eq!(hit.queue, 0);
/// assert!(!svb.contains(Line::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Svb {
    entries: FastHashMap<Line, (SvbEntry, u64)>, // entry + insertion stamp
    /// `(line, stamp)` per insertion, oldest first. A record is live iff
    /// `entries` maps its line to the same stamp.
    order: VecDeque<(Line, u64)>,
    capacity: Option<usize>,
    tick: u64,
    hits: u64,
    insertions: u64,
    evictions: u64,
    invalidations: u64,
}

impl Svb {
    /// Creates an SVB bounded to `capacity` entries (`None` = unlimited,
    /// used by the paper's opportunity studies).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is `Some(0)`.
    pub fn new(capacity: Option<usize>) -> Self {
        assert!(capacity != Some(0), "SVB capacity must be nonzero");
        Svb {
            entries: FastHashMap::default(),
            order: VecDeque::new(),
            capacity,
            tick: 0,
            hits: 0,
            insertions: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Current number of resident blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Capacity in entries (`None` = unlimited).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Demand hits served so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Blocks ever inserted.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Blocks evicted (LRU) without being used.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Blocks invalidated by writes without being used.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// True if the buffer holds the line (no LRU side effect).
    pub fn contains(&self, line: Line) -> bool {
        self.entries.contains_key(&line)
    }

    /// Peeks at an entry without removing it.
    pub fn peek(&self, line: Line) -> Option<&SvbEntry> {
        self.entries.get(&line).map(|(e, _)| e)
    }

    /// Inserts a streamed block, returning the displaced entry if one was
    /// dropped: either the LRU victim when the buffer was full, or the
    /// stale copy of the same line when re-streamed. Displaced entries
    /// were never used, so their fetches become discards.
    pub fn insert(
        &mut self,
        line: Line,
        queue: u64,
        fill: FillPath,
        ready_at: Cycle,
    ) -> Option<SvbEntry> {
        self.tick += 1;
        self.insertions += 1;
        let entry = SvbEntry {
            line,
            queue,
            fill,
            ready_at,
        };
        self.order.push_back((line, self.tick));
        let displaced = if let Some((old, _)) = self.entries.insert(line, (entry, self.tick)) {
            Some(old) // replaced in place, old copy unused
        } else if self.capacity.is_some_and(|cap| self.entries.len() > cap) {
            Some(self.evict_oldest())
        } else {
            None
        };
        if displaced.is_some() {
            self.evictions += 1;
        }
        // Stale records outnumbering live ones: drop them. Each
        // compaction leaves only live records, so its cost is paid for
        // by the insertions that made the stale ones.
        if self.order.len() > 2 * self.entries.len() + 1 {
            let entries = &self.entries;
            self.order.retain(|record| is_live(entries, record));
        }
        displaced
    }

    /// Removes and returns the oldest live insertion (the LRU entry).
    fn evict_oldest(&mut self) -> SvbEntry {
        loop {
            let record = self.order.pop_front().expect("a live entry is queued");
            if is_live(&self.entries, &record) {
                return self.entries.remove(&record.0).expect("live").0;
            }
        }
    }

    /// Removes a resident entry. Its order record becomes stale; one at
    /// either end of the queue (the newest block used at once, or the
    /// oldest used in stream order) is dropped right away instead.
    fn remove(&mut self, line: Line) -> Option<SvbEntry> {
        let (entry, stamp) = self.entries.remove(&line)?;
        if self.order.back() == Some(&(line, stamp)) {
            self.order.pop_back();
        } else if self.order.front() == Some(&(line, stamp)) {
            self.order.pop_front();
        }
        Some(entry)
    }

    /// Demand lookup: removes and returns the entry on a hit (the block
    /// moves to the L1 cache).
    pub fn take(&mut self, line: Line) -> Option<SvbEntry> {
        let entry = self.remove(line)?;
        self.hits += 1;
        Some(entry)
    }

    /// Invalidates the line if resident (a write by any processor),
    /// returning the dropped entry for discard accounting.
    pub fn invalidate(&mut self, line: Line) -> Option<SvbEntry> {
        let entry = self.remove(line)?;
        self.invalidations += 1;
        Some(entry)
    }

    /// Drains all residual entries in insertion order (end of
    /// simulation): each is a block that was streamed but never used.
    pub fn drain(&mut self) -> Vec<SvbEntry> {
        let mut order = std::mem::take(&mut self.order);
        let out = order
            .drain(..)
            .filter(|record| is_live(&self.entries, record))
            .map(|(line, _)| self.entries[&line].0)
            .collect();
        self.entries.clear();
        out
    }
}

/// Whether an order record still names its line's resident entry.
fn is_live(entries: &FastHashMap<Line, (SvbEntry, u64)>, &(line, stamp): &(Line, u64)) -> bool {
    entries.get(&line).is_some_and(|&(_, s)| s == stamp)
}

/// The streamed value buffers of every node in the machine, under one
/// owner that keeps a line → node-mask residency index.
///
/// A write must invalidate the line in *every* node's buffer. With the
/// index, that costs one probe for the common case of a line no buffer
/// holds, and otherwise visits only the holders, in ascending node
/// order. The TSE and the stride/GHB harness share this type.
///
/// # Example
///
/// ```
/// use tse_core::SvbSet;
/// use tse_memsim::FillPath;
/// use tse_types::{Cycle, Line, NodeId};
///
/// let mut svbs = SvbSet::new(4, Some(32));
/// let line = Line::new(9);
/// for n in [3u16, 1] {
///     svbs.insert(NodeId::new(n), line, 0, FillPath::LocalMemory, Cycle::ZERO);
/// }
/// let mut dropped = Vec::new();
/// svbs.invalidate(line, |node, _| dropped.push(node));
/// assert_eq!(dropped, [NodeId::new(1), NodeId::new(3)]);
/// assert!(!svbs.contains(NodeId::new(1), line));
/// ```
#[derive(Debug, Clone)]
pub struct SvbSet {
    buffers: Vec<Svb>,
    /// Line → bitmask of the nodes whose buffer holds it. Only lines
    /// held somewhere have an entry.
    resident: FastHashMap<Line, u64>,
}

impl SvbSet {
    /// Creates `nodes` empty buffers of `capacity` entries each (`None` =
    /// unlimited).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds 64 (residency is a `u64` node mask) or
    /// `capacity` is `Some(0)`.
    pub fn new(nodes: usize, capacity: Option<usize>) -> Self {
        assert!(nodes <= 64, "SvbSet supports at most 64 nodes, got {nodes}");
        SvbSet {
            buffers: (0..nodes).map(|_| Svb::new(capacity)).collect(),
            resident: FastHashMap::default(),
        }
    }

    /// One node's buffer (for its counters and contents).
    pub fn node(&self, node: NodeId) -> &Svb {
        &self.buffers[node.index()]
    }

    /// True if `node`'s buffer holds the line.
    pub fn contains(&self, node: NodeId, line: Line) -> bool {
        self.resident
            .get(&line)
            .is_some_and(|&mask| mask & bit(node) != 0)
    }

    /// Clears `node`'s residency bit for `line`; returns whether it was
    /// set.
    fn unmark(&mut self, node: NodeId, line: Line) -> bool {
        let Some(mask) = self.resident.get_mut(&line) else {
            return false;
        };
        let was_set = *mask & bit(node) != 0;
        *mask &= !bit(node);
        if *mask == 0 {
            self.resident.remove(&line);
        }
        was_set
    }

    /// [`Svb::insert`] into `node`'s buffer.
    pub fn insert(
        &mut self,
        node: NodeId,
        line: Line,
        queue: u64,
        fill: FillPath,
        ready_at: Cycle,
    ) -> Option<SvbEntry> {
        let displaced = self.buffers[node.index()].insert(line, queue, fill, ready_at);
        *self.resident.entry(line).or_insert(0) |= bit(node);
        if let Some(victim) = displaced.filter(|v| v.line != line) {
            self.unmark(node, victim.line);
        }
        displaced
    }

    /// [`Svb::take`] from `node`'s buffer.
    pub fn take(&mut self, node: NodeId, line: Line) -> Option<SvbEntry> {
        if !self.unmark(node, line) {
            return None;
        }
        self.buffers[node.index()].take(line)
    }

    /// Invalidates the line in every buffer that holds it (a write by
    /// any processor), passing each dropped entry to `on_drop` in
    /// ascending node order.
    pub fn invalidate(&mut self, line: Line, mut on_drop: impl FnMut(NodeId, SvbEntry)) {
        let Some(mut mask) = self.resident.remove(&line) else {
            return;
        };
        while mask != 0 {
            let n = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let entry = self.buffers[n]
                .invalidate(line)
                .expect("residency index matches the buffers");
            on_drop(NodeId::new(n as u16), entry);
        }
    }

    /// [`Svb::drain`] of `node`'s buffer.
    pub fn drain(&mut self, node: NodeId) -> Vec<SvbEntry> {
        let drained = self.buffers[node.index()].drain();
        for e in &drained {
            self.unmark(node, e.line);
        }
        drained
    }
}

fn bit(node: NodeId) -> u64 {
    1u64 << node.index()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fill() -> FillPath {
        FillPath::LocalMemory
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = Svb::new(Some(0));
    }

    #[test]
    fn insert_take_round_trip() {
        let mut s = Svb::new(Some(4));
        s.insert(Line::new(1), 7, fill(), Cycle::new(5));
        let e = s.take(Line::new(1)).unwrap();
        assert_eq!(e.queue, 7);
        assert_eq!(e.ready_at, Cycle::new(5));
        assert_eq!(s.hits(), 1);
        assert!(s.take(Line::new(1)).is_none());
    }

    #[test]
    fn lru_eviction_on_overflow() {
        let mut s = Svb::new(Some(2));
        s.insert(Line::new(1), 0, fill(), Cycle::ZERO);
        s.insert(Line::new(2), 0, fill(), Cycle::ZERO);
        let victim = s.insert(Line::new(3), 0, fill(), Cycle::ZERO);
        assert_eq!(victim.unwrap().line, Line::new(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.evictions(), 1);
        assert!(s.contains(Line::new(2)) && s.contains(Line::new(3)));
    }

    #[test]
    fn reinsert_displaces_stale_copy_and_refreshes_lru() {
        let mut s = Svb::new(Some(2));
        s.insert(Line::new(1), 0, fill(), Cycle::ZERO);
        s.insert(Line::new(2), 0, fill(), Cycle::ZERO);
        // Re-stream 1: the stale copy is displaced and 2 becomes LRU.
        let stale = s.insert(Line::new(1), 9, fill(), Cycle::ZERO);
        assert_eq!(stale.unwrap().queue, 0);
        let victim = s.insert(Line::new(3), 0, fill(), Cycle::ZERO);
        assert_eq!(victim.unwrap().line, Line::new(2));
        assert_eq!(s.peek(Line::new(1)).unwrap().queue, 9);
    }

    #[test]
    fn invalidate_drops_entry() {
        let mut s = Svb::new(None);
        s.insert(Line::new(1), 0, fill(), Cycle::ZERO);
        assert!(s.invalidate(Line::new(1)).is_some());
        assert!(s.invalidate(Line::new(1)).is_none());
        assert_eq!(s.invalidations(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn unlimited_capacity_never_evicts() {
        let mut s = Svb::new(None);
        for i in 0..10_000 {
            assert!(s.insert(Line::new(i), 0, fill(), Cycle::ZERO).is_none());
        }
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.evictions(), 0);
    }

    #[test]
    fn drain_returns_residuals() {
        let mut s = Svb::new(Some(8));
        s.insert(Line::new(1), 0, fill(), Cycle::ZERO);
        s.insert(Line::new(2), 0, fill(), Cycle::ZERO);
        s.take(Line::new(1));
        let drained = s.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].line, Line::new(2));
        assert!(s.is_empty());
    }

    #[test]
    fn drain_is_in_insertion_order() {
        let mut s = Svb::new(None);
        for l in [5u64, 3, 9, 1, 7] {
            s.insert(Line::new(l), 0, fill(), Cycle::ZERO);
        }
        // Re-inserting 3 moves it to the back.
        s.insert(Line::new(3), 0, fill(), Cycle::ZERO);
        let lines: Vec<u64> = s.drain().iter().map(|e| e.line.index()).collect();
        assert_eq!(lines, [5, 9, 1, 7, 3]);
        assert!(s.order.is_empty());
    }

    #[test]
    fn order_queue_stays_bounded_without_evictions() {
        // An insert/take loop never fills the buffer, so nothing is ever
        // evicted: only compaction keeps the stale records in check. The
        // first block of each pair is taken from the middle of the queue,
        // so its record cannot be dropped at either end.
        let cap = 32;
        let mut s = Svb::new(Some(cap));
        for l in 0..8u64 {
            s.insert(Line::new(1_000_000 + l), 0, fill(), Cycle::ZERO);
        }
        for i in 0..10_000u64 {
            s.insert(Line::new(2 * i), 0, fill(), Cycle::ZERO);
            s.insert(Line::new(2 * i + 1), 0, fill(), Cycle::ZERO);
            s.take(Line::new(2 * i));
            s.take(Line::new(2 * i + 1));
            assert!(
                s.order.len() <= 2 * cap + 1,
                "order queue grew to {}",
                s.order.len()
            );
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.evictions(), 0);
    }

    #[test]
    fn svb_set_tracks_residency_per_node() {
        let mut set = SvbSet::new(4, Some(2));
        let (a, b) = (NodeId::new(0), NodeId::new(2));
        let l = Line::new(7);
        set.insert(a, l, 0, fill(), Cycle::ZERO);
        set.insert(b, l, 0, fill(), Cycle::ZERO);
        assert!(set.contains(a, l) && set.contains(b, l));
        assert!(!set.contains(NodeId::new(1), l));
        // Evicting the line from a's buffer clears only a's bit.
        set.insert(a, Line::new(8), 0, fill(), Cycle::ZERO);
        let victim = set.insert(a, Line::new(9), 0, fill(), Cycle::ZERO);
        assert_eq!(victim.map(|v| v.line), Some(l));
        assert!(!set.contains(a, l) && set.contains(b, l));
        // A hit clears the bit; a miss takes nothing.
        assert!(set.take(b, l).is_some());
        assert!(set.take(b, l).is_none());
        assert_eq!(set.node(b).hits(), 1);
        assert!(!set.resident.contains_key(&l), "empty masks are removed");
        // Draining a node clears its bits.
        let drained: Vec<Line> = set.drain(a).iter().map(|e| e.line).collect();
        assert_eq!(drained, [Line::new(8), Line::new(9)]);
        assert!(set.resident.is_empty());
    }

    /// The pre-queue SVB: LRU victim found by a min-stamp scan over every
    /// entry.
    struct ScanSvb {
        entries: std::collections::HashMap<Line, (SvbEntry, u64)>,
        capacity: Option<usize>,
        tick: u64,
    }

    impl ScanSvb {
        fn insert(&mut self, line: Line, queue: u64) -> Option<SvbEntry> {
            self.tick += 1;
            let entry = SvbEntry {
                line,
                queue,
                fill: fill(),
                ready_at: Cycle::ZERO,
            };
            if let Some((old, _)) = self.entries.insert(line, (entry, self.tick)) {
                return Some(old);
            }
            if self.capacity.is_some_and(|cap| self.entries.len() > cap) {
                let victim = *self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .map(|(l, _)| l)
                    .unwrap();
                return self.entries.remove(&victim).map(|(e, _)| e);
            }
            None
        }

        /// Residents, oldest insertion first.
        fn contents(&self) -> Vec<SvbEntry> {
            let mut v: Vec<_> = self.entries.values().copied().collect();
            v.sort_by_key(|&(_, stamp)| stamp);
            v.into_iter().map(|(e, _)| e).collect()
        }
    }

    proptest! {
        #[test]
        fn occupancy_never_exceeds_capacity(lines in proptest::collection::vec(0u64..64, 0..200)) {
            let mut s = Svb::new(Some(8));
            for l in lines {
                s.insert(Line::new(l), 0, fill(), Cycle::ZERO);
                prop_assert!(s.len() <= 8);
            }
        }

        /// The insertion-order queue against the min-stamp scan: same
        /// victims and displaced copies, same contents in the same order,
        /// under random inserts, takes and invalidations.
        #[test]
        fn matches_min_stamp_scan(
            ops in proptest::collection::vec((0u8..4, 0u64..24), 0..400),
            cap in 1usize..6,
        ) {
            let mut s = Svb::new(Some(cap));
            let mut reference = ScanSvb {
                entries: Default::default(),
                capacity: Some(cap),
                tick: 0,
            };
            for (i, (op, l)) in ops.into_iter().enumerate() {
                let line = Line::new(l);
                match op {
                    0 | 1 => prop_assert_eq!(
                        s.insert(line, i as u64, fill(), Cycle::ZERO),
                        reference.insert(line, i as u64)
                    ),
                    2 => prop_assert_eq!(
                        s.take(line),
                        reference.entries.remove(&line).map(|(e, _)| e)
                    ),
                    _ => prop_assert_eq!(
                        s.invalidate(line),
                        reference.entries.remove(&line).map(|(e, _)| e)
                    ),
                }
                prop_assert!(s.order.len() <= 2 * cap + 1);
            }
            prop_assert_eq!(s.drain(), reference.contents());
        }

        /// The residency index always agrees with the per-node buffers,
        /// and a write invalidates exactly the holders, ascending.
        #[test]
        fn svb_set_index_matches_buffers(
            ops in proptest::collection::vec((0u8..4, 0u16..4, 0u64..16), 0..300),
        ) {
            let mut set = SvbSet::new(4, Some(3));
            for (op, n, l) in ops {
                let (node, line) = (NodeId::new(n), Line::new(l));
                match op {
                    0 | 1 => { set.insert(node, line, 0, fill(), Cycle::ZERO); }
                    2 => { set.take(node, line); }
                    _ => {
                        let holders: Vec<NodeId> = (0..4u16)
                            .map(NodeId::new)
                            .filter(|&m| set.node(m).contains(line))
                            .collect();
                        let mut dropped = Vec::new();
                        set.invalidate(line, |m, e| {
                            assert_eq!(e.line, line);
                            dropped.push(m);
                        });
                        prop_assert_eq!(dropped, holders);
                    }
                }
                for m in (0..4u16).map(NodeId::new) {
                    for l in 0..16 {
                        let l = Line::new(l);
                        prop_assert_eq!(set.contains(m, l), set.node(m).contains(l));
                    }
                }
            }
        }

        #[test]
        fn accounting_identity(ops in proptest::collection::vec((0u8..3, 0u64..32), 0..300)) {
            // insertions == hits + evictions + invalidations + residents
            let mut s = Svb::new(Some(4));
            let mut evicted = 0u64;
            for (op, l) in ops {
                match op {
                    0 => {
                        if s.insert(Line::new(l), 0, fill(), Cycle::ZERO).is_some() {
                            evicted += 1;
                        }
                    }
                    1 => { s.take(Line::new(l)); }
                    _ => { s.invalidate(Line::new(l)); }
                }
            }
            prop_assert_eq!(evicted, s.evictions());
            prop_assert_eq!(
                s.insertions(),
                s.hits() + s.evictions() + s.invalidations() + s.len() as u64
            );
        }
    }
}
