//! Full-map directory for the invalidation protocol.

use crate::LineMap;
use tse_types::{Line, NodeId};

/// Sharing state of a line at its home directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the line; memory is the only copy.
    Uncached,
    /// One or more caches hold clean copies (bitmask of sharers).
    Shared(u64),
    /// Exactly one cache holds a (potentially dirty) copy.
    Modified(NodeId),
}

/// One directory entry.
///
/// `version` counts write-ownership acquisitions: it increments each time
/// a node that does not already hold the line exclusively writes it.
/// `held` is the set of nodes that have held the line *since* that
/// version was created: a read fill, a stream fetch or an install adds
/// the node, and a version-bumping write resets it to the writer alone.
/// Evictions and invalidations leave it alone. A read miss by a node in
/// `held` lost data that is still current (a replacement miss); a read
/// miss by any other node fetches data produced since it last held the
/// line (a coherence miss). This is how [`crate::DsmSystem`] classifies
/// misses, with no per-node history outside the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryEntry {
    /// Current sharing state.
    pub state: DirState,
    /// Bitmask of nodes that have held the current version.
    pub held: u64,
    /// Write-ownership generation counter (0 = never written).
    pub version: u64,
}

impl DirectoryEntry {
    fn new() -> Self {
        DirectoryEntry {
            state: DirState::Uncached,
            held: 0,
            version: 0,
        }
    }
}

impl Default for DirectoryEntry {
    /// An `Uncached`, never-written entry — the state every line starts
    /// in (also the placeholder [`LineMap`] stores in empty slots).
    fn default() -> Self {
        DirectoryEntry::new()
    }
}

/// Outcome of a fused read-miss directory transaction
/// ([`Directory::read_fill`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadFill {
    /// Node that had to supply dirty data (3-hop fill), if any.
    pub supplier: Option<NodeId>,
    /// The entry's write-generation counter (unchanged by reads).
    pub version: u64,
    /// Whether the reader was already in [`DirectoryEntry::held`] before
    /// this fill added it, i.e. had held the current version before.
    pub held: bool,
}

/// Outcome of a fused write transaction ([`Directory::write_acquire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteGrant {
    /// Bitmask of nodes whose copies were invalidated.
    pub invalidated: u64,
    /// True if the writer already held the line exclusively (a silent
    /// upgrade: no state change, no version bump). Reported so
    /// [`crate::DsmSystem`] can detect silent store hits without a
    /// second directory lookup.
    pub was_exclusive: bool,
}

/// Compact stored form of a directory entry: 24 bytes, so a map slot
/// (key + entry) is 32 bytes, two to a host cache line — the directory
/// table is megabytes and probed cold on every simulated miss, so bytes
/// per probe are what the hot path pays for.
///
/// Encoding: `mask == 0` is `Uncached`; otherwise the `MODIFIED` bit of
/// `ver` distinguishes `Modified` (mask = owner's bit) from `Shared`.
/// The version lives in the remaining 63 bits of `ver`.
#[derive(Debug, Clone, Copy, Default)]
struct PackedEntry {
    /// Sharer bitmask (`Shared`), or the owner's bit (`Modified`).
    mask: u64,
    /// Nodes that have held the current version.
    held: u64,
    /// `version << 1 | MODIFIED`.
    ver: u64,
}

/// Bit 0 of [`PackedEntry::ver`]: the line is exclusively owned.
const MODIFIED: u64 = 1;

impl PackedEntry {
    #[inline]
    fn modified(&self) -> bool {
        self.ver & MODIFIED != 0
    }

    #[inline]
    fn version(&self) -> u64 {
        self.ver >> 1
    }

    #[inline]
    fn owner(&self) -> NodeId {
        debug_assert!(self.modified() && self.mask != 0);
        NodeId::new(self.mask.trailing_zeros() as u16)
    }

    fn unpack(&self) -> DirectoryEntry {
        DirectoryEntry {
            state: if self.mask == 0 {
                DirState::Uncached
            } else if self.modified() {
                DirState::Modified(self.owner())
            } else {
                DirState::Shared(self.mask)
            },
            held: self.held,
            version: self.version(),
        }
    }
}

/// A full-map directory covering the whole simulated address space.
///
/// Physically each entry lives at the line's home node (the `SystemConfig`
/// interleaving); the simulator stores them in one map and lets callers
/// derive the home for latency/traffic purposes.
///
/// # Example
///
/// ```
/// use tse_memsim::{DirState, Directory};
/// use tse_types::{Line, NodeId};
///
/// let mut dir = Directory::new(16);
/// let line = Line::new(3);
/// let inval = dir.acquire_exclusive(NodeId::new(0), line);
/// assert_eq!(inval, 0); // nobody else to invalidate
/// assert_eq!(dir.entry(line).state, DirState::Modified(NodeId::new(0)));
/// ```
#[derive(Debug, Clone)]
pub struct Directory {
    entries: LineMap<PackedEntry>,
    nodes: usize,
}

impl Directory {
    /// Creates an empty directory for a system of `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds 64 (sharers are tracked in a `u64`
    /// bitmask) or is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(
            nodes > 0 && nodes <= 64,
            "directory supports 1..=64 nodes, got {nodes}"
        );
        Directory {
            entries: LineMap::new(),
            nodes,
        }
    }

    /// Number of nodes this directory serves.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of lines with directory state.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no line has directory state.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the entry for a line (an `Uncached`, never-written entry if
    /// the line has no state yet).
    pub fn entry(&self, line: Line) -> DirectoryEntry {
        self.entries.get(line).unwrap_or_default().unpack()
    }

    fn entry_mut(&mut self, line: Line) -> &mut PackedEntry {
        self.entries.get_or_insert_with(line, PackedEntry::default)
    }

    fn mask(node: NodeId) -> u64 {
        1u64 << node.index()
    }

    /// Registers `node` as a sharer of `line` (a read fill completing).
    ///
    /// Returns the node that had to supply dirty data, if the line was
    /// modified elsewhere (a 3-hop fill); the previous owner is downgraded
    /// to a sharer, as in MSI with a sharing writeback.
    pub fn add_sharer(&mut self, node: NodeId, line: Line) -> Option<NodeId> {
        self.read_fill(node, line).supplier
    }

    /// The fused read-miss transaction: registers `node` as a sharer
    /// (exactly as [`Directory::add_sharer`]) and adds it to the
    /// [`DirectoryEntry::held`] set, reporting the entry's version and
    /// whether the node was already in that set, in the same map lookup.
    /// [`crate::DsmSystem`] needs both on every miss to classify it, and
    /// the directory map sits on the hot path of every simulated access.
    pub fn read_fill(&mut self, node: NodeId, line: Line) -> ReadFill {
        let e = self.entry_mut(line);
        let own = Self::mask(node);
        let supplier = if e.modified() {
            let owner = e.owner();
            e.ver &= !MODIFIED;
            (owner != node).then_some(owner)
        } else {
            None
        };
        e.mask |= own;
        let held = e.held & own != 0;
        e.held |= own;
        ReadFill {
            supplier,
            version: e.version(),
            held,
        }
    }

    /// Adds `node` to the line's [`DirectoryEntry::held`] set without
    /// touching the sharing state (a streamed block moving into the
    /// node's caches). A line with no directory state is left alone: it
    /// was never written, and the first write resets the set anyway.
    pub fn mark_held(&mut self, node: NodeId, line: Line) {
        if let Some(e) = self.entries.get_mut(line) {
            e.held |= Self::mask(node);
        }
    }

    /// Grants `node` exclusive (write) ownership of `line`, invalidating
    /// all other copies.
    ///
    /// Returns the bitmask of nodes whose copies were invalidated (the
    /// caller must drop their cached/streamed copies). Unless `node`
    /// already owned the line exclusively, bumps the version and resets
    /// [`DirectoryEntry::held`] to `node` alone.
    pub fn acquire_exclusive(&mut self, node: NodeId, line: Line) -> u64 {
        self.write_acquire(node, line).invalidated
    }

    /// The fused write transaction: [`Directory::acquire_exclusive`]
    /// plus whether it was a silent upgrade, in one map lookup.
    pub fn write_acquire(&mut self, node: NodeId, line: Line) -> WriteGrant {
        let e = self.entry_mut(line);
        let own = Self::mask(node);
        if e.modified() && e.mask == own {
            // Silent upgrade: still the exclusive owner.
            return WriteGrant {
                invalidated: 0,
                was_exclusive: true,
            };
        }
        let invalidated = e.mask & !own;
        e.mask = own;
        e.held = own;
        // Bump the version (bits 1..) and set MODIFIED (bit 0).
        e.ver = (e.ver | MODIFIED) + 2;
        WriteGrant {
            invalidated,
            was_exclusive: false,
        }
    }

    /// Removes `node` from the sharer set / ownership of `line` (cache
    /// eviction notification or invalidation acknowledgment).
    ///
    /// Returns true if the node was the exclusive owner (the caller should
    /// account a dirty writeback).
    pub fn remove_node(&mut self, node: NodeId, line: Line) -> bool {
        let Some(e) = self.entries.get_mut(line) else {
            return false;
        };
        let own = Self::mask(node);
        if e.modified() {
            if e.mask == own {
                e.mask = 0;
                e.ver &= !MODIFIED;
                true
            } else {
                false
            }
        } else {
            e.mask &= !own;
            false
        }
    }

    /// True if `node` currently holds a registered copy of `line`.
    pub fn holds(&self, node: NodeId, line: Line) -> bool {
        self.entries
            .get(line)
            .is_some_and(|e| e.mask & Self::mask(node) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fresh_entry_is_uncached() {
        let d = Directory::new(16);
        let e = d.entry(Line::new(1));
        assert_eq!(e.state, DirState::Uncached);
        assert_eq!(e.version, 0);
        assert_eq!(e.held, 0);
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn too_many_nodes_panics() {
        let _ = Directory::new(65);
    }

    #[test]
    fn read_read_write_flow() {
        let mut d = Directory::new(4);
        let l = Line::new(9);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));

        assert_eq!(d.add_sharer(a, l), None);
        assert_eq!(d.add_sharer(b, l), None);
        assert!(d.holds(a, l) && d.holds(b, l));

        // c writes: both sharers invalidated, version bumps.
        let inval = d.acquire_exclusive(c, l);
        assert_eq!(inval, 0b011);
        assert_eq!(d.entry(l).version, 1);
        assert_eq!(d.entry(l).held, 0b100, "a write resets held to the writer");
        assert!(!d.holds(a, l) && !d.holds(b, l) && d.holds(c, l));
    }

    #[test]
    fn read_of_modified_line_downgrades_owner() {
        let mut d = Directory::new(4);
        let l = Line::new(9);
        let (w, r) = (NodeId::new(3), NodeId::new(1));
        d.acquire_exclusive(w, l);
        let supplier = d.add_sharer(r, l);
        assert_eq!(supplier, Some(w));
        assert_eq!(d.entry(l).state, DirState::Shared(0b1010));
        // Version unchanged by reads.
        assert_eq!(d.entry(l).version, 1);
    }

    #[test]
    fn owner_rereading_is_not_a_remote_supply() {
        let mut d = Directory::new(4);
        let l = Line::new(9);
        let w = NodeId::new(2);
        d.acquire_exclusive(w, l);
        assert_eq!(d.add_sharer(w, l), None);
    }

    #[test]
    fn silent_upgrade_keeps_version() {
        let mut d = Directory::new(4);
        let l = Line::new(5);
        let w = NodeId::new(0);
        assert_eq!(d.acquire_exclusive(w, l), 0);
        assert_eq!(d.entry(l).version, 1);
        assert_eq!(d.acquire_exclusive(w, l), 0);
        assert_eq!(
            d.entry(l).version,
            1,
            "same-owner rewrite must not bump version"
        );
    }

    #[test]
    fn write_after_shared_readers_bumps_version_once() {
        let mut d = Directory::new(4);
        let l = Line::new(5);
        d.acquire_exclusive(NodeId::new(0), l);
        d.add_sharer(NodeId::new(1), l);
        // Owner 0 was downgraded to sharer; rewriting requires re-acquisition.
        let inval = d.acquire_exclusive(NodeId::new(0), l);
        assert_eq!(inval, 0b10);
        assert_eq!(d.entry(l).version, 2);
    }

    #[test]
    fn fused_ops_agree_with_split_ops() {
        let mut fused = Directory::new(4);
        let mut split = Directory::new(4);
        let l = Line::new(3);
        for (op, node) in [(0u8, 0u16), (1, 1), (0, 2), (1, 2), (0, 3), (1, 0)] {
            let n = NodeId::new(node);
            match op {
                0 => {
                    let f = fused.read_fill(n, l);
                    let supplier = split.add_sharer(n, l);
                    assert_eq!(f.supplier, supplier);
                    assert_eq!(f.version, split.entry(l).version);
                }
                _ => {
                    let g = fused.write_acquire(n, l);
                    let invalidated = split.acquire_exclusive(n, l);
                    assert_eq!(g.invalidated, invalidated);
                }
            }
            assert_eq!(fused.entry(l), split.entry(l));
        }
    }

    #[test]
    fn silent_upgrade_grant_reports_exclusive() {
        let mut d = Directory::new(4);
        let l = Line::new(5);
        let w = NodeId::new(0);
        assert!(!d.write_acquire(w, l).was_exclusive);
        let g = d.write_acquire(w, l);
        assert_eq!(g.invalidated, 0);
        assert!(g.was_exclusive);
        assert_eq!(d.entry(l).version, 1, "silent upgrade keeps the version");
    }

    #[test]
    fn packed_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<PackedEntry>(), 24);
    }

    #[test]
    fn held_tracks_holders_of_the_current_version() {
        let mut d = Directory::new(4);
        let l = Line::new(6);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        // First fill: not held before, held after.
        assert!(!d.read_fill(a, l).held);
        assert_eq!(d.entry(l).held, 0b01);
        // Eviction keeps the held bit: a re-read lost current data.
        d.remove_node(a, l);
        assert!(d.read_fill(a, l).held);
        // A version-bumping write resets the set to the writer.
        d.write_acquire(b, l);
        assert_eq!(d.entry(l).held, 0b10);
        assert!(!d.read_fill(a, l).held);
        // A silent upgrade keeps it.
        let mut d = Directory::new(4);
        d.write_acquire(a, l);
        d.write_acquire(a, l);
        assert_eq!(d.entry(l).held, 0b01);
        // mark_held adds without registering a sharer.
        d.mark_held(b, l);
        assert_eq!(d.entry(l).held, 0b11);
        assert_eq!(d.entry(l).state, DirState::Modified(a));
        // ...and leaves lines with no state alone.
        d.mark_held(b, Line::new(99));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn eviction_removes_sharer_and_owner() {
        let mut d = Directory::new(4);
        let l = Line::new(2);
        d.add_sharer(NodeId::new(0), l);
        assert!(!d.remove_node(NodeId::new(0), l));
        assert_eq!(d.entry(l).state, DirState::Uncached);

        d.acquire_exclusive(NodeId::new(1), l);
        assert!(
            d.remove_node(NodeId::new(1), l),
            "owner eviction is a dirty writeback"
        );
        assert_eq!(d.entry(l).state, DirState::Uncached);
        assert!(!d.remove_node(NodeId::new(2), Line::new(999)));
    }

    proptest! {
        /// Protocol invariant: after any operation sequence, a line is
        /// either Uncached, Shared with a nonzero mask, or Modified; and
        /// `holds` agrees with the state.
        #[test]
        fn state_machine_invariants(ops in proptest::collection::vec((0u8..3, 0u16..4, 0u64..4), 0..200)) {
            let mut d = Directory::new(4);
            for (op, node, line) in ops {
                let n = NodeId::new(node);
                let l = Line::new(line);
                match op {
                    0 => { d.add_sharer(n, l); },
                    1 => { d.acquire_exclusive(n, l); },
                    _ => { d.remove_node(n, l); },
                }
                for line in 0..4 {
                    let e = d.entry(Line::new(line));
                    match e.state {
                        DirState::Shared(m) => {
                            prop_assert!(m != 0, "Shared with empty mask");
                            prop_assert!(m < 16, "sharer outside node range");
                        }
                        DirState::Modified(owner) => {
                            prop_assert!(owner.index() < 4);
                            prop_assert!(d.holds(owner, Line::new(line)));
                        }
                        DirState::Uncached => {}
                    }
                }
            }
        }

        /// Version never decreases and only writes change it.
        #[test]
        fn version_monotonic(ops in proptest::collection::vec((0u8..3, 0u16..4), 0..100)) {
            let mut d = Directory::new(4);
            let l = Line::new(7);
            let mut last_version = 0;
            for (op, node) in ops {
                let n = NodeId::new(node);
                match op {
                    0 => { d.add_sharer(n, l); },
                    1 => { d.acquire_exclusive(n, l); },
                    _ => { d.remove_node(n, l); },
                }
                let v = d.entry(l).version;
                prop_assert!(v >= last_version);
                last_version = v;
            }
        }
    }
}
