//! Set-associative LRU caches.

use tse_types::{ConfigError, Line, LINE_BYTES};

/// A set-associative cache of line tags with true-LRU replacement.
///
/// The simulator instantiates this for the split L1-D and unified L2 of
/// every node (Table 1 geometries). A way holds residency only: which
/// node has seen which version of a line is the directory's business
/// (see [`crate::DirectoryEntry::held`]), so the caches carry no
/// per-line metadata.
///
/// LRU order within a set is maintained by per-way sequence stamps (exact,
/// not pseudo-LRU), which is what the paper's simulators model.
///
/// Slots are stored as one packed array-of-structs (tag + stamp, with
/// `stamp == 0` marking an empty way) rather than parallel arrays: a
/// multi-megabyte simulated L2 is sparse-randomly probed, so every probe
/// touches one contiguous 16-byte-per-way region (an 8-way set spans two
/// host cache lines) instead of two separate arrays and pages.
///
/// # Example
///
/// ```
/// use tse_memsim::SetAssocCache;
/// use tse_types::Line;
///
/// // 2 sets x 2 ways of 64-byte lines = 256 bytes.
/// let mut c = SetAssocCache::new(256, 2)?;
/// assert_eq!(c.insert(Line::new(0)), None);
/// assert!(c.get(Line::new(0)));
/// # Ok::<(), tse_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    set_mask: u64,
    // ways-per-set slots, flattened: slot = set * ways + way
    slots: Vec<Slot>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// One cache way. `stamp == 0` means empty (ticks start at 1, so every
/// resident way has a nonzero stamp).
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: Line,
    stamp: u64,
}

impl SetAssocCache {
    /// Creates a cache of `bytes` capacity and `ways` associativity over
    /// 64-byte lines.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] unless `bytes / 64 / ways` is a nonzero
    /// power of two (the set count must index with a mask).
    pub fn new(bytes: usize, ways: usize) -> Result<Self, ConfigError> {
        if ways == 0 {
            return Err(ConfigError::new("cache ways must be nonzero"));
        }
        let lines = bytes / LINE_BYTES as usize;
        if lines == 0 || !lines.is_multiple_of(ways) {
            return Err(ConfigError::new(format!(
                "cache of {bytes} bytes cannot hold a whole number of {ways}-way sets"
            )));
        }
        let sets = lines / ways;
        if !sets.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "set count {sets} must be a power of two"
            )));
        }
        Ok(SetAssocCache {
            sets,
            ways,
            set_mask: sets as u64 - 1,
            // Written eagerly: a lazily zeroed allocation moves the
            // first-touch page faults into the replay loop, which
            // measured slower (see DESIGN.md, "Memory-model footprint").
            slots: vec![
                Slot {
                    tag: Line::new(0),
                    stamp: 0,
                };
                lines
            ],
            tick: 0,
            hits: 0,
            misses: 0,
        })
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Capacity in lines.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Demand hits observed so far (via [`SetAssocCache::get`]).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses observed so far (via [`SetAssocCache::get`]).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn set_of(&self, line: Line) -> usize {
        (line.index() & self.set_mask) as usize
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    fn find(&self, line: Line) -> Option<usize> {
        self.slot_range(self.set_of(line))
            .find(|&i| self.slots[i].stamp != 0 && self.slots[i].tag == line)
    }

    /// Books `count` hits on slot `i`: repeated hits restamp the same
    /// slot, so only the final tick is observable.
    fn hit(&mut self, i: usize, count: u64) {
        self.tick += count;
        self.slots[i].stamp = self.tick;
        self.hits += count;
    }

    /// Looks up a line, updating LRU order and hit/miss counters.
    /// Returns true on a hit.
    pub fn get(&mut self, line: Line) -> bool {
        let mut hint = usize::MAX;
        self.get_repeat(line, &mut hint, 1)
    }

    /// Like [`SetAssocCache::get`], but first checks the way cached in
    /// `hint` before scanning the set, and rewrites `hint` on every hit.
    ///
    /// State effects (LRU stamps, tick, hit/miss counters) are identical
    /// to `get` for every input: a resident line occupies exactly one
    /// slot, so a tag match at `hint` finds the same way the scan would.
    /// Callers keep one hint per access stream (e.g. per node) so runs of
    /// touches to the same line skip the way scan entirely.
    pub fn get_hinted(&mut self, line: Line, hint: &mut usize) -> bool {
        self.get_repeat(line, hint, 1)
    }

    /// Batch probe: equivalent to `count` consecutive
    /// [`SetAssocCache::get_hinted`] calls for the same line with no
    /// intervening mutation, in one set probe.
    ///
    /// Repeated hits restamp the same slot, so only the final tick is
    /// observable — a hit advances the tick by `count` and stamps once;
    /// a miss books `count` misses. The batched replay kernel uses this
    /// to collapse a run of same-line probes into one cache operation.
    pub fn get_repeat(&mut self, line: Line, hint: &mut usize, count: u64) -> bool {
        debug_assert!(count > 0, "get_repeat of zero probes");
        let found = match self.slots.get(*hint) {
            Some(s) if s.stamp != 0 && s.tag == line => Some(*hint),
            _ => self.find(line),
        };
        match found {
            Some(i) => {
                *hint = i;
                self.hit(i, count);
                true
            }
            None => {
                self.misses += count;
                false
            }
        }
    }

    /// Returns true if the line is resident (no LRU/counter side effects).
    pub fn contains(&self, line: Line) -> bool {
        self.find(line).is_some()
    }

    /// Inserts a line (or refreshes it if already resident), returning
    /// the evicted victim if the set was full.
    ///
    /// The inserted line becomes most-recently-used.
    pub fn insert(&mut self, line: Line) -> Option<Line> {
        self.tick += 1;
        if let Some(i) = self.find(line) {
            self.slots[i].stamp = self.tick;
            return None;
        }
        self.place(line)
    }

    /// [`SetAssocCache::insert`] for a line the caller has already proven
    /// absent (e.g. a fill right after a miss with no intervening
    /// mutation), skipping the residency scan. State effects are
    /// identical to `insert` on an absent line.
    pub fn insert_absent(&mut self, line: Line) -> Option<Line> {
        debug_assert!(self.find(line).is_none(), "insert_absent on resident line");
        self.tick += 1;
        self.place(line)
    }

    /// Places an absent line into its set: prefer an empty way, otherwise
    /// evict the LRU way. Assumes `self.tick` was already advanced.
    fn place(&mut self, line: Line) -> Option<Line> {
        let set = self.set_of(line);
        let mut victim_slot = None;
        let mut lru_slot = set * self.ways;
        let mut lru_stamp = u64::MAX;
        for i in self.slot_range(set) {
            if self.slots[i].stamp == 0 {
                victim_slot = Some(i);
                break;
            }
            if self.slots[i].stamp < lru_stamp {
                lru_stamp = self.slots[i].stamp;
                lru_slot = i;
            }
        }
        let i = victim_slot.unwrap_or(lru_slot);
        let evicted = (self.slots[i].stamp != 0).then_some(self.slots[i].tag);
        self.slots[i] = Slot {
            tag: line,
            stamp: self.tick,
        };
        evicted
    }

    /// Removes a line if resident; returns true if it was.
    pub fn invalidate(&mut self, line: Line) -> bool {
        match self.find(line) {
            Some(i) => {
                self.slots[i].stamp = 0;
                true
            }
            None => false,
        }
    }

    /// Removes every resident line.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.stamp = 0;
        }
    }

    /// Number of currently resident lines.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.stamp != 0).count()
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|s| s.stamp == 0)
    }

    /// Iterates over resident lines in slot order.
    pub fn iter(&self) -> impl Iterator<Item = Line> + '_ {
        self.slots.iter().filter(|s| s.stamp != 0).map(|s| s.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> SetAssocCache {
        // 1 set x 2 ways
        SetAssocCache::new(128, 2).unwrap()
    }

    #[test]
    fn geometry_validation() {
        assert!(SetAssocCache::new(0, 2).is_err());
        assert!(SetAssocCache::new(128, 0).is_err());
        assert!(SetAssocCache::new(3 * 64, 1).is_err()); // 3 sets
        let c = SetAssocCache::new(64 * 1024, 2).unwrap();
        assert_eq!(c.capacity(), 1024);
        assert_eq!(c.sets(), 512);
        assert_eq!(c.ways(), 2);
    }

    #[test]
    fn way_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        c.insert(Line::new(1));
        assert!(c.get(Line::new(1)));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 0);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        c.insert(Line::new(1));
        c.insert(Line::new(2));
        // Touch line 1 so line 2 becomes LRU.
        assert!(c.get(Line::new(1)));
        let evicted = c.insert(Line::new(3));
        assert_eq!(evicted, Some(Line::new(2)));
        assert!(c.contains(Line::new(1)));
        assert!(c.contains(Line::new(3)));
    }

    #[test]
    fn insert_existing_refreshes_without_eviction() {
        let mut c = tiny();
        c.insert(Line::new(1));
        c.insert(Line::new(2));
        assert_eq!(c.insert(Line::new(1)), None);
        assert_eq!(c.len(), 2);
        // Line 1 was refreshed, so line 2 is now LRU.
        assert_eq!(c.insert(Line::new(3)), Some(Line::new(2)));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(Line::new(1));
        assert!(c.invalidate(Line::new(1)));
        assert!(!c.invalidate(Line::new(1)));
        assert!(!c.contains(Line::new(1)));
        // invalidated way is reused before evicting
        c.insert(Line::new(2));
        c.insert(Line::new(3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn contains_does_not_disturb_lru() {
        let mut c = tiny();
        c.insert(Line::new(1));
        c.insert(Line::new(2));
        // Check 1; LRU is still 1, so inserting evicts 1.
        assert!(c.contains(Line::new(1)));
        let evicted = c.insert(Line::new(3));
        assert_eq!(evicted, Some(Line::new(1)));
    }

    #[test]
    fn different_sets_do_not_interfere() {
        // 2 sets x 1 way
        let mut c = SetAssocCache::new(128, 1).unwrap();
        c.insert(Line::new(0)); // set 0
        c.insert(Line::new(1)); // set 1
        assert_eq!(c.len(), 2);
        let evicted = c.insert(Line::new(2)); // set 0 again
        assert_eq!(evicted, Some(Line::new(0)));
        assert!(c.contains(Line::new(1)));
    }

    #[test]
    fn clear_empties() {
        let mut c = tiny();
        c.insert(Line::new(1));
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn iter_yields_residents() {
        let mut c = tiny();
        c.insert(Line::new(1));
        c.insert(Line::new(2));
        let mut v: Vec<_> = c.iter().collect();
        v.sort();
        assert_eq!(v, vec![Line::new(1), Line::new(2)]);
    }

    #[test]
    fn hinted_get_matches_get() {
        let mut c = tiny();
        let mut hint = usize::MAX;
        c.insert(Line::new(1));
        // Cold hint: falls back to the scan and learns the slot.
        assert!(c.get_hinted(Line::new(1), &mut hint));
        // Warm hint: short-circuits, same result and counters.
        assert!(c.get_hinted(Line::new(1), &mut hint));
        assert_eq!(c.hits(), 2);
        // A miss books a miss and leaves the hint alone.
        assert!(!c.get_hinted(Line::new(9), &mut hint));
        assert_eq!(c.misses(), 1);
        // Stale hint after invalidation: falls back cleanly.
        c.invalidate(Line::new(1));
        assert!(!c.get_hinted(Line::new(1), &mut hint));
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn get_repeat_matches_repeated_hinted_gets() {
        let mut a = tiny();
        let mut b = tiny();
        let (mut ha, mut hb) = (usize::MAX, usize::MAX);
        a.insert(Line::new(1));
        b.insert(Line::new(1));
        // Hit run of 5.
        for _ in 0..5 {
            assert!(a.get_hinted(Line::new(1), &mut ha));
        }
        assert!(b.get_repeat(Line::new(1), &mut hb, 5));
        assert_eq!((a.hits(), a.misses()), (b.hits(), b.misses()));
        // Miss run of 3.
        for _ in 0..3 {
            assert!(!a.get_hinted(Line::new(9), &mut ha));
        }
        assert!(!b.get_repeat(Line::new(9), &mut hb, 3));
        assert_eq!((a.hits(), a.misses()), (b.hits(), b.misses()));
        // Identical LRU evolution afterwards: same eviction choice.
        a.insert(Line::new(2));
        b.insert(Line::new(2));
        assert_eq!(
            a.insert(Line::new(3)),
            b.insert(Line::new(3)),
            "LRU state diverged after batched probes"
        );
    }

    #[test]
    fn insert_absent_matches_insert_for_absent_lines() {
        let mut a = tiny();
        let mut b = tiny();
        a.insert(Line::new(1));
        b.insert_absent(Line::new(1));
        a.insert(Line::new(2));
        b.insert_absent(Line::new(2));
        // Same LRU state: both evict line 1 next.
        assert_eq!(a.insert(Line::new(3)), Some(Line::new(1)));
        assert_eq!(b.insert_absent(Line::new(3)), Some(Line::new(1)));
    }

    /// The naive specification of a true-LRU set-associative cache: one
    /// recency list per set, least recently used first.
    struct RecencyModel {
        ways: usize,
        sets: Vec<Vec<Line>>,
        hits: u64,
        misses: u64,
    }

    impl RecencyModel {
        fn new(sets: usize, ways: usize) -> Self {
            RecencyModel {
                ways,
                sets: vec![Vec::new(); sets],
                hits: 0,
                misses: 0,
            }
        }

        fn set(&mut self, line: Line) -> &mut Vec<Line> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line.index() % n) as usize]
        }

        /// Moves `line` to the MRU end if resident; returns residency.
        fn touch(&mut self, line: Line) -> bool {
            let set = self.set(line);
            match set.iter().position(|&l| l == line) {
                Some(p) => {
                    set.remove(p);
                    set.push(line);
                    true
                }
                None => false,
            }
        }

        fn get(&mut self, line: Line, count: u64) -> bool {
            let hit = self.touch(line);
            if hit {
                self.hits += count;
            } else {
                self.misses += count;
            }
            hit
        }

        fn insert(&mut self, line: Line) -> Option<Line> {
            if self.touch(line) {
                return None;
            }
            let ways = self.ways;
            let set = self.set(line);
            let victim = (set.len() == ways).then(|| set.remove(0));
            set.push(line);
            victim
        }

        fn contains(&mut self, line: Line) -> bool {
            self.set(line).contains(&line)
        }

        fn invalidate(&mut self, line: Line) -> bool {
            let set = self.set(line);
            let before = set.len();
            set.retain(|&l| l != line);
            set.len() != before
        }

        fn residents(&self) -> Vec<Line> {
            let mut v: Vec<Line> = self.sets.iter().flatten().copied().collect();
            v.sort();
            v
        }
    }

    proptest! {
        /// `SetAssocCache` against the recency-list model over random
        /// sequences of every mutating operation: hits, misses, victims
        /// and residency must agree after every step.
        #[test]
        fn matches_recency_list_model(
            ops in proptest::collection::vec((0u8..6, 0u64..24, 1u64..4), 0..300),
        ) {
            // 4 sets x 2 ways.
            let mut c = SetAssocCache::new(512, 2).unwrap();
            let mut m = RecencyModel::new(4, 2);
            let mut hint = usize::MAX;
            for (op, line, count) in ops {
                let l = Line::new(line);
                match op {
                    0 => prop_assert_eq!(c.get(l), m.get(l, 1)),
                    1 => prop_assert_eq!(c.get_hinted(l, &mut hint), m.get(l, 1)),
                    2 => prop_assert_eq!(c.get_repeat(l, &mut hint, count), m.get(l, count)),
                    3 => prop_assert_eq!(c.insert(l), m.insert(l)),
                    4 => {
                        // `insert_absent`'s precondition: only absent lines.
                        if !m.contains(l) {
                            prop_assert_eq!(c.insert_absent(l), m.insert(l));
                        }
                    }
                    _ => prop_assert_eq!(c.invalidate(l), m.invalidate(l)),
                }
                prop_assert_eq!(c.hits(), m.hits);
                prop_assert_eq!(c.misses(), m.misses);
                let mut residents: Vec<Line> = c.iter().collect();
                residents.sort();
                prop_assert_eq!(residents, m.residents());
            }
        }

        #[test]
        fn hinted_and_plain_gets_evolve_identically(
            ops in proptest::collection::vec((0u64..16, any::<bool>()), 0..200),
        ) {
            // 2 sets x 2 ways, random get/insert interleaving: the hinted
            // cache (one shared hint) must stay observationally identical.
            let mut plain = SetAssocCache::new(256, 2).unwrap();
            let mut hinted = SetAssocCache::new(256, 2).unwrap();
            let mut hint = usize::MAX;
            for (line, is_insert) in ops {
                if is_insert {
                    prop_assert_eq!(
                        plain.insert(Line::new(line)),
                        hinted.insert(Line::new(line))
                    );
                } else {
                    prop_assert_eq!(
                        plain.get(Line::new(line)),
                        hinted.get_hinted(Line::new(line), &mut hint)
                    );
                }
                prop_assert_eq!(plain.hits(), hinted.hits());
                prop_assert_eq!(plain.misses(), hinted.misses());
            }
            let mut a: Vec<_> = plain.iter().collect();
            let mut b: Vec<_> = hinted.iter().collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }

        #[test]
        fn occupancy_never_exceeds_capacity(ops in proptest::collection::vec((0u64..64, any::<bool>()), 0..300)) {
            // 4 sets x 2 ways = 8 lines
            let mut c = SetAssocCache::new(512, 2).unwrap();
            for (line, is_insert) in ops {
                if is_insert {
                    c.insert(Line::new(line));
                } else {
                    c.invalidate(Line::new(line));
                }
                prop_assert!(c.len() <= c.capacity());
            }
        }

        #[test]
        fn most_recent_k_in_set_always_resident(lines in proptest::collection::vec(0u64..32, 1..100)) {
            // Fully-associative view: 1 set x 4 ways.
            let mut c = SetAssocCache::new(256, 4).unwrap();
            for &l in &lines {
                c.insert(Line::new(0)); // churn the set with a fixed line between inserts
                c.insert(Line::new(l));
            }
            // The most recently inserted distinct lines (up to 4) must be resident.
            let mut seen = Vec::new();
            for &l in lines.iter().rev() {
                if !seen.contains(&l) {
                    seen.push(l);
                }
                if seen.len() == 2 {
                    break;
                }
            }
            for &l in &seen {
                prop_assert!(c.contains(Line::new(l)), "line {l} missing");
            }
        }

        #[test]
        fn get_after_insert_round_trips(line in any::<u64>()) {
            let mut c = SetAssocCache::new(64 * 1024, 8).unwrap();
            c.insert(Line::new(line));
            prop_assert!(c.get(Line::new(line)));
        }
    }
}
