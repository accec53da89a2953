//! Open-addressed map keyed by cache [`Line`].
//!
//! The directory's entry table is probed on *every* simulated miss (it
//! also classifies the miss: see [`crate::DirectoryEntry::held`]); as a
//! `HashMap` it dominated the `dsm/read_write_pair` kernel. [`LineMap`]
//! replaces it with a flat, linear-probed table tailored to exactly
//! what the directory needs:
//!
//! * keys are line indices (`u64`), hashed with one multiply-xor mix —
//!   no `Hasher` plumbing, no per-byte loop;
//! * insert-or-update and lookup only (the directory never deletes
//!   entries, it mutates them in place), so there are no tombstones and
//!   probe chains stay short at the 5/8 load ceiling;
//! * keys and values are interleaved in one slot array: every caller
//!   reads the value on a hit and probe chains are short at this load
//!   factor, so landing key and value on the same cache line saves a
//!   second random-memory touch per probe (the directory working set is
//!   megabytes, so each array touched is a likely cache miss).
//!
//! One slot index is reserved as the empty marker (`u64::MAX`); a line
//! with that exact index is legal in a trace, so it is carried in a
//! dedicated side slot rather than the table.

use tse_types::Line;

/// Key reserved to mark an empty slot.
const EMPTY: u64 = u64::MAX;

/// Multiplier for the fibonacci-style hash (same constant family as the
/// workspace's `FastHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Initial capacity (slots); always a power of two.
const INITIAL_CAPACITY: usize = 16;

/// An insert/lookup-only open-addressed hash map from [`Line`] to `V`.
///
/// # Example
///
/// ```
/// use tse_memsim::LineMap;
/// use tse_types::Line;
///
/// let mut m: LineMap<u64> = LineMap::new();
/// m.insert(Line::new(7), 41);
/// *m.get_or_insert_with(Line::new(7), || 0) += 1;
/// assert_eq!(m.get(Line::new(7)), Some(42));
/// assert_eq!(m.get(Line::new(8)), None);
/// ```
#[derive(Debug, Clone)]
pub struct LineMap<V> {
    slots: Vec<Slot<V>>,
    /// `capacity - 1` (capacity is a power of two).
    mask: usize,
    /// Occupied slots (excluding `reserved`).
    len: usize,
    /// Grow when `len` reaches this (5/8 of capacity — plain linear
    /// probing clusters at the load SwissTable-style probing tolerates,
    /// and the headroom is cheap).
    grow_at: usize,
    /// Value for the one line whose index equals the empty marker.
    reserved: Option<V>,
}

/// One slot: key and value together, so a probe that hits pays one
/// random-memory touch instead of two.
#[derive(Debug, Clone, Copy)]
struct Slot<V> {
    key: u64,
    val: V,
}

impl<V: Copy + Default> LineMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        LineMap {
            slots: vec![
                Slot {
                    key: EMPTY,
                    val: V::default(),
                };
                INITIAL_CAPACITY
            ],
            mask: INITIAL_CAPACITY - 1,
            len: 0,
            grow_at: INITIAL_CAPACITY / 8 * 5,
            reserved: None,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len + usize::from(self.reserved.is_some())
    }

    /// True if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn slot(&self, key: u64) -> usize {
        // Multiply-shift on a pre-mixed key: one multiply, and the
        // upper-half bits the mask keeps see every input bit.
        let h = (key ^ (key >> 32)).wrapping_mul(SEED);
        (h >> 32) as usize & self.mask
    }

    /// Looks up the value stored for `line`.
    #[inline]
    pub fn get(&self, line: Line) -> Option<V> {
        let key = line.index();
        if key == EMPTY {
            return self.reserved;
        }
        let mut i = self.slot(key);
        loop {
            let s = &self.slots[i];
            if s.key == key {
                return Some(s.val);
            }
            if s.key == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Returns a mutable reference to the value for `line`, if present
    /// (entries are never removed — callers mutate them in place).
    #[inline]
    pub fn get_mut(&mut self, line: Line) -> Option<&mut V> {
        let key = line.index();
        if key == EMPTY {
            return self.reserved.as_mut();
        }
        let mut i = self.slot(key);
        loop {
            let k = self.slots[i].key;
            if k == key {
                return Some(&mut self.slots[i].val);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Inserts or overwrites the value for `line`.
    #[inline]
    pub fn insert(&mut self, line: Line, value: V) {
        *self.get_or_insert_with(line, V::default) = value;
    }

    /// Returns a mutable reference to the value for `line`, inserting
    /// `default()` first if the line has no entry.
    #[inline]
    pub fn get_or_insert_with(&mut self, line: Line, default: impl FnOnce() -> V) -> &mut V {
        let key = line.index();
        if key == EMPTY {
            return self.reserved.get_or_insert_with(default);
        }
        if self.len >= self.grow_at {
            self.grow();
        }
        let mut i = self.slot(key);
        loop {
            let k = self.slots[i].key;
            if k == key {
                return &mut self.slots[i].val;
            }
            if k == EMPTY {
                self.slots[i] = Slot {
                    key,
                    val: default(),
                };
                self.len += 1;
                return &mut self.slots[i].val;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Doubles the table and re-inserts every entry (no tombstones, so
    /// a plain rehash of occupied slots suffices).
    fn grow(&mut self) {
        let new_cap = (self.mask + 1) * 2;
        let old = std::mem::replace(
            &mut self.slots,
            vec![
                Slot {
                    key: EMPTY,
                    val: V::default(),
                };
                new_cap
            ],
        );
        self.mask = new_cap - 1;
        self.grow_at = new_cap / 8 * 5;
        for s in old {
            if s.key == EMPTY {
                continue;
            }
            let mut i = self.slot(s.key);
            while self.slots[i].key != EMPTY {
                i = (i + 1) & self.mask;
            }
            self.slots[i] = s;
        }
    }
}

impl<V: Copy + Default> Default for LineMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_update() {
        let mut m: LineMap<u64> = LineMap::new();
        assert!(m.is_empty());
        for i in 0..1000u64 {
            m.insert(Line::new(i * 64), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(Line::new(i * 64)), Some(i));
        }
        assert_eq!(m.get(Line::new(1)), None);
        m.insert(Line::new(0), 99);
        assert_eq!(m.get(Line::new(0)), Some(99));
        assert_eq!(m.len(), 1000, "overwrite must not grow the map");
    }

    #[test]
    fn get_or_insert_with_mutates_in_place() {
        let mut m: LineMap<u64> = LineMap::new();
        *m.get_or_insert_with(Line::new(5), || 10) += 1;
        *m.get_or_insert_with(Line::new(5), || 10) += 1;
        assert_eq!(m.get(Line::new(5)), Some(12));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn reserved_key_round_trips() {
        // The line whose index collides with the empty marker must
        // behave like any other key.
        let mut m: LineMap<u64> = LineMap::new();
        let l = Line::new(u64::MAX);
        assert_eq!(m.get(l), None);
        m.insert(l, 7);
        assert_eq!(m.get(l), Some(7));
        assert_eq!(m.len(), 1);
        *m.get_or_insert_with(l, || 0) += 1;
        assert_eq!(m.get(l), Some(8));
    }

    #[test]
    fn growth_preserves_entries() {
        let mut m: LineMap<u64> = LineMap::new();
        // Enough inserts to force several doublings from the initial 16.
        for i in 0..10_000u64 {
            m.insert(Line::new(i.wrapping_mul(0x9e37)), i);
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(m.get(Line::new(i.wrapping_mul(0x9e37))), Some(i));
        }
    }

    proptest! {
        /// LineMap agrees with HashMap under any insert/update sequence.
        #[test]
        fn matches_hashmap(ops in proptest::collection::vec((0u64..64, 0u64..1000), 0..300)) {
            let mut m: LineMap<u64> = LineMap::new();
            let mut reference: HashMap<u64, u64> = HashMap::new();
            for (key, val) in ops {
                // Exercise the reserved key too.
                let key = if key == 63 { u64::MAX } else { key };
                m.insert(Line::new(key), val);
                reference.insert(key, val);
                prop_assert_eq!(m.len(), reference.len());
            }
            for (&k, &v) in &reference {
                prop_assert_eq!(m.get(Line::new(k)), Some(v));
            }
        }
    }
}
