//! Batched block decoding into reusable structure-of-arrays buffers.
//!
//! [`super::decode_block`] steps a cursor record-at-a-time and pushes
//! into a fresh `Vec<AccessRecord>` per block. The batched path here
//! decodes a whole payload in one pass into a [`RecordBatch`] whose
//! column buffers (and per-node delta state scratch table) are reused
//! across blocks, so steady-state decoding allocates nothing. It
//! applies exactly the same validation as the record-at-a-time codec:
//! reserved flag bits, node range, pc-delta range, zero/oversized
//! stalls, declared record count and trailing bytes all reject the
//! block.

use super::codec::{F_DEPENDENT, F_PC, F_RESERVED, F_SPIN, F_STALL, F_WRITE};
use super::varint::{get_u64, get_u64_window, unzigzag, MAX_VARINT_BYTES};
use crate::{AccessKind, AccessRecord, TraceIoError};
use tse_types::ops::{OP_DEPENDENT, OP_SPIN, OP_WRITE};
use tse_types::{Line, NodeId};

/// Upper bound on one record's encoded size: the flag byte plus up to
/// five varints (node, clock delta, line delta, pc delta, stall).
const MAX_RECORD_BYTES: usize = 1 + 5 * MAX_VARINT_BYTES;

// The lowered op bits reuse the TSB1 flag-bit positions, so lowering a
// decoded flag byte is a single mask.
const _: () = assert!(
    F_WRITE == OP_WRITE && F_DEPENDENT == OP_DEPENDENT && F_SPIN == OP_SPIN,
    "lowered op bits must match the TSB1 flag positions"
);

/// Decodes one varint field, through the hoisted-bounds window decoder
/// when the caller proved `MAX_RECORD_BYTES` of headroom at the start
/// of the record (which leaves at least one window for every field),
/// and the per-byte-checked decoder near the end of the payload. Both
/// paths accept and reject identically.
#[inline]
fn field(payload: &[u8], pos: &mut usize, fast: bool) -> Option<u64> {
    if fast {
        let w: &[u8; MAX_VARINT_BYTES] = payload[*pos..*pos + MAX_VARINT_BYTES]
            .try_into()
            .expect("fast path requires a full window of headroom");
        let (v, n) = get_u64_window(w)?;
        *pos += n;
        Some(v)
    } else {
        get_u64(payload, pos)
    }
}

/// Per-node running decode state, validity-tagged by batch epoch so
/// reuse across blocks is O(1) (no table clear). Mirrors the codec's
/// private `NodeState`, owned here so a batch is self-contained.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    epoch: u64,
    clock: u64,
    line: u64,
    pc: u32,
}

/// A decoded block in structure-of-arrays form.
///
/// Columns are parallel: entry `i` of every column describes record
/// `i` of the block. The raw flag byte is kept as-is; [`RecordBatch::get`]
/// rehydrates an [`AccessRecord`] from the columns.
///
/// # Example
///
/// ```
/// use std::io::Cursor;
/// use tse_trace::store::{RecordBatch, TraceReader, TraceWriter};
/// use tse_trace::AccessRecord;
/// use tse_types::{Line, NodeId};
///
/// let mut w = TraceWriter::new(Cursor::new(Vec::new()))?;
/// for i in 0..100u64 {
///     w.push(AccessRecord::read(NodeId::new(0), i, Line::new(i)))?;
/// }
/// let (_, file) = w.finish()?;
/// let mut r = TraceReader::new(&file.get_ref()[..])?;
/// let raw = r.next_raw_block()?.unwrap();
///
/// let mut batch = RecordBatch::new();
/// batch.decode(&raw.payload, raw.records, raw.offset, raw.index)?;
/// assert_eq!(batch.len(), 100);
/// assert_eq!(batch.get(7).clock, 7);
/// # Ok::<(), tse_trace::TraceIoError>(())
/// ```
#[derive(Debug, Default)]
pub struct RecordBatch {
    flags: Vec<u8>,
    nodes: Vec<u16>,
    clocks: Vec<u64>,
    lines: Vec<u64>,
    pcs: Vec<u32>,
    stalls: Vec<u32>,
    /// Per-node delta state scratch, reused across `decode` calls.
    state: Vec<NodeState>,
    epoch: u64,
}

impl RecordBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.flags.len()
    }

    /// True if the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.flags.is_empty()
    }

    /// Drops the records (buffers keep their capacity).
    pub fn clear(&mut self) {
        self.flags.clear();
        self.nodes.clear();
        self.clocks.clear();
        self.lines.clear();
        self.pcs.clear();
        self.stalls.clear();
    }

    /// Rehydrates record `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> AccessRecord {
        let flags = self.flags[i];
        AccessRecord {
            node: NodeId::new(self.nodes[i]),
            clock: self.clocks[i],
            kind: if flags & F_WRITE != 0 {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            line: Line::new(self.lines[i]),
            pc: self.pcs[i],
            dependent: flags & F_DEPENDENT != 0,
            spin: flags & F_SPIN != 0,
            private_stall: self.stalls[i],
        }
    }

    /// Iterates the batch as [`AccessRecord`]s.
    pub fn iter(&self) -> impl Iterator<Item = AccessRecord> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Highest node index referenced, or `None` for an empty batch.
    pub fn max_node(&self) -> Option<u16> {
        self.nodes.iter().copied().max()
    }

    fn node_state(&mut self, index: usize) -> &mut NodeState {
        if index >= self.state.len() {
            self.state.resize_with(index + 1, NodeState::default);
        }
        let s = &mut self.state[index];
        if s.epoch != self.epoch {
            *s = NodeState {
                epoch: self.epoch,
                ..NodeState::default()
            };
        }
        s
    }

    /// Decodes a whole block payload into this batch in one pass,
    /// replacing its previous contents. `records` is the count the
    /// block header declared; `offset` and `index` are the block's file
    /// position, used in error messages. Decoding is bit-equivalent to
    /// [`super::decode_block`].
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Corrupt`] if the payload does not decode into
    /// exactly `records` records (same contract as
    /// [`super::decode_block`]).
    pub fn decode(
        &mut self,
        payload: &[u8],
        records: u64,
        offset: u64,
        index: u32,
    ) -> Result<(), TraceIoError> {
        self.clear();
        self.epoch += 1;
        let count = usize::try_from(records).unwrap_or(usize::MAX);
        // Capacity hints clamped like the owned decoder's: `records`
        // comes from the file and must not size an allocation alone.
        let hint = count.min(1 << 22);
        self.flags.reserve(hint);
        self.nodes.reserve(hint);
        self.clocks.reserve(hint);
        self.lines.reserve(hint);
        self.pcs.reserve(hint);
        self.stalls.reserve(hint);

        let undecodable =
            || TraceIoError::corrupt(offset, format!("undecodable record in block {index}"));
        let mut pos = 0usize;
        for _ in 0..count {
            // With a full record's worth of headroom every field can use
            // the windowed decoder; only records near the payload tail
            // fall back to the per-byte-checked path.
            let fast = payload.len() - pos >= MAX_RECORD_BYTES;
            let &flags = payload.get(pos).ok_or_else(undecodable)?;
            pos += 1;
            if flags & F_RESERVED != 0 {
                return Err(undecodable());
            }
            let node = field(payload, &mut pos, fast).ok_or_else(undecodable)?;
            if node > u64::from(u16::MAX) {
                return Err(undecodable());
            }
            let clock_delta = field(payload, &mut pos, fast).ok_or_else(undecodable)?;
            let line_delta = field(payload, &mut pos, fast).ok_or_else(undecodable)?;
            let pc_delta = if flags & F_PC != 0 {
                let delta = unzigzag(field(payload, &mut pos, fast).ok_or_else(undecodable)?);
                if i32::try_from(delta).is_err() {
                    return Err(undecodable());
                }
                Some(delta as u32)
            } else {
                None
            };
            let private_stall = if flags & F_STALL != 0 {
                let v = field(payload, &mut pos, fast).ok_or_else(undecodable)?;
                u32::try_from(v)
                    .ok()
                    .filter(|&v| v != 0)
                    .ok_or_else(undecodable)?
            } else {
                0
            };
            let s = self.node_state(node as usize);
            s.clock = s.clock.wrapping_add(unzigzag(clock_delta) as u64);
            s.line = s.line.wrapping_add(unzigzag(line_delta) as u64);
            if let Some(delta) = pc_delta {
                s.pc = s.pc.wrapping_add(delta);
            }
            let (clock, line, pc) = (s.clock, s.line, s.pc);
            self.flags.push(flags);
            self.nodes.push(node as u16);
            self.clocks.push(clock);
            self.lines.push(line);
            self.pcs.push(pc);
            self.stalls.push(private_stall);
        }
        if pos != payload.len() {
            return Err(TraceIoError::corrupt(
                offset,
                "trailing bytes after last record of block",
            ));
        }
        Ok(())
    }
}

/// A block lowered for the batched replay kernel: dispatch-free
/// parallel arrays holding only the fields the replay inner loops read.
///
/// Lowering collapses each record's kind/dependent/spin into a single
/// op byte (`tse_types::ops`) so the kernel tests bits instead of
/// matching enums, and drops the pc column (replay never reads it).
/// `max_node` is the per-block hoisted node-range bound: validating it
/// once per block replaces the per-record node check. Buffers keep
/// their capacity across `lower_*` calls, so steady-state lowering
/// allocates nothing.
#[derive(Debug, Default)]
pub struct LoweredBlock {
    ops: Vec<u8>,
    nodes: Vec<u16>,
    lines: Vec<u64>,
    clocks: Vec<u64>,
    stalls: Vec<u32>,
    max_node: u16,
}

impl LoweredBlock {
    /// Creates an empty lowered block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the block holds no records.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drops the records (buffers keep their capacity).
    pub fn clear(&mut self) {
        self.ops.clear();
        self.nodes.clear();
        self.lines.clear();
        self.clocks.clear();
        self.stalls.clear();
        self.max_node = 0;
    }

    /// Per-record op bytes (`tse_types::ops` bits).
    pub fn ops(&self) -> &[u8] {
        &self.ops
    }

    /// Per-record node indices.
    pub fn nodes(&self) -> &[u16] {
        &self.nodes
    }

    /// Per-record line addresses.
    pub fn lines(&self) -> &[u64] {
        &self.lines
    }

    /// Per-record logical clocks.
    pub fn clocks(&self) -> &[u64] {
        &self.clocks
    }

    /// Per-record private-stall cycles.
    pub fn stalls(&self) -> &[u32] {
        &self.stalls
    }

    /// Highest node index referenced (0 for an empty block).
    pub fn max_node(&self) -> u16 {
        self.max_node
    }

    fn push(&mut self, op: u8, node: u16, line: u64, clock: u64, stall: u32) {
        self.ops.push(op);
        self.nodes.push(node);
        self.lines.push(line);
        self.clocks.push(clock);
        self.stalls.push(stall);
        self.max_node = self.max_node.max(node);
    }

    /// Lowers a slice of records, replacing the previous contents.
    pub fn lower_records(&mut self, records: &[AccessRecord]) {
        self.clear();
        self.ops.reserve(records.len());
        self.nodes.reserve(records.len());
        self.lines.reserve(records.len());
        self.clocks.reserve(records.len());
        self.stalls.reserve(records.len());
        for r in records {
            let op = if matches!(r.kind, AccessKind::Write) {
                OP_WRITE
            } else {
                0
            } | if r.dependent { OP_DEPENDENT } else { 0 }
                | if r.spin { OP_SPIN } else { 0 };
            self.push(
                op,
                r.node.index() as u16,
                r.line.index(),
                r.clock,
                r.private_stall,
            );
        }
    }

    /// Lowers a decoded [`RecordBatch`], replacing the previous
    /// contents. Column copies plus one mask per flag byte (the op bits
    /// share the TSB1 flag positions).
    pub fn lower_batch(&mut self, batch: &RecordBatch) {
        self.clear();
        self.ops.extend(
            batch
                .flags
                .iter()
                .map(|f| f & (F_WRITE | F_DEPENDENT | F_SPIN)),
        );
        self.nodes.extend_from_slice(&batch.nodes);
        self.lines.extend_from_slice(&batch.lines);
        self.clocks.extend_from_slice(&batch.clocks);
        self.stalls.extend_from_slice(&batch.stalls);
        self.max_node = batch.nodes.iter().copied().max().unwrap_or(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{decode_block, RawBlock, TraceReader, TraceWriter};
    use proptest::prelude::*;
    use std::io::Cursor;

    fn trace_bytes(records: impl IntoIterator<Item = AccessRecord>) -> Vec<u8> {
        let mut w = TraceWriter::new(Cursor::new(Vec::new())).unwrap();
        w.extend(records).unwrap();
        let (_, file) = w.finish().unwrap();
        file.into_inner()
    }

    fn varied_records(n: u64) -> Vec<AccessRecord> {
        (0..n)
            .map(|i| {
                let base = if i % 3 == 0 {
                    AccessRecord::write(NodeId::new((i % 5) as u16), i * 2, Line::new(i * 7 % 513))
                } else {
                    AccessRecord::read(NodeId::new((i % 5) as u16), i * 2, Line::new(i * 7 % 513))
                };
                base.with_pc((i % 11) as u32)
                    .with_dependent(i % 4 == 0)
                    .with_spin(i % 9 == 0)
                    .with_private_stall((i % 6) as u32)
            })
            .collect()
    }

    #[test]
    fn batch_decode_matches_owned_decode() {
        let bytes = trace_bytes(varied_records(10_000));
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let mut batch = RecordBatch::new();
        while let Some(raw) = r.next_raw_block().unwrap() {
            let owned = decode_block(&raw).unwrap();
            batch
                .decode(&raw.payload, raw.records, raw.offset, raw.index)
                .unwrap();
            assert_eq!(batch.len(), owned.len());
            let rehydrated: Vec<AccessRecord> = batch.iter().collect();
            assert_eq!(rehydrated, owned);
        }
    }

    #[test]
    fn batch_reuse_is_clean_across_blocks() {
        let bytes = trace_bytes(varied_records(9000));
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let mut batch = RecordBatch::new();
        let mut total = 0usize;
        while let Some(raw) = r.next_raw_block().unwrap() {
            batch
                .decode(&raw.payload, raw.records, raw.offset, raw.index)
                .unwrap();
            total += batch.len();
        }
        assert_eq!(total, 9000);
        // The last block is the short one; reuse must not leak earlier
        // records into it.
        assert_eq!(batch.len(), 9000 % 4096);
    }

    #[test]
    fn batch_rejects_wrong_count_and_trailing_bytes() {
        let bytes = trace_bytes(varied_records(10));
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let raw = r.next_raw_block().unwrap().unwrap();
        let mut batch = RecordBatch::new();
        // Fewer records than the payload holds: trailing bytes.
        let err = batch
            .decode(&raw.payload, raw.records - 1, raw.offset, raw.index)
            .unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
        // More records than the payload holds: undecodable.
        let err = batch
            .decode(&raw.payload, raw.records + 1, raw.offset, raw.index)
            .unwrap_err();
        assert!(err.to_string().contains("undecodable record"), "{err}");
    }

    #[test]
    fn batch_rejects_reserved_flags() {
        let mut batch = RecordBatch::new();
        let payload = [0xe0u8, 0, 0, 0];
        assert!(batch.decode(&payload, 1, 40, 0).is_err());
    }

    #[test]
    fn batch_agrees_with_decode_block_on_corrupt_payloads() {
        // Flip each byte of a small block in turn; the batched decoder
        // must accept/reject exactly when the owned decoder does.
        let bytes = trace_bytes(varied_records(64));
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let raw = r.next_raw_block().unwrap().unwrap();
        let mut batch = RecordBatch::new();
        for i in 0..raw.payload.len() {
            let mut mutated = raw.clone();
            mutated.payload[i] ^= 0x91;
            let owned = decode_block(&mutated);
            let batched = batch.decode(&mutated.payload, mutated.records, 40, 0);
            assert_eq!(owned.is_ok(), batched.is_ok(), "byte {i}");
            if let Ok(owned) = owned {
                assert_eq!(owned, batch.iter().collect::<Vec<_>>(), "byte {i}");
            }
        }
    }

    proptest! {
        #[test]
        fn batch_decode_equals_owned_decode_on_random_traces(
            seed in any::<u64>(),
            n in 1u64..3000,
        ) {
            // Deterministic pseudo-random records from the seed (the
            // proptest shim has no nested collection strategies).
            let mut x = seed | 1;
            let mut step = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let records: Vec<AccessRecord> = (0..n)
                .map(|_| {
                    let r = step();
                    let base = if r & 1 == 0 {
                        AccessRecord::read(
                            NodeId::new((r >> 1) as u16 % 33),
                            step() >> (r % 32),
                            Line::new(step()),
                        )
                    } else {
                        AccessRecord::write(
                            NodeId::new((r >> 1) as u16 % 33),
                            step() >> (r % 32),
                            Line::new(step()),
                        )
                    };
                    base.with_pc(step() as u32)
                        .with_dependent(r & 2 != 0)
                        .with_spin(r & 4 != 0)
                        .with_private_stall((step() % 100) as u32)
                })
                .collect();
            let bytes = trace_bytes(records.clone());
            let mut r = TraceReader::new(&bytes[..]).unwrap();
            let mut batch = RecordBatch::new();
            let mut rehydrated = Vec::new();
            while let Some(raw) = r.next_raw_block().unwrap() {
                let owned = decode_block(&raw).unwrap();
                batch.decode(&raw.payload, raw.records, raw.offset, raw.index).unwrap();
                prop_assert_eq!(&batch.iter().collect::<Vec<_>>(), &owned);
                rehydrated.extend(batch.iter());
            }
            prop_assert_eq!(rehydrated, records);
        }
    }

    #[test]
    fn lowering_records_and_batch_agree() {
        let records = varied_records(10_000);
        let bytes = trace_bytes(records.clone());
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let mut batch = RecordBatch::new();
        let mut from_batch = LoweredBlock::new();
        let mut from_records = LoweredBlock::new();
        let mut seen = 0usize;
        while let Some(raw) = r.next_raw_block().unwrap() {
            batch
                .decode(&raw.payload, raw.records, raw.offset, raw.index)
                .unwrap();
            from_batch.lower_batch(&batch);
            let slice = &records[seen..seen + batch.len()];
            from_records.lower_records(slice);
            seen += batch.len();
            assert_eq!(from_batch.len(), slice.len());
            assert_eq!(from_batch.ops(), from_records.ops());
            assert_eq!(from_batch.nodes(), from_records.nodes());
            assert_eq!(from_batch.lines(), from_records.lines());
            assert_eq!(from_batch.clocks(), from_records.clocks());
            assert_eq!(from_batch.stalls(), from_records.stalls());
            assert_eq!(from_batch.max_node(), from_records.max_node());
            // The lowered columns match the rehydrated records.
            for (i, rec) in slice.iter().enumerate() {
                let op = from_batch.ops()[i];
                assert_eq!(op & OP_WRITE != 0, matches!(rec.kind, AccessKind::Write));
                assert_eq!(op & OP_DEPENDENT != 0, rec.dependent);
                assert_eq!(op & OP_SPIN != 0, rec.spin);
                assert_eq!(op & !(OP_WRITE | OP_DEPENDENT | OP_SPIN), 0);
                assert_eq!(from_batch.nodes()[i] as usize, rec.node.index());
                assert_eq!(from_batch.lines()[i], rec.line.index());
                assert_eq!(from_batch.clocks()[i], rec.clock);
                assert_eq!(from_batch.stalls()[i], rec.private_stall);
            }
        }
        assert_eq!(seen, records.len());
    }

    #[test]
    fn lowered_block_reuse_is_clean() {
        let mut lowered = LoweredBlock::new();
        lowered.lower_records(&varied_records(100));
        assert_eq!(lowered.len(), 100);
        assert_eq!(lowered.max_node(), 4);
        lowered.lower_records(&varied_records(3));
        assert_eq!(lowered.len(), 3);
        assert_eq!(lowered.max_node(), 2);
        lowered.lower_records(&[]);
        assert!(lowered.is_empty());
        assert_eq!(lowered.max_node(), 0);
    }

    #[test]
    fn raw_block_smoke() {
        // Keep RawBlock's field set covered from this module too (the
        // mmap path builds slices with the same shape).
        let bytes = trace_bytes(varied_records(5));
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let raw: RawBlock = r.next_raw_block().unwrap().unwrap();
        assert_eq!(raw.index, 0);
        assert_eq!(raw.records, 5);
        assert_eq!(raw.offset, 40);
    }
}
