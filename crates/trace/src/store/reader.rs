//! Streaming (and optionally seeking) TSB1 reader.

use super::codec::{decode_record, CodecState};
use super::varint::get_u64;
use super::{
    crc32, BlockInfo, NodeRange, TraceMeta, BLOCK_TAG, FORMAT_VERSION, HEADER_LEN, MAGIC,
    TRAILER_TAG,
};
use crate::{AccessRecord, TraceIoError};
use std::io::{Read, Seek, SeekFrom};
use tse_types::NodeId;

use super::MAX_PAYLOAD;

/// The parsed fixed header. Shared with the mmap-backed reader
/// ([`super::MappedTrace`]), which parses the same 40 bytes in place.
#[derive(Debug, Clone, Copy)]
pub(super) struct Header {
    pub(super) version: u16,
    pub(super) records: u64,
    pub(super) block_count: u32,
    pub(super) block_len: u32,
    pub(super) trailer_offset: u64,
    pub(super) declared_nodes: u16,
}

impl Header {
    /// Parses and validates the fixed header from its 40 bytes. The
    /// caller is responsible for the magic-before-truncation error
    /// ordering (read the first 4 bytes, check [`MAGIC`], then read the
    /// rest); this re-checks the magic for callers that already hold
    /// the whole buffer.
    pub(super) fn parse(h: &[u8; HEADER_LEN as usize]) -> Result<Header, TraceIoError> {
        if h[0..4] != MAGIC {
            return Err(TraceIoError::BadMagic {
                found: [h[0], h[1], h[2], h[3]],
            });
        }
        let version = u16::from_le_bytes([h[4], h[5]]);
        if version != FORMAT_VERSION {
            return Err(TraceIoError::UnsupportedVersion { version });
        }
        let header = Header {
            version,
            records: u64::from_le_bytes(h[8..16].try_into().expect("8 bytes")),
            block_count: u32::from_le_bytes(h[16..20].try_into().expect("4 bytes")),
            block_len: u32::from_le_bytes(h[20..24].try_into().expect("4 bytes")),
            trailer_offset: u64::from_le_bytes(h[24..32].try_into().expect("8 bytes")),
            declared_nodes: u16::from_le_bytes([h[32], h[33]]),
        };
        if header.block_len == 0 {
            return Err(TraceIoError::corrupt(20, "block length is zero"));
        }
        if header.trailer_offset == 0 {
            return Err(TraceIoError::corrupt(
                24,
                "trailer offset is zero (writer never finished)",
            ));
        }
        if header.trailer_offset < HEADER_LEN {
            return Err(TraceIoError::corrupt(24, "trailer offset inside header"));
        }
        Ok(header)
    }
}

/// Buffered block iterator over a TSB1 trace.
///
/// Works over any [`Read`] source, decoding block by block; iterating
/// yields `Result<AccessRecord, TraceIoError>` and stops cleanly at the
/// trailer (whose counts are validated against the header). Over a
/// [`Read`] + [`Seek`] source, [`TraceReader::open`] additionally loads
/// the trailer's block index up front, enabling O(1)
/// [`TraceReader::seek_to_block`] and [`TraceReader::meta`] without
/// scanning the body.
///
/// # Example
///
/// ```
/// use std::io::Cursor;
/// use tse_trace::store::{TraceReader, TraceWriter};
/// use tse_trace::AccessRecord;
/// use tse_types::{Line, NodeId};
///
/// let mut w = TraceWriter::new(Cursor::new(Vec::new()))?;
/// for i in 0..100u64 {
///     w.push(AccessRecord::read(NodeId::new(0), i, Line::new(i)))?;
/// }
/// let (_, file) = w.finish()?;
///
/// let reader = TraceReader::new(&file.get_ref()[..])?;
/// assert_eq!(reader.records(), 100);
/// let clocks: Vec<u64> = reader.map(|r| Ok::<_, tse_trace::TraceIoError>(r?.clock))
///     .collect::<Result<_, _>>()?;
/// assert_eq!(clocks.len(), 100);
/// # Ok::<(), tse_trace::TraceIoError>(())
/// ```
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    src: R,
    header: Header,
    /// Current block payload and the decode cursor within it.
    payload: Vec<u8>,
    pos: usize,
    block_remaining: u64,
    /// Absolute offset of the current block's payload start (error
    /// reporting).
    block_offset: u64,
    dec: CodecState,
    /// Absolute byte offset the next read lands on.
    offset: u64,
    records_read: u64,
    blocks_read: u32,
    finished: bool,
    /// Set once a random-access seek breaks the sequential count
    /// invariants checked at the trailer.
    seeked: bool,
    meta: Option<TraceMeta>,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace for sequential streaming, parsing and validating
    /// the fixed header.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::BadMagic`], [`TraceIoError::UnsupportedVersion`],
    /// [`TraceIoError::Truncated`] or [`TraceIoError::Corrupt`] if the
    /// header is not a valid TSB1 header; [`TraceIoError::Io`] on read
    /// failure.
    pub fn new(mut src: R) -> Result<Self, TraceIoError> {
        let mut h = [0u8; HEADER_LEN as usize];
        // Magic first, so that handing a non-TSB1 file (e.g. JSONL) of
        // any length reports BadMagic rather than Truncated.
        read_exact(&mut src, &mut h[..4], "header")?;
        if h[0..4] != MAGIC {
            return Err(TraceIoError::BadMagic {
                found: [h[0], h[1], h[2], h[3]],
            });
        }
        read_exact(&mut src, &mut h[4..], "header")?;
        let header = Header::parse(&h)?;
        Ok(TraceReader {
            src,
            header,
            payload: Vec::new(),
            pos: 0,
            block_remaining: 0,
            block_offset: HEADER_LEN,
            dec: CodecState::default(),
            offset: HEADER_LEN,
            records_read: 0,
            blocks_read: 0,
            finished: false,
            seeked: false,
            meta: None,
        })
    }

    /// Total records, per the header.
    pub fn records(&self) -> u64 {
        self.header.records
    }

    /// Total blocks, per the header.
    pub fn blocks(&self) -> u32 {
        self.header.block_count
    }

    /// Maximum records per block, per the header.
    pub fn block_len(&self) -> u32 {
        self.header.block_len
    }

    /// Format version of the file.
    pub fn version(&self) -> u16 {
        self.header.version
    }

    /// Node count declared by the writer (`None` if unspecified).
    pub fn declared_nodes(&self) -> Option<u16> {
        (self.header.declared_nodes != 0).then_some(self.header.declared_nodes)
    }

    /// Trace metadata, if already available: loaded eagerly by
    /// [`TraceReader::open`], or after sequential iteration reaches the
    /// trailer.
    pub fn meta(&self) -> Option<&TraceMeta> {
        self.meta.as_ref()
    }

    /// Reads a varint from the source, tracking the stream offset.
    /// The decode algorithm itself lives in [`super::varint::get_from`];
    /// this only adapts it to a byte stream and typed errors.
    fn read_varint(&mut self, reading: &'static str) -> Result<u64, TraceIoError> {
        let src = &mut self.src;
        let offset = &mut self.offset;
        let mut io_err = None;
        let value = super::varint::get_from(|| {
            let mut byte = [0u8; 1];
            match read_exact(src, &mut byte, reading) {
                Ok(()) => {
                    *offset += 1;
                    Some(byte[0])
                }
                Err(e) => {
                    io_err = Some(e);
                    None
                }
            }
        });
        match (value, io_err) {
            (_, Some(e)) => Err(e),
            (Some(v), None) => Ok(v),
            (None, None) => Err(TraceIoError::corrupt(self.offset - 1, "varint overflow")),
        }
    }

    /// Reads one checksummed payload (block or trailer body) that
    /// follows a tag byte.
    fn read_payload(&mut self, reading: &'static str) -> Result<Vec<u8>, TraceIoError> {
        let len = self.read_varint(reading)?;
        if len > MAX_PAYLOAD {
            return Err(TraceIoError::corrupt(
                self.offset,
                format!("{reading} length {len} exceeds limit"),
            ));
        }
        let mut crc = [0u8; 4];
        read_exact(&mut self.src, &mut crc, reading)?;
        self.offset += 4;
        let mut payload = vec![0u8; len as usize];
        read_exact(&mut self.src, &mut payload, reading)?;
        self.offset += len;
        if crc32(&payload) != u32::from_le_bytes(crc) {
            return Err(TraceIoError::corrupt(
                self.offset - len,
                format!("{reading} checksum mismatch"),
            ));
        }
        Ok(payload)
    }

    /// Advances to the next block. `Ok(true)` if a block was loaded,
    /// `Ok(false)` at the (validated) trailer.
    fn load_next_block(&mut self) -> Result<bool, TraceIoError> {
        let tag_offset = self.offset;
        let mut tag = [0u8; 1];
        read_exact(&mut self.src, &mut tag, "block tag")?;
        self.offset += 1;
        match tag[0] {
            BLOCK_TAG => {
                let records = self.read_varint("block header")?;
                if records == 0 || records > u64::from(self.header.block_len) {
                    return Err(TraceIoError::corrupt(
                        tag_offset,
                        format!("block record count {records} out of range"),
                    ));
                }
                self.payload = self.read_payload("block")?;
                self.pos = 0;
                self.block_remaining = records;
                self.block_offset = tag_offset;
                self.blocks_read += 1;
                self.dec.next_block();
                Ok(true)
            }
            TRAILER_TAG => {
                self.finish_at_trailer(tag_offset)?;
                Ok(false)
            }
            other => Err(TraceIoError::corrupt(
                tag_offset,
                format!("unknown tag byte {other:#04x}"),
            )),
        }
    }

    /// Validates and consumes the trailer found at `tag_offset` (its tag
    /// byte already read), checking the sequential record/block counts
    /// and capturing the metadata.
    fn finish_at_trailer(&mut self, tag_offset: u64) -> Result<(), TraceIoError> {
        if tag_offset != self.header.trailer_offset {
            return Err(TraceIoError::corrupt(
                tag_offset,
                format!(
                    "trailer at byte {tag_offset}, header says {}",
                    self.header.trailer_offset
                ),
            ));
        }
        let body = self.read_payload("trailer")?;
        let meta = parse_trailer(&body, &self.header, tag_offset)?;
        if !self.seeked
            && (self.records_read != self.header.records
                || self.blocks_read != self.header.block_count)
        {
            return Err(TraceIoError::corrupt(
                tag_offset,
                format!(
                    "decoded {} records in {} blocks, header says {} in {}",
                    self.records_read,
                    self.blocks_read,
                    self.header.records,
                    self.header.block_count
                ),
            ));
        }
        if self.meta.is_none() {
            self.meta = Some(meta);
        }
        self.finished = true;
        Ok(())
    }

    /// Reads the next block *raw*: CRC-validated but still encoded.
    /// Returns `None` at the (validated) trailer.
    ///
    /// Each raw block decodes independently ([`decode_block`], or
    /// [`RecordBatch::decode`](super::RecordBatch::decode) into reused
    /// columns) — the codec state resets at block boundaries — so
    /// decoding can happen anywhere, in any order. Raw reads share the
    /// sequential cursor with record iteration, so they must not be
    /// issued while a block is partially iterated.
    ///
    /// # Errors
    ///
    /// Any structural failure, as record iteration would report it, plus
    /// [`TraceIoError::Corrupt`] when called mid-block.
    pub fn next_raw_block(&mut self) -> Result<Option<RawBlock>, TraceIoError> {
        if self.finished {
            return Ok(None);
        }
        if self.block_remaining != 0 {
            return Err(TraceIoError::corrupt(
                self.block_offset,
                "raw block requested while a block is partially iterated",
            ));
        }
        let tag_offset = self.offset;
        let mut tag = [0u8; 1];
        read_exact(&mut self.src, &mut tag, "block tag")?;
        self.offset += 1;
        match tag[0] {
            BLOCK_TAG => {
                let records = self.read_varint("block header")?;
                if records == 0 || records > u64::from(self.header.block_len) {
                    return Err(TraceIoError::corrupt(
                        tag_offset,
                        format!("block record count {records} out of range"),
                    ));
                }
                let payload = self.read_payload("block")?;
                let index = self.blocks_read;
                self.blocks_read += 1;
                self.records_read += records;
                Ok(Some(RawBlock {
                    index,
                    records,
                    offset: tag_offset,
                    payload,
                }))
            }
            TRAILER_TAG => {
                self.finish_at_trailer(tag_offset)?;
                Ok(None)
            }
            other => Err(TraceIoError::corrupt(
                tag_offset,
                format!("unknown tag byte {other:#04x}"),
            )),
        }
    }

    fn next_record(&mut self) -> Result<Option<AccessRecord>, TraceIoError> {
        if self.finished {
            return Ok(None);
        }
        while self.block_remaining == 0 {
            if !self.load_next_block()? {
                return Ok(None);
            }
        }
        let rec = decode_record(&mut self.dec, &self.payload, &mut self.pos).ok_or_else(|| {
            TraceIoError::corrupt(
                self.block_offset,
                format!("undecodable record in block {}", self.blocks_read - 1),
            )
        })?;
        self.block_remaining -= 1;
        if self.block_remaining == 0 && self.pos != self.payload.len() {
            return Err(TraceIoError::corrupt(
                self.block_offset,
                "trailing bytes after last record of block",
            ));
        }
        self.records_read += 1;
        Ok(Some(rec))
    }
}

impl<R: Read + Seek> TraceReader<R> {
    /// Opens a seekable trace and eagerly loads its metadata (block
    /// index and per-node clock ranges) from the trailer, leaving the
    /// cursor at the first block.
    ///
    /// # Errors
    ///
    /// As [`TraceReader::new`], plus any trailer validation failure.
    pub fn open(src: R) -> Result<Self, TraceIoError> {
        let mut r = Self::new(src)?;
        let trailer_offset = r.header.trailer_offset;
        r.src.seek(SeekFrom::Start(trailer_offset))?;
        r.offset = trailer_offset;
        let mut tag = [0u8; 1];
        read_exact(&mut r.src, &mut tag, "trailer tag")?;
        r.offset += 1;
        if tag[0] != TRAILER_TAG {
            return Err(TraceIoError::corrupt(
                trailer_offset,
                format!("expected trailer tag, found {:#04x}", tag[0]),
            ));
        }
        let body = r.read_payload("trailer")?;
        r.meta = Some(parse_trailer(&body, &r.header, trailer_offset)?);
        r.src.seek(SeekFrom::Start(HEADER_LEN))?;
        r.offset = HEADER_LEN;
        Ok(r)
    }

    /// Positions the reader at the start of block `index` in O(1),
    /// using the trailer's block index. Subsequent iteration yields that
    /// block's records onward.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Corrupt`] if metadata is not loaded (open the
    /// reader with [`TraceReader::open`]) or `index` is out of range;
    /// [`TraceIoError::Io`] on seek failure.
    pub fn seek_to_block(&mut self, index: usize) -> Result<(), TraceIoError> {
        let Some(meta) = &self.meta else {
            return Err(TraceIoError::corrupt(
                0,
                "no block index loaded; use TraceReader::open",
            ));
        };
        let Some(block) = meta.blocks.get(index).copied() else {
            return Err(TraceIoError::corrupt(
                0,
                format!("block {index} out of range ({} blocks)", meta.blocks.len()),
            ));
        };
        self.src.seek(SeekFrom::Start(block.offset))?;
        self.offset = block.offset;
        self.payload.clear();
        self.pos = 0;
        self.block_remaining = 0;
        self.blocks_read = index as u32;
        self.records_read = 0;
        self.finished = false;
        self.seeked = true;
        Ok(())
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<AccessRecord, TraceIoError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.next_record() {
            Ok(Some(rec)) => Some(Ok(rec)),
            Ok(None) => None,
            Err(e) => {
                // Poisoned: stop after reporting the error once.
                self.finished = true;
                Some(Err(e))
            }
        }
    }
}

/// Parses the trailer body into [`TraceMeta`], validating internal
/// consistency against the header. Shared with the mmap-backed reader.
pub(super) fn parse_trailer(
    body: &[u8],
    header: &Header,
    at: u64,
) -> Result<TraceMeta, TraceIoError> {
    let bad = || TraceIoError::corrupt(at, "malformed trailer");
    let mut pos = 0usize;
    let block_count = get_u64(body, &mut pos).ok_or_else(bad)?;
    if block_count != u64::from(header.block_count) {
        return Err(TraceIoError::corrupt(
            at,
            format!(
                "trailer lists {block_count} blocks, header says {}",
                header.block_count
            ),
        ));
    }
    // Capacity hints clamped by what the body could physically hold
    // (>=4 bytes per entry): counts come from the file and must not be
    // trusted with an allocation before the entries actually parse.
    let mut blocks = Vec::with_capacity((block_count as usize).min(body.len() / 4));
    let mut offset = 0u64;
    let mut total_records = 0u64;
    for _ in 0..block_count {
        // All sums over file-supplied fields are checked: a crafted
        // trailer must yield Corrupt, not a debug overflow panic.
        offset = offset
            .checked_add(get_u64(body, &mut pos).ok_or_else(bad)?)
            .ok_or_else(bad)?;
        let records = get_u64(body, &mut pos).ok_or_else(bad)?;
        let first_clock = get_u64(body, &mut pos).ok_or_else(bad)?;
        let last_clock = get_u64(body, &mut pos).ok_or_else(bad)?;
        total_records = total_records.checked_add(records).ok_or_else(bad)?;
        blocks.push(BlockInfo {
            offset,
            records,
            first_clock,
            last_clock,
        });
    }
    let node_count = get_u64(body, &mut pos).ok_or_else(bad)?;
    let mut nodes = Vec::with_capacity((node_count as usize).min(1 << 16).min(body.len() / 4));
    let mut node_records = 0u64;
    let mut prev_node: Option<u64> = None;
    for _ in 0..node_count {
        let node = get_u64(body, &mut pos).ok_or_else(bad)?;
        if node > u64::from(u16::MAX) || prev_node.is_some_and(|p| p >= node) {
            return Err(bad());
        }
        if header.declared_nodes != 0 && node >= u64::from(header.declared_nodes) {
            return Err(TraceIoError::corrupt(
                at,
                format!(
                    "trailer lists node {node} but the header declares {} nodes",
                    header.declared_nodes
                ),
            ));
        }
        prev_node = Some(node);
        let records = get_u64(body, &mut pos).ok_or_else(bad)?;
        let min_clock = get_u64(body, &mut pos).ok_or_else(bad)?;
        let max_clock = get_u64(body, &mut pos).ok_or_else(bad)?;
        node_records = node_records.checked_add(records).ok_or_else(bad)?;
        nodes.push(NodeRange {
            node: NodeId::new(node as u16),
            records,
            min_clock,
            max_clock,
        });
    }
    if pos != body.len() || total_records != header.records || node_records != header.records {
        return Err(bad());
    }
    Ok(TraceMeta {
        version: header.version,
        records: header.records,
        block_len: header.block_len,
        declared_nodes: (header.declared_nodes != 0).then_some(header.declared_nodes),
        blocks,
        nodes,
    })
}

/// One still-encoded block pulled off a trace by
/// [`TraceReader::next_raw_block`]: CRC-checked payload bytes plus the
/// record count the block header declared.
#[derive(Debug, Clone)]
pub struct RawBlock {
    /// Position of the block in the trace (0-based).
    pub index: u32,
    /// Records encoded in the payload.
    pub records: u64,
    /// Absolute byte offset of the block's tag (error reporting).
    pub offset: u64,
    /// The delta-coded record bytes.
    pub payload: Vec<u8>,
}

/// Decodes a raw block into its records. Blocks are self-contained
/// (per-node codec state resets at block boundaries), so any number of
/// raw blocks decode independently — on worker threads, in any order.
///
/// # Errors
///
/// [`TraceIoError::Corrupt`] if the payload does not decode into
/// exactly the declared record count.
pub fn decode_block(block: &RawBlock) -> Result<Vec<AccessRecord>, TraceIoError> {
    decode_payload(&block.payload, block.records, block.offset, block.index)
}

/// Decodes one block payload (borrowed from anywhere — a [`RawBlock`]
/// or an mmap slice) into owned records. Shared by [`decode_block`] and
/// [`super::BlockSlice::decode`].
pub(super) fn decode_payload(
    payload: &[u8],
    records: u64,
    offset: u64,
    index: u32,
) -> Result<Vec<AccessRecord>, TraceIoError> {
    let mut dec = CodecState::default();
    dec.next_block();
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(usize::try_from(records).unwrap_or(0).min(1 << 22));
    for _ in 0..records {
        let rec = decode_record(&mut dec, payload, &mut pos).ok_or_else(|| {
            TraceIoError::corrupt(offset, format!("undecodable record in block {index}"))
        })?;
        out.push(rec);
    }
    if pos != payload.len() {
        return Err(TraceIoError::corrupt(
            offset,
            "trailing bytes after last record of block",
        ));
    }
    Ok(out)
}

/// `read_exact` with EOF mapped to [`TraceIoError::Truncated`].
fn read_exact<R: Read>(
    src: &mut R,
    buf: &mut [u8],
    reading: &'static str,
) -> Result<(), TraceIoError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceIoError::Truncated { reading }
        } else {
            TraceIoError::Io(e)
        }
    })
}

/// Reads a whole TSB1 trace into memory.
///
/// # Errors
///
/// Propagates any [`TraceIoError`] from [`TraceReader`].
pub fn read_tsb1<R: Read>(src: R) -> Result<Vec<AccessRecord>, TraceIoError> {
    let reader = TraceReader::new(src)?;
    // Capacity hint only; clamped so a corrupt header count cannot
    // trigger a huge (or aborting) allocation before validation.
    let mut out = Vec::with_capacity(usize::try_from(reader.records()).unwrap_or(0).min(1 << 22));
    for rec in reader {
        out.push(rec?);
    }
    Ok(out)
}
