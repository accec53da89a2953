//! Replay of stored traces.
//!
//! Figure sweeps run the same workload under many engine
//! configurations; [`run_trace`](crate::run_trace) regenerates and
//! re-interleaves the workload for every grid cell. A [`StoredTrace`]
//! materializes the globally interleaved record stream once — generated
//! from a workload, or loaded from a TSB1 file written by `tracectl` —
//! and [`run_trace_stored`] replays it through the harness as many
//! times as needed.

use crate::kernel::{run_blocks, SliceBlocks};
use crate::runner::SweepPool;
use crate::{RunConfig, RunResult};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Seek, Write};
use std::path::Path;
use std::rc::Rc;
use std::sync::{mpsc, Arc};
use tse_trace::store::{MappedTrace, TraceMeta, TraceReader, TraceWriter};
use tse_trace::{interleave, AccessRecord, TraceIoError};
use tse_types::ConfigError;
use tse_workloads::Workload;

/// A trace held in memory in global (interleaved) order, ready to be
/// replayed under any number of configurations.
///
/// # Example
///
/// ```no_run
/// use tse_sim::{run_trace_stored, EngineKind, RunConfig, StoredTrace};
/// use tse_types::TseConfig;
/// use tse_workloads::Em3d;
///
/// // Generate + interleave once...
/// let trace = StoredTrace::from_workload(&Em3d::scaled(0.05), 42);
/// // ...replay under every lookahead of a sweep.
/// for lookahead in [4usize, 8, 16] {
///     let tse = TseConfig { lookahead, ..TseConfig::default() };
///     let cfg = RunConfig { engine: EngineKind::Tse(tse), ..RunConfig::default() };
///     let r = run_trace_stored(&trace, &cfg)?;
///     println!("la={lookahead}: {:.3}", r.coverage());
/// }
/// # Ok::<(), tse_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredTrace {
    name: String,
    nodes: usize,
    records: Vec<AccessRecord>,
}

impl StoredTrace {
    /// Generates a workload at `seed` and interleaves it into the
    /// deterministic global order, exactly as
    /// [`run_trace`](crate::run_trace) would.
    pub fn from_workload(workload: &dyn Workload, seed: u64) -> Self {
        let per_node = workload.generate(seed);
        StoredTrace {
            name: workload.name().to_string(),
            nodes: workload.nodes(),
            records: interleave(per_node.into_iter().map(Vec::into_iter).collect()).collect(),
        }
    }

    /// Wraps an already-interleaved record sequence.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any record's node index is outside
    /// `0..nodes`.
    pub fn from_records(
        name: impl Into<String>,
        nodes: usize,
        records: Vec<AccessRecord>,
    ) -> Result<Self, ConfigError> {
        if let Some(r) = records.iter().find(|r| r.node.index() >= nodes) {
            return Err(ConfigError::new(format!(
                "record on node {} but the trace declares {nodes} nodes",
                r.node
            )));
        }
        Ok(StoredTrace {
            name: name.into(),
            nodes,
            records,
        })
    }

    /// Reads a TSB1 trace. The node count is the writer's declared
    /// count when the file carries one (as [`StoredTrace::save_tsb1`]
    /// always does), falling back to highest-emitting-node + 1.
    ///
    /// # Errors
    ///
    /// Propagates any [`TraceIoError`] from the TSB1 reader.
    pub fn load_tsb1(name: impl Into<String>, src: impl Read) -> Result<Self, TraceIoError> {
        let mut reader = TraceReader::new(src)?;
        let mut records =
            Vec::with_capacity(usize::try_from(reader.records()).unwrap_or(0).min(1 << 22));
        for rec in reader.by_ref() {
            records.push(rec?);
        }
        // The writer's declared count, else highest-emitting-node + 1
        // from the trailer metadata, else 1 — as `mapped_node_count`.
        let nodes = match reader.declared_nodes() {
            Some(n) => usize::from(n),
            None => reader
                .meta()
                .and_then(|m| m.nodes.last().map(|n| n.node.index() + 1))
                .unwrap_or(1),
        };
        // Same invariant from_records enforces: no decoded record may
        // reference a node outside 0..nodes, or the replay harness
        // would index out of bounds. A crafted trailer can satisfy the
        // reader's own cross-checks while the payload does not.
        if let Some(r) = records.iter().find(|r| r.node.index() >= nodes) {
            return Err(TraceIoError::Corrupt {
                offset: 0,
                reason: format!(
                    "record on node {} but the trace declares {nodes} nodes",
                    r.node
                ),
            });
        }
        Ok(StoredTrace {
            name: name.into(),
            nodes,
            records,
        })
    }

    /// Reads a TSB1 trace from a file, naming it after the file stem.
    ///
    /// # Errors
    ///
    /// Propagates open failures as [`TraceIoError::Io`] and format
    /// failures from [`StoredTrace::load_tsb1`].
    pub fn load_tsb1_path(path: impl AsRef<Path>) -> Result<Self, TraceIoError> {
        let path = path.as_ref();
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_string());
        let file = std::fs::File::open(path)?;
        Self::load_tsb1(name, std::io::BufReader::new(file))
    }

    /// Writes the trace as TSB1, declaring its node count in the
    /// header so idle trailing nodes survive the round trip.
    ///
    /// # Errors
    ///
    /// Propagates write failures from the TSB1 writer.
    pub fn save_tsb1(&self, sink: impl Write + Seek) -> Result<TraceMeta, TraceIoError> {
        let mut w = TraceWriter::new(sink)?;
        if let Ok(n) = u16::try_from(self.nodes) {
            w.declare_nodes(n);
        }
        w.extend(self.records.iter().copied())?;
        let (meta, _) = w.finish()?;
        Ok(meta)
    }

    /// Trace name (workload name or file stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes the trace was collected on.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The records, in global order.
    pub fn records(&self) -> &[AccessRecord] {
        &self.records
    }

    /// Record count.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Replays a stored trace through the trace-driven harness.
///
/// Identical semantics to [`run_trace`](crate::run_trace) — warm-up,
/// spin filtering, engine accounting — except that the records come
/// from `trace` rather than being regenerated, so `cfg.seed` is
/// ignored. Replaying a [`StoredTrace::from_workload`] trace produces
/// bit-identical results to `run_trace` at the same seed.
///
/// # Errors
///
/// Returns a [`ConfigError`] if the configuration is invalid or the
/// trace's node count differs from `cfg.sys.nodes`.
pub fn run_trace_stored(trace: &StoredTrace, cfg: &RunConfig) -> Result<RunResult, ConfigError> {
    let mut src = SliceBlocks::new(&trace.records);
    run_blocks(&trace.name, trace.nodes, trace.records.len(), &mut src, cfg)
}

/// [`run_trace_stored`] through the record-at-a-time reference loop —
/// the executable specification the batched kernel is asserted
/// bit-identical against. Not part of the public API.
#[doc(hidden)]
pub fn run_trace_stored_reference(
    trace: &StoredTrace,
    cfg: &RunConfig,
) -> Result<RunResult, ConfigError> {
    crate::harness::run_interleaved_reference(
        &trace.name,
        trace.nodes,
        trace.records.len(),
        trace.records.iter().copied(),
        cfg,
    )
}

/// Error from file replay: the trace was unreadable, or the run
/// configuration was rejected.
#[derive(Debug)]
pub enum ReplayError {
    /// Reading or decoding the TSB1 source failed.
    Trace(TraceIoError),
    /// The system/engine configuration (or trace/system node-count
    /// pairing) was invalid.
    Config(ConfigError),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "trace error: {e}"),
            ReplayError::Config(e) => write!(f, "config error: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Trace(e) => Some(e),
            ReplayError::Config(e) => Some(e),
        }
    }
}

impl From<TraceIoError> for ReplayError {
    fn from(e: TraceIoError) -> Self {
        ReplayError::Trace(e)
    }
}

impl From<ConfigError> for ReplayError {
    fn from(e: ConfigError) -> Self {
        ReplayError::Config(e)
    }
}

/// The node count a mapped trace implies — the same derivation
/// [`StoredTrace::load_tsb1`] uses: the writer's declared count when the
/// header carries one, else highest-emitting-node + 1, else 1.
pub fn mapped_node_count(trace: &MappedTrace) -> usize {
    match trace.declared_nodes() {
        Some(n) => usize::from(n),
        None => trace
            .meta()
            .nodes
            .last()
            .map(|n| n.node.index() + 1)
            .unwrap_or(1),
    }
}

/// Replays a memory-mapped TSB1 trace through the harness, never
/// materializing a [`StoredTrace`].
///
/// Blocks decode on the [`SweepPool`] directly out of the shared
/// mapping (no read syscalls, no payload copies; the mapped trace is
/// `Sync`, so workers borrow block slices concurrently), re-entering in
/// trace order through a bounded reorder window. If the pool has not
/// finished the next block by the time the consumer needs it (or is
/// saturated by enclosing sweep jobs), the consumer decodes that block
/// inline, so replay never waits on pool capacity. Results are
/// bit-identical to loading the same file into a [`StoredTrace`] and
/// calling [`run_trace_stored`]; peak heap is a few blocks instead of
/// the whole trace.
///
/// # Errors
///
/// [`ReplayError::Trace`] on any TSB1 structural failure (including
/// records naming nodes outside the declared node count);
/// [`ReplayError::Config`] if the configuration is invalid or the
/// trace's node count differs from `cfg.sys.nodes`.
pub fn run_trace_mapped(
    name: impl Into<String>,
    trace: Arc<MappedTrace>,
    cfg: &RunConfig,
) -> Result<RunResult, ReplayError> {
    let nodes = mapped_node_count(&trace);
    let total = usize::try_from(trace.records()).unwrap_or(usize::MAX);
    let error = Rc::new(RefCell::new(None));
    let mut stream = MappedRecords::new(trace, nodes, Rc::clone(&error));
    let result = run_blocks(&name.into(), nodes, total, &mut stream, cfg)?;
    // A trace error mid-stream ends the record iterator early; surface
    // it instead of the truncated result.
    if let Some(e) = error.borrow_mut().take() {
        return Err(e.into());
    }
    Ok(result)
}

/// Mapped replay of a TSB1 file, named after the file stem.
///
/// # Errors
///
/// As [`run_trace_mapped`], plus open/map failures as
/// [`ReplayError::Trace`].
pub fn run_trace_mapped_path(
    path: impl AsRef<Path>,
    cfg: &RunConfig,
) -> Result<RunResult, ReplayError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".to_string());
    let trace = Arc::new(MappedTrace::open(path)?);
    run_trace_mapped(name, trace, cfg)
}

/// The block source behind [`run_trace_mapped`] (and the timing
/// model's `run_timing_mapped`): shares the `Arc<MappedTrace>` with the
/// pool workers, which decode straight out of the mapping, and yields
/// blocks in trace order from a bounded reorder window. Block offsets
/// come from the trailer index, so dispatch is O(1) per block with no
/// I/O on the consumer thread.
pub(crate) struct MappedRecords {
    trace: Arc<MappedTrace>,
    pool: &'static SweepPool,
    /// Bound on blocks resident at once (in flight + decoded pending),
    /// i.e. the decode-ahead distance.
    window: usize,
    rtx: mpsc::Sender<(u32, Result<Vec<AccessRecord>, TraceIoError>)>,
    rrx: mpsc::Receiver<(u32, Result<Vec<AccessRecord>, TraceIoError>)>,
    /// Blocks dispatched to the pool whose decode has not been observed.
    in_flight: BTreeSet<u32>,
    /// Decoded blocks waiting for their turn.
    decoded: BTreeMap<u32, Vec<AccessRecord>>,
    /// Index of the next block to dispatch; `blocks` once all are out.
    next_dispatch: u32,
    /// Index of the next block to hand to the consumer.
    next_emit: u32,
    /// Total blocks in the trace, from the trailer index.
    blocks: u32,
    /// The block most recently handed to the consumer (the kernel
    /// borrows it until the next [`BlockSource::next_block`] call).
    block: Vec<AccessRecord>,
    nodes: usize,
    error: Rc<RefCell<Option<TraceIoError>>>,
}

impl MappedRecords {
    pub(crate) fn new(
        trace: Arc<MappedTrace>,
        nodes: usize,
        error: Rc<RefCell<Option<TraceIoError>>>,
    ) -> Self {
        let pool = SweepPool::global();
        let (rtx, rrx) = mpsc::channel();
        let blocks = u32::try_from(trace.meta().blocks.len()).unwrap_or(u32::MAX);
        MappedRecords {
            trace,
            pool,
            window: pool.threads().clamp(2, 8) * 2,
            rtx,
            rrx,
            in_flight: BTreeSet::new(),
            decoded: BTreeMap::new(),
            next_dispatch: 0,
            next_emit: 0,
            blocks,
            block: Vec::new(),
            nodes,
            error,
        }
    }

    fn fail(&mut self, e: TraceIoError) {
        self.error.borrow_mut().get_or_insert(e);
        // Stop dispatching; in-flight decodes finish but their results
        // are dropped (their indices are gone from `in_flight`).
        self.next_dispatch = self.blocks;
        self.in_flight.clear();
        self.decoded.clear();
    }

    /// Tops up the decode-ahead window with block indices for the pool.
    fn dispatch(&mut self) {
        while self.error.borrow().is_none()
            && self.next_dispatch < self.blocks
            && self.in_flight.len() + self.decoded.len() < self.window
        {
            let idx = self.next_dispatch;
            self.next_dispatch += 1;
            self.in_flight.insert(idx);
            let rtx = self.rtx.clone();
            let trace = Arc::clone(&self.trace);
            self.pool.execute(move || {
                let _ = rtx.send((idx, trace.block(idx as usize).and_then(|s| s.decode())));
            });
        }
    }

    /// Produces the next block's records, in trace order.
    fn take_block(&mut self) -> Option<Vec<AccessRecord>> {
        self.dispatch();
        // Observe every decode that has completed.
        while let Ok((idx, result)) = self.rrx.try_recv() {
            if self.in_flight.remove(&idx) {
                match result {
                    Ok(records) => {
                        self.decoded.insert(idx, records);
                    }
                    Err(e) => {
                        self.fail(e);
                        return None;
                    }
                }
            }
            // else: the consumer already decoded it inline; drop the
            // duplicate.
        }
        if self.error.borrow().is_some() {
            return None;
        }
        if let Some(records) = self.decoded.remove(&self.next_emit) {
            self.next_emit += 1;
            return Some(records);
        }
        if self.in_flight.remove(&self.next_emit) {
            // The pool has not gotten to this block yet (or is saturated
            // by enclosing sweep jobs): decode it here rather than wait,
            // so mapped replay can never deadlock on pool capacity.
            let idx = self.next_emit;
            self.next_emit += 1;
            return match self.trace.block(idx as usize).and_then(|s| s.decode()) {
                Ok(records) => Some(records),
                Err(e) => {
                    self.fail(e);
                    None
                }
            };
        }
        debug_assert!(
            self.next_emit >= self.blocks || self.error.borrow().is_some(),
            "blocks are dispatched in trace order"
        );
        None
    }
}

impl crate::kernel::BlockSource for MappedRecords {
    fn next_block(&mut self) -> Option<&[AccessRecord]> {
        let block = self.take_block()?;
        // Same invariant StoredTrace::load_tsb1 enforces, checked once
        // per block before any of it is replayed: a record outside
        // 0..nodes would index the replay kernel out of bounds.
        if let Some(rec) = block.iter().find(|r| r.node.index() >= self.nodes) {
            let e = TraceIoError::Corrupt {
                offset: 0,
                reason: format!(
                    "record on node {} but the trace declares {} nodes",
                    rec.node, self.nodes
                ),
            };
            self.fail(e);
            return None;
        }
        self.block = block;
        Some(&self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineKind;
    use std::io::Cursor;
    use tse_types::{SystemConfig, TseConfig};
    use tse_workloads::{Em3d, OltpFlavor, Tpcc};

    #[test]
    fn replay_matches_generate_and_run() {
        let wl = Em3d::scaled(0.03);
        let cfg = RunConfig {
            engine: EngineKind::Tse(TseConfig::default()),
            ..RunConfig::default()
        };
        let direct = crate::run_trace(&wl, &cfg).unwrap();
        let stored = StoredTrace::from_workload(&wl, cfg.seed);
        let replayed = run_trace_stored(&stored, &cfg).unwrap();
        assert_eq!(direct.engine, replayed.engine);
        assert_eq!(direct.mem, replayed.mem);
        assert_eq!(direct.traffic, replayed.traffic);
        assert_eq!(direct.records, replayed.records);
    }

    #[test]
    fn replay_survives_tsb1_round_trip() {
        let wl = Tpcc::scaled(OltpFlavor::Db2, 0.04);
        let stored = StoredTrace::from_workload(&wl, 7);
        let mut cur = Cursor::new(Vec::new());
        let meta = stored.save_tsb1(&mut cur).unwrap();
        assert_eq!(meta.records, stored.len() as u64);
        assert_eq!(meta.nodes.len(), stored.nodes());

        let loaded = StoredTrace::load_tsb1("DB2", &cur.get_ref()[..]).unwrap();
        assert_eq!(loaded.nodes(), stored.nodes());
        assert_eq!(loaded.records(), stored.records());

        let cfg = RunConfig {
            engine: EngineKind::Tse(TseConfig::default()),
            ..RunConfig::default()
        };
        let a = run_trace_stored(&stored, &cfg).unwrap();
        let b = run_trace_stored(&loaded, &cfg).unwrap();
        assert_eq!(a.engine, b.engine);
    }

    #[test]
    fn node_count_mismatch_is_rejected() {
        let stored = StoredTrace::from_workload(&Em3d::scaled(0.03), 1); // 16 nodes
        let cfg = RunConfig {
            sys: SystemConfig::builder()
                .nodes(4)
                .torus(2, 2)
                .build()
                .unwrap(),
            ..RunConfig::default()
        };
        assert!(run_trace_stored(&stored, &cfg).is_err());
    }

    #[test]
    fn idle_trailing_nodes_survive_save_load() {
        use tse_trace::AccessRecord;
        use tse_types::{Line, NodeId};
        // Only nodes 0..4 emit, but the trace is declared for 8 nodes.
        let recs: Vec<AccessRecord> = (0..100u64)
            .map(|i| AccessRecord::read(NodeId::new((i % 4) as u16), i, Line::new(i)))
            .collect();
        let stored = StoredTrace::from_records("t", 8, recs).unwrap();
        let mut cur = Cursor::new(Vec::new());
        stored.save_tsb1(&mut cur).unwrap();
        let loaded = StoredTrace::load_tsb1("t", &cur.get_ref()[..]).unwrap();
        assert_eq!(loaded.nodes(), 8, "declared node count must survive");
        assert_eq!(loaded.records(), stored.records());
    }

    /// Writes `bytes` as `<tag>.tsb1` under a per-process temp dir and
    /// maps it. Callers remove the returned dir when done.
    fn map_bytes(tag: &str, bytes: &[u8]) -> (std::path::PathBuf, Arc<MappedTrace>) {
        let dir = std::env::temp_dir().join(format!("tse-replay-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.tsb1"));
        std::fs::write(&path, bytes).unwrap();
        let trace = Arc::new(MappedTrace::open(&path).unwrap());
        (dir, trace)
    }

    fn tsb1_bytes(stored: &StoredTrace) -> Vec<u8> {
        let mut cur = Cursor::new(Vec::new());
        stored.save_tsb1(&mut cur).unwrap();
        cur.into_inner()
    }

    #[test]
    fn mapped_replay_is_bit_identical_to_stored_replay() {
        // Several blocks' worth of records so the reorder window and
        // pool decode-ahead actually engage.
        let wl = Tpcc::scaled(OltpFlavor::Db2, 0.06);
        let stored = StoredTrace::from_workload(&wl, 42);
        assert!(
            stored.len() > 3 * 4096,
            "trace must span several TSB1 blocks, got {}",
            stored.len()
        );
        let (dir, trace) = map_bytes("identical", &tsb1_bytes(&stored));
        let cfg = RunConfig {
            engine: EngineKind::Tse(TseConfig::default()),
            ..RunConfig::default()
        };
        let a = run_trace_stored(&stored, &cfg).unwrap();
        let b = run_trace_mapped(stored.name(), trace, &cfg).unwrap();
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.engine, b.engine);
        assert_eq!(a.mem, b.mem);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.records, b.records);
        assert_eq!(a.spin_misses, b.spin_misses);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_replay_rejects_node_count_mismatch() {
        let stored = StoredTrace::from_workload(&Em3d::scaled(0.03), 1); // 16 nodes
        let (dir, trace) = map_bytes("mismatch", &tsb1_bytes(&stored));
        let cfg = RunConfig {
            sys: SystemConfig::builder()
                .nodes(4)
                .torus(2, 2)
                .build()
                .unwrap(),
            ..RunConfig::default()
        };
        match run_trace_mapped("t", trace, &cfg) {
            Err(ReplayError::Config(_)) => {}
            other => panic!("expected a config error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mapped_replay_surfaces_corruption() {
        let stored = StoredTrace::from_workload(&Em3d::scaled(0.03), 1);
        let mut bytes = tsb1_bytes(&stored);
        // Flip a bit in some block payload past the header.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let (dir, trace) = map_bytes("corrupt", &bytes);
        let cfg = RunConfig::default();
        match run_trace_mapped("t", trace, &cfg) {
            Err(ReplayError::Trace(_)) => {}
            other => panic!("expected a trace error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_records_validates_node_range() {
        use tse_trace::AccessRecord;
        use tse_types::{Line, NodeId};
        let recs = vec![AccessRecord::read(NodeId::new(5), 0, Line::new(0))];
        assert!(StoredTrace::from_records("t", 4, recs.clone()).is_err());
        let t = StoredTrace::from_records("t", 6, recs).unwrap();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.name(), "t");
    }
}
