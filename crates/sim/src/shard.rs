//! Sharded sweep execution: serializable job specs, corpus-pinned
//! workers, deterministic merge.
//!
//! A figure sweep is a grid of independent cells, each fully described
//! by `(RunConfig, corpus entry)` — workload generation is pure in
//! `(workload, scale, seed)`, corpus entries are digest-pinned, and
//! replay is deterministic (DESIGN.md's determinism contract). That
//! makes the grid *distributable*: serialize each cell as a
//! [`ShardJob`], split the grid into shards ([`ShardPlan::split`]),
//! execute each shard on any host holding the same corpus
//! ([`execute_shard`], digest-verified before replay, memory-mapped so
//! giant traces never materialize), and [`merge`] the result bundles back
//! into the exact grid the in-process [`crate::SweepPool`] path
//! produces — bit-identical, by `PartialEq` on
//! [`RunResult`]/[`TimingResult`].
//!
//! Everything on the wire is versioned JSON ([`SHARD_FORMAT_VERSION`]);
//! floats round-trip exactly (shortest-representation printing), so
//! serialization never perturbs a result.
//!
//! Ordering rules:
//!
//! * **cells** are numbered `0..n` in the figure's stable enumeration
//!   order (trace-major, then the figure's parameter axis);
//! * **shard assignment** is `cell % shards` (round-robin keeps every
//!   shard's workload mix balanced);
//! * **merge** emits cells in ascending cell order, rejecting
//!   duplicates, gaps, version/figure/split mismatches and mode drift —
//!   so any execution order of the shards reassembles one canonical
//!   grid.

use crate::{run_timing_mapped, run_trace_mapped, EngineKind, RunConfig, RunResult, TimingResult};
use serde::json::{Error as JsonError, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tse_trace::corpus::Corpus;
use tse_trace::store::MappedTrace;

/// Version stamped into (and required of) every plan, result bundle and
/// merged grid this build reads or writes.
pub const SHARD_FORMAT_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Job specs
// ---------------------------------------------------------------------

/// Reference to a corpus trace: the `(workload, scale, seed)` spec the
/// manifest keys on, plus (optionally) the digest the planner pinned —
/// a worker whose corpus entry carries a different digest refuses the
/// job rather than replay different bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRef {
    /// Workload name as in the paper's figures (e.g. `"DB2"`); also the
    /// trace name every result carries, so shard and in-process results
    /// label identically.
    pub workload: String,
    /// Scale knob the trace was generated at.
    pub scale: f64,
    /// Generation seed.
    pub seed: u64,
    /// Content digest pinned at planning time (`None` = accept whatever
    /// the worker's verified manifest says).
    #[serde(default)]
    pub digest: Option<String>,
}

impl TraceRef {
    /// Hashable identity of the referenced trace (scale by bit pattern,
    /// digest excluded) — the key executors group jobs by so each trace
    /// is resolved and verified once.
    pub fn key(&self) -> (String, u64, u64) {
        (self.workload.clone(), self.scale.to_bits(), self.seed)
    }
}

/// Which harness a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardMode {
    /// Trace-driven replay ([`crate::run_trace_stored`] semantics) —
    /// yields a [`RunResult`].
    Trace,
    /// Interval timing replay ([`crate::run_timing_stored`] semantics)
    /// — yields a [`TimingResult`].
    Timing,
}

/// One sweep cell, fully serialized: replaying it anywhere the corpus
/// exists reproduces the in-process result bit for bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardJob {
    /// Figure/table this cell belongs to (e.g. `"fig08"`).
    pub figure: String,
    /// Position in the figure's stable cell ordering.
    pub cell: u64,
    /// Trace-driven or timing replay.
    pub mode: ShardMode,
    /// The corpus trace the cell replays.
    pub trace: TraceRef,
    /// The full run configuration (system, engine, warm-up; for
    /// [`ShardMode::Timing`] only `sys`/`engine`/`warm_fraction` apply,
    /// exactly as in the in-process timing path).
    pub config: RunConfig,
}

/// A split sweep grid: every cell of one figure plus the shard count it
/// was divided for. Shard `s` owns the jobs with `cell % shards == s`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardPlan {
    /// Plan format version ([`SHARD_FORMAT_VERSION`]).
    pub version: u32,
    /// The figure the grid enumerates.
    pub figure: String,
    /// Number of shards the grid is divided into.
    pub shards: u32,
    /// Every cell of the grid, in stable cell order.
    pub jobs: Vec<ShardJob>,
}

impl ShardPlan {
    /// Splits a figure grid into `shards` shards. `grid` must be one
    /// figure's full cell list in its stable enumeration order (cells
    /// numbered `0..n`), as the `tse-experiments` grid module produces.
    ///
    /// # Errors
    ///
    /// [`ShardError::Plan`] on an empty grid, a zero shard count, mixed
    /// figures, or cells out of order.
    pub fn split(grid: Vec<ShardJob>, shards: u32) -> Result<ShardPlan, ShardError> {
        if shards == 0 {
            return Err(ShardError::Plan("shard count must be >= 1".into()));
        }
        let figure = match grid.first() {
            Some(j) => j.figure.clone(),
            None => return Err(ShardError::Plan("cannot split an empty grid".into())),
        };
        let plan = ShardPlan {
            version: SHARD_FORMAT_VERSION,
            figure,
            shards,
            jobs: grid,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// The shard a cell is assigned to.
    pub fn shard_of(&self, cell: u64) -> u32 {
        (cell % u64::from(self.shards.max(1))) as u32
    }

    /// The jobs shard `shard` owns, in cell order.
    pub fn jobs_for(&self, shard: u32) -> Vec<&ShardJob> {
        self.jobs
            .iter()
            .filter(|j| self.shard_of(j.cell) == shard)
            .collect()
    }

    /// Pins every job's [`TraceRef::digest`] to the corpus manifest, so
    /// workers refuse to replay bytes other than the ones this plan was
    /// made against.
    ///
    /// # Errors
    ///
    /// [`ShardError::Corpus`] if the corpus lacks an entry for any
    /// job's trace spec.
    pub fn pin_digests(&mut self, corpus: &Corpus) -> Result<(), ShardError> {
        for job in &mut self.jobs {
            let t = &mut job.trace;
            let entry = corpus.find(&t.workload, t.scale, t.seed).ok_or_else(|| {
                ShardError::Corpus(format!(
                    "corpus has no entry for {} scale {} seed {}",
                    t.workload, t.scale, t.seed
                ))
            })?;
            t.digest = Some(entry.digest.clone());
        }
        Ok(())
    }

    /// Re-splits the *unfinished* part of an in-flight plan: builds a
    /// fresh sub-plan holding only `cells` (renumbered `0..n` so it is
    /// a valid plan in its own right), divided into `shards` shards.
    /// Also returns the cell mapping — `mapping[i]` is the original
    /// cell id of the sub-plan's cell `i` — so a scheduler can translate
    /// the sub-plan's outputs back into the parent grid. This is the
    /// dynamic work-stealing primitive: when a worker drops or times
    /// out on a shard, the outstanding cells are re-split across the
    /// workers still alive.
    ///
    /// # Errors
    ///
    /// [`ShardError::Plan`] if the plan is invalid, `shards` is zero,
    /// `cells` is empty or not strictly ascending, or a cell id falls
    /// outside the plan.
    pub fn resplit(&self, cells: &[u64], shards: u32) -> Result<(ShardPlan, Vec<u64>), ShardError> {
        self.validate()?;
        if shards == 0 {
            return Err(ShardError::Plan("shard count must be >= 1".into()));
        }
        if cells.is_empty() {
            return Err(ShardError::Plan("no cells to resplit".into()));
        }
        let mut jobs = Vec::with_capacity(cells.len());
        let mut mapping = Vec::with_capacity(cells.len());
        let mut prev: Option<u64> = None;
        for &cell in cells {
            if prev.is_some_and(|p| cell <= p) {
                return Err(ShardError::Plan(format!(
                    "resplit cells must be strictly ascending (saw {cell} after {})",
                    prev.expect("checked")
                )));
            }
            prev = Some(cell);
            let idx = usize::try_from(cell)
                .ok()
                .filter(|i| *i < self.jobs.len())
                .ok_or_else(|| {
                    ShardError::Plan(format!(
                        "cell {cell} outside the plan's {} cells",
                        self.jobs.len()
                    ))
                })?;
            let mut job = self.jobs[idx].clone();
            job.cell = jobs.len() as u64;
            mapping.push(cell);
            jobs.push(job);
        }
        let plan = ShardPlan {
            version: SHARD_FORMAT_VERSION,
            figure: self.figure.clone(),
            shards,
            jobs,
        };
        plan.validate()?;
        Ok((plan, mapping))
    }

    /// Structural validation: version, shard count, figure consistency,
    /// and the stable cell ordering contract (`jobs[i].cell == i`).
    /// Called by [`ShardPlan::split`] and again on every deserialized
    /// plan before execution or merge.
    ///
    /// # Errors
    ///
    /// [`ShardError::Version`] on a foreign format version,
    /// [`ShardError::Plan`] on any other inconsistency.
    pub fn validate(&self) -> Result<(), ShardError> {
        if self.version != SHARD_FORMAT_VERSION {
            return Err(ShardError::Version(self.version));
        }
        if self.shards == 0 {
            return Err(ShardError::Plan("shard count must be >= 1".into()));
        }
        if self.jobs.is_empty() {
            return Err(ShardError::Plan("plan has no jobs".into()));
        }
        for (i, job) in self.jobs.iter().enumerate() {
            if job.figure != self.figure {
                return Err(ShardError::Plan(format!(
                    "job {i} belongs to {}, plan is for {}",
                    job.figure, self.figure
                )));
            }
            if job.cell != i as u64 {
                return Err(ShardError::Plan(format!(
                    "cell ordering broken: job {i} has cell id {}",
                    job.cell
                )));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------

/// One cell's output, tagged by the harness that produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutput {
    /// Trace-driven result.
    Trace(RunResult),
    /// Timing-model result.
    Timing(TimingResult),
}

impl CellOutput {
    /// The mode that produces this output shape.
    pub fn mode(&self) -> ShardMode {
        match self {
            CellOutput::Trace(_) => ShardMode::Trace,
            CellOutput::Timing(_) => ShardMode::Timing,
        }
    }

    /// The trace-driven result, if this is one.
    pub fn as_trace(&self) -> Option<&RunResult> {
        match self {
            CellOutput::Trace(r) => Some(r),
            CellOutput::Timing(_) => None,
        }
    }

    /// The timing result, if this is one.
    pub fn as_timing(&self) -> Option<&TimingResult> {
        match self {
            CellOutput::Timing(r) => Some(r),
            CellOutput::Trace(_) => None,
        }
    }
}

/// One executed cell inside a result bundle or merged grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCell {
    /// The cell's position in the plan's ordering.
    pub cell: u64,
    /// What the replay produced.
    pub output: CellOutput,
}

/// The bundle one worker ships back: every cell of one shard, executed
/// against a digest-verified corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardResult {
    /// Bundle format version ([`SHARD_FORMAT_VERSION`]).
    pub version: u32,
    /// The plan's figure.
    pub figure: String,
    /// The shard count the plan was split into (so bundles from a
    /// differently split plan cannot be merged by accident).
    pub shards: u32,
    /// Which shard this bundle covers.
    pub shard: u32,
    /// The shard's cells, in ascending cell order.
    pub cells: Vec<ShardCell>,
}

/// A fully merged grid: the same cells, in the same order, carrying the
/// same bit-identical results as running the whole sweep in-process on
/// the [`crate::SweepPool`]. Also the output shape of the in-process
/// path itself (see [`MergedGrid::from_outputs`]), so the two can be
/// compared — or byte-diffed once serialized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergedGrid {
    /// Grid format version ([`SHARD_FORMAT_VERSION`]).
    pub version: u32,
    /// The figure the grid belongs to.
    pub figure: String,
    /// Every cell, in ascending cell order.
    pub cells: Vec<ShardCell>,
}

impl MergedGrid {
    /// Wraps an in-process sweep's outputs (one per cell, already in
    /// cell order) in the merged-grid shape.
    pub fn from_outputs(figure: impl Into<String>, outputs: Vec<CellOutput>) -> MergedGrid {
        MergedGrid {
            version: SHARD_FORMAT_VERSION,
            figure: figure.into(),
            cells: outputs
                .into_iter()
                .enumerate()
                .map(|(i, output)| ShardCell {
                    cell: i as u64,
                    output,
                })
                .collect(),
        }
    }

    /// The outputs in cell order, consuming the grid.
    pub fn into_outputs(self) -> Vec<CellOutput> {
        self.cells.into_iter().map(|c| c.output).collect()
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Error raised by shard planning, execution or merging.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// A plan/bundle/grid declares a format version this build does not
    /// read.
    Version(u32),
    /// The plan or grid is structurally invalid.
    Plan(String),
    /// The corpus lacks a referenced entry (or could not be opened).
    Corpus(String),
    /// A referenced trace failed digest/structural verification, or its
    /// digest differs from the one the plan pinned.
    Verify(String),
    /// Replaying a job failed.
    Run(String),
    /// Result bundles are inconsistent with the plan or each other.
    Merge(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Version(v) => write!(
                f,
                "shard format version {v} unsupported (this build reads {SHARD_FORMAT_VERSION})"
            ),
            ShardError::Plan(m) => write!(f, "invalid shard plan: {m}"),
            ShardError::Corpus(m) => write!(f, "corpus error: {m}"),
            ShardError::Verify(m) => write!(f, "corpus verification failed: {m}"),
            ShardError::Run(m) => write!(f, "shard job failed: {m}"),
            ShardError::Merge(m) => write!(f, "cannot merge shard results: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

// ---------------------------------------------------------------------
// Worker path
// ---------------------------------------------------------------------

/// Executes one shard of a plan against a local corpus.
///
/// Every trace the shard's jobs reference is located in the corpus
/// manifest and verified (digest + TSB1 structure) exactly once before
/// any replay; a digest pinned in the plan must additionally match the
/// manifest. Jobs then run in parallel on the global
/// [`crate::SweepPool`], each replaying its trace zero-copy through
/// [`run_trace_mapped`] / [`run_timing_mapped`] (blocks decode straight
/// out of a shared memory mapping, so even giant traces replay in
/// bounded heap). Cells run concurrently; each one replays sequentially
/// on a single pool worker. Results come back in cell order.
///
/// # Errors
///
/// [`ShardError::Plan`] for an invalid plan or shard index,
/// [`ShardError::Corpus`] / [`ShardError::Verify`] from the
/// pre-verification pass, [`ShardError::Run`] if any replay fails (the
/// failing cell's error, lowest cell first).
pub fn execute_shard(
    plan: &ShardPlan,
    shard: u32,
    corpus: &Corpus,
) -> Result<ShardResult, ShardError> {
    plan.validate()?;
    if shard >= plan.shards {
        return Err(ShardError::Plan(format!(
            "shard {shard} out of range for a {}-shard plan",
            plan.shards
        )));
    }
    let jobs: Vec<ShardJob> = plan.jobs_for(shard).into_iter().cloned().collect();

    // Verify each distinct referenced trace once, before paying for any
    // replay.
    let mut paths: HashMap<(String, u64, u64), PathBuf> = HashMap::new();
    for job in &jobs {
        let t = &job.trace;
        if paths.contains_key(&t.key()) {
            continue;
        }
        let entry = corpus.find(&t.workload, t.scale, t.seed).ok_or_else(|| {
            ShardError::Corpus(format!(
                "corpus has no entry for {} scale {} seed {}",
                t.workload, t.scale, t.seed
            ))
        })?;
        corpus
            .verify_entry(entry)
            .map_err(|reason| ShardError::Verify(format!("{}: {reason}", entry.path)))?;
        if let Some(want) = &t.digest {
            if *want != entry.digest {
                return Err(ShardError::Verify(format!(
                    "{}: plan pins digest {want}, corpus manifest has {}",
                    entry.path, entry.digest
                )));
            }
        }
        paths.insert(t.key(), corpus.path_of(entry));
    }

    let work: Vec<(ShardJob, PathBuf)> = jobs
        .into_iter()
        .map(|j| {
            let p = paths[&j.trace.key()].clone();
            (j, p)
        })
        .collect();
    let ran = crate::run_parallel(work, 0, |(job, path)| (job.cell, run_job(&job, &path)));

    let mut cells = Vec::with_capacity(ran.len());
    for (cell, result) in ran {
        cells.push(ShardCell {
            cell,
            output: result?,
        });
    }
    Ok(ShardResult {
        version: SHARD_FORMAT_VERSION,
        figure: plan.figure.clone(),
        shards: plan.shards,
        shard,
        cells,
    })
}

/// Replays one job's trace through the harness its mode names, via the
/// zero-copy mapped path (blocks decode straight out of the mapping;
/// bit-identical to stored replay of the same file).
fn run_job(job: &ShardJob, path: &Path) -> Result<CellOutput, ShardError> {
    let fail = |e: &dyn std::fmt::Display| {
        ShardError::Run(format!("cell {} ({}): {e}", job.cell, job.trace.workload))
    };
    let trace = Arc::new(MappedTrace::open(path).map_err(|e| fail(&e))?);
    let name = job.trace.workload.clone();
    match job.mode {
        ShardMode::Trace => run_trace_mapped(name, trace, &job.config)
            .map(CellOutput::Trace)
            .map_err(|e| fail(&e)),
        ShardMode::Timing => run_timing_mapped(
            name,
            trace,
            &job.config.sys,
            &job.config.engine,
            job.config.warm_fraction,
        )
        .map(CellOutput::Timing)
        .map_err(|e| fail(&e)),
    }
}

// ---------------------------------------------------------------------
// Deterministic merge
// ---------------------------------------------------------------------

/// A partially merged grid: the cells the bundles did cover (in
/// ascending cell order, carrying their *original* cell ids) plus the
/// cells still outstanding. What [`merge_partial`] returns — and the
/// shape `sweepctl merge --partial` persists, deliberately distinct
/// from [`MergedGrid`] so a partial result can never be mistaken for a
/// complete one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialMerge {
    /// The covered cells, wrapped in the merged-grid shape (cell ids are
    /// the plan's, so the list may have gaps).
    pub grid: MergedGrid,
    /// Plan cell ids no bundle covered, ascending.
    pub outstanding: Vec<u64>,
}

impl PartialMerge {
    /// True when every cell of the plan is covered.
    pub fn is_complete(&self) -> bool {
        self.outstanding.is_empty()
    }
}

/// Merges shard result bundles back into the plan's full grid.
///
/// Deterministic regardless of bundle order: cells are placed by id and
/// emitted ascending. Rejected: version or figure mismatches, bundles
/// from a different split (`shards` differs), duplicate bundles or
/// cells, cells on the wrong shard, outputs whose mode contradicts the
/// plan's job, and any missing cell.
///
/// # Errors
///
/// [`ShardError::Version`] / [`ShardError::Merge`] as described above;
/// [`ShardError::Plan`] if the plan itself is invalid.
pub fn merge(plan: &ShardPlan, bundles: &[ShardResult]) -> Result<MergedGrid, ShardError> {
    let partial = merge_partial(plan, bundles)?;
    if !partial.outstanding.is_empty() {
        let missing = partial.outstanding.len();
        let first = partial.outstanding[0];
        let total = missing + partial.grid.cells.len();
        return Err(ShardError::Merge(format!(
            "{missing} of {total} cells missing (first: cell {first}) — not all shards ran?"
        )));
    }
    Ok(partial.grid)
}

/// Like [`merge`], but missing cells are *reported*, not refused: the
/// covered cells come back as a gappy grid alongside the outstanding
/// cell ids. Every structural check [`merge`] performs (versions,
/// figure, split, shard ownership, duplicates, output modes) still
/// applies — only completeness is relaxed. This is what lets a
/// scheduler merge whatever bundles have arrived and re-dispatch the
/// rest ([`ShardPlan::resplit`]).
///
/// # Errors
///
/// [`ShardError::Version`] / [`ShardError::Merge`] on any structural
/// inconsistency; [`ShardError::Plan`] if the plan itself is invalid.
pub fn merge_partial(
    plan: &ShardPlan,
    bundles: &[ShardResult],
) -> Result<PartialMerge, ShardError> {
    plan.validate()?;
    let mut outputs: Vec<Option<CellOutput>> = plan.jobs.iter().map(|_| None).collect();
    let mut seen_shards: Vec<u32> = Vec::new();
    for bundle in bundles {
        if bundle.version != SHARD_FORMAT_VERSION {
            return Err(ShardError::Version(bundle.version));
        }
        if bundle.figure != plan.figure {
            return Err(ShardError::Merge(format!(
                "bundle is for {}, plan is for {}",
                bundle.figure, plan.figure
            )));
        }
        if bundle.shards != plan.shards {
            return Err(ShardError::Merge(format!(
                "bundle was split {} ways, plan {} ways",
                bundle.shards, plan.shards
            )));
        }
        if bundle.shard >= plan.shards {
            return Err(ShardError::Merge(format!(
                "bundle names shard {} of a {}-shard plan",
                bundle.shard, plan.shards
            )));
        }
        if seen_shards.contains(&bundle.shard) {
            return Err(ShardError::Merge(format!(
                "duplicate bundle for shard {}",
                bundle.shard
            )));
        }
        seen_shards.push(bundle.shard);
        for cell in &bundle.cells {
            let idx = usize::try_from(cell.cell)
                .ok()
                .filter(|i| *i < outputs.len())
                .ok_or_else(|| {
                    ShardError::Merge(format!(
                        "cell {} outside the plan's {} cells",
                        cell.cell,
                        outputs.len()
                    ))
                })?;
            if plan.shard_of(cell.cell) != bundle.shard {
                return Err(ShardError::Merge(format!(
                    "cell {} belongs to shard {}, found in bundle for shard {}",
                    cell.cell,
                    plan.shard_of(cell.cell),
                    bundle.shard
                )));
            }
            if cell.output.mode() != plan.jobs[idx].mode {
                return Err(ShardError::Merge(format!(
                    "cell {} output mode contradicts the plan's job mode",
                    cell.cell
                )));
            }
            if outputs[idx].is_some() {
                return Err(ShardError::Merge(format!("duplicate cell {}", cell.cell)));
            }
            outputs[idx] = Some(cell.output.clone());
        }
    }
    let outstanding: Vec<u64> = outputs
        .iter()
        .enumerate()
        .filter(|(_, o)| o.is_none())
        .map(|(i, _)| i as u64)
        .collect();
    Ok(PartialMerge {
        grid: MergedGrid {
            version: SHARD_FORMAT_VERSION,
            figure: plan.figure.clone(),
            cells: outputs
                .into_iter()
                .enumerate()
                .filter_map(|(i, o)| {
                    o.map(|output| ShardCell {
                        cell: i as u64,
                        output,
                    })
                })
                .collect(),
        },
        outstanding,
    })
}

// ---------------------------------------------------------------------
// Manual serde for the data-carrying enums
// ---------------------------------------------------------------------
// The vendored serde derive handles named structs and unit enums; these
// two enums carry payloads, so their JSON shape is written out by hand:
// `EngineKind` as a `kind`-tagged object, `CellOutput` as a
// `mode`-tagged object.

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn field<T: Deserialize>(value: &Value, name: &str) -> Result<T, JsonError> {
    match value.get(name) {
        Some(v) => T::from_json(v),
        None => Err(JsonError::custom(format!("missing field `{name}`"))),
    }
}

impl Serialize for EngineKind {
    fn to_json(&self) -> Value {
        match self {
            EngineKind::Baseline => obj(vec![("kind", "baseline".to_json())]),
            EngineKind::Tse(cfg) => obj(vec![("kind", "tse".to_json()), ("config", cfg.to_json())]),
            EngineKind::Stride { depth, buffer } => obj(vec![
                ("kind", "stride".to_json()),
                ("depth", depth.to_json()),
                ("buffer", buffer.to_json()),
            ]),
            EngineKind::Ghb {
                indexing,
                entries,
                width,
                buffer,
            } => obj(vec![
                ("kind", "ghb".to_json()),
                ("indexing", indexing.to_json()),
                ("entries", entries.to_json()),
                ("width", width.to_json()),
                ("buffer", buffer.to_json()),
            ]),
        }
    }
}

impl Deserialize for EngineKind {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| JsonError::custom("engine needs a string `kind` tag"))?;
        match kind {
            "baseline" => Ok(EngineKind::Baseline),
            "tse" => Ok(EngineKind::Tse(field(value, "config")?)),
            "stride" => Ok(EngineKind::Stride {
                depth: field(value, "depth")?,
                buffer: field(value, "buffer")?,
            }),
            "ghb" => Ok(EngineKind::Ghb {
                indexing: field(value, "indexing")?,
                entries: field(value, "entries")?,
                width: field(value, "width")?,
                buffer: field(value, "buffer")?,
            }),
            other => Err(JsonError::custom(format!("unknown engine kind: {other:?}"))),
        }
    }
}

impl Serialize for CellOutput {
    fn to_json(&self) -> Value {
        match self {
            CellOutput::Trace(r) => obj(vec![("mode", "trace".to_json()), ("result", r.to_json())]),
            CellOutput::Timing(r) => {
                obj(vec![("mode", "timing".to_json()), ("result", r.to_json())])
            }
        }
    }
}

impl Deserialize for CellOutput {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let mode = value
            .get("mode")
            .and_then(Value::as_str)
            .ok_or_else(|| JsonError::custom("cell output needs a string `mode` tag"))?;
        match mode {
            "trace" => Ok(CellOutput::Trace(field(value, "result")?)),
            "timing" => Ok(CellOutput::Timing(field(value, "result")?)),
            other => Err(JsonError::custom(format!(
                "unknown cell output mode: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tse_interconnect::TrafficReport;
    use tse_prefetch::GhbIndexing;
    use tse_types::{SystemConfig, TseConfig};

    fn job(cell: u64, mode: ShardMode, engine: EngineKind) -> ShardJob {
        ShardJob {
            figure: "figX".into(),
            cell,
            mode,
            trace: TraceRef {
                workload: "DB2".into(),
                scale: 0.05,
                seed: 42,
                digest: None,
            },
            config: RunConfig {
                engine,
                ..RunConfig::default()
            },
        }
    }

    fn trace_output(tag: u64) -> CellOutput {
        CellOutput::Trace(RunResult {
            workload: format!("wl{tag}"),
            engine_name: "TSE".into(),
            mem: Default::default(),
            engine: Default::default(),
            traffic: TrafficReport {
                total_bytes: tag,
                demand_bytes: 0,
                overhead_bytes: 0,
                stream_address_bytes: 0,
                discarded_data_bytes: 0,
                cmob_bytes: 0,
                bisection_demand_bytes: 0,
                bisection_overhead_bytes: 0,
                messages: 0,
            },
            consumptions: Vec::new(),
            records: tag,
            spin_misses: 0,
        })
    }

    fn grid(n: u64) -> Vec<ShardJob> {
        (0..n)
            .map(|i| job(i, ShardMode::Trace, EngineKind::Baseline))
            .collect()
    }

    #[test]
    fn split_assigns_round_robin_and_validates() {
        let plan = ShardPlan::split(grid(7), 3).unwrap();
        assert_eq!(plan.figure, "figX");
        assert_eq!(plan.jobs_for(0).len(), 3); // cells 0, 3, 6
        assert_eq!(plan.jobs_for(1).len(), 2); // cells 1, 4
        assert_eq!(plan.jobs_for(2).len(), 2); // cells 2, 5
        assert_eq!(
            plan.jobs_for(1).iter().map(|j| j.cell).collect::<Vec<_>>(),
            vec![1, 4]
        );

        assert!(ShardPlan::split(grid(4), 0).is_err(), "zero shards");
        assert!(ShardPlan::split(Vec::new(), 2).is_err(), "empty grid");
        let mut bad = grid(4);
        bad[2].cell = 9;
        assert!(ShardPlan::split(bad, 2).is_err(), "broken cell ordering");
        let mut mixed = grid(4);
        mixed[1].figure = "other".into();
        assert!(ShardPlan::split(mixed, 2).is_err(), "mixed figures");
    }

    #[test]
    fn resplit_renumbers_and_maps_back() {
        let plan = ShardPlan::split(grid(7), 3).unwrap();
        let (sub, mapping) = plan.resplit(&[1, 4, 6], 2).unwrap();
        assert_eq!(sub.figure, plan.figure);
        assert_eq!(sub.shards, 2);
        assert_eq!(mapping, vec![1, 4, 6]);
        assert_eq!(
            sub.jobs.iter().map(|j| j.cell).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "sub-plan cells are renumbered 0..n"
        );
        sub.validate().unwrap();

        assert!(plan.resplit(&[], 2).is_err(), "empty cell set");
        assert!(plan.resplit(&[1, 2], 0).is_err(), "zero shards");
        assert!(plan.resplit(&[2, 1], 2).is_err(), "descending cells");
        assert!(plan.resplit(&[1, 1], 2).is_err(), "duplicate cells");
        assert!(plan.resplit(&[7], 2).is_err(), "cell outside the plan");
    }

    #[test]
    fn merge_partial_reports_outstanding_cells() {
        let plan = ShardPlan::split(grid(5), 2).unwrap();
        let bundle0 = ShardResult {
            version: SHARD_FORMAT_VERSION,
            figure: "figX".into(),
            shards: 2,
            shard: 0,
            cells: plan
                .jobs_for(0)
                .iter()
                .map(|j| ShardCell {
                    cell: j.cell,
                    output: trace_output(j.cell),
                })
                .collect(),
        };
        // Shard 1 (cells 1, 3) missing entirely.
        let partial = merge_partial(&plan, std::slice::from_ref(&bundle0)).unwrap();
        assert!(!partial.is_complete());
        assert_eq!(partial.outstanding, vec![1, 3]);
        assert_eq!(
            partial
                .grid
                .cells
                .iter()
                .map(|c| c.cell)
                .collect::<Vec<_>>(),
            vec![0, 2, 4],
            "covered cells keep their original ids"
        );
        // Round-trips through JSON (the `merge --partial` output shape).
        let text = serde::json::to_string_pretty(&partial.to_json());
        let back = PartialMerge::from_json(&serde::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, partial);
        // Structural checks still apply.
        let mut dup = bundle0.clone();
        dup.shard = 0;
        assert!(merge_partial(&plan, &[bundle0, dup]).is_err());
    }

    #[test]
    fn validate_rejects_foreign_versions() {
        let mut plan = ShardPlan::split(grid(2), 1).unwrap();
        plan.version = 99;
        assert_eq!(plan.validate(), Err(ShardError::Version(99)));
    }

    #[test]
    fn engine_kinds_round_trip_through_json() {
        let engines = [
            EngineKind::Baseline,
            EngineKind::Tse(TseConfig::builder().lookahead(12).build().unwrap()),
            EngineKind::paper_stride(),
            EngineKind::paper_ghb(GhbIndexing::AddressCorrelation),
            EngineKind::Ghb {
                indexing: GhbIndexing::DistanceCorrelation,
                entries: 64,
                width: 2,
                buffer: None,
            },
        ];
        for e in engines {
            let text = e.to_json().to_string();
            let back = EngineKind::from_json(&serde::json::parse(&text).unwrap()).unwrap();
            // EngineKind has no PartialEq (TseConfig is compared rarely);
            // compare the canonical JSON instead.
            assert_eq!(back.to_json().to_string(), text);
        }
    }

    #[test]
    fn run_config_round_trips_exactly() {
        let cfg = RunConfig {
            sys: SystemConfig::default(),
            engine: EngineKind::Tse(TseConfig::unconstrained()),
            seed: 7,
            warm_fraction: 0.25,
            collect_consumptions: true,
            stream_scope: crate::StreamScope::AllReads,
        };
        let text = cfg.to_json().to_string();
        let back = RunConfig::from_json(&serde::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.to_json().to_string(), text);
        assert_eq!(back.warm_fraction, cfg.warm_fraction);
        assert_eq!(back.stream_scope, cfg.stream_scope);
    }

    #[test]
    fn merge_reassembles_any_bundle_order() {
        let plan = ShardPlan::split(grid(5), 2).unwrap();
        let bundle = |shard: u32| ShardResult {
            version: SHARD_FORMAT_VERSION,
            figure: "figX".into(),
            shards: 2,
            shard,
            cells: plan
                .jobs_for(shard)
                .iter()
                .map(|j| ShardCell {
                    cell: j.cell,
                    output: trace_output(j.cell),
                })
                .collect(),
        };
        let forward = merge(&plan, &[bundle(0), bundle(1)]).unwrap();
        let reversed = merge(&plan, &[bundle(1), bundle(0)]).unwrap();
        assert_eq!(forward, reversed, "merge is order independent");
        let cells: Vec<u64> = forward.cells.iter().map(|c| c.cell).collect();
        assert_eq!(cells, vec![0, 1, 2, 3, 4], "ascending cell order");
        assert_eq!(forward.into_outputs().len(), 5);
    }

    #[test]
    fn merge_rejects_inconsistent_bundles() {
        let plan = ShardPlan::split(grid(4), 2).unwrap();
        let good = |shard: u32| ShardResult {
            version: SHARD_FORMAT_VERSION,
            figure: "figX".into(),
            shards: 2,
            shard,
            cells: plan
                .jobs_for(shard)
                .iter()
                .map(|j| ShardCell {
                    cell: j.cell,
                    output: trace_output(j.cell),
                })
                .collect(),
        };

        // Missing a shard.
        assert!(matches!(
            merge(&plan, &[good(0)]),
            Err(ShardError::Merge(m)) if m.contains("missing")
        ));
        // Duplicate bundle.
        assert!(matches!(
            merge(&plan, &[good(0), good(0)]),
            Err(ShardError::Merge(m)) if m.contains("duplicate bundle")
        ));
        // Foreign version.
        let mut b = good(0);
        b.version = 2;
        assert_eq!(merge(&plan, &[b, good(1)]), Err(ShardError::Version(2)));
        // Wrong figure.
        let mut b = good(0);
        b.figure = "other".into();
        assert!(merge(&plan, &[b, good(1)]).is_err());
        // Different split.
        let mut b = good(0);
        b.shards = 3;
        assert!(merge(&plan, &[b, good(1)]).is_err());
        // Cell on the wrong shard.
        let mut b = good(0);
        b.cells[0].cell = 1;
        assert!(merge(&plan, &[b, good(1)]).is_err());
        // Output mode contradicting the plan.
        let mut plan_t = plan.clone();
        plan_t.jobs[0].mode = ShardMode::Timing;
        assert!(matches!(
            merge(&plan_t, &[good(0), good(1)]),
            Err(ShardError::Merge(m)) if m.contains("mode")
        ));
    }

    #[test]
    fn truncated_bundle_fails_to_parse() {
        let bundle = ShardResult {
            version: SHARD_FORMAT_VERSION,
            figure: "figX".into(),
            shards: 1,
            shard: 0,
            cells: vec![ShardCell {
                cell: 0,
                output: trace_output(0),
            }],
        };
        let text = serde::json::to_string_pretty(&bundle.to_json());
        let cut = &text[..text.len() * 2 / 3];
        let parsed = serde::json::parse(cut);
        assert!(
            parsed.is_err(),
            "a truncated result bundle must fail to parse, got {parsed:?}"
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn arb_engine(pick: u8, k: usize, buf: Option<usize>) -> EngineKind {
            match pick % 4 {
                0 => EngineKind::Baseline,
                1 => EngineKind::Tse(
                    TseConfig::builder()
                        .lookahead(k.clamp(1, 64))
                        .build()
                        .expect("valid lookahead"),
                ),
                2 => EngineKind::Stride {
                    depth: k.clamp(1, 32),
                    buffer: buf,
                },
                _ => EngineKind::Ghb {
                    indexing: if k.is_multiple_of(2) {
                        GhbIndexing::AddressCorrelation
                    } else {
                        GhbIndexing::DistanceCorrelation
                    },
                    entries: k.clamp(1, 4096),
                    width: (k % 8).max(1),
                    buffer: buf,
                },
            }
        }

        proptest! {
            #[test]
            fn shard_jobs_round_trip(
                (pick, k, cell, seed) in (any::<u8>(), 1usize..64, any::<u64>(), any::<u64>()),
                (scale_m, warm_m, timing, with_buf, with_digest)
                    in (1u32..2000, 0u32..100, any::<bool>(), any::<bool>(), any::<bool>()),
            ) {
                let job = ShardJob {
                    figure: "fig08".into(),
                    cell,
                    mode: if timing { ShardMode::Timing } else { ShardMode::Trace },
                    trace: TraceRef {
                        workload: "Oracle".into(),
                        scale: f64::from(scale_m) / 1000.0,
                        seed,
                        digest: with_digest.then(|| format!("fnv1a64:{seed:016x}")),
                    },
                    config: RunConfig {
                        engine: arb_engine(pick, k, with_buf.then_some(k)),
                        seed,
                        warm_fraction: f64::from(warm_m) / 100.0,
                        ..RunConfig::default()
                    },
                };
                let text = serde::json::to_string_pretty(&job.to_json());
                let back = ShardJob::from_json(&serde::json::parse(&text).unwrap()).unwrap();
                prop_assert_eq!(back.cell, job.cell);
                prop_assert_eq!(back.mode, job.mode);
                prop_assert_eq!(&back.trace, &job.trace);
                // Floats must round-trip bit exactly.
                prop_assert_eq!(
                    back.config.warm_fraction.to_bits(),
                    job.config.warm_fraction.to_bits()
                );
                prop_assert_eq!(back.to_json().to_string(), job.to_json().to_string());
            }

            #[test]
            fn shard_results_round_trip(
                (shards, records, spins) in (1u32..8, any::<u64>(), any::<u64>()),
                n_cells in 1usize..6,
            ) {
                let bundle = ShardResult {
                    version: SHARD_FORMAT_VERSION,
                    figure: "fig08".into(),
                    shards,
                    shard: shards - 1,
                    cells: (0..n_cells as u64)
                        .map(|i| {
                            let mut out = trace_output(records.wrapping_add(i));
                            if let CellOutput::Trace(r) = &mut out {
                                r.spin_misses = spins;
                            }
                            ShardCell { cell: i * u64::from(shards), output: out }
                        })
                        .collect(),
                };
                let text = serde::json::to_string_pretty(&bundle.to_json());
                let back = ShardResult::from_json(&serde::json::parse(&text).unwrap()).unwrap();
                prop_assert_eq!(&back, &bundle);
            }
        }
    }
}
