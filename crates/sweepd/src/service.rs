//! The sweep scheduler: job queue, cache-first execution, dynamic work
//! re-splitting with per-shard retry/timeout.
//!
//! A submitted `ShardPlan` runs in two phases:
//!
//! 1. **Cache probe** — every cell's key is looked up in the
//!    [`ResultCache`]; hits are resolved immediately and never
//!    dispatched. A fully warm plan therefore simulates *zero* cells.
//! 2. **Dispatch rounds** — the still-missing cells are re-split into a
//!    fresh sub-plan ([`ShardPlan::resplit`]) of up to
//!    [`ServiceConfig::workers`] shards, each executed by the
//!    [`ShardRunner`] on its own thread. Shards that error or exceed
//!    [`ServiceConfig::timeout`] are abandoned; whatever cells *did*
//!    arrive are kept, and the next round re-splits only the remainder
//!    across the workers — dynamic work stealing of an in-flight plan.
//!    After [`ServiceConfig::retries`] extra rounds the job fails,
//!    reporting its outstanding cells.
//!
//! Freshly simulated outputs are inserted into the cache (index saved
//! once per job), then the full grid is assembled in ascending cell
//! order — structurally identical to `MergedGrid::from_outputs`, so a
//! daemon-served result serializes byte-identically to the in-process
//! `SweepPool` reference path.

use crate::cache::{CacheError, CacheStats, ResultCache};
use crate::journal::{Journal, JournalRecord, JournaledJob, ReplayState};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tse_sim::shard::{
    execute_shard, CellOutput, MergedGrid, ShardCell, ShardError, ShardPlan, ShardResult,
    SHARD_FORMAT_VERSION,
};
use tse_trace::corpus::{Corpus, GcReport};

/// How a plan is executed: worker fan-out, retry budget, per-shard
/// timeout.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum shards per dispatch round (each runs on its own thread;
    /// a shard's cells run concurrently on the `SweepPool`, each cell
    /// replaying sequentially).
    pub workers: u32,
    /// Extra dispatch rounds after the first before a job fails.
    pub retries: u32,
    /// Wall-clock budget per dispatch round; shards still running when
    /// it expires are abandoned and their cells re-split.
    pub timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            retries: 2,
            timeout: Duration::from_secs(600),
        }
    }
}

/// Executes one shard of a plan — the seam between the scheduler and
/// the simulation. The production implementation is [`CorpusRunner`];
/// tests substitute fault-injecting runners to exercise the retry and
/// re-split paths deterministically.
pub trait ShardRunner: Send + Sync {
    /// Runs shard `shard` of `plan`, returning its result bundle.
    ///
    /// # Errors
    ///
    /// Any [`ShardError`] the execution raises; the scheduler treats an
    /// erroring shard like a dropped one and re-splits its cells.
    fn run_shard(&self, plan: &ShardPlan, shard: u32) -> Result<ShardResult, ShardError>;

    /// Pins the plan's trace digests before execution (no-op by
    /// default). The daemon pins against its corpus so cache keys exist
    /// even for plans submitted unpinned by a corpus-less client.
    ///
    /// # Errors
    ///
    /// [`ShardError::Corpus`] when a referenced trace is unknown.
    fn pin_digests(&self, plan: &mut ShardPlan) -> Result<(), ShardError> {
        let _ = plan;
        Ok(())
    }

    /// The content digests of every trace this runner can replay, or
    /// `None` when it has no corpus to enumerate — the retention set
    /// for [`SweepService::cache_gc`].
    fn corpus_digests(&self) -> Option<Vec<String>> {
        None
    }
}

/// The production [`ShardRunner`]: replays shards against a local
/// digest-verified corpus via [`execute_shard`].
pub struct CorpusRunner {
    corpus: Corpus,
}

impl CorpusRunner {
    /// Wraps an opened corpus.
    pub fn new(corpus: Corpus) -> Self {
        CorpusRunner { corpus }
    }
}

impl ShardRunner for CorpusRunner {
    fn run_shard(&self, plan: &ShardPlan, shard: u32) -> Result<ShardResult, ShardError> {
        execute_shard(plan, shard, &self.corpus)
    }

    fn pin_digests(&self, plan: &mut ShardPlan) -> Result<(), ShardError> {
        plan.pin_digests(&self.corpus)
    }

    fn corpus_digests(&self) -> Option<Vec<String>> {
        Some(
            self.corpus
                .entries()
                .iter()
                .map(|e| e.digest.clone())
                .collect(),
        )
    }
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Accepted, not yet started.
    Queued,
    /// Dispatch rounds in progress.
    Running,
    /// Every cell resolved; the merged grid is available.
    Done,
    /// Retry budget exhausted with cells still outstanding.
    Failed,
}

/// Observable state of one job, as `sweepd status` reports it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// Job id (per-daemon, monotonically increasing from 0).
    pub id: u64,
    /// The plan's figure.
    pub figure: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Total cells in the plan.
    pub cells: u64,
    /// Cells served from the result cache.
    pub cached: u64,
    /// Cells simulated by this job's dispatch rounds.
    pub simulated: u64,
    /// Cells still unresolved (nonzero only mid-run or on failure).
    pub outstanding: u64,
    /// Dispatch rounds used so far.
    pub rounds: u32,
    /// Failure description, when [`JobState::Failed`].
    #[serde(default)]
    pub error: Option<String>,
}

struct JobRecord {
    status: JobStatus,
    plan: Option<ShardPlan>,
    result: Option<MergedGrid>,
}

/// The persistent sweep service: owns the cache, the runner and the job
/// table. One instance serves a daemon's whole lifetime; connection
/// handlers share it behind an [`Arc`].
pub struct SweepService {
    cfg: ServiceConfig,
    runner: Arc<dyn ShardRunner>,
    cache: Mutex<ResultCache>,
    jobs: Mutex<Vec<JobRecord>>,
    done: Condvar,
    shutdown: AtomicBool,
    /// Corpus directory served over the sync protocol (`sweepd serve
    /// --corpus-serve`), `None` when sync is not enabled. The mutex
    /// serializes manifest mutation across connection handlers.
    sync_dir: Option<Mutex<std::path::PathBuf>>,
    /// The crash journal, when the daemon runs with one. The mutex
    /// serializes appends so journal order matches job-id order.
    journal: Option<Mutex<Journal>>,
}

impl SweepService {
    /// Builds a service over a runner and an opened cache.
    pub fn new(runner: Arc<dyn ShardRunner>, cache: ResultCache, cfg: ServiceConfig) -> Self {
        SweepService {
            cfg,
            runner,
            cache: Mutex::new(cache),
            jobs: Mutex::new(Vec::new()),
            done: Condvar::new(),
            shutdown: AtomicBool::new(false),
            sync_dir: None,
            journal: None,
        }
    }

    /// Enables the corpus sync protocol over `dir`: `sync-manifest`,
    /// `sync-fetch` and `sync-push` requests against this daemon are
    /// answered from (and insert into) that corpus.
    #[must_use]
    pub fn with_corpus_sync(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.sync_dir = Some(Mutex::new(dir.into()));
        self
    }

    /// The sync-served corpus directory, when enabled.
    pub(crate) fn sync_corpus(&self) -> Option<&Mutex<std::path::PathBuf>> {
        self.sync_dir.as_ref()
    }

    /// Attaches a crash journal: every accepted plan, cached round and
    /// terminal state is appended (fsync'd) to it, enabling `serve
    /// --resume` after a crash.
    #[must_use]
    pub fn with_journal(mut self, journal: Journal) -> Self {
        self.journal = Some(Mutex::new(journal));
        self
    }

    /// Rebuilds the job table from a journal replay — call once,
    /// before serving, on `--resume`. Failed jobs are restored
    /// terminally failed; done and pending jobs are restored *queued*
    /// and must be re-run (their ids are returned, in order). Re-running
    /// is cheap and exact: every cell journaled as cached is served by
    /// the executor's cache probe, so only the genuinely unfinished
    /// cell set is re-dispatched, and the rebuilt merge is
    /// byte-identical to an uninterrupted run.
    pub fn restore(&self, journaled: Vec<JournaledJob>) -> Vec<u64> {
        let mut jobs = self.jobs.lock().expect("jobs lock");
        debug_assert!(jobs.is_empty(), "restore() runs before any submit");
        let mut pending = Vec::new();
        for job in journaled {
            let cells = job.plan.jobs.len() as u64;
            let failed = job.state == ReplayState::Failed;
            if !failed {
                pending.push(job.id);
            }
            jobs.push(JobRecord {
                status: JobStatus {
                    id: job.id,
                    figure: job.plan.figure.clone(),
                    state: if failed {
                        JobState::Failed
                    } else {
                        JobState::Queued
                    },
                    cells,
                    cached: 0,
                    simulated: 0,
                    outstanding: cells,
                    rounds: 0,
                    error: failed.then(|| "failed before restart (journaled)".to_string()),
                },
                plan: Some(job.plan),
                result: None,
            });
        }
        pending
    }

    /// Accepts a plan into the queue: validates it, pins its digests
    /// through the runner, and returns the new job's id. The job does
    /// not execute until [`SweepService::run`].
    ///
    /// # Errors
    ///
    /// Any [`ShardError`] from validation or digest pinning, or
    /// [`ShardError::Run`] when the plan cannot be journaled — an
    /// unjournalable job is refused rather than silently accepted
    /// volatile.
    pub fn submit(&self, mut plan: ShardPlan) -> Result<u64, ShardError> {
        plan.validate()?;
        self.runner.pin_digests(&mut plan)?;
        let mut jobs = self.jobs.lock().expect("jobs lock");
        let id = jobs.len() as u64;
        // Journal while holding the jobs lock: submit records must land
        // in id order for replay to reconstruct the table.
        if let Some(journal) = &self.journal {
            journal
                .lock()
                .expect("journal lock")
                .append(&JournalRecord::submit(id, &plan))
                .map_err(|e| ShardError::Run(format!("cannot journal submit: {e}")))?;
        }
        jobs.push(JobRecord {
            status: JobStatus {
                id,
                figure: plan.figure.clone(),
                state: JobState::Queued,
                cells: plan.jobs.len() as u64,
                cached: 0,
                simulated: 0,
                outstanding: plan.jobs.len() as u64,
                rounds: 0,
                error: None,
            },
            plan: Some(plan),
            result: None,
        });
        Ok(id)
    }

    /// Executes a queued job to completion on the calling thread and
    /// returns its final status. Calling it for a job that is not
    /// queued (unknown id, already running or finished) just returns
    /// the current status, so double-dispatch is harmless.
    pub fn run(&self, id: u64) -> Option<JobStatus> {
        let plan = {
            let mut jobs = self.jobs.lock().expect("jobs lock");
            let record = jobs.get_mut(usize::try_from(id).ok()?)?;
            if record.status.state != JobState::Queued {
                return Some(record.status.clone());
            }
            record.status.state = JobState::Running;
            record.plan.clone().expect("queued job keeps its plan")
        };
        let (status, result) = self.execute(id, &plan);
        let mut jobs = self.jobs.lock().expect("jobs lock");
        let record = &mut jobs[usize::try_from(id).expect("checked")];
        record.status = status.clone();
        record.result = result;
        self.done.notify_all();
        Some(status)
    }

    /// The two-phase executor: cache probe, then re-splitting dispatch
    /// rounds. Returns the final status and, on success, the full grid.
    fn execute(&self, id: u64, plan: &ShardPlan) -> (JobStatus, Option<MergedGrid>) {
        let n = plan.jobs.len();
        let mut outputs: Vec<Option<CellOutput>> = (0..n).map(|_| None).collect();
        let mut status = JobStatus {
            id,
            figure: plan.figure.clone(),
            state: JobState::Running,
            cells: n as u64,
            cached: 0,
            simulated: 0,
            outstanding: n as u64,
            rounds: 0,
            error: None,
        };

        // Phase 1: serve every cell the cache already holds.
        {
            let mut cache = self.cache.lock().expect("cache lock");
            for (i, job) in plan.jobs.iter().enumerate() {
                if let Some(output) = cache.lookup(job) {
                    outputs[i] = Some(output);
                    status.cached += 1;
                }
            }
        }
        status.outstanding = outputs.iter().filter(|o| o.is_none()).count() as u64;
        self.publish(id, &status);

        // Phase 2: dispatch rounds over the missing cells.
        let mut last_error: Option<String> = None;
        while status.outstanding > 0 && status.rounds <= self.cfg.retries {
            status.rounds += 1;
            let missing: Vec<u64> = outputs
                .iter()
                .enumerate()
                .filter(|(_, o)| o.is_none())
                .map(|(i, _)| i as u64)
                .collect();
            let shards = self.cfg.workers.max(1).min(missing.len() as u32);
            let (sub, mapping) = match plan.resplit(&missing, shards) {
                Ok(pair) => pair,
                Err(e) => {
                    last_error = Some(e.to_string());
                    break;
                }
            };
            let simulated = self.dispatch_round(&sub, shards, &mut last_error);
            let mut fresh: Vec<(u64, CellOutput)> = Vec::new();
            for (sub_cell, output) in simulated {
                let orig = mapping[usize::try_from(sub_cell).expect("sub-plan cell")];
                let idx = usize::try_from(orig).expect("plan cell");
                if outputs[idx].is_none() {
                    status.simulated += 1;
                    fresh.push((orig, output.clone()));
                    outputs[idx] = Some(output);
                }
            }
            // Persist what this round computed before the next round (a
            // crash mid-job then costs at most one round's work).
            if !fresh.is_empty() {
                let saved = {
                    let mut cache = self.cache.lock().expect("cache lock");
                    for (orig, output) in &fresh {
                        let job = &plan.jobs[usize::try_from(*orig).expect("plan cell")];
                        let _ = cache.insert(job, output);
                    }
                    match cache.save() {
                        Ok(()) => true,
                        Err(e) => {
                            last_error = Some(e.to_string());
                            false
                        }
                    }
                };
                // Journal the round only after its cells really hit the
                // cache index — a journaled cell must be servable on
                // resume. Append failure is tolerated: the journal only
                // loses progress accounting, never results.
                if saved {
                    if let Some(journal) = &self.journal {
                        let cells: Vec<u64> = fresh.iter().map(|(orig, _)| *orig).collect();
                        let _ = journal
                            .lock()
                            .expect("journal lock")
                            .append(&JournalRecord::cells(id, cells));
                    }
                }
            }
            status.outstanding = outputs.iter().filter(|o| o.is_none()).count() as u64;
            self.publish(id, &status);
        }

        if status.outstanding > 0 {
            status.state = JobState::Failed;
            status.error = Some(format!(
                "{} of {} cells outstanding after {} rounds{}",
                status.outstanding,
                status.cells,
                status.rounds,
                last_error
                    .map(|e| format!(" (last error: {e})"))
                    .unwrap_or_default()
            ));
            self.journal_terminal(id, true);
            return (status, None);
        }
        status.state = JobState::Done;
        self.journal_terminal(id, false);
        let grid = MergedGrid {
            version: SHARD_FORMAT_VERSION,
            figure: plan.figure.clone(),
            cells: outputs
                .into_iter()
                .enumerate()
                .map(|(i, o)| ShardCell {
                    cell: i as u64,
                    output: o.expect("outstanding == 0"),
                })
                .collect(),
        };
        (status, Some(grid))
    }

    /// Best-effort terminal journal record. Losing it is safe: resume
    /// re-runs the job, and the cache makes that a pure probe.
    fn journal_terminal(&self, id: u64, failed: bool) {
        if let Some(journal) = &self.journal {
            let _ = journal
                .lock()
                .expect("journal lock")
                .append(&JournalRecord::terminal(id, failed));
        }
    }

    /// Runs one round: every shard of `sub` on its own thread, collected
    /// until done or the round's deadline passes. Returns the arrived
    /// `(sub-plan cell, output)` pairs; abandoned shards simply do not
    /// contribute (their late sends land in a dropped channel).
    fn dispatch_round(
        &self,
        sub: &ShardPlan,
        shards: u32,
        last_error: &mut Option<String>,
    ) -> Vec<(u64, CellOutput)> {
        let (tx, rx) = mpsc::channel::<(u32, Result<ShardResult, ShardError>)>();
        let mut handles = Vec::new();
        for shard in 0..shards {
            let tx = tx.clone();
            let runner = Arc::clone(&self.runner);
            let sub = sub.clone();
            handles.push(std::thread::spawn(move || {
                let result = runner.run_shard(&sub, shard);
                let _ = tx.send((shard, result));
            }));
        }
        drop(tx);
        let deadline = Instant::now() + self.cfg.timeout;
        let mut arrived = Vec::new();
        let mut received = 0u32;
        while received < shards {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok((_, Ok(bundle))) => {
                    for cell in bundle.cells {
                        arrived.push((cell.cell, cell.output));
                    }
                    received += 1;
                }
                Ok((shard, Err(e))) => {
                    *last_error = Some(format!("shard {shard}: {e}"));
                    received += 1;
                }
                Err(_) => {
                    // Deadline passed (or all senders vanished): abandon
                    // the round; stragglers' cells get re-split.
                    *last_error = Some(format!(
                        "round timed out after {:?} with {} of {shards} shards outstanding",
                        self.cfg.timeout,
                        shards - received
                    ));
                    break;
                }
            }
        }
        if received == shards {
            // Nothing was abandoned: joining is cheap and keeps thread
            // accounting tidy.
            for h in handles {
                let _ = h.join();
            }
        }
        arrived
    }

    /// Publishes a mid-run status snapshot so concurrent `status`
    /// queries see live progress.
    fn publish(&self, id: u64, status: &JobStatus) {
        let mut jobs = self.jobs.lock().expect("jobs lock");
        if let Some(record) = jobs.get_mut(usize::try_from(id).ok().unwrap_or(usize::MAX)) {
            record.status = status.clone();
        }
    }

    /// One job's current status.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let jobs = self.jobs.lock().expect("jobs lock");
        jobs.get(usize::try_from(id).ok()?)
            .map(|r| r.status.clone())
    }

    /// Every job's current status, in submission order.
    pub fn statuses(&self) -> Vec<JobStatus> {
        let jobs = self.jobs.lock().expect("jobs lock");
        jobs.iter().map(|r| r.status.clone()).collect()
    }

    /// Blocks until a job reaches a terminal state ([`JobState::Done`]
    /// or [`JobState::Failed`]) and returns its status plus, when done,
    /// the merged grid. `None` for an unknown id.
    pub fn wait(&self, id: u64) -> Option<(JobStatus, Option<MergedGrid>)> {
        let idx = usize::try_from(id).ok()?;
        let mut jobs = self.jobs.lock().expect("jobs lock");
        loop {
            let record = jobs.get(idx)?;
            match record.status.state {
                JobState::Done | JobState::Failed => {
                    return Some((record.status.clone(), record.result.clone()));
                }
                _ => jobs = self.done.wait(jobs).expect("jobs lock"),
            }
        }
    }

    /// A finished job's merged grid (None while running or failed).
    pub fn result(&self, id: u64) -> Option<MergedGrid> {
        let jobs = self.jobs.lock().expect("jobs lock");
        jobs.get(usize::try_from(id).ok()?)?.result.clone()
    }

    /// The cache's counters and entry count.
    pub fn cache_stats(&self) -> (CacheStats, usize) {
        let cache = self.cache.lock().expect("cache lock");
        (cache.stats(), cache.len())
    }

    /// Drops cached results whose trace digest the runner's corpus no
    /// longer contains — the cache side of the shared retention story —
    /// then, if either budget is set, LRU-evicts the survivors down to
    /// it (`max_bytes` of entry files / `max_age_days` of idleness; see
    /// [`ResultCache::gc_budget`]). The returned report sums both
    /// passes.
    ///
    /// # Errors
    ///
    /// [`CacheError::Format`] when the runner has no corpus to retain
    /// against; [`CacheError::Io`] from the sweep itself.
    pub fn cache_gc(
        &self,
        max_bytes: Option<u64>,
        max_age_days: Option<u64>,
    ) -> Result<GcReport, CacheError> {
        let digests = self.runner.corpus_digests().ok_or_else(|| {
            CacheError::Format("runner has no corpus to retain against".to_string())
        })?;
        let mut cache = self.cache.lock().expect("cache lock");
        let mut report = cache.gc(|entry| digests.contains(&entry.trace_digest))?;
        if max_bytes.is_some() || max_age_days.is_some() {
            let budget =
                cache.gc_budget(max_bytes, max_age_days.map(|d| d.saturating_mul(86_400)))?;
            report.kept = budget.kept;
            report.dropped += budget.dropped;
            report.bytes_freed += budget.bytes_freed;
        }
        // Reclaim crash leftovers too: orphaned atomic-write temps (and
        // any stray partial downloads, which never belong in a cache
        // dir). Holding the cache lock keeps this race-free against
        // concurrent saves.
        report.add_stale(tse_trace::fsio::sweep_stale(cache.dir(), true)?);
        Ok(report)
    }

    /// Persists the cache index if dirty.
    ///
    /// # Errors
    ///
    /// Propagates [`ResultCache::save`] failures.
    pub fn save_cache(&self) -> Result<(), CacheError> {
        self.cache.lock().expect("cache lock").save()
    }

    /// Flags the accept loop to stop.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}
