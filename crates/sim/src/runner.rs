//! Persistent parallel sweep executor.
//!
//! Figure sweeps run many independent (workload, configuration) pairs;
//! each builds its own simulator, so they parallelize trivially across
//! threads. Earlier revisions spawned a fresh scoped thread pool inside
//! every `run_parallel` call — one pool per grid, many pools per figure.
//! All sweeps now share one persistent [`SweepPool`]: workers are
//! spawned once, jobs are fed over a channel, and batches from any
//! number of concurrent (even nested) sweeps interleave freely.
//!
//! The submitting thread *participates* in its own batch — it drains the
//! batch's job queue alongside the workers. That keeps nested
//! submissions deadlock-free (a batch never waits on pool capacity; at
//! worst the submitter runs every job itself) and makes `threads = 1`
//! exactly serial.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, OnceLock};

/// A unit of pool work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of worker threads executing submitted jobs.
///
/// Workers live as long as the pool (the process, for
/// [`SweepPool::global`]); dropping a pool disconnects its job channel
/// and the workers exit after finishing what they hold. A panicking job
/// never kills a worker: panics are caught and, for
/// [`SweepPool::run`] batches, re-thrown on the submitting thread.
///
/// # Example
///
/// ```
/// let squares = tse_sim::SweepPool::global().run((1u64..=3).collect(), 0, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
pub struct SweepPool {
    tx: crossbeam::channel::Sender<Job>,
    threads: usize,
}

impl std::fmt::Debug for SweepPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl SweepPool {
    /// Spawns a pool of `threads` workers (`0` = one per available
    /// CPU).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        for i in 0..threads {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("sweep-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // A panic is the job's problem, not the pool's:
                        // batch jobs report it to their submitter.
                        let _ = catch_unwind(AssertUnwindSafe(job));
                    }
                })
                .expect("spawn sweep worker");
        }
        SweepPool { tx, threads }
    }

    /// The process-wide pool (one worker per available CPU), created on
    /// first use and shared by every sweep and mapped replay.
    pub fn global() -> &'static SweepPool {
        static POOL: OnceLock<SweepPool> = OnceLock::new();
        POOL.get_or_init(|| SweepPool::new(0))
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submits one fire-and-forget job (used by the mapped-replay
    /// decode pipeline; batch sweeps use [`SweepPool::run`]).
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .send(Box::new(job))
            .expect("sweep pool workers alive");
    }

    /// Runs `jobs` through `f`, returning results in job order.
    ///
    /// At most `limit` executors work the batch (`0` = all pool
    /// workers), one of which is the calling thread itself — the call
    /// makes progress even when every pool worker is busy with other
    /// batches, so nesting `run` inside a job cannot deadlock.
    ///
    /// Jobs travel the batch queue in *chunks* — one channel send (and
    /// one result send) per chunk of cells, not per cell — so tiny-grid
    /// sweeps aren't dominated by submit overhead. Two chunks per
    /// executor keeps the tail balanced under variable job cost.
    ///
    /// # Panics
    ///
    /// If a job panics, the batch still drains (every job runs exactly
    /// once) and the first panic is then re-thrown here.
    pub fn run<J, R, F>(&self, jobs: Vec<J>, limit: usize, f: F) -> Vec<R>
    where
        J: Send + 'static,
        R: Send + 'static,
        F: Fn(J) -> R + Send + Sync + 'static,
    {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let limit = if limit == 0 { self.threads } else { limit };
        let f = Arc::new(f);

        // The batch's private chunk queue: pool workers and the caller
        // drain it concurrently; chunk results funnel back over a
        // channel, tagged with the chunk's first job index.
        let chunk = n.div_ceil(limit.max(1) * 2).max(1);
        let chunks = n.div_ceil(chunk);
        let (jtx, jrx) = crossbeam::channel::unbounded::<(usize, Vec<J>)>();
        {
            let mut jobs = jobs.into_iter();
            let mut start = 0usize;
            while start < n {
                let batch: Vec<J> = jobs.by_ref().take(chunk).collect();
                let len = batch.len();
                jtx.send((start, batch)).expect("batch queue open");
                start += len;
            }
        }
        drop(jtx);
        let (rtx, rrx) = mpsc::channel::<(usize, Vec<std::thread::Result<R>>)>();
        for _ in 0..chunks.min(limit).saturating_sub(1) {
            let jrx = jrx.clone();
            let f = Arc::clone(&f);
            let rtx = rtx.clone();
            self.execute(move || {
                while let Some((start, batch)) = jrx.try_recv() {
                    // Each job is caught individually: one panic must
                    // not cancel the rest of its chunk.
                    let rs: Vec<_> = batch
                        .into_iter()
                        .map(|job| catch_unwind(AssertUnwindSafe(|| f(job))))
                        .collect();
                    if rtx.send((start, rs)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(rtx);

        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        {
            let mut completed = 0usize;
            let mut book = |start: usize, rs: Vec<std::thread::Result<R>>| {
                let len = rs.len();
                for (i, r) in rs.into_iter().enumerate() {
                    match r {
                        Ok(v) => out[start + i] = Some(v),
                        Err(p) => {
                            panic.get_or_insert(p);
                        }
                    }
                }
                len
            };
            // Participate: the caller works the queue like any other
            // worker.
            while let Some((start, batch)) = jrx.try_recv() {
                let rs: Vec<_> = batch
                    .into_iter()
                    .map(|job| catch_unwind(AssertUnwindSafe(|| f(job))))
                    .collect();
                completed += book(start, rs);
            }
            // Then wait out the chunks other workers picked up.
            while completed < n {
                let (start, rs) = rrx.recv().expect("every dispatched chunk reports");
                completed += book(start, rs);
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out.into_iter()
            .map(|r| r.expect("every job completed"))
            .collect()
    }
}

/// Runs `jobs` through `f` on up to `threads` executors of the global
/// [`SweepPool`], returning results in job order.
///
/// `threads = 0` means every pool worker (one per available CPU);
/// `threads = 1` runs the jobs serially on the calling thread.
///
/// # Example
///
/// ```
/// let squares = tse_sim::run_parallel(vec![1u64, 2, 3], 2, |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
pub fn run_parallel<J, R, F>(jobs: Vec<J>, threads: usize, f: F) -> Vec<R>
where
    J: Send + 'static,
    R: Send + 'static,
    F: Fn(J) -> R + Send + Sync + 'static,
{
    if threads == 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    SweepPool::global().run(jobs, threads, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_jobs_yield_empty_results() {
        let r: Vec<u32> = run_parallel(Vec::<u32>::new(), 4, |x| x);
        assert!(r.is_empty());
    }

    #[test]
    fn order_is_preserved() {
        let jobs: Vec<usize> = (0..100).collect();
        let r = run_parallel(jobs, 8, |x| x * 2);
        assert_eq!(r, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn order_is_stable_under_variable_job_cost() {
        // Job durations vary wildly; completion order scrambles but
        // results must come back in submission order.
        let jobs: Vec<u64> = (0..40).collect();
        let r = run_parallel(jobs, 0, |x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 3
        });
        assert_eq!(r, (0..40).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn all_jobs_execute_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let r = run_parallel((0..50).collect(), 4, move |x: usize| {
            c.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(r.len(), 50);
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn single_thread_fallback_works() {
        let r = run_parallel(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(r, vec![2, 3, 4]);
    }

    #[test]
    fn zero_means_auto() {
        let r = run_parallel(vec![5u8; 10], 0, |x| x as u32);
        assert_eq!(r.len(), 10);
    }

    #[test]
    fn panicking_job_propagates_after_batch_drains() {
        let executed = Arc::new(AtomicUsize::new(0));
        let e = Arc::clone(&executed);
        let result = catch_unwind(AssertUnwindSafe(move || {
            run_parallel((0..20).collect::<Vec<usize>>(), 4, move |x| {
                e.fetch_add(1, Ordering::SeqCst);
                assert!(x != 7, "job 7 fails");
                x
            })
        }));
        assert!(result.is_err(), "the job panic must reach the caller");
        assert_eq!(
            executed.load(Ordering::SeqCst),
            20,
            "a panic must not cancel the rest of the batch"
        );
        // The pool survives and keeps serving batches.
        let r = run_parallel(vec![1u8, 2], 4, |x| x);
        assert_eq!(r, vec![1, 2]);
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        // Saturate the pool with jobs that each submit an inner batch:
        // caller participation guarantees progress even with every
        // worker occupied.
        let outer = run_parallel((0..8u64).collect(), 0, |x| {
            run_parallel((0..8u64).collect(), 0, move |y| x * 10 + y)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(outer.len(), 8);
        assert_eq!(outer[2], (20..28).sum::<u64>());
    }

    #[test]
    fn chunked_submission_covers_uneven_batches_exactly_once() {
        // 67 jobs across a handful of executors: the last chunk is
        // short, and every index must land in its submission slot.
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let r = run_parallel((0..67usize).collect(), 3, move |x| {
            c.fetch_add(1, Ordering::SeqCst);
            x * 5
        });
        assert_eq!(r, (0..67).map(|x| x * 5).collect::<Vec<_>>());
        assert_eq!(counter.load(Ordering::SeqCst), 67);
    }

    #[test]
    fn panicking_job_inside_nested_batch_stays_contained() {
        // A panic in an *inner* batch must reach that batch's submitter
        // (an outer job), drain the inner batch fully, and — once the
        // outer job catches it — leave the outer batch and the pool
        // intact. Nest-safety and panic propagation together.
        let inner_runs = Arc::new(AtomicUsize::new(0));
        let ir = Arc::clone(&inner_runs);
        let outer = run_parallel((0..6u64).collect(), 0, move |x| {
            let ir = Arc::clone(&ir);
            let inner = catch_unwind(AssertUnwindSafe(move || {
                run_parallel((0..10u64).collect(), 0, move |y| {
                    ir.fetch_add(1, Ordering::SeqCst);
                    assert!(!(x == 3 && y == 7), "inner job fails under outer 3");
                    y
                })
            }));
            // Only the outer job that owned the failing inner batch
            // observes the panic.
            assert_eq!(inner.is_err(), x == 3, "panic escaped its batch");
            x
        });
        assert_eq!(outer, (0..6).collect::<Vec<_>>());
        assert_eq!(
            inner_runs.load(Ordering::SeqCst),
            60,
            "a panic must not cancel the rest of its inner batch"
        );
        // The pool keeps serving.
        let r = run_parallel(vec![9u8, 8], 4, |x| x);
        assert_eq!(r, vec![9, 8]);
    }

    #[test]
    fn private_pools_run_batches_and_shut_down() {
        let pool = SweepPool::new(2);
        assert_eq!(pool.threads(), 2);
        let r = pool.run((0..10u32).collect(), 0, |x| x + 1);
        assert_eq!(r, (1..=10).collect::<Vec<_>>());
        drop(pool); // workers exit on channel disconnect
    }

    #[test]
    fn execute_runs_detached_jobs() {
        let (tx, rx) = mpsc::channel();
        SweepPool::global().execute(move || {
            tx.send(41 + 1).unwrap();
        });
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(42));
    }
}
