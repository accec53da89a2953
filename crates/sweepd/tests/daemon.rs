//! End-to-end daemon contract, over a real corpus, real simulation and
//! a real Unix socket: a cold submit simulates and caches, a warm
//! submit of the same plan simulates **zero** cells, and both merged
//! grids serialize byte-identically to the in-process
//! `execute_shard` + `merge` reference.

#![cfg(unix)]

mod common;

use common::ScratchDir;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use tse_sim::shard::{self, ShardJob, ShardMode, ShardPlan, TraceRef};
use tse_sim::{EngineKind, RunConfig};
use tse_sweepd::net::{self, Endpoint};
use tse_sweepd::proto::{Request, Response, PROTO_VERSION};
use tse_sweepd::service::{CorpusRunner, JobState, ServiceConfig, SweepService};
use tse_sweepd::ResultCache;
use tse_trace::corpus::{Corpus, CorpusWriter};
use tse_trace::interleave;
use tse_workloads::workload_by_name;

const SCALE: f64 = 0.02;
const SEED: u64 = 7;

/// One tiny em3d trace is enough to exercise the full wire.
fn build_corpus(dir: &Path) -> Corpus {
    let wl = workload_by_name("em3d", SCALE).unwrap();
    let per_node = wl.generate(SEED);
    let mut w = CorpusWriter::create(dir).unwrap();
    w.add_trace(
        wl.name(),
        SCALE,
        SEED,
        u16::try_from(wl.nodes()).unwrap(),
        interleave(per_node.into_iter().map(Vec::into_iter).collect()),
    )
    .unwrap();
    w.finish().unwrap();
    Corpus::open(dir).unwrap()
}

/// A two-cell plan (baseline vs stride) over the test trace, digests
/// deliberately unpinned — the daemon pins them against its corpus.
fn test_plan() -> ShardPlan {
    let jobs: Vec<ShardJob> = [EngineKind::Baseline, EngineKind::paper_stride()]
        .into_iter()
        .enumerate()
        .map(|(cell, engine)| ShardJob {
            figure: "figT".into(),
            cell: cell as u64,
            mode: ShardMode::Trace,
            trace: TraceRef {
                workload: "em3d".into(),
                scale: SCALE,
                seed: SEED,
                digest: None,
            },
            config: RunConfig {
                engine,
                ..RunConfig::default()
            },
        })
        .collect();
    ShardPlan::split(jobs, 1).unwrap()
}

struct Daemon {
    endpoint: Endpoint,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Serves a corpus + cache on a Unix socket inside `scratch`,
    /// waiting until the socket answers ping.
    fn start(scratch: &ScratchDir, corpus: Corpus) -> Daemon {
        let cache = ResultCache::open(scratch.0.join("cache")).unwrap();
        let service = Arc::new(SweepService::new(
            Arc::new(CorpusRunner::new(corpus)),
            cache,
            ServiceConfig {
                workers: 2,
                retries: 2,
                timeout: Duration::from_secs(60),
            },
        ));
        let endpoint = Endpoint::parse(&scratch.0.join("sweepd.sock").display().to_string());
        let ep = endpoint.clone();
        let thread = std::thread::spawn(move || net::serve(&service, &ep));
        for _ in 0..200 {
            if net::request(&endpoint, &Request::new("ping")).is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        Daemon {
            endpoint,
            thread: Some(thread),
        }
    }

    fn send(&self, request: &Request) -> Response {
        net::request(&self.endpoint, request).unwrap()
    }

    fn submit_wait(&self, plan: ShardPlan) -> Response {
        let mut request = Request::new("submit");
        request.plan = Some(plan);
        request.wait = true;
        self.send(&request)
    }

    fn stop(mut self) {
        self.send(&Request::new("shutdown"));
        self.thread
            .take()
            .unwrap()
            .join()
            .unwrap()
            .expect("serve exits cleanly");
    }
}

#[test]
fn warm_submit_simulates_zero_cells_and_is_byte_identical() {
    let scratch = ScratchDir::new("daemon");
    let corpus = build_corpus(&scratch.0.join("traces"));

    // The in-process reference: pin, execute the single shard, merge.
    let mut reference_plan = test_plan();
    reference_plan.pin_digests(&corpus).unwrap();
    let bundle = shard::execute_shard(&reference_plan, 0, &corpus).unwrap();
    let reference = shard::merge(&reference_plan, &[bundle]).unwrap();
    let reference_json = serde_json::to_string_pretty(&reference).unwrap();

    let daemon = Daemon::start(&scratch, corpus);
    assert!(daemon.send(&Request::new("ping")).ok);

    // Cold: everything simulates, nothing is cached yet.
    let cold = daemon.submit_wait(test_plan());
    assert!(cold.ok, "{:?}", cold.error);
    let cold_status = cold.status.clone().unwrap();
    assert_eq!(cold_status.state, JobState::Done);
    assert_eq!((cold_status.cached, cold_status.simulated), (0, 2));
    let cold_json = serde_json::to_string_pretty(&cold.merged.unwrap()).unwrap();
    assert_eq!(
        cold_json, reference_json,
        "daemon-merged grid must serialize byte-identically to the reference"
    );

    // Warm: the same plan is served wholly from the cache.
    let warm = daemon.submit_wait(test_plan());
    let warm_status = warm.status.clone().unwrap();
    assert_eq!(
        (warm_status.cached, warm_status.simulated),
        (2, 0),
        "a warm submit must simulate zero cells"
    );
    let warm_json = serde_json::to_string_pretty(&warm.merged.unwrap()).unwrap();
    assert_eq!(
        warm_json, reference_json,
        "cache-served output is identical"
    );

    // Counters over the socket agree.
    let stats = daemon.send(&Request::new("cache-stats"));
    let cache = stats.cache.unwrap();
    assert_eq!(stats.cache_entries, Some(2));
    assert_eq!(cache.hits, 2);
    assert_eq!(cache.inserts, 2);

    // Everything cached is backed by a live corpus trace: gc drops none.
    let gc = daemon.send(&Request::new("cache-gc"));
    let report = gc.gc.unwrap();
    assert_eq!((report.kept, report.dropped), (2, 0));

    // Job bookkeeping: both jobs listed, result re-fetchable by id.
    let status = daemon.send(&Request::new("status"));
    assert_eq!(status.jobs.as_ref().map(Vec::len), Some(2));
    let mut by_id = Request::new("result");
    by_id.job = Some(0);
    let refetched = daemon.send(&by_id);
    assert_eq!(
        serde_json::to_string_pretty(&refetched.merged.unwrap()).unwrap(),
        reference_json
    );

    daemon.stop();

    // The daemon is gone (socket file removed) but the cache persists:
    // a fresh daemon over the same directories starts warm.
    let corpus = Corpus::open(scratch.0.join("traces")).unwrap();
    let daemon = Daemon::start(&scratch, corpus);
    let restarted = daemon.submit_wait(test_plan());
    let status = restarted.status.clone().unwrap();
    assert_eq!((status.cached, status.simulated), (2, 0));
    assert_eq!(
        serde_json::to_string_pretty(&restarted.merged.unwrap()).unwrap(),
        reference_json
    );
    daemon.stop();
}

#[test]
fn protocol_rejects_what_it_cannot_serve() {
    let scratch = ScratchDir::new("proto");
    let corpus = build_corpus(&scratch.0.join("traces"));
    let daemon = Daemon::start(&scratch, corpus);

    let bad_cmd = daemon.send(&Request::new("frobnicate"));
    assert!(!bad_cmd.ok);
    assert!(bad_cmd.error.unwrap().contains("unknown command"));

    let mut future = Request::new("ping");
    future.v = PROTO_VERSION + 1;
    let bad_version = daemon.send(&future);
    assert!(!bad_version.ok);
    assert!(bad_version.error.unwrap().contains("protocol version"));

    let no_plan = daemon.send(&Request::new("submit"));
    assert!(!no_plan.ok);

    let mut unknown_job = Request::new("status");
    unknown_job.job = Some(99);
    let missing = daemon.send(&unknown_job);
    assert!(!missing.ok);
    assert!(missing.error.unwrap().contains("unknown job 99"));

    // A plan referencing a trace the corpus lacks is refused at submit.
    let mut foreign = test_plan();
    for job in &mut foreign.jobs {
        job.trace.workload = "ocean".into();
    }
    let mut request = Request::new("submit");
    request.plan = Some(foreign);
    request.wait = true;
    let refused = daemon.send(&request);
    assert!(!refused.ok);
    assert!(refused.error.unwrap().contains("no entry"), "corpus miss");

    daemon.stop();
}

/// `serve` blocks in `accept`, so a `shutdown` request must wake it: it
/// has to return within a bound. A lost wake-up fails here instead of
/// hanging the test run.
#[test]
fn serve_returns_promptly_after_shutdown() {
    let scratch = ScratchDir::new("wake");
    let corpus = build_corpus(&scratch.0.join("traces"));
    let service = Arc::new(SweepService::new(
        Arc::new(CorpusRunner::new(corpus)),
        ResultCache::open(scratch.0.join("cache")).unwrap(),
        ServiceConfig {
            workers: 1,
            retries: 0,
            timeout: Duration::from_secs(60),
        },
    ));
    let socket = scratch.0.join("wake.sock");
    let endpoint = Endpoint::parse(&socket.display().to_string());
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let ep = endpoint.clone();
    let server = std::thread::spawn(move || {
        let _ = done_tx.send(net::serve(&service, &ep));
    });
    for _ in 0..200 {
        if net::request(&endpoint, &Request::new("ping")).is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(net::request(&endpoint, &Request::new("ping")).unwrap().ok);
    assert!(
        net::request(&endpoint, &Request::new("shutdown"))
            .unwrap()
            .ok
    );
    let served = done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("serve must return within 5 s of a shutdown request");
    served.expect("serve exits cleanly");
    server.join().unwrap();
    assert!(!socket.exists(), "the socket file is removed on exit");
}
