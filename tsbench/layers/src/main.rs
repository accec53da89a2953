//! `tsbench-layers` — the benchmark's Rust helper.
//!
//! ```text
//! tsbench-layers probe                       # host-speed probe server (stdin/stdout)
//! tsbench-layers trace <trace.tsb1>...       # trace + memsim layer timings
//! tsbench-layers verify <corpus-dir>         # corpus digest check per trace
//! tsbench-layers sweepd <endpoint> <plan>    # daemon round trips on a warm plan
//! ```
//!
//! Every subcommand except `probe` prints one JSON object: its metrics
//! and the spans it recorded around each layer call. Layer calls go
//! through the public functions of `tse-trace`, `tse-memsim` and
//! `tse-sweepd` only; the simulator's replay entry points are never
//! called, so the benchmark survives their consolidation.

use std::process::ExitCode;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde_json::{json, Value};
use tse_memsim::DsmSystem;
use tse_sweepd::net::{self, Endpoint};
use tse_sweepd::proto::{Request, Response};
use tse_trace::corpus::Corpus;
use tse_trace::store::{LoweredBlock, MappedTrace, RecordBatch};
use tse_trace::AccessKind;
use tse_types::SystemConfig;

mod probe;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("probe") => probe::serve(),
        Some("trace") if args.len() > 1 => trace_layers(&args[1..]),
        Some("verify") if args.len() == 2 => verify_layer(&args[1]),
        Some("sweepd") if args.len() == 3 => sweepd_layer(&args[1], &args[2]),
        _ => Err(
            "usage: tsbench-layers probe | trace <tsb1>... | verify <dir> | \
                  sweepd <endpoint> <plan.json>"
                .to_string(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tsbench-layers: {e}");
            ExitCode::FAILURE
        }
    }
}

/// In-memory span store: each span is a name, wall-clock start and end
/// (ns since the Unix epoch, so `run.py` can nest them under its own
/// spans) and the index of its parent. Written out once, at the end.
struct Spans {
    base_wall: u128,
    base: Instant,
    spans: Vec<(String, u128, u128, Option<usize>)>,
}

impl Spans {
    fn new() -> Self {
        let base_wall = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("clock after 1970")
            .as_nanos();
        Spans {
            base_wall,
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u128 {
        self.base_wall + self.base.elapsed().as_nanos()
    }

    /// Opens a span and returns its index; close it with [`Spans::end`].
    fn begin(&mut self, name: &str, parent: Option<usize>) -> usize {
        let t = self.now();
        self.spans.push((name.to_string(), t, t, parent));
        self.spans.len() - 1
    }

    /// Closes span `i` and returns its duration in nanoseconds.
    fn end(&mut self, i: usize) -> u128 {
        let t = self.now();
        self.spans[i].2 = t;
        t - self.spans[i].1
    }

    fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|(name, start, end, parent)| {
                    json!({
                        "name": name,
                        "start_ns": *start as f64,
                        "end_ns": *end as f64,
                        "parent": parent.map(|p| p as f64),
                    })
                })
                .collect(),
        )
    }
}

fn ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

/// Open, block decode and lowering through `tse_trace::store`, then
/// every decoded access through `DsmSystem::read`/`write` with no
/// engine attached.
fn trace_layers(paths: &[String]) -> Result<(), String> {
    let mut spans = Spans::new();
    let mut per_trace = Vec::new();
    for path in paths {
        let root = spans.begin("trace.file", None);

        let s = spans.begin("trace.open", Some(root));
        let trace = MappedTrace::open(path).map_err(|e| format!("{path}: {e}"))?;
        let open_ns = spans.end(s);

        let mut batch = RecordBatch::new();
        let mut lowered = LoweredBlock::new();
        let mut records = Vec::with_capacity(trace.records() as usize);
        let (mut decode_ns, mut lower_ns) = (0u128, 0u128);
        let s_dec = spans.begin("trace.decode", Some(root));
        let s_low = spans.begin("trace.lower", Some(root));
        for i in 0..trace.blocks() as usize {
            let t = Instant::now();
            trace
                .block(i)
                .and_then(|b| b.decode_into(&mut batch))
                .map_err(|e| format!("{path}: block {i}: {e}"))?;
            let t1 = Instant::now();
            lowered.lower_batch(&batch);
            std::hint::black_box(lowered.max_node());
            lower_ns += t1.elapsed().as_nanos();
            decode_ns += (t1 - t).as_nanos();
            records.extend(batch.iter());
        }
        // Decode and lowering interleave per block; their spans carry
        // the summed busy time laid end to end inside the loop's window.
        let start = spans.spans[s_dec].1;
        spans.spans[s_dec].2 = start + decode_ns;
        spans.spans[s_low].1 = start + decode_ns;
        spans.spans[s_low].2 = start + decode_ns + lower_ns;

        let nodes = trace.declared_nodes().map_or(0, usize::from);
        let cfg = SystemConfig::default();
        if nodes > cfg.nodes {
            return Err(format!(
                "{path}: {nodes} nodes, the default machine has {}",
                cfg.nodes
            ));
        }
        let s = spans.begin("memsim.new", Some(root));
        let mut sys = DsmSystem::new(&cfg).map_err(|e| e.to_string())?;
        spans.end(s);
        let s = spans.begin("memsim.access", Some(root));
        for r in &records {
            match r.kind {
                AccessKind::Read => {
                    std::hint::black_box(sys.read(r.node, r.line));
                }
                AccessKind::Write => {
                    std::hint::black_box(sys.write(r.node, r.line));
                }
            }
        }
        let memsim_ns = spans.end(s);
        spans.end(root);

        let st = *sys.stats();
        let n = records.len().max(1) as f64;
        per_trace.push(json!({
            "records": records.len() as f64,
            "open_ms": ms(open_ns),
            "decode_ns_per_rec": decode_ns as f64 / n,
            "lower_ns_per_rec": lower_ns as f64 / n,
            "bytes_per_rec": trace.bytes().len() as f64 / n,
            "memsim_ns_per_access": memsim_ns as f64 / n,
            "read_miss_frac": st.read_misses() as f64 / st.reads.max(1) as f64,
            "coherence_misses": st.coherence_misses as f64,
            "invalidations": st.invalidations as f64,
        }));
    }
    println!(
        "{}",
        json!({"traces": Value::Array(per_trace), "spans": spans.to_json()})
    );
    Ok(())
}

/// Recomputes every manifest entry's content digest
/// (`Corpus::verify_entry_quick`), timing each entry.
fn verify_layer(dir: &str) -> Result<(), String> {
    let mut spans = Spans::new();
    let corpus = Corpus::open(dir).map_err(|e| format!("{dir}: {e}"))?;
    let mut times = Vec::new();
    for entry in corpus.entries() {
        let s = spans.begin("trace.verify", None);
        corpus
            .verify_entry_quick(entry)
            .map_err(|e| format!("{}: {e}", entry.path))?;
        times.push(ms(spans.end(s)));
    }
    println!("{}", json!({"verify_ms": times, "spans": spans.to_json()}));
    Ok(())
}

fn exchange(ep: &Endpoint, req: &Request) -> Result<Response, String> {
    let resp = net::request(ep, req).map_err(|e| format!("{ep}: {e}"))?;
    if resp.ok {
        Ok(resp)
    } else {
        Err(resp
            .error
            .unwrap_or_else(|| "daemon reported failure".into()))
    }
}

/// Daemon round trips over `tse_sweepd::net`: pings, a queued submit of
/// the warm plan, the same plan submitted and waited for, and the
/// cache counters.
fn sweepd_layer(endpoint: &str, plan_path: &str) -> Result<(), String> {
    const REPS: usize = 5;
    let mut spans = Spans::new();
    let ep = Endpoint::parse(endpoint);
    let plan = std::fs::read_to_string(plan_path).map_err(|e| format!("{plan_path}: {e}"))?;
    let submit = |wait: bool| -> Result<Request, String> {
        serde_json::from_str(&format!(
            r#"{{"v":{},"cmd":"submit","wait":{wait},"plan":{plan}}}"#,
            tse_sweepd::proto::PROTO_VERSION
        ))
        .map_err(|e| format!("{plan_path}: {e}"))
    };
    let (queued, waited) = (submit(false)?, submit(true)?);

    let (mut ping, mut sub, mut warm) = (Vec::new(), Vec::new(), Vec::new());
    let mut reply_bytes = 0usize;
    for _ in 0..REPS {
        let s = spans.begin("sweepd.ping", None);
        exchange(&ep, &Request::new("ping"))?;
        ping.push(ms(spans.end(s)));

        let s = spans.begin("sweepd.submit", None);
        let job = exchange(&ep, &queued)?
            .job
            .ok_or("submit returned no job id")?;
        sub.push(ms(spans.end(s)));
        let mut wait_job = Request::new("result");
        wait_job.job = Some(job);
        exchange(&ep, &wait_job)?;

        let s = spans.begin("sweepd.warm_job", None);
        let resp = exchange(&ep, &waited)?;
        warm.push(ms(spans.end(s)));
        reply_bytes = serde_json::to_string_pretty(&resp)
            .map_err(|e| e.to_string())?
            .len();
    }
    let stats = exchange(&ep, &Request::new("cache-stats"))?
        .cache
        .ok_or("cache-stats returned no counters")?;
    println!(
        "{}",
        json!({
            "ping_ms": ping,
            "submit_ms": sub,
            "warm_job_ms": warm,
            "reply_bytes": reply_bytes as f64,
            "cache_hits": stats.hits as f64,
            "cache_misses": stats.misses as f64,
            "spans": spans.to_json(),
        })
    );
    Ok(())
}
