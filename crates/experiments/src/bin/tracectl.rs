//! `tracectl` — generate, inspect, convert and replay stored traces.
//!
//! The workspace's trace tooling in one binary, wrapping the TSB1
//! binary store (`tse_trace::store`) and the JSONL interchange format:
//!
//! ```text
//! tracectl gen --workload DB2 --scale 0.05 --out db2.tsb1
//! tracectl inspect db2.tsb1
//! tracectl convert db2.tsb1 db2.jsonl     # and back
//! tracectl replay db2.tsb1 --lookahead 8
//! ```
//!
//! Input formats are sniffed from the file's magic bytes; output
//! formats follow the extension (`.tsb1`/`.tsb` = binary, anything
//! else = JSONL).
//!
//! Exit codes are scriptable (see `tse_experiments::cli`): `2` usage
//! errors (including any flag a subcommand does not read), `3`
//! I/O/format/replay failures, `4` corpus verification failures — CI
//! asserts a corrupted corpus fails with `4`.

use std::collections::HashSet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use tse_experiments::cli::{self, check_flags, opt, parse, positional, CliError};
use tse_experiments::grid;
use tse_experiments::ExperimentCtx;
use tse_sim::{
    mapped_node_count, run_parallel, run_trace_mapped, run_trace_stored, EngineKind, RunConfig,
    StoredTrace,
};
use tse_sweepd::sync::{self, SyncError};
use tse_trace::corpus::{digest_file, sweep_retained, Corpus, CorpusWriter, TraceEntry};
use tse_trace::store::{is_tsb1, MappedTrace, TraceReader, TraceWriter};
use tse_trace::{interleave, read_jsonl, write_jsonl, AccessRecord};
use tse_types::{SystemConfig, TseConfig};
use tse_workloads::{suite_specs, workload_by_name, SuiteSpec, SUITE_ORDER};

const USAGE: &str = "tracectl — generate, inspect, convert, replay and manage memory traces

USAGE:
  tracectl gen --workload <name> --out <path> [--scale <f>] [--seed <n>]
      generate a workload trace (em3d, moldyn, ocean, Apache, DB2,
      Oracle, Zeus) in global interleaved order
  tracectl inspect <path>
      print header/trailer metadata of a trace
  tracectl convert <in> <out> [--nodes <n>]
      re-encode a trace; formats: .tsb1/.tsb = TSB1 binary, else JSONL
      (input format is sniffed, not extension-derived; --nodes declares
      a node count when the input carries none, e.g. JSONL)
  tracectl replay <path> [--engine tse|base] [--lookahead <n>] [--nodes <n>]
      replay a stored trace through the trace-driven harness (TSB1
      traces replay off a memory mapping; --nodes, or a JSONL input,
      loads the records into memory instead)
  tracectl corpus gen --dir <d> [--scales <f,..>] [--seeds <n,..>] [--workloads <w,..>]
      generate a managed suite of traces (every scale x seed x workload)
      into <d> with a digest-carrying manifest the figure sweeps can
      target via TSE_CORPUS (defaults: scale 0.1, seed 42, full suite).
      Incremental: entries whose stored trace still digest-verifies are
      skipped; the rest generate in parallel on the sweep pool
  tracectl corpus list <dir>
      print the corpus manifest
  tracectl corpus verify <dir> [--quick]
      recompute every trace's digest and structural metadata against
      the manifest; exits 4 on any mismatch. --quick checks content
      digests only (skips the TSB1 structure walk) — the cheap
      re-check after a sync, whose transfers were verified on receipt
  tracectl corpus sync <endpoint> --dir <d> [--push]
      diff the local corpus at <d> against a daemon started with
      `sweepd serve --corpus-serve` and transfer only the entries
      whose digest is missing: pull by default, --push to upload.
      Transfers resume from partial files; every received trace is
      digest- and structure-verified before its manifest entry lands.
      A peer holding the same (workload, scale, seed) under a
      different digest is drift — refused, exit 4
  tracectl corpus add --dir <d> --workload <name> --scale <f> --seed <n> <trace.tsb1>
      register an externally produced TSB1 trace: copy it under the
      corpus' canonical name, digest it, record it in the manifest
  tracectl corpus gc --dir <d>
      drop every trace no figure grid references (at the manifest's
      scales, under the current TSE_SEEDS) and rewrite the manifest

EXIT CODES: 0 ok, 2 usage error (including an unknown flag), 3 I/O or
replay failure, 4 corpus verification failure
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("corpus") => match args.get(1).map(String::as_str) {
            Some("gen") => cmd_corpus_gen(&args[2..]),
            Some("list") => cmd_corpus_list(&args[2..]),
            Some("verify") => cmd_corpus_verify(&args[2..]),
            Some("add") => cmd_corpus_add(&args[2..]),
            Some("gc") => cmd_corpus_gc(&args[2..]),
            Some("sync") => cmd_corpus_sync(&args[2..]),
            other => Err(CliError::usage(format!(
                "corpus needs a subcommand (gen, list, verify, add, gc, sync), got {other:?}\n\n{USAGE}"
            ))),
        },
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    };
    cli::exit("tracectl", result)
}

/// Near-square torus factorization of `n` (w <= h, w * h == n).
fn torus_dims(n: usize) -> (usize, usize) {
    let mut w = (n.max(1) as f64).sqrt() as usize;
    while w > 1 && !n.is_multiple_of(w) {
        w -= 1;
    }
    let w = w.max(1);
    (w, n / w)
}

fn is_tsb1_path(path: &str) -> bool {
    matches!(
        Path::new(path).extension().and_then(|e| e.to_str()),
        Some("tsb1" | "tsb")
    )
}

/// Sniffs whether the file at `path` is a TSB1 trace (magic bytes, not
/// extension) — the one format-detection implementation every
/// subcommand shares.
fn sniff_tsb1(path: &str) -> Result<bool, CliError> {
    let mut file =
        File::open(path).map_err(|e| CliError::io(format!("cannot open {path}: {e}")))?;
    let mut magic = [0u8; 4];
    let got = file.read(&mut magic).map_err(CliError::io)?;
    Ok(got == 4 && is_tsb1(&magic))
}

/// Writes records to `path` in the format its extension names,
/// declaring the node count in TSB1 headers when known.
fn write_records(
    path: &str,
    nodes: Option<u16>,
    records: impl IntoIterator<Item = AccessRecord>,
) -> Result<u64, CliError> {
    let file =
        File::create(path).map_err(|e| CliError::io(format!("cannot create {path}: {e}")))?;
    if is_tsb1_path(path) {
        let mut w = TraceWriter::new(BufWriter::new(file)).map_err(CliError::io)?;
        if let Some(n) = nodes {
            w.declare_nodes(n);
        }
        w.extend(records).map_err(CliError::io)?;
        let (meta, _) = w.finish().map_err(CliError::io)?;
        Ok(meta.records)
    } else {
        let mut n = 0u64;
        write_jsonl(
            BufWriter::new(file),
            records.into_iter().inspect(|_| n += 1),
        )
        .map_err(CliError::io)?;
        Ok(n)
    }
}

/// Reads a whole trace from `path`, sniffing the format. Also returns
/// the declared node count, if the file carries one.
fn read_records(path: &str) -> Result<(Vec<AccessRecord>, Option<u16>), CliError> {
    let binary = sniff_tsb1(path)?;
    let file = File::open(path).map_err(CliError::io)?;
    if binary {
        let mut reader = TraceReader::new(BufReader::new(file)).map_err(CliError::io)?;
        let declared = reader.declared_nodes();
        let mut records = Vec::new();
        for rec in reader.by_ref() {
            records.push(rec.map_err(CliError::io)?);
        }
        Ok((records, declared))
    } else {
        let records = read_jsonl(BufReader::new(file)).map_err(CliError::io)?;
        Ok((records, None))
    }
}

fn cmd_gen(args: &[String]) -> Result<(), CliError> {
    check_flags(args, &["--workload", "--out", "--scale", "--seed"], &[])?;
    let name = opt(args, "--workload")?
        .ok_or_else(|| CliError::usage(format!("gen needs --workload\n\n{USAGE}")))?;
    let out = opt(args, "--out")?
        .ok_or_else(|| CliError::usage(format!("gen needs --out\n\n{USAGE}")))?;
    let scale: f64 = match opt(args, "--scale")? {
        Some(v) => parse(v, "--scale")?,
        None => 0.1,
    };
    // Scales above 1.0 grow the workload beyond the paper's operating
    // point — the whole reason a compact trace store exists.
    if !scale.is_finite() || scale <= 0.0 {
        return Err(CliError::usage("--scale must be a positive number"));
    }
    let seed: u64 = match opt(args, "--seed")? {
        Some(v) => parse(v, "--seed")?,
        None => 42,
    };
    let wl = workload_by_name(name, scale).ok_or_else(|| {
        CliError::usage(format!(
            "unknown workload `{name}` (try em3d, DB2, Apache, ...)"
        ))
    })?;
    let per_node = wl.generate(seed);
    let records = write_records(
        out,
        u16::try_from(wl.nodes()).ok(),
        interleave(per_node.into_iter().map(Vec::into_iter).collect()),
    )?;
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "{}: {records} records, {} nodes, seed {seed}, scale {scale} -> {out} ({bytes} bytes, {:.2} B/record)",
        wl.name(),
        wl.nodes(),
        bytes as f64 / records.max(1) as f64,
    );
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), CliError> {
    check_flags(args, &[], &[])?;
    let path = positional(args, 0, "trace path", USAGE)?;
    let bytes = std::fs::metadata(path)
        .map_err(|e| CliError::io(format!("cannot stat {path}: {e}")))?
        .len();
    if !sniff_tsb1(path)? {
        // JSONL (or unknown): summarize by parsing.
        let (recs, _) = read_records(path)?;
        let nodes = recs
            .iter()
            .map(|r| r.node.index())
            .max()
            .map_or(0, |n| n + 1);
        println!(
            "{path}: JSONL, {} records, {nodes} nodes, {bytes} bytes",
            recs.len()
        );
        return Ok(());
    }
    let file = File::open(path).map_err(CliError::io)?;
    let reader = TraceReader::open(BufReader::new(file)).map_err(CliError::io)?;
    let meta = reader.meta().expect("open loads metadata").clone();
    println!("{path}: TSB1 v{}", meta.version);
    println!(
        "  {} records in {} blocks (<= {} records/block), {bytes} bytes ({:.2} B/record)",
        meta.records,
        meta.blocks.len(),
        meta.block_len,
        bytes as f64 / meta.records.max(1) as f64,
    );
    if let Some(n) = meta.declared_nodes {
        println!("  declared nodes: {n}");
    }
    if let Some((lo, hi)) = meta.clock_range() {
        println!("  clocks {lo}..={hi}");
    }
    println!("  node  records        clocks");
    for n in &meta.nodes {
        println!(
            "  {:>4}  {:>10}     {}..={}",
            n.node.index(),
            n.records,
            n.min_clock,
            n.max_clock
        );
    }
    Ok(())
}

fn cmd_convert(args: &[String]) -> Result<(), CliError> {
    check_flags(args, &["--nodes"], &[])?;
    let input = positional(args, 0, "input path", USAGE)?;
    let output = positional(args, 1, "output path", USAGE)?;
    let (recs, declared) = read_records(input)?;
    let nodes = match opt(args, "--nodes")? {
        Some(v) => Some(parse(v, "--nodes")?),
        None => declared,
    };
    let n = write_records(output, nodes, recs.iter().copied())?;
    let in_bytes = std::fs::metadata(input).map(|m| m.len()).unwrap_or(0);
    let out_bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    println!(
        "{input} ({in_bytes} B) -> {output} ({out_bytes} B): {n} records, size ratio {:.2}x",
        in_bytes as f64 / out_bytes.max(1) as f64,
    );
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), CliError> {
    check_flags(args, &["--engine", "--lookahead", "--nodes"], &[])?;
    let path = positional(args, 0, "trace path", USAGE)?;
    let engine = match opt(args, "--engine")? {
        None | Some("tse") => {
            let lookahead: usize = match opt(args, "--lookahead")? {
                Some(v) => parse(v, "--lookahead")?,
                None => 8,
            };
            EngineKind::Tse(TseConfig {
                lookahead,
                ..TseConfig::default()
            })
        }
        Some("base") => EngineKind::Baseline,
        Some(other) => {
            return Err(CliError::usage(format!(
                "unknown engine `{other}` (tse or base)"
            )))
        }
    };
    let nodes_override: Option<usize> = match opt(args, "--nodes")? {
        Some(v) => Some(parse(v, "--nodes")?),
        None => None,
    };
    // Simulate a machine of the trace's size (near-square torus), not
    // the paper's fixed 16-node default.
    let machine = |nodes: usize| -> Result<SystemConfig, CliError> {
        if nodes == SystemConfig::default().nodes {
            Ok(SystemConfig::default())
        } else {
            let (w, h) = torus_dims(nodes);
            SystemConfig::builder()
                .nodes(nodes)
                .torus(w, h)
                .build()
                .map_err(|e| CliError::io(format!("no valid machine for {nodes} nodes: {e}")))
        }
    };
    let r = if sniff_tsb1(path)? && nodes_override.is_none() {
        // TSB1 replays off a shared mapping: blocks decode on pool
        // workers ahead of the consumer and the trace is never
        // materialized in memory. The machine is sized from the same
        // mapping the replay reads.
        let trace = Arc::new(MappedTrace::open(path).map_err(CliError::io)?);
        let cfg = RunConfig {
            engine,
            sys: machine(mapped_node_count(&trace))?,
            ..RunConfig::default()
        };
        let name = Path::new(path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_string());
        run_trace_mapped(name, trace, &cfg).map_err(CliError::io)?
    } else {
        let (recs, declared) = read_records(path)?;
        let nodes = nodes_override
            .or(declared.map(usize::from))
            .or(recs.iter().map(|r| r.node.index() + 1).max())
            .unwrap_or(1);
        let trace =
            StoredTrace::from_records(path.to_string(), nodes, recs).map_err(CliError::io)?;
        let cfg = RunConfig {
            engine,
            sys: machine(trace.nodes())?,
            ..RunConfig::default()
        };
        run_trace_stored(&trace, &cfg).map_err(CliError::io)?
    };
    println!(
        "{} [{}]: {} measured records, {} consumptions, coverage {:.1}%, discards {:.1}%, {} spin misses",
        r.workload,
        r.engine_name,
        r.records,
        r.consumption_count(),
        r.coverage() * 100.0,
        r.discard_rate() * 100.0,
        r.spin_misses,
    );
    Ok(())
}

/// Parses a comma-separated `--flag` list, or returns the default.
fn list_opt<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: Vec<T>,
) -> Result<Vec<T>, CliError> {
    match opt(args, flag)? {
        None => Ok(default),
        Some(text) => text
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| parse(s, flag))
            .collect(),
    }
}

fn cmd_corpus_gen(args: &[String]) -> Result<(), CliError> {
    check_flags(args, &["--dir", "--scales", "--seeds", "--workloads"], &[])?;
    let dir = opt(args, "--dir")?
        .ok_or_else(|| CliError::usage(format!("corpus gen needs --dir\n\n{USAGE}")))?;
    let scales: Vec<f64> = list_opt(args, "--scales", vec![0.1])?;
    if scales.iter().any(|s| !s.is_finite() || *s <= 0.0) {
        return Err(CliError::usage("--scales must be positive numbers"));
    }
    let seeds: Vec<u64> = list_opt(args, "--seeds", vec![42])?;
    let workloads: Vec<String> = list_opt(args, "--workloads", Vec::new())?;
    for w in &workloads {
        if !SUITE_ORDER.iter().any(|s| s.eq_ignore_ascii_case(w)) {
            return Err(CliError::usage(format!(
                "unknown workload `{w}` (try em3d, DB2, Apache, ...)"
            )));
        }
    }
    // Incremental: reuse the manifest, keep entries whose trace still
    // verifies, regenerate the rest (in parallel — every spec writes
    // its own file; only the manifest assembly is serial). A successful
    // gen must leave the *whole* manifest verified, so entries outside
    // the requested grid (earlier scales/seeds) are re-checked — and
    // regenerated from their recorded spec — too.
    let mut writer = CorpusWriter::open(dir).map_err(CliError::io)?;
    let requested: Vec<SuiteSpec> = suite_specs(&scales, &seeds)
        .into_iter()
        .filter(|spec| {
            workloads.is_empty() || workloads.iter().any(|w| w.eq_ignore_ascii_case(spec.name))
        })
        .collect();
    let mut specs: Vec<(String, f64, u64)> = requested
        .iter()
        .map(|s| (s.name.to_string(), s.scale, s.seed))
        .collect();
    for e in writer.entries().to_vec() {
        if !requested.iter().any(|s| e.matches(s.name, s.scale, s.seed)) {
            specs.push((e.workload, e.scale, e.seed));
        }
    }

    let mut skipped = 0usize;
    let mut to_generate: Vec<(String, f64, u64)> = Vec::new();
    for (name, scale, seed) in specs {
        if writer.verified(&name, scale, seed) {
            println!("  {name:8} scale {scale:<5} seed {seed:<6} verified, skipped");
            skipped += 1;
            continue;
        }
        if workload_by_name(&name, scale).is_none() {
            // A stale entry gen cannot rebuild (not a suite workload):
            // refuse to write a manifest that promises unverifiable
            // bytes.
            return Err(CliError::verify(format!(
                "entry {name} scale {scale} seed {seed} fails verification and names no \
                 suite workload to regenerate it from"
            )));
        }
        // Drop any stale entry (missing/corrupt file, drifted metadata);
        // generation below replaces it.
        writer.remove(&name, scale, seed);
        to_generate.push((name, scale, seed));
    }

    let dir_owned = PathBuf::from(dir);
    let generated: Vec<Result<TraceEntry, String>> =
        run_parallel(to_generate, 0, move |(name, scale, seed)| {
            let wl = workload_by_name(&name, scale).expect("checked above");
            let nodes = u16::try_from(wl.nodes())
                .map_err(|_| format!("{name}: more than {} nodes", u16::MAX))?;
            let per_node = wl.generate(seed);
            CorpusWriter::write_trace_file(
                &dir_owned,
                wl.name(),
                scale,
                seed,
                nodes,
                interleave(per_node.into_iter().map(Vec::into_iter).collect()),
            )
            .map_err(|e| e.to_string())
        });

    let mut regenerated = 0usize;
    let mut new_records = 0u64;
    for result in generated {
        let entry = result.map_err(CliError::io)?;
        println!(
            "  {:8} scale {:<5} seed {:<6} -> {} ({} records, {})",
            entry.workload, entry.scale, entry.seed, entry.path, entry.records, entry.digest
        );
        new_records += entry.records;
        regenerated += 1;
        writer.insert(entry).map_err(CliError::io)?;
    }
    let n = writer.entries().len();
    let manifest = writer.finish().map_err(CliError::io)?;
    println!(
        "corpus {dir}: {regenerated} regenerated ({new_records} records), {skipped} skipped \
         (digest verified), {n} traces in manifest v{}",
        manifest.version
    );
    Ok(())
}

fn cmd_corpus_list(args: &[String]) -> Result<(), CliError> {
    check_flags(args, &[], &[])?;
    let dir = positional(args, 0, "corpus directory", USAGE)?;
    let corpus = Corpus::open(dir).map_err(CliError::io)?;
    println!(
        "{dir}: manifest v{}, {} traces",
        corpus.manifest().version,
        corpus.entries().len()
    );
    println!("  workload scale  seed    nodes  records     path");
    for e in corpus.entries() {
        println!(
            "  {:8} {:<6} {:<7} {:<6} {:<11} {}",
            e.workload, e.scale, e.seed, e.nodes, e.records, e.path
        );
    }
    Ok(())
}

fn cmd_corpus_add(args: &[String]) -> Result<(), CliError> {
    check_flags(args, &["--dir", "--workload", "--scale", "--seed"], &[])?;
    let dir = opt(args, "--dir")?
        .ok_or_else(|| CliError::usage(format!("corpus add needs --dir\n\n{USAGE}")))?;
    let name = opt(args, "--workload")?
        .ok_or_else(|| CliError::usage(format!("corpus add needs --workload\n\n{USAGE}")))?;
    let scale: f64 = match opt(args, "--scale")? {
        Some(v) => parse(v, "--scale")?,
        None => {
            return Err(CliError::usage(format!(
                "corpus add needs --scale\n\n{USAGE}"
            )))
        }
    };
    if !scale.is_finite() || scale <= 0.0 {
        return Err(CliError::usage("--scale must be a positive number"));
    }
    let seed: u64 = match opt(args, "--seed")? {
        Some(v) => parse(v, "--seed")?,
        None => {
            return Err(CliError::usage(format!(
                "corpus add needs --seed\n\n{USAGE}"
            )))
        }
    };
    let input = positional(args, 0, "trace path", USAGE)?;
    if !sniff_tsb1(input)? {
        return Err(CliError::io(format!(
            "{input} is not a TSB1 trace (convert it first: tracectl convert {input} out.tsb1)"
        )));
    }
    // The manifest records what verification later re-checks: the trace
    // must declare its node count (`tracectl convert --nodes` adds one).
    let file = File::open(input).map_err(CliError::io)?;
    let reader = TraceReader::open(BufReader::new(file)).map_err(CliError::io)?;
    let records = reader.records();
    let nodes = reader.declared_nodes().ok_or_else(|| {
        CliError::io(format!(
            "{input} declares no node count; re-encode with tracectl convert {input} out.tsb1 --nodes <n>"
        ))
    })?;

    let mut writer = CorpusWriter::open(dir).map_err(CliError::io)?;
    writer.remove(name, scale, seed);
    let file_name = CorpusWriter::file_name(name, scale, seed);
    let dest = Path::new(dir).join(&file_name);
    let already_in_place = dest
        .canonicalize()
        .ok()
        .zip(Path::new(input).canonicalize().ok())
        .is_some_and(|(a, b)| a == b);
    if !already_in_place {
        std::fs::copy(input, &dest)
            .map_err(|e| CliError::io(format!("cannot copy {input} into {dir}: {e}")))?;
    }
    let digest = digest_file(&dest).map_err(CliError::io)?;
    let entry = TraceEntry {
        workload: name.to_string(),
        scale,
        seed,
        nodes,
        records,
        path: file_name.clone(),
        digest: digest.clone(),
    };
    writer.insert(entry).map_err(CliError::io)?;
    let n = writer.entries().len();
    writer.finish().map_err(CliError::io)?;
    println!(
        "{name}: registered {input} as {file_name} ({records} records, {nodes} nodes, {digest}); \
         {n} traces in manifest"
    );
    Ok(())
}

fn cmd_corpus_gc(args: &[String]) -> Result<(), CliError> {
    check_flags(args, &["--dir"], &[])?;
    let dir = opt(args, "--dir")?
        .ok_or_else(|| CliError::usage(format!("corpus gc needs --dir\n\n{USAGE}")))?;
    let mut writer = CorpusWriter::open(dir).map_err(CliError::io)?;

    // The retention set: every (workload, scale, seed) any figure grid
    // replays, evaluated at each scale the manifest holds (under the
    // current TSE_SEEDS, exactly as the sweeps would run today).
    let mut scales: Vec<f64> = writer.entries().iter().map(|e| e.scale).collect();
    scales.sort_by(f64::total_cmp);
    scales.dedup();
    let mut ctx = ExperimentCtx::from_env();
    ctx.corpus_dir = None;
    let mut referenced: HashSet<(String, u64, u64)> = HashSet::new();
    for &scale in &scales {
        ctx.scale = scale;
        for figure in grid::SHARDABLE_FIGURES {
            for job in grid::figure_jobs(&ctx, figure).expect("shardable figure") {
                let (workload, bits, seed) = job.trace.key();
                referenced.insert((workload.to_lowercase(), bits, seed));
            }
        }
    }

    let entries = writer.entries().to_vec();
    let (retained, report) = sweep_retained(
        Path::new(dir),
        entries,
        |e| &e.path,
        |e| referenced.contains(&(e.workload.to_lowercase(), e.scale.to_bits(), e.seed)),
    )
    .map_err(CliError::io)?;
    let retained_keys: HashSet<(String, u64, u64)> = retained
        .iter()
        .map(|e| (e.workload.clone(), e.scale.to_bits(), e.seed))
        .collect();
    for entry in writer.entries().to_vec() {
        if !retained_keys.contains(&(entry.workload.clone(), entry.scale.to_bits(), entry.seed)) {
            writer.remove(&entry.workload, entry.scale, entry.seed);
        }
    }
    writer.finish().map_err(CliError::io)?;
    // Reclaim crash leftovers too: orphaned atomic-write temps and
    // abandoned `.partial` sync downloads (gc is the explicit moment
    // to give up on resuming them).
    let mut report = report;
    report.add_stale(
        tse_trace::fsio::sweep_stale(Path::new(dir), true)
            .map_err(|e| CliError::io(format!("cannot sweep stale files in {dir}: {e}")))?,
    );
    println!("corpus {dir}: {report}");
    Ok(())
}

fn cmd_corpus_verify(args: &[String]) -> Result<(), CliError> {
    check_flags(args, &[], &["--quick"])?;
    let quick = cli::flag(args, "--quick");
    let dir = cli::positionals_excluding(args, &["--quick"])
        .first()
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::usage(format!("missing corpus directory\n\n{USAGE}")))?;
    let corpus = Corpus::open(dir).map_err(CliError::io)?;
    let issues = if quick {
        corpus.verify_quick()
    } else {
        corpus.verify()
    };
    if issues.is_empty() {
        let records: u64 = corpus.entries().iter().map(|e| e.records).sum();
        let checked = if quick {
            "all digests verified (quick)"
        } else {
            "all digests and metadata verified"
        };
        println!(
            "{dir}: OK — {} traces, {records} records, {checked}",
            corpus.entries().len()
        );
        return Ok(());
    }
    for issue in &issues {
        eprintln!("  {issue}");
    }
    Err(CliError::verify(format!(
        "{dir}: {} of {} traces failed verification",
        issues.len(),
        corpus.entries().len()
    )))
}

fn cmd_corpus_sync(args: &[String]) -> Result<(), CliError> {
    check_flags(args, &["--dir"], &["--push"])?;
    let endpoint_spec = cli::positionals_excluding(args, &["--push"])
        .first()
        .map(|s| s.as_str())
        .ok_or_else(|| CliError::usage(format!("corpus sync needs an <endpoint>\n\n{USAGE}")))?
        .to_string();
    let dir = opt(args, "--dir")?
        .ok_or_else(|| CliError::usage(format!("corpus sync needs --dir\n\n{USAGE}")))?;
    let endpoint = tse_sweepd::Endpoint::parse(&endpoint_spec);
    let push = cli::flag(args, "--push");
    let report = if push {
        sync::push(&endpoint, Path::new(dir))
    } else {
        sync::pull(&endpoint, Path::new(dir))
    };
    // Drift (same spec, different content digest on the two sides) is a
    // verification failure, same exit-code contract as `corpus verify`.
    let report = report.map_err(|e| match e {
        SyncError::Drift(_) => CliError::verify(e),
        _ => CliError::io(e),
    })?;
    let direction = if push { "push to" } else { "pull from" };
    println!("{dir}: {direction} {endpoint} — {report}");
    Ok(())
}
