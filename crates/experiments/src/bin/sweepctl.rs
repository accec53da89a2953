//! `sweepctl` — plan, execute and merge sharded figure sweeps.
//!
//! A figure's sweep grid is fully described by serializable cells
//! (`tse_sim::shard::ShardJob`), so it can be split across machines
//! that share a trace corpus and merged back bit-identically:
//!
//! ```text
//! sweepctl plan  --figure fig08 --shards 3 --corpus traces --out plan.json
//! sweepctl run   --plan plan.json --shard 0 --corpus traces --out shard-0.json   # machine A
//! sweepctl run   --plan plan.json --shard 1 --corpus traces --out shard-1.json   # machine B
//! sweepctl run   --plan plan.json --shard 2 --corpus traces --out shard-2.json   # machine B
//! sweepctl merge --plan plan.json --out merged.json shard-*.json
//! sweepctl local --figure fig08 --out local.json    # the in-process reference
//! diff merged.json local.json                       # byte-identical
//! ```
//!
//! Workers verify every referenced trace against the corpus manifest
//! (and the digests the plan pinned) before replaying, and stream the
//! TSB1 bytes so even giant traces replay in bounded memory. Exit
//! codes: `2` usage, `3` I/O/format/run failures, `4` corpus or
//! pinned-digest verification failures.

use std::path::PathBuf;
use std::process::ExitCode;
use tse_experiments::cli::{self, CliError};
use tse_experiments::{grid, ExperimentCtx};
use tse_sim::shard::{self, MergedGrid, ShardPlan, ShardResult};
use tse_sweepd::net::{self, Endpoint};
use tse_sweepd::proto::Request;
use tse_trace::corpus::Corpus;

const USAGE: &str = "sweepctl — plan, execute and merge sharded figure sweeps

USAGE:
  sweepctl plan --figure <fig> --shards <n> --out <plan.json> [--corpus <dir>] [--scale <f>]
      enumerate a figure's sweep grid (fig06..fig14, table3), split it
      into <n> shards and write the plan; with a corpus, pin every
      referenced trace's digest so workers refuse drifted bytes
  sweepctl run --plan <plan.json> --shard <i> --corpus <dir> --out <bundle.json>
      execute one shard against a local corpus (digest-verified before
      replay, traces memory-mapped) and write the result bundle
  sweepctl merge --plan <plan.json> --out <merged.json> [--partial] <bundle.json>...
      merge result bundles into the plan's full grid, in cell order;
      rejects duplicate/missing cells and version or split mismatches.
      --partial tolerates missing cells: writes a partial-merge document
      ({grid, outstanding}) and lists the outstanding cells instead of
      failing
  sweepctl local --figure <fig> --out <merged.json> [--scale <f>] [--via <endpoint>]
      run the whole grid in-process (the SweepPool reference path) and
      write the same merged-grid shape, for diffing against a merge.
      --via submits the grid to a running sweepd daemon instead (cached
      cells are served without simulating) — the written grid is
      byte-identical either way

Figures honour TSE_SCALE / TSE_SEEDS / TSE_CORPUS like the fig*
binaries; --scale and --corpus override the environment. An <endpoint>
containing a `/` is a Unix socket path; anything else host:port.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("plan") => cmd_plan(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("local") => cmd_local(&args[1..]),
        Some("--help" | "-h") | None => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(CliError::usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    };
    cli::exit("sweepctl", result)
}

/// Builds the experiment context, honouring `--scale`/`--corpus`
/// overrides over the environment.
fn context(args: &[String]) -> Result<ExperimentCtx, CliError> {
    let mut ctx = ExperimentCtx::from_env();
    if let Some(v) = cli::opt(args, "--scale")? {
        let scale: f64 = cli::parse(v, "--scale")?;
        if !scale.is_finite() || scale <= 0.0 {
            return Err(CliError::usage("--scale must be a positive number"));
        }
        ctx.scale = scale;
    }
    if let Some(dir) = cli::opt(args, "--corpus")? {
        ctx.corpus_dir = Some(PathBuf::from(dir));
    }
    Ok(ctx)
}

fn figure_grid(
    ctx: &ExperimentCtx,
    args: &[String],
) -> Result<Vec<tse_sim::shard::ShardJob>, CliError> {
    let figure = cli::opt(args, "--figure")?
        .ok_or_else(|| CliError::usage(format!("needs --figure\n\n{USAGE}")))?;
    grid::figure_jobs(ctx, figure).ok_or_else(|| {
        CliError::usage(format!(
            "unknown figure `{figure}` (one of: {})",
            grid::SHARDABLE_FIGURES.join(", ")
        ))
    })
}

fn out_path(args: &[String]) -> Result<&str, CliError> {
    cli::opt(args, "--out")?.ok_or_else(|| CliError::usage(format!("needs --out\n\n{USAGE}")))
}

fn open_corpus(dir: &str) -> Result<Corpus, CliError> {
    Corpus::open(dir).map_err(CliError::io)
}

fn shard_err(e: shard::ShardError) -> CliError {
    match e {
        shard::ShardError::Verify(_) => CliError::verify(e),
        _ => CliError::io(e),
    }
}

/// Writes a JSON document atomically (write-temp + fsync + rename
/// under the named `tse_trace::fsio` crash-point label), so an
/// interrupted command never leaves a torn plan/bundle/grid behind.
fn write_json<T: serde::Serialize>(label: &str, path: &str, value: &T) -> Result<(), CliError> {
    let text = serde_json::to_string_pretty(value).map_err(CliError::io)?;
    tse_trace::fsio::atomic_write(label, std::path::Path::new(path), (text + "\n").as_bytes())
        .map_err(|e| CliError::io(format!("cannot write {path}: {e}")))
}

fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::io(format!("cannot read {path}: {e}")))?;
    serde_json::from_str(&text).map_err(|e| CliError::io(format!("{path}: {e}")))
}

fn read_plan(path: &str) -> Result<ShardPlan, CliError> {
    let plan: ShardPlan = read_json(path)?;
    plan.validate().map_err(shard_err)?;
    Ok(plan)
}

fn cmd_plan(args: &[String]) -> Result<(), CliError> {
    let ctx = context(args)?;
    let shards: u32 = match cli::opt(args, "--shards")? {
        Some(v) => cli::parse(v, "--shards")?,
        None => return Err(CliError::usage(format!("plan needs --shards\n\n{USAGE}"))),
    };
    let out = out_path(args)?;
    let jobs = figure_grid(&ctx, args)?;
    let mut plan = ShardPlan::split(jobs, shards).map_err(shard_err)?;
    let pinned = match &ctx.corpus_dir {
        Some(dir) => {
            let corpus = open_corpus(&dir.display().to_string())?;
            plan.pin_digests(&corpus).map_err(shard_err)?;
            true
        }
        None => false,
    };
    write_json("plan", out, &plan)?;
    println!(
        "{}: {} cells across {} shards, digests {} -> {out}",
        plan.figure,
        plan.jobs.len(),
        plan.shards,
        if pinned { "pinned" } else { "unpinned" },
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let plan_path = cli::opt(args, "--plan")?
        .ok_or_else(|| CliError::usage(format!("run needs --plan\n\n{USAGE}")))?;
    let shard: u32 = match cli::opt(args, "--shard")? {
        Some(v) => cli::parse(v, "--shard")?,
        None => return Err(CliError::usage(format!("run needs --shard\n\n{USAGE}"))),
    };
    let corpus_dir = cli::opt(args, "--corpus")?
        .ok_or_else(|| CliError::usage(format!("run needs --corpus\n\n{USAGE}")))?;
    let out = out_path(args)?;
    let plan = read_plan(plan_path)?;
    let corpus = open_corpus(corpus_dir)?;
    let bundle = shard::execute_shard(&plan, shard, &corpus).map_err(shard_err)?;
    write_json("shard-bundle", out, &bundle)?;
    println!(
        "{} shard {}/{}: {} cells -> {out}",
        bundle.figure,
        bundle.shard,
        bundle.shards,
        bundle.cells.len(),
    );
    Ok(())
}

fn cmd_merge(args: &[String]) -> Result<(), CliError> {
    let plan_path = cli::opt(args, "--plan")?
        .ok_or_else(|| CliError::usage(format!("merge needs --plan\n\n{USAGE}")))?;
    let out = out_path(args)?;
    let partial = cli::flag(args, "--partial");
    let plan = read_plan(plan_path)?;
    let bundle_paths = cli::positionals_excluding(args, &["--partial"]);
    if bundle_paths.is_empty() {
        return Err(CliError::usage(format!(
            "merge needs at least one bundle\n\n{USAGE}"
        )));
    }
    let mut bundles: Vec<ShardResult> = Vec::with_capacity(bundle_paths.len());
    for path in bundle_paths {
        bundles.push(read_json(path)?);
    }
    if partial {
        let merged = shard::merge_partial(&plan, &bundles).map_err(shard_err)?;
        write_json("merged-grid", out, &merged)?;
        if merged.is_complete() {
            println!(
                "{}: merged {} bundles into {} cells (complete) -> {out}",
                merged.grid.figure,
                bundles.len(),
                merged.grid.cells.len(),
            );
        } else {
            println!(
                "{}: partial merge, {} of {} cells outstanding ({}) -> {out}",
                merged.grid.figure,
                merged.outstanding.len(),
                merged.grid.cells.len() + merged.outstanding.len(),
                merged
                    .outstanding
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
        return Ok(());
    }
    let merged = shard::merge(&plan, &bundles).map_err(shard_err)?;
    write_json("merged-grid", out, &merged)?;
    println!(
        "{}: merged {} bundles into {} cells -> {out}",
        merged.figure,
        bundles.len(),
        merged.cells.len(),
    );
    Ok(())
}

fn cmd_local(args: &[String]) -> Result<(), CliError> {
    let ctx = context(args)?;
    let out = out_path(args)?;
    let jobs = figure_grid(&ctx, args)?;
    let figure = jobs[0].figure.clone();
    if let Some(spec) = cli::opt(args, "--via")? {
        return run_via(spec, figure, jobs, out);
    }
    let outputs = grid::run_cells(&ctx, &jobs);
    let merged = MergedGrid::from_outputs(figure, outputs);
    write_json("merged-grid", out, &merged)?;
    println!(
        "{}: ran {} cells in-process -> {out}",
        merged.figure,
        merged.cells.len(),
    );
    Ok(())
}

/// Ships the grid to a sweepd daemon as a 1-shard plan (the daemon
/// re-splits across its own workers) and writes the merged grid it
/// returns — byte-identical to the in-process path, except that cells
/// the daemon has cached are served without simulating.
fn run_via(
    spec: &str,
    figure: String,
    jobs: Vec<tse_sim::shard::ShardJob>,
    out: &str,
) -> Result<(), CliError> {
    let endpoint = Endpoint::parse(spec);
    let plan = ShardPlan::split(jobs, 1).map_err(shard_err)?;
    let mut request = Request::new("submit");
    request.plan = Some(plan);
    request.wait = true;
    let response =
        net::request(&endpoint, &request).map_err(|e| CliError::io(format!("{endpoint}: {e}")))?;
    if !response.ok {
        return Err(CliError::io(
            response
                .error
                .unwrap_or_else(|| "daemon reported failure".to_string()),
        ));
    }
    let merged = response
        .merged
        .ok_or_else(|| CliError::io("daemon returned no merged grid"))?;
    write_json("merged-grid", out, &merged)?;
    let (cached, simulated) = response
        .status
        .map(|s| (s.cached, s.simulated))
        .unwrap_or((0, 0));
    println!(
        "{figure}: ran {} cells via {endpoint} ({cached} cached, {simulated} simulated) -> {out}",
        merged.cells.len(),
    );
    Ok(())
}
