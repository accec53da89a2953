//! Simulation harnesses for the Temporal Streaming reproduction.
//!
//! Two complementary methodologies, mirroring the paper's Section 4:
//!
//! * **trace-driven analysis** ([`run_trace`]) — in-order, fixed-IPC
//!   replay of a workload's globally interleaved accesses through the
//!   DSM + engine; measures coverage, discards, traffic, correlation
//!   inputs (Figures 6-10, 12, 13, Table 3's "Trace Cov.");
//! * **interval timing model** ([`run_timing`]) — a first-order
//!   out-of-order core model that attributes stall time by miss class
//!   and captures memory-level parallelism (Figure 11, Figure 14,
//!   Table 3's MLP and full/partial coverage).
//!
//! Plus the [`CorrelationAnalysis`] (Figure 6's measurement),
//! [`Samples`] statistics with 95% confidence intervals, a parallel
//! sweep driver ([`run_parallel`]), and stored-trace replay for *both*
//! methodologies ([`StoredTrace`], [`run_trace_stored`],
//! [`run_timing_stored`], and their memory-mapped TSB1 variants
//! [`run_trace_mapped`] / [`run_timing_mapped`]) so sweeps replay one
//! materialized (or corpus-loaded) trace instead of regenerating the
//! workload per grid cell — generation and replay are bit-identical by
//! construction.
//!
//! Each replay runs sequentially on one thread through one batched
//! kernel; sweeps parallelize across cells ([`run_parallel`],
//! [`shard::execute_shard`]), never inside one.
//!
//! # Example
//!
//! ```no_run
//! use tse_sim::{run_trace, EngineKind, RunConfig};
//! use tse_types::TseConfig;
//! use tse_workloads::{Em3d, Workload};
//!
//! let wl = Em3d::scaled(0.05);
//! let cfg = RunConfig {
//!     engine: EngineKind::Tse(TseConfig::default()),
//!     ..RunConfig::default()
//! };
//! let result = run_trace(&wl, &cfg)?;
//! println!("{} coverage: {:.1}%", wl.name(), result.coverage() * 100.0);
//! # Ok::<(), tse_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod harness;
mod kernel;
mod replay;
mod runner;
pub mod shard;
mod stats;
mod timing;

pub use analysis::{correlation_curve, CorrelationAnalysis, CorrelationCurve, MAX_DISTANCE};
#[doc(hidden)]
pub use harness::run_interleaved_reference;
pub use harness::{run_baseline_collecting, run_trace, RunConfig, RunResult};
#[doc(hidden)]
pub use replay::run_trace_stored_reference;
pub use replay::{
    mapped_node_count, run_trace_mapped, run_trace_mapped_path, run_trace_stored, ReplayError,
    StoredTrace,
};
pub use runner::{run_parallel, SweepPool};
pub use stats::Samples;
#[doc(hidden)]
pub use timing::run_timing_stored_reference;
pub use timing::{
    run_timing, run_timing_mapped, run_timing_mapped_path, run_timing_stored, TimingResult,
};

use serde::{Deserialize, Serialize};
use tse_prefetch::GhbIndexing;
use tse_types::TseConfig;

/// Which read misses the TSE records in CMOBs and launches streams on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StreamScope {
    /// Coherent read misses only — the paper's focus (consumptions).
    #[default]
    CoherentReads,
    /// Every read miss (cold and replacement included) — the paper's
    /// "generalized address streams" extension (Section 2). Streams then
    /// also hide capacity-miss latency, at the cost of more order
    /// recording and more address traffic.
    AllReads,
}

/// Which engine sits beside the cache hierarchy in a run.
#[derive(Debug, Clone)]
pub enum EngineKind {
    /// No engine: the baseline DSM.
    Baseline,
    /// The Temporal Streaming Engine.
    Tse(TseConfig),
    /// Adaptive stride prefetcher with a small prefetch buffer
    /// (`None` = unbounded buffer).
    Stride {
        /// Blocks fetched per detected stride.
        depth: usize,
        /// Prefetch-buffer entries (`None` = unlimited).
        buffer: Option<usize>,
    },
    /// Global History Buffer prefetcher.
    Ghb {
        /// Address (G/AC) or distance (G/DC) correlation.
        indexing: GhbIndexing,
        /// History entries (the paper uses 512).
        entries: usize,
        /// Blocks fetched per prefetch operation.
        width: usize,
        /// Prefetch-buffer entries (`None` = unlimited).
        buffer: Option<usize>,
    },
}

impl EngineKind {
    /// The paper's stride baseline: depth 8, 32-entry buffer.
    pub fn paper_stride() -> Self {
        EngineKind::Stride {
            depth: 8,
            buffer: Some(32),
        }
    }

    /// The paper's GHB baselines: 512 entries, width 8, 32-entry buffer.
    pub fn paper_ghb(indexing: GhbIndexing) -> Self {
        EngineKind::Ghb {
            indexing,
            entries: 512,
            width: 8,
            buffer: Some(32),
        }
    }
}
