//! Benchmark bodies and the performance-baseline emitter for the
//! Temporal Streaming reproduction.
//!
//! The criterion bench targets in `benches/` are thin registrars over
//! [`kernels`], [`sweep`], [`trace_plane`] and [`json`]; the same bodies also run
//! under the `bench-baseline` binary, which persists their medians to
//! `BENCH_baseline.json` so every future PR has a perf trajectory to
//! regress against (see [`baseline`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod json;
pub mod kernels;
pub mod sweep;
pub mod trace_plane;
