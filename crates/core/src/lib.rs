//! # The Temporal Streaming Engine (TSE)
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Temporal Streaming of Shared Memory"* (Wenisch et al., ISCA 2005):
//! hardware that eliminates coherent read misses in DSM multiprocessors by
//! streaming data to consumers ahead of their demand accesses, exploiting
//!
//! * **temporal address correlation** — groups of shared addresses tend
//!   to be accessed together and in the same order, and
//! * **temporal stream locality** — recently-followed address streams are
//!   likely to recur (often on another node).
//!
//! ## Components (Section 3 of the paper)
//!
//! | Paper structure | Type |
//! |---|---|
//! | Coherence miss order buffer (CMOB) | [`Cmob`] |
//! | Directory CMOB-pointer extension | [`DirectoryPointers`] |
//! | Stream queues (FIFO groups + comparators) | [`StreamQueue`] |
//! | Streamed value buffer (SVB) | [`Svb`], one per node in an [`SvbSet`] |
//! | The engine itself | [`TemporalStreamingEngine`] |
//!
//! The coordinator drives a [`tse_memsim::DsmSystem`]; see
//! [`TemporalStreamingEngine`] for the event API and an example, and the
//! `tse-sim` crate for the full trace-driven and timing harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cmob;
mod engine;
mod pointers;
mod queue;
mod stats;
mod svb;

pub use cmob::Cmob;
pub use engine::{SvbHit, TemporalStreamingEngine};
pub use pointers::{CmobPtr, DirectoryPointers};
pub use queue::{Fifo, FifoSet, FifoSetIter, Pop, StreamQueue, MAX_FIFOS};
pub use stats::TseStats;
pub use svb::{Svb, SvbEntry, SvbSet};
