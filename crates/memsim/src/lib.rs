//! DSM memory-system simulator.
//!
//! This crate is the substrate the Temporal Streaming Engine runs on: a
//! trace-driven model of the paper's 16-node distributed shared-memory
//! machine (Table 1). It simulates, per node, a split L1 / unified L2
//! hierarchy of set-associative LRU [`SetAssocCache`]s kept inclusive, a
//! full-map [`Directory`] implementing an invalidation-based MSI protocol,
//! and classifies every miss ([`MissClass`]) so that *coherent read misses*
//! — the paper's "consumptions" — can be identified exactly:
//!
//! > a read that misses through the hierarchy and returns data that
//! > another node produced since the reader last held the line.
//!
//! The top-level entry point is [`DsmSystem`]; feed it the globally
//! interleaved access stream (see `tse_trace::interleave`) and it returns
//! per-access outcomes ([`ReadOutcome`], [`WriteOutcome`]) carrying the
//! miss class, the fill path (how many network hops the fill took) and
//! the set of nodes whose copies were invalidated — everything the TSE,
//! the baseline prefetchers and the timing model need.
//!
//! # Example
//!
//! ```
//! use tse_memsim::{DsmSystem, MissClass};
//! use tse_types::{Line, NodeId, SystemConfig};
//!
//! let mut dsm = DsmSystem::new(&SystemConfig::default())?;
//! let (producer, consumer) = (NodeId::new(0), NodeId::new(1));
//! let line = Line::new(42);
//!
//! dsm.write(producer, line);                 // producer creates the data
//! let outcome = dsm.read(consumer, line);    // consumer reads it
//! assert_eq!(outcome.miss_class(), Some(MissClass::Coherence));
//! # Ok::<(), tse_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod directory;
mod linemap;
mod stats;
mod system;

pub use cache::SetAssocCache;
pub use directory::{DirState, Directory, DirectoryEntry, ReadFill, WriteGrant};
pub use linemap::LineMap;
pub use stats::MemStats;
pub use system::{DsmSystem, FillPath, HitLevel, MissClass, MissInfo, ReadOutcome, WriteOutcome};
pub use tse_types::{FastHashMap, FastHashSet, FastHasher};
