//! Common vocabulary types for the Temporal Streaming reproduction.
//!
//! This crate defines the newtypes shared by every other crate in the
//! workspace: physical [`Addr`]esses and cache [`Line`]s, [`NodeId`]s,
//! [`Cycle`] timestamps, and the system/engine configuration records that
//! mirror Table 1 and the TSE parameters of the paper
//! *"Temporal Streaming of Shared Memory"* (ISCA 2005).
//!
//! # Example
//!
//! ```
//! use tse_types::{Addr, NodeId, SystemConfig};
//!
//! let cfg = SystemConfig::default(); // the paper's Table 1 machine
//! assert_eq!(cfg.nodes, 16);
//!
//! let a = Addr::new(0x1234);
//! let line = a.line();
//! assert_eq!(line.base_addr(), Addr::new(0x1200));
//! assert_eq!(cfg.home_node(line), NodeId::new(((0x1234u64 >> 6) % 16) as u16));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod config;
mod error;
mod fasthash;
mod node;
pub mod ops;
mod time;

pub use addr::{Addr, Line, LINE_BYTES, LINE_SHIFT};
pub use config::{SystemConfig, SystemConfigBuilder, TseConfig, TseConfigBuilder};
pub use error::ConfigError;
pub use fasthash::{FastHashMap, FastHashSet, FastHasher};
pub use node::NodeId;
pub use time::Cycle;
