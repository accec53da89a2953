//! System and engine configuration records.
//!
//! [`SystemConfig`] mirrors Table 1 of the paper (the simulated DSM
//! machine); [`TseConfig`] collects the Temporal Streaming Engine
//! parameters that the evaluation sweeps (number of compared streams,
//! stream lookahead, SVB size, CMOB capacity, ...).

use crate::{ConfigError, Cycle, Line, NodeId};
use serde::{Deserialize, Serialize};

/// Parameters of the simulated DSM machine (the paper's Table 1).
///
/// Construct via [`SystemConfig::default`] for the paper's machine, or via
/// [`SystemConfig::builder`] to customize ([C-BUILDER]).
///
/// # Example
///
/// ```
/// use tse_types::SystemConfig;
///
/// let cfg = SystemConfig::builder().nodes(4).torus(2, 2).build()?;
/// assert_eq!(cfg.nodes, 4);
/// # Ok::<(), tse_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of DSM nodes (processors). Paper: 16.
    pub nodes: usize,
    /// Torus width (nodes per row). Paper: 4.
    pub torus_width: usize,
    /// Torus height (nodes per column). Paper: 4.
    pub torus_height: usize,
    /// Core clock in GHz. Paper: 4 GHz.
    pub clock_ghz: f64,
    /// L1 data cache capacity in bytes. Paper: 64 KB.
    pub l1_bytes: usize,
    /// L1 associativity. Paper: 2-way.
    pub l1_ways: usize,
    /// L1 load-to-use latency in cycles. Paper: 2.
    pub l1_latency: Cycle,
    /// Unified L2 capacity in bytes. Paper: 8 MB.
    pub l2_bytes: usize,
    /// L2 associativity. Paper: 8-way.
    pub l2_ways: usize,
    /// L2 hit latency in cycles. Paper: 25.
    pub l2_latency: Cycle,
    /// Main-memory access latency in nanoseconds. Paper: 60 ns.
    pub memory_latency_ns: f64,
    /// Per-hop interconnect latency in nanoseconds. Paper: 25 ns.
    pub hop_latency_ns: f64,
    /// Protocol-controller occupancy per transaction, in core cycles.
    /// The paper uses a 1 GHz microcoded controller; we charge a fixed
    /// per-transaction occupancy.
    pub controller_occupancy: Cycle,
    /// Reorder-buffer capacity in instructions. Paper: 256.
    pub rob_entries: usize,
    /// Peak dispatch/retire width in instructions per cycle. Paper: 8.
    pub issue_width: usize,
    /// Miss-status holding registers per cache (bounds outstanding misses).
    /// Paper: 32.
    pub mshrs: usize,
    /// Message header size in bytes, used for bandwidth accounting.
    pub header_bytes: u64,
    /// CMOB-entry (physical address) size in bytes as stored off-chip.
    /// Paper: 6-byte entries.
    pub cmob_entry_bytes: u64,
}

impl Default for SystemConfig {
    /// The paper's Table 1 machine: 16 nodes, 4x4 torus, 4 GHz, 64 KB L1,
    /// 8 MB L2, 60 ns memory, 25 ns/hop.
    fn default() -> Self {
        SystemConfig {
            nodes: 16,
            torus_width: 4,
            torus_height: 4,
            clock_ghz: 4.0,
            l1_bytes: 64 * 1024,
            l1_ways: 2,
            l1_latency: Cycle::new(2),
            l2_bytes: 8 * 1024 * 1024,
            l2_ways: 8,
            l2_latency: Cycle::new(25),
            memory_latency_ns: 60.0,
            hop_latency_ns: 25.0,
            controller_occupancy: Cycle::new(16),
            rob_entries: 256,
            issue_width: 8,
            mshrs: 32,
            header_bytes: 16,
            cmob_entry_bytes: 6,
        }
    }
}

impl SystemConfig {
    /// Starts building a custom configuration from the paper defaults.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder {
            cfg: SystemConfig::default(),
        }
    }

    /// Maps a line to its home node (directory + memory slice owner) by
    /// low-order line-index interleaving, as in fine-grain-interleaved DSMs.
    pub fn home_node(&self, line: Line) -> NodeId {
        NodeId::new((line.index() % self.nodes as u64) as u16)
    }

    /// Converts nanoseconds to (rounded) core cycles at this clock rate.
    ///
    /// ```
    /// use tse_types::SystemConfig;
    /// let cfg = SystemConfig::default(); // 4 GHz
    /// assert_eq!(cfg.ns_to_cycles(60.0).raw(), 240);
    /// ```
    pub fn ns_to_cycles(&self, ns: f64) -> Cycle {
        Cycle::new((ns * self.clock_ghz).round() as u64)
    }

    /// Converts a cycle count to seconds at this clock rate.
    pub fn cycles_to_seconds(&self, c: Cycle) -> f64 {
        c.raw() as f64 / (self.clock_ghz * 1e9)
    }

    /// Main-memory latency in cycles.
    pub fn memory_latency(&self) -> Cycle {
        self.ns_to_cycles(self.memory_latency_ns)
    }

    /// Per-hop interconnect latency in cycles.
    pub fn hop_latency(&self) -> Cycle {
        self.ns_to_cycles(self.hop_latency_ns)
    }

    /// Validates internal consistency (torus shape matches node count,
    /// cache geometries divide evenly, nonzero widths).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first inconsistency found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::new("nodes must be nonzero"));
        }
        if self.torus_width * self.torus_height != self.nodes {
            return Err(ConfigError::new(format!(
                "torus {}x{} does not cover {} nodes",
                self.torus_width, self.torus_height, self.nodes
            )));
        }
        for (name, bytes, ways) in [
            ("L1", self.l1_bytes, self.l1_ways),
            ("L2", self.l2_bytes, self.l2_ways),
        ] {
            if ways == 0 || bytes == 0 {
                return Err(ConfigError::new(format!("{name} geometry must be nonzero")));
            }
            let lines = bytes / crate::LINE_BYTES as usize;
            if !lines.is_multiple_of(ways) || lines == 0 {
                return Err(ConfigError::new(format!(
                    "{name}: {bytes} bytes is not divisible into {ways} ways of 64B lines"
                )));
            }
            if !(lines / ways).is_power_of_two() {
                return Err(ConfigError::new(format!(
                    "{name}: set count {} is not a power of two",
                    lines / ways
                )));
            }
        }
        if self.issue_width == 0 || self.rob_entries == 0 || self.mshrs == 0 {
            return Err(ConfigError::new("core parameters must be nonzero"));
        }
        if self.clock_ghz <= 0.0 {
            return Err(ConfigError::new("clock rate must be positive"));
        }
        Ok(())
    }
}

/// Builder for [`SystemConfig`] (non-consuming, [C-BUILDER]).
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    cfg: SystemConfig,
}

impl SystemConfigBuilder {
    /// Sets the node count. Remember to also set a matching [`torus`].
    ///
    /// [`torus`]: SystemConfigBuilder::torus
    pub fn nodes(&mut self, nodes: usize) -> &mut Self {
        self.cfg.nodes = nodes;
        self
    }

    /// Sets the torus dimensions (width x height must equal the node count).
    pub fn torus(&mut self, width: usize, height: usize) -> &mut Self {
        self.cfg.torus_width = width;
        self.cfg.torus_height = height;
        self
    }

    /// Sets L1 capacity/associativity.
    pub fn l1(&mut self, bytes: usize, ways: usize) -> &mut Self {
        self.cfg.l1_bytes = bytes;
        self.cfg.l1_ways = ways;
        self
    }

    /// Sets L2 capacity/associativity.
    pub fn l2(&mut self, bytes: usize, ways: usize) -> &mut Self {
        self.cfg.l2_bytes = bytes;
        self.cfg.l2_ways = ways;
        self
    }

    /// Sets memory latency in nanoseconds.
    pub fn memory_latency_ns(&mut self, ns: f64) -> &mut Self {
        self.cfg.memory_latency_ns = ns;
        self
    }

    /// Sets per-hop latency in nanoseconds.
    pub fn hop_latency_ns(&mut self, ns: f64) -> &mut Self {
        self.cfg.hop_latency_ns = ns;
        self
    }

    /// Sets the ROB capacity.
    pub fn rob_entries(&mut self, n: usize) -> &mut Self {
        self.cfg.rob_entries = n;
        self
    }

    /// Sets the peak issue/retire width.
    pub fn issue_width(&mut self, n: usize) -> &mut Self {
        self.cfg.issue_width = n;
        self
    }

    /// Sets the MSHR count.
    pub fn mshrs(&mut self, n: usize) -> &mut Self {
        self.cfg.mshrs = n;
        self
    }

    /// Finishes building, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is inconsistent; see
    /// [`SystemConfig::validate`].
    pub fn build(&self) -> Result<SystemConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg.clone())
    }
}

/// Parameters of the Temporal Streaming Engine.
///
/// Defaults are the paper's chosen operating point: 2 compared streams,
/// lookahead 8, 32-entry SVB, 256K-entry (1.5 MB) CMOB, 8 stream queues.
///
/// # Example
///
/// ```
/// use tse_types::TseConfig;
///
/// let tse = TseConfig::builder().lookahead(16).compared_streams(4).build()?;
/// assert_eq!(tse.lookahead, 16);
/// # Ok::<(), tse_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TseConfig {
    /// CMOB capacity in entries (addresses). Paper evaluates up to millions;
    /// chooses 1.5 MB = 256K six-byte entries.
    pub cmob_capacity: usize,
    /// Number of streams fetched and compared per stream head (`k`).
    /// Paper: 2 (Fig. 7 sweeps 1-4).
    pub compared_streams: usize,
    /// Stream lookahead: target number of streamed blocks kept outstanding
    /// ahead of the consumer. Paper: 8 for commercial, up to 24 for ocean.
    pub lookahead: usize,
    /// SVB capacity in entries (one 64-byte block each), `None` = unlimited.
    /// Paper: 32 entries (2 KB).
    pub svb_entries: Option<usize>,
    /// Number of stream queues, `None` = unlimited. Paper: small, no
    /// sensitivity observed (Section 5.3).
    pub stream_queues: Option<usize>,
    /// Number of CMOB pointers kept per directory entry. At least
    /// `compared_streams` are needed to fetch that many candidate streams.
    pub directory_pointers: usize,
    /// Addresses forwarded per CMOB read (chunk); a queue refills when it
    /// has drained half its chunk, per Section 3.3.
    pub chunk: usize,
    /// Whether the spin filter (exclude repeated misses to a contended
    /// line) is applied when recording consumptions.
    pub spin_filter: bool,
}

impl Default for TseConfig {
    fn default() -> Self {
        TseConfig {
            cmob_capacity: 256 * 1024,
            compared_streams: 2,
            lookahead: 8,
            svb_entries: Some(32),
            stream_queues: Some(8),
            directory_pointers: 2,
            chunk: 32,
            spin_filter: true,
        }
    }
}

impl TseConfig {
    /// Starts building a custom TSE configuration from the paper defaults.
    pub fn builder() -> TseConfigBuilder {
        TseConfigBuilder {
            cfg: TseConfig::default(),
        }
    }

    /// An "unconstrained hardware" configuration as used in the paper's
    /// opportunity studies (Fig. 7): unlimited SVB, queues and a
    /// near-infinite CMOB.
    pub fn unconstrained() -> Self {
        TseConfig {
            cmob_capacity: 1 << 24,
            svb_entries: None,
            stream_queues: None,
            ..TseConfig::default()
        }
    }

    /// CMOB footprint in bytes given an entry size.
    pub fn cmob_bytes(&self, entry_bytes: u64) -> u64 {
        self.cmob_capacity as u64 * entry_bytes
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any parameter is zero or if fewer
    /// directory pointers are kept than streams compared.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cmob_capacity == 0 {
            return Err(ConfigError::new("cmob_capacity must be nonzero"));
        }
        if self.compared_streams == 0 {
            return Err(ConfigError::new("compared_streams must be nonzero"));
        }
        if self.lookahead == 0 {
            return Err(ConfigError::new("lookahead must be nonzero"));
        }
        if self.chunk == 0 {
            return Err(ConfigError::new("chunk must be nonzero"));
        }
        if self.directory_pointers < self.compared_streams {
            return Err(ConfigError::new(format!(
                "directory keeps {} pointers but {} streams are compared",
                self.directory_pointers, self.compared_streams
            )));
        }
        if self.svb_entries == Some(0) || self.stream_queues == Some(0) {
            return Err(ConfigError::new("bounded resources must be nonzero"));
        }
        Ok(())
    }
}

/// Builder for [`TseConfig`] (non-consuming, [C-BUILDER]).
#[derive(Debug, Clone)]
pub struct TseConfigBuilder {
    cfg: TseConfig,
}

impl TseConfigBuilder {
    /// Sets the CMOB capacity in entries.
    pub fn cmob_capacity(&mut self, entries: usize) -> &mut Self {
        self.cfg.cmob_capacity = entries;
        self
    }

    /// Sets the number of compared streams `k`, raising the directory
    /// pointer count to match if needed.
    pub fn compared_streams(&mut self, k: usize) -> &mut Self {
        self.cfg.compared_streams = k;
        if self.cfg.directory_pointers < k {
            self.cfg.directory_pointers = k;
        }
        self
    }

    /// Sets the stream lookahead in blocks.
    pub fn lookahead(&mut self, blocks: usize) -> &mut Self {
        self.cfg.lookahead = blocks;
        self
    }

    /// Bounds the SVB to `entries` blocks (`None` = unlimited).
    pub fn svb_entries(&mut self, entries: Option<usize>) -> &mut Self {
        self.cfg.svb_entries = entries;
        self
    }

    /// Bounds the number of stream queues (`None` = unlimited).
    pub fn stream_queues(&mut self, queues: Option<usize>) -> &mut Self {
        self.cfg.stream_queues = queues;
        self
    }

    /// Sets the CMOB forwarding chunk size in addresses.
    pub fn chunk(&mut self, addresses: usize) -> &mut Self {
        self.cfg.chunk = addresses;
        self
    }

    /// Enables or disables the spin filter.
    pub fn spin_filter(&mut self, on: bool) -> &mut Self {
        self.cfg.spin_filter = on;
        self
    }

    /// Finishes building, validating the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is inconsistent; see
    /// [`TseConfig::validate`].
    pub fn build(&self) -> Result<TseConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Line;

    #[test]
    fn default_matches_table_1() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.nodes, 16);
        assert_eq!(cfg.torus_width * cfg.torus_height, 16);
        assert_eq!(cfg.l1_bytes, 64 * 1024);
        assert_eq!(cfg.l2_bytes, 8 * 1024 * 1024);
        assert_eq!(cfg.rob_entries, 256);
        assert_eq!(cfg.issue_width, 8);
        assert_eq!(cfg.mshrs, 32);
        cfg.validate().expect("paper config must validate");
    }

    #[test]
    fn ns_conversion_at_4ghz() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.ns_to_cycles(25.0).raw(), 100);
        assert_eq!(cfg.memory_latency().raw(), 240);
        assert_eq!(cfg.hop_latency().raw(), 100);
        let s = cfg.cycles_to_seconds(Cycle::new(4_000_000_000));
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn home_node_interleaves() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.home_node(Line::new(0)).index(), 0);
        assert_eq!(cfg.home_node(Line::new(17)).index(), 1);
        assert_eq!(cfg.home_node(Line::new(15)).index(), 15);
    }

    #[test]
    fn builder_rejects_bad_torus() {
        let err = SystemConfig::builder().nodes(5).torus(2, 2).build();
        assert!(err.is_err());
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("torus"), "unexpected message: {msg}");
    }

    #[test]
    fn builder_accepts_small_machine() {
        let cfg = SystemConfig::builder()
            .nodes(4)
            .torus(2, 2)
            .l1(16 * 1024, 2)
            .l2(256 * 1024, 8)
            .build()
            .unwrap();
        assert_eq!(cfg.nodes, 4);
        assert_eq!(cfg.l2_bytes, 256 * 1024);
    }

    #[test]
    fn validate_rejects_non_pow2_sets() {
        let cfg = SystemConfig {
            l1_bytes: 3 * 64, // 3 lines, 1 way -> 3 sets
            l1_ways: 1,
            ..SystemConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn tse_default_is_paper_operating_point() {
        let tse = TseConfig::default();
        assert_eq!(tse.compared_streams, 2);
        assert_eq!(tse.lookahead, 8);
        assert_eq!(tse.svb_entries, Some(32));
        assert_eq!(tse.cmob_bytes(6), 1536 * 1024); // 1.5 MB
        tse.validate().unwrap();
    }

    #[test]
    fn tse_builder_raises_pointer_count() {
        let tse = TseConfig::builder().compared_streams(4).build().unwrap();
        assert!(tse.directory_pointers >= 4);
    }

    #[test]
    fn tse_rejects_zero_lookahead() {
        let t = TseConfig {
            lookahead: 0,
            ..TseConfig::default()
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn unconstrained_has_unlimited_buffers() {
        let t = TseConfig::unconstrained();
        assert_eq!(t.svb_entries, None);
        assert_eq!(t.stream_queues, None);
        t.validate().unwrap();
    }

    #[test]
    fn config_types_are_serde() {
        // serde_json round-trips are exercised in the trace crate; here we
        // only assert the trait bounds hold.
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<SystemConfig>();
        assert_serde::<TseConfig>();
    }
}
