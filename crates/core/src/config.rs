//! System configuration: the paper's Section 2 parameters.

use ccn_bus::BusConfig;
use ccn_controller::EnginePolicy;
use ccn_mem::CacheGeometry;
use ccn_net::NetConfig;
use ccn_protocol::{DirFormat, EngineKind, MAX_NODES};
use ccn_sim::Cycle;

/// Fixed latencies of the base system, in 5 ns CPU cycles (paper Table 1).
#[derive(Debug, Clone, Copy)]
pub struct LatencyConfig {
    /// L1 hit (pipelined load-to-use).
    pub l1_hit: Cycle,
    /// L1 miss that hits in the L2.
    pub l2_hit: Cycle,
    /// Detecting an L2 miss and requesting the bus (Table 3: 8).
    pub l2_miss_detect: Cycle,
    /// Snoop result to the request entering the controller's input queue.
    pub cc_request_latch: Cycle,
    /// Bus address strobe to start of data transfer from memory
    /// (Table 1: 20).
    pub mem_access: Cycle,
    /// Snoop-result to start of a cache-to-cache data transfer on the bus.
    pub cache_to_cache: Cycle,
    /// Memory-bank occupancy per line access.
    pub mem_bank_occupancy: Cycle,
    /// Number of interleaved memory banks per node.
    pub mem_banks: usize,
    /// L2 fill and processor-restart overhead after the critical beat.
    pub fill_overhead: Cycle,
    /// Directory DRAM access latency (directory-cache miss penalty).
    pub dir_dram_latency: Cycle,
    /// Directory DRAM occupancy per access.
    pub dir_dram_occupancy: Cycle,
    /// Barrier release overhead.
    pub barrier: Cycle,
    /// Uncontended lock acquisition.
    pub lock_acquire: Cycle,
    /// Contended lock hand-off.
    pub lock_handoff: Cycle,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            l1_hit: 1,
            l2_hit: 8,
            l2_miss_detect: 8,
            cc_request_latch: 2,
            mem_access: 20,
            cache_to_cache: 16,
            mem_bank_occupancy: 16,
            mem_banks: 4,
            fill_overhead: 8,
            dir_dram_latency: 16,
            dir_dram_occupancy: 12,
            barrier: 150,
            lock_acquire: 20,
            lock_handoff: 120,
        }
    }
}

/// How unhinted pages are assigned home nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// Round-robin by page index (the paper's default for all
    /// applications except FFT).
    #[default]
    RoundRobin,
    /// First-touch: a page is homed on the node of the first processor
    /// that accesses it. The paper reports this was *slightly inferior*
    /// for most applications "due to load imbalance, and memory and
    /// coherence controller contention as a result of uneven memory
    /// distribution"; the ablation harness reproduces that comparison.
    FirstTouch,
}

/// Full system configuration.
///
/// The default is the paper's base system: 16 SMP nodes × 4 processors,
/// 128-byte lines, 16 KB L1 + 1 MB 4-way L2, 100 MHz split-transaction
/// bus, 70 ns network, one protocol engine per controller.
///
/// # Example
///
/// ```
/// use ccnuma::SystemConfig;
/// use ccn_protocol::EngineKind;
///
/// let cfg = SystemConfig::base()
///     .with_engine(EngineKind::Ppc)
///     .with_procs_per_node(8);
/// assert_eq!(cfg.nprocs(), 128);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of SMP nodes.
    pub nodes: usize,
    /// Compute processors per node.
    pub procs_per_node: usize,
    /// Cache line size in bytes (paper: 128 base, 32 for Figure 7).
    pub line_bytes: u64,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Protocol-engine implementation (HWC or PPC).
    pub engine: EngineKind,
    /// Engine count and workload-split policy.
    pub engines: EnginePolicy,
    /// Page-placement policy for pages without explicit hints.
    pub placement: PlacementPolicy,
    /// Whether the bus→network direct data path is present (Section 2.2:
    /// both designs forward dirty-remote write-backs straight to the
    /// network "without waiting for protocol handler dispatch"). Disable
    /// for the ablation.
    pub direct_data_path: bool,
    /// Replacement-hint extension: clean shared evictions notify the home
    /// so the directory sheds stale presence bits (default off — the
    /// paper's protocol drops clean copies silently).
    pub replacement_hints: bool,
    /// Directory-cache entries (paper: 8 K).
    pub dir_cache_entries: u64,
    /// Directory sharer representation (full-map, coarse vector, limited
    /// pointers, or sparse). The paper's protocol is full-map; the
    /// alternatives trade precision for storage at large node counts.
    pub dir_format: DirFormat,
    /// Optional L2 capacity override in bytes (`None` = the paper's 1 MB).
    /// Verification workloads shrink the L2 so cache-pressure corner cases
    /// (evictions, write-back races) appear without millions of touches
    /// and so a full-cache flush epilogue stays cheap.
    pub l2_bytes: Option<u64>,
    /// Fixed latencies.
    pub lat: LatencyConfig,
    /// SMP bus timing.
    pub bus: BusConfig,
    /// Network timing.
    pub net: NetConfig,
}

impl SystemConfig {
    /// The paper's base system configuration (HWC, one engine).
    pub fn base() -> Self {
        SystemConfig {
            nodes: 16,
            procs_per_node: 4,
            line_bytes: 128,
            page_bytes: 4096,
            engine: EngineKind::Hwc,
            engines: EnginePolicy::Single,
            placement: PlacementPolicy::RoundRobin,
            direct_data_path: true,
            replacement_hints: false,
            dir_cache_entries: 8192,
            dir_format: DirFormat::FullMap,
            l2_bytes: None,
            lat: LatencyConfig::default(),
            bus: BusConfig::default(),
            net: NetConfig::default(),
        }
    }

    /// A small 4-node × 2-processor system for tests and examples.
    pub fn small() -> Self {
        SystemConfig {
            nodes: 4,
            procs_per_node: 2,
            ..SystemConfig::base()
        }
    }

    /// Sets the protocol-engine implementation.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the engine count and workload-split policy.
    pub fn with_engines(mut self, engines: EnginePolicy) -> Self {
        self.engines = engines;
        self
    }

    /// Selects one of the paper's four controller architectures by name:
    /// HWC, PPC, 2HWC or 2PPC.
    pub fn with_architecture(mut self, arch: Architecture) -> Self {
        self.engine = arch.engine();
        self.engines = arch.engines();
        self
    }

    /// Sets the cache-line size (Figure 7 uses 32 bytes).
    pub fn with_line_bytes(mut self, line_bytes: u64) -> Self {
        self.line_bytes = line_bytes;
        self
    }

    /// Sets the node count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Sets the processors-per-node count (Figure 10 sweeps 1/2/4/8).
    pub fn with_procs_per_node(mut self, procs: usize) -> Self {
        self.procs_per_node = procs;
        self
    }

    /// Sets the network configuration (Figure 8 uses `NetConfig::slow()`).
    pub fn with_net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Sets the page-placement policy.
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Overrides the L2 capacity (the default is the paper's 1 MB).
    pub fn with_l2_bytes(mut self, bytes: u64) -> Self {
        self.l2_bytes = Some(bytes);
        self
    }

    /// Sets the directory sharer representation.
    pub fn with_dir_format(mut self, format: DirFormat) -> Self {
        self.dir_format = format;
        self
    }

    /// Total processors.
    pub fn nprocs(&self) -> usize {
        self.nodes * self.procs_per_node
    }

    /// L1 geometry for this configuration.
    pub fn l1_geometry(&self) -> CacheGeometry {
        CacheGeometry::l1(self.line_bytes)
    }

    /// L2 geometry for this configuration.
    pub fn l2_geometry(&self) -> CacheGeometry {
        match self.l2_bytes {
            None => CacheGeometry::l2(self.line_bytes),
            Some(size_bytes) => CacheGeometry {
                size_bytes,
                line_bytes: self.line_bytes,
                ways: CacheGeometry::l2(self.line_bytes).ways,
            },
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::new("node count must be at least 1"));
        }
        if self.nodes > usize::from(MAX_NODES) {
            return Err(ConfigError::new(format!(
                "{} nodes exceed the `{}` directory format's capacity of {MAX_NODES} nodes",
                self.nodes,
                self.dir_format.label(),
            )));
        }
        if self.procs_per_node == 0 || self.procs_per_node > 64 {
            return Err(ConfigError::new("processors per node must be in 1..=64"));
        }
        if !self.line_bytes.is_power_of_two() || self.line_bytes < 16 {
            return Err(ConfigError::new("line size must be a power of two >= 16"));
        }
        if !self.page_bytes.is_power_of_two() || self.page_bytes < self.line_bytes {
            return Err(ConfigError::new(
                "page size must be a power of two >= line size",
            ));
        }
        if self.engines.engines() > 8 {
            return Err(ConfigError::new(
                "more than 8 protocol engines is unrealistic",
            ));
        }
        if !self.dir_cache_entries.is_power_of_two() {
            return Err(ConfigError::new(
                "directory-cache entries must be a power of two",
            ));
        }
        if let Some(bytes) = self.l2_bytes {
            let geom = self.l2_geometry();
            let lines_per_way = bytes / (self.line_bytes * geom.ways as u64);
            if lines_per_way == 0 || !lines_per_way.is_power_of_two() {
                return Err(ConfigError::new(
                    "L2 override must hold a power-of-two number of sets",
                ));
            }
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::base()
    }
}

/// The four coherence-controller architectures compared by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Custom hardware, one protocol FSM.
    Hwc,
    /// Commodity protocol processor, one engine.
    Ppc,
    /// Custom hardware, two protocol FSMs (LPE + RPE).
    TwoHwc,
    /// Two commodity protocol processors (LPE + RPE).
    TwoPpc,
}

impl Architecture {
    /// All four, in the paper's presentation order.
    pub fn all() -> [Architecture; 4] {
        [
            Architecture::Hwc,
            Architecture::TwoHwc,
            Architecture::Ppc,
            Architecture::TwoPpc,
        ]
    }

    /// The engine implementation: custom hardware or a protocol processor.
    pub fn engine(self) -> EngineKind {
        match self {
            Architecture::Hwc | Architecture::TwoHwc => EngineKind::Hwc,
            Architecture::Ppc | Architecture::TwoPpc => EngineKind::Ppc,
        }
    }

    /// The engine policy: one engine, or a local/remote pair.
    pub fn engines(self) -> EnginePolicy {
        match self {
            Architecture::Hwc | Architecture::Ppc => EnginePolicy::Single,
            Architecture::TwoHwc | Architecture::TwoPpc => EnginePolicy::LocalRemote,
        }
    }

    /// The paper's label; reports derive the same string from the engine
    /// kind and policy ([`ccn_controller::arch::report_label`]).
    pub fn name(self) -> &'static str {
        match self {
            Architecture::Hwc => "HWC",
            Architecture::Ppc => "PPC",
            Architecture::TwoHwc => "2HWC",
            Architecture::TwoPpc => "2PPC",
        }
    }
}

/// A configuration-validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_paper() {
        let cfg = SystemConfig::base();
        assert_eq!(cfg.nprocs(), 64);
        assert_eq!(cfg.line_bytes, 128);
        assert_eq!(cfg.l2_geometry().size_bytes, 1024 * 1024);
        cfg.validate().unwrap();
    }

    #[test]
    fn architecture_mapping() {
        assert_eq!(Architecture::Hwc.engine(), EngineKind::Hwc);
        assert_eq!(Architecture::TwoPpc.engine(), EngineKind::Ppc);
        assert_eq!(Architecture::TwoPpc.engines(), EnginePolicy::LocalRemote);
        assert_eq!(Architecture::Hwc.engines(), EnginePolicy::Single);
        assert_eq!(Architecture::all().len(), 4);
    }

    #[test]
    fn paper_architectures_label_as_their_names() {
        for arch in Architecture::all() {
            let label = ccn_controller::arch::report_label(arch.engines(), arch.engine());
            assert_eq!(label, arch.name());
        }
    }

    #[test]
    fn builder_chain() {
        let cfg = SystemConfig::base()
            .with_architecture(Architecture::TwoPpc)
            .with_line_bytes(32)
            .with_nodes(8)
            .with_procs_per_node(8);
        assert_eq!(cfg.nprocs(), 64);
        assert_eq!(cfg.engine, EngineKind::Ppc);
        assert_eq!(cfg.engines, EnginePolicy::LocalRemote);
        cfg.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(SystemConfig::base().with_nodes(0).validate().is_err());
        assert!(SystemConfig::base().with_line_bytes(96).validate().is_err());
        assert!(SystemConfig {
            dir_cache_entries: 100,
            ..SystemConfig::base()
        }
        .validate()
        .is_err());
        let mut cfg = SystemConfig::base();
        cfg.page_bytes = 64;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn oversized_machines_name_the_format_and_its_limit() {
        let err = SystemConfig::base()
            .with_nodes(2000)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("`full`"), "{err}");
        assert!(err.contains("1024"), "{err}");
        let err = SystemConfig::base()
            .with_dir_format(DirFormat::Limited { ptrs: 4 })
            .with_nodes(4096)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("limited:4"), "{err}");
        SystemConfig::base()
            .with_nodes(1024)
            .with_procs_per_node(1)
            .validate()
            .unwrap();
    }
}
