//! `ccnuma` — a CC-NUMA multiprocessor simulator reproducing
//! *Coherence Controller Architectures for SMP-Based CC-NUMA
//! Multiprocessors* (Michael, Nanda, Lim & Scott, ISCA 1997).
//!
//! The crate assembles the substrates from the sibling crates — caches and
//! memory (`ccn-mem`), the split-transaction SMP bus (`ccn-bus`), the
//! directory protocol and occupancy model (`ccn-protocol`), the controller
//! queueing/arbitration model (`ccn-controller`), the network (`ccn-net`)
//! and the workload kernels (`ccn-workloads`) — into a full machine, runs
//! execution-driven simulations, and regenerates the paper's tables and
//! figures.
//!
//! # Quickstart
//!
//! ```
//! use ccnuma::{Architecture, Machine, SystemConfig};
//! use ccn_workloads::micro::UniformSharing;
//!
//! // Compare HWC and PPC on a small machine.
//! let app = UniformSharing { touches_per_proc: 2_000, ..UniformSharing::default() };
//! let mut times = Vec::new();
//! for arch in [Architecture::Hwc, Architecture::Ppc] {
//!     let cfg = SystemConfig::small().with_architecture(arch);
//!     let report = Machine::new(cfg, &app).unwrap().run();
//!     times.push(report.exec_cycles);
//! }
//! assert!(times[1] >= times[0], "the protocol processor is never faster");
//! ```
//!
//! The [`experiments`] module exposes one entry point per paper table and
//! figure; the `repro` binary in `ccn-bench` drives them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
mod ccexec;
pub mod config;
pub mod experiments;
pub mod machine;
mod node;
pub mod observe;
pub mod probe;
pub mod report;
mod steps;
pub mod sweep;
pub mod sync;
pub mod tables;

pub use config::{Architecture, ConfigError, LatencyConfig, PlacementPolicy, SystemConfig};
pub use machine::{FunctionalSnapshot, Machine};
pub use report::{penalty, SimReport};
pub use sweep::{RunKey, RunRecord, Runner, SweepRecord, SweepStats};
