//! `ccn-scenario` — declarative workload scenarios and trace replay.
//!
//! The paper evaluates its four controller architectures on eight SPLASH-2
//! scientific kernels. This crate opens the machine to *datacenter-style*
//! traffic through two frontends that both lower to the ordinary
//! [`ccn_workloads::Application`] machinery, so every new workload runs on
//! the unmodified timed simulator:
//!
//! * **The scenario DSL** ([`spec`], [`phase`], [`Scenario`]) — a small
//!   in-tree JSON format describing a barrier-separated graph of typed
//!   traffic phases (producer/consumer rings, lock convoys, reader-heavy
//!   key-value lookup, skewed Zipf sharing, migratory objects,
//!   false-sharing storms, …) with per-phase node sets, intensities, and
//!   seeds. A spec compiles deterministically into per-processor segment
//!   programs: same spec + seed ⇒ identical access streams, every run,
//!   every `--jobs` count.
//! * **Binary traces** ([`trace`]) — a versioned, length-prefixed binary
//!   format capturing any workload's exact per-processor operation stream
//!   ([`trace::record`]) and an application that replays a trace
//!   byte-for-byte ([`trace::TraceReplay`]), reproducing the original
//!   run's `SimReport` exactly.
//!
//! The [`sweep`] module holds the workspace's one conformance path,
//! [`run_agreement`]: applications run through the `ccn-harness` worker
//! pool on all four architectures and the timing-independent functional
//! outcome must agree bit-for-bit. Scenarios take it with the scrub
//! epilogue on (the default), and the `ccn-verify` differential cases
//! call it with their randomized workloads.
//!
//! The `repro scenario run|record|replay|list|check` CLI in `ccn-bench`
//! drives all of this; `docs/SCENARIOS.md` documents the spec format, the
//! phase catalog, and the trace layout.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod phase;
pub mod scenario;
pub mod spec;
pub mod sweep;
pub mod trace;
pub mod zipf;

pub use phase::{PhaseKind, NODE_SETS, PHASE_KINDS};
pub use scenario::Scenario;
pub use spec::{NodeSet, PhaseSpec, ScenarioSpec, SpecError};
pub use sweep::{
    run_agreement, run_checked, run_scenario_conformance, scenario_config, shape_of,
    ConformanceRecord, SCENARIO_EVENT_LIMIT, SCENARIO_L2_BYTES,
};
pub use trace::{record, record_with_limit, Trace, TraceError, TraceReplay};
pub use zipf::Zipf;
