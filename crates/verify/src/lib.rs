//! `ccn-verify` — protocol verification for the CC-NUMA reproduction.
//!
//! Two independent layers of assurance over the coherence machinery:
//!
//! 1. **Bounded exhaustive model checking** ([`model`], [`mod@explore`]):
//!    an explicit-state transition system that runs the simulator's own
//!    controller handlers ([`ccn_protocol::exec`]) and directory on an
//!    untimed node model, enumerating every message interleaving on
//!    small configurations (2–4 nodes, 1–2 lines).
//!    Checked invariants: single-writer/multiple-reader, data currency
//!    (every readable copy holds the latest committed write), guaranteed
//!    drain to quiescence, and quiescent directory/cache/memory
//!    agreement. Violations come with a BFS-shortest, greedily shrunk
//!    ([`shrink`]) counterexample printed as a message sequence.
//!
//! 2. **Differential conformance** ([`differential`]): identical
//!    randomized workloads run through the full timed simulator on all
//!    four controller architectures (HWC, PPC, 2HWC, 2PPC) must produce
//!    bit-identical functional outcomes. The module owns the workloads;
//!    they run through `ccn-scenario`'s conformance sweep
//!    ([`ccn_scenario::run_agreement`]), the one the scenario DSL uses.
//!
//! The `repro verify` target in `ccn-bench` drives both; the root
//! `tests/verify_bounded.rs` and `tests/conformance.rs` suites pin them
//! into CI. See `docs/VERIFY.md` for the methodology, including the
//! message-ordering model ([`model::Ordering`]) and the seeded-mutation
//! validation of the checker itself ([`model::Mutation`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod differential;
pub mod explore;
pub mod model;
pub mod shrink;

pub use differential::{conformance_cases, run_case, run_conformance, ConfApp, ConfCase};
pub use explore::{explore, Bounds, Report, Step, Violation};
pub use model::{CopyState, Label, ModelConfig, ModelState, Mutation, Ordering};
pub use shrink::{minimize, replay, shrink_trace};
