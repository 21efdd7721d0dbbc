//! Coherence-controller architectures: HWC, PPC, 2HWC and 2PPC.
//!
//! This crate models the part of the coherence controller that the paper's
//! comparison is about: the **dispatch controller** with its three input
//! queues and arbitration policy, the **protocol engines** (one or two,
//! custom FSM or commodity protocol processor) with their occupancy
//! statistics, and the **write-through directory cache** backed by
//! directory DRAM.
//!
//! What a handler *does* is defined in `ccn-protocol`; when its resource
//! accesses complete is computed by the machine model in `ccnuma`. Here
//! lives the queueing/arbitration behaviour whose saturation effects are
//! the paper's central result.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arch;
pub mod dircache;
pub mod dispatch;
pub mod policy;

pub use dircache::DirCache;
pub use dispatch::{
    CoherenceController, ControllerStats, EngineRole, EngineStats, NUM_ENGINE_ROLES,
};
pub use policy::EnginePolicy;
