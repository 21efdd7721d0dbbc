//! Discrete-event simulation engine for the CC-NUMA coherence-controller study.
//!
//! This crate is the timing substrate shared by every other crate in the
//! workspace. It provides:
//!
//! * [`EventQueue`] — a deterministic time-ordered event queue. Events with
//!   equal timestamps are delivered in insertion order, so a simulation run
//!   is exactly reproducible.
//! * [`Server`] — a FIFO *reservation server* used to model bandwidth
//!   resources (bus address slots, data buses, memory banks, directory DRAM,
//!   network ports). A client asks for the resource at time `t` for `d`
//!   cycles and receives the grant time; the server records utilization and
//!   queueing-delay statistics as a side effect.
//! * [`Port`] — a typed message endpoint that wraps a payload into the
//!   queue's event type, so components talk to each other through named
//!   channels instead of scheduling raw events ad hoc.
//! * [`Component`] — the statistics spine: one interface through which a
//!   machine model walks every hardware component for snapshots
//!   ([`ComponentStats`]) and measurement-window resets.
//! * [`stats`] — counters and running means used to produce the paper's
//!   communication statistics (Tables 6 and 7).
//! * [`SplitMix64`] — a tiny deterministic RNG for components that need
//!   reproducible pseudo-randomness without pulling in an external crate.
//!
//! Time is measured in **compute-processor cycles** of 5 ns (200 MHz), the
//! unit used throughout the ISCA '97 paper. The SMP bus and the controllers
//! run at 100 MHz, i.e. one bus cycle is [`CPU_CYCLES_PER_BUS_CYCLE`] CPU
//! cycles.
//!
//! # Example
//!
//! ```
//! use ccn_sim::{EventQueue, Server};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.schedule(10, "fire");
//! let mut server = Server::new("bus");
//! let grant = server.acquire(5, 4); // busy 5..9
//! assert_eq!(grant, 5);
//! assert_eq!(server.acquire(6, 4), 9); // queued behind the first use
//! let (time, event) = queue.pop().unwrap();
//! assert_eq!((time, event), (10, "fire"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc_gate;
pub mod component;
mod event;
pub mod hash;
pub mod pool;
mod port;
mod rng;
mod server;
pub mod stats;

pub use component::{Component, ComponentStats};
pub use event::EventQueue;
pub use hash::{FxHashMap, FxHashSet};
pub use port::Port;
pub use rng::SplitMix64;
pub use server::Server;
pub use stats::Histogram;

/// Simulation time in compute-processor cycles (5 ns each, 200 MHz).
pub type Cycle = u64;

/// Number of CPU cycles per 100 MHz bus/controller cycle.
pub const CPU_CYCLES_PER_BUS_CYCLE: Cycle = 2;

/// Duration of one compute-processor cycle in nanoseconds.
pub const NS_PER_CPU_CYCLE: f64 = 5.0;

/// Converts a cycle count to nanoseconds.
///
/// ```
/// assert_eq!(ccn_sim::cycles_to_ns(14), 70.0); // network point-to-point
/// ```
pub fn cycles_to_ns(cycles: Cycle) -> f64 {
    cycles as f64 * NS_PER_CPU_CYCLE
}

/// Converts nanoseconds to a cycle count, rounding to the nearest cycle.
///
/// ```
/// assert_eq!(ccn_sim::ns_to_cycles(70.0), 14);
/// ```
pub fn ns_to_cycles(ns: f64) -> Cycle {
    (ns / NS_PER_CPU_CYCLE).round() as Cycle
}
