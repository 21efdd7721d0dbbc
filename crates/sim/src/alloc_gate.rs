//! Measured-phase allocation gate.
//!
//! The zero-alloc steady-state claim is enforced, not asserted: perfbench
//! (`perfbench/src/sim.rs`, its `core.steady_allocs` metric) and the
//! `flight_alloc` integration test each install a counting global
//! allocator, and this module is the rendezvous between that allocator
//! and the machine model. A run [`request`]s counting before it starts;
//! the machine calls [`phase_start`] when it resets statistics at the
//! start of the measured phase and [`phase_end`] when the event loop
//! drains, so the window covers exactly the steady-state event
//! processing — warm-up, report assembly and artifact writing stay
//! outside it.
//!
//! Everything is `Relaxed` atomics: the gate observes one simulation at a
//! time, and the counters are diagnostics, not synchronization.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// A run has asked for the next measured phase to be counted.
static REQUESTED: AtomicBool = AtomicBool::new(false);
/// Counting is live (between `phase_start` and `phase_end`).
static ARMED: AtomicBool = AtomicBool::new(false);
/// Heap allocations observed while armed.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by those allocations.
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Arms the gate for the next measured phase: the first [`phase_start`]
/// after this call starts counting. Resets the counters.
pub fn request() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    REQUESTED.store(true, Relaxed);
}

/// The measured phase began. Starts counting if a run [`request`]ed it;
/// otherwise a no-op, so simulations outside a gated run never pay for
/// or reset the gate.
pub fn phase_start() {
    if REQUESTED.swap(false, Relaxed) {
        ALLOCS.store(0, Relaxed);
        BYTES.store(0, Relaxed);
        ARMED.store(true, Relaxed);
    }
}

/// The measured phase ended; stops counting. Idempotent.
pub fn phase_end() {
    ARMED.store(false, Relaxed);
}

/// Records one heap allocation of `bytes` bytes if the gate is armed.
/// Called by the counting global allocator on every `alloc`/`realloc`.
#[inline]
pub fn note(bytes: usize) {
    if ARMED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

/// Whether the gate is currently counting. Lets a counting allocator
/// offer extra diagnostics (e.g. backtraces) only while the measured
/// phase is live.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Relaxed)
}

/// `(allocations, bytes)` counted during the last armed phase.
pub fn counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), BYTES.load(Relaxed))
}

/// Cancels any pending request and stops counting (test hygiene).
pub fn reset() {
    REQUESTED.store(false, Relaxed);
    ARMED.store(false, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_only_between_phase_start_and_end() {
        reset();
        note(100); // not armed: ignored
        request();
        note(100); // requested but phase not started: ignored
        phase_start();
        note(8);
        note(16);
        phase_end();
        note(100); // after the phase: ignored
        assert_eq!(counts(), (2, 24));
        // A phase without a request counts nothing.
        phase_start();
        note(100);
        phase_end();
        assert_eq!(counts(), (2, 24));
        reset();
    }
}
