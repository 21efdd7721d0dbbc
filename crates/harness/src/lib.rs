//! `ccn-harness` — parallel experiment orchestration for the CC-NUMA
//! reproduction.
//!
//! The paper's headline results come from sweeping controller
//! architectures × applications × machine configurations: an
//! embarrassingly parallel grid of deterministic simulations. This crate
//! industrializes that sweep:
//!
//! * **Deterministic jobs** — a [`Job`] pairs a stable string id with its
//!   input, so a job means the same thing no matter which worker runs it,
//!   in which order, in which process.
//! * **Panic isolation** — [`run_jobs`] executes each job once on a
//!   `std::thread` pool under `catch_unwind`: one diverging simulation
//!   fails its own job and cannot kill a multi-hour sweep. Jobs are
//!   deterministic, so a failed job is not retried.
//! * **Incremental checkpointing** — the [`checkpoint`] module appends
//!   each completed job as a JSON line and lets a restarted sweep skip
//!   everything already recorded.
//! * **Telemetry** — live progress/ETA lines on stderr and an
//!   end-of-run [`SweepSummary`] (slowest jobs, failures).
//!
//! Determinism contract: per-job results depend only on the job itself,
//! and [`run_jobs`] returns outcomes in input order, so a sweep's
//! assembled output is byte-identical whether it ran on 1 worker or 8 —
//! the property `repro --jobs N` relies on.
//!
//! The crate is std-only (plus the in-tree `ccn-sim` statistics
//! primitives) so the workspace keeps building with no registry access.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod json;
pub mod pool;
pub mod progress;

pub use checkpoint::{Checkpoint, CheckpointEntry, CheckpointWriter};
pub use json::Json;
pub use pool::{run_jobs, JobOutcome, JobStatus, SweepResult};
pub use progress::SweepSummary;

/// One unit of work in a sweep.
#[derive(Debug, Clone)]
pub struct Job<I> {
    /// Stable identifier: names the job in checkpoints and telemetry.
    /// Two jobs with equal ids are the same job.
    pub id: String,
    /// The experiment-specific payload.
    pub input: I,
}

impl<I> Job<I> {
    /// Creates a job named `id`.
    pub fn new(id: impl Into<String>, input: I) -> Self {
        Job {
            id: id.into(),
            input,
        }
    }
}

/// Worker-pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (clamped to at least 1 and at most the job count).
    pub workers: usize,
    /// Emit live progress/ETA lines to stderr.
    pub progress: bool,
}

/// The machine's available parallelism, falling back to 1 when the
/// platform cannot report it.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
