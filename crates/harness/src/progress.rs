//! Live progress/ETA lines and the end-of-run sweep summary.
//!
//! All telemetry goes to **stderr**: stdout carries the result tables,
//! which must stay byte-identical across worker counts, while the
//! progress stream is timing-dependent by nature.

use std::time::{Duration, Instant};

use ccn_sim::stats::Accumulator;

use crate::pool::{JobOutcome, JobStatus};

/// Estimated seconds remaining given progress so far (simple linear
/// extrapolation; good enough for sweeps of similar-cost jobs).
pub fn eta_secs(done: usize, total: usize, elapsed: Duration) -> f64 {
    if done == 0 || total <= done {
        return 0.0;
    }
    elapsed.as_secs_f64() / done as f64 * (total - done) as f64
}

/// Formats a duration as compact `1m23s` / `4.2s` / `870ms`.
pub fn human_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 60.0 {
        format!("{}m{:02}s", (secs / 60.0) as u64, (secs % 60.0) as u64)
    } else if secs >= 1.0 {
        format!("{secs:.1}s")
    } else {
        format!("{}ms", d.as_millis())
    }
}

/// Per-sweep progress state, updated under the pool's completion lock.
pub(crate) struct ProgressMeter {
    total: usize,
    done: usize,
    enabled: bool,
    started: Instant,
}

impl ProgressMeter {
    pub(crate) fn new(total: usize, enabled: bool, started: Instant) -> Self {
        ProgressMeter {
            total,
            done: 0,
            enabled,
            started,
        }
    }

    pub(crate) fn note<O>(&mut self, id: &str, outcome: &JobOutcome<O>) {
        self.done += 1;
        if !self.enabled {
            return;
        }
        let elapsed = self.started.elapsed();
        let eta = eta_secs(self.done, self.total, elapsed);
        let verdict = match &outcome.status {
            JobStatus::Ok(_) => "ok",
            JobStatus::Failed(_) => "FAILED",
        };
        eprintln!(
            "[harness] {}/{} ({:.0}%) elapsed {} eta {} | {} {} in {}",
            self.done,
            self.total,
            self.done as f64 / self.total.max(1) as f64 * 100.0,
            human_duration(elapsed),
            human_duration(Duration::from_secs_f64(eta)),
            id,
            verdict,
            human_duration(Duration::from_millis(outcome.wall_ms)),
        );
    }
}

/// Aggregate telemetry for one sweep.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Jobs in the sweep.
    pub total: usize,
    /// Jobs that produced a value.
    pub succeeded: usize,
    /// `(job id, panic message)` for jobs that panicked.
    pub failed: Vec<(String, String)>,
    /// Per-job wall time statistics, in milliseconds.
    pub wall_ms: Accumulator,
    /// End-to-end sweep time.
    pub elapsed: Duration,
    /// The slowest jobs, `(id, wall ms)`, slowest first (up to 5).
    pub slowest: Vec<(String, u64)>,
}

impl SweepSummary {
    /// Builds the summary from per-job outcomes (ids and outcomes zip in
    /// input order).
    pub fn from_outcomes<'a, O>(
        ids: impl Iterator<Item = &'a str>,
        outcomes: &[JobOutcome<O>],
        elapsed: Duration,
    ) -> Self {
        let mut wall_ms = Accumulator::new();
        let mut failed = Vec::new();
        let mut timed: Vec<(String, u64)> = Vec::with_capacity(outcomes.len());
        for (id, o) in ids.zip(outcomes) {
            wall_ms.record(o.wall_ms as f64);
            timed.push((id.to_string(), o.wall_ms));
            if let JobStatus::Failed(msg) = &o.status {
                failed.push((id.to_string(), msg.clone()));
            }
        }
        timed.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        timed.truncate(5);
        SweepSummary {
            total: outcomes.len(),
            succeeded: outcomes.len() - failed.len(),
            failed,
            wall_ms,
            elapsed,
            slowest: timed,
        }
    }

    /// Renders the end-of-run report (multi-line, for stderr).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "[harness] sweep done: {}/{} jobs ok, {} failed, {} wall",
            self.succeeded,
            self.total,
            self.failed.len(),
            human_duration(self.elapsed),
        );
        if self.wall_ms.count() > 0 {
            let _ = writeln!(
                out,
                "[harness] per-job wall: mean {} min {} max {}",
                human_duration(Duration::from_millis(self.wall_ms.mean() as u64)),
                human_duration(Duration::from_millis(
                    self.wall_ms.min().unwrap_or(0.0) as u64
                )),
                human_duration(Duration::from_millis(
                    self.wall_ms.max().unwrap_or(0.0) as u64
                )),
            );
        }
        if !self.slowest.is_empty() {
            let _ = writeln!(out, "[harness] slowest jobs:");
            for (id, ms) in &self.slowest {
                let _ = writeln!(
                    out,
                    "[harness]   {} {}",
                    human_duration(Duration::from_millis(*ms)),
                    id
                );
            }
        }
        for (id, msg) in &self.failed {
            let _ = writeln!(out, "[harness] FAILED {id}: {msg}");
        }
        out
    }

    /// Merges another sweep's summary into this one (used when a run
    /// spans several targets).
    pub fn merge(&mut self, other: &SweepSummary) {
        self.total += other.total;
        self.succeeded += other.succeeded;
        self.failed.extend(other.failed.iter().cloned());
        self.wall_ms.merge(&other.wall_ms);
        self.elapsed += other.elapsed;
        let mut slowest = std::mem::take(&mut self.slowest);
        slowest.extend(other.slowest.iter().cloned());
        slowest.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        slowest.truncate(5);
        self.slowest = slowest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_extrapolates_linearly() {
        assert_eq!(eta_secs(0, 10, Duration::from_secs(5)), 0.0);
        assert_eq!(eta_secs(10, 10, Duration::from_secs(5)), 0.0);
        let eta = eta_secs(2, 10, Duration::from_secs(4));
        assert!((eta - 16.0).abs() < 1e-9);
    }

    #[test]
    fn durations_humanize() {
        assert_eq!(human_duration(Duration::from_millis(870)), "870ms");
        assert_eq!(human_duration(Duration::from_secs_f64(4.25)), "4.2s");
        assert_eq!(human_duration(Duration::from_secs(83)), "1m23s");
    }

    #[test]
    fn summary_aggregates_and_merges() {
        use crate::pool::JobStatus;
        let outcomes = vec![
            JobOutcome {
                wall_ms: 100,
                status: JobStatus::Ok(1u8),
            },
            JobOutcome {
                wall_ms: 300,
                status: JobStatus::Failed("boom".into()),
            },
        ];
        let mut a =
            SweepSummary::from_outcomes(["a", "b"].into_iter(), &outcomes, Duration::from_secs(1));
        assert_eq!(a.total, 2);
        assert_eq!(a.succeeded, 1);
        assert_eq!(a.slowest[0], ("b".to_string(), 300));
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.total, 4);
        assert_eq!(a.wall_ms.count(), 4);
        assert_eq!(a.failed.len(), 2);
        let rendered = a.render();
        assert!(rendered.contains("sweep done"));
        assert!(rendered.contains("FAILED b: boom"));
    }
}
