//! The panic-isolated worker pool.
//!
//! Jobs are pulled from a shared index counter by `workers` scoped
//! threads. Each job runs once under [`std::panic::catch_unwind`]: a
//! diverging or asserting simulation is reported failed while the rest of
//! the sweep keeps running. Jobs are deterministic, so a second attempt
//! would repeat the first and none is made.
//!
//! Results come back indexed by the job's position in the input slice, so
//! the caller sees the same ordering no matter how many workers ran or
//! how execution interleaved — the foundation of the harness's
//! determinism guarantee.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::progress::{ProgressMeter, SweepSummary};
use crate::{Job, PoolConfig};

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus<O> {
    /// The worker closure returned a value.
    Ok(O),
    /// The job panicked; the panic's payload.
    Failed(String),
}

/// One job's execution record.
#[derive(Debug, Clone)]
pub struct JobOutcome<O> {
    /// Wall time of the job, in milliseconds.
    pub wall_ms: u64,
    /// The final status.
    pub status: JobStatus<O>,
}

impl<O> JobOutcome<O> {
    /// The success value, if any.
    pub fn ok(&self) -> Option<&O> {
        match &self.status {
            JobStatus::Ok(v) => Some(v),
            JobStatus::Failed(_) => None,
        }
    }
}

/// The result of a sweep: per-job outcomes (input order) plus telemetry.
#[derive(Debug)]
pub struct SweepResult<O> {
    /// One outcome per input job, in input order.
    pub outcomes: Vec<JobOutcome<O>>,
    /// Aggregate telemetry for the end-of-run report.
    pub summary: SweepSummary,
}

impl<O> SweepResult<O> {
    /// True when every job succeeded.
    pub fn all_ok(&self) -> bool {
        self.summary.failed.is_empty()
    }
}

/// Runs `jobs` on a worker pool, calling `work` for each.
///
/// `on_done` is invoked exactly once per job, serialized under a lock, in
/// *completion* order — it is where callers append checkpoints. The
/// returned outcomes are in *input* order regardless.
pub fn run_jobs<I, O, F, C>(
    jobs: &[Job<I>],
    cfg: &PoolConfig,
    work: F,
    mut on_done: C,
) -> SweepResult<O>
where
    I: Sync,
    O: Send,
    F: Fn(&Job<I>) -> O + Sync,
    C: FnMut(&Job<I>, &JobOutcome<O>) + Send,
{
    let started = Instant::now();
    let workers = cfg.workers.max(1).min(jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<JobOutcome<O>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    let meter = Mutex::new(ProgressMeter::new(jobs.len(), cfg.progress, started));
    // `on_done` runs under the same lock as the meter so checkpoint lines
    // and progress output interleave sanely.
    let sink = Mutex::new(&mut on_done);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= jobs.len() {
                    break;
                }
                let job = &jobs[index];
                let outcome = run_isolated(job, &work);
                {
                    let mut sink = sink.lock().expect("completion sink lock");
                    meter.lock().expect("progress lock").note(&job.id, &outcome);
                    sink(job, &outcome);
                }
                slots.lock().expect("result slots lock")[index] = Some(outcome);
            });
        }
    });

    let outcomes: Vec<JobOutcome<O>> = slots
        .into_inner()
        .expect("result slots lock")
        .into_iter()
        .map(|slot| slot.expect("every job index was claimed by a worker"))
        .collect();
    let summary = SweepSummary::from_outcomes(
        jobs.iter().map(|j| j.id.as_str()),
        &outcomes,
        started.elapsed(),
    );
    SweepResult { outcomes, summary }
}

fn run_isolated<I, O, F>(job: &Job<I>, work: &F) -> JobOutcome<O>
where
    F: Fn(&Job<I>) -> O,
{
    let started = Instant::now();
    let status = match catch_unwind(AssertUnwindSafe(|| work(job))) {
        Ok(value) => JobStatus::Ok(value),
        Err(payload) => JobStatus::Failed(panic_message(payload.as_ref())),
    };
    JobOutcome {
        wall_ms: started.elapsed().as_millis() as u64,
        status,
    }
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn quiet(workers: usize) -> PoolConfig {
        PoolConfig {
            workers,
            progress: false,
        }
    }

    fn jobs(n: u64) -> Vec<Job<u64>> {
        (0..n).map(|i| Job::new(format!("job/{i}"), i)).collect()
    }

    #[test]
    fn outcomes_preserve_input_order_across_worker_counts() {
        let js = jobs(40);
        let run = |workers| {
            run_jobs(&js, &quiet(workers), |job| job.input * 3, |_, _| {})
                .outcomes
                .into_iter()
                .map(|o| *o.ok().unwrap())
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        assert_eq!(serial, (0..40).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(serial, run(8));
    }

    #[test]
    fn panicking_job_runs_once_then_fails_without_aborting_the_sweep() {
        let js = jobs(10);
        let runs_of_job_3 = AtomicU32::new(0);
        let result = run_jobs(
            &js,
            &quiet(4),
            |job| {
                if job.input == 3 {
                    runs_of_job_3.fetch_add(1, Ordering::Relaxed);
                    panic!("injected divergence");
                }
                job.input
            },
            |_, _| {},
        );
        // The poisoned job ran once: a deterministic job is not retried…
        assert_eq!(runs_of_job_3.load(Ordering::Relaxed), 1);
        assert_eq!(
            result.outcomes[3].status,
            JobStatus::Failed("injected divergence".to_string())
        );
        // …and every other job still completed.
        for (i, o) in result.outcomes.iter().enumerate() {
            if i != 3 {
                assert_eq!(o.ok(), Some(&(i as u64)), "job {i}");
            }
        }
        assert!(!result.all_ok());
        assert_eq!(result.summary.failed.len(), 1);
        assert_eq!(result.summary.succeeded, 9);
    }

    #[test]
    fn on_done_fires_once_per_job() {
        let js = jobs(25);
        let mut seen = Vec::new();
        run_jobs(
            &js,
            &quiet(6),
            |job| job.input,
            |job, _| {
                seen.push(job.id.clone());
            },
        );
        seen.sort();
        let mut want: Vec<String> = js.iter().map(|j| j.id.clone()).collect();
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn workers_run_jobs_concurrently() {
        // Eight 50 ms jobs on eight workers must overlap: anywhere close
        // to the 400 ms serial time means the pool serialized them.
        let js = jobs(8);
        let started = Instant::now();
        run_jobs(
            &js,
            &quiet(8),
            |_| std::thread::sleep(std::time::Duration::from_millis(50)),
            |_, _| {},
        );
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(200),
            "8 x 50ms jobs on 8 workers took {elapsed:?}"
        );
    }

    #[test]
    fn empty_sweep_is_fine() {
        let result = run_jobs(&[] as &[Job<()>], &quiet(4), |_| 0u8, |_, _| {});
        assert!(result.outcomes.is_empty());
        assert!(result.all_ok());
    }
}
