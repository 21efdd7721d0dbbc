//! Sweep-level guarantees of the harness integration: byte-identical
//! results across worker counts, checkpoint resume that skips completed
//! jobs, and failure isolation with the rest of the grid intact.

use std::path::PathBuf;

use ccn_workloads::suite::SuiteApp;
use ccnuma::experiments::{fig6_with, ConfigMods, Options};
use ccnuma::sweep::{RunKey, Runner};
use ccnuma::Architecture;

fn temp_checkpoint(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ccnuma-sweep-test-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn small_grid() -> Vec<RunKey> {
    let apps = [
        SuiteApp::Lu,
        SuiteApp::FftBase,
        SuiteApp::Radix,
        SuiteApp::OceanBase,
    ];
    let mut keys = Vec::new();
    for app in apps {
        for arch in [Architecture::Hwc, Architecture::Ppc] {
            keys.push(RunKey::new(app, arch));
        }
    }
    keys
}

/// The same grid run serially and on a pool yields byte-identical
/// records — the determinism contract `repro --jobs N` relies on.
#[test]
fn records_are_identical_across_worker_counts() {
    let keys = small_grid();
    let serial = Runner::sequential(Options::quick()).run(&keys);
    let pooled = Runner::parallel(Options::quick(), 4)
        .with_progress(false)
        .run(&keys);
    assert_eq!(serial.len(), pooled.len());
    for (s, p) in serial.iter().zip(&pooled) {
        assert_eq!(
            s.to_json().to_string(),
            p.to_json().to_string(),
            "parallel record diverged for {}/{}",
            s.workload,
            s.architecture
        );
    }
}

/// A rendered figure — the actual artifact `repro` writes — is identical
/// whether built serially or on a pool.
#[test]
fn figure_renders_identically_across_worker_counts() {
    let serial = fig6_with(&Runner::sequential(Options::quick()));
    let pooled = fig6_with(&Runner::parallel(Options::quick(), 8).with_progress(false));
    assert_eq!(serial.render(), pooled.render());
    assert_eq!(serial.render_chart(), pooled.render_chart());
}

/// A second run against the same checkpoint skips every recorded job and
/// reproduces the records exactly.
#[test]
fn resume_skips_completed_jobs_and_replays_identically() {
    let path = temp_checkpoint("resume");
    let keys = small_grid();

    let first = Runner::parallel(Options::quick(), 2)
        .with_progress(false)
        .with_checkpoint(&path);
    let original = first.run(&keys);
    let stats = first.stats();
    assert_eq!(stats.executed, keys.len());
    assert_eq!(stats.skipped, 0);

    let second = Runner::sequential(Options::quick()).with_checkpoint(&path);
    let resumed = second.run(&keys);
    let stats = second.stats();
    assert_eq!(stats.executed, 0, "resume must not re-simulate");
    assert_eq!(stats.skipped, keys.len());
    for (a, b) in original.iter().zip(&resumed) {
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }
    let _ = std::fs::remove_file(&path);
}

/// An invalid cell panics its own job; the runner records the failure,
/// reports it in the sweep panic — and still checkpoints every
/// healthy job so a corrected re-run resumes instead of starting over.
#[test]
fn failing_job_is_isolated_and_healthy_jobs_are_checkpointed() {
    let path = temp_checkpoint("failure");
    let mut keys = vec![
        RunKey::new(SuiteApp::Lu, Architecture::Hwc),
        // 24 bytes is not a power of two: config validation rejects it and
        // the job panics.
        RunKey::with_mods(
            SuiteApp::Lu,
            Architecture::Hwc,
            ConfigMods {
                line_bytes: Some(24),
                ..ConfigMods::default()
            },
        ),
        RunKey::new(SuiteApp::Radix, Architecture::Hwc),
    ];
    let runner = Runner::parallel(Options::quick(), 2)
        .with_progress(false)
        .with_checkpoint(&path);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner.run(&keys)))
        .expect_err("the sweep must report the failed job");
    let msg = err
        .downcast_ref::<String>()
        .expect("sweep failures carry a message");
    assert!(msg.contains("1 job(s)"), "unexpected message: {msg}");
    assert!(msg.contains("+line24"), "unexpected message: {msg}");

    // The healthy cells were checkpointed; dropping the bad key resumes
    // without re-simulating them.
    keys.remove(1);
    let resumed = Runner::sequential(Options::quick()).with_checkpoint(&path);
    let records = resumed.run(&keys);
    assert_eq!(records.len(), 2);
    assert_eq!(resumed.stats().executed, 0);
    assert_eq!(resumed.stats().skipped, 2);
    let _ = std::fs::remove_file(&path);
}
