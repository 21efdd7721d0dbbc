//! Checkpoint-resume semantics of the sweep runner: a job recorded as
//! completed is *never* re-executed — it is replayed bit-for-bit from the
//! checkpoint — and duplicate job ids within one sweep are simulated
//! exactly once.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ccnuma_repro::ccn_scenario::ConformanceRecord;
use ccnuma_repro::ccnuma::experiments::Options;
use ccnuma_repro::ccnuma::Runner;

fn temp_checkpoint(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ccn-sweep-resume-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// A cheap record with a distinguishable payload (any `SweepRecord` works;
/// the conformance record is convenient and round-trips losslessly).
fn record(id: u64) -> ConformanceRecord {
    ConformanceRecord {
        app: format!("app{id}"),
        architecture: "HWC".to_string(),
        digest: id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        versions: 1,
        memory: 1,
        directory: 0,
        exec_cycles: 100 + id,
        instructions: 1000 + id,
        cc_arrivals: 10 + id,
    }
}

#[test]
fn resume_never_reruns_completed_jobs() {
    let path = temp_checkpoint("rerun");
    let executions = AtomicUsize::new(0);
    let jobs = || {
        (0..5u64)
            .map(|i| (format!("resume/{i}"), i))
            .collect::<Vec<_>>()
    };
    let exec = |&i: &u64| {
        executions.fetch_add(1, Ordering::SeqCst);
        record(i)
    };

    let runner = Runner::sequential(Options::quick()).with_checkpoint(&path);
    let first = runner.run_keyed(jobs(), exec).expect("no job panics");
    assert_eq!(first.len(), 5);
    assert_eq!(executions.load(Ordering::SeqCst), 5);

    // Second sweep against the same checkpoint: everything replays, the
    // executor must not run even once, and the records are identical.
    let runner = Runner::sequential(Options::quick()).with_checkpoint(&path);
    let second = runner.run_keyed(jobs(), exec).expect("no job panics");
    assert_eq!(
        executions.load(Ordering::SeqCst),
        5,
        "resume re-ran a completed job"
    );
    assert_eq!(first, second, "replayed records must be bit-identical");
    let stats = runner.stats();
    assert_eq!(stats.skipped, 5);
    assert_eq!(stats.executed, 0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn partial_checkpoints_resume_only_the_missing_jobs() {
    let path = temp_checkpoint("partial");
    let executions = AtomicUsize::new(0);
    let exec = |&i: &u64| {
        executions.fetch_add(1, Ordering::SeqCst);
        record(i)
    };
    let ids = |range: std::ops::Range<u64>| {
        range
            .map(|i| (format!("partial/{i}"), i))
            .collect::<Vec<_>>()
    };

    // First sweep covers jobs 0..3.
    Runner::sequential(Options::quick())
        .with_checkpoint(&path)
        .run_keyed(ids(0..3), exec)
        .expect("no job panics");
    assert_eq!(executions.load(Ordering::SeqCst), 3);

    // Second sweep asks for 0..6: only 3..6 may execute.
    let records = Runner::sequential(Options::quick())
        .with_checkpoint(&path)
        .run_keyed(ids(0..6), exec)
        .expect("no job panics");
    assert_eq!(records.len(), 6);
    assert_eq!(
        executions.load(Ordering::SeqCst),
        6,
        "exactly the three new jobs should have run"
    );
    for (i, rec) in records.iter().enumerate() {
        assert_eq!(
            *rec,
            record(i as u64),
            "records must come back in key order"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn duplicate_ids_execute_once() {
    let executions = AtomicUsize::new(0);
    let jobs: Vec<(String, u64)> = [3u64, 1, 3, 2, 1, 3]
        .iter()
        .map(|&i| (format!("dup/{i}"), i))
        .collect();
    let records = Runner::sequential(Options::quick())
        .run_keyed(jobs, |&i: &u64| {
            executions.fetch_add(1, Ordering::SeqCst);
            record(i)
        })
        .expect("no job panics");
    assert_eq!(executions.load(Ordering::SeqCst), 3, "3 distinct ids");
    // Results still come back per requested key, in request order.
    let want: Vec<ConformanceRecord> = [3, 1, 3, 2, 1, 3].map(record).into();
    assert_eq!(records, want);
}
