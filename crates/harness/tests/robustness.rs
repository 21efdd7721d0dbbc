//! Robustness of the checkpoint format and the worker pool against the
//! failure modes an interrupted or crashing sweep actually produces:
//! zero-byte files, torn final lines, garbage mid-file, duplicate
//! records for one job id, and panicking jobs.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::PathBuf;

use ccn_harness::{checkpoint, CheckpointWriter, Job, Json, PoolConfig};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ccn-harness-robustness-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn zero_byte_file_is_an_empty_checkpoint_and_gets_a_meta_line() {
    let path = temp_path("zero.jsonl");
    std::fs::write(&path, b"").unwrap();
    // Loading an empty file yields no entries and no meta.
    let cp = checkpoint::load(&path).unwrap();
    assert_eq!(cp.completed_count(), 0);
    assert!(cp.meta.is_none());
    // Opening a writer on it treats it as new: the meta line is written.
    {
        let mut w = CheckpointWriter::open(&path, vec![("target", Json::Str("t".into()))]).unwrap();
        w.record_ok("a", 1, Json::UInt(1)).unwrap();
    }
    let cp = checkpoint::load(&path).unwrap();
    let meta = cp.meta.as_ref().unwrap();
    assert_eq!(meta.get("target").unwrap().as_str(), Some("t"));
    assert!(cp.completed("a").is_some());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_final_line_loses_only_itself() {
    let path = temp_path("torn.jsonl");
    {
        let mut w = CheckpointWriter::open(&path, vec![]).unwrap();
        w.record_ok("kept", 1, Json::UInt(7)).unwrap();
    }
    // Crash mid-append: a record torn without its trailing newline.
    let mut f = OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(b"{\"kind\":\"job\",\"id\":\"torn\",\"status\":\"o")
        .unwrap();
    drop(f);
    let cp = checkpoint::load(&path).unwrap();
    assert_eq!(cp.completed_count(), 1);
    assert!(cp.completed("kept").is_some());
    assert!(!cp.entries.contains_key("torn"));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_after_a_torn_line_does_not_corrupt_the_next_record() {
    let path = temp_path("torn-resume.jsonl");
    {
        let mut w = CheckpointWriter::open(&path, vec![]).unwrap();
        w.record_ok("old", 1, Json::UInt(1)).unwrap();
    }
    let mut f = OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(b"{\"kind\":\"job\",\"id\":\"to").unwrap();
    drop(f);
    // A resumed sweep reopens the writer and appends new completions. The
    // writer must terminate the torn fragment first, or the next record
    // would merge into it and be lost on the following load.
    {
        let mut w = CheckpointWriter::open(&path, vec![]).unwrap();
        w.record_ok("new", 1, Json::UInt(2)).unwrap();
    }
    let cp = checkpoint::load(&path).unwrap();
    assert!(cp.completed("old").is_some());
    assert!(
        cp.completed("new").is_some(),
        "record appended after a torn line was lost"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn garbage_lines_are_skipped_without_poisoning_neighbors() {
    let path = temp_path("garbage.jsonl");
    {
        let mut w = CheckpointWriter::open(&path, vec![]).unwrap();
        w.record_ok("before", 1, Json::Null).unwrap();
    }
    let mut f = OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(b"not json at all\n{\"kind\":\"job\"\n\n")
        .unwrap();
    drop(f);
    {
        let mut w = CheckpointWriter::open(&path, vec![]).unwrap();
        w.record_ok("after", 1, Json::Null).unwrap();
    }
    let cp = checkpoint::load(&path).unwrap();
    assert!(cp.completed("before").is_some());
    assert!(cp.completed("after").is_some());
    assert_eq!(cp.completed_count(), 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn duplicate_job_ids_resolve_to_the_latest_line() {
    let path = temp_path("dup.jsonl");
    {
        let mut w = CheckpointWriter::open(&path, vec![]).unwrap();
        w.record_ok("j", 1, Json::UInt(1)).unwrap();
        w.record_failed("j", 1, "flaked").unwrap();
        w.record_ok("j", 1, Json::UInt(3)).unwrap();
        w.record_ok("other", 1, Json::UInt(9)).unwrap();
    }
    let cp = checkpoint::load(&path).unwrap();
    // Latest line wins: the final ok with payload 3, not the first ok and
    // not the intervening failure.
    assert_eq!(cp.completed("j"), Some(&Json::UInt(3)));
    assert_eq!(cp.completed("other"), Some(&Json::UInt(9)));
    assert_eq!(cp.completed_count(), 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn pool_isolates_panics_and_keeps_input_order() {
    let jobs: Vec<Job<u32>> = (0..6).map(|i| Job::new(format!("job/{i}"), i)).collect();
    let cfg = PoolConfig {
        workers: 3,
        progress: false,
    };
    let result = ccn_harness::run_jobs(
        &jobs,
        &cfg,
        |job| {
            if job.input == 4 {
                panic!("permanent");
            }
            job.input * 10
        },
        |_, _| {},
    );
    assert_eq!(result.outcomes.len(), 6);
    // Outcomes come back in input order no matter the interleaving.
    for (i, outcome) in result.outcomes.iter().enumerate() {
        if i == 4 {
            assert!(outcome.ok().is_none(), "job 4 must fail");
        } else {
            assert_eq!(outcome.ok(), Some(&(i as u32 * 10)), "job {i}");
        }
    }
    assert!(!result.all_ok());
    assert_eq!(result.summary.failed.len(), 1);
}
