//! The `repro` binary's usage errors: each exits 2 with a message naming
//! the offending flag, before any output on standard output.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("the repro binary runs")
}

/// Asserts that `args` is a usage error whose message is `message`.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.trim_end(), message, "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn a_value_flag_given_last_is_a_usage_error_naming_it() {
    assert_usage_error(
        &["--quick", "run", "--arch", "hwc", "--nodes"],
        "--nodes needs a value",
    );
    assert_usage_error(&["--quick", "table1", "--jobs"], "--jobs needs a value");
    assert_usage_error(&["--quick", "table1", "--out"], "--out needs a value");
    assert_usage_error(
        &["scenario", "run", "smoke.json", "--metrics"],
        "--metrics needs a value",
    );
}

#[test]
fn unknown_flags_and_bad_values_are_usage_errors() {
    assert_usage_error(&["--quick", "table1", "--bogus"], "unknown flag '--bogus'");
    assert_usage_error(
        &["--quick", "--jobs", "x", "table1"],
        "--jobs wants a non-negative integer, got 'x'",
    );
}

#[test]
fn a_flag_with_its_value_runs() {
    let out = repro(&["--quick", "--jobs", "1", "table1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Table 1"), "{stdout}");
}
