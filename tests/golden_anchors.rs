//! Golden-anchor regression tests.
//!
//! Deterministic outputs — the paper's analytic tables, the latency
//! probes, the model checker's state-space coverage, the
//! cross-architecture conformance digests, the contended timing of
//! whole runs, and the rendered component statistics tree — are checked
//! into
//! `tests/golden/` and compared byte-for-byte here. A failure means the
//! simulator's observable behavior moved; if the move is intentional,
//! regenerate the snapshots with
//! `cargo run --release -p ccn-bench --bin repro -- golden --bless`
//! and review the snapshot diff in version control.

#[test]
fn golden_anchors_hold() {
    let (report, ok) = ccn_bench::golden::check_all();
    assert!(ok, "\n{report}");
}
