//! Cross-architecture differential conformance.
//!
//! The four controller architectures trade latency for occupancy but must
//! compute the same thing: for identical workloads, the functional
//! outcome (per-line write serials, home-memory contents, residual
//! directory state) has to be bit-identical across HWC, PPC, 2HWC and
//! 2PPC. The workloads are drawn from the protocol-torture envelope and
//! end in a deterministic scrub epilogue so the end state is
//! timing-independent by construction.

use ccnuma_repro::ccn_harness::default_workers;
use ccnuma_repro::ccn_protocol::DirFormat;
use ccnuma_repro::ccn_verify::{conformance_cases, run_case, run_conformance};
use ccnuma_repro::ccnuma::experiments::Options;
use ccnuma_repro::ccnuma::{Architecture, Runner};

#[test]
fn architectures_agree_on_the_torture_envelope() {
    let runner = Runner::parallel(Options::quick(), default_workers());
    let cases = conformance_cases(6);
    let records = run_conformance(&runner, &cases).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(records.len(), cases.len() * Architecture::all().len());
    for rec in &records {
        // The scrub epilogue must leave no residual directory state —
        // that is what makes the comparison architecture-independent.
        assert_eq!(
            rec.directory, 0,
            "{} on {} left directory residue",
            rec.app, rec.architecture
        );
        assert!(rec.versions > 0, "{} never wrote", rec.app);
    }
}

#[test]
fn directory_formats_agree_on_the_functional_outcome() {
    // Coarse and limited-pointer formats over-invalidate and a tight
    // sparse directory recalls aggressively, but none of that may change
    // *what* is computed: per case, every format must reproduce the
    // full-map functional digest bit for bit.
    for case in conformance_cases(3) {
        let (base, _) = run_case(case, Architecture::Hwc, DirFormat::FullMap);
        for format in [
            DirFormat::Coarse { region: 4 },
            DirFormat::Limited { ptrs: 2 },
            DirFormat::Sparse { slots: 16 },
        ] {
            let (rec, _) = run_case(case, Architecture::Hwc, format);
            assert_eq!(
                rec.digest,
                base.digest,
                "format {} diverged from full-map on case {}",
                format.label(),
                case.case
            );
            assert_eq!(rec.directory, 0, "scrub must leave no directory residue");
        }
    }
}

#[test]
fn conformance_runs_are_reproducible() {
    // The digest is a pure function of the case: two runs of the same
    // (case, architecture) pair must agree bit-for-bit, which is what
    // lets checkpointed conformance sweeps resume safely.
    let case = conformance_cases(1)[0];
    let (a, _) = run_case(case, Architecture::TwoPpc, DirFormat::FullMap);
    let (b, _) = run_case(case, Architecture::TwoPpc, DirFormat::FullMap);
    assert_eq!(a, b);
}
