//! Golden-anchor regression snapshots.
//!
//! A small set of deterministic outputs is checked into `tests/golden/`
//! at the repository root and compared on every test run:
//!
//! * the paper's analytic tables (1–5), which pin the occupancy and
//!   latency model;
//! * the no-contention read-miss latency probes for all four controller
//!   architectures;
//! * the model checker's state-space coverage on the small
//!   configurations (a shift in the state count means the protocol's
//!   reachable behavior changed);
//! * the cross-architecture conformance digests, which pin the
//!   *functional* outcome of the randomized conformance workloads;
//! * the contended timing of whole runs: exec cycles, controller
//!   queueing delay and functional digest of every Table 6 application
//!   on all four architectures at the quick scale, plus twins of the
//!   host-time benchmark's slow-network and key-value machines and the
//!   1024-node machine of the scaling study.
//!
//! Any simulator change that moves one of these shows up as a diff with
//! the offending line. When the change is intentional, regenerate the
//! snapshots with `repro golden --bless` and review the diff in version
//! control like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use ccn_scenario::{scenario_config, Scenario, ScenarioSpec};
use ccn_verify::{conformance_cases, explore, run_case, Bounds, ModelConfig, ARCHS};
use ccn_workloads::suite::{Scale, SuiteApp};
use ccn_workloads::Application;
use ccnuma::experiments::{self, config_for, ConfigMods, Options};
use ccnuma::{probe, Architecture, Machine, SystemConfig};

/// Repository-root directory holding the checked-in snapshots.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// Renders every golden anchor as `(name, current output)`.
pub fn anchors() -> Vec<(&'static str, String)> {
    vec![
        ("table1", experiments::table1().render()),
        ("table2", experiments::table2().render()),
        ("table3", experiments::table3().render()),
        ("table4", experiments::table4().render()),
        ("table5", experiments::table5().render()),
        ("latency_probes", latency_probes()),
        ("model_space", model_space()),
        ("conformance_digests", conformance_digests()),
        ("contended_timing", contended_timing()),
    ]
}

/// No-contention read-miss latency (steady-state and cold-directory) per
/// architecture.
fn latency_probes() -> String {
    let mut out = String::new();
    for arch in ARCHS {
        let cfg = SystemConfig::base().with_architecture(arch);
        let steady = probe::read_miss_breakdown(&cfg, false).total();
        let cold = probe::read_miss_breakdown(&cfg, true).total();
        let _ = writeln!(
            out,
            "{} read-miss latency: steady {steady} cold {cold}",
            arch.name()
        );
    }
    out
}

/// State-space coverage of the model checker on the small configurations.
/// Deterministic: BFS order and the canonical encoding fix the counts.
fn model_space() -> String {
    let mut out = String::new();
    for (nodes, lines) in [(2u16, 1u8), (3, 1)] {
        let cfg = ModelConfig {
            nodes,
            lines,
            ..ModelConfig::default()
        };
        let report = explore(&cfg, &Bounds::default());
        let _ = writeln!(out, "{nodes} nodes / {lines} line(s): {}", report.summary());
    }
    out
}

/// Functional digests of the first conformance cases on every
/// architecture. Timing-independent by construction (the scrub epilogue),
/// so these only move when the memory system's *semantics* change.
fn conformance_digests() -> String {
    let mut out = String::new();
    for case in conformance_cases(2) {
        for arch in ARCHS {
            let (rec, _) = run_case(case, arch);
            let _ = writeln!(
                out,
                "case {} {}: digest {:016x} versions {} memory {} directory {}",
                rec.case, rec.architecture, rec.digest, rec.versions, rec.memory, rec.directory
            );
        }
    }
    out
}

/// Simulated timing of contended runs, one line per run: exec cycles,
/// the controller queueing-delay distribution's count and integer sum,
/// and the functional digest of the end state. The runs are every
/// Table 6 application on all four architectures at the quick scale,
/// tiny Ocean on the 32x2 HWC machine with the slow network, a 4x2 PPC
/// twin of the key-value benchmark mix, and the largest machine: tiny
/// Ocean on 1024x4 HWC.
fn contended_timing() -> String {
    let mut out = String::new();
    let mut run = |name: &str, cfg: SystemConfig, app: &dyn Application| {
        let mut machine = Machine::new(cfg, app).expect("golden config is valid");
        let report = machine.run();
        let _ = writeln!(
            out,
            "{name} {}: exec_cycles {} cc_queue_delay count {} sum {} digest {:016x}",
            report.architecture,
            report.exec_cycles,
            report.cc_queue_delay_hist.count(),
            report.cc_queue_delay_hist.sum(),
            machine.functional_snapshot().digest()
        );
    };
    let opts = Options::quick();
    for app in experiments::table6_apps() {
        let instance = app.instantiate(opts.scale);
        for arch in ARCHS {
            let cfg = config_for(app, arch, opts, ConfigMods::default());
            run(&format!("{app:?}"), cfg, instance.as_ref());
        }
    }
    let slownet = config_for(
        SuiteApp::OceanBase,
        Architecture::Hwc,
        Options {
            nodes: 32,
            procs_per_node: 2,
            ..Options::repro()
        },
        ConfigMods {
            slow_net: true,
            ..ConfigMods::default()
        },
    );
    run(
        "OceanBase-slownet-32x2",
        slownet,
        SuiteApp::OceanBase.instantiate(Scale::Tiny).as_ref(),
    );
    run(
        "kv-mix-0-4x2",
        scenario_config(Architecture::Ppc, 4, 2),
        &Scenario::new(kv_mix_spec()),
    );
    // The machine `repro run --nodes 1024 --arch hwc` builds.
    let largest = Options {
        scale: Scale::Tiny,
        nodes: 1024,
        ..Options::repro()
    };
    run(
        "OceanBase-1024x4",
        config_for(
            SuiteApp::OceanBase,
            Architecture::Hwc,
            largest,
            ConfigMods::default(),
        ),
        &crate::ocean_for(1024 * largest.procs_per_node),
    );
    out
}

/// Seed 0 of the host-time benchmark's key-value mix: false sharing,
/// then four rounds of Zipf-hot lookups with writes.
pub fn kv_mix_spec() -> ScenarioSpec {
    let lookups = r#"{"kind":"kv_lookup","keys":512,"lookups":40,"write_percent":10,"zipf_s":1.1}"#;
    let spec = format!(
        r#"{{"name":"kv-mix-0","seed":0,"phases":[{{"kind":"false_sharing","lines":8,"touches":100}},{}]}}"#,
        [lookups; 4].join(",")
    );
    ScenarioSpec::parse_str(&spec).expect("the kv-mix spec is valid")
}

/// Compares every anchor against its snapshot. Returns the PASS/FAIL
/// report and whether all anchors matched.
pub fn check_all() -> (String, bool) {
    let dir = golden_dir();
    let mut out = String::new();
    let mut ok = true;
    for (name, actual) in anchors() {
        let path = dir.join(format!("{name}.txt"));
        match std::fs::read_to_string(&path) {
            Err(_) => {
                ok = false;
                let _ = writeln!(
                    out,
                    "[FAIL] {name}: snapshot missing (regenerate with `repro golden --bless`)"
                );
            }
            Ok(expected) if expected == actual => {
                let _ = writeln!(out, "[PASS] {name}");
            }
            Ok(expected) => {
                ok = false;
                let _ = writeln!(out, "[FAIL] {name}: {}", first_diff(&expected, &actual));
            }
        }
    }
    if ok {
        let _ = writeln!(out, "\nall golden anchors hold");
    } else {
        let _ = writeln!(
            out,
            "\ngolden anchor(s) moved; if intentional, run `repro golden --bless` \
             and commit the updated snapshots"
        );
    }
    (out, ok)
}

/// Regenerates every snapshot (the `--bless` path).
pub fn bless_all() -> String {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("can create the golden directory");
    let mut out = String::new();
    for (name, actual) in anchors() {
        let path = dir.join(format!("{name}.txt"));
        std::fs::write(&path, &actual).expect("can write the snapshot");
        let _ = writeln!(out, "[BLESSED] {}", path.display());
    }
    out
}

/// Locates the first line where `expected` and `actual` diverge.
fn first_diff(expected: &str, actual: &str) -> String {
    let mut exp = expected.lines();
    let mut act = actual.lines();
    let mut lineno = 0;
    loop {
        lineno += 1;
        match (exp.next(), act.next()) {
            (Some(e), Some(a)) if e == a => continue,
            (Some(e), Some(a)) => {
                return format!("line {lineno} differs\n  expected: {e}\n  actual:   {a}");
            }
            (Some(e), None) => return format!("output truncated at line {lineno} (expected: {e})"),
            (None, Some(a)) => return format!("extra output at line {lineno}: {a}"),
            (None, None) => return "outputs differ only in trailing whitespace".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_diff_pinpoints_the_line() {
        let d = first_diff("a\nb\nc\n", "a\nX\nc\n");
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains("expected: b"), "{d}");
        assert!(first_diff("a\n", "a\nb\n").contains("extra output"));
        assert!(first_diff("a\nb\n", "a\n").contains("truncated"));
    }

    #[test]
    fn anchors_are_deterministic() {
        // The whole scheme rests on render-twice => identical bytes.
        let names: Vec<&str> = anchors().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"table3"));
        let probes_a = latency_probes();
        let probes_b = latency_probes();
        assert_eq!(probes_a, probes_b);
        assert!(probes_a.contains("HWC"));
    }
}
