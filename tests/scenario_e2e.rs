//! End-to-end checks for the scenario subsystem.
//!
//! The scenario DSL compiles declarative phase specs into deterministic
//! per-processor access streams, so an example spec must (a) produce the
//! same functional outcome on every controller architecture, (b) sweep
//! byte-identically regardless of worker count, and (c) survive a
//! record/replay round trip through the binary trace format with an
//! identical report and snapshot. Without its scrub epilogue the same
//! spec must make the agreement check fail with a field-level
//! difference, a job that panics must fail the check with its id while
//! every other job still runs, and the event watchdog the sweep runs
//! under must count queue events, so a run fits a budget of its own
//! event count.

use std::fs;
use std::path::Path;

use ccnuma_repro::ccn_scenario::{
    record, run_agreement, run_checked, run_scenario_conformance, scenario_config, shape_of,
    Scenario, ScenarioSpec, Trace, TraceReplay,
};
use ccnuma_repro::ccn_workloads::{AppBuild, Application, MachineShape};
use ccnuma_repro::ccnuma::experiments::Options;
use ccnuma_repro::ccnuma::{Architecture, Machine, RunRecord, Runner};

fn example(file: &str) -> ScenarioSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/scenarios")
        .join(file);
    let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    ScenarioSpec::parse_str(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

#[test]
fn every_example_spec_fits_both_reference_machines() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let mut checked = 0;
    for entry in fs::read_dir(&dir).expect("examples/scenarios exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let spec = ScenarioSpec::parse_str(&text)
            .unwrap_or_else(|e| panic!("{} is invalid: {e}", path.display()));
        // Every shipped spec must fit both the quick 4x2 machine CI uses
        // and the 16x4 default geometry.
        for (nodes, ppn) in [(4usize, 2usize), (16, 4)] {
            let shape = shape_of(&scenario_config(Architecture::Hwc, nodes, ppn));
            spec.check_shape(&shape).unwrap_or_else(|e| {
                panic!(
                    "{} does not fit a {nodes}x{ppn} machine: {e}",
                    path.display()
                )
            });
        }
        checked += 1;
    }
    assert!(
        checked >= 4,
        "expected at least 4 example specs, found {checked}"
    );
}

#[test]
fn example_spec_agrees_across_all_architectures() {
    let spec = example("smoke.json");
    let runner = Runner::sequential(Options::quick());
    let records = run_scenario_conformance(&runner, &spec, None).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(records.len(), Architecture::all().len());
    let digest = records[0].digest;
    for rec in &records {
        assert_eq!(rec.digest, digest, "{} diverged", rec.architecture);
        // The scrub epilogue must leave no residual directory state —
        // that is what makes the digest architecture-independent.
        assert_eq!(
            rec.directory, 0,
            "{} left directory residue",
            rec.architecture
        );
        assert!(rec.versions > 0, "{} never wrote", rec.architecture);
    }
}

#[test]
fn unscrubbed_spec_fails_the_agreement_check_with_a_field_level_difference() {
    let mut spec = example("smoke.json");
    spec.scrub = false;
    let err = run_scenario_conformance(&Runner::sequential(Options::quick()), &spec, None)
        .expect_err("without the scrub the end state depends on timing");
    assert!(err.contains("disagree on the functional outcome"), "{err}");
    let named = Architecture::all()
        .iter()
        .filter(|a| err.contains(&format!(" {} ", a.name())))
        .count();
    assert_eq!(named, 2, "two architectures: {err}");
    assert!(
        ["write versions: ", "home memory: ", "directory: "]
            .iter()
            .any(|field| err.contains(field)),
        "no field-level difference: {err}"
    );
    assert!(!err.contains("diff clean"), "{err}");
}

/// The smoke scenario, or an application whose build panics.
enum SmokeOrBroken {
    Smoke(Scenario),
    Broken,
}

impl Application for SmokeOrBroken {
    fn name(&self) -> String {
        match self {
            SmokeOrBroken::Smoke(scenario) => scenario.name(),
            SmokeOrBroken::Broken => "broken".to_string(),
        }
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        match self {
            SmokeOrBroken::Smoke(scenario) => scenario.build(shape),
            SmokeOrBroken::Broken => panic!("the broken application cannot be built"),
        }
    }
}

#[test]
fn a_panicking_job_fails_the_agreement_check_after_every_job_runs() {
    let runner = Runner::sequential(Options::quick());
    let apps = [
        ("broken".to_string(), SmokeOrBroken::Broken),
        (
            "smoke".to_string(),
            SmokeOrBroken::Smoke(Scenario::new(example("smoke.json"))),
        ),
    ];
    let err = run_agreement(&runner, &apps, (4, 2), None).expect_err("the broken jobs panic");
    for arch in Architecture::all() {
        assert!(err.contains(&format!("broken/{}: ", arch.name())), "{err}");
        assert!(!err.contains(&format!("smoke/{}", arch.name())), "{err}");
    }
    assert!(err.contains("cannot be built"), "{err}");
    let summary = runner.stats().summary.expect("the sweep ran");
    assert_eq!((summary.total, summary.succeeded), (8, 4));
}

/// The smoke spec's machine, built fresh.
fn smoke_machine(scenario: &Scenario) -> Machine {
    Machine::new(scenario_config(Architecture::Ppc, 4, 2), scenario).expect("valid config")
}

#[test]
fn a_run_completes_under_a_budget_of_its_own_event_count() {
    // Merged controller wake-ups carry many dispatch attempts in one
    // queue event; the watchdog counts the event, not the attempts.
    let scenario = Scenario::new(example("smoke.json"));
    let mut unlimited = smoke_machine(&scenario);
    let report = unlimited.run();
    let events = unlimited.events_scheduled();
    let bounded = smoke_machine(&scenario).run_with_event_limit(events);
    assert_eq!(
        RunRecord::from_report(&bounded),
        RunRecord::from_report(&report)
    );
}

#[test]
#[should_panic(expected = "event budget exhausted")]
fn a_budget_below_the_event_count_trips_the_watchdog() {
    let scenario = Scenario::new(example("smoke.json"));
    let mut unlimited = smoke_machine(&scenario);
    unlimited.run();
    let events = unlimited.events_scheduled();
    smoke_machine(&scenario).run_with_event_limit(events - 1);
}

#[test]
fn conformance_sweep_is_byte_identical_across_job_counts() {
    let spec = example("lock_convoy.json");
    let solo = run_scenario_conformance(&Runner::parallel(Options::quick(), 1), &spec, None)
        .unwrap_or_else(|e| panic!("{e}"));
    let fleet = run_scenario_conformance(&Runner::parallel(Options::quick(), 4), &spec, None)
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(solo, fleet, "worker count changed the sweep records");
}

#[test]
fn recorded_trace_replays_with_identical_report_and_snapshot() {
    let spec = example("ring_pipeline.json");
    let scenario = Scenario::new(spec);
    let cfg = scenario_config(Architecture::TwoPpc, 4, 2);
    let shape = shape_of(&cfg);

    let trace = record(&scenario, &shape);
    // Round-trip through the wire format so the replay exercises the
    // decoder, not just the in-memory capture.
    let trace = Trace::from_bytes(&trace.to_bytes()).expect("trace decodes");
    let replay = TraceReplay::new(trace);

    let (live, live_snap) = run_checked(&scenario, cfg.clone());
    let (replayed, replay_snap) = run_checked(&replay, cfg);
    assert_eq!(
        RunRecord::from_report(&live),
        RunRecord::from_report(&replayed),
        "replay changed the timed report"
    );
    assert_eq!(
        live_snap.digest(),
        replay_snap.digest(),
        "replay changed the functional outcome"
    );
}
