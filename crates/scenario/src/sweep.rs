//! Scenario sweeps: harness integration and the conformance envelope.
//!
//! A scenario is one more independent job to the `ccn-harness` machinery:
//! [`run_scenario_conformance`] fans a spec out across all four controller
//! architectures through an ordinary [`Runner`] — worker pool, panic
//! isolation, JSON-lines checkpoints, optional metrics sidecars — and then
//! asserts the digest envelope: every architecture must produce a
//! bit-identical [`FunctionalSnapshot`] (the architectures differ in
//! *when* protocol work happens, never in *what* it computes; the spec's
//! scrub epilogue makes the end state timing-independent).

use std::path::Path;

use ccn_harness::Json;
use ccn_workloads::MachineShape;
use ccnuma::experiments::Options;
use ccnuma::{Architecture, FunctionalSnapshot, Machine, Runner, SweepRecord, SystemConfig};

use crate::scenario::Scenario;
use crate::spec::ScenarioSpec;

/// L2 override for scenario runs — the conformance setting: small enough
/// that the scrub flush is cheap and capacity evictions race mid-run.
pub const SCENARIO_L2_BYTES: u64 = 32 * 1024;

/// Event-count watchdog per run (converts a livelock into a job failure
/// the pool can isolate instead of a hang).
pub const SCENARIO_EVENT_LIMIT: u64 = 120_000_000;

/// The machine configuration scenario runs use.
pub fn scenario_config(arch: Architecture, nodes: usize, procs_per_node: usize) -> SystemConfig {
    SystemConfig::base()
        .with_nodes(nodes)
        .with_procs_per_node(procs_per_node)
        .with_architecture(arch)
        .with_l2_bytes(SCENARIO_L2_BYTES)
}

/// The workload-facing shape of a configuration.
pub fn shape_of(cfg: &SystemConfig) -> MachineShape {
    MachineShape {
        nodes: cfg.nodes,
        procs_per_node: cfg.procs_per_node,
        page_bytes: cfg.page_bytes,
        line_bytes: cfg.line_bytes,
    }
}

/// The outcome of one (scenario, architecture) run, reduced to a
/// checkpointable record. `digest`/`versions`/`memory`/`directory`
/// describe the functional snapshot and must agree across architectures;
/// the timing fields are architecture-dependent context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioRecord {
    /// Scenario name.
    pub scenario: String,
    /// Architecture label (HWC/PPC/2HWC/2PPC).
    pub architecture: String,
    /// [`FunctionalSnapshot::digest`] of the end state.
    pub digest: u64,
    /// Written lines in the snapshot.
    pub versions: u64,
    /// Home-memory entries in the snapshot.
    pub memory: u64,
    /// Residual directory entries (zero after a scrubbed run).
    pub directory: u64,
    /// Measured-phase cycles (timing; excluded from conformance).
    pub exec_cycles: u64,
    /// Instructions executed in the measured phase.
    pub instructions: u64,
    /// Requests to all coherence controllers (timing-dependent).
    pub cc_arrivals: u64,
}

impl SweepRecord for ScenarioRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scenario", Json::Str(self.scenario.clone())),
            ("architecture", Json::Str(self.architecture.clone())),
            ("digest", Json::UInt(self.digest)),
            ("versions", Json::UInt(self.versions)),
            ("memory", Json::UInt(self.memory)),
            ("directory", Json::UInt(self.directory)),
            ("exec_cycles", Json::UInt(self.exec_cycles)),
            ("instructions", Json::UInt(self.instructions)),
            ("cc_arrivals", Json::UInt(self.cc_arrivals)),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        Some(ScenarioRecord {
            scenario: v.get("scenario")?.as_str()?.to_string(),
            architecture: v.get("architecture")?.as_str()?.to_string(),
            digest: v.get("digest")?.as_u64()?,
            versions: v.get("versions")?.as_u64()?,
            memory: v.get("memory")?.as_u64()?,
            directory: v.get("directory")?.as_u64()?,
            exec_cycles: v.get("exec_cycles")?.as_u64()?,
            instructions: v.get("instructions")?.as_u64()?,
            cc_arrivals: v.get("cc_arrivals")?.as_u64()?,
        })
    }
}

/// The stable job id of one (scenario, architecture) cell. Embeds the
/// spec's content hash so an edited spec never replays a stale
/// checkpoint line.
pub fn scenario_job_id(
    spec: &ScenarioSpec,
    nodes: usize,
    procs_per_node: usize,
    arch: Architecture,
) -> String {
    format!(
        "scenario/{}@{:016x}/{}x{}/{}",
        spec.name,
        spec.content_hash(),
        nodes,
        procs_per_node,
        arch.name()
    )
}

/// Runs one (scenario, architecture) pair and returns the record plus
/// the full snapshot (for diffing on mismatch).
///
/// # Panics
///
/// Panics if the configuration is invalid, the run trips the event-limit
/// watchdog, or the machine fails its quiescence check — all workload or
/// simulator bugs a sweep should surface, not swallow.
pub fn run_scenario_case(
    scenario: &Scenario,
    arch: Architecture,
    nodes: usize,
    procs_per_node: usize,
) -> (ScenarioRecord, FunctionalSnapshot) {
    let cfg = scenario_config(arch, nodes, procs_per_node);
    let mut machine = Machine::new(cfg, scenario).expect("valid scenario config");
    let report = machine.run_with_event_limit(SCENARIO_EVENT_LIMIT);
    machine.check_quiescent().unwrap_or_else(|e| {
        panic!(
            "scenario '{}' on {}: invariant violated: {e}",
            scenario.spec.name,
            arch.name()
        )
    });
    let snap = machine.functional_snapshot();
    let rec = ScenarioRecord {
        scenario: scenario.spec.name.clone(),
        architecture: arch.name().to_string(),
        digest: snap.digest(),
        versions: snap.versions.len() as u64,
        memory: snap.memory.len() as u64,
        directory: snap.directory.len() as u64,
        exec_cycles: report.exec_cycles,
        instructions: report.instructions,
        cc_arrivals: report.cc_arrivals,
    };
    (rec, snap)
}

/// Runs `spec` across all four architectures on `runner` and checks the
/// digest envelope. With `metrics_dir` set, every simulated job writes a
/// latency-histogram sidecar named after its job id (deterministic, so
/// byte-identical regardless of worker count).
///
/// Returns the per-architecture records in [`Architecture::all`] order;
/// on a digest mismatch, re-runs the two disagreeing configurations and
/// returns the first field-level snapshot difference.
pub fn run_scenario_conformance(
    runner: &Runner,
    spec: &ScenarioSpec,
    metrics_dir: Option<&Path>,
) -> Result<Vec<ScenarioRecord>, String> {
    let opts: Options = runner.options();
    let (nodes, ppn) = (opts.nodes, opts.procs_per_node);
    let scenario = Scenario::new(spec.clone());
    spec.check_shape(&shape_of(&scenario_config(Architecture::Hwc, nodes, ppn)))
        .map_err(|e| {
            format!(
                "scenario '{}' does not fit a {nodes}x{ppn} machine: {e}",
                spec.name
            )
        })?;
    let jobs: Vec<(String, Architecture)> = Architecture::all()
        .iter()
        .map(|&arch| (scenario_job_id(spec, nodes, ppn, arch), arch))
        .collect();
    let metrics_dir = metrics_dir.map(Path::to_path_buf);
    let records: Vec<ScenarioRecord> = runner.run_keyed(jobs, |&arch| {
        let cfg = scenario_config(arch, nodes, ppn);
        let mut machine = Machine::new(cfg, &scenario).expect("valid scenario config");
        let report = machine.run_with_event_limit(SCENARIO_EVENT_LIMIT);
        machine.check_quiescent().unwrap_or_else(|e| {
            panic!(
                "scenario '{}' on {}: invariant violated: {e}",
                scenario.spec.name,
                arch.name()
            )
        });
        let snap = machine.functional_snapshot();
        if let Some(dir) = &metrics_dir {
            let id = scenario_job_id(&scenario.spec, nodes, ppn, arch);
            let payload = ccnuma::observe::report_metrics(&report);
            ccn_obs::write_sidecar(dir, &id, &payload)
                .unwrap_or_else(|e| panic!("writing metrics sidecar for {id}: {e}"));
        }
        ScenarioRecord {
            scenario: scenario.spec.name.clone(),
            architecture: arch.name().to_string(),
            digest: snap.digest(),
            versions: snap.versions.len() as u64,
            memory: snap.memory.len() as u64,
            directory: snap.directory.len() as u64,
            exec_cycles: report.exec_cycles,
            instructions: report.instructions,
            cc_arrivals: report.cc_arrivals,
        }
    });
    let base = &records[0];
    for rec in &records[1..] {
        if rec.digest != base.digest {
            let (_, a) = run_scenario_case(&scenario, Architecture::all()[0], nodes, ppn);
            let bad = Architecture::all()
                .into_iter()
                .find(|ar| ar.name() == rec.architecture)
                .expect("known architecture");
            let (_, b) = run_scenario_case(&scenario, bad, nodes, ppn);
            let detail = a
                .diff(&b)
                .unwrap_or_else(|| "digest mismatch but snapshots diff clean".to_string());
            return Err(format!(
                "scenario '{}': {} and {} disagree on the functional outcome: {detail}",
                spec.name, base.architecture, rec.architecture
            ));
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec::parse_str(
            r#"{ "name": "sweeptest", "seed": 2, "phases": [
                { "kind": "uniform", "touches": 48, "region_bytes": 2048 },
                { "kind": "false_sharing", "touches": 24, "lines": 2 }
            ] }"#,
        )
        .unwrap()
    }

    #[test]
    fn record_round_trips_through_json() {
        let rec = ScenarioRecord {
            scenario: "s".into(),
            architecture: "2PPC".into(),
            digest: 0xFEED_F00D,
            versions: 3,
            memory: 4,
            directory: 0,
            exec_cycles: 99,
            instructions: 1234,
            cc_arrivals: 55,
        };
        let back = <ScenarioRecord as SweepRecord>::from_json(&SweepRecord::to_json(&rec)).unwrap();
        assert_eq!(back, rec);
        assert!(<ScenarioRecord as SweepRecord>::from_json(&Json::Null).is_none());
    }

    #[test]
    fn job_ids_track_spec_content() {
        let spec = tiny_spec();
        let id = scenario_job_id(&spec, 4, 2, Architecture::Hwc);
        assert!(id.starts_with("scenario/sweeptest@"), "{id}");
        assert!(id.ends_with("/4x2/HWC"), "{id}");
        let mut edited = spec.clone();
        edited.seed += 1;
        assert_ne!(id, scenario_job_id(&edited, 4, 2, Architecture::Hwc));
    }

    #[test]
    fn scrubbed_scenario_agrees_across_architectures() {
        let runner = Runner::sequential(Options::quick());
        let records =
            run_scenario_conformance(&runner, &tiny_spec(), None).expect("architectures agree");
        assert_eq!(records.len(), 4);
        assert!(records.iter().all(|r| r.digest == records[0].digest));
        assert!(
            records.iter().all(|r| r.directory == 0),
            "scrub left directory state"
        );
        assert!(records[0].versions > 0, "scenario never wrote");
    }

    #[test]
    fn oversized_node_list_is_a_recoverable_error() {
        let spec = ScenarioSpec::parse_str(
            r#"{ "name": "big", "phases": [ { "kind": "uniform", "nodes": [11] } ] }"#,
        )
        .unwrap();
        let runner = Runner::sequential(Options::quick());
        let err = run_scenario_conformance(&runner, &spec, None).unwrap_err();
        assert!(err.contains("does not fit"), "{err}");
    }
}
