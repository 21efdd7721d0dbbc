//! Conformance sweeps: harness integration and the digest envelope.
//!
//! The four controller architectures differ in *when* protocol work
//! happens, never in *what* it computes. [`run_agreement`] is the one
//! conformance path of the workspace: it fans applications out across
//! every architecture through an ordinary [`Runner`] — worker pool, panic
//! isolation, JSON-lines checkpoints, optional metrics sidecars — and
//! then asserts the digest envelope: per application, every architecture
//! must produce a bit-identical [`FunctionalSnapshot`] (the applications
//! end in the scrub epilogue, which makes the end state
//! timing-independent). Scenario sweeps ([`run_scenario_conformance`])
//! and the `ccn-verify` differential cases both call it.

use std::path::Path;

use ccn_harness::Json;
use ccn_workloads::{Application, MachineShape};
use ccnuma::{
    Architecture, FunctionalSnapshot, Machine, Runner, SimReport, SweepRecord, SystemConfig,
};

use crate::scenario::Scenario;
use crate::spec::ScenarioSpec;

/// L2 override for conformance runs: small enough that the scrub flush
/// is cheap and capacity evictions race mid-run.
pub const SCENARIO_L2_BYTES: u64 = 32 * 1024;

/// Event-count watchdog per conformance run (converts a livelock into a
/// job failure the pool can isolate instead of a hang). It counts popped
/// queue events, see [`Machine::run_with_event_limit`].
pub const SCENARIO_EVENT_LIMIT: u64 = 120_000_000;

/// The machine configuration conformance runs use.
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

/// The outcome of one (application, architecture) run, reduced to a
/// checkpointable record. `digest`/`versions`/`memory`/`directory`
/// describe the functional snapshot and must agree across architectures;
/// the timing fields are architecture-dependent context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceRecord {
    /// The application's name ([`Application::name`]).
    pub app: String,
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

impl ConformanceRecord {
    /// Reduces a run's report and end-state snapshot to the record.
    pub fn new(report: &SimReport, snap: &FunctionalSnapshot) -> Self {
        ConformanceRecord {
            app: report.workload.clone(),
            architecture: report.architecture.clone(),
            digest: snap.digest(),
            versions: snap.versions.len() as u64,
            memory: snap.memory.len() as u64,
            directory: snap.directory.len() as u64,
            exec_cycles: report.exec_cycles,
            instructions: report.instructions,
            cc_arrivals: report.cc_arrivals,
        }
    }
}

impl SweepRecord for ConformanceRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("app", Json::Str(self.app.clone())),
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
        Some(ConformanceRecord {
            app: v.get("app")?.as_str()?.to_string(),
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

/// Runs `app` on `cfg` under the [`SCENARIO_EVENT_LIMIT`] watchdog,
/// checks the quiescence invariants and snapshots the end state.
///
/// # Panics
///
/// Panics if the configuration is invalid, the run trips the event-limit
/// watchdog, or the machine fails its quiescence check — all workload or
/// simulator bugs a sweep should surface, not swallow.
pub fn run_checked(app: &dyn Application, cfg: SystemConfig) -> (SimReport, FunctionalSnapshot) {
    let mut machine = Machine::new(cfg, app).expect("valid scenario config");
    let report = machine.run_with_event_limit(SCENARIO_EVENT_LIMIT);
    machine.check_quiescent().unwrap_or_else(|e| {
        panic!(
            "{} on {}: invariant violated: {e}",
            app.name(),
            report.architecture
        )
    });
    (report, machine.functional_snapshot())
}

/// The job id of one (application, architecture) cell.
fn job_id(prefix: &str, arch: Architecture) -> String {
    format!("{prefix}/{}", arch.name())
}

/// Runs every `(job-id prefix, application)` pair on each of
/// [`Architecture::all`] through [`Runner::run_keyed`], on the
/// `nodes`x`procs_per_node` [`scenario_config`] machine, and checks that
/// every architecture reaches the same functional snapshot. A cell's job
/// id is `{prefix}/{architecture}`. With `metrics_dir` set, every
/// simulated job writes a latency-histogram sidecar named after its job
/// id (deterministic, so byte-identical regardless of worker count).
///
/// Returns the records application by application, each in
/// [`Architecture::all`] order. When a job panics, returns the ids and
/// messages of the failed jobs, after every other job has run. On a
/// digest mismatch, re-runs the two disagreeing configurations and
/// returns the first field-level snapshot difference.
pub fn run_agreement<A: Application + Sync>(
    runner: &Runner,
    apps: &[(String, A)],
    (nodes, procs_per_node): (usize, usize),
    metrics_dir: Option<&Path>,
) -> Result<Vec<ConformanceRecord>, String> {
    let archs = Architecture::all();
    let run = |app: &A, arch| run_checked(app, scenario_config(arch, nodes, procs_per_node));
    let jobs: Vec<(String, (&str, &A, Architecture))> = apps
        .iter()
        .flat_map(|(prefix, app)| {
            archs
                .iter()
                .map(move |&arch| (job_id(prefix, arch), (prefix.as_str(), app, arch)))
        })
        .collect();
    let records = runner
        .run_keyed(jobs, |&(prefix, app, arch)| {
            let (report, snap) = run(app, arch);
            if let Some(dir) = metrics_dir {
                let id = job_id(prefix, arch);
                let payload = ccnuma::observe::report_metrics(&report);
                ccn_obs::write_sidecar(dir, &id, &payload)
                    .unwrap_or_else(|e| panic!("writing metrics sidecar for {id}: {e}"));
            }
            ConformanceRecord::new(&report, &snap)
        })
        .map_err(|failure| failure.to_string())?;
    for (chunk, (_, app)) in records.chunks(archs.len()).zip(apps) {
        let base = &chunk[0];
        let mismatch = chunk
            .iter()
            .zip(archs)
            .find(|(r, _)| r.digest != base.digest);
        if let Some((rec, arch)) = mismatch {
            let detail = run(app, archs[0])
                .1
                .diff(&run(app, arch).1)
                .unwrap_or_else(|| "digest mismatch but snapshots diff clean".to_string());
            return Err(format!(
                "{}: {} and {} disagree on the functional outcome: {detail}",
                base.app, base.architecture, rec.architecture
            ));
        }
    }
    Ok(records)
}

/// The job-id prefix of a scenario sweep. Embeds the spec's content hash
/// so an edited spec never replays a stale checkpoint line.
fn scenario_job_prefix(spec: &ScenarioSpec, nodes: usize, procs_per_node: usize) -> String {
    format!(
        "scenario/{}@{:016x}/{}x{}",
        spec.name,
        spec.content_hash(),
        nodes,
        procs_per_node
    )
}

/// Runs `spec` through [`run_agreement`] on the runner's machine size.
///
/// Returns the per-architecture records in [`Architecture::all`] order,
/// or an error when the spec does not fit the machine or the
/// architectures disagree.
pub fn run_scenario_conformance(
    runner: &Runner,
    spec: &ScenarioSpec,
    metrics_dir: Option<&Path>,
) -> Result<Vec<ConformanceRecord>, String> {
    let opts = runner.options();
    let (nodes, ppn) = (opts.nodes, opts.procs_per_node);
    spec.check_shape(&shape_of(&scenario_config(Architecture::Hwc, nodes, ppn)))
        .map_err(|e| {
            format!(
                "scenario '{}' does not fit a {nodes}x{ppn} machine: {e}",
                spec.name
            )
        })?;
    let apps = [(
        scenario_job_prefix(spec, nodes, ppn),
        Scenario::new(spec.clone()),
    )];
    run_agreement(runner, &apps, (nodes, ppn), metrics_dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma::experiments::Options;

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
        let rec = ConformanceRecord {
            app: "s".into(),
            architecture: "2PPC".into(),
            digest: 0xFEED_F00D,
            versions: 3,
            memory: 4,
            directory: 0,
            exec_cycles: 99,
            instructions: 1234,
            cc_arrivals: 55,
        };
        let back =
            <ConformanceRecord as SweepRecord>::from_json(&SweepRecord::to_json(&rec)).unwrap();
        assert_eq!(back, rec);
        assert!(<ConformanceRecord as SweepRecord>::from_json(&Json::Null).is_none());
    }

    #[test]
    fn job_ids_track_spec_content() {
        let spec = tiny_spec();
        let id = job_id(&scenario_job_prefix(&spec, 4, 2), Architecture::Hwc);
        assert!(id.starts_with("scenario/sweeptest@"), "{id}");
        assert!(id.ends_with("/4x2/HWC"), "{id}");
        let mut edited = spec.clone();
        edited.seed += 1;
        assert_ne!(
            id,
            job_id(&scenario_job_prefix(&edited, 4, 2), Architecture::Hwc)
        );
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
