//! Sweep orchestration: runs experiment grids through the `ccn-harness`
//! worker pool with checkpointing and telemetry.
//!
//! Every paper table and figure is a grid of independent simulations
//! (application × architecture × configuration). This module names each
//! cell with a stable [`RunKey`], reduces its [`SimReport`] to the
//! checkpointable [`RunRecord`], and executes whole grids through a
//! [`Runner`] — sequentially for tests, or on a worker pool with
//! incremental JSON-lines checkpoints for `repro --jobs N`.
//!
//! Determinism contract: a [`RunRecord`] depends only on its key (the
//! simulator is deterministic), records come back in request order, and
//! JSON round-trips are bit-exact — so a table assembled from a parallel,
//! resumed, or checkpoint-replayed sweep is byte-identical to the
//! sequential one.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

use ccn_harness::pool::JobStatus;
use ccn_harness::{checkpoint, run_jobs, CheckpointWriter, Job, Json, PoolConfig, SweepSummary};
use ccn_workloads::suite::{Scale, SuiteApp};

use crate::config::Architecture;
use crate::experiments::{run_one_instrumented, ConfigMods, Options};
use crate::report::SimReport;

/// Short stable tag for a problem scale (used in job ids and checkpoint
/// file names; never rename these, recorded sweeps depend on them).
pub fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Scaled => "scaled",
        Scale::Tiny => "tiny",
    }
}

/// One cell of an experiment grid: which simulation to run.
///
/// The machine size and problem scale come from the [`Runner`]'s
/// [`Options`]; the key only carries what varies within a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// The application.
    pub app: SuiteApp,
    /// The controller architecture.
    pub arch: Architecture,
    /// Configuration overrides (line size, slow network, node size).
    pub mods: ConfigMods,
}

impl RunKey {
    /// A key on the unmodified base configuration.
    pub fn new(app: SuiteApp, arch: Architecture) -> Self {
        RunKey {
            app,
            arch,
            mods: ConfigMods::default(),
        }
    }

    /// A key with configuration overrides.
    pub fn with_mods(app: SuiteApp, arch: Architecture, mods: ConfigMods) -> Self {
        RunKey { app, arch, mods }
    }

    /// The job id: stable across processes and releases, unique per
    /// distinct simulation under the given options. Checkpointed sweeps
    /// rely on this never changing meaning.
    pub fn id(&self, opts: Options) -> String {
        let mut id = format!(
            "{}/{}x{}/{:?}/{}",
            scale_tag(opts.scale),
            opts.nodes,
            opts.procs_per_node,
            self.app,
            self.arch.name()
        );
        if let Some(lb) = self.mods.line_bytes {
            id.push_str(&format!("+line{lb}"));
        }
        if self.mods.slow_net {
            id.push_str("+slownet");
        }
        if let Some(p) = self.mods.procs_per_node {
            id.push_str(&format!("+ppn{p}"));
        }
        // The directory format joins the id only when it deviates from the
        // paper's full-map protocol, so every previously recorded
        // checkpoint and golden id keeps its historical spelling.
        if opts.dir_format != ccn_protocol::DirFormat::FullMap {
            id.push_str(&format!("+fmt-{}", opts.dir_format.slug()));
        }
        id
    }
}

/// A job result that can ride a [`Runner`] checkpoint: serialized to one
/// JSON-lines entry on completion and replayed from it on resume.
///
/// [`RunRecord`] implements this for the paper's experiment grids, and
/// `ccn-scenario`'s `ConformanceRecord` for the per-architecture outcomes
/// of the conformance sweep. The contract is the same as
/// [`RunRecord`]'s: `from_json(to_json(r)) == Some(r)`, bit-for-bit, and
/// `from_json` returns `None` (never panics) on a foreign or outdated
/// schema so stale checkpoint lines degrade to a re-run.
pub trait SweepRecord: Clone + Send {
    /// Serializes the record for a checkpoint line.
    fn to_json(&self) -> Json;
    /// Deserializes a checkpointed record; `None` on schema mismatch.
    fn from_json(v: &Json) -> Option<Self>
    where
        Self: Sized;
}

/// The checkpointable reduction of a [`SimReport`]: every statistic the
/// paper's tables and figures consume, and nothing per-node.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload label.
    pub workload: String,
    /// Architecture label (HWC/PPC/2HWC/2PPC).
    pub architecture: String,
    /// Execution time of the measured phase, in CPU cycles.
    pub exec_cycles: u64,
    /// Instructions executed in the measured phase.
    pub instructions: u64,
    /// Requests to all coherence controllers.
    pub cc_arrivals: u64,
    /// Total controller occupancy in cycles.
    pub cc_occupancy: u64,
    /// Mean controller queueing delay (ns).
    pub queue_delay_ns: f64,
    /// Average controller utilization (Table 6).
    pub avg_utilization: f64,
    /// Mean request arrival rate per controller (requests/µs).
    pub arrival_rate_per_us: f64,
    /// LPE utilization (two-engine architectures; 0 otherwise).
    pub lpe_utilization: f64,
    /// RPE utilization.
    pub rpe_utilization: f64,
    /// Fraction of requests handled by the LPE.
    pub lpe_share: f64,
    /// Fraction of requests handled by the RPE.
    pub rpe_share: f64,
    /// LPE queueing delay (ns).
    pub lpe_queue_ns: f64,
    /// RPE queueing delay (ns).
    pub rpe_queue_ns: f64,
}

impl RunRecord {
    /// Reduces a full simulation report to the sweep record.
    pub fn from_report(r: &SimReport) -> RunRecord {
        RunRecord {
            workload: r.workload.clone(),
            architecture: r.architecture.clone(),
            exec_cycles: r.exec_cycles,
            instructions: r.instructions,
            cc_arrivals: r.cc_arrivals,
            cc_occupancy: r.cc_occupancy,
            queue_delay_ns: r.queue_delay_ns,
            avg_utilization: r.avg_utilization(),
            arrival_rate_per_us: r.arrival_rate_per_us(),
            lpe_utilization: r.avg_engine_utilization("LPE"),
            rpe_utilization: r.avg_engine_utilization("RPE"),
            lpe_share: r.engine_request_share("LPE"),
            rpe_share: r.engine_request_share("RPE"),
            lpe_queue_ns: r.engine_queue_delay_ns("LPE"),
            rpe_queue_ns: r.engine_queue_delay_ns("RPE"),
        }
    }

    /// RCCPI: controller requests per instruction.
    pub fn rccpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cc_arrivals as f64 / self.instructions as f64
        }
    }

    /// Serializes the record for a checkpoint line. Floats use Rust's
    /// shortest round-trip form, so [`RunRecord::from_json`] reproduces
    /// the value bit-for-bit.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("architecture", Json::Str(self.architecture.clone())),
            ("exec_cycles", Json::UInt(self.exec_cycles)),
            ("instructions", Json::UInt(self.instructions)),
            ("cc_arrivals", Json::UInt(self.cc_arrivals)),
            ("cc_occupancy", Json::UInt(self.cc_occupancy)),
            ("queue_delay_ns", Json::Num(self.queue_delay_ns)),
            ("avg_utilization", Json::Num(self.avg_utilization)),
            ("arrival_rate_per_us", Json::Num(self.arrival_rate_per_us)),
            ("lpe_utilization", Json::Num(self.lpe_utilization)),
            ("rpe_utilization", Json::Num(self.rpe_utilization)),
            ("lpe_share", Json::Num(self.lpe_share)),
            ("rpe_share", Json::Num(self.rpe_share)),
            ("lpe_queue_ns", Json::Num(self.lpe_queue_ns)),
            ("rpe_queue_ns", Json::Num(self.rpe_queue_ns)),
        ])
    }

    /// Deserializes a checkpointed record. Returns `None` when a field is
    /// missing or mistyped (e.g. a checkpoint from an older schema).
    pub fn from_json(v: &Json) -> Option<RunRecord> {
        Some(RunRecord {
            workload: v.get("workload")?.as_str()?.to_string(),
            architecture: v.get("architecture")?.as_str()?.to_string(),
            exec_cycles: v.get("exec_cycles")?.as_u64()?,
            instructions: v.get("instructions")?.as_u64()?,
            cc_arrivals: v.get("cc_arrivals")?.as_u64()?,
            cc_occupancy: v.get("cc_occupancy")?.as_u64()?,
            queue_delay_ns: v.get("queue_delay_ns")?.as_f64()?,
            avg_utilization: v.get("avg_utilization")?.as_f64()?,
            arrival_rate_per_us: v.get("arrival_rate_per_us")?.as_f64()?,
            lpe_utilization: v.get("lpe_utilization")?.as_f64()?,
            rpe_utilization: v.get("rpe_utilization")?.as_f64()?,
            lpe_share: v.get("lpe_share")?.as_f64()?,
            rpe_share: v.get("rpe_share")?.as_f64()?,
            lpe_queue_ns: v.get("lpe_queue_ns")?.as_f64()?,
            rpe_queue_ns: v.get("rpe_queue_ns")?.as_f64()?,
        })
    }
}

impl SweepRecord for RunRecord {
    fn to_json(&self) -> Json {
        RunRecord::to_json(self)
    }
    fn from_json(v: &Json) -> Option<Self> {
        RunRecord::from_json(v)
    }
}

/// The jobs of a sweep that panicked, as `(job id, panic message)` pairs
/// in job order. Every other job of the sweep still ran and was
/// checkpointed, so a re-run resumes rather than repeating the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepFailure(pub Vec<(String, String)>);

impl std::fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} job(s) panicked:", self.0.len())?;
        for (id, msg) in &self.0 {
            write!(f, "\n  {id}: {msg}")?;
        }
        Ok(())
    }
}

/// Cumulative execution statistics across a [`Runner`]'s sweeps.
#[derive(Debug, Default, Clone)]
pub struct SweepStats {
    /// Simulations actually executed.
    pub executed: usize,
    /// Simulations skipped because a checkpoint already recorded them.
    pub skipped: usize,
    /// Merged pool telemetry for the executed portion.
    pub summary: Option<SweepSummary>,
}

/// Executes experiment grids: expansion, worker pool, checkpoint, resume.
///
/// A `Runner` is configured once and then threaded through the
/// `*_with` experiment entry points; its [`SweepStats`] accumulate over
/// every sweep it runs, so a multi-target `repro` invocation can report
/// one end-of-run summary.
#[derive(Debug)]
pub struct Runner {
    opts: Options,
    workers: usize,
    progress: bool,
    checkpoint: Option<PathBuf>,
    checkpoint_meta: Vec<(&'static str, Json)>,
    metrics_dir: Option<PathBuf>,
    flight_capacity: Option<usize>,
    tally: Mutex<SweepStats>,
}

impl Runner {
    /// One worker, no checkpointing, no telemetry: the baseline for
    /// determinism checks, and the runner tests hand to the `*_with`
    /// experiment entry points.
    pub fn sequential(opts: Options) -> Self {
        Runner {
            opts,
            workers: 1,
            progress: false,
            checkpoint: None,
            checkpoint_meta: Vec::new(),
            metrics_dir: None,
            flight_capacity: None,
            tally: Mutex::new(SweepStats::default()),
        }
    }

    /// A parallel runner: `workers` threads, live progress on stderr.
    pub fn parallel(opts: Options, workers: usize) -> Self {
        Runner {
            opts,
            workers: workers.max(1),
            progress: true,
            checkpoint: None,
            checkpoint_meta: Vec::new(),
            metrics_dir: None,
            flight_capacity: None,
            tally: Mutex::new(SweepStats::default()),
        }
    }

    /// Checkpoints completed jobs to `path` and, on the next run against
    /// the same file, skips every job already recorded as ok.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Extra key/value pairs stamped into the checkpoint's meta line
    /// (e.g. the target name and the git revision).
    pub fn with_meta(mut self, meta: Vec<(&'static str, Json)>) -> Self {
        self.checkpoint_meta = meta;
        self
    }

    /// Writes a per-run metrics sidecar (latency histograms, see
    /// [`crate::observe::report_metrics`]) into `dir` for every job this
    /// runner simulates, named after the job id. Sidecar content is a
    /// deterministic function of the job alone, so the files are
    /// byte-identical regardless of worker count or finish order. Jobs
    /// replayed from a checkpoint are not re-simulated and keep whatever
    /// sidecar the recording sweep wrote.
    pub fn with_metrics_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.metrics_dir = Some(dir.into());
        self
    }

    /// Runs every job with a transaction flight recorder of the given
    /// ring capacity, so each metrics sidecar carries a per-run `blame`
    /// summary (component shares of total and tail miss cycles). The
    /// recorder is strictly observational: records and checkpoints are
    /// byte-identical with it on or off.
    pub fn with_blame(mut self, ring_capacity: usize) -> Self {
        self.flight_capacity = Some(ring_capacity.max(1));
        self
    }

    /// Enables or disables per-job progress lines on stderr.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// The machine size and problem scale this runner sweeps at.
    pub fn options(&self) -> Options {
        self.opts
    }

    /// Cumulative statistics over every sweep this runner has executed.
    pub fn stats(&self) -> SweepStats {
        self.tally.lock().expect("sweep stats lock").clone()
    }

    /// Runs one grid of simulations and returns a record per key, in key
    /// order. Duplicate keys are simulated once. Jobs already recorded in
    /// the checkpoint are replayed from it instead of re-simulated.
    ///
    /// # Panics
    ///
    /// Panics when any job panicked (every other job still ran and was
    /// checkpointed, so a re-run resumes rather than repeating the whole
    /// sweep), or when the checkpoint file cannot be read or written.
    pub fn run(&self, keys: &[RunKey]) -> Vec<RunRecord> {
        let opts = self.opts;
        let jobs: Vec<(String, RunKey)> = keys.iter().map(|k| (k.id(opts), *k)).collect();
        let metrics_dir = self.metrics_dir.clone();
        let flight_capacity = self.flight_capacity;
        self.run_keyed(jobs, move |k| {
            let report = run_one_instrumented(k.app, k.arch, opts, k.mods, flight_capacity);
            if let Some(dir) = &metrics_dir {
                let payload = crate::observe::report_metrics(&report);
                ccn_obs::write_sidecar(dir, &k.id(opts), &payload)
                    .unwrap_or_else(|e| panic!("writing metrics sidecar for {}: {e}", k.id(opts)));
            }
            RunRecord::from_report(&report)
        })
        .unwrap_or_else(|failure| panic!("sweep failed: {failure}"))
    }

    /// The generic sweep core behind [`Runner::run`]: executes arbitrary
    /// `(id, input)` jobs with the same dedup / checkpoint-replay / worker
    /// pool / telemetry machinery. Callers supply stable ids (same
    /// contract as [`RunKey::id`]) and an executor that depends only on the
    /// input. Records come back in request order; duplicate ids execute
    /// once.
    ///
    /// # Errors
    ///
    /// Returns the jobs that panicked, after every job has run.
    ///
    /// # Panics
    ///
    /// Panics when the checkpoint file cannot be read or written.
    pub fn run_keyed<I, R, F>(
        &self,
        jobs: Vec<(String, I)>,
        exec: F,
    ) -> Result<Vec<R>, SweepFailure>
    where
        I: Send + Sync,
        R: SweepRecord,
        F: Fn(&I) -> R + Sync,
    {
        let opts = self.opts;
        let (ids, inputs): (Vec<String>, Vec<I>) = jobs.into_iter().unzip();

        // Deduplicate, preserving first-occurrence order.
        let mut slot_of: HashMap<&str, usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if !slot_of.contains_key(id.as_str()) {
                slot_of.insert(id, unique.len());
                unique.push(i);
            }
        }

        // Replay whatever the checkpoint already holds.
        let mut records: Vec<Option<R>> = (0..unique.len()).map(|_| None).collect();
        let mut pending: Vec<usize> = Vec::new();
        let mut skipped = 0usize;
        let loaded = match &self.checkpoint {
            Some(path) => checkpoint::load(path).expect("checkpoint file is readable"),
            None => Default::default(),
        };
        for (slot, &ki) in unique.iter().enumerate() {
            let replayed = loaded.completed(&ids[ki]).and_then(R::from_json);
            match replayed {
                Some(rec) => {
                    records[slot] = Some(rec);
                    skipped += 1;
                }
                None => pending.push(slot),
            }
        }

        // Run the rest on the pool, appending each completion.
        let jobs: Vec<Job<&I>> = pending
            .iter()
            .map(|&slot| Job::new(ids[unique[slot]].clone(), &inputs[unique[slot]]))
            .collect();
        let cfg = PoolConfig {
            workers: self.workers,
            progress: self.progress,
        };
        let mut writer = self.checkpoint.as_ref().map(|path| {
            let mut meta = vec![
                ("scale", Json::Str(scale_tag(opts.scale).to_string())),
                ("nodes", Json::UInt(opts.nodes as u64)),
                ("procs_per_node", Json::UInt(opts.procs_per_node as u64)),
            ];
            meta.extend(self.checkpoint_meta.iter().cloned());
            CheckpointWriter::open(path, meta).expect("checkpoint file is writable")
        });
        let result = run_jobs(
            &jobs,
            &cfg,
            |job| exec(job.input),
            |job, outcome| {
                if let Some(w) = writer.as_mut() {
                    match &outcome.status {
                        JobStatus::Ok(rec) => w
                            .record_ok(&job.id, outcome.wall_ms, rec.to_json())
                            .expect("checkpoint append"),
                        JobStatus::Failed(msg) => w
                            .record_failed(&job.id, outcome.wall_ms, msg)
                            .expect("checkpoint append"),
                    }
                }
            },
        );

        {
            let mut tally = self.tally.lock().expect("sweep stats lock");
            tally.executed += jobs.len();
            tally.skipped += skipped;
            match &mut tally.summary {
                Some(s) => s.merge(&result.summary),
                slot => *slot = Some(result.summary.clone()),
            }
        }

        if !result.all_ok() {
            return Err(SweepFailure(result.summary.failed));
        }
        for (slot, outcome) in pending.into_iter().zip(result.outcomes) {
            if let JobStatus::Ok(rec) = outcome.status {
                records[slot] = Some(rec);
            }
        }

        Ok(ids
            .iter()
            .map(|id| {
                records[slot_of[id.as_str()]]
                    .clone()
                    .expect("every slot was replayed or executed")
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_key_ids_are_distinct_and_stable() {
        let opts = Options::quick();
        let a = RunKey::new(SuiteApp::OceanBase, Architecture::Hwc);
        assert_eq!(a.id(opts), "tiny/4x2/OceanBase/HWC");
        let b = RunKey::with_mods(
            SuiteApp::OceanBase,
            Architecture::Hwc,
            ConfigMods {
                line_bytes: Some(32),
                slow_net: true,
                procs_per_node: Some(8),
            },
        );
        assert_eq!(b.id(opts), "tiny/4x2/OceanBase/HWC+line32+slownet+ppn8");
        assert_ne!(
            a.id(opts),
            RunKey::new(SuiteApp::OceanBase, Architecture::Ppc).id(opts)
        );
    }

    #[test]
    fn metrics_sidecars_are_written_and_deterministic() {
        let dir = std::env::temp_dir().join(format!("ccn-sweep-sidecar-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = Options::quick();
        let keys = [RunKey::new(SuiteApp::OceanBase, Architecture::Hwc)];
        let seq = Runner::sequential(opts).with_metrics_dir(&dir);
        seq.run(&keys);
        let path = ccn_obs::sidecar_path(&dir, &keys[0].id(opts));
        let first = std::fs::read_to_string(&path).unwrap();
        // The payload carries a parseable miss-latency histogram.
        let json = ccn_harness::json::parse(&first).unwrap();
        assert!(ccn_obs::histogram_from_json(json.get("miss_latency").unwrap()).is_some());
        // Re-running on a parallel pool rewrites a byte-identical file.
        std::fs::remove_file(&path).unwrap();
        Runner::parallel(opts, 2)
            .with_progress(false)
            .with_metrics_dir(&dir)
            .run(&keys);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn record_round_trips_through_json_bit_for_bit() {
        let rec = RunRecord {
            workload: "ocean".into(),
            architecture: "2PPC".into(),
            exec_cycles: 123_456_789,
            instructions: 987_654_321,
            cc_arrivals: 4242,
            cc_occupancy: 777,
            queue_delay_ns: 321.0625,
            avg_utilization: 1.0 / 3.0,
            arrival_rate_per_us: 2.5,
            lpe_utilization: 0.1,
            rpe_utilization: 0.2,
            lpe_share: 0.3,
            rpe_share: 0.7,
            lpe_queue_ns: 1e-9,
            rpe_queue_ns: 12345.678,
        };
        let line = rec.to_json().to_string();
        let back = RunRecord::from_json(&ccn_harness::json::parse(&line).unwrap()).unwrap();
        assert_eq!(rec, back);
        assert!(rec.avg_utilization.to_bits() == back.avg_utilization.to_bits());
    }

    #[test]
    fn rccpi_matches_report_definition() {
        let mut rec = RunRecord::from_json(&Json::Null);
        assert!(rec.is_none());
        rec = Some(RunRecord {
            workload: String::new(),
            architecture: String::new(),
            exec_cycles: 0,
            instructions: 1000,
            cc_arrivals: 4,
            cc_occupancy: 0,
            queue_delay_ns: 0.0,
            avg_utilization: 0.0,
            arrival_rate_per_us: 0.0,
            lpe_utilization: 0.0,
            rpe_utilization: 0.0,
            lpe_share: 0.0,
            rpe_share: 0.0,
            lpe_queue_ns: 0.0,
            rpe_queue_ns: 0.0,
        });
        assert!((rec.unwrap().rccpi() - 0.004).abs() < 1e-12);
    }
}
