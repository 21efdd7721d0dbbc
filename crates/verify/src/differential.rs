//! Cross-architecture differential conformance.
//!
//! The four controller architectures (HWC, PPC, 2HWC, 2PPC) differ only
//! in *when* protocol work happens, never in *what* it computes. This
//! module runs identical randomized workloads through all four and
//! asserts that the timing-independent functional outcome — per-line
//! write serials, home-memory contents, and residual directory state —
//! is bit-identical (see [`ccnuma::FunctionalSnapshot`]).
//!
//! For the final state to be architecture-independent the workload must
//! end in a *scrubbed* configuration: a deterministic epilogue makes
//! every processor flush its cache (walking a private, home-local
//! scratch region larger than the L2), then has processor 0 rewrite and
//! flush every shared line, all separated by barriers. After that, every
//! shared line is version-`N` in its home memory with an idle `Uncached`
//! directory entry, regardless of which interleaving the timing produced
//! along the way. The machine shrinks the L2 (32 KB) so the flushes are
//! cheap *and* capacity evictions/write-back races occur mid-run.
//!
//! Jobs run through the ordinary [`ccnuma::Runner`], so conformance
//! sweeps get the same worker pool, checkpointing and resume behavior as
//! the paper's experiment grids.

use ccn_harness::Json;
use ccn_sim::SplitMix64;
use ccn_workloads::{
    append_scrub, Access, AddressSpace, AppBuild, Application, MachineShape, Segment,
};
use ccnuma::{Architecture, FunctionalSnapshot, Machine, Runner, SweepRecord, SystemConfig};

/// The four controller architectures under comparison.
///
/// These are the config-level selectors; each maps to an engine kind
/// and an engine policy ([`Architecture::engine`],
/// [`Architecture::engines`]). A fifth [`Architecture`] variant (see
/// `docs/MODEL.md`) joins the sweep by being appended here — appended,
/// not inserted: the conformance digests render snapshots in this
/// order, so reordering would re-key every golden.
pub const ARCHS: [Architecture; 4] = [
    Architecture::Hwc,
    Architecture::Ppc,
    Architecture::TwoHwc,
    Architecture::TwoPpc,
];

/// L2 override used by conformance runs: small enough that the flush
/// epilogue is cheap and capacity misses exercise eviction races.
pub const CONF_L2_BYTES: u64 = 32 * 1024;

/// Event-count watchdog per run (converts a livelock into a failure).
const EVENT_LIMIT: u64 = 60_000_000;

/// Knobs of one conformance workload (same envelope as the protocol
/// torture suite, plus the deterministic scrub epilogue).
#[derive(Debug, Clone, Copy)]
pub struct ConfCase {
    /// Case index (also names the job).
    pub case: u64,
    /// Shared-region size in cache lines.
    pub region_lines: u64,
    /// Random touches per processor per run.
    pub touches: u32,
    /// Percentage of touches that are writes.
    pub write_percent: u32,
    /// Line-granular (true) or word-granular (false) touches.
    pub line_granular: bool,
    /// Serialize phases with locks.
    pub use_locks: bool,
    /// Number of barrier-separated phases.
    pub phases: u32,
    /// Seed for the per-processor address streams.
    pub seed: u64,
}

impl ConfCase {
    /// Draws case `case` from the deterministic envelope.
    pub fn draw(case: u64) -> Self {
        let mut rng = SplitMix64::new(0xD1FF ^ (case.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        ConfCase {
            case,
            region_lines: 2 + rng.next_below(62),
            touches: 50 + rng.next_below(750) as u32,
            write_percent: rng.next_below(101) as u32,
            line_granular: rng.chance(0.5),
            use_locks: rng.chance(0.5),
            phases: 1 + rng.next_below(3) as u32,
            seed: rng.next_u64(),
        }
    }
}

/// The first `n` conformance cases.
pub fn conformance_cases(n: u64) -> Vec<ConfCase> {
    (0..n).map(ConfCase::draw).collect()
}

/// A [`ConfCase`] instantiated as a machine workload, including the
/// scrub epilogue.
#[derive(Debug, Clone)]
pub struct ConfApp {
    /// The case knobs.
    pub case: ConfCase,
    /// The L2 capacity the machine will use (the flush walks 2× this).
    pub l2_bytes: u64,
}

impl Application for ConfApp {
    fn name(&self) -> String {
        format!("conf{}", self.case.case)
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let c = &self.case;
        let mut space = AddressSpace::new(shape.page_bytes);
        let region_bytes = c.region_lines * shape.line_bytes;
        let region = space.alloc(region_bytes);
        let stride = if c.line_granular {
            shape.line_bytes as u32
        } else {
            8
        };
        let writes = c.touches * c.write_percent / 100;
        let reads = c.touches - writes;
        let nprocs = shape.nprocs();
        let mut programs = Vec::with_capacity(nprocs);
        for p in 0..nprocs {
            let mut segs = vec![Segment::Barrier(0), Segment::StartMeasurement];
            // Body: the torture envelope.
            for phase in 0..c.phases {
                let seed = c
                    .seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((p as u64) << 16 | phase as u64);
                if c.use_locks {
                    segs.push(Segment::Lock(phase % 4));
                }
                segs.push(Segment::RandomWalk {
                    base: region,
                    bytes: region_bytes,
                    count: reads / c.phases.max(1),
                    stride,
                    access: Access::Read,
                    work: 2,
                    seed,
                });
                segs.push(Segment::RandomWalk {
                    base: region,
                    bytes: region_bytes,
                    count: writes / c.phases.max(1),
                    stride,
                    access: Access::Write,
                    work: 2,
                    seed: seed ^ 0xFFFF,
                });
                if c.use_locks {
                    segs.push(Segment::Unlock(phase % 4));
                }
                segs.push(Segment::Barrier(1 + phase));
            }
            programs.push(segs);
        }
        // Barriers 100..=103 stay clear of the body's 1..=phases.
        append_scrub(
            &mut programs,
            &mut space,
            shape,
            &[(region, region_bytes)],
            &mut 100,
            self.l2_bytes,
        );
        AppBuild {
            programs,
            placements: space.into_placements(),
        }
    }
}

/// The functional outcome of one (case, architecture) run, reduced to a
/// checkpointable record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfRecord {
    /// Case index.
    pub case: u64,
    /// Architecture label.
    pub architecture: String,
    /// [`FunctionalSnapshot::digest`] of the end state.
    pub digest: u64,
    /// Number of written lines in the snapshot.
    pub versions: u64,
    /// Number of home-memory entries in the snapshot.
    pub memory: u64,
    /// Number of residual (non-idle-Uncached) directory entries; the
    /// scrub epilogue should leave this at zero.
    pub directory: u64,
    /// Measured-phase cycles (architecture-dependent; recorded for
    /// context, excluded from conformance comparison).
    pub exec_cycles: u64,
}

impl SweepRecord for ConfRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("case", Json::UInt(self.case)),
            ("architecture", Json::Str(self.architecture.clone())),
            ("digest", Json::UInt(self.digest)),
            ("versions", Json::UInt(self.versions)),
            ("memory", Json::UInt(self.memory)),
            ("directory", Json::UInt(self.directory)),
            ("exec_cycles", Json::UInt(self.exec_cycles)),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        Some(ConfRecord {
            case: v.get("case")?.as_u64()?,
            architecture: v.get("architecture")?.as_str()?.to_string(),
            digest: v.get("digest")?.as_u64()?,
            versions: v.get("versions")?.as_u64()?,
            memory: v.get("memory")?.as_u64()?,
            directory: v.get("directory")?.as_u64()?,
            exec_cycles: v.get("exec_cycles")?.as_u64()?,
        })
    }
}

/// The machine configuration conformance runs use.
pub fn conf_config(arch: Architecture) -> SystemConfig {
    SystemConfig::small()
        .with_architecture(arch)
        .with_l2_bytes(CONF_L2_BYTES)
}

/// Runs one (case, architecture) pair and returns the record plus the
/// full snapshot (for diffing on mismatch).
pub fn run_case(case: ConfCase, arch: Architecture) -> (ConfRecord, FunctionalSnapshot) {
    run_case_with_format(case, arch, ccn_protocol::DirFormat::FullMap)
}

/// [`run_case`] under a chosen directory sharer representation. The
/// scrub epilogue drives every directory empty, so the functional
/// snapshot — and therefore the digest — must not depend on the format:
/// coarse and limited-pointer runs over-invalidate and sparse runs
/// recall, but what gets *written where* is identical.
pub fn run_case_with_format(
    case: ConfCase,
    arch: Architecture,
    format: ccn_protocol::DirFormat,
) -> (ConfRecord, FunctionalSnapshot) {
    let app = ConfApp {
        case,
        l2_bytes: CONF_L2_BYTES,
    };
    let mut machine = Machine::new(conf_config(arch).with_dir_format(format), &app)
        .expect("valid conformance config");
    let report = machine.run_with_event_limit(EVENT_LIMIT);
    machine.check_quiescent().unwrap_or_else(|e| {
        panic!(
            "conformance case {} on {}: invariant violated: {e}",
            case.case,
            arch.name()
        )
    });
    let snap = machine.functional_snapshot();
    let rec = ConfRecord {
        case: case.case,
        architecture: arch.name().to_string(),
        digest: snap.digest(),
        versions: snap.versions.len() as u64,
        memory: snap.memory.len() as u64,
        directory: snap.directory.len() as u64,
        exec_cycles: report.exec_cycles,
    };
    (rec, snap)
}

/// Runs `cases` across all four architectures on `runner` and checks
/// that, per case, every architecture produced an identical functional
/// snapshot. Returns the records on success; on a mismatch, re-runs the
/// two disagreeing configurations and returns the first field-level
/// snapshot difference.
pub fn run_conformance(runner: &Runner, cases: &[ConfCase]) -> Result<Vec<ConfRecord>, String> {
    let jobs: Vec<(String, (ConfCase, Architecture))> = cases
        .iter()
        .flat_map(|&c| {
            ARCHS
                .iter()
                .map(move |&a| (format!("conf/{}/{}", c.case, a.name()), (c, a)))
        })
        .collect();
    let records: Vec<ConfRecord> = runner.run_keyed(jobs, |&(case, arch)| run_case(case, arch).0);
    for chunk in records.chunks(ARCHS.len()) {
        let base = &chunk[0];
        for rec in &chunk[1..] {
            if rec.digest != base.digest {
                let case = cases
                    .iter()
                    .find(|c| c.case == base.case)
                    .expect("record for a requested case");
                let (_, a) = run_case(*case, ARCHS[0]);
                let bad_arch = ARCHS
                    .iter()
                    .copied()
                    .find(|ar| ar.name() == rec.architecture)
                    .expect("known architecture");
                let (_, b) = run_case(*case, bad_arch);
                let detail = a
                    .diff(&b)
                    .unwrap_or_else(|| "digest mismatch but snapshots diff clean".to_string());
                return Err(format!(
                    "case {}: {} and {} disagree on the functional outcome: {detail}",
                    base.case, base.architecture, rec.architecture
                ));
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma::sweep;

    #[test]
    fn conf_record_round_trips() {
        let rec = ConfRecord {
            case: 3,
            architecture: "2PPC".to_string(),
            digest: 0xDEAD_BEEF_0BAD_CAFE,
            versions: 17,
            memory: 19,
            directory: 0,
            exec_cycles: 123_456,
        };
        let back = <ConfRecord as SweepRecord>::from_json(&rec.to_json()).expect("round-trip");
        assert_eq!(back, rec);
    }

    #[test]
    fn scrub_epilogue_leaves_no_directory_state() {
        let (rec, snap) = run_case(ConfCase::draw(0), Architecture::Hwc);
        assert_eq!(
            rec.directory, 0,
            "scrub left directory state: {:?}",
            snap.directory
        );
        assert!(rec.versions > 0, "workload never wrote");
    }

    #[test]
    fn one_case_agrees_across_architectures() {
        let runner = sweep::Runner::sequential(ccnuma::experiments::Options::quick());
        let records = run_conformance(&runner, &conformance_cases(1)).expect("architectures agree");
        assert_eq!(records.len(), ARCHS.len());
    }
}
