//! Cross-architecture differential conformance.
//!
//! The four controller architectures (HWC, PPC, 2HWC, 2PPC) differ only
//! in *when* protocol work happens, never in *what* it computes. This
//! module draws randomized workloads from the protocol-torture envelope
//! and asserts that the timing-independent functional outcome — per-line
//! write serials, home-memory contents, and residual directory state —
//! is bit-identical on every architecture (see
//! [`ccnuma::FunctionalSnapshot`]).
//!
//! For the final state to be architecture-independent the workload must
//! end in a *scrubbed* configuration: a deterministic epilogue makes
//! every processor flush its cache (walking a private, home-local
//! scratch region larger than the L2), then has processor 0 rewrite and
//! flush every shared line, all separated by barriers. After that, every
//! shared line is version-`N` in its home memory with an idle `Uncached`
//! directory entry, regardless of which interleaving the timing produced
//! along the way.
//!
//! The module owns only the workload. Running it is the scenario sweep's
//! job: each case runs through [`ccn_scenario::run_checked`] on the
//! quick 4x2 [`ccn_scenario::scenario_config`] machine (its 32 KB L2
//! keeps the flushes cheap *and* makes capacity evictions race mid-run),
//! and [`run_conformance`] is [`ccn_scenario::run_agreement`] over the
//! cases, so conformance sweeps get the same worker pool, checkpointing,
//! resume and mismatch diagnosis as scenario sweeps.

use ccn_protocol::DirFormat;
use ccn_scenario::{
    run_agreement, run_checked, scenario_config, ConformanceRecord, SCENARIO_L2_BYTES,
};
use ccn_sim::SplitMix64;
use ccn_workloads::{
    append_scrub, Access, AddressSpace, AppBuild, Application, MachineShape, Segment,
};
use ccnuma::{Architecture, FunctionalSnapshot, Runner};

/// The conformance machine: 4 nodes x 2 processors.
const CONF_MACHINE: (usize, usize) = (4, 2);

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
/// scrub epilogue (whose flush walks 2x the conformance machine's L2).
#[derive(Debug, Clone)]
pub struct ConfApp {
    /// The case knobs.
    pub case: ConfCase,
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
            SCENARIO_L2_BYTES,
        );
        AppBuild {
            programs,
            placements: space.into_placements(),
        }
    }
}

/// Runs one (case, architecture) pair under a chosen directory sharer
/// representation and returns the record plus the full snapshot. The
/// scrub epilogue drives every directory empty, so the functional
/// snapshot — and therefore the digest — must not depend on the format:
/// coarse and limited-pointer runs over-invalidate and sparse runs
/// recall, but what gets *written where* is identical.
///
/// # Panics
///
/// As [`run_checked`].
pub fn run_case(
    case: ConfCase,
    arch: Architecture,
    format: DirFormat,
) -> (ConformanceRecord, FunctionalSnapshot) {
    let (nodes, ppn) = CONF_MACHINE;
    let cfg = scenario_config(arch, nodes, ppn).with_dir_format(format);
    let (report, snap) = run_checked(&ConfApp { case }, cfg);
    (ConformanceRecord::new(&report, &snap), snap)
}

/// Runs `cases` on every architecture through [`run_agreement`] (job ids
/// `conf/{case}/{architecture}`) and checks that, per case, every
/// architecture produced an identical functional snapshot. Returns the
/// records case by case; on a mismatch, the first field-level snapshot
/// difference.
pub fn run_conformance(
    runner: &Runner,
    cases: &[ConfCase],
) -> Result<Vec<ConformanceRecord>, String> {
    let apps: Vec<(String, ConfApp)> = cases
        .iter()
        .map(|&case| (format!("conf/{}", case.case), ConfApp { case }))
        .collect();
    run_agreement(runner, &apps, CONF_MACHINE, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccnuma::experiments::Options;

    #[test]
    fn scrub_epilogue_leaves_no_directory_state() {
        let (rec, snap) = run_case(ConfCase::draw(0), Architecture::Hwc, DirFormat::FullMap);
        assert_eq!(
            rec.directory, 0,
            "scrub left directory state: {:?}",
            snap.directory
        );
        assert!(rec.versions > 0, "workload never wrote");
    }

    #[test]
    fn one_case_agrees_across_architectures() {
        let runner = Runner::sequential(Options::quick());
        let records = run_conformance(&runner, &conformance_cases(1)).expect("architectures agree");
        assert_eq!(records.len(), Architecture::all().len());
    }
}
