//! SPLASH-2-like workloads as memory-reference programs.
//!
//! The paper drives its simulations with eight SPLASH-2 applications under
//! the Augmint execution-driven simulator. This crate substitutes
//! *memory-reference-level kernel models*: each application is
//! re-implemented as a per-processor program that emits the same shared-data
//! access pattern as the original code — the same arrays, sizes and page
//! placement, the same phase/barrier structure, element-level touches in
//! the same order, and `Compute` operations carrying the arithmetic between
//! touches (1 instruction per cycle). See DESIGN.md §3 for why this
//! preserves what the study measures.
//!
//! * [`Op`] / [`Segment`] / [`SegmentProgram`] — the program representation
//!   consumed by the simulated processors.
//! * [`space::AddressSpace`] — shared-region allocation with page-placement
//!   hints.
//! * [`apps`] — the eight kernels (LU, Cholesky, Water-Nsq, Water-Spatial,
//!   Barnes, FFT, Radix, Ocean).
//! * [`micro`] — synthetic micro-workloads for calibration and protocol
//!   torture tests.
//! * [`suite`] — named problem-size presets (Table 5 sizes and scaled-down
//!   defaults).
//! * [`append_scrub`] — the barrier-separated flush/rewrite/flush
//!   epilogue that leaves a run's functional end state independent of
//!   the controller architecture.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod micro;
pub mod segment;
pub mod space;
pub mod suite;

use ccn_sim::FxHashSet;

pub use segment::{Access, Op, Segment, SegmentProgram};
pub use space::AddressSpace;

/// The machine dimensions a workload needs to lay itself out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineShape {
    /// Number of SMP nodes.
    pub nodes: usize,
    /// Compute processors per node.
    pub procs_per_node: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Cache-line size in bytes.
    pub line_bytes: u64,
}

impl MachineShape {
    /// Total processors in the machine.
    pub fn nprocs(&self) -> usize {
        self.nodes * self.procs_per_node
    }

    /// The node a processor belongs to.
    pub fn node_of(&self, proc_index: usize) -> usize {
        proc_index / self.procs_per_node
    }
}

/// A built workload: one program per processor plus page-placement hints.
#[derive(Debug, Clone)]
pub struct AppBuild {
    /// One segment program per processor, indexed by processor id.
    pub programs: Vec<Vec<Segment>>,
    /// Explicit page placements `(page_index, node_index)`; pages not
    /// listed fall back to round-robin.
    pub placements: Vec<(u64, u16)>,
}

impl AppBuild {
    /// Upper bound on the distinct cache lines the built programs can
    /// touch: the union of every segment's address range, counted in
    /// `line_bytes` lines. Machines pre-size their functional state
    /// tables (memory images, version stamps) with this so that
    /// steady-state execution never grows them.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two.
    pub fn footprint_lines(&self, line_bytes: u64) -> usize {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let shift = line_bytes.trailing_zeros();
        // Processors repeat each other's ranges (Ocean at the repro scale
        // on 16x4: 15,008 distinct of 335,872), so only the distinct ones
        // are sorted and merged.
        let mut distinct: FxHashSet<(u64, u64)> = FxHashSet::default();
        for prog in &self.programs {
            for seg in prog {
                let (base, bytes) = match *seg {
                    Segment::Walk { base, bytes, .. } | Segment::RandomWalk { base, bytes, .. } => {
                        (base, bytes.max(1))
                    }
                    Segment::Touch { addr, .. } => (addr, 1),
                    _ => continue,
                };
                distinct.insert((base >> shift, ((base + bytes - 1) >> shift) + 1));
            }
        }
        let mut ranges: Vec<(u64, u64)> = distinct.into_iter().collect();
        ranges.sort_unstable();
        let mut lines = 0;
        let mut current: Option<(u64, u64)> = None;
        for (start, end) in ranges {
            match current {
                Some((_, open_end)) if start <= open_end => {
                    current = current.map(|(s, e)| (s, e.max(end)));
                }
                _ => {
                    if let Some((s, e)) = current {
                        lines += e - s;
                    }
                    current = Some((start, end));
                }
            }
        }
        if let Some((s, e)) = current {
            lines += e - s;
        }
        lines as usize
    }
}

/// Appends the deterministic scrub epilogue to every program: everyone
/// flushes their cache, processor 0 rewrites every line of `regions` and
/// flushes again, all separated by four barriers numbered from
/// `next_barrier` (which advances past them). The shared lines end at a
/// deterministic version in home memory with idle directory entries, so
/// the final functional snapshot is architecture-independent.
/// `l2_bytes` must be the machine's L2 capacity: each flush walks twice
/// that.
pub fn append_scrub(
    programs: &mut [Vec<Segment>],
    space: &mut AddressSpace,
    shape: &MachineShape,
    regions: &[(u64, u64)],
    next_barrier: &mut u32,
    l2_bytes: u64,
) {
    let nprocs = programs.len();
    // Private, home-local scratch: walking 2× the L2 evicts every prior
    // occupant of every set without creating directory state.
    let flush_bytes = 2 * l2_bytes;
    let scratch: Vec<u64> = (0..nprocs)
        .map(|p| space.alloc_at(flush_bytes, shape.node_of(p) as u16))
        .collect();
    let scratch2 = space.alloc_at(flush_bytes, shape.node_of(0) as u16);
    let flush = |base: u64| Segment::Walk {
        base,
        bytes: flush_bytes,
        stride: shape.line_bytes as u32,
        access: Access::Read,
        work: 0,
    };
    let mut fresh = || {
        let id = *next_barrier;
        *next_barrier += 1;
        id
    };
    let barriers = [fresh(), fresh(), fresh(), fresh()];
    for (p, prog) in programs.iter_mut().enumerate() {
        prog.push(Segment::Barrier(barriers[0]));
        prog.push(flush(scratch[p]));
        prog.push(Segment::Barrier(barriers[1]));
        if p == 0 {
            for &(base, bytes) in regions {
                // Round up to whole lines so even a sub-line region's
                // line is rewritten (allocations are page-granular, so
                // the rounding stays inside the region's pages).
                let lines = bytes.div_ceil(shape.line_bytes);
                prog.push(Segment::Walk {
                    base,
                    bytes: lines * shape.line_bytes,
                    stride: shape.line_bytes as u32,
                    access: Access::Write,
                    work: 0,
                });
            }
        }
        prog.push(Segment::Barrier(barriers[2]));
        if p == 0 {
            prog.push(flush(scratch2));
        }
        prog.push(Segment::Barrier(barriers[3]));
    }
}

/// An application that can be instantiated on a machine shape.
pub trait Application {
    /// Display name (as used in the paper's tables, e.g. "Ocean-258").
    fn name(&self) -> String;
    /// Builds the per-processor programs for `shape`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the shape cannot run the problem size
    /// (e.g. more processors than rows to distribute).
    fn build(&self, shape: &MachineShape) -> AppBuild;
}
