//! Program representation: operations and segments.

use ccn_sim::SplitMix64;

/// One operation issued by a simulated processor.
///
/// `Read`/`Write` carry byte addresses and count as one instruction each;
/// `Compute` advances time by its cycle count at 1 instruction per cycle
/// (the paper's 200 MHz in-order compute processors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Load from a byte address.
    Read(u64),
    /// Store to a byte address.
    Write(u64),
    /// Local computation for the given number of cycles.
    Compute(u32),
    /// Wait at barrier `id` until all processors arrive.
    Barrier(u32),
    /// Acquire lock `id`.
    Lock(u32),
    /// Release lock `id`.
    Unlock(u32),
    /// Marks the start of the measured (parallel) phase.
    StartMeasurement,
}

/// How a walk touches each element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Load only.
    Read,
    /// Store only.
    Write,
    /// Load then store (update in place).
    ReadWrite,
}

/// A coarse-grained piece of a program, lazily expanded into [`Op`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Segment {
    /// Pure computation for `cycles` cycles.
    Compute(u64),
    /// Touch every `stride`-th byte in `[base, base + bytes)` in order,
    /// spending `work` compute cycles per element.
    Walk {
        /// First byte address.
        base: u64,
        /// Region length in bytes.
        bytes: u64,
        /// Element stride in bytes (typically 8).
        stride: u32,
        /// Element access kind.
        access: Access,
        /// Compute cycles interleaved after each element.
        work: u16,
    },
    /// Touch `count` pseudo-random elements (aligned to `stride`) in
    /// `[base, base + bytes)`, spending `work` cycles per element.
    RandomWalk {
        /// First byte address of the region.
        base: u64,
        /// Region length in bytes.
        bytes: u64,
        /// Number of touches.
        count: u32,
        /// Alignment/stride of the touched elements.
        stride: u32,
        /// Element access kind.
        access: Access,
        /// Compute cycles interleaved after each element.
        work: u16,
        /// Seed for the deterministic address stream.
        seed: u64,
    },
    /// Touch a single element.
    Touch {
        /// Byte address.
        addr: u64,
        /// Access kind.
        access: Access,
    },
    /// Barrier synchronization.
    Barrier(u32),
    /// Acquire a lock.
    Lock(u32),
    /// Release a lock.
    Unlock(u32),
    /// Start of the measured phase (after per-processor warm-up).
    StartMeasurement,
}

/// Cursor state inside the current segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Next emit: the element's read (or sole access).
    First,
    /// Next emit: the write of a read-modify-write element.
    WritePart,
    /// Next emit: the per-element work.
    Work,
}

/// Lazily expands a list of [`Segment`]s into a stream of [`Op`]s.
///
/// # Example
///
/// ```
/// use ccn_workloads::{Access, Op, Segment, SegmentProgram};
///
/// let mut p = SegmentProgram::new(vec![Segment::Walk {
///     base: 0, bytes: 16, stride: 8, access: Access::ReadWrite, work: 3,
/// }]);
/// assert_eq!(p.next_op(), Some(Op::Read(0)));
/// assert_eq!(p.next_op(), Some(Op::Write(0)));
/// assert_eq!(p.next_op(), Some(Op::Compute(3)));
/// assert_eq!(p.next_op(), Some(Op::Read(8)));
/// ```
#[derive(Debug, Clone)]
pub struct SegmentProgram {
    segments: Vec<Segment>,
    seg: usize,
    elem: u64,
    phase: Phase,
    rng: SplitMix64,
    current_addr: u64,
}

impl SegmentProgram {
    /// Wraps a segment list into a resumable op stream.
    pub fn new(segments: Vec<Segment>) -> Self {
        let mut program = SegmentProgram {
            segments,
            seg: 0,
            elem: 0,
            phase: Phase::First,
            rng: SplitMix64::new(0),
            current_addr: 0,
        };
        program.seed_walk();
        program
    }

    /// Number of segments in the program.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    fn advance_segment(&mut self) {
        self.seg += 1;
        self.elem = 0;
        self.phase = Phase::First;
        self.seed_walk();
    }

    /// Starts a random walk's address stream from its own seed when the
    /// current segment is one.
    fn seed_walk(&mut self) {
        if let Some(Segment::RandomWalk { seed, .. }) = self.segments.get(self.seg) {
            self.rng = SplitMix64::new(*seed);
        }
    }

    /// Produces the next operation, or `None` when the program is done.
    pub fn next_op(&mut self) -> Option<Op> {
        loop {
            let segment = *self.segments.get(self.seg)?;
            match segment {
                Segment::Compute(cycles) => {
                    self.advance_segment();
                    if cycles == 0 {
                        continue;
                    }
                    // Chunk very long computations so u32 is enough.
                    if cycles > u32::MAX as u64 {
                        self.segments[self.seg - 1] = Segment::Compute(cycles - u32::MAX as u64);
                        self.seg -= 1;
                        return Some(Op::Compute(u32::MAX));
                    }
                    return Some(Op::Compute(cycles as u32));
                }
                Segment::Touch { addr, access } => match (self.phase, access) {
                    (Phase::First, Access::Read) => {
                        self.advance_segment();
                        return Some(Op::Read(addr));
                    }
                    (Phase::First, Access::Write) => {
                        self.advance_segment();
                        return Some(Op::Write(addr));
                    }
                    (Phase::First, Access::ReadWrite) => {
                        self.phase = Phase::WritePart;
                        return Some(Op::Read(addr));
                    }
                    (Phase::WritePart, _) => {
                        self.advance_segment();
                        return Some(Op::Write(addr));
                    }
                    (Phase::Work, _) => unreachable!("Touch has no work phase"),
                },
                Segment::Walk {
                    base,
                    bytes,
                    stride,
                    access,
                    work,
                } => {
                    let count = bytes / stride as u64;
                    if self.elem >= count {
                        self.advance_segment();
                        continue;
                    }
                    let addr = base + self.elem * stride as u64;
                    if let Some(op) = self.element_op(addr, access, work, count) {
                        return Some(op);
                    }
                }
                Segment::RandomWalk {
                    base,
                    bytes,
                    count,
                    stride,
                    access,
                    work,
                    ..
                } => {
                    if self.elem >= count as u64 {
                        self.advance_segment();
                        continue;
                    }
                    if self.phase == Phase::First {
                        let slots = (bytes / stride as u64).max(1);
                        self.current_addr = base + self.rng.next_below(slots) * stride as u64;
                    }
                    let addr = self.current_addr;
                    if let Some(op) = self.element_op(addr, access, work, count as u64) {
                        return Some(op);
                    }
                }
                Segment::Barrier(id) => {
                    self.advance_segment();
                    return Some(Op::Barrier(id));
                }
                Segment::Lock(id) => {
                    self.advance_segment();
                    return Some(Op::Lock(id));
                }
                Segment::Unlock(id) => {
                    self.advance_segment();
                    return Some(Op::Unlock(id));
                }
                Segment::StartMeasurement => {
                    self.advance_segment();
                    return Some(Op::StartMeasurement);
                }
            }
        }
    }

    /// Emits the next op for the current walk element; returns `None` if
    /// the element is finished (caller loops to the next element).
    fn element_op(&mut self, addr: u64, access: Access, work: u16, _count: u64) -> Option<Op> {
        match self.phase {
            Phase::First => match access {
                Access::Read => {
                    self.phase = Phase::Work;
                    Some(Op::Read(addr))
                }
                Access::Write => {
                    self.phase = Phase::Work;
                    Some(Op::Write(addr))
                }
                Access::ReadWrite => {
                    self.phase = Phase::WritePart;
                    Some(Op::Read(addr))
                }
            },
            Phase::WritePart => {
                self.phase = Phase::Work;
                Some(Op::Write(addr))
            }
            Phase::Work => {
                self.phase = Phase::First;
                self.elem += 1;
                if work > 0 {
                    Some(Op::Compute(work as u32))
                } else {
                    None
                }
            }
        }
    }
}

/// Counts the instructions and references a segment list will produce
/// (reads/writes count 1 instruction each; `Compute(c)` counts `c`).
/// Useful for workload calibration and tests.
pub fn static_op_counts(segments: &[Segment]) -> (u64, u64) {
    let mut instructions = 0u64;
    let mut references = 0u64;
    for seg in segments {
        match *seg {
            Segment::Compute(c) => instructions += c,
            Segment::Touch { access, .. } => {
                let refs = if access == Access::ReadWrite { 2 } else { 1 };
                references += refs;
                instructions += refs;
            }
            Segment::Walk {
                bytes,
                stride,
                access,
                work,
                ..
            } => {
                let n = bytes / stride as u64;
                let per = if access == Access::ReadWrite { 2 } else { 1 };
                references += n * per;
                instructions += n * (per + work as u64);
            }
            Segment::RandomWalk {
                count,
                access,
                work,
                ..
            } => {
                let per = if access == Access::ReadWrite { 2 } else { 1 };
                references += count as u64 * per;
                instructions += count as u64 * (per + work as u64);
            }
            Segment::Barrier(_)
            | Segment::Lock(_)
            | Segment::Unlock(_)
            | Segment::StartMeasurement => {}
        }
    }
    (instructions, references)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut p: SegmentProgram) -> Vec<Op> {
        let mut out = Vec::new();
        while let Some(op) = p.next_op() {
            out.push(op);
            assert!(out.len() < 100_000, "runaway program");
        }
        out
    }

    #[test]
    fn walk_read_emits_in_order() {
        let ops = drain(SegmentProgram::new(vec![Segment::Walk {
            base: 100,
            bytes: 24,
            stride: 8,
            access: Access::Read,
            work: 0,
        }]));
        assert_eq!(ops, vec![Op::Read(100), Op::Read(108), Op::Read(116)]);
    }

    #[test]
    fn walk_readwrite_with_work() {
        let ops = drain(SegmentProgram::new(vec![Segment::Walk {
            base: 0,
            bytes: 16,
            stride: 8,
            access: Access::ReadWrite,
            work: 5,
        }]));
        assert_eq!(
            ops,
            vec![
                Op::Read(0),
                Op::Write(0),
                Op::Compute(5),
                Op::Read(8),
                Op::Write(8),
                Op::Compute(5)
            ]
        );
    }

    #[test]
    fn random_walk_is_deterministic_and_bounded() {
        let seg = Segment::RandomWalk {
            base: 4096,
            bytes: 1024,
            count: 50,
            stride: 8,
            access: Access::Write,
            work: 0,
            seed: 9,
        };
        let a = drain(SegmentProgram::new(vec![seg]));
        let b = drain(SegmentProgram::new(vec![seg]));
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        for op in &a {
            let Op::Write(addr) = op else {
                panic!("expected write")
            };
            assert!((4096..4096 + 1024).contains(addr));
            assert_eq!(addr % 8, 0);
        }
    }

    #[test]
    fn a_leading_random_walk_follows_its_seed() {
        let walk = |seed| Segment::RandomWalk {
            base: 0,
            bytes: 1 << 16,
            count: 32,
            stride: 8,
            access: Access::Read,
            work: 0,
            seed,
        };
        let leading = drain(SegmentProgram::new(vec![walk(9)]));
        // Behind a segment that emits nothing, the same walk.
        let behind = drain(SegmentProgram::new(vec![Segment::Compute(0), walk(9)]));
        assert_eq!(leading, behind);
        assert_ne!(leading, drain(SegmentProgram::new(vec![walk(12345)])));
    }

    #[test]
    fn sync_and_markers_pass_through() {
        let ops = drain(SegmentProgram::new(vec![
            Segment::Barrier(1),
            Segment::Lock(2),
            Segment::Unlock(2),
            Segment::StartMeasurement,
            Segment::Compute(7),
        ]));
        assert_eq!(
            ops,
            vec![
                Op::Barrier(1),
                Op::Lock(2),
                Op::Unlock(2),
                Op::StartMeasurement,
                Op::Compute(7)
            ]
        );
    }

    #[test]
    fn zero_compute_skipped() {
        let ops = drain(SegmentProgram::new(vec![
            Segment::Compute(0),
            Segment::Touch {
                addr: 8,
                access: Access::Read,
            },
        ]));
        assert_eq!(ops, vec![Op::Read(8)]);
    }

    #[test]
    fn touch_readwrite() {
        let ops = drain(SegmentProgram::new(vec![Segment::Touch {
            addr: 64,
            access: Access::ReadWrite,
        }]));
        assert_eq!(ops, vec![Op::Read(64), Op::Write(64)]);
    }

    #[test]
    fn static_counts_match_dynamic() {
        let segs = vec![
            Segment::Walk {
                base: 0,
                bytes: 64,
                stride: 8,
                access: Access::ReadWrite,
                work: 3,
            },
            Segment::Compute(11),
            Segment::RandomWalk {
                base: 0,
                bytes: 512,
                count: 5,
                stride: 8,
                access: Access::Read,
                work: 2,
                seed: 1,
            },
        ];
        let (instr, refs) = static_op_counts(&segs);
        let ops = drain(SegmentProgram::new(segs));
        let mut dyn_instr = 0u64;
        let mut dyn_refs = 0u64;
        for op in ops {
            match op {
                Op::Read(_) | Op::Write(_) => {
                    dyn_refs += 1;
                    dyn_instr += 1;
                }
                Op::Compute(c) => dyn_instr += c as u64,
                _ => {}
            }
        }
        assert_eq!((instr, refs), (dyn_instr, dyn_refs));
    }
}
