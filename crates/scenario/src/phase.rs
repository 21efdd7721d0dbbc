//! The phase catalog: typed traffic patterns and their lowering.
//!
//! Each [`PhaseKind`] is one sharing pattern with a small typed parameter
//! set. A phase compiles — given the machine shape, the participant set,
//! a seed and an intensity — into one segment list per processor.
//! Non-participants receive only the phase's internal barriers (barriers
//! are machine-global: every processor must arrive).
//!
//! The catalog is registered in [`PHASE_KINDS`], the same idiom as the
//! `ccn_protocol::DIR_FORMATS` registry: `repro scenario list` renders
//! it, and the spec parser names it in unknown-kind errors.

use std::collections::BTreeMap;

use ccn_harness::Json;
use ccn_sim::SplitMix64;
use ccn_workloads::{Access, AddressSpace, MachineShape, Segment};

use crate::spec::SpecError;
use crate::zipf::Zipf;

/// The phase catalog: `(kind name, one-line description)`, in spec order.
pub const PHASE_KINDS: &[(&str, &str)] = &[
    (
        "uniform",
        "random reads/writes over one shared region (tunable write %)",
    ),
    (
        "zipf",
        "skewed sharing: touches drawn Zipf(s)-hot over region slots",
    ),
    (
        "kv_lookup",
        "reader-heavy key-value lookups over a Zipf-hot key table",
    ),
    (
        "ring",
        "producer/consumer ring: write your slot, read your neighbor's",
    ),
    (
        "lock_convoy",
        "participants convoy on hot locks around shared critical lines",
    ),
    (
        "migratory",
        "lock-mediated objects migrating from processor to processor",
    ),
    (
        "false_sharing",
        "write storm on distinct words of the same cache lines",
    ),
    (
        "private",
        "node-local working-set sweeps: the zero-communication baseline",
    ),
];

/// The node-set selectors accepted by a phase's `"nodes"` field.
pub const NODE_SETS: &[(&str, &str)] = &[
    ("all", "every node (default)"),
    ("even", "even-numbered nodes"),
    ("odd", "odd-numbered nodes"),
    ("half", "the first half of the nodes"),
    ("[n, ...]", "an explicit list of node indices"),
];

/// Shared lowering state threaded through every phase of a scenario.
pub struct LowerCtx<'a> {
    /// Machine dimensions.
    pub shape: &'a MachineShape,
    /// The scenario's shared address space (phases allocate regions here).
    pub space: &'a mut AddressSpace,
    /// Fresh-barrier allocator (machine-global ids).
    pub next_barrier: &'a mut u32,
    /// Fresh-lock allocator.
    pub next_lock: &'a mut u32,
    /// Regions the scrub epilogue must rewrite: every region remote
    /// processors may touch. Node-local private regions stay out.
    pub scrub: &'a mut Vec<(u64, u64)>,
}

impl LowerCtx<'_> {
    fn fresh_barrier(&mut self) -> u32 {
        let id = *self.next_barrier;
        *self.next_barrier += 1;
        id
    }

    fn fresh_locks(&mut self, n: u32) -> u32 {
        let base = *self.next_lock;
        *self.next_lock += n;
        base
    }

    /// Allocates a shared (round-robin-placed) region and marks it for
    /// the scrub epilogue.
    fn shared_region(&mut self, bytes: u64) -> u64 {
        let base = self.space.alloc(bytes);
        self.scrub.push((base, bytes));
        base
    }
}

/// One typed traffic pattern with its parameters.
///
/// Every numeric parameter has a default chosen so a bare
/// `{ "kind": "..." }` phase is a sensible small experiment; all values
/// are validated at parse time (percentages ≤ 100, counts ≥ 1, sizes
/// bounded), so a spec that parses always lowers.
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseKind {
    /// Uniform random sharing (the calibration workhorse).
    Uniform {
        /// Shared-region size in bytes.
        region_bytes: u64,
        /// Touches per participant.
        touches: u32,
        /// Percentage of touches that are writes (0–100).
        write_percent: u32,
        /// Touch alignment in bytes.
        stride: u32,
        /// Compute cycles between touches.
        work: u16,
    },
    /// Zipf-skewed sharing over one region's slots.
    Zipf {
        /// Shared-region size in bytes.
        region_bytes: u64,
        /// Touches per participant.
        touches: u32,
        /// Percentage of touches that are writes (0–100).
        write_percent: u32,
        /// Zipf exponent (0 = uniform, ~1 = web/KV skew).
        zipf_s: f64,
        /// Slot size in bytes.
        stride: u32,
        /// Compute cycles between touches.
        work: u16,
    },
    /// Reader-heavy key-value lookups over a Zipf-hot key table.
    KvLookup {
        /// Number of keys in the table.
        keys: u64,
        /// Bytes per key's value.
        key_bytes: u64,
        /// Lookups per participant.
        lookups: u32,
        /// Percentage of lookups that update the value (0–100).
        write_percent: u32,
        /// Zipf exponent of the key popularity.
        zipf_s: f64,
        /// Compute cycles per lookup.
        work: u16,
    },
    /// Producer/consumer ring: one slot per participant, rotate readers.
    Ring {
        /// Bytes per ring slot.
        slot_bytes: u64,
        /// Produce/consume laps.
        laps: u32,
        /// Compute cycles per element.
        work: u16,
    },
    /// Lock convoy around shared critical regions.
    LockConvoy {
        /// Distinct locks (1 = a single global convoy).
        locks: u32,
        /// Bytes protected by each lock.
        critical_bytes: u64,
        /// Acquisitions per participant.
        rounds: u32,
        /// Compute cycles per critical-section line.
        work: u16,
        /// Think-time cycles between acquisitions.
        think: u16,
    },
    /// Migratory objects: each object hops between participants under
    /// its lock, read-modify-written by every holder.
    Migratory {
        /// Number of migrating objects.
        objects: u32,
        /// Bytes per object.
        object_bytes: u64,
        /// Hops (each hop hands every object to the next participant).
        hops: u32,
        /// Compute cycles per object line.
        work: u16,
        /// Think-time cycles for non-holders per hop.
        think: u16,
    },
    /// False-sharing storm: distinct words of the same lines.
    FalseSharing {
        /// Number of contended cache lines.
        lines: u64,
        /// Writes per participant.
        touches: u32,
        /// Compute cycles between writes.
        work: u16,
    },
    /// Node-local private sweeps (zero communication).
    Private {
        /// Private working-set bytes per participant.
        bytes_per_proc: u64,
        /// Sweeps over the working set.
        sweeps: u32,
        /// Compute cycles per element.
        work: u16,
    },
}

/// Reads a bounded integer field.
fn get_u64(
    map: &BTreeMap<String, Json>,
    key: &str,
    default: u64,
    min: u64,
    max: u64,
) -> Result<u64, SpecError> {
    let v = match map.get(key) {
        None => return Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| SpecError::new(format!("'{key}' must be a non-negative integer")))?,
    };
    if !(min..=max).contains(&v) {
        return Err(SpecError::new(format!(
            "'{key}' = {v} is outside {min}..={max}"
        )));
    }
    Ok(v)
}

/// Reads a bounded float field.
fn get_f64(
    map: &BTreeMap<String, Json>,
    key: &str,
    default: f64,
    min: f64,
    max: f64,
) -> Result<f64, SpecError> {
    let v = match map.get(key) {
        None => return Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| SpecError::new(format!("'{key}' must be a number")))?,
    };
    if !(min..=max).contains(&v) {
        return Err(SpecError::new(format!(
            "'{key}' = {v} is outside {min}..={max}"
        )));
    }
    Ok(v)
}

const MAX_REGION: u64 = 1 << 30;
const MAX_COUNT: u64 = 100_000_000;

impl PhaseKind {
    /// The kind's registry name.
    pub fn name(&self) -> &'static str {
        match self {
            PhaseKind::Uniform { .. } => "uniform",
            PhaseKind::Zipf { .. } => "zipf",
            PhaseKind::KvLookup { .. } => "kv_lookup",
            PhaseKind::Ring { .. } => "ring",
            PhaseKind::LockConvoy { .. } => "lock_convoy",
            PhaseKind::Migratory { .. } => "migratory",
            PhaseKind::FalseSharing { .. } => "false_sharing",
            PhaseKind::Private { .. } => "private",
        }
    }

    /// The parameter keys this kind accepts (for unknown-key errors).
    pub fn known_keys(&self) -> Vec<&'static str> {
        let mut keys = vec!["kind", "nodes", "intensity", "seed"];
        keys.extend(match self {
            PhaseKind::Uniform { .. } => {
                vec!["region_bytes", "touches", "write_percent", "stride", "work"]
            }
            PhaseKind::Zipf { .. } => vec![
                "region_bytes",
                "touches",
                "write_percent",
                "zipf_s",
                "stride",
                "work",
            ],
            PhaseKind::KvLookup { .. } => vec![
                "keys",
                "key_bytes",
                "lookups",
                "write_percent",
                "zipf_s",
                "work",
            ],
            PhaseKind::Ring { .. } => vec!["slot_bytes", "laps", "work"],
            PhaseKind::LockConvoy { .. } => {
                vec!["locks", "critical_bytes", "rounds", "work", "think"]
            }
            PhaseKind::Migratory { .. } => {
                vec!["objects", "object_bytes", "hops", "work", "think"]
            }
            PhaseKind::FalseSharing { .. } => vec!["lines", "touches", "work"],
            PhaseKind::Private { .. } => vec!["bytes_per_proc", "sweeps", "work"],
        });
        keys
    }

    /// Whether `key` is a parameter (or common) key of this kind.
    pub fn knows_key(&self, key: &str) -> bool {
        self.known_keys().contains(&key)
    }

    /// Parses the kind-specific parameters out of a phase object.
    pub fn from_obj(kind: &str, map: &BTreeMap<String, Json>) -> Result<PhaseKind, SpecError> {
        let work = |d| get_u64(map, "work", d, 0, u16::MAX as u64).map(|v| v as u16);
        match kind {
            "uniform" => Ok(PhaseKind::Uniform {
                region_bytes: get_u64(map, "region_bytes", 64 * 1024, 64, MAX_REGION)?,
                touches: get_u64(map, "touches", 2_000, 1, MAX_COUNT)? as u32,
                write_percent: get_u64(map, "write_percent", 30, 0, 100)?.min(100) as u32,
                stride: get_u64(map, "stride", 8, 8, 4096)? as u32,
                work: work(4)?,
            }),
            "zipf" => Ok(PhaseKind::Zipf {
                region_bytes: get_u64(map, "region_bytes", 64 * 1024, 64, MAX_REGION)?,
                touches: get_u64(map, "touches", 2_000, 1, MAX_COUNT)? as u32,
                write_percent: get_u64(map, "write_percent", 20, 0, 100)? as u32,
                zipf_s: get_f64(map, "zipf_s", 1.0, 0.0, 8.0)?,
                stride: get_u64(map, "stride", 64, 8, 4096)? as u32,
                work: work(4)?,
            }),
            "kv_lookup" => Ok(PhaseKind::KvLookup {
                keys: get_u64(map, "keys", 256, 1, 1 << 24)?,
                key_bytes: get_u64(map, "key_bytes", 64, 8, 64 * 1024)?,
                lookups: get_u64(map, "lookups", 2_000, 1, MAX_COUNT)? as u32,
                write_percent: get_u64(map, "write_percent", 5, 0, 100)? as u32,
                zipf_s: get_f64(map, "zipf_s", 1.1, 0.0, 8.0)?,
                work: work(6)?,
            }),
            "ring" => Ok(PhaseKind::Ring {
                slot_bytes: get_u64(map, "slot_bytes", 1024, 8, MAX_REGION)?,
                laps: get_u64(map, "laps", 8, 1, 100_000)? as u32,
                work: work(4)?,
            }),
            "lock_convoy" => Ok(PhaseKind::LockConvoy {
                locks: get_u64(map, "locks", 1, 1, 1024)? as u32,
                critical_bytes: get_u64(map, "critical_bytes", 256, 8, 1 << 20)?,
                rounds: get_u64(map, "rounds", 64, 1, 1_000_000)? as u32,
                work: work(8)?,
                think: get_u64(map, "think", 32, 0, u16::MAX as u64)? as u16,
            }),
            "migratory" => Ok(PhaseKind::Migratory {
                objects: get_u64(map, "objects", 4, 1, 4096)? as u32,
                object_bytes: get_u64(map, "object_bytes", 256, 8, 1 << 20)?,
                hops: get_u64(map, "hops", 32, 1, 1_000_000)? as u32,
                work: work(8)?,
                think: get_u64(map, "think", 16, 0, u16::MAX as u64)? as u16,
            }),
            "false_sharing" => Ok(PhaseKind::FalseSharing {
                lines: get_u64(map, "lines", 4, 1, 1 << 20)?,
                touches: get_u64(map, "touches", 2_000, 1, MAX_COUNT)? as u32,
                work: work(2)?,
            }),
            "private" => Ok(PhaseKind::Private {
                bytes_per_proc: get_u64(map, "bytes_per_proc", 16 * 1024, 64, MAX_REGION)?,
                sweeps: get_u64(map, "sweeps", 4, 1, 100_000)? as u32,
                work: work(4)?,
            }),
            other => {
                let names: Vec<&str> = PHASE_KINDS.iter().map(|(n, _)| *n).collect();
                Err(SpecError::new(format!(
                    "unknown phase kind '{other}' (known: {})",
                    names.join(", ")
                )))
            }
        }
    }

    /// The kind-specific parameters in canonical order.
    pub fn params_to_json(&self) -> Vec<(&'static str, Json)> {
        match *self {
            PhaseKind::Uniform {
                region_bytes,
                touches,
                write_percent,
                stride,
                work,
            } => vec![
                ("region_bytes", Json::UInt(region_bytes)),
                ("touches", Json::UInt(touches as u64)),
                ("write_percent", Json::UInt(write_percent as u64)),
                ("stride", Json::UInt(stride as u64)),
                ("work", Json::UInt(work as u64)),
            ],
            PhaseKind::Zipf {
                region_bytes,
                touches,
                write_percent,
                zipf_s,
                stride,
                work,
            } => vec![
                ("region_bytes", Json::UInt(region_bytes)),
                ("touches", Json::UInt(touches as u64)),
                ("write_percent", Json::UInt(write_percent as u64)),
                ("zipf_s", Json::Num(zipf_s)),
                ("stride", Json::UInt(stride as u64)),
                ("work", Json::UInt(work as u64)),
            ],
            PhaseKind::KvLookup {
                keys,
                key_bytes,
                lookups,
                write_percent,
                zipf_s,
                work,
            } => vec![
                ("keys", Json::UInt(keys)),
                ("key_bytes", Json::UInt(key_bytes)),
                ("lookups", Json::UInt(lookups as u64)),
                ("write_percent", Json::UInt(write_percent as u64)),
                ("zipf_s", Json::Num(zipf_s)),
                ("work", Json::UInt(work as u64)),
            ],
            PhaseKind::Ring {
                slot_bytes,
                laps,
                work,
            } => vec![
                ("slot_bytes", Json::UInt(slot_bytes)),
                ("laps", Json::UInt(laps as u64)),
                ("work", Json::UInt(work as u64)),
            ],
            PhaseKind::LockConvoy {
                locks,
                critical_bytes,
                rounds,
                work,
                think,
            } => vec![
                ("locks", Json::UInt(locks as u64)),
                ("critical_bytes", Json::UInt(critical_bytes)),
                ("rounds", Json::UInt(rounds as u64)),
                ("work", Json::UInt(work as u64)),
                ("think", Json::UInt(think as u64)),
            ],
            PhaseKind::Migratory {
                objects,
                object_bytes,
                hops,
                work,
                think,
            } => vec![
                ("objects", Json::UInt(objects as u64)),
                ("object_bytes", Json::UInt(object_bytes)),
                ("hops", Json::UInt(hops as u64)),
                ("work", Json::UInt(work as u64)),
                ("think", Json::UInt(think as u64)),
            ],
            PhaseKind::FalseSharing {
                lines,
                touches,
                work,
            } => vec![
                ("lines", Json::UInt(lines)),
                ("touches", Json::UInt(touches as u64)),
                ("work", Json::UInt(work as u64)),
            ],
            PhaseKind::Private {
                bytes_per_proc,
                sweeps,
                work,
            } => vec![
                ("bytes_per_proc", Json::UInt(bytes_per_proc)),
                ("sweeps", Json::UInt(sweeps as u64)),
                ("work", Json::UInt(work as u64)),
            ],
        }
    }

    /// Lowers the phase into one segment list per processor.
    ///
    /// `participants` are the processors selected by the phase's node set
    /// (ascending); everyone else receives only the phase's internal
    /// barriers. `seed` drives every random stream; `intensity` scales
    /// the touch counts. Deterministic: same inputs, same segments.
    pub fn compile(
        &self,
        ctx: &mut LowerCtx,
        participants: &[usize],
        seed: u64,
        intensity: f64,
    ) -> Vec<Vec<Segment>> {
        let nprocs = ctx.shape.nprocs();
        let mut progs: Vec<Vec<Segment>> = vec![Vec::new(); nprocs];
        let scale = |count: u32| ((count as f64 * intensity) as u32).max(1);
        let proc_seed =
            |p: usize| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((p as u64) << 17) ^ 0x5EED;
        let k = participants.len();
        match *self {
            PhaseKind::Uniform {
                region_bytes,
                touches,
                write_percent,
                stride,
                work,
            } => {
                let region = ctx.shared_region(region_bytes);
                let touches = scale(touches);
                let writes = touches * write_percent.min(100) / 100;
                let reads = touches - writes;
                let chunks = 4u32;
                for &p in participants {
                    let s = proc_seed(p);
                    for c in 0..chunks {
                        progs[p].push(Segment::RandomWalk {
                            base: region,
                            bytes: region_bytes,
                            count: reads / chunks,
                            stride,
                            access: Access::Read,
                            work,
                            seed: s.wrapping_add(c as u64 * 2),
                        });
                        progs[p].push(Segment::RandomWalk {
                            base: region,
                            bytes: region_bytes,
                            count: writes / chunks,
                            stride,
                            access: Access::Write,
                            work,
                            seed: s.wrapping_add(c as u64 * 2 + 1),
                        });
                    }
                }
            }
            PhaseKind::Zipf {
                region_bytes,
                touches,
                write_percent,
                zipf_s,
                stride,
                work,
            } => {
                let region = ctx.shared_region(region_bytes);
                let slots = (region_bytes / stride as u64).max(1);
                let zipf = Zipf::new(slots, zipf_s);
                let touches = scale(touches);
                for &p in participants {
                    let mut rng = SplitMix64::new(proc_seed(p));
                    for _ in 0..touches {
                        let addr = region + zipf.sample(&mut rng) * stride as u64;
                        let access = if rng.chance(write_percent.min(100) as f64 / 100.0) {
                            Access::Write
                        } else {
                            Access::Read
                        };
                        progs[p].push(Segment::Touch { addr, access });
                        if work > 0 {
                            progs[p].push(Segment::Compute(work as u64));
                        }
                    }
                }
            }
            PhaseKind::KvLookup {
                keys,
                key_bytes,
                lookups,
                write_percent,
                zipf_s,
                work,
            } => {
                let table = ctx.shared_region(keys * key_bytes);
                let zipf = Zipf::new(keys, zipf_s);
                let stride = (ctx.shape.line_bytes.min(key_bytes) as u32).max(8);
                let lookups = scale(lookups);
                for &p in participants {
                    let mut rng = SplitMix64::new(proc_seed(p));
                    for _ in 0..lookups {
                        let key = zipf.sample(&mut rng);
                        let base = table + key * key_bytes;
                        let access = if rng.chance(write_percent.min(100) as f64 / 100.0) {
                            Access::ReadWrite
                        } else {
                            Access::Read
                        };
                        progs[p].push(Segment::Walk {
                            base,
                            bytes: key_bytes,
                            stride,
                            access,
                            work,
                        });
                    }
                }
            }
            PhaseKind::Ring {
                slot_bytes,
                laps,
                work,
            } => {
                let ring = ctx.shared_region(k as u64 * slot_bytes);
                let laps = scale(laps);
                for lap in 0..laps {
                    // Produce your slot.
                    for (i, &p) in participants.iter().enumerate() {
                        progs[p].push(Segment::Walk {
                            base: ring + i as u64 * slot_bytes,
                            bytes: slot_bytes,
                            stride: 8,
                            access: Access::Write,
                            work,
                        });
                    }
                    let produced = ctx.fresh_barrier();
                    for prog in progs.iter_mut() {
                        prog.push(Segment::Barrier(produced));
                    }
                    // Consume a rotating neighbor's slot.
                    for (i, &p) in participants.iter().enumerate() {
                        let from = (i + 1 + lap as usize) % k;
                        progs[p].push(Segment::Walk {
                            base: ring + from as u64 * slot_bytes,
                            bytes: slot_bytes,
                            stride: 8,
                            access: Access::Read,
                            work,
                        });
                    }
                    let consumed = ctx.fresh_barrier();
                    for prog in progs.iter_mut() {
                        prog.push(Segment::Barrier(consumed));
                    }
                }
            }
            PhaseKind::LockConvoy {
                locks,
                critical_bytes,
                rounds,
                work,
                think,
            } => {
                let region = ctx.shared_region(locks as u64 * critical_bytes);
                let lock_base = ctx.fresh_locks(locks);
                let rounds = scale(rounds);
                let stride = ctx.shape.line_bytes.min(critical_bytes) as u32;
                for &p in participants {
                    for r in 0..rounds {
                        let l = r % locks;
                        progs[p].push(Segment::Lock(lock_base + l));
                        progs[p].push(Segment::Walk {
                            base: region + l as u64 * critical_bytes,
                            bytes: critical_bytes,
                            stride,
                            access: Access::ReadWrite,
                            work,
                        });
                        progs[p].push(Segment::Unlock(lock_base + l));
                        if think > 0 {
                            progs[p].push(Segment::Compute(think as u64));
                        }
                    }
                }
            }
            PhaseKind::Migratory {
                objects,
                object_bytes,
                hops,
                work,
                think,
            } => {
                let region = ctx.shared_region(objects as u64 * object_bytes);
                let lock_base = ctx.fresh_locks(objects);
                let hops = scale(hops);
                let stride = ctx.shape.line_bytes.min(object_bytes) as u32;
                for hop in 0..hops {
                    for obj in 0..objects {
                        let holder = participants[(hop + obj) as usize % k];
                        let prog = &mut progs[holder];
                        prog.push(Segment::Lock(lock_base + obj));
                        prog.push(Segment::Walk {
                            base: region + obj as u64 * object_bytes,
                            bytes: object_bytes,
                            stride,
                            access: Access::ReadWrite,
                            work,
                        });
                        prog.push(Segment::Unlock(lock_base + obj));
                    }
                    if think > 0 {
                        for &p in participants {
                            progs[p].push(Segment::Compute(think as u64));
                        }
                    }
                }
            }
            PhaseKind::FalseSharing {
                lines,
                touches,
                work,
            } => {
                let line_bytes = ctx.shape.line_bytes;
                let region = ctx.shared_region(lines * line_bytes);
                let touches = scale(touches);
                for (i, &p) in participants.iter().enumerate() {
                    // Each participant owns one word offset; everyone
                    // shares the same lines.
                    let offset = (i as u64 * 8) % line_bytes;
                    for t in 0..touches {
                        let line = (t as u64 + i as u64) % lines;
                        progs[p].push(Segment::Touch {
                            addr: region + line * line_bytes + offset,
                            access: Access::Write,
                        });
                        if work > 0 {
                            progs[p].push(Segment::Compute(work as u64));
                        }
                    }
                }
            }
            PhaseKind::Private {
                bytes_per_proc,
                sweeps,
                work,
            } => {
                let sweeps = scale(sweeps);
                for &p in participants {
                    // Home-local, touched by one processor only: never
                    // creates directory state, so no scrub needed.
                    let region = ctx
                        .space
                        .alloc_at(bytes_per_proc, ctx.shape.node_of(p) as u16);
                    for _ in 0..sweeps {
                        progs[p].push(Segment::Walk {
                            base: region,
                            bytes: bytes_per_proc,
                            stride: 8,
                            access: Access::ReadWrite,
                            work,
                        });
                    }
                }
            }
        }
        progs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> MachineShape {
        MachineShape {
            nodes: 4,
            procs_per_node: 2,
            page_bytes: 4096,
            line_bytes: 128,
        }
    }

    fn lower(kind: &PhaseKind, participants: &[usize]) -> Vec<Vec<Segment>> {
        let shape = shape();
        let mut space = AddressSpace::new(shape.page_bytes);
        let mut nb = 10_000;
        let mut nl = 0;
        let mut scrub = Vec::new();
        let mut ctx = LowerCtx {
            shape: &shape,
            space: &mut space,
            next_barrier: &mut nb,
            next_lock: &mut nl,
            scrub: &mut scrub,
        };
        kind.compile(&mut ctx, participants, 7, 1.0)
    }

    #[test]
    fn every_kind_parses_from_empty_params_and_lowers() {
        let all: Vec<usize> = (0..8).collect();
        for (name, _) in PHASE_KINDS {
            let kind = PhaseKind::from_obj(name, &BTreeMap::new()).unwrap();
            assert_eq!(kind.name(), *name);
            let progs = lower(&kind, &all);
            assert_eq!(progs.len(), 8);
            assert!(
                progs.iter().any(|p| !p.is_empty()),
                "{name} lowered to nothing"
            );
        }
    }

    #[test]
    fn ring_barriers_cover_non_participants() {
        let kind = PhaseKind::from_obj("ring", &BTreeMap::new()).unwrap();
        let progs = lower(&kind, &[0, 1, 2, 3]);
        // Participants produce and consume; others still hit every barrier.
        let barrier_count = |p: &Vec<Segment>| {
            p.iter()
                .filter(|s| matches!(s, Segment::Barrier(_)))
                .count()
        };
        assert_eq!(barrier_count(&progs[0]), barrier_count(&progs[7]));
        assert!(progs[7].iter().all(|s| matches!(s, Segment::Barrier(_))));
    }

    #[test]
    fn locks_are_balanced_in_lock_phases() {
        for name in ["lock_convoy", "migratory"] {
            let kind = PhaseKind::from_obj(name, &BTreeMap::new()).unwrap();
            for prog in lower(&kind, &[0, 2, 5]) {
                let locks = prog
                    .iter()
                    .filter(|s| matches!(s, Segment::Lock(_)))
                    .count();
                let unlocks = prog
                    .iter()
                    .filter(|s| matches!(s, Segment::Unlock(_)))
                    .count();
                assert_eq!(locks, unlocks, "{name} unbalanced");
            }
        }
    }

    #[test]
    fn compile_is_deterministic() {
        let all: Vec<usize> = (0..8).collect();
        for (name, _) in PHASE_KINDS {
            let kind = PhaseKind::from_obj(name, &BTreeMap::new()).unwrap();
            assert_eq!(lower(&kind, &all), lower(&kind, &all), "{name}");
        }
    }

    #[test]
    fn intensity_scales_touch_counts() {
        let kind = PhaseKind::from_obj("false_sharing", &BTreeMap::new()).unwrap();
        let shape = shape();
        let run = |intensity: f64| {
            let mut space = AddressSpace::new(shape.page_bytes);
            let mut nb = 0;
            let mut nl = 0;
            let mut scrub = Vec::new();
            let mut ctx = LowerCtx {
                shape: &shape,
                space: &mut space,
                next_barrier: &mut nb,
                next_lock: &mut nl,
                scrub: &mut scrub,
            };
            kind.compile(&mut ctx, &[0], 1, intensity)[0].len()
        };
        assert_eq!(run(2.0), 2 * run(1.0));
    }

    #[test]
    fn registry_and_parser_agree_on_the_catalog() {
        for (name, desc) in PHASE_KINDS {
            assert!(!desc.is_empty());
            assert!(
                PhaseKind::from_obj(name, &BTreeMap::new()).is_ok(),
                "{name}"
            );
        }
        assert!(PhaseKind::from_obj("bogus", &BTreeMap::new()).is_err());
    }
}
