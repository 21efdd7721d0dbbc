//! Lowering a parsed spec into a machine workload.
//!
//! [`Scenario`] implements [`Application`]: phases compile in order into
//! per-processor segment programs separated by machine-global barriers,
//! with barrier and lock ids allocated from a single fresh counter so no
//! phase can collide with another. When the spec's `scrub` flag is on
//! (the default) the scenario appends the deterministic epilogue the
//! `ccn-verify` conformance suite also uses
//! ([`ccn_workloads::append_scrub`]) — every processor flushes its
//! cache by walking a private home-local scratch region, then processor 0
//! rewrites and flushes every shared region — leaving a functional
//! snapshot that is bit-identical across all four controller
//! architectures.

use ccn_workloads::{append_scrub, AddressSpace, AppBuild, Application, MachineShape, Segment};

use crate::phase::LowerCtx;
use crate::spec::ScenarioSpec;
use crate::sweep::SCENARIO_L2_BYTES;

/// A spec bound to an L2 capacity, ready to run as an [`Application`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The validated spec.
    pub spec: ScenarioSpec,
    /// The L2 capacity of the machine that will run this scenario; the
    /// scrub epilogue's flush walks 2× this.
    pub l2_bytes: u64,
}

impl Scenario {
    /// Wraps a spec with the default conformance L2 capacity.
    pub fn new(spec: ScenarioSpec) -> Scenario {
        Scenario {
            spec,
            l2_bytes: SCENARIO_L2_BYTES,
        }
    }
}

impl Application for Scenario {
    fn name(&self) -> String {
        format!("scenario-{}", self.spec.name)
    }

    /// # Panics
    ///
    /// Panics if the spec fails its shape check (an explicit node list
    /// naming nodes the machine does not have). Run
    /// [`ScenarioSpec::check_shape`] first for a recoverable error.
    fn build(&self, shape: &MachineShape) -> AppBuild {
        if let Err(e) = self.spec.check_shape(shape) {
            panic!(
                "scenario '{}' does not fit the machine: {e}",
                self.spec.name
            );
        }
        let nprocs = shape.nprocs();
        let mut space = AddressSpace::new(shape.page_bytes);
        let mut next_barrier = 1u32; // 0 is the conventional start barrier
        let mut next_lock = 0u32;
        let mut scrub_regions: Vec<(u64, u64)> = Vec::new();
        let mut programs: Vec<Vec<Segment>> =
            vec![vec![Segment::Barrier(0), Segment::StartMeasurement]; nprocs];
        for (i, phase) in self.spec.phases.iter().enumerate() {
            let participants = phase.nodes.procs(shape);
            let phase_progs = {
                let mut ctx = LowerCtx {
                    shape,
                    space: &mut space,
                    next_barrier: &mut next_barrier,
                    next_lock: &mut next_lock,
                    scrub: &mut scrub_regions,
                };
                phase.kind.compile(
                    &mut ctx,
                    &participants,
                    self.spec.phase_seed(i),
                    phase.intensity,
                )
            };
            let end = next_barrier;
            next_barrier += 1;
            for (prog, phase_prog) in programs.iter_mut().zip(phase_progs) {
                prog.extend(phase_prog);
                prog.push(Segment::Barrier(end));
            }
        }
        if self.spec.scrub {
            append_scrub(
                &mut programs,
                &mut space,
                shape,
                &scrub_regions,
                &mut next_barrier,
                self.l2_bytes,
            );
        }
        AppBuild {
            programs,
            placements: space.into_placements(),
        }
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

    const SPEC: &str = r#"{
        "name": "mix",
        "seed": 11,
        "phases": [
            { "kind": "uniform", "touches": 64 },
            { "kind": "ring", "laps": 2, "slot_bytes": 64 },
            { "kind": "lock_convoy", "rounds": 4, "nodes": "even" },
            { "kind": "private", "sweeps": 1, "bytes_per_proc": 256 }
        ]
    }"#;

    fn build() -> AppBuild {
        let spec = ScenarioSpec::parse_str(SPEC).unwrap();
        Scenario::new(spec).build(&shape())
    }

    #[test]
    fn build_is_deterministic() {
        let a = build();
        let b = build();
        assert_eq!(a.programs, b.programs);
        assert_eq!(a.placements, b.placements);
    }

    #[test]
    fn every_processor_sees_the_same_barrier_sequence() {
        let build = build();
        let barriers: Vec<Vec<u32>> = build
            .programs
            .iter()
            .map(|prog| {
                prog.iter()
                    .filter_map(|s| match s {
                        Segment::Barrier(id) => Some(*id),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        for b in &barriers[1..] {
            assert_eq!(b, &barriers[0], "barrier sequences diverge");
        }
        assert!(barriers[0].len() >= 4 + 4, "phases + scrub barriers");
    }

    #[test]
    fn programs_start_with_the_convention() {
        for prog in build().programs {
            assert_eq!(prog[0], Segment::Barrier(0));
            assert_eq!(prog[1], Segment::StartMeasurement);
        }
    }

    #[test]
    fn scrub_off_drops_the_epilogue() {
        let spec = ScenarioSpec::parse_str(
            r#"{ "name": "raw", "scrub": false,
                 "phases": [ { "kind": "uniform", "touches": 16 } ] }"#,
        )
        .unwrap();
        let with = Scenario::new(spec.clone());
        let without = {
            let mut s = spec;
            s.scrub = true;
            Scenario::new(s)
        };
        let a = with.build(&shape());
        let b = without.build(&shape());
        assert!(a.programs[0].len() < b.programs[0].len());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn shape_mismatch_panics_with_context() {
        let spec = ScenarioSpec::parse_str(
            r#"{ "name": "big", "phases": [ { "kind": "uniform", "nodes": [63] } ] }"#,
        )
        .unwrap();
        Scenario::new(spec).build(&shape());
    }
}
