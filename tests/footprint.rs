//! `AppBuild::footprint_lines` against a brute-force count: every line
//! inside some segment's address range, collected one by one into a
//! `BTreeSet`. Machines size their memory image and version tables from
//! the footprint, so it must stay exactly this union.

use std::collections::BTreeSet;

use ccnuma_repro::ccn_scenario::{Scenario, ScenarioSpec};
use ccnuma_repro::ccn_sim::SplitMix64;
use ccnuma_repro::ccn_workloads::micro::UniformSharing;
use ccnuma_repro::ccn_workloads::suite::{Scale, SuiteApp};
use ccnuma_repro::ccn_workloads::{Access, AppBuild, Application, MachineShape, Segment};

const LINE_BYTES: u64 = 128;

fn shape(nodes: usize, procs_per_node: usize) -> MachineShape {
    MachineShape {
        nodes,
        procs_per_node,
        page_bytes: 4096,
        line_bytes: LINE_BYTES,
    }
}

/// Every line of every segment's range, inserted one at a time.
fn brute_force_lines(build: &AppBuild) -> usize {
    let mut lines = BTreeSet::new();
    for seg in build.programs.iter().flatten() {
        let (base, bytes) = match *seg {
            Segment::Walk { base, bytes, .. } | Segment::RandomWalk { base, bytes, .. } => {
                (base, bytes.max(1))
            }
            Segment::Touch { addr, .. } => (addr, 1),
            _ => continue,
        };
        lines.extend(base / LINE_BYTES..=(base + bytes - 1) / LINE_BYTES);
    }
    lines.len()
}

fn assert_exact(name: &str, build: &AppBuild) -> usize {
    let footprint = build.footprint_lines(LINE_BYTES);
    assert_eq!(footprint, brute_force_lines(build), "{name}");
    footprint
}

#[test]
fn suite_apps_at_the_tiny_scale_on_4x2() {
    let all = [
        SuiteApp::Lu,
        SuiteApp::Cholesky,
        SuiteApp::WaterNsq,
        SuiteApp::WaterSpatial,
        SuiteApp::Barnes,
        SuiteApp::FftBase,
        SuiteApp::FftLarge,
        SuiteApp::Radix,
        SuiteApp::OceanBase,
        SuiteApp::OceanLarge,
    ];
    for app in all {
        let app = app.instantiate(Scale::Tiny);
        let footprint = assert_exact(&app.name(), &app.build(&shape(4, 2)));
        assert!(footprint > 0, "{}", app.name());
    }
}

#[test]
fn ocean_at_the_repro_scale_on_16x4() {
    let build = SuiteApp::OceanBase
        .instantiate(Scale::Scaled)
        .build(&shape(16, 4));
    assert_eq!(assert_exact("Ocean scaled", &build), 8_456);
}

#[test]
fn a_micro_and_a_scenario_app() {
    assert_exact(
        "uniform sharing",
        &UniformSharing::default().build(&shape(4, 2)),
    );
    let spec = ScenarioSpec::parse_str(
        r#"{"name":"footprint","seed":3,"phases":[
            {"kind":"false_sharing","lines":8,"touches":50},
            {"kind":"kv_lookup","keys":256,"lookups":20,"write_percent":10,"zipf_s":1.1}]}"#,
    )
    .expect("the spec parses");
    assert_exact("scenario", &Scenario::new(spec).build(&shape(4, 2)));
}

#[test]
fn a_shuffled_duplicated_segment_list() {
    let mut rng = SplitMix64::new(7);
    let mut segments = Vec::new();
    for _ in 0..200 {
        let base = rng.next_below(1 << 16);
        let bytes = rng.next_below(4 * LINE_BYTES);
        segments.push(match rng.next_below(3) {
            0 => Segment::Walk {
                base,
                bytes,
                stride: 8,
                access: Access::Read,
                work: 0,
            },
            1 => Segment::RandomWalk {
                base,
                bytes,
                count: 1,
                stride: 8,
                access: Access::Write,
                work: 0,
                seed: 1,
            },
            _ => Segment::Touch {
                addr: base,
                access: Access::Read,
            },
        });
    }
    // Every segment three times, in a shuffled order, spread over four
    // programs: overlapping, touching and repeated ranges.
    let mut all: Vec<Segment> = segments
        .iter()
        .chain(&segments)
        .chain(&segments)
        .cloned()
        .collect();
    for i in (1..all.len()).rev() {
        all.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let build = AppBuild {
        programs: all.chunks(all.len() / 4 + 1).map(<[_]>::to_vec).collect(),
        placements: Vec::new(),
    };
    let footprint = assert_exact("shuffled", &build);
    let once = AppBuild {
        programs: vec![segments],
        placements: Vec::new(),
    };
    assert_eq!(once.footprint_lines(LINE_BYTES), footprint);
}
