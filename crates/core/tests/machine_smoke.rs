//! End-to-end smoke tests: every micro-workload runs to completion on
//! every architecture and leaves the protocol in a consistent state.

use ccn_workloads::micro::{HotSpot, PrivateCompute, ProducerConsumer, UniformSharing};
use ccn_workloads::Application;
use ccnuma::{Architecture, Machine, SystemConfig};

fn run_and_check(app: &dyn Application, arch: Architecture) -> ccnuma::SimReport {
    let cfg = SystemConfig::small().with_architecture(arch);
    let mut machine = Machine::new(cfg, app).expect("valid config");
    let report = machine.run();
    machine
        .check_quiescent()
        .unwrap_or_else(|e| panic!("{} on {}: {e}", app.name(), arch.name()));
    report
}

#[test]
fn private_compute_runs_everywhere() {
    for arch in Architecture::all() {
        let report = run_and_check(&PrivateCompute::default(), arch);
        assert!(report.exec_cycles > 0);
        assert!(report.instructions > 0);
    }
}

#[test]
fn uniform_sharing_runs_everywhere() {
    let app = UniformSharing {
        touches_per_proc: 4_000,
        ..UniformSharing::default()
    };
    for arch in Architecture::all() {
        let report = run_and_check(&app, arch);
        assert!(report.cc_arrivals > 0, "sharing must reach the controllers");
        assert!(report.messages > 0);
    }
}

#[test]
fn hotspot_runs_everywhere() {
    let app = HotSpot {
        touches_per_proc: 1_500,
        ..HotSpot::default()
    };
    for arch in Architecture::all() {
        let report = run_and_check(&app, arch);
        assert!(report.cc_arrivals > 0);
    }
}

#[test]
fn producer_consumer_runs_everywhere() {
    let app = ProducerConsumer {
        buffer_bytes: 8 * 1024,
        phases: 4,
    };
    for arch in Architecture::all() {
        let report = run_and_check(&app, arch);
        assert!(report.barriers > 0);
    }
}

#[test]
fn ppc_is_slower_than_hwc_on_communication() {
    let app = UniformSharing {
        touches_per_proc: 4_000,
        ..UniformSharing::default()
    };
    let hwc = run_and_check(&app, Architecture::Hwc);
    let ppc = run_and_check(&app, Architecture::Ppc);
    assert!(
        ppc.exec_cycles > hwc.exec_cycles,
        "PPC {} must exceed HWC {}",
        ppc.exec_cycles,
        hwc.exec_cycles
    );
}

#[test]
fn rccpi_is_architecture_insensitive() {
    // Section 3.3: the difference in RCCPI between the four
    // implementations is less than 1% for all applications. Allow 2%.
    let app = UniformSharing {
        touches_per_proc: 4_000,
        ..UniformSharing::default()
    };
    let rccpis: Vec<f64> = Architecture::all()
        .iter()
        .map(|&a| run_and_check(&app, a).rccpi())
        .collect();
    let min = rccpis.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = rccpis.iter().cloned().fold(0.0, f64::max);
    assert!(min > 0.0);
    assert!(
        (max - min) / min < 0.02,
        "RCCPI spread too wide: {rccpis:?}"
    );
}

#[test]
fn deterministic_runs() {
    let app = UniformSharing {
        touches_per_proc: 2_000,
        ..UniformSharing::default()
    };
    let a = run_and_check(&app, Architecture::Hwc);
    let b = run_and_check(&app, Architecture::Hwc);
    assert_eq!(a.exec_cycles, b.exec_cycles);
    assert_eq!(a.cc_arrivals, b.cc_arrivals);
    assert_eq!(a.instructions, b.instructions);
}

#[test]
fn recorder_records_handler_executions() {
    let app = UniformSharing {
        touches_per_proc: 500,
        ..UniformSharing::default()
    };
    let cfg = SystemConfig::small().with_architecture(Architecture::Hwc);
    let mut machine = Machine::new(cfg, &app).unwrap();
    machine.enable_flight_recorder(64);
    machine.run();
    let recorder = machine.flight().expect("recorder on");
    assert_eq!(
        recorder.completed().count(),
        64,
        "ring must fill to capacity"
    );
    assert!(
        recorder.dropped() > 0,
        "this workload completes far more than 64 transactions"
    );
    for rec in recorder.completed() {
        for w in recorder.hops(rec).windows(2) {
            assert!(w[0].time <= w[1].time, "hops must be time-ordered");
        }
    }
    assert!(recorder.hop_only().count() <= 64);
    assert!(recorder.spans().all(|(_, hop)| hop.occupancy > 0));
    assert!(recorder
        .spans()
        .any(|(_, hop)| hop.handler.contains("read")));
}

#[test]
fn component_stats_agrees_with_the_report() {
    let app = UniformSharing {
        touches_per_proc: 2_000,
        ..UniformSharing::default()
    };
    let cfg = SystemConfig::small().with_architecture(Architecture::TwoPpc);
    let nodes = cfg.nodes;
    let mut machine = Machine::new(cfg, &app).unwrap();
    let report = machine.run();
    let spine = machine.component_stats();

    // One subtree per node, plus the network and the sync runtime.
    assert_eq!(spine.children.len(), nodes + 2);
    for i in 0..nodes {
        let node = spine.find(&format!("node{i}")).expect("node subtree");
        for part in ["bus", "cc", "mem", "memory", "dircache"] {
            assert!(node.find(part).is_some(), "node{i} must expose {part}");
        }
    }

    // The canonical walk and the report aggregate the same counters.
    assert_eq!(
        spine.total("arrivals"),
        report.cc_arrivals * 2, // cc + its engines
        "cc arrivals appear once on the controller and once in its engine children"
    );
    assert_eq!(
        spine.find("net").unwrap().get_counter("messages"),
        Some(report.messages)
    );
    assert_eq!(
        spine.find("sync").unwrap().get_counter("barrier_episodes"),
        Some(report.barriers)
    );
    assert_eq!(
        spine.find("sync").unwrap().get_counter("lock_acquisitions"),
        Some(report.locks.0)
    );
}

#[test]
fn recorder_rings_keep_the_most_recent_records() {
    let app = UniformSharing {
        touches_per_proc: 500,
        ..UniformSharing::default()
    };
    let cfg = SystemConfig::small().with_architecture(Architecture::Hwc);

    // Reference run with rings big enough to never drop.
    let mut full = Machine::new(cfg.clone(), &app).unwrap();
    full.enable_flight_recorder(1 << 20);
    full.run();
    let all = full.flight().unwrap();
    assert_eq!((all.dropped(), all.hop_only_dropped()), (0, 0));
    let records: Vec<_> = all.completed().collect();
    let hop_only: Vec<_> = all.hop_only().copied().collect();
    assert!(
        hop_only.len() > 8,
        "this workload runs write-backs at the home"
    );

    // Bounded run: each ring must hold exactly the tail of the full one.
    let mut bounded = Machine::new(cfg, &app).unwrap();
    bounded.enable_flight_recorder(8);
    bounded.run();
    let tail = bounded.flight().unwrap();
    assert_eq!(tail.completed().count(), 8);
    assert_eq!(tail.dropped() as usize, records.len() - 8);
    for (kept, expected) in tail.completed().zip(&records[records.len() - 8..]) {
        assert_eq!(kept.id, expected.id);
        assert_eq!(
            (kept.issue, kept.complete),
            (expected.issue, expected.complete)
        );
        assert_eq!(kept.components, expected.components);
        assert_eq!(tail.hops(kept), all.hops(expected));
    }
    let kept: Vec<_> = tail.hop_only().copied().collect();
    assert_eq!(kept, hop_only[hop_only.len() - 8..]);
    assert_eq!(tail.hop_only_dropped() as usize, hop_only.len() - 8);
}
