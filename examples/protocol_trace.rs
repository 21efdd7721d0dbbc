//! Protocol tracing: watch the directory protocol execute, handler by
//! handler, for a classic three-hop transaction — a read of a line that is
//! dirty in a third node's cache. The handler table comes from the
//! transaction flight recorder, which records every handler execution.
//!
//! ```text
//! cargo run --release --example protocol_trace
//! ```

use ccnuma_repro::ccn_workloads::{Access, AppBuild, Application, MachineShape, Segment};
use ccnuma_repro::ccnuma::{Architecture, Machine, SystemConfig};

/// Node 1 dirties a line homed on node 0; node 2 reads it afterwards.
struct ThreeHop;

const ADDR: u64 = 4 * 4096; // page 4 -> home node 0 under round-robin

impl Application for ThreeHop {
    fn name(&self) -> String {
        "three-hop".to_string()
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        let idle = vec![
            Segment::Barrier(0),
            Segment::StartMeasurement,
            Segment::Barrier(1),
        ];
        let writer = vec![
            Segment::Barrier(0),
            Segment::StartMeasurement,
            Segment::Touch {
                addr: ADDR,
                access: Access::Write,
            },
            Segment::Compute(5_000),
            Segment::Barrier(1),
        ];
        let reader = vec![
            Segment::Barrier(0),
            Segment::StartMeasurement,
            Segment::Compute(10_000),
            Segment::Touch {
                addr: ADDR,
                access: Access::Read,
            },
            Segment::Barrier(1),
        ];
        let mut programs = vec![idle.clone(), writer, reader];
        programs.resize(shape.nprocs(), idle);
        AppBuild {
            programs,
            placements: Vec::new(),
        }
    }
}

fn main() {
    let cfg = SystemConfig {
        nodes: 4,
        procs_per_node: 1,
        ..SystemConfig::base()
    }
    .with_architecture(Architecture::Ppc);
    let mut machine = Machine::new(cfg, &ThreeHop).expect("valid config");
    machine.enable_flight_recorder(32);
    let report = machine.run();
    let recorder = machine.flight().expect("flight recorder on");

    // Every handler execution of the measured phase: the hops of each
    // completed miss, labelled with its transaction id, and the hop-only
    // records of handlers that served no outstanding miss (here the
    // owner's write-back to the home), merged back into time order.
    let mut rows: Vec<(u64, u16, &str, u64, String)> = Vec::new();
    for rec in recorder.completed() {
        for hop in recorder.hops(rec) {
            let id = rec.id.to_string();
            rows.push((hop.time, hop.at_node, hop.handler, hop.occupancy, id));
        }
    }
    for r in recorder.hop_only() {
        let hop = r.hop;
        rows.push((
            hop.time,
            hop.at_node,
            hop.handler,
            hop.occupancy,
            "-".into(),
        ));
    }
    rows.sort_by_key(|row| row.0);

    println!("protocol trace — write by node 1, then a three-hop read by node 2");
    println!("(line homed on node 0; protocol processor engines)\n");
    println!(
        "{:>9}  {:<6} {:<5} {:<55} {:>9}",
        "cycle", "node", "txn", "handler", "occupancy"
    );
    for (time, node, handler, occupancy, txn) in &rows {
        println!("{time:>9}  n{node:<5} {txn:<5} {handler:<55} {occupancy:>6} cy");
    }
    println!(
        "\n{} handlers total; end-to-end mean miss latency {:.0} ns",
        report.cc_handled, report.miss_latency_ns.0
    );
}
