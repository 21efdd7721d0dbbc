//! Table 3: no-contention latency breakdown of a remote read miss.
//!
//! The paper's Table 3 decomposes the latency of a read miss from a remote
//! node to a line that is clean at its home: HWC totals 142 compute cycles,
//! PPC 212 (+49 %). This module builds the same breakdown from the
//! machine's own timing: each controller row is a handler run by the step
//! executor on an idle node, and each network row is a send through an
//! idle network. A measured counterpart runs the actual miss on a
//! two-node machine; the tests assert the two agree exactly.

use ccn_mem::NodeId;
use ccn_net::Network;
use ccn_protocol::handlers::{Fanout, HandlerKind};
use ccn_protocol::msg::HEADER_BYTES;
use ccn_sim::Cycle;
use ccn_workloads::segment::{Access, Segment};
use ccn_workloads::{AppBuild, Application, MachineShape};

use crate::config::SystemConfig;
use crate::machine::Machine;
use crate::steps::run_idle;

/// One row of the latency breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakdownRow {
    /// Step description.
    pub step: &'static str,
    /// Contribution in CPU cycles (5 ns).
    pub cycles: Cycle,
}

/// The Table 3 breakdown for one engine kind.
#[derive(Debug, Clone)]
pub struct LatencyBreakdown {
    /// Rows in path order.
    pub rows: Vec<BreakdownRow>,
}

impl LatencyBreakdown {
    /// Total no-contention latency.
    pub fn total(&self) -> Cycle {
        self.rows.iter().map(|r| r.cycles).sum()
    }
}

/// Computes the Table 3 breakdown for the engine selected in `cfg`.
///
/// Set `cold_directory` to include the directory-DRAM penalty of a
/// first-touch directory read (the steady-state table assumes a
/// directory-cache hit, as the paper does).
pub fn read_miss_breakdown(cfg: &SystemConfig, cold_directory: bool) -> LatencyBreakdown {
    // A controller row ends when its response leaves the engine (the
    // handler's first send) or, at the requester, when the critical
    // beat reaches the bus.
    let first_send = |kind| run_idle(cfg, kind, Fanout::NONE).1[0];
    let deliver = run_idle(cfg, HandlerKind::ReqDataResp, Fanout::NONE)
        .0
        .deliver
        .expect("the response handler delivers on the bus");
    let transit = |bytes| Network::new(2, cfg.net).send(0, NodeId(1), NodeId(0), bytes);
    let mut rows = vec![
        BreakdownRow {
            step: "detect L2 miss",
            cycles: cfg.lat.l2_miss_detect,
        },
        BreakdownRow {
            step: "bus arbitration, address and snoop",
            cycles: cfg.bus.snoop_cycles + cfg.lat.cc_request_latch,
        },
        BreakdownRow {
            step: "requesting controller: dispatch and send request",
            cycles: first_send(HandlerKind::BusReadRemote),
        },
        BreakdownRow {
            step: "network: request message",
            cycles: transit(HEADER_BYTES),
        },
        BreakdownRow {
            step: "home controller: dispatch, directory, memory, respond",
            cycles: first_send(HandlerKind::HomeReadClean),
        },
        BreakdownRow {
            step: "network: data response",
            cycles: transit(HEADER_BYTES + cfg.line_bytes),
        },
        BreakdownRow {
            step: "requesting controller: dispatch and deliver on bus",
            cycles: deliver,
        },
        BreakdownRow {
            step: "L2 fill and processor restart",
            cycles: cfg.lat.fill_overhead,
        },
    ];
    if cold_directory {
        rows.insert(
            5,
            BreakdownRow {
                step: "directory cache miss (cold): directory DRAM",
                cycles: cfg.lat.dir_dram_latency,
            },
        );
    }
    LatencyBreakdown { rows }
}

/// A two-node pointer-probe application: one processor on node 1 performs a
/// single read of a line homed (and clean) at node 0.
#[derive(Debug, Clone, Copy)]
struct ReadMissProbe;

impl Application for ReadMissProbe {
    fn name(&self) -> String {
        "read-miss-probe".to_string()
    }

    fn build(&self, shape: &MachineShape) -> AppBuild {
        assert_eq!(shape.nodes, 2, "the probe wants exactly two nodes");
        assert_eq!(shape.procs_per_node, 1, "one processor per node");
        // One page homed on node 0 by round-robin (page index 2).
        let addr = 2 * shape.page_bytes;
        let programs = vec![
            // Node 0: nothing to do.
            vec![Segment::Barrier(0), Segment::StartMeasurement],
            // Node 1: the probe read.
            vec![
                Segment::Barrier(0),
                Segment::StartMeasurement,
                Segment::Touch {
                    addr,
                    access: Access::Read,
                },
            ],
        ];
        AppBuild {
            programs,
            placements: Vec::new(),
        }
    }
}

/// Measures the end-to-end remote read-miss latency on a real two-node
/// machine (cold directory cache: add the DRAM penalty when comparing
/// against [`read_miss_breakdown`]).
pub fn measured_read_miss(cfg: &SystemConfig) -> Cycle {
    let probe_cfg = SystemConfig {
        nodes: 2,
        procs_per_node: 1,
        ..cfg.clone()
    };
    let mut machine = Machine::new(probe_cfg, &ReadMissProbe).expect("probe config is valid");
    let report = machine.run();
    report.exec_cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Architecture;

    #[test]
    fn totals_match_paper_anchors() {
        // Paper Table 3: HWC 142, PPC 212 (+49%). Accept ±8%.
        let hwc = read_miss_breakdown(&SystemConfig::base(), false).total();
        let ppc = read_miss_breakdown(
            &SystemConfig::base().with_architecture(Architecture::Ppc),
            false,
        )
        .total();
        assert!(
            (131..=153).contains(&hwc),
            "HWC read-miss latency {hwc} too far from 142"
        );
        assert!(
            (195..=229).contains(&ppc),
            "PPC read-miss latency {ppc} too far from 212"
        );
        let increase = (ppc as f64 - hwc as f64) / hwc as f64;
        assert!(
            (0.40..=0.60).contains(&increase),
            "relative increase {increase:.2} should be near the paper's 49%"
        );
    }

    #[test]
    fn measured_agrees_with_analytic() {
        for arch in Architecture::all() {
            let cfg = SystemConfig::base().with_architecture(arch);
            let analytic = read_miss_breakdown(&cfg, true).total();
            let measured = measured_read_miss(&cfg);
            assert_eq!(measured, analytic, "{}", arch.name());
        }
    }

    /// Table 4's (HWC, PPC) cells for the handler labelled `label`.
    fn table4_cells(label: &str) -> (Cycle, Cycle) {
        let rendered = crate::experiments::table4().render();
        for line in rendered.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            if let [words @ .., hwc, ppc] = &fields[..] {
                if words.join(" ") == label {
                    return (hwc.parse().unwrap(), ppc.parse().unwrap());
                }
            }
        }
        panic!("Table 4 has no row {label:?}");
    }

    #[test]
    fn probe_machine_hops_cost_what_table4_reports() {
        // The read miss runs three handlers; each hop the machine records
        // occupies its engine for Table 4's cell, the home's first
        // directory read missing the directory cache on top.
        for arch in Architecture::all() {
            let cfg = SystemConfig {
                nodes: 2,
                procs_per_node: 1,
                ..SystemConfig::base().with_architecture(arch)
            };
            let dir_dram = cfg.lat.dir_dram_latency;
            let mut machine = Machine::new(cfg, &ReadMissProbe).unwrap();
            machine.enable_flight_recorder(16);
            machine.run();
            let flight = machine.flight().unwrap();
            assert_eq!(flight.hop_only().count(), 0, "{}", arch.name());
            let txns: Vec<_> = flight.completed().collect();
            assert_eq!(txns.len(), 1, "{}", arch.name());
            let hops = flight.hops(txns[0]);
            let expected = [
                ("bus read remote", 0),
                ("remote read to home (clean)", dir_dram),
                ("data in response to a remote read request", 0),
            ];
            assert_eq!(hops.len(), expected.len(), "{}", arch.name());
            for (hop, (label, cold)) in hops.iter().zip(expected) {
                assert_eq!(hop.handler, label, "{}", arch.name());
                let (hwc, ppc) = table4_cells(label);
                let cell = match arch.engine() {
                    ccn_protocol::EngineKind::Hwc => hwc,
                    _ => ppc,
                };
                assert_eq!(hop.occupancy, cell + cold, "{}: {label}", arch.name());
            }
        }
    }

    #[test]
    fn cold_directory_adds_dram_row() {
        let cfg = SystemConfig::base();
        let warm = read_miss_breakdown(&cfg, false);
        let cold = read_miss_breakdown(&cfg, true);
        assert_eq!(cold.rows.len(), warm.rows.len() + 1);
        assert_eq!(cold.total() - warm.total(), cfg.lat.dir_dram_latency);
    }
}
