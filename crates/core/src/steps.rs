//! Protocol-handler step execution against one node's components.

use ccn_mem::{LineAddr, NodeId};

use ccn_protocol::exec::StepRun;
use ccn_protocol::handlers::{Fanout, HandlerKind, Step};
use ccn_protocol::subop::{OccupancyTable, SubOp};
use ccn_sim::Cycle;

use crate::config::SystemConfig;
use crate::node::Node;

/// The request record stored in a controller's input queues.
#[derive(Debug, Clone)]
pub(crate) enum CcRequest {
    /// A request from this node's SMP bus (requester is this node).
    Bus {
        /// Read / read-exclusive / upgrade.
        kind: ccn_protocol::DirRequestKind,
        /// The line.
        line: LineAddr,
    },
    /// A message delivered by the network.
    Net(ccn_protocol::Msg),
    /// A buffered home request being replayed after the line went idle.
    Replay {
        kind: ccn_protocol::DirRequestKind,
        line: LineAddr,
        requester: NodeId,
    },
    /// A dirty-remote eviction waiting to be forwarded by the engine
    /// (only when the direct data path is disabled).
    Writeback { line: LineAddr, payload: u64 },
}

/// Executes `steps` at `fanout` on `node` starting at `start`, reserving
/// bus, memory, and directory resources as it goes: the one place a
/// handler step is priced. The engine is considered occupied for the
/// whole interval (the paper's occupancy definition). The fan-out markers
/// expand here: [`Step::RemoteInvalidations`] into one `SendMsg` and one
/// `Op(BitFieldUpdate)` per remote invalidation, and
/// [`Step::LocalInvalidation`] into a `BusInv` when `fanout.local_inv` is
/// set. `sends` is replaced with the completion times of the `SendMsg`
/// steps, in step order.
pub(crate) fn run_steps(
    node: &mut Node,
    cfg: &SystemConfig,
    steps: &[Step],
    fanout: Fanout,
    line: LineAddr,
    start: Cycle,
    sends: &mut Vec<Cycle>,
) -> StepRun {
    let table = OccupancyTable::for_engine(cfg.engine);
    let lat = &cfg.lat;
    let mut t = start;
    let mut run = StepRun::default();
    sends.clear();
    for step in steps {
        match *step {
            Step::Op(op) => t += table.cost(op),
            Step::Extra { ppc } => t += cfg.engine.extra_cost(ppc),
            Step::DirRead => {
                t += table.cost(SubOp::DirCacheRead);
                if !node.mem.dircache.read(line) {
                    let grant = node.mem.dir_dram.acquire(t, lat.dir_dram_occupancy);
                    t = grant + lat.dir_dram_latency;
                }
            }
            Step::DirUpdate => {
                t += table.cost(SubOp::DirWrite);
                node.mem.dircache.write(line);
                // Write-through to directory DRAM is posted: reserve the
                // DRAM but do not hold the engine.
                node.mem.dir_dram.acquire(t, lat.dir_dram_occupancy);
            }
            Step::MemRead => {
                let strobe = node.bus.address_phase(t);
                let bank = node
                    .mem
                    .banks
                    .access(line, strobe + cfg.bus.address_slot_cycles);
                let first_data = bank + lat.mem_access;
                // The full line streams over the data bus into the bus
                // interface; the engine proceeds once the critical data
                // has reached the buffer.
                node.bus.data_transfer(first_data, cfg.line_bytes);
                t = first_data + 4;
                run.mem_data = Some(t);
            }
            Step::MemWrite => {
                let strobe = node.bus.address_phase(t);
                let bank = node
                    .mem
                    .banks
                    .access(line, strobe + cfg.bus.address_slot_cycles);
                node.bus.data_transfer(bank.max(strobe + 4), cfg.line_bytes);
                // Posted: the engine only initiates the write.
                t = strobe + 8;
            }
            Step::BusInv => t = bus_inv(node, cfg, t),
            Step::BusIntervention => {
                let strobe = node.bus.address_phase(t);
                let snoop = node.bus.snoop_done(strobe);
                let first_data = snoop + lat.cache_to_cache;
                node.bus.data_transfer(first_data, cfg.line_bytes);
                t = first_data + 4;
                run.mem_data = Some(t);
            }
            Step::BusDeliver => {
                let strobe = node.bus.address_phase(t);
                let xfer = node
                    .bus
                    .data_transfer(strobe + cfg.bus.address_slot_cycles, cfg.line_bytes);
                run.deliver = Some(xfer.critical);
                t = xfer.start + 4;
            }
            Step::SendMsg => t = send_msg(&table, t, sends),
            Step::SendData => {
                t += table.cost(SubOp::StartDataTransfer);
            }
            Step::RemoteInvalidations => {
                for _ in 0..fanout.remote_invs {
                    t = send_msg(&table, t, sends);
                    t += table.cost(SubOp::BitFieldUpdate);
                }
            }
            Step::LocalInvalidation => {
                if fanout.local_inv {
                    t = bus_inv(node, cfg, t);
                }
            }
        }
    }
    run.end = t;
    run
}

/// A `BusInv` issued at `t`: arbitration, the address phase and the
/// snoop. Returns when the engine moves on.
#[inline]
fn bus_inv(node: &mut Node, cfg: &SystemConfig, t: Cycle) -> Cycle {
    let strobe = node.bus.address_phase(t);
    strobe + cfg.bus.address_slot_cycles + cfg.bus.snoop_cycles
}

/// A `SendMsg` issued at `t`: composes the header and records when it
/// leaves. Returns when the engine moves on.
#[inline]
fn send_msg(table: &OccupancyTable, t: Cycle, sends: &mut Vec<Cycle>) -> Cycle {
    let sent = t + table.cost(SubOp::SendMsgHeader);
    sends.push(sent);
    sent
}

/// Runs handler `kind` at `fanout` from cycle 0 on an idle node of `cfg`,
/// with the line's directory-cache entry warm: the no-contention timing
/// Tables 3 and 4 report. Returns the run and its send times.
pub(crate) fn run_idle(
    cfg: &SystemConfig,
    kind: HandlerKind,
    fanout: Fanout,
) -> (StepRun, Vec<Cycle>) {
    let mut node = Node::new(cfg, NodeId(0));
    let line = LineAddr(0);
    node.mem.dircache.read(line);
    let mut sends = Vec::new();
    let run = run_steps(&mut node, cfg, kind.steps(), fanout, line, 0, &mut sends);
    (run, sends)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Architecture;
    use ccn_protocol::EngineKind;

    fn node() -> Node {
        Node::new(&SystemConfig::small(), NodeId(0))
    }

    /// The idle occupancy of `kind` at `fanout` on `arch`'s engine.
    fn occupancy(arch: Architecture, kind: HandlerKind, fanout: Fanout) -> Cycle {
        let cfg = SystemConfig::base().with_architecture(arch);
        run_idle(&cfg, kind, fanout).0.end
    }

    #[test]
    fn every_handler_has_nonzero_occupancy() {
        for &kind in HandlerKind::all() {
            for arch in [Architecture::Hwc, Architecture::Ppc] {
                let o = occupancy(arch, kind, Fanout::remote(1));
                assert!(o > 0, "{kind:?} on {arch:?} has zero occupancy");
            }
        }
    }

    #[test]
    fn ppc_is_slower_on_every_handler() {
        for &kind in HandlerKind::all() {
            let h = occupancy(Architecture::Hwc, kind, Fanout::remote(1));
            let p = occupancy(Architecture::Ppc, kind, Fanout::remote(1));
            assert!(p > h, "{kind:?}: PPC {p} !> HWC {h}");
        }
    }

    #[test]
    fn fanout_scales_invalidation_handlers() {
        let kind = HandlerKind::HomeReadExclShared;
        let one = occupancy(Architecture::Ppc, kind, Fanout::remote(1));
        let four = occupancy(Architecture::Ppc, kind, Fanout::remote(4));
        // Each extra sharer costs one message header + one bit update.
        let table = OccupancyTable::for_engine(EngineKind::Ppc);
        let per = table.cost(SubOp::SendMsgHeader) + table.cost(SubOp::BitFieldUpdate);
        assert_eq!(four - one, 3 * per);
    }

    #[test]
    fn local_inv_adds_one_bus_invalidation() {
        let cfg = SystemConfig::base();
        let kind = HandlerKind::ReqUpgradeAck;
        let local = Fanout {
            remote_invs: 0,
            local_inv: true,
        };
        let without = run_idle(&cfg, kind, Fanout::NONE).0.end;
        let with = run_idle(&cfg, kind, local).0.end;
        // An idle bus grants the invalidation's address slot at once.
        assert_eq!(
            with - without,
            cfg.bus.address_slot_cycles + cfg.bus.snoop_cycles
        );
    }

    #[test]
    fn aggregate_occupancy_ratio_near_two_and_a_half() {
        // Section 3.3: "the ratio between the occupancy of PPC and the
        // occupancy of HWC is more or less constant ... approximately 2.5".
        // The *workload-weighted* ratio (checked by integration tests)
        // lands near 2.5 because data-carrying handlers dominate; the
        // unweighted mean here is higher since the light ack handlers have
        // extreme ratios (tiny FSM cost, full PP dispatch cost).
        let (mut hwc_sum, mut ppc_sum) = (0u64, 0u64);
        for &kind in HandlerKind::all() {
            hwc_sum += occupancy(Architecture::Hwc, kind, Fanout::remote(1));
            ppc_sum += occupancy(Architecture::Ppc, kind, Fanout::remote(1));
        }
        let ratio = ppc_sum as f64 / hwc_sum as f64;
        assert!(
            (2.2..3.8).contains(&ratio),
            "aggregate PPC/HWC occupancy ratio {ratio:.2} out of range"
        );
    }

    #[test]
    fn contention_stretches_occupancy() {
        let cfg = SystemConfig::small();
        let steps = HandlerKind::HomeReadClean.steps();
        let mut n = node();
        // Saturate the memory bank the line maps to.
        for _ in 0..10 {
            n.mem.banks.access(LineAddr(0), 0);
        }
        let sends = &mut Vec::new();
        let none = Fanout::NONE;
        let idle = run_steps(&mut node(), &cfg, steps, none, LineAddr(0), 0, sends).end;
        let busy = run_steps(&mut n, &cfg, steps, none, LineAddr(0), 0, sends).end;
        assert!(busy > idle, "bank contention must extend the handler");
    }

    #[test]
    fn dir_cache_miss_adds_dram_latency() {
        let cfg = SystemConfig::small();
        let steps = HandlerKind::HomeReadDirtyRemote.steps();
        let mut n = node();
        let sends = &mut Vec::new();
        let none = Fanout::NONE;
        let cold = run_steps(&mut n, &cfg, steps, none, LineAddr(9), 0, sends);
        let warm = run_steps(&mut n, &cfg, steps, none, LineAddr(9), cold.end, sends);
        assert_eq!(
            cold.end - (warm.end - cold.end),
            cfg.lat.dir_dram_latency,
            "first access misses the directory cache"
        );
    }

    #[test]
    fn invalidation_fanout_sends_in_order() {
        let cfg = SystemConfig::small();
        let steps = HandlerKind::HomeReadExclShared.steps();
        // A kilonode machine's widest fan-out expands in full.
        for invs in [3, 1023] {
            let mut sends = vec![7; 100];
            let fanout = Fanout::remote(invs);
            run_steps(&mut node(), &cfg, steps, fanout, LineAddr(0), 0, &mut sends);
            // Every invalidation, then the data response.
            assert_eq!(sends.len(), invs as usize + 1);
            assert!(sends.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
