//! Protocol-handler step execution against one node's components.

use ccn_mem::LineAddr;

use ccn_protocol::exec::StepRun;
use ccn_protocol::handlers::Step;
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
        requester: ccn_mem::NodeId,
    },
    /// A dirty-remote eviction waiting to be forwarded by the engine
    /// (only when the direct data path is disabled).
    Writeback { line: LineAddr, payload: u64 },
}

/// Executes `steps` on `node` starting at `start`, reserving bus,
/// memory, and directory resources as it goes. The engine is considered
/// occupied for the whole interval (the paper's occupancy definition).
/// `sends` is replaced with the completion times of the `SendMsg` steps,
/// in step order.
pub(crate) fn run_steps(
    node: &mut Node,
    cfg: &SystemConfig,
    steps: &[Step],
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
            Step::Extra { hwc, ppc } => t += cfg.engine.extra_cost(hwc, ppc),
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
            Step::BusInv => {
                let strobe = node.bus.address_phase(t);
                t = strobe + cfg.bus.address_slot_cycles + cfg.bus.snoop_cycles;
            }
            Step::BusIntervention { .. } => {
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
            Step::SendMsg => {
                t += table.cost(SubOp::SendMsgHeader);
                sends.push(t);
            }
            Step::SendData => {
                t += table.cost(SubOp::StartDataTransfer);
            }
        }
    }
    run.end = t;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccn_protocol::handlers::{Fanout, HandlerKind, HandlerSpec};

    fn node() -> Node {
        Node::new(&SystemConfig::small(), ccn_mem::NodeId(0))
    }

    #[test]
    fn home_read_clean_no_contention_matches_static() {
        let cfg = SystemConfig::small();
        let spec = HandlerSpec::build(HandlerKind::HomeReadClean, Fanout::NONE);
        let mut n = node();
        // Warm the directory cache: Table 4 occupancies assume a hit.
        n.mem.dircache.read(LineAddr(0));
        let mut sends = Vec::new();
        let run = run_steps(&mut n, &cfg, &spec.steps, LineAddr(0), 1000, &mut sends);
        let static_occ = spec.occupancy(
            cfg.engine,
            &ccn_protocol::handlers::StaticStepCosts::default(),
        );
        assert_eq!(
            run.end - 1000,
            static_occ,
            "dynamic must equal static when idle"
        );
        assert_eq!(sends.len(), 1);
        assert!(run.mem_data.is_some());
    }

    #[test]
    fn contention_stretches_occupancy() {
        let cfg = SystemConfig::small();
        let spec = HandlerSpec::build(HandlerKind::HomeReadClean, Fanout::NONE);
        let mut n = node();
        // Saturate the memory bank the line maps to.
        for _ in 0..10 {
            n.mem.banks.access(LineAddr(0), 0);
        }
        let sends = &mut Vec::new();
        let idle = run_steps(&mut node(), &cfg, &spec.steps, LineAddr(0), 0, sends).end;
        let busy = run_steps(&mut n, &cfg, &spec.steps, LineAddr(0), 0, sends).end;
        assert!(busy > idle, "bank contention must extend the handler");
    }

    #[test]
    fn dir_cache_miss_adds_dram_latency() {
        let cfg = SystemConfig::small();
        let spec = HandlerSpec::build(HandlerKind::HomeReadDirtyRemote, Fanout::NONE);
        let mut n = node();
        let sends = &mut Vec::new();
        let cold = run_steps(&mut n, &cfg, &spec.steps, LineAddr(9), 0, sends);
        let warm = run_steps(&mut n, &cfg, &spec.steps, LineAddr(9), cold.end, sends);
        assert_eq!(
            cold.end - (warm.end - cold.end),
            cfg.lat.dir_dram_latency,
            "first access misses the directory cache"
        );
    }

    #[test]
    fn invalidation_fanout_sends_in_order() {
        let cfg = SystemConfig::small();
        let spec = HandlerSpec::build(HandlerKind::HomeReadExclShared, Fanout::remote(3));
        let mut n = node();
        let mut sends = vec![7; 100];
        run_steps(&mut n, &cfg, &spec.steps, LineAddr(0), 0, &mut sends);
        assert_eq!(sends.len(), 4); // 3 invalidations + data response
        assert!(sends.windows(2).all(|w| w[0] < w[1]));
    }
}
