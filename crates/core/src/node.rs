//! One SMP node as an explicit composition of hardware components.
//!
//! The machine is a grid of identical [`Node`]s connected by the network.
//! Each node owns the components the paper's block diagram draws as
//! separate bus agents: the split-transaction [`SmpBus`], the coherence
//! controller ([`CoherenceController`]) with its protocol engines, and a
//! memory controller ([`MemCtrl`]) that fronts both the interleaved data
//! DRAM and the directory storage. Components never call each other
//! directly — cross-component interactions are either resource
//! reservations (handled by each component's `Server`s) or events on
//! the machine's queue (the `Event` kinds in [`machine`](crate::machine)).
//!
//! Each component has an inherent `stats_snapshot` and `reset_stats`;
//! the node's own pair calls its children's, so
//! [`Machine::component_stats`](crate::Machine::component_stats) gets one
//! subtree per node and the measured-phase reset one call per node.

use ccn_bus::SmpBus;
use ccn_controller::{CoherenceController, DirCache};
use ccn_mem::{LineTable, MemoryBanks, NodeId};
use ccn_protocol::directory::Directory;
use ccn_sim::{ComponentStats, Server};

use crate::config::SystemConfig;
use crate::machine::Mshr;
use crate::steps::CcRequest;

/// The node's memory controller: interleaved data-DRAM banks plus the
/// directory storage stack (full directory state, the write-through
/// directory cache, and the directory DRAM behind it).
///
/// The paper models the memory controller as a bus agent separate from
/// the coherence controller; grouping the directory with it reflects
/// that the directory lives in (and contends for) node memory, not in
/// the protocol engines.
#[derive(Debug)]
pub(crate) struct MemCtrl {
    /// Interleaved main-memory banks.
    pub banks: MemoryBanks,
    /// Full directory state for lines homed on this node.
    pub dir: Directory,
    /// Write-through directory cache (8 K entries in the paper).
    pub dircache: DirCache,
    /// Directory DRAM behind the cache.
    pub dir_dram: Server,
}

impl MemCtrl {
    fn stats_snapshot(&self) -> ComponentStats {
        ComponentStats::named("mem")
            .child(self.banks.stats_snapshot())
            .child(self.dircache.stats_snapshot())
            .child(self.dir_dram.stats_snapshot())
    }

    fn reset_stats(&mut self) {
        self.banks.reset_stats();
        self.dircache.reset_stats();
        self.dir_dram.reset_stats();
    }
}

/// One SMP node's hardware.
#[derive(Debug)]
pub(crate) struct Node {
    /// Split-transaction SMP bus (separate address and data buses).
    pub bus: SmpBus,
    /// Memory controller: data DRAM + directory storage.
    pub mem: MemCtrl,
    /// Coherence controller: dispatch queues and protocol engines.
    pub cc: CoherenceController<CcRequest>,
    /// Outstanding node-level transactions by line.
    pub mshr: LineTable<Mshr>,
    /// Slab backing every MSHR's waiter list (blocked processors are
    /// tracked as recycled pool slots, not per-MSHR `Vec`s).
    pub waiter_pool: ccn_sim::pool::ListPool<u32>,
}

impl Node {
    /// Builds the hardware of one node.
    pub(crate) fn new(cfg: &SystemConfig, node_id: NodeId) -> Node {
        // Pre-size the hot per-line tables so the steady state never pays a
        // rehash: the directory tracks a slice of the node's remotely-cached
        // home lines (an eighth of the directory cache is comfortably past
        // every reference working set without bloating small machines), and
        // the MSHR table one outstanding miss per local processor plus
        // forwarded traffic.
        let dir_lines = (cfg.dir_cache_entries as usize / 8).max(64);
        // Transient-state slabs, sized from the configuration: every
        // processor in the system can have at most one request buffered
        // behind this node's busy lines, and only local processors can
        // wait on this node's MSHRs.
        let mut dir = Directory::with_format(node_id, dir_lines, cfg.dir_format, cfg.nodes as u16);
        dir.reserve_pending(cfg.nprocs());
        Node {
            bus: SmpBus::new(cfg.bus),
            mem: MemCtrl {
                banks: MemoryBanks::new(cfg.lat.mem_banks, cfg.lat.mem_bank_occupancy),
                dir,
                dircache: DirCache::new(cfg.dir_cache_entries),
                dir_dram: Server::new("directory dram"),
            },
            // Worst case, every outstanding miss in the system (one per
            // processor) plus its invalidation fan-out converges on one
            // node's controller; 4x headroom keeps the input queues off
            // the allocator even then.
            cc: CoherenceController::with_queue_capacity(cfg.engines, cfg.nprocs() * 4),
            mshr: LineTable::with_capacity(cfg.procs_per_node * 4),
            waiter_pool: ccn_sim::pool::ListPool::with_capacity(cfg.procs_per_node),
        }
    }

    /// A snapshot of the bus, the coherence controller and the memory
    /// controller, in that order.
    pub(crate) fn stats_snapshot(&self) -> ComponentStats {
        ComponentStats::named("node")
            .child(self.bus.stats_snapshot())
            .child(self.cc.stats_snapshot())
            .child(self.mem.stats_snapshot())
    }

    /// Resets every component's statistics for the measured phase.
    /// Simulated state — bus/bank reservations, directory contents and
    /// the directory-cache tags, queued requests, MSHRs — survives.
    pub(crate) fn reset_stats(&mut self) {
        self.bus.reset_stats();
        self.cc.reset_stats();
        self.mem.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccn_mem::LineAddr;

    #[test]
    fn node_snapshot_walks_all_components() {
        let mut node = Node::new(&SystemConfig::small(), NodeId(0));
        node.bus.address_phase(0);
        node.mem.banks.access(LineAddr(0), 0);
        node.mem.dircache.read(LineAddr(0));
        let snap = node.stats_snapshot();
        assert_eq!(
            snap.find("bus").unwrap().get_counter("transactions"),
            Some(1)
        );
        assert_eq!(
            snap.find("memory").unwrap().get_counter("accesses"),
            Some(1)
        );
        assert_eq!(
            snap.find("dircache").unwrap().get_counter("misses"),
            Some(1)
        );
        assert!(snap.find("cc").is_some());
    }

    #[test]
    fn node_reset_preserves_simulated_state() {
        let mut node = Node::new(&SystemConfig::small(), NodeId(0));
        node.mem.dircache.read(LineAddr(7));
        let busy = node.bus.address_phase(0);
        node.reset_stats();
        assert_eq!(node.bus.transactions(), 0);
        assert_eq!(node.mem.dircache.misses(), 0);
        // Contents and reservations survive: the next read hits, the next
        // address phase queues behind the pre-reset strobe.
        assert!(node.mem.dircache.read(LineAddr(7)));
        assert!(node.bus.address_phase(0) > busy);
    }
}
