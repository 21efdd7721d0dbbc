//! Protocol-engine sub-operations and their occupancies (paper Table 2).
//!
//! A protocol handler is a sequence of sub-operations. Each sub-operation
//! occupies the protocol engine for a number of CPU cycles that depends on
//! the engine implementation:
//!
//! * **HWC** — a 100 MHz custom hardware FSM: register accesses take one
//!   system cycle (2 CPU cycles); bit-field manipulations and condition
//!   evaluations are folded into other actions (zero extra cycles); the FSM
//!   can decide multiple conditions per cycle.
//! * **PPC** — a 200 MHz commodity protocol processor: reads of off-chip
//!   registers on the local controller bus take 4 system cycles (8 CPU
//!   cycles), +1 system cycle when searching associative registers; writes
//!   take 2 system cycles (4 CPU cycles); bit-field manipulation and
//!   branching cost real instructions (compiler-generated code).
//!
//! The numeric values below are reconstructed from the paper's stated
//! assumptions (Section 2.3) and calibrated against the three legible
//! anchors: Table 3's 142/212-cycle read-miss latency, the ≈2.5× PPC/HWC
//! aggregate occupancy ratio (Section 3.3), and the headline penalties.
//! See DESIGN.md §3 item 5.

use ccn_sim::Cycle;

/// Which protocol-engine implementation executes a handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Custom-hardware FSM at 100 MHz.
    Hwc,
    /// Commodity 200 MHz protocol processor in a 100 MHz controller.
    Ppc,
    /// The direction the paper's conclusions propose: a commodity protocol
    /// processor with *incremental custom hardware* accelerating the
    /// common handler actions — dispatch, register access, and message
    /// composition run at FSM speed while the handler body remains
    /// software.
    PpcAccelerated,
}

impl EngineKind {
    /// Human-readable name as used in the paper (the accelerated design is
    /// this reproduction's extension, labelled "PPC+").
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Hwc => "HWC",
            EngineKind::Ppc => "PPC",
            EngineKind::PpcAccelerated => "PPC+",
        }
    }

    /// Cost of a handler's protocol-processor compute, `ppc` cycles of
    /// software instruction stream: zero for the pure-hardware FSM.
    pub fn extra_cost(self, ppc: Cycle) -> Cycle {
        match self {
            EngineKind::Hwc => 0,
            // The handler bodies stay software on both PP designs.
            EngineKind::Ppc | EngineKind::PpcAccelerated => ppc,
        }
    }
}

/// A protocol-engine sub-operation (the rows of Table 2).
///
/// Sub-operations with *fixed* cost are priced by [`OccupancyTable`];
/// sub-operations marked "dynamic" in the paper (bus and memory access)
/// are represented in handler specs as [`crate::handlers::Step`] variants
/// whose duration the machine model computes under contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubOp {
    /// Handler dispatch: receive the request from the dispatch controller
    /// and branch to the handler.
    Dispatch,
    /// Read a request/bus-interface register.
    ReadReg,
    /// Read with an associative search (matching a pending-transaction
    /// register set).
    ReadRegAssoc,
    /// Write a control register.
    WriteReg,
    /// Compose and write a network-message header to the network interface.
    SendMsgHeader,
    /// Trigger a direct data transfer between the bus interface and the
    /// network interface (a single special-register write).
    StartDataTransfer,
    /// Read a directory entry that hits in the directory cache.
    DirCacheRead,
    /// Write-through update of a directory entry (posted).
    DirWrite,
    /// Extract a bit field (e.g. scan the sharing vector).
    BitFieldExtract,
    /// Set or clear a bit field (e.g. update the sharing/ack vector).
    BitFieldUpdate,
    /// Evaluate a condition / branch.
    Condition,
}

/// Fixed sub-operation occupancies, in CPU cycles (5 ns), for one engine
/// kind: the reproduction of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyTable {
    dispatch: Cycle,
    read_reg: Cycle,
    read_reg_assoc: Cycle,
    write_reg: Cycle,
    send_msg_header: Cycle,
    start_data_transfer: Cycle,
    dir_cache_read: Cycle,
    dir_write: Cycle,
    bit_field_extract: Cycle,
    bit_field_update: Cycle,
    condition: Cycle,
}

impl OccupancyTable {
    /// The occupancy table for `engine`.
    pub fn for_engine(engine: EngineKind) -> Self {
        match engine {
            EngineKind::PpcAccelerated => {
                let hwc = OccupancyTable::for_engine(EngineKind::Hwc);
                let ppc = OccupancyTable::for_engine(EngineKind::Ppc);
                // Hardware-assisted dispatch, register file, and message
                // composition; software-visible costs elsewhere.
                OccupancyTable {
                    dispatch: hwc.dispatch,
                    read_reg: hwc.read_reg,
                    read_reg_assoc: hwc.read_reg_assoc,
                    write_reg: hwc.write_reg,
                    send_msg_header: hwc.send_msg_header,
                    start_data_transfer: hwc.start_data_transfer,
                    dir_cache_read: ppc.dir_cache_read,
                    dir_write: ppc.dir_write,
                    bit_field_extract: ppc.bit_field_extract,
                    bit_field_update: ppc.bit_field_update,
                    condition: ppc.condition,
                }
            }
            EngineKind::Hwc => OccupancyTable {
                // One system cycle (2 CPU cycles) per register access; bit
                // operations and conditions are combined with other actions.
                dispatch: 2,
                read_reg: 2,
                read_reg_assoc: 2,
                write_reg: 2,
                send_msg_header: 2,
                start_data_transfer: 2,
                dir_cache_read: 2,
                dir_write: 2,
                bit_field_extract: 0,
                bit_field_update: 0,
                condition: 0,
            },
            EngineKind::Ppc => OccupancyTable {
                // Dispatch = read of the dispatch-controller register (8)
                // plus decode/branch instructions (2).
                dispatch: 10,
                read_reg: 8,
                read_reg_assoc: 10,
                write_reg: 4,
                // Header compose (2 instructions) + two register writes.
                send_msg_header: 10,
                start_data_transfer: 4,
                // Directory cache = the PP's on-chip data cache: a hit is
                // an ordinary load.
                dir_cache_read: 2,
                dir_write: 4,
                bit_field_extract: 4,
                bit_field_update: 4,
                condition: 2,
            },
        }
    }

    /// Occupancy in CPU cycles of one sub-operation.
    pub fn cost(&self, op: SubOp) -> Cycle {
        match op {
            SubOp::Dispatch => self.dispatch,
            SubOp::ReadReg => self.read_reg,
            SubOp::ReadRegAssoc => self.read_reg_assoc,
            SubOp::WriteReg => self.write_reg,
            SubOp::SendMsgHeader => self.send_msg_header,
            SubOp::StartDataTransfer => self.start_data_transfer,
            SubOp::DirCacheRead => self.dir_cache_read,
            SubOp::DirWrite => self.dir_write,
            SubOp::BitFieldExtract => self.bit_field_extract,
            SubOp::BitFieldUpdate => self.bit_field_update,
            SubOp::Condition => self.condition,
        }
    }

    /// Writes every sub-operation with its cost into `out`, in Table 2
    /// row order. The caller provides the (stack) buffer, so rendering
    /// the report tables never allocates on this path.
    pub fn rows_into(&self, out: &mut [(SubOp, Cycle); SubOp::COUNT]) {
        for (slot, &op) in out.iter_mut().zip(SubOp::ALL.iter()) {
            *slot = (op, self.cost(op));
        }
    }
}

impl SubOp {
    /// Number of sub-operations (the rows of Table 2).
    pub const COUNT: usize = 11;

    /// Every sub-operation, in Table 2 row order.
    pub const ALL: [SubOp; SubOp::COUNT] = [
        SubOp::Dispatch,
        SubOp::ReadReg,
        SubOp::ReadRegAssoc,
        SubOp::WriteReg,
        SubOp::SendMsgHeader,
        SubOp::StartDataTransfer,
        SubOp::DirCacheRead,
        SubOp::DirWrite,
        SubOp::BitFieldExtract,
        SubOp::BitFieldUpdate,
        SubOp::Condition,
    ];
    /// Description used when rendering Table 2.
    pub fn description(self) -> &'static str {
        match self {
            SubOp::Dispatch => "dispatch handler",
            SubOp::ReadReg => "read special register",
            SubOp::ReadRegAssoc => "read special registers (associative search)",
            SubOp::WriteReg => "write special register",
            SubOp::SendMsgHeader => "compose and send message header",
            SubOp::StartDataTransfer => "start direct data transfer",
            SubOp::DirCacheRead => "directory read (directory cache hit)",
            SubOp::DirWrite => "directory write (write-through, posted)",
            SubOp::BitFieldExtract => "extract bit field",
            SubOp::BitFieldUpdate => "set/clear bit field",
            SubOp::Condition => "evaluate condition",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hwc_register_ops_take_one_system_cycle() {
        let t = OccupancyTable::for_engine(EngineKind::Hwc);
        assert_eq!(t.cost(SubOp::ReadReg), 2);
        assert_eq!(t.cost(SubOp::WriteReg), 2);
        assert_eq!(t.cost(SubOp::BitFieldExtract), 0);
        assert_eq!(t.cost(SubOp::Condition), 0);
    }

    #[test]
    fn ppc_off_chip_access_costs() {
        let t = OccupancyTable::for_engine(EngineKind::Ppc);
        assert_eq!(t.cost(SubOp::ReadReg), 8);
        assert_eq!(t.cost(SubOp::ReadRegAssoc), 10);
        assert_eq!(t.cost(SubOp::WriteReg), 4);
    }

    #[test]
    fn ppc_costs_dominate_hwc() {
        let hwc = OccupancyTable::for_engine(EngineKind::Hwc);
        let ppc = OccupancyTable::for_engine(EngineKind::Ppc);
        let mut rows = [(SubOp::Dispatch, 0); SubOp::COUNT];
        hwc.rows_into(&mut rows);
        for (op, hwc_cost) in rows {
            assert!(
                ppc.cost(op) >= hwc_cost,
                "{op:?}: PPC must not be faster than HWC"
            );
        }
    }

    #[test]
    fn rows_cover_all_subops() {
        let t = OccupancyTable::for_engine(EngineKind::Hwc);
        let mut rows = [(SubOp::Condition, u64::MAX); SubOp::COUNT];
        t.rows_into(&mut rows);
        // Every slot was overwritten, each op exactly once, in ALL order.
        for (slot, &op) in rows.iter().zip(SubOp::ALL.iter()) {
            assert_eq!(slot.0, op);
            assert_eq!(slot.1, t.cost(op));
        }
    }
}
