//! Protocol handlers as sub-operation sequences (paper Table 4).
//!
//! Each handler is a list of [`Step`]s. Fixed steps are priced by the
//! engine's [`OccupancyTable`]; *dynamic* steps (bus, memory, directory
//! accesses) are timed by the machine model under contention — the engine
//! remains occupied throughout, exactly matching the paper's definition of
//! handler occupancy ("handler dispatch time, directory reference time,
//! access time to special registers, SMP bus and local memory access times,
//! and bit field manipulation").
//!
//! The paper's protocol postpones directory updates that are not needed for
//! a response until after the response is issued; the step sequences below
//! therefore place `DirUpdate` *after* the `SendMsg`/`StartDataTransfer`
//! steps of the response.

use ccn_sim::Cycle;

use crate::subop::{EngineKind, OccupancyTable, SubOp};

/// One step of a protocol handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A fixed-cost sub-operation (Table 2).
    Op(SubOp),
    /// Engine-specific extra compute (PP instruction stream not present in
    /// the FSM, e.g. address arithmetic and sharing-vector scans).
    Extra {
        /// Extra HWC cycles (usually 0: the FSM folds these).
        hwc: Cycle,
        /// Extra PPC cycles.
        ppc: Cycle,
    },
    /// Directory entry read through the directory cache (dynamic: a miss
    /// adds a directory-DRAM access).
    DirRead,
    /// Posted write-through directory update (fixed engine cost; the DRAM
    /// write completes in the background).
    DirUpdate,
    /// Read a line from local memory over the SMP bus into the bus
    /// interface (dynamic).
    MemRead,
    /// Write a line to local memory over the SMP bus (dynamic).
    MemWrite,
    /// Invalidate local cached copies with a bus transaction (dynamic,
    /// address phase only).
    BusInv,
    /// Fetch a line from a local processor cache with an intervention bus
    /// read (dynamic); `invalidate` also removes the local copies.
    BusIntervention {
        /// Whether local copies are invalidated by the intervention.
        invalidate: bool,
    },
    /// Deliver data to the waiting local requester over the bus (dynamic).
    BusDeliver,
    /// Compose and send one network-message header (fixed).
    SendMsg,
    /// Start a direct bus-interface ↔ network-interface data transfer
    /// (fixed: a single special-register write).
    SendData,
}

/// Invalidation fan-out parameters for handlers whose work depends on the
/// sharing set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fanout {
    /// Number of remote sharers to invalidate (one message + ack each).
    pub remote_invs: u32,
    /// Whether local (same-node) copies must be invalidated on the bus.
    pub local_inv: bool,
}

impl Fanout {
    /// No invalidations at all.
    pub const NONE: Fanout = Fanout {
        remote_invs: 0,
        local_inv: false,
    };

    /// `n` remote invalidations, no local ones.
    pub fn remote(n: u32) -> Self {
        Fanout {
            remote_invs: n,
            local_inv: false,
        }
    }
}

/// Every protocol handler in the system.
///
/// Names follow the rows of the paper's Table 4; handlers the paper folds
/// into others (eviction write-back, fwd-miss recovery, requester-side
/// completion notices) are listed explicitly here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HandlerKind {
    // ----- requester-side bus handlers (remote addresses; RPE) -----
    /// "bus read remote": local read miss to a remote line.
    BusReadRemote,
    /// "bus read exclusive remote": local write miss to a remote line.
    BusReadExclRemote,
    /// Upgrade request for a remote line held Shared locally.
    BusUpgradeRemote,
    // ----- home-side bus handlers (local addresses; LPE) -----
    /// "bus read local (dirty remote)": local read, owner is remote.
    BusReadLocalDirtyRemote,
    /// "bus read excl. local (cached remote)", dirty-remote case.
    BusReadExclLocalDirtyRemote,
    /// "bus read excl. local (cached remote)", shared-remote case.
    BusReadExclLocalShared,
    // ----- home-side network request handlers (LPE) -----
    /// "remote read to home (clean)".
    HomeReadClean,
    /// "remote read to home (dirty remote)".
    HomeReadDirtyRemote,
    /// "remote read excl. to home (uncached remote)".
    HomeReadExclUncached,
    /// "remote read excl. to home (shared remote)".
    HomeReadExclShared,
    /// "remote read excl. to home (dirty remote)".
    HomeReadExclDirtyRemote,
    /// Upgrade arriving at home for a shared line.
    HomeUpgradeShared,
    /// Dirty-eviction write-back arriving at home (via direct data path).
    HomeWritebackEviction,
    /// Dirty-eviction write-back *leaving* the evicting node when the
    /// direct bus→network data path is disabled (ablation): the engine
    /// must forward it by hand.
    BusWritebackRemote,
    /// Advisory replacement hint arriving at home (hint extension):
    /// clear the evicting node's presence bit.
    HomeReplacementHint,
    // ----- owner-side forwarded handlers (RPE) -----
    /// "read from remote owner (request from home)".
    OwnerReadFwdHomeRequester,
    /// "read from remote owner (remote requester)".
    OwnerReadFwdRemoteRequester,
    /// "read excl. from remote owner (request from home)".
    OwnerReadExclFwdHomeRequester,
    /// "read excl. from remote owner (remote requester)".
    OwnerReadExclFwdRemoteRequester,
    /// Forward arrived for a line whose write-back is in flight.
    OwnerFwdMissReply,
    // ----- sharer-side (RPE) -----
    /// "invalidation request from home to sharer".
    InvReqAtSharer,
    // ----- home-side response handlers (LPE) -----
    /// "data response from owner to a read request from home".
    HomeDataRespOwnerRead,
    /// "write back from owner to home in response to a read req. from
    /// remote node".
    HomeSharingWriteback,
    /// "data response from owner to a read excl. request from home".
    HomeDataRespOwnerReadExcl,
    /// "ack. from owner to home in response to a read excl. request from
    /// remote node".
    HomeOwnershipAck,
    /// "inv. acknowledgment (more expected)".
    HomeInvAckMore,
    /// "inv. ack. (last ack, local request)".
    HomeInvAckLastLocal,
    /// "inv. ack. (last ack, remote request)".
    HomeInvAckLastRemote,
    /// The owner's fwd-miss notice: satisfy the original request from
    /// memory.
    HomeFwdMiss,
    // ----- requester-side response handlers (RPE) -----
    /// "data in response to a remote read request".
    ReqDataResp,
    /// "data in response to a remote read excl. request".
    ReqDataExclResp,
    /// Upgrade permission arriving at the requester.
    ReqUpgradeAck,
    /// Invalidation-completion notice arriving at the requester.
    ReqInvDone,
}

impl HandlerKind {
    /// Number of handler kinds; the length of [`all`](Self::all).
    pub const COUNT: usize = 33;

    /// Dense index of this kind: its position in [`all`](Self::all).
    /// Lets per-handler statistics live in a fixed array instead of a
    /// hash map, which keeps the dispatch path allocation-free.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// All handler kinds, in Table 4 order (extras at the end).
    pub fn all() -> &'static [HandlerKind] {
        use HandlerKind::*;
        &[
            BusReadRemote,
            BusReadExclRemote,
            BusUpgradeRemote,
            BusReadLocalDirtyRemote,
            BusReadExclLocalDirtyRemote,
            BusReadExclLocalShared,
            HomeReadClean,
            HomeReadDirtyRemote,
            HomeReadExclUncached,
            HomeReadExclShared,
            HomeReadExclDirtyRemote,
            HomeUpgradeShared,
            HomeWritebackEviction,
            BusWritebackRemote,
            HomeReplacementHint,
            OwnerReadFwdHomeRequester,
            OwnerReadFwdRemoteRequester,
            OwnerReadExclFwdHomeRequester,
            OwnerReadExclFwdRemoteRequester,
            OwnerFwdMissReply,
            InvReqAtSharer,
            HomeDataRespOwnerRead,
            HomeSharingWriteback,
            HomeDataRespOwnerReadExcl,
            HomeOwnershipAck,
            HomeInvAckMore,
            HomeInvAckLastLocal,
            HomeInvAckLastRemote,
            HomeFwdMiss,
            ReqDataResp,
            ReqDataExclResp,
            ReqUpgradeAck,
            ReqInvDone,
        ]
    }

    /// Whether the handler runs on the *local protocol engine* (LPE: the
    /// line's home is the executing node — these are the handlers that may
    /// touch the directory) or on the remote protocol engine (RPE), per
    /// the S3.mp-style split used for the two-engine designs.
    pub fn is_home_side(self) -> bool {
        use HandlerKind::*;
        matches!(
            self,
            BusReadLocalDirtyRemote
                | BusReadExclLocalDirtyRemote
                | BusReadExclLocalShared
                | HomeReadClean
                | HomeReadDirtyRemote
                | HomeReadExclUncached
                | HomeReadExclShared
                | HomeReadExclDirtyRemote
                | HomeUpgradeShared
                | HomeWritebackEviction
                | HomeReplacementHint
                | HomeDataRespOwnerRead
                | HomeSharingWriteback
                | HomeDataRespOwnerReadExcl
                | HomeOwnershipAck
                | HomeInvAckMore
                | HomeInvAckLastLocal
                | HomeInvAckLastRemote
                | HomeFwdMiss
        )
    }

    /// The row label used when rendering Table 4.
    pub fn paper_label(self) -> &'static str {
        use HandlerKind::*;
        match self {
            BusReadRemote => "bus read remote",
            BusReadExclRemote => "bus read exclusive remote",
            BusUpgradeRemote => "bus upgrade remote",
            BusReadLocalDirtyRemote => "bus read local (dirty remote)",
            BusReadExclLocalDirtyRemote => "bus read excl. local (dirty remote)",
            BusReadExclLocalShared => "bus read excl. local (shared remote)",
            HomeReadClean => "remote read to home (clean)",
            HomeReadDirtyRemote => "remote read to home (dirty remote)",
            HomeReadExclUncached => "remote read excl. to home (uncached remote)",
            HomeReadExclShared => "remote read excl. to home (shared remote)",
            HomeReadExclDirtyRemote => "remote read excl. to home (dirty remote)",
            HomeUpgradeShared => "remote upgrade to home (shared remote)",
            HomeWritebackEviction => "write back (eviction) at home",
            BusWritebackRemote => "write back of dirty remote data (no direct path)",
            HomeReplacementHint => "replacement hint at home",
            OwnerReadFwdHomeRequester => "read from remote owner (request from home)",
            OwnerReadFwdRemoteRequester => "read from remote owner (remote requester)",
            OwnerReadExclFwdHomeRequester => "read excl. from remote owner (request from home)",
            OwnerReadExclFwdRemoteRequester => "read excl. from remote owner (remote requester)",
            OwnerFwdMissReply => "forward miss reply at old owner",
            InvReqAtSharer => "invalidation request from home to sharer",
            HomeDataRespOwnerRead => "data response from owner to a read request from home",
            HomeSharingWriteback => "write back from owner to home (read req. from remote node)",
            HomeDataRespOwnerReadExcl => {
                "data response from owner to a read excl. request from home"
            }
            HomeOwnershipAck => "ack. from owner to home (read excl. from remote node)",
            HomeInvAckMore => "inv. acknowledgment (more expected)",
            HomeInvAckLastLocal => "inv. ack. (last ack, local request)",
            HomeInvAckLastRemote => "inv. ack. (last ack, remote request)",
            HomeFwdMiss => "forward miss recovery at home",
            ReqDataResp => "data in response to a remote read request",
            ReqDataExclResp => "data in response to a remote read excl. request",
            ReqUpgradeAck => "upgrade ack at requester",
            ReqInvDone => "invalidation-done notice at requester",
        }
    }

    /// The transaction phase this handler belongs to (flight-recorder
    /// span tag): where in a transaction's life the handler runs.
    pub fn phase(self) -> TxnPhase {
        use HandlerKind::*;
        match self {
            BusReadRemote | BusReadExclRemote | BusUpgradeRemote => TxnPhase::RequestIssue,
            BusReadLocalDirtyRemote
            | BusReadExclLocalDirtyRemote
            | BusReadExclLocalShared
            | HomeReadClean
            | HomeReadDirtyRemote
            | HomeReadExclUncached
            | HomeReadExclShared
            | HomeReadExclDirtyRemote
            | HomeUpgradeShared => TxnPhase::HomeService,
            HomeWritebackEviction | BusWritebackRemote | HomeReplacementHint => TxnPhase::Eviction,
            OwnerReadFwdHomeRequester
            | OwnerReadFwdRemoteRequester
            | OwnerReadExclFwdHomeRequester
            | OwnerReadExclFwdRemoteRequester
            | OwnerFwdMissReply => TxnPhase::OwnerForward,
            InvReqAtSharer => TxnPhase::Invalidation,
            HomeDataRespOwnerRead
            | HomeSharingWriteback
            | HomeDataRespOwnerReadExcl
            | HomeOwnershipAck
            | HomeInvAckMore
            | HomeInvAckLastLocal
            | HomeInvAckLastRemote
            | HomeFwdMiss => TxnPhase::HomeCollect,
            ReqDataResp | ReqDataExclResp | ReqUpgradeAck | ReqInvDone => TxnPhase::Completion,
        }
    }
}

/// Which phase of a coherence transaction a handler executes in. The
/// flight recorder stamps every handler span with its phase, and the
/// phase-priority directory work on the roadmap schedules by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TxnPhase {
    /// Requester-side bus handlers: the miss leaves the node.
    RequestIssue,
    /// Home-side service of the original request (bus or network).
    HomeService,
    /// Owner-side handling of a forwarded request.
    OwnerForward,
    /// Sharer-side invalidation handling.
    Invalidation,
    /// Home-side collection of responses/acks on the way back.
    HomeCollect,
    /// Requester-side completion (data/ack arrives, fill).
    Completion,
    /// Eviction/write-back traffic not tied to a live transaction.
    Eviction,
}

impl TxnPhase {
    /// Stable lowercase label (trace args, docs).
    pub fn label(self) -> &'static str {
        match self {
            TxnPhase::RequestIssue => "request-issue",
            TxnPhase::HomeService => "home-service",
            TxnPhase::OwnerForward => "owner-forward",
            TxnPhase::Invalidation => "invalidation",
            TxnPhase::HomeCollect => "home-collect",
            TxnPhase::Completion => "completion",
            TxnPhase::Eviction => "eviction",
        }
    }
}

/// A concrete handler instance: kind plus expanded step list.
///
/// Table 4 rendering and the occupancy analyses build one per handler
/// with [`build`](Self::build). The simulation keeps one per machine and
/// refills it in place with [`fill`](Self::fill) and
/// [`fill_probe`](Self::fill_probe); the machine sizes it for its widest
/// handler up front, so the dispatch path never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandlerSpec {
    /// The handler this spec describes.
    pub kind: HandlerKind,
    /// The steps, in execution order.
    pub steps: Vec<Step>,
}

impl HandlerSpec {
    /// Builds the step sequence for `kind` with the given invalidation
    /// fan-out (ignored by handlers without fan-out).
    pub fn build(kind: HandlerKind, fanout: Fanout) -> Self {
        let mut spec = HandlerSpec {
            kind,
            steps: Vec::new(),
        };
        spec.fill(kind, fanout);
        spec
    }

    /// Replaces the spec with the cheap directory-probe sequence used
    /// when a request only inspects the line (busy / await-writeback):
    /// dispatch, request read, directory read, condition.
    pub fn fill_probe(&mut self, kind: HandlerKind) {
        self.kind = kind;
        self.steps.clear();
        self.steps.extend([
            Step::Op(SubOp::Dispatch),
            Step::Op(SubOp::ReadReg),
            Step::DirRead,
            Step::Op(SubOp::Condition),
        ]);
    }

    /// Replaces the spec with the step sequence for `kind` at the given
    /// invalidation fan-out (ignored by handlers without fan-out),
    /// reusing the step vector's storage.
    pub fn fill(&mut self, kind: HandlerKind, fanout: Fanout) {
        use HandlerKind::*;
        use Step::*;
        use SubOp::*;
        self.kind = kind;
        self.steps.clear();
        let steps = &mut self.steps;
        match kind {
            BusReadRemote => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    Op(Condition),
                    SendMsg,
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 12 },
                ]);
            }
            BusReadExclRemote => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    Op(Condition),
                    SendMsg,
                    Op(WriteReg),
                    Op(BitFieldUpdate),
                    Extra { hwc: 0, ppc: 12 },
                ]);
            }
            BusUpgradeRemote => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    Op(Condition),
                    SendMsg,
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 12 },
                ]);
            }
            BusReadLocalDirtyRemote | BusReadExclLocalDirtyRemote => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    DirRead,
                    Op(Condition),
                    Op(BitFieldExtract),
                    SendMsg,
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 12 },
                ]);
            }
            BusReadExclLocalShared => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    DirRead,
                    Op(Condition),
                    Op(BitFieldExtract),
                ]);
                for _ in 0..fanout.remote_invs {
                    steps.push(SendMsg);
                    steps.push(Op(BitFieldUpdate));
                }
                steps.extend([Op(WriteReg), DirUpdate, Extra { hwc: 0, ppc: 36 }]);
            }
            HomeReadClean | HomeReadExclUncached => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    DirRead,
                    Op(Condition),
                    MemRead,
                    SendMsg,
                    SendData,
                    DirUpdate,
                    Extra { hwc: 0, ppc: 32 },
                ]);
            }
            HomeReadDirtyRemote | HomeReadExclDirtyRemote => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    DirRead,
                    Op(Condition),
                    Op(BitFieldExtract),
                    SendMsg,
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 12 },
                ]);
            }
            HomeReadExclShared => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    DirRead,
                    Op(Condition),
                    Op(BitFieldExtract),
                ]);
                for _ in 0..fanout.remote_invs {
                    steps.push(SendMsg);
                    steps.push(Op(BitFieldUpdate));
                }
                if fanout.local_inv {
                    steps.push(BusInv);
                }
                steps.extend([
                    MemRead,
                    SendMsg,
                    SendData,
                    Op(WriteReg),
                    DirUpdate,
                    Extra { hwc: 0, ppc: 36 },
                ]);
            }
            HomeUpgradeShared => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    DirRead,
                    Op(Condition),
                    Op(BitFieldExtract),
                ]);
                for _ in 0..fanout.remote_invs {
                    steps.push(SendMsg);
                    steps.push(Op(BitFieldUpdate));
                }
                if fanout.local_inv {
                    steps.push(BusInv);
                }
                steps.extend([SendMsg, Op(WriteReg), DirUpdate, Extra { hwc: 0, ppc: 12 }]);
            }
            HomeWritebackEviction => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    Op(Condition),
                    MemWrite,
                    DirUpdate,
                    Extra { hwc: 0, ppc: 12 },
                ]);
            }
            BusWritebackRemote => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    Op(Condition),
                    SendMsg,
                    SendData,
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 12 },
                ]);
            }
            HomeReplacementHint => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    DirRead,
                    Op(Condition),
                    Op(BitFieldUpdate),
                    DirUpdate,
                    Extra { hwc: 0, ppc: 6 },
                ]);
            }
            OwnerReadFwdHomeRequester => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    Op(Condition),
                    BusIntervention { invalidate: false },
                    SendMsg,
                    SendData,
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 24 },
                ]);
            }
            OwnerReadFwdRemoteRequester => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    Op(Condition),
                    BusIntervention { invalidate: false },
                    SendMsg,
                    SendData,
                    SendMsg,
                    SendData,
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 24 },
                ]);
            }
            OwnerReadExclFwdHomeRequester => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    Op(Condition),
                    BusIntervention { invalidate: true },
                    SendMsg,
                    SendData,
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 24 },
                ]);
            }
            OwnerReadExclFwdRemoteRequester => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    Op(Condition),
                    BusIntervention { invalidate: true },
                    SendMsg,
                    SendData,
                    SendMsg,
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 24 },
                ]);
            }
            OwnerFwdMissReply => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    Op(Condition),
                    SendMsg,
                    Extra { hwc: 0, ppc: 8 },
                ]);
            }
            InvReqAtSharer => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadReg),
                    Op(Condition),
                    BusInv,
                    SendMsg,
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 8 },
                ]);
            }
            HomeDataRespOwnerRead => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadRegAssoc),
                    Op(Condition),
                    MemWrite,
                    BusDeliver,
                    DirUpdate,
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 20 },
                ]);
            }
            HomeSharingWriteback => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadRegAssoc),
                    Op(Condition),
                    MemWrite,
                    DirUpdate,
                    Extra { hwc: 0, ppc: 12 },
                ]);
            }
            HomeDataRespOwnerReadExcl => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadRegAssoc),
                    Op(Condition),
                    BusDeliver,
                    DirUpdate,
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 12 },
                ]);
            }
            HomeOwnershipAck => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadRegAssoc),
                    Op(Condition),
                    DirUpdate,
                    Extra { hwc: 0, ppc: 8 },
                ]);
            }
            HomeInvAckMore => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadRegAssoc),
                    Op(BitFieldUpdate),
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 2 },
                ]);
            }
            HomeInvAckLastLocal => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadRegAssoc),
                    Op(BitFieldUpdate),
                    Op(Condition),
                    Op(WriteReg),
                    DirUpdate,
                    Extra { hwc: 0, ppc: 4 },
                ]);
            }
            HomeInvAckLastRemote => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadRegAssoc),
                    Op(BitFieldUpdate),
                    Op(Condition),
                    SendMsg,
                    DirUpdate,
                    Extra { hwc: 0, ppc: 4 },
                ]);
            }
            HomeFwdMiss => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadRegAssoc),
                    Op(Condition),
                    MemRead,
                    SendMsg,
                    SendData,
                    DirUpdate,
                    Extra { hwc: 0, ppc: 24 },
                ]);
            }
            ReqDataResp => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadRegAssoc),
                    Op(Condition),
                    BusDeliver,
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 8 },
                ]);
            }
            ReqDataExclResp => {
                steps.extend([Op(Dispatch), Op(ReadRegAssoc), Op(Condition)]);
                if fanout.local_inv {
                    steps.push(BusInv);
                }
                steps.extend([
                    BusDeliver,
                    Op(WriteReg),
                    Op(BitFieldUpdate),
                    Extra { hwc: 0, ppc: 8 },
                ]);
            }
            ReqUpgradeAck => {
                steps.extend([Op(Dispatch), Op(ReadRegAssoc), Op(Condition)]);
                if fanout.local_inv {
                    steps.push(BusInv);
                }
                steps.extend([Op(WriteReg), Extra { hwc: 0, ppc: 8 }]);
            }
            ReqInvDone => {
                steps.extend([
                    Op(Dispatch),
                    Op(ReadRegAssoc),
                    Op(WriteReg),
                    Extra { hwc: 0, ppc: 2 },
                ]);
            }
        }
    }

    /// Total no-contention occupancy of this handler on `engine`, using the
    /// static costs for dynamic steps (the way Table 4 reports them).
    pub fn occupancy(&self, engine: EngineKind, costs: &StaticStepCosts) -> Cycle {
        let table = OccupancyTable::for_engine(engine);
        self.steps
            .iter()
            .map(|step| match *step {
                Step::Op(op) => table.cost(op),
                Step::Extra { hwc, ppc } => engine.extra_cost(hwc, ppc),
                Step::DirRead => table.cost(SubOp::DirCacheRead),
                Step::DirUpdate => table.cost(SubOp::DirWrite),
                Step::MemRead => costs.mem_read,
                Step::MemWrite => costs.mem_write,
                Step::BusInv => costs.bus_inv,
                Step::BusIntervention { .. } => costs.bus_intervention,
                Step::BusDeliver => costs.bus_deliver,
                Step::SendMsg => table.cost(SubOp::SendMsgHeader),
                Step::SendData => table.cost(SubOp::StartDataTransfer),
            })
            .sum()
    }
}

/// No-contention durations of the dynamic steps, in CPU cycles, used for
/// rendering Table 4 and for the analytic Table 3 breakdown. The machine
/// model computes the same quantities dynamically under contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticStepCosts {
    /// Bus arbitration + memory access to data available in the bus
    /// interface (paper Table 1: strobe→data from memory = 20 cycles).
    pub mem_read: Cycle,
    /// Bus arbitration + posted line write toward memory.
    pub mem_write: Cycle,
    /// Bus invalidate: arbitration + address phase.
    pub bus_inv: Cycle,
    /// Intervention read from a local processor cache.
    pub bus_intervention: Cycle,
    /// Data delivery to the waiting requester on the bus.
    pub bus_deliver: Cycle,
}

impl Default for StaticStepCosts {
    fn default() -> Self {
        StaticStepCosts {
            mem_read: 28,
            mem_write: 12,
            bus_inv: 8,
            bus_intervention: 24,
            bus_deliver: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occ(kind: HandlerKind, fanout: Fanout, engine: EngineKind) -> Cycle {
        HandlerSpec::build(kind, fanout).occupancy(engine, &StaticStepCosts::default())
    }

    #[test]
    fn dense_index_matches_table_order() {
        // Array-backed per-handler counters rely on `index()` agreeing
        // with the position in `all()`.
        assert_eq!(HandlerKind::all().len(), HandlerKind::COUNT);
        for (i, &kind) in HandlerKind::all().iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?} out of order");
        }
    }

    #[test]
    fn every_handler_has_a_phase_consistent_with_its_side() {
        for &kind in HandlerKind::all() {
            let phase = kind.phase();
            assert!(!phase.label().is_empty());
            // Phases that only home-side handlers can be in, and vice
            // versa; eviction traffic exists on both sides.
            match phase {
                TxnPhase::HomeService | TxnPhase::HomeCollect => {
                    assert!(kind.is_home_side(), "{kind:?}");
                }
                TxnPhase::RequestIssue
                | TxnPhase::OwnerForward
                | TxnPhase::Invalidation
                | TxnPhase::Completion => {
                    assert!(!kind.is_home_side(), "{kind:?}");
                }
                TxnPhase::Eviction => {}
            }
        }
        // Labels are unique (they key blame tables and trace args).
        let mut labels: Vec<&str> = HandlerKind::all()
            .iter()
            .map(|k| k.phase().label())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 7, "all seven phases are reachable");
    }

    #[test]
    fn every_handler_has_nonzero_occupancy() {
        for &kind in HandlerKind::all() {
            for engine in [EngineKind::Hwc, EngineKind::Ppc] {
                let o = occ(kind, Fanout::remote(1), engine);
                assert!(o > 0, "{kind:?} on {engine:?} has zero occupancy");
            }
        }
    }

    #[test]
    fn ppc_is_slower_on_every_handler() {
        for &kind in HandlerKind::all() {
            let h = occ(kind, Fanout::remote(1), EngineKind::Hwc);
            let p = occ(kind, Fanout::remote(1), EngineKind::Ppc);
            assert!(p > h, "{kind:?}: PPC {p} !> HWC {h}");
        }
    }

    #[test]
    fn every_handler_starts_with_dispatch() {
        for &kind in HandlerKind::all() {
            let spec = HandlerSpec::build(kind, Fanout::remote(1));
            assert_eq!(
                spec.steps.first(),
                Some(&Step::Op(SubOp::Dispatch)),
                "{kind:?} must begin with dispatch"
            );
        }
    }

    #[test]
    fn fanout_scales_invalidation_handlers() {
        let one = occ(
            HandlerKind::HomeReadExclShared,
            Fanout::remote(1),
            EngineKind::Ppc,
        );
        let four = occ(
            HandlerKind::HomeReadExclShared,
            Fanout::remote(4),
            EngineKind::Ppc,
        );
        assert!(four > one);
        // Each extra sharer costs one message header + one bit update.
        let table = OccupancyTable::for_engine(EngineKind::Ppc);
        let per = table.cost(SubOp::SendMsgHeader) + table.cost(SubOp::BitFieldUpdate);
        assert_eq!(four - one, 3 * per);
    }

    #[test]
    fn local_inv_adds_bus_transaction() {
        let without = occ(HandlerKind::ReqUpgradeAck, Fanout::NONE, EngineKind::Hwc);
        let with = occ(
            HandlerKind::ReqUpgradeAck,
            Fanout {
                remote_invs: 0,
                local_inv: true,
            },
            EngineKind::Hwc,
        );
        assert_eq!(with - without, StaticStepCosts::default().bus_inv);
    }

    #[test]
    fn home_side_classification_matches_directory_access() {
        // Every handler with a DirRead or DirUpdate step must be home-side.
        for &kind in HandlerKind::all() {
            let spec = HandlerSpec::build(kind, Fanout::remote(1));
            let touches_dir = spec
                .steps
                .iter()
                .any(|s| matches!(s, Step::DirRead | Step::DirUpdate));
            if touches_dir {
                assert!(
                    kind.is_home_side(),
                    "{kind:?} touches the directory off-home"
                );
            }
        }
    }

    /// The steps of the directory probe `fill_probe` runs.
    const PROBE: [Step; 4] = [
        Step::Op(SubOp::Dispatch),
        Step::Op(SubOp::ReadReg),
        Step::DirRead,
        Step::Op(SubOp::Condition),
    ];

    #[test]
    fn reused_spec_resets_between_fills() {
        let mut spec = HandlerSpec::build(HandlerKind::HomeReadExclShared, Fanout::remote(4));
        let long = spec.steps.len();
        // Refilling with a shorter handler must not leave stale steps from
        // the longer expansion visible.
        spec.fill(HandlerKind::ReqInvDone, Fanout::NONE);
        assert_eq!(spec.kind, HandlerKind::ReqInvDone);
        assert!(spec.steps.len() < long);
        assert_eq!(
            spec,
            HandlerSpec::build(HandlerKind::ReqInvDone, Fanout::NONE)
        );
    }

    #[test]
    fn probe_after_a_wide_expansion_holds_only_the_probe() {
        // A probe keeps no step of the expansion before it, however wide.
        let mut spec = HandlerSpec::build(HandlerKind::HomeReadExclShared, Fanout::remote(200));
        assert_eq!(spec.steps.len(), 11 + 2 * 200);
        spec.fill_probe(HandlerKind::HomeReadDirtyRemote);
        assert_eq!(spec.kind, HandlerKind::HomeReadDirtyRemote);
        assert_eq!(spec.steps, PROBE);
    }

    #[test]
    fn reused_spec_matches_a_fresh_build_for_every_handler() {
        let wide = Fanout {
            remote_invs: 200,
            local_inv: true,
        };
        let mut spec = HandlerSpec::build(HandlerKind::ReqInvDone, Fanout::NONE);
        for &kind in HandlerKind::all() {
            for fanout in [Fanout::NONE, Fanout::remote(3), wide] {
                spec.fill(kind, fanout);
                assert_eq!(
                    spec,
                    HandlerSpec::build(kind, fanout),
                    "{kind:?} at {fanout:?}: a refilled spec diverged from a fresh one"
                );
                spec.fill_probe(kind);
                assert_eq!((spec.kind, &spec.steps[..]), (kind, &PROBE[..]));
            }
        }
    }

    #[test]
    fn widest_64_node_expansion_has_two_steps_per_invalidation() {
        // 64 nodes -> at most 63 remote invalidations, plus the local one.
        let spec = HandlerSpec::build(
            HandlerKind::HomeReadExclShared,
            Fanout {
                remote_invs: 63,
                local_inv: true,
            },
        );
        assert_eq!(spec.steps.len(), 12 + 2 * 63);
    }

    #[test]
    fn kilonode_fanouts_expand_fully_and_refill_short() {
        let mut spec = HandlerSpec::build(HandlerKind::HomeReadExclShared, Fanout::remote(1023));
        assert_eq!(spec.steps.len(), 11 + 2 * 1023);
        assert!(matches!(spec.steps[0], Step::Op(SubOp::Dispatch)));
        spec.fill(HandlerKind::HomeReadExclShared, Fanout::remote(3));
        assert_eq!(spec.steps.len(), 11 + 2 * 3);
    }

    #[test]
    fn aggregate_occupancy_ratio_near_two_and_a_half() {
        // Section 3.3: "the ratio between the occupancy of PPC and the
        // occupancy of HWC is more or less constant ... approximately 2.5".
        // The *workload-weighted* ratio (checked by integration tests)
        // lands near 2.5 because data-carrying handlers dominate; the
        // unweighted mean here is higher since the light ack handlers have
        // extreme ratios (tiny FSM cost, full PP dispatch cost).
        let costs = StaticStepCosts::default();
        let (mut hwc_sum, mut ppc_sum) = (0u64, 0u64);
        for &kind in HandlerKind::all() {
            let spec = HandlerSpec::build(kind, Fanout::remote(1));
            hwc_sum += spec.occupancy(EngineKind::Hwc, &costs);
            ppc_sum += spec.occupancy(EngineKind::Ppc, &costs);
        }
        let ratio = ppc_sum as f64 / hwc_sum as f64;
        assert!(
            (2.2..3.8).contains(&ratio),
            "aggregate PPC/HWC occupancy ratio {ratio:.2} out of range"
        );
    }
}
