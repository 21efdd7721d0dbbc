//! Protocol handlers as sub-operation sequences (paper Table 4).
//!
//! Each handler is a static list of [`Step`]s ([`HandlerKind::steps`]).
//! The machine's step executor (`ccnuma`'s `steps::run_steps`) is the one
//! place that prices a step: fixed steps by the engine's
//! [`OccupancyTable`](crate::subop::OccupancyTable), *dynamic* steps (bus,
//! memory, directory accesses) under contention — the engine remains
//! occupied throughout, exactly matching the paper's definition of
//! handler occupancy ("handler dispatch time, directory reference time,
//! access time to special registers, SMP bus and local memory access times,
//! and bit field manipulation"). Table 4 is the same executor run on an
//! idle node.
//!
//! A handler whose work depends on the sharing set carries fan-out
//! markers ([`Step::RemoteInvalidations`], [`Step::LocalInvalidation`])
//! that the executor expands for the [`Fanout`] at hand.
//!
//! The paper's protocol postpones directory updates that are not needed for
//! a response until after the response is issued; the step sequences below
//! therefore place `DirUpdate` *after* the `SendMsg`/`StartDataTransfer`
//! steps of the response.

use ccn_sim::Cycle;

use crate::subop::SubOp;

/// One step of a protocol handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A fixed-cost sub-operation (Table 2).
    Op(SubOp),
    /// Protocol-processor compute the FSM folds into its other actions
    /// (address arithmetic, sharing-vector scans): free on HWC.
    Extra {
        /// Cycles on a protocol processor.
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
    /// read (dynamic).
    BusIntervention,
    /// Deliver data to the waiting local requester over the bus (dynamic).
    BusDeliver,
    /// Compose and send one network-message header (fixed).
    SendMsg,
    /// Start a direct bus-interface ↔ network-interface data transfer
    /// (fixed: a single special-register write).
    SendData,
    /// Fan-out marker: one `SendMsg` and one `Op(BitFieldUpdate)` per
    /// remote sharer to invalidate ([`Fanout::remote_invs`]).
    RemoteInvalidations,
    /// Fan-out marker: a `BusInv` when local copies must be invalidated
    /// ([`Fanout::local_inv`]), nothing otherwise.
    LocalInvalidation,
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

/// The steps of a request that only inspects the directory because the
/// line is busy or awaits a write-back: dispatch, request read, directory
/// read, condition.
pub const PROBE_STEPS: &[Step] = &[
    Step::Op(SubOp::Dispatch),
    Step::Op(SubOp::ReadReg),
    Step::DirRead,
    Step::Op(SubOp::Condition),
];

impl HandlerKind {
    /// The handler's steps, in execution order, with fan-out markers
    /// where its work depends on the sharing set.
    pub fn steps(self) -> &'static [Step] {
        use HandlerKind::*;
        use Step::*;
        use SubOp::*;
        match self {
            BusReadRemote | BusUpgradeRemote => &[
                Op(Dispatch),
                Op(ReadReg),
                Op(Condition),
                SendMsg,
                Op(WriteReg),
                Extra { ppc: 12 },
            ],
            BusReadExclRemote => &[
                Op(Dispatch),
                Op(ReadReg),
                Op(Condition),
                SendMsg,
                Op(WriteReg),
                Op(BitFieldUpdate),
                Extra { ppc: 12 },
            ],
            BusReadLocalDirtyRemote
            | BusReadExclLocalDirtyRemote
            | HomeReadDirtyRemote
            | HomeReadExclDirtyRemote => &[
                Op(Dispatch),
                Op(ReadReg),
                DirRead,
                Op(Condition),
                Op(BitFieldExtract),
                SendMsg,
                Op(WriteReg),
                Extra { ppc: 12 },
            ],
            BusReadExclLocalShared => &[
                Op(Dispatch),
                Op(ReadReg),
                DirRead,
                Op(Condition),
                Op(BitFieldExtract),
                RemoteInvalidations,
                Op(WriteReg),
                DirUpdate,
                Extra { ppc: 36 },
            ],
            HomeReadClean | HomeReadExclUncached => &[
                Op(Dispatch),
                Op(ReadReg),
                DirRead,
                Op(Condition),
                MemRead,
                SendMsg,
                SendData,
                DirUpdate,
                Extra { ppc: 32 },
            ],
            HomeReadExclShared => &[
                Op(Dispatch),
                Op(ReadReg),
                DirRead,
                Op(Condition),
                Op(BitFieldExtract),
                RemoteInvalidations,
                LocalInvalidation,
                MemRead,
                SendMsg,
                SendData,
                Op(WriteReg),
                DirUpdate,
                Extra { ppc: 36 },
            ],
            HomeUpgradeShared => &[
                Op(Dispatch),
                Op(ReadReg),
                DirRead,
                Op(Condition),
                Op(BitFieldExtract),
                RemoteInvalidations,
                LocalInvalidation,
                SendMsg,
                Op(WriteReg),
                DirUpdate,
                Extra { ppc: 12 },
            ],
            HomeWritebackEviction => &[
                Op(Dispatch),
                Op(ReadReg),
                Op(Condition),
                MemWrite,
                DirUpdate,
                Extra { ppc: 12 },
            ],
            BusWritebackRemote => &[
                Op(Dispatch),
                Op(ReadReg),
                Op(Condition),
                SendMsg,
                SendData,
                Op(WriteReg),
                Extra { ppc: 12 },
            ],
            HomeReplacementHint => &[
                Op(Dispatch),
                Op(ReadReg),
                DirRead,
                Op(Condition),
                Op(BitFieldUpdate),
                DirUpdate,
                Extra { ppc: 6 },
            ],
            OwnerReadFwdHomeRequester => &[
                Op(Dispatch),
                Op(ReadReg),
                Op(Condition),
                BusIntervention,
                SendMsg,
                SendData,
                Op(WriteReg),
                Extra { ppc: 24 },
            ],
            OwnerReadFwdRemoteRequester => &[
                Op(Dispatch),
                Op(ReadReg),
                Op(Condition),
                BusIntervention,
                SendMsg,
                SendData,
                SendMsg,
                SendData,
                Op(WriteReg),
                Extra { ppc: 24 },
            ],
            OwnerReadExclFwdHomeRequester => &[
                Op(Dispatch),
                Op(ReadReg),
                Op(Condition),
                BusIntervention,
                SendMsg,
                SendData,
                Op(WriteReg),
                Extra { ppc: 24 },
            ],
            OwnerReadExclFwdRemoteRequester => &[
                Op(Dispatch),
                Op(ReadReg),
                Op(Condition),
                BusIntervention,
                SendMsg,
                SendData,
                SendMsg,
                Op(WriteReg),
                Extra { ppc: 24 },
            ],
            OwnerFwdMissReply => &[
                Op(Dispatch),
                Op(ReadReg),
                Op(Condition),
                SendMsg,
                Extra { ppc: 8 },
            ],
            InvReqAtSharer => &[
                Op(Dispatch),
                Op(ReadReg),
                Op(Condition),
                BusInv,
                SendMsg,
                Op(WriteReg),
                Extra { ppc: 8 },
            ],
            HomeDataRespOwnerRead => &[
                Op(Dispatch),
                Op(ReadRegAssoc),
                Op(Condition),
                MemWrite,
                BusDeliver,
                DirUpdate,
                Op(WriteReg),
                Extra { ppc: 20 },
            ],
            HomeSharingWriteback => &[
                Op(Dispatch),
                Op(ReadRegAssoc),
                Op(Condition),
                MemWrite,
                DirUpdate,
                Extra { ppc: 12 },
            ],
            HomeDataRespOwnerReadExcl => &[
                Op(Dispatch),
                Op(ReadRegAssoc),
                Op(Condition),
                BusDeliver,
                DirUpdate,
                Op(WriteReg),
                Extra { ppc: 12 },
            ],
            HomeOwnershipAck => &[
                Op(Dispatch),
                Op(ReadRegAssoc),
                Op(Condition),
                DirUpdate,
                Extra { ppc: 8 },
            ],
            HomeInvAckMore => &[
                Op(Dispatch),
                Op(ReadRegAssoc),
                Op(BitFieldUpdate),
                Op(WriteReg),
                Extra { ppc: 2 },
            ],
            HomeInvAckLastLocal => &[
                Op(Dispatch),
                Op(ReadRegAssoc),
                Op(BitFieldUpdate),
                Op(Condition),
                Op(WriteReg),
                DirUpdate,
                Extra { ppc: 4 },
            ],
            HomeInvAckLastRemote => &[
                Op(Dispatch),
                Op(ReadRegAssoc),
                Op(BitFieldUpdate),
                Op(Condition),
                SendMsg,
                DirUpdate,
                Extra { ppc: 4 },
            ],
            HomeFwdMiss => &[
                Op(Dispatch),
                Op(ReadRegAssoc),
                Op(Condition),
                MemRead,
                SendMsg,
                SendData,
                DirUpdate,
                Extra { ppc: 24 },
            ],
            ReqDataResp => &[
                Op(Dispatch),
                Op(ReadRegAssoc),
                Op(Condition),
                BusDeliver,
                Op(WriteReg),
                Extra { ppc: 8 },
            ],
            ReqDataExclResp => &[
                Op(Dispatch),
                Op(ReadRegAssoc),
                Op(Condition),
                LocalInvalidation,
                BusDeliver,
                Op(WriteReg),
                Op(BitFieldUpdate),
                Extra { ppc: 8 },
            ],
            ReqUpgradeAck => &[
                Op(Dispatch),
                Op(ReadRegAssoc),
                Op(Condition),
                LocalInvalidation,
                Op(WriteReg),
                Extra { ppc: 8 },
            ],
            ReqInvDone => &[
                Op(Dispatch),
                Op(ReadRegAssoc),
                Op(WriteReg),
                Extra { ppc: 2 },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn every_handler_starts_with_dispatch() {
        for &kind in HandlerKind::all() {
            assert_eq!(
                kind.steps().first(),
                Some(&Step::Op(SubOp::Dispatch)),
                "{kind:?} must begin with dispatch"
            );
        }
        assert_eq!(PROBE_STEPS.first(), Some(&Step::Op(SubOp::Dispatch)));
    }

    #[test]
    fn home_side_classification_matches_directory_access() {
        // Every handler with a DirRead or DirUpdate step must be home-side.
        for &kind in HandlerKind::all() {
            let touches_dir = kind
                .steps()
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
}
