//! The cache-coherence protocol of the ISCA '97 study.
//!
//! Both coherence-controller designs in the paper run *the same* protocol:
//! a full-map, invalidation-based, write-back directory protocol with
//! sequentially consistent memory. Remote owners respond directly to remote
//! requesters with data; invalidation acknowledgements are collected only at
//! the home node; directory updates that are not needed for a response are
//! postponed until after the response is issued.
//!
//! This crate defines the protocol in an architecture-neutral way:
//!
//! * [`msg`] — the network message vocabulary and their queue classes
//!   (the controller's three input queues).
//! * [`sharers`] — pluggable directory sharer representations (full-map,
//!   coarse vector, limited pointers, sparse) and the [`DirFormat`]
//!   registry selecting one per run.
//! * [`directory`] — the home-node directory state machine, including the
//!   transient (busy) states and per-line pending-request buffering.
//! * [`subop`] — protocol-engine *sub-operations* and their occupancies for
//!   the custom-hardware (HWC) and protocol-processor (PPC) engines —
//!   the reproduction of the paper's Table 2.
//! * [`handlers`] — every protocol handler as a static sequence of
//!   sub-operations, which the machine's step executor times (Table 4 is
//!   that executor on an idle node).
//! * [`exec`] — what every handler decides and does, written once over a
//!   [`exec::Host`] trait that both the timed machine and the model
//!   checker implement.
//!
//! *When* handlers run (who wins bus arbitration, when messages arrive,
//! what each step costs) belongs to the machine model in the `ccnuma`
//! crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod directory;
pub mod exec;
pub mod handlers;
pub mod msg;
pub mod sharers;
pub mod subop;

pub use directory::{
    DirAction, DirOutcome, DirRequest, DirRequestKind, DirState, Directory, Recall, SharerBitmap,
};
pub use handlers::{HandlerKind, Step, TxnPhase};
pub use msg::{Msg, MsgClass, MsgKind};
pub use sharers::{DirFormat, SharerSet, DIR_FORMATS, MAX_NODES};
pub use subop::{EngineKind, OccupancyTable, SubOp};
