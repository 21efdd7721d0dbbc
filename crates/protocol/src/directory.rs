//! Home-node directory state machine.
//!
//! Each node's coherence controller owns the directory for the lines whose
//! home is that node. The directory is write-back/invalidation-based; *how*
//! sharers are recorded per line is pluggable (full-map presence bits,
//! coarse bit vectors, limited pointers, or a sparse bounded-entry table —
//! see [`crate::sharers`]). Remote copies only are tracked here; copies in
//! the home node's *own* processor caches are visible to the home
//! controller through its bus-side snooping state and never need directory
//! bits.
//!
//! Conflicting requests to a line with an outstanding transaction are
//! buffered in a per-line pending queue and replayed when the transaction
//! completes (the paper's protocol serializes at the home; we buffer
//! instead of NACK-retrying — see DESIGN.md).

use ccn_mem::{LineAddr, LineTable, NodeId};
use ccn_sim::pool::{ListPool, ListRef};

pub use crate::sharers::{DirFormat, SharerBitmap, SharerIter, SharerSet};
use crate::sharers::{SharerSlab, SharerSlot};

/// Stable directory state of a line (remote copies only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// No remote copies.
    Uncached,
    /// Remote nodes hold read-only copies; memory is up to date. The
    /// record is format-dependent and may over-approximate the true
    /// sharers (see [`SharerSet`]).
    Shared(SharerSet),
    /// One remote node holds the only (possibly dirty) copy.
    Dirty(NodeId),
}

/// The kind of request presented to the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DirRequestKind {
    /// Read for a shared copy.
    #[default]
    Read,
    /// Read for an exclusive copy (data needed).
    ReadExcl,
    /// Exclusive permission only; requester claims to hold the line Shared.
    Upgrade,
}

/// A request presented to the directory on behalf of `requester` (which is
/// the home node itself for requests from the home's local bus).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirRequest {
    /// Read, read-exclusive or upgrade.
    pub kind: DirRequestKind,
    /// The node that wants the line.
    pub requester: NodeId,
}

/// What the home controller must do for a request the directory accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirAction {
    /// Supply the line from home memory. `invalidate`, when present,
    /// lists the *remote* nodes that must be invalidated first (acks
    /// collected at home); `exclusive` grants ownership. Under an inexact
    /// format the list may include nodes that hold no copy — they ack
    /// anyway (useless invalidations). `None` means no fan-out at all;
    /// the option keeps the common no-invalidation outcome a few bytes
    /// wide instead of a zero-filled presence bitmap on the hottest
    /// directory edge.
    Supply {
        /// Grant an exclusive (writable) copy.
        exclusive: bool,
        /// Remote nodes to invalidate, if any.
        invalidate: Option<SharerBitmap>,
    },
    /// Grant exclusive permission without data (requester provably holds
    /// the line Shared). `invalidate`, when present, lists the other
    /// remote sharers.
    GrantUpgrade {
        /// Remote sharers to invalidate, if any.
        invalidate: Option<SharerBitmap>,
    },
    /// Forward the request to the dirty remote owner.
    Forward {
        /// Current owner.
        owner: NodeId,
    },
    /// The requester *is* the recorded dirty owner: its write-back is in
    /// flight; hold the request until the write-back arrives.
    AwaitWriteback,
}

/// Result of presenting a request to the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirOutcome {
    /// The request was accepted; perform the action.
    Act(DirAction),
    /// The line has an outstanding transaction; the request was buffered
    /// and will be handed back by [`Directory::pop_pending_if_idle`].
    Busy,
}

/// Completion returned when the last invalidation ack arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvComplete {
    /// The requester waiting for the invalidations.
    pub requester: NodeId,
    /// The kind of the original request.
    pub kind: DirRequestKind,
}

/// Outcome of a write-back arriving at the home.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritebackOutcome {
    /// Normal eviction write-back: directory now Uncached. Also returned
    /// when a write-back crosses a sparse-directory recall's invalidation
    /// in flight — memory is updated and the recall's ack still settles
    /// the line.
    Applied,
    /// The write-back raced with a forward to the (gone) owner; memory is
    /// updated and the directory waits for the owner's `FwdMiss`.
    RacedWithForward,
    /// The write-back releases an [`DirAction::AwaitWriteback`] request:
    /// the directory is now Uncached and the caller must replay the
    /// returned request.
    ReleasesWaiter {
        /// The request that was waiting for this write-back.
        request: DirRequest,
    },
}

/// An invalidation fan-out the machine must send on the directory's
/// behalf: a sparse-directory *recall* driving `line` out of every cache
/// so its bounded entry slot can be reused (evict-invalidate). Acks
/// return to the home like ordinary invalidation acks; a recalled dirty
/// owner's ack carries the line's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recall {
    /// The line being recalled.
    pub line: LineAddr,
    /// The nodes whose copies must be invalidated.
    pub targets: SharerBitmap,
}

#[derive(Debug, Clone)]
enum Busy {
    /// Waiting for invalidation acks; state already updated for requester.
    AcksPending {
        remaining: u16,
        requester: NodeId,
        kind: DirRequestKind,
    },
    /// Forwarded to the dirty owner; waiting for its response to arrive at
    /// home (sharing write-back, ownership ack, or fwd-miss).
    OwnerTransfer {
        requester: NodeId,
        kind: DirRequestKind,
        owner: NodeId,
        writeback_seen: bool,
    },
    /// Requester is the old owner whose write-back is in flight.
    WritebackWait {
        requester: NodeId,
        kind: DirRequestKind,
    },
    /// A sparse-directory recall is invalidating every copy of the line;
    /// waiting for the acks. No requester is served on completion — the
    /// line simply becomes Uncached and buffered requests replay.
    Recall { remaining: u16 },
}

/// A line's stable state as its entry stores it: a [`DirState`] whose
/// sharer record stays in the directory's slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stable {
    Uncached,
    Shared(SharerSlot),
    Dirty(NodeId),
}

#[derive(Debug, Clone)]
struct Entry {
    state: Stable,
    busy: Option<Busy>,
    /// Buffered requests, as a handle into the directory's shared
    /// request pool: two u32 indices instead of a heap-owning queue, so
    /// the entry stays small and buffering recycles pool slots.
    pending: ListRef,
}

impl Entry {
    fn new() -> Self {
        Entry {
            state: Stable::Uncached,
            busy: None,
            pending: ListRef::default(),
        }
    }
}

/// The directory of one home node.
///
/// The directory is a pure state machine: it decides *what* must happen and
/// tracks transaction state; the machine model performs the timed actions
/// (memory reads, network sends) it prescribes. The sharer representation
/// is selected by a [`DirFormat`] at construction; the default is the
/// paper's full-map bit vector.
///
/// # Example
///
/// ```
/// use ccn_mem::{LineAddr, NodeId};
/// use ccn_protocol::directory::*;
///
/// let mut dir = Directory::new(NodeId(0));
/// let line = LineAddr(42);
/// // A remote node reads: supplied from memory, becomes a sharer.
/// let outcome = dir.request(line, DirRequest { kind: DirRequestKind::Read, requester: NodeId(1) });
/// assert!(matches!(outcome, DirOutcome::Act(DirAction::Supply { exclusive: false, .. })));
/// assert_eq!(
///     dir.state_of(line),
///     DirState::Shared(DirFormat::FullMap.just(NodeId(1), 2, NodeId(0)))
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Directory {
    home: NodeId,
    /// How sharers are recorded and invalidation targets derived.
    format: DirFormat,
    /// Machine size, bounding coarse regions and broadcast fan-outs.
    nodes: u16,
    /// Per-line entries in a flat open-addressed table: directory lookup
    /// is the hot edge of every remote miss, so it must not hash-and-chase
    /// through a general-purpose map.
    entries: LineTable<Entry>,
    /// The Shared entries' sharer records, at the machine's width.
    sharers: SharerSlab,
    /// Slab backing every entry's `pending` list.
    pending_pool: ListPool<DirRequest>,
    /// Requests buffered because the line was busy (for statistics).
    buffered: u64,
    /// Sparse format only: which line owns each bounded stable-entry slot.
    /// Empty for the dense formats, which track every line.
    slots: Vec<Option<LineAddr>>,
    /// Recall fan-outs queued for the machine to send (sparse only).
    recalls: Vec<Recall>,
    /// Lines recalled under sparse slot pressure (for statistics).
    recalled: u64,
}

impl Directory {
    /// Creates a full-map directory for home node `home`.
    pub fn new(home: NodeId) -> Self {
        Self::with_format(home, 0, DirFormat::FullMap, SharerBitmap::CAPACITY)
    }

    /// Creates a directory with an explicit sharer-representation format
    /// on a `nodes`-node machine, pre-sized for about `lines` tracked
    /// lines so the steady-state working set never pays a rehash. Each
    /// Shared line's record is ⌈nodes / 64⌉ presence words.
    pub fn with_format(home: NodeId, lines: usize, format: DirFormat, nodes: u16) -> Self {
        let slots = match format {
            DirFormat::Sparse { slots } => vec![None; slots as usize],
            _ => Vec::new(),
        };
        Directory {
            home,
            format,
            nodes,
            entries: LineTable::with_capacity(lines),
            sharers: SharerSlab::new(nodes, lines),
            pending_pool: ListPool::default(),
            buffered: 0,
            slots,
            recalls: Vec::new(),
            recalled: 0,
        }
    }

    /// Pre-sizes the buffered-request slab for `requests` simultaneously
    /// buffered requests (one per outstanding miss in the system is a
    /// safe bound), so steady-state buffering never allocates.
    pub fn reserve_pending(&mut self, requests: usize) {
        self.pending_pool.reserve(requests);
    }

    /// The home node this directory belongs to.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// The sharer-representation format this directory runs.
    pub fn format(&self) -> DirFormat {
        self.format
    }

    /// Stable state of `line` (`Uncached` if never touched).
    pub fn state_of(&self, line: LineAddr) -> DirState {
        self.entries
            .get(line)
            .map_or(DirState::Uncached, |e| self.hand_out(e.state))
    }

    /// A stored state as the value the directory hands out.
    #[inline]
    fn hand_out(&self, state: Stable) -> DirState {
        match state {
            Stable::Uncached => DirState::Uncached,
            Stable::Shared(rec) => DirState::Shared(self.sharers.get(rec)),
            Stable::Dirty(owner) => DirState::Dirty(owner),
        }
    }

    /// Whether `line` has an outstanding transaction.
    pub fn is_busy(&self, line: LineAddr) -> bool {
        self.entries.get(line).is_some_and(|e| e.busy.is_some())
    }

    /// Number of requests that were buffered behind busy lines.
    pub fn buffered_requests(&self) -> u64 {
        self.buffered
    }

    /// Number of lines recalled because of sparse slot pressure.
    pub fn recalled_lines(&self) -> u64 {
        self.recalled
    }

    fn entry(&mut self, line: LineAddr) -> &mut Entry {
        self.entries.get_or_insert_with(line, Entry::new)
    }

    /// Presents a request. See [`DirOutcome`].
    pub fn request(&mut self, line: LineAddr, req: DirRequest) -> DirOutcome {
        let home = self.home;
        let format = self.format;
        let nodes = self.nodes;
        let entry = self.entries.get_or_insert_with(line, Entry::new);
        if entry.busy.is_some() {
            self.pending_pool.push_back(&mut entry.pending, req);
            self.buffered += 1;
            return DirOutcome::Busy;
        }
        let requester_is_home = req.requester == home;
        let outcome = match (req.kind, entry.state) {
            (DirRequestKind::Read, Stable::Uncached) => {
                if !requester_is_home {
                    let rec = self.sharers.just(format, req.requester, nodes, home);
                    entry.state = Stable::Shared(rec);
                }
                DirOutcome::Act(DirAction::Supply {
                    exclusive: false,
                    invalidate: None,
                })
            }
            (DirRequestKind::Read, Stable::Shared(mut rec)) => {
                if !requester_is_home {
                    // The handle carries the broadcast bit the note may raise.
                    self.sharers
                        .note_sharer(format, &mut rec, req.requester, nodes, home);
                    entry.state = Stable::Shared(rec);
                }
                DirOutcome::Act(DirAction::Supply {
                    exclusive: false,
                    invalidate: None,
                })
            }
            (DirRequestKind::Read, Stable::Dirty(owner)) => {
                if owner == req.requester {
                    entry.busy = Some(Busy::WritebackWait {
                        requester: req.requester,
                        kind: req.kind,
                    });
                    DirOutcome::Act(DirAction::AwaitWriteback)
                } else {
                    entry.busy = Some(Busy::OwnerTransfer {
                        requester: req.requester,
                        kind: req.kind,
                        owner,
                        writeback_seen: false,
                    });
                    DirOutcome::Act(DirAction::Forward { owner })
                }
            }
            (DirRequestKind::ReadExcl | DirRequestKind::Upgrade, Stable::Uncached) => {
                if !requester_is_home {
                    entry.state = Stable::Dirty(req.requester);
                }
                DirOutcome::Act(DirAction::Supply {
                    exclusive: true,
                    invalidate: None,
                })
            }
            (kind @ (DirRequestKind::ReadExcl | DirRequestKind::Upgrade), Stable::Shared(rec)) => {
                let set = self.sharers.take(rec);
                // The record may over-approximate (coarse regions,
                // pointer-overflow broadcast): expansion yields every node
                // that *might* hold a copy, and each one is invalidated.
                let invalidate = set.expand(nodes, home).without(req.requester);
                let proves = format.proves_sharer(&set, req.requester);
                let acks = invalidate.count() as u16;
                entry.state = if requester_is_home {
                    Stable::Uncached
                } else {
                    Stable::Dirty(req.requester)
                };
                if acks > 0 {
                    entry.busy = Some(Busy::AcksPending {
                        remaining: acks,
                        requester: req.requester,
                        kind,
                    });
                }
                let invalidate = (acks > 0).then_some(invalidate);
                if kind == DirRequestKind::Upgrade && proves {
                    DirOutcome::Act(DirAction::GrantUpgrade { invalidate })
                } else {
                    // An upgrade whose copy was since invalidated — or
                    // whose membership the format cannot prove still
                    // exists — needs data with it.
                    DirOutcome::Act(DirAction::Supply {
                        exclusive: true,
                        invalidate,
                    })
                }
            }
            (kind @ (DirRequestKind::ReadExcl | DirRequestKind::Upgrade), Stable::Dirty(owner)) => {
                if owner == req.requester {
                    entry.busy = Some(Busy::WritebackWait {
                        requester: req.requester,
                        kind,
                    });
                    DirOutcome::Act(DirAction::AwaitWriteback)
                } else {
                    entry.busy = Some(Busy::OwnerTransfer {
                        requester: req.requester,
                        kind,
                        owner,
                        writeback_seen: false,
                    });
                    DirOutcome::Act(DirAction::Forward { owner })
                }
            }
        };
        // A sparse directory bounds its *stable* entries: the moment a
        // line becomes tracked it claims its slot, recalling (or queuing
        // the recall of) the previous owner. The request itself always
        // proceeds — slot pressure costs recalls, never correctness.
        if !self.slots.is_empty() {
            let tracked = self
                .entries
                .get(line)
                .is_some_and(|e| e.state != Stable::Uncached || e.busy.is_some());
            if tracked {
                self.claim_slot(line);
            }
        }
        outcome
    }

    /// A dirty-eviction write-back from `from` arrived at home.
    ///
    /// # Panics
    ///
    /// Panics if the write-back is inconsistent with the directory state
    /// (the protocol would have lost track of the owner).
    pub fn writeback(&mut self, line: LineAddr, from: NodeId) -> WritebackOutcome {
        let entry = self.entry(line);
        match &mut entry.busy {
            None => {
                assert_eq!(
                    entry.state,
                    Stable::Dirty(from),
                    "write-back from non-owner {from} for {line}"
                );
                entry.state = Stable::Uncached;
                WritebackOutcome::Applied
            }
            Some(Busy::OwnerTransfer {
                owner,
                writeback_seen,
                ..
            }) => {
                assert_eq!(*owner, from, "write-back raced from an unexpected node");
                assert!(!*writeback_seen, "duplicate write-back");
                *writeback_seen = true;
                WritebackOutcome::RacedWithForward
            }
            Some(Busy::WritebackWait { requester, kind }) => {
                let request = DirRequest {
                    kind: *kind,
                    requester: *requester,
                };
                entry.state = Stable::Uncached;
                entry.busy = None;
                WritebackOutcome::ReleasesWaiter { request }
            }
            Some(Busy::Recall { .. }) => {
                // The owner's eviction write-back crossed the recall's
                // invalidation in flight: memory is updated by the caller;
                // the owner's (now data-less) ack still completes the
                // recall. The state is already Uncached.
                WritebackOutcome::Applied
            }
            Some(Busy::AcksPending { .. }) => {
                panic!("write-back for {line} while collecting invalidation acks")
            }
        }
    }

    /// A sharing write-back from the forwarded owner arrived: the owner
    /// kept a Shared copy and the requester received a Shared copy.
    ///
    /// # Panics
    ///
    /// Panics if no matching forward is outstanding.
    pub fn sharing_writeback(&mut self, line: LineAddr, from: NodeId) {
        let home = self.home;
        let format = self.format;
        let nodes = self.nodes;
        let entry = self.entries.get_or_insert_with(line, Entry::new);
        match entry.busy.take() {
            Some(Busy::OwnerTransfer {
                requester,
                kind: DirRequestKind::Read,
                owner,
                ..
            }) => {
                assert_eq!(owner, from, "sharing write-back from unexpected node");
                // The line leaves Dirty(owner), which holds no record.
                let mut rec = self.sharers.just(format, owner, nodes, home);
                if requester != home {
                    self.sharers
                        .note_sharer(format, &mut rec, requester, nodes, home);
                }
                entry.state = Stable::Shared(rec);
            }
            other => panic!("unexpected sharing write-back for {line}: busy={other:?}"),
        }
    }

    /// The forwarded owner acknowledged transferring ownership to the
    /// requester of a read-exclusive.
    ///
    /// # Panics
    ///
    /// Panics if no matching forward is outstanding.
    pub fn ownership_ack(&mut self, line: LineAddr, from: NodeId) {
        let home = self.home;
        let entry = self.entry(line);
        match entry.busy.take() {
            Some(Busy::OwnerTransfer {
                requester,
                kind: DirRequestKind::ReadExcl | DirRequestKind::Upgrade,
                owner,
                ..
            }) => {
                assert_eq!(owner, from, "ownership ack from unexpected node");
                entry.state = if requester == home {
                    Stable::Uncached
                } else {
                    Stable::Dirty(requester)
                };
            }
            other => panic!("unexpected ownership ack for {line}: busy={other:?}"),
        }
    }

    /// The forwarded owner no longer held the line (its write-back raced).
    /// Returns the original request, which the home must now satisfy from
    /// memory (the racing write-back has already been applied).
    ///
    /// # Panics
    ///
    /// Panics if the racing write-back has not arrived — the network must
    /// deliver same-source messages in order — or no forward is
    /// outstanding.
    pub fn fwd_miss(&mut self, line: LineAddr, from: NodeId) -> DirRequest {
        let home = self.home;
        let format = self.format;
        let nodes = self.nodes;
        let entry = self.entries.get_or_insert_with(line, Entry::new);
        match entry.busy.take() {
            Some(Busy::OwnerTransfer {
                requester,
                kind,
                owner,
                writeback_seen,
            }) => {
                assert_eq!(owner, from, "fwd-miss from unexpected node");
                assert!(
                    writeback_seen,
                    "fwd-miss for {line} arrived before the owner's write-back"
                );
                // The line leaves Dirty(owner), which holds no record.
                entry.state = match kind {
                    DirRequestKind::Read if requester != home => {
                        Stable::Shared(self.sharers.just(format, requester, nodes, home))
                    }
                    DirRequestKind::Read => Stable::Uncached,
                    _ if requester != home => Stable::Dirty(requester),
                    _ => Stable::Uncached,
                };
                DirRequest { kind, requester }
            }
            other => panic!("unexpected fwd-miss for {line}: busy={other:?}"),
        }
    }

    /// An invalidation ack arrived. Returns the completion when it was the
    /// last ack of a request's invalidation fan-out; recall acks complete
    /// silently (no requester is waiting — the line just settles and the
    /// caller's pending drain replays anything buffered).
    ///
    /// # Panics
    ///
    /// Panics if no invalidation acks are expected for the line.
    pub fn inv_ack(&mut self, line: LineAddr) -> Option<InvComplete> {
        let entry = self.entry(line);
        match &mut entry.busy {
            Some(Busy::AcksPending {
                remaining,
                requester,
                kind,
            }) => {
                assert!(*remaining > 0);
                *remaining -= 1;
                if *remaining == 0 {
                    let done = InvComplete {
                        requester: *requester,
                        kind: *kind,
                    };
                    entry.busy = None;
                    Some(done)
                } else {
                    None
                }
            }
            Some(Busy::Recall { remaining }) => {
                assert!(*remaining > 0);
                *remaining -= 1;
                if *remaining == 0 {
                    entry.state = Stable::Uncached;
                    entry.busy = None;
                }
                None
            }
            other => panic!("unexpected invalidation ack for {line}: busy={other:?}"),
        }
    }

    /// Whether invalidation acks remain outstanding for `line`.
    pub fn acks_outstanding(&self, line: LineAddr) -> u16 {
        match self.entries.get(line).and_then(|e| e.busy.as_ref()) {
            Some(Busy::AcksPending { remaining, .. }) => *remaining,
            Some(Busy::Recall { remaining }) => *remaining,
            _ => 0,
        }
    }

    /// Advisory removal of a sharer (replacement hint). Ignored unless the
    /// line is idle and `node` really is a sharer — hints can race with
    /// anything and must never affect correctness. The coarse format
    /// ignores hints entirely: clearing a region bit could drop a
    /// *different* node's copy from the record, which would be unsound.
    pub fn remove_sharer_hint(&mut self, line: LineAddr, node: NodeId) {
        if matches!(self.format, DirFormat::Coarse { .. }) {
            return;
        }
        let Some(entry) = self.entries.get_mut(line) else {
            return;
        };
        if entry.busy.is_some() {
            return;
        }
        if let Stable::Shared(rec) = entry.state {
            if self.sharers.contains(rec, node) {
                // For an overflowed pointer set this removal is a no-op by
                // design: the record stays a superset of the true sharers.
                self.sharers.remove(rec, node);
                if self.sharers.is_empty(rec) {
                    self.sharers.release(rec);
                    entry.state = Stable::Uncached;
                }
            }
        }
    }

    /// If `line` is idle and has buffered requests, removes and returns the
    /// oldest one so the machine can replay it.
    ///
    /// For a sparse directory this is also the settle hook: a line that
    /// went idle without owning its slot (it was overcommitted while a
    /// transaction was in flight) starts its recall here, *before* any
    /// buffered request replays.
    pub fn pop_pending_if_idle(&mut self, line: LineAddr) -> Option<DirRequest> {
        if !self.slots.is_empty() {
            self.note_settled(line);
        }
        let entry = self.entries.get_mut(line)?;
        if entry.busy.is_none() {
            self.pending_pool.pop_front(&mut entry.pending)
        } else {
            None
        }
    }

    /// Removes and returns one queued recall fan-out, oldest first. The
    /// machine must drain this after [`request`](Self::request) and after
    /// every pending-replay drain, sending an invalidation to each target;
    /// the acks complete the recall through [`inv_ack`](Self::inv_ack).
    pub fn take_recall(&mut self) -> Option<Recall> {
        if self.recalls.is_empty() {
            None
        } else {
            Some(self.recalls.remove(0))
        }
    }

    /// Claims `line`'s sparse slot, displacing (and recalling) the
    /// previous owner.
    fn claim_slot(&mut self, line: LineAddr) {
        let idx = (line.0 as usize) % self.slots.len();
        match self.slots[idx] {
            Some(l) if l == line => {}
            None => self.slots[idx] = Some(line),
            Some(victim) => {
                self.slots[idx] = Some(line);
                // An idle victim is recalled immediately; a busy one is
                // overcommitted and recalled when it settles (the
                // `note_settled` hook in `pop_pending_if_idle`).
                self.recall_if_idle(victim);
            }
        }
    }

    /// Whether `line` owns its sparse slot.
    fn owns_slot(&self, line: LineAddr) -> bool {
        self.slots[(line.0 as usize) % self.slots.len()] == Some(line)
    }

    /// Sparse settle hook: release the slot of a line that went Uncached,
    /// and recall a line that settled tracked without owning a slot.
    fn note_settled(&mut self, line: LineAddr) {
        let Some(entry) = self.entries.get(line) else {
            return;
        };
        if entry.busy.is_some() {
            return;
        }
        if entry.state == Stable::Uncached {
            let idx = (line.0 as usize) % self.slots.len();
            if self.slots[idx] == Some(line) {
                self.slots[idx] = None;
            }
        } else if !self.owns_slot(line) {
            self.recall_if_idle(line);
        }
    }

    /// Starts the recall of an idle tracked line: every recorded copy is
    /// invalidated and the entry stays busy until the acks return.
    fn recall_if_idle(&mut self, line: LineAddr) {
        let home = self.home;
        let nodes = self.nodes;
        let Some(entry) = self.entries.get_mut(line) else {
            return;
        };
        if entry.busy.is_some() {
            return;
        }
        let targets = match entry.state {
            Stable::Uncached => return,
            Stable::Shared(rec) => self.sharers.take(rec).expand(nodes, home),
            Stable::Dirty(owner) => SharerBitmap::just(owner),
        };
        let acks = targets.count() as u16;
        entry.state = Stable::Uncached;
        if acks == 0 {
            return;
        }
        entry.busy = Some(Busy::Recall { remaining: acks });
        self.recalls.push(Recall { line, targets });
        self.recalled += 1;
    }

    /// Iterates over all known lines and their stable states (for the
    /// quiescent-consistency checks in tests).
    pub fn iter_states(&self) -> impl Iterator<Item = (LineAddr, DirState, bool)> + '_ {
        self.entries
            .iter()
            .map(|(l, e)| (l, self.hand_out(e.state), e.busy.is_some()))
    }

    /// Appends a canonical byte encoding of the directory's *complete*
    /// state — stable states, transient transaction state, and buffered
    /// request queues — to `out`.
    ///
    /// Two directories produce the same encoding iff they are functionally
    /// identical, regardless of the order operations created their entries:
    /// lines are emitted in address order, and entries indistinguishable
    /// from an untouched line (Uncached, idle, nothing buffered) are
    /// elided. Statistics counters are excluded. This is the key the
    /// `ccn-verify` model checker deduplicates explored states by, so the
    /// encoding of a given state must never depend on insertion history.
    /// It lives in memory only and is never persisted.
    pub fn encode_canonical(&self, out: &mut Vec<u8>) {
        fn push_node(out: &mut Vec<u8>, n: NodeId) {
            out.extend_from_slice(&n.0.to_le_bytes());
        }
        /// A node set as its size, then its members in ascending order.
        fn push_members(out: &mut Vec<u8>, set: SharerBitmap) {
            out.extend_from_slice(&(set.count() as u16).to_le_bytes());
            for n in set.iter() {
                push_node(out, n);
            }
        }
        fn push_req(out: &mut Vec<u8>, r: &DirRequest) {
            out.push(match r.kind {
                DirRequestKind::Read => 0,
                DirRequestKind::ReadExcl => 1,
                DirRequestKind::Upgrade => 2,
            });
            push_node(out, r.requester);
        }

        // One exactly-sized allocation for the sort scratch; the encoding
        // itself is ~20 bytes per line, reserved up front so `out` does
        // not regrow while the lines are appended.
        let mut lines: Vec<LineAddr> = Vec::with_capacity(self.entries.len());
        lines.extend(self.entries.iter().filter_map(|(l, e)| {
            (e.state != Stable::Uncached || e.busy.is_some() || !e.pending.is_empty()).then_some(l)
        }));
        lines.sort_unstable_by_key(|l| l.0);
        push_node(out, self.home);
        out.reserve(4 + lines.len() * 20);
        out.extend_from_slice(&(lines.len() as u32).to_le_bytes());
        for line in lines {
            let e = self.entries.get(line).expect("line came from the table");
            out.extend_from_slice(&line.0.to_le_bytes());
            match self.hand_out(e.state) {
                DirState::Uncached => out.push(0),
                DirState::Shared(set) => {
                    out.push(1);
                    out.push(u8::from(set.overflowed()));
                    push_members(out, set.bits());
                }
                DirState::Dirty(owner) => {
                    out.push(2);
                    push_node(out, owner);
                }
            }
            match &e.busy {
                None => out.push(0),
                Some(Busy::AcksPending {
                    remaining,
                    requester,
                    kind,
                }) => {
                    out.push(1);
                    out.extend_from_slice(&remaining.to_le_bytes());
                    push_req(
                        out,
                        &DirRequest {
                            kind: *kind,
                            requester: *requester,
                        },
                    );
                }
                Some(Busy::OwnerTransfer {
                    requester,
                    kind,
                    owner,
                    writeback_seen,
                }) => {
                    out.push(2);
                    push_req(
                        out,
                        &DirRequest {
                            kind: *kind,
                            requester: *requester,
                        },
                    );
                    push_node(out, *owner);
                    out.push(*writeback_seen as u8);
                }
                Some(Busy::WritebackWait { requester, kind }) => {
                    out.push(3);
                    push_req(
                        out,
                        &DirRequest {
                            kind: *kind,
                            requester: *requester,
                        },
                    );
                }
                Some(Busy::Recall { remaining }) => {
                    out.push(4);
                    out.extend_from_slice(&remaining.to_le_bytes());
                }
            }
            out.extend_from_slice(&(e.pending.len() as u32).to_le_bytes());
            for req in self.pending_pool.iter(&e.pending) {
                push_req(out, req);
            }
        }
        // Sparse directories: slot occupancy and not-yet-dispatched recalls
        // decide future evict-invalidates, so they are behaviorally
        // significant and join the encoding. Dense formats have no slots.
        if !self.slots.is_empty() {
            out.extend_from_slice(&(self.slots.len() as u32).to_le_bytes());
            for slot in &self.slots {
                match slot {
                    None => out.push(0),
                    Some(l) => {
                        out.push(1);
                        out.extend_from_slice(&l.0.to_le_bytes());
                    }
                }
            }
            out.extend_from_slice(&(self.recalls.len() as u32).to_le_bytes());
            for rc in &self.recalls {
                out.extend_from_slice(&rc.line.0.to_le_bytes());
                push_members(out, rc.targets);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOME: NodeId = NodeId(0);
    const R1: NodeId = NodeId(1);
    const R2: NodeId = NodeId(2);
    const R3: NodeId = NodeId(3);
    const LINE: LineAddr = LineAddr(7);

    fn read(r: NodeId) -> DirRequest {
        DirRequest {
            kind: DirRequestKind::Read,
            requester: r,
        }
    }
    fn readx(r: NodeId) -> DirRequest {
        DirRequest {
            kind: DirRequestKind::ReadExcl,
            requester: r,
        }
    }
    fn upg(r: NodeId) -> DirRequest {
        DirRequest {
            kind: DirRequestKind::Upgrade,
            requester: r,
        }
    }

    /// A full-map Shared state over exactly `members`.
    fn shared(members: &[NodeId]) -> DirState {
        let mut set = SharerSet::default();
        for m in members {
            DirFormat::FullMap.note_sharer(&mut set, *m, SharerBitmap::CAPACITY, HOME);
        }
        DirState::Shared(set)
    }

    #[test]
    fn read_chain_builds_sharers() {
        let mut d = Directory::new(HOME);
        assert!(matches!(
            d.request(LINE, read(R1)),
            DirOutcome::Act(DirAction::Supply {
                exclusive: false,
                ..
            })
        ));
        d.request(LINE, read(R2));
        assert_eq!(d.state_of(LINE), shared(&[R1, R2]));
    }

    #[test]
    fn home_reads_do_not_set_bits() {
        let mut d = Directory::new(HOME);
        d.request(LINE, read(HOME));
        assert_eq!(d.state_of(LINE), DirState::Uncached);
    }

    #[test]
    fn read_excl_invalidates_sharers_and_waits_for_acks() {
        let mut d = Directory::new(HOME);
        d.request(LINE, read(R1));
        d.request(LINE, read(R2));
        let outcome = d.request(LINE, readx(R3));
        let DirOutcome::Act(DirAction::Supply {
            exclusive,
            invalidate,
        }) = outcome
        else {
            panic!("expected supply, got {outcome:?}");
        };
        assert!(exclusive);
        assert_eq!(invalidate.expect("two sharers to invalidate").count(), 2);
        assert!(d.is_busy(LINE));
        assert_eq!(d.state_of(LINE), DirState::Dirty(R3));
        assert_eq!(d.acks_outstanding(LINE), 2);
        assert!(d.inv_ack(LINE).is_none());
        let done = d.inv_ack(LINE).expect("last ack completes");
        assert_eq!(done.requester, R3);
        assert!(!d.is_busy(LINE));
    }

    #[test]
    fn upgrade_grants_permission_without_data() {
        let mut d = Directory::new(HOME);
        d.request(LINE, read(R1));
        d.request(LINE, read(R2));
        let outcome = d.request(LINE, upg(R1));
        assert!(matches!(
            outcome,
            DirOutcome::Act(DirAction::GrantUpgrade { invalidate }) if invalidate == Some(SharerBitmap::just(R2))
        ));
        assert_eq!(d.state_of(LINE), DirState::Dirty(R1));
    }

    #[test]
    fn stale_upgrade_becomes_read_excl() {
        let mut d = Directory::new(HOME);
        d.request(LINE, read(R2));
        // R1 thinks it is a sharer but is not (invalidated earlier).
        let outcome = d.request(LINE, upg(R1));
        assert!(matches!(
            outcome,
            DirOutcome::Act(DirAction::Supply {
                exclusive: true,
                ..
            })
        ));
    }

    #[test]
    fn dirty_line_forwards_to_owner_and_shares_on_writeback() {
        let mut d = Directory::new(HOME);
        d.request(LINE, readx(R1));
        assert_eq!(d.state_of(LINE), DirState::Dirty(R1));
        let outcome = d.request(LINE, read(R2));
        assert!(matches!(outcome, DirOutcome::Act(DirAction::Forward { owner }) if owner == R1));
        assert!(d.is_busy(LINE));
        d.sharing_writeback(LINE, R1);
        assert_eq!(d.state_of(LINE), shared(&[R1, R2]));
    }

    #[test]
    fn dirty_line_ownership_transfer() {
        let mut d = Directory::new(HOME);
        d.request(LINE, readx(R1));
        let outcome = d.request(LINE, readx(R2));
        assert!(matches!(outcome, DirOutcome::Act(DirAction::Forward { owner }) if owner == R1));
        d.ownership_ack(LINE, R1);
        assert_eq!(d.state_of(LINE), DirState::Dirty(R2));
        assert!(!d.is_busy(LINE));
    }

    #[test]
    fn home_read_of_dirty_line() {
        let mut d = Directory::new(HOME);
        d.request(LINE, readx(R1));
        let outcome = d.request(LINE, read(HOME));
        assert!(matches!(outcome, DirOutcome::Act(DirAction::Forward { owner }) if owner == R1));
        d.sharing_writeback(LINE, R1);
        // Home copies are not directory bits: only R1 remains.
        assert_eq!(d.state_of(LINE), shared(&[R1]));
    }

    #[test]
    fn plain_writeback_clears_owner() {
        let mut d = Directory::new(HOME);
        d.request(LINE, readx(R1));
        assert_eq!(d.writeback(LINE, R1), WritebackOutcome::Applied);
        assert_eq!(d.state_of(LINE), DirState::Uncached);
    }

    #[test]
    #[should_panic(expected = "non-owner")]
    fn writeback_from_non_owner_panics() {
        let mut d = Directory::new(HOME);
        d.request(LINE, readx(R1));
        d.writeback(LINE, R2);
    }

    #[test]
    fn writeback_racing_forward_then_fwd_miss() {
        let mut d = Directory::new(HOME);
        d.request(LINE, readx(R1));
        d.request(LINE, read(R2)); // forward to R1
        assert_eq!(d.writeback(LINE, R1), WritebackOutcome::RacedWithForward);
        let replay = d.fwd_miss(LINE, R1);
        assert_eq!(replay.requester, R2);
        assert_eq!(replay.kind, DirRequestKind::Read);
        assert_eq!(d.state_of(LINE), shared(&[R2]));
        assert!(!d.is_busy(LINE));
    }

    #[test]
    #[should_panic(expected = "before the owner's write-back")]
    fn fwd_miss_without_writeback_panics() {
        let mut d = Directory::new(HOME);
        d.request(LINE, readx(R1));
        d.request(LINE, read(R2));
        let _ = d.fwd_miss(LINE, R1);
    }

    #[test]
    fn owner_rerequest_waits_for_its_own_writeback() {
        let mut d = Directory::new(HOME);
        d.request(LINE, readx(R1));
        let outcome = d.request(LINE, read(R1));
        assert!(matches!(
            outcome,
            DirOutcome::Act(DirAction::AwaitWriteback)
        ));
        let wb = d.writeback(LINE, R1);
        assert_eq!(
            wb,
            WritebackOutcome::ReleasesWaiter {
                request: DirRequest {
                    kind: DirRequestKind::Read,
                    requester: R1
                }
            }
        );
        // The directory is Uncached until the replayed request runs.
        assert_eq!(d.state_of(LINE), DirState::Uncached);
    }

    #[test]
    fn busy_lines_buffer_and_replay() {
        let mut d = Directory::new(HOME);
        d.request(LINE, readx(R1));
        d.request(LINE, read(R2)); // busy: forward
        assert_eq!(d.request(LINE, read(R3)), DirOutcome::Busy);
        assert_eq!(d.buffered_requests(), 1);
        assert_eq!(d.pop_pending_if_idle(LINE), None); // still busy
        d.sharing_writeback(LINE, R1);
        let replay = d.pop_pending_if_idle(LINE).expect("pending replay");
        assert_eq!(replay.requester, R3);
        assert_eq!(d.pop_pending_if_idle(LINE), None);
    }

    #[test]
    fn read_excl_from_sole_sharer_needs_no_acks() {
        let mut d = Directory::new(HOME);
        d.request(LINE, read(R1));
        let outcome = d.request(LINE, readx(R1));
        assert!(matches!(
            outcome,
            DirOutcome::Act(DirAction::Supply { exclusive: true, invalidate }) if invalidate.is_none()
        ));
        assert!(!d.is_busy(LINE));
        assert_eq!(d.state_of(LINE), DirState::Dirty(R1));
    }

    #[test]
    fn replacement_hints_are_advisory_and_safe() {
        let mut d = Directory::new(HOME);
        d.request(LINE, read(R1));
        d.request(LINE, read(R2));
        d.remove_sharer_hint(LINE, R1);
        assert_eq!(d.state_of(LINE), shared(&[R2]));
        // Non-sharer, unknown line, busy line: all ignored.
        d.remove_sharer_hint(LINE, R3);
        d.remove_sharer_hint(LineAddr(999), R1);
        d.request(LINE, readx(R3)); // invalidating R2: line goes busy
        d.remove_sharer_hint(LINE, R2);
        assert!(d.is_busy(LINE));
        // Last sharer removal empties the entry.
        let mut d2 = Directory::new(HOME);
        d2.request(LINE, read(R1));
        d2.remove_sharer_hint(LINE, R1);
        assert_eq!(d2.state_of(LINE), DirState::Uncached);
    }

    #[test]
    fn home_write_leaves_uncached() {
        let mut d = Directory::new(HOME);
        d.request(LINE, read(R1));
        let outcome = d.request(LINE, readx(HOME));
        assert!(matches!(
            outcome,
            DirOutcome::Act(DirAction::Supply { exclusive: true, invalidate }) if invalidate == Some(SharerBitmap::just(R1))
        ));
        d.inv_ack(LINE);
        assert_eq!(d.state_of(LINE), DirState::Uncached);
    }

    // ---- format-specific behavior -------------------------------------

    #[test]
    fn coarse_writes_over_invalidate_the_region() {
        let mut d = Directory::with_format(HOME, 0, DirFormat::Coarse { region: 4 }, 8);
        d.request(LINE, read(R1)); // records region {1,2,3} (home excluded)
        d.request(LINE, read(NodeId(5))); // records region {4,5,6,7}
        let outcome = d.request(LINE, readx(NodeId(6)));
        let DirOutcome::Act(DirAction::Supply {
            exclusive: true,
            invalidate,
        }) = outcome
        else {
            panic!("expected exclusive supply, got {outcome:?}");
        };
        // Every node the record *might* cover is invalidated, minus the
        // requester: {1,2,3,4,5,7}.
        assert_eq!(
            invalidate
                .expect("region fan-out")
                .iter()
                .map(|n| n.0)
                .collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5, 7]
        );
        assert_eq!(d.acks_outstanding(LINE), 6);
        for _ in 0..5 {
            assert!(d.inv_ack(LINE).is_none());
        }
        let done = d.inv_ack(LINE).expect("last ack completes");
        assert_eq!(done.requester, NodeId(6));
        assert_eq!(d.state_of(LINE), DirState::Dirty(NodeId(6)));
    }

    #[test]
    fn coarse_never_grants_upgrades_and_ignores_hints() {
        let f = DirFormat::Coarse { region: 4 };
        let mut d = Directory::with_format(HOME, 0, f, 8);
        d.request(LINE, read(R1));
        // R1's membership cannot be proven from a region bit — the
        // upgrade is demoted to a full exclusive supply.
        let outcome = d.request(LINE, upg(R1));
        assert!(matches!(
            outcome,
            DirOutcome::Act(DirAction::Supply {
                exclusive: true,
                ..
            })
        ));
        while d.acks_outstanding(LINE) > 0 {
            d.inv_ack(LINE);
        }
        // Hint removal would under-approximate the region: ignored.
        let mut d2 = Directory::with_format(HOME, 0, f, 8);
        d2.request(LINE, read(R1));
        d2.remove_sharer_hint(LINE, R1);
        assert!(matches!(d2.state_of(LINE), DirState::Shared(_)));
    }

    #[test]
    fn limited_pointers_grant_upgrades_until_overflow() {
        let mut d = Directory::with_format(HOME, 0, DirFormat::Limited { ptrs: 2 }, 8);
        d.request(LINE, read(R1));
        d.request(LINE, read(R2));
        // Two pointers: exact membership, upgrade granted data-less.
        let outcome = d.request(LINE, upg(R1));
        assert!(matches!(
            outcome,
            DirOutcome::Act(DirAction::GrantUpgrade { invalidate }) if invalidate == Some(SharerBitmap::just(R2))
        ));
        d.inv_ack(LINE);
        assert_eq!(d.state_of(LINE), DirState::Dirty(R1));
    }

    #[test]
    fn limited_overflow_broadcasts_invalidations() {
        let mut d = Directory::with_format(HOME, 0, DirFormat::Limited { ptrs: 2 }, 6);
        d.request(LINE, read(R1));
        d.request(LINE, read(R2));
        d.request(LINE, read(R3)); // third sharer: pointer overflow
        assert!(matches!(
            d.state_of(LINE),
            DirState::Shared(set) if set.overflowed()
        ));
        // A write now invalidates every node except home and requester —
        // including nodes that never held the line (useless
        // invalidations, the cost of the format).
        let outcome = d.request(LINE, readx(R1));
        let DirOutcome::Act(DirAction::Supply {
            exclusive: true,
            invalidate,
        }) = outcome
        else {
            panic!("expected exclusive supply, got {outcome:?}");
        };
        assert_eq!(
            invalidate
                .expect("broadcast fan-out")
                .iter()
                .map(|n| n.0)
                .collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        // An overflowed record also demotes upgrades (handled above as
        // ReadExcl-with-data), and the transaction completes normally.
        for _ in 0..4 {
            d.inv_ack(LINE);
        }
        assert_eq!(d.state_of(LINE), DirState::Dirty(R1));
    }

    #[test]
    fn sparse_slot_claim_recalls_the_idle_victim() {
        let (a, b) = (LineAddr(8), LineAddr(16)); // collide in 1 slot
        let mut d = Directory::with_format(HOME, 0, DirFormat::Sparse { slots: 1 }, 4);
        d.request(a, read(R1));
        assert_eq!(d.state_of(a), shared(&[R1]));
        // B claims the only slot: A is recalled (invalidated at R1).
        d.request(b, read(R2));
        assert!(d.is_busy(a));
        assert_eq!(d.acks_outstanding(a), 1);
        let rc = d.take_recall().expect("recall queued");
        assert_eq!(rc.line, a);
        assert_eq!(rc.targets, SharerBitmap::just(R1));
        assert_eq!(d.take_recall(), None);
        // The ack settles A; no requester completion is produced.
        assert_eq!(d.inv_ack(a), None);
        assert!(!d.is_busy(a));
        assert_eq!(d.state_of(a), DirState::Uncached);
        assert_eq!(d.state_of(b), shared(&[R2]));
        assert_eq!(d.recalled_lines(), 1);
    }

    #[test]
    fn sparse_overcommits_busy_victims_and_recalls_on_settle() {
        let (a, b) = (LineAddr(8), LineAddr(16));
        let mut d = Directory::with_format(HOME, 0, DirFormat::Sparse { slots: 1 }, 4);
        d.request(a, readx(R1)); // A: Dirty(R1), owns the slot
        d.request(a, read(R2)); // A busy: OwnerTransfer to R1
        d.request(b, read(R3)); // B steals the slot; A is busy → overcommit
        assert_eq!(d.take_recall(), None, "busy victims are not recalled yet");
        // A settles (owner shares back); the settle hook starts its recall
        // before anything buffered replays.
        d.sharing_writeback(a, R1);
        assert_eq!(d.pop_pending_if_idle(a), None, "recall makes A busy");
        let rc = d.take_recall().expect("recall queued at settle");
        assert_eq!(rc.line, a);
        assert_eq!(
            rc.targets.iter().map(|n| n.0).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(d.inv_ack(a), None);
        assert_eq!(d.inv_ack(a), None);
        assert_eq!(d.state_of(a), DirState::Uncached);
        assert!(!d.is_busy(a));
    }

    #[test]
    fn sparse_recall_tolerates_a_racing_writeback() {
        let (a, b) = (LineAddr(8), LineAddr(16));
        let mut d = Directory::with_format(HOME, 0, DirFormat::Sparse { slots: 1 }, 4);
        d.request(a, readx(R1)); // A: Dirty(R1)
        d.request(b, read(R2)); // recall A (invalidation headed to R1)
        let rc = d.take_recall().expect("dirty line recalled");
        assert_eq!(rc.targets, SharerBitmap::just(R1));
        // R1's eviction write-back crosses the recall invalidation.
        assert_eq!(d.writeback(a, R1), WritebackOutcome::Applied);
        assert!(d.is_busy(a), "recall still waiting for the ack");
        assert_eq!(d.inv_ack(a), None);
        assert!(!d.is_busy(a));
        assert_eq!(d.state_of(a), DirState::Uncached);
    }

    #[test]
    fn sparse_requests_replay_after_the_recall() {
        let (a, b) = (LineAddr(8), LineAddr(16));
        let mut d = Directory::with_format(HOME, 0, DirFormat::Sparse { slots: 1 }, 4);
        d.request(a, read(R1));
        d.request(b, read(R2)); // recall A
        assert_eq!(d.request(a, read(R3)), DirOutcome::Busy); // behind recall
        let _ = d.take_recall();
        assert_eq!(d.inv_ack(a), None); // recall completes
        let replay = d.pop_pending_if_idle(a).expect("buffered request replays");
        assert_eq!(replay.requester, R3);
        // The replay re-claims the slot, recalling B in turn.
        d.request(a, replay);
        assert_eq!(d.state_of(a), shared(&[R3]));
        let rc = d.take_recall().expect("B recalled by the re-claim");
        assert_eq!(rc.line, b);
    }

    // ---- record storage -----------------------------------------------

    #[test]
    fn records_are_sized_to_the_machine() {
        // A tracked line costs its table tag, its entry and, while Shared,
        // one record of ⌈nodes / 64⌉ presence words.
        let per_line = |nodes| {
            let d = Directory::with_format(HOME, 0, DirFormat::FullMap, nodes);
            std::mem::size_of::<u64>()
                + std::mem::size_of::<Option<Entry>>()
                + 8 * d.sharers.stride()
        };
        for nodes in [2, 16, 32, 64] {
            assert!(
                per_line(nodes) <= 48,
                "{nodes} nodes: {} bytes per line",
                per_line(nodes)
            );
        }
        assert_eq!(per_line(65) - per_line(64), 8);
        assert_eq!(per_line(1024) - per_line(64), 15 * 8);
    }

    #[test]
    fn released_records_are_reused() {
        // Lines cycle through Shared, Dirty and back on a 129-node home:
        // every exit from Shared returns its slot, so the slab holds one
        // record per line Shared at once, however long the run.
        let nodes = 129;
        let mut d = Directory::with_format(HOME, 16, DirFormat::FullMap, nodes);
        let far = NodeId(nodes - 1);
        for round in 0..50u64 {
            for l in 0..16 {
                let line = LineAddr(l);
                d.request(line, read(far));
                d.request(line, read(R1));
                if (round + l) % 3 == 0 {
                    d.remove_sharer_hint(line, far);
                    d.remove_sharer_hint(line, R1);
                    continue;
                }
                d.request(line, readx(R2));
                while d.acks_outstanding(line) > 0 {
                    d.inv_ack(line);
                }
                d.writeback(line, R2);
            }
            let shared = d
                .iter_states()
                .filter(|(_, s, _)| matches!(s, DirState::Shared(_)))
                .count();
            assert_eq!(d.sharers.slots().0, shared, "round {round}");
        }
        assert!(d.sharers.slots().1 <= 16);
    }

    // ---- canonical encoding -------------------------------------------

    #[test]
    fn canonical_encoding_separates_distinct_entry_states() {
        // The model checker merges states whose encodings are equal, so
        // every distinct entry state must encode differently: sharer sets
        // on either side of each word boundary, an overflowed pointer
        // record, owners, every busy kind, and buffered requests.
        fn dir(format: DirFormat, reqs: &[DirRequest]) -> Directory {
            let mut d = Directory::with_format(HOME, 0, format, SharerBitmap::CAPACITY);
            for r in reqs {
                d.request(LINE, *r);
            }
            d
        }
        let full = DirFormat::FullMap;
        let limited = DirFormat::Limited { ptrs: 2 };
        let (n63, n64, n1023) = (NodeId(63), NodeId(64), NodeId(1023));
        let states = [
            ("uncached", dir(full, &[])),
            ("shared {1}", dir(full, &[read(R1)])),
            ("shared {3}", dir(full, &[read(R3)])),
            ("shared {1,3}", dir(full, &[read(R1), read(R3)])),
            ("shared {63}", dir(full, &[read(n63)])),
            ("shared {64}", dir(full, &[read(n64)])),
            ("shared {63,64}", dir(full, &[read(n63), read(n64)])),
            ("shared {1023}", dir(full, &[read(n1023)])),
            ("overflowed", dir(limited, &[read(R1), read(R2), read(R3)])),
            ("dirty 1", dir(full, &[readx(R1)])),
            ("dirty 2", dir(full, &[readx(R2)])),
            ("acks pending", dir(full, &[read(R1), readx(R2)])),
            ("home acks pending", dir(full, &[read(R1), readx(HOME)])),
            ("buffered", dir(full, &[read(R1), readx(R2), read(R3)])),
            ("owner transfer", dir(full, &[readx(R1), read(R2)])),
            ("writeback wait", dir(full, &[readx(R1), read(R1)])),
        ];
        let encodings: Vec<(&str, Vec<u8>)> = states
            .iter()
            .map(|(name, d)| {
                let mut enc = Vec::new();
                d.encode_canonical(&mut enc);
                (*name, enc)
            })
            .collect();
        for (i, (a, enc_a)) in encodings.iter().enumerate() {
            for (b, enc_b) in &encodings[i + 1..] {
                assert_ne!(enc_a, enc_b, "{a} and {b} encode alike");
            }
        }
    }

    #[test]
    fn canonical_encoding_covers_pointer_and_recall_states() {
        // Pointer records do not remember insertion order.
        let mut d = Directory::with_format(HOME, 0, DirFormat::Limited { ptrs: 2 }, 8);
        d.request(LINE, read(R2));
        d.request(LINE, read(R1));
        let mut enc = Vec::new();
        d.encode_canonical(&mut enc);
        let mut rev = Directory::with_format(HOME, 0, DirFormat::Limited { ptrs: 2 }, 8);
        rev.request(LINE, read(R1));
        rev.request(LINE, read(R2));
        let mut renc = Vec::new();
        rev.encode_canonical(&mut renc);
        assert_eq!(enc, renc);
        // A recall in flight is transaction state and must be encoded.
        let (a, b) = (LineAddr(8), LineAddr(16));
        let mut s = Directory::with_format(HOME, 0, DirFormat::Sparse { slots: 1 }, 4);
        s.request(a, read(R1));
        s.request(b, read(R2));
        let (mut with_recall, mut settled) = (Vec::new(), Vec::new());
        s.encode_canonical(&mut with_recall);
        let _ = s.take_recall();
        s.inv_ack(a);
        s.encode_canonical(&mut settled);
        assert_ne!(with_recall, settled);
    }

    #[test]
    fn canonical_encoding_ignores_entry_history() {
        // A line driven to Uncached must encode identically to one never
        // touched at all.
        let mut touched = Directory::new(HOME);
        touched.request(LINE, read(R1));
        touched.remove_sharer_hint(LINE, R1);
        let fresh = Directory::new(HOME);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        touched.encode_canonical(&mut a);
        fresh.encode_canonical(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn canonical_encoding_distinguishes_transient_states() {
        // Same stable state (Shared{R1}), different transaction state.
        let mut idle = Directory::new(HOME);
        idle.request(LINE, read(R1));
        let mut busy = Directory::new(HOME);
        busy.request(LINE, read(R1));
        busy.request(LINE, readx(R2)); // AcksPending on R1's invalidation
        let (mut a, mut b) = (Vec::new(), Vec::new());
        idle.encode_canonical(&mut a);
        busy.encode_canonical(&mut b);
        assert_ne!(a, b);
        // Buffered requests are part of the state too.
        let mut buffered = Directory::new(HOME);
        buffered.request(LINE, read(R1));
        buffered.request(LINE, readx(R2));
        buffered.request(LINE, read(R3)); // buffered behind the busy line
        let mut c = Vec::new();
        buffered.encode_canonical(&mut c);
        assert_ne!(b, c);
    }

    #[test]
    fn canonical_encoding_orders_lines_by_address() {
        // Entry creation order must not leak into the encoding.
        let (l1, l2) = (LineAddr(10), LineAddr(20));
        let mut fwd = Directory::new(HOME);
        fwd.request(l1, read(R1));
        fwd.request(l2, read(R2));
        let mut rev = Directory::new(HOME);
        rev.request(l2, read(R2));
        rev.request(l1, read(R1));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        fwd.encode_canonical(&mut a);
        rev.encode_canonical(&mut b);
        assert_eq!(a, b);
    }
}
