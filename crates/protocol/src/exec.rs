//! The coherence controller's protocol handlers, written once.
//!
//! Every handler a controller runs is a function here, generic over the
//! [`Host`] it runs on. The timed machine (`ccnuma`) and the untimed
//! model checker (`ccn-verify`) both implement [`Host`] and call these
//! functions, so the checker explores the simulator's own decisions: what
//! a request does to the directory, what a supply sends and invalidates,
//! how a forwarded owner answers, when a transaction completes, and which
//! buffered requests replay.
//!
//! The host supplies only what differs between the two: where the line's
//! local copies live, how the node's outstanding transaction completes,
//! how messages travel and replays queue, and what a handler costs. The
//! machine times each handler's steps ([`Host::run`]) and sends every
//! message at the cycle its send step completes; the model returns a
//! zero [`StepRun`] and ignores every cycle value.

use ccn_mem::{LineAddr, NodeId};
use ccn_sim::Cycle;

use crate::directory::{
    DirAction, DirOutcome, DirRequest, DirRequestKind, Directory, SharerBitmap, WritebackOutcome,
};
use crate::handlers::{Fanout, HandlerKind};
use crate::msg::{Msg, MsgKind};

/// Timing of one handler execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepRun {
    /// Cycle the engine is released (handler occupancy ends).
    pub end: Cycle,
    /// Critical-beat time of the `BusDeliver` step, if present.
    pub deliver: Option<Cycle>,
    /// Time local memory data became available, if a `MemRead` ran.
    pub mem_data: Option<Cycle>,
}

/// What a node holds of a line, as its caches report it.
#[derive(Debug, Clone, Copy)]
pub struct Copies {
    /// Some local copy is valid (other than the requesting processor's,
    /// when the host was asked to spare it).
    pub held: bool,
    /// A local copy is writable.
    pub owned: bool,
}

/// The grant half of a node's outstanding transaction: an exclusive
/// grant completes the transaction only once the home's `InvDone`
/// notice, when the grant says one is owed, has arrived as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Grant {
    /// Data (or upgrade permission) has arrived.
    pub has_data: bool,
    /// The grant said invalidation acks are being collected at the home.
    pub needs_inv_done: bool,
    /// The `InvDone` notice has arrived.
    pub inv_done: bool,
    /// Payload carried by the grant.
    pub payload: u64,
    /// When the data became available.
    pub data_time: Cycle,
}

/// The node a handler runs on, as the handlers see it.
///
/// "The requester" below is the processor whose request opened the
/// node's outstanding transaction on the line.
pub trait Host {
    /// The node the handler runs on.
    fn node(&self) -> NodeId;
    /// The home node of `line`.
    fn home_of(&self, line: LineAddr) -> NodeId;
    /// The node's directory, asked only about lines the node is home of.
    fn dir(&mut self) -> &mut Directory;
    /// The payload home memory holds for `line`.
    fn memory(&self, line: LineAddr) -> u64;
    /// Stores `payload` in home memory.
    fn set_memory(&mut self, line: LineAddr, payload: u64);

    /// The node's copies of `line`, not counting the requester's when
    /// `spare_requester` is set.
    fn copies(&self, line: LineAddr, spare_requester: bool) -> Copies;
    /// Invalidates the node's copies of `line` (all but the requester's
    /// when `spare_requester` is set); returns the payload of a dirty
    /// copy it destroyed.
    fn invalidate_copies(&mut self, line: LineAddr, spare_requester: bool) -> Option<u64>;
    /// Downgrades the node's writable copy of `line` to shared and
    /// returns its payload, or `None` if no copy is writable.
    fn downgrade_owner(&mut self, line: LineAddr) -> Option<u64>;
    /// The payload of the requester's copy of `line`, if it still holds
    /// one.
    fn requester_copy(&self, line: LineAddr) -> Option<u64>;

    /// The grant state of the node's outstanding transaction on `line`.
    fn grant(&mut self, line: LineAddr) -> Option<&mut Grant>;
    /// Ends the node's outstanding transaction on `line` at `at`: the
    /// requester's copy is filled (writable if `exclusive`) with
    /// `payload`.
    fn complete(&mut self, line: LineAddr, exclusive: bool, payload: u64, at: Cycle);

    /// Runs handler `kind` at `fanout` on `line` from `start`.
    fn run(&mut self, kind: HandlerKind, fanout: Fanout, line: LineAddr, start: Cycle) -> StepRun;
    /// Runs the cheap occupancy of a request that only probed the
    /// directory: dispatch, request read and directory read.
    fn probe(&mut self, kind: HandlerKind, line: LineAddr, start: Cycle) -> StepRun;
    /// When the last handler's `i`-th send step completed.
    fn sent_at(&self, i: usize) -> Option<Cycle>;
    /// Cycles from data in hand to the requester's fill.
    fn fill_overhead(&self) -> Cycle;

    /// Sends `msg` at `at`.
    fn send(&mut self, at: Cycle, msg: Msg);
    /// Replays the buffered home `request` for `line` at `at`.
    fn replay(&mut self, line: LineAddr, request: DirRequest, at: Cycle);
    /// Counts an invalidation that found no copy.
    fn count_useless_invalidation(&mut self);

    /// Sends a home's invalidation fan-out for `requester`: one `InvReq`
    /// per target, in ascending order, the i-th when `run`'s i-th send
    /// step completes.
    fn send_invalidations(
        &mut self,
        run: &StepRun,
        line: LineAddr,
        requester: NodeId,
        targets: &SharerBitmap,
    ) {
        send_invalidations(self, run, line, requester, targets);
    }
}

/// [`Host::send_invalidations`]'s default: one `InvReq` per target, the
/// i-th when `run`'s i-th send step completes.
pub fn send_invalidations<H: Host + ?Sized>(
    h: &mut H,
    run: &StepRun,
    line: LineAddr,
    requester: NodeId,
    targets: &SharerBitmap,
) {
    let node = h.node();
    for (i, target) in targets.iter().enumerate() {
        let at = h.sent_at(i).unwrap_or(run.end);
        h.send(at, message(MsgKind::InvReq, line, node, target, requester));
    }
}

fn message(kind: MsgKind, line: LineAddr, from: NodeId, to: NodeId, requester: NodeId) -> Msg {
    Msg {
        kind,
        line,
        from,
        to,
        requester,
        acks_pending: 0,
        payload: 0,
    }
}

/// Sends `msg` when the `i`-th send step of `run` completed (at its end
/// if it has fewer).
fn send_step<H: Host>(h: &mut H, run: &StepRun, i: usize, msg: Msg) {
    let at = h.sent_at(i).unwrap_or(run.end);
    h.send(at, msg);
}

/// A request from the node's own bus: the home handles it in place, any
/// other node forwards it to the home.
pub fn handle_bus_request<H: Host>(
    h: &mut H,
    kind: DirRequestKind,
    line: LineAddr,
    now: Cycle,
) -> Cycle {
    let node = h.node();
    if h.home_of(line) == node {
        return handle_home_request(h, kind, line, node, now);
    }
    let (handler, msg_kind) = match kind {
        DirRequestKind::Read => (HandlerKind::BusReadRemote, MsgKind::ReadReq),
        DirRequestKind::ReadExcl => (HandlerKind::BusReadExclRemote, MsgKind::ReadExclReq),
        DirRequestKind::Upgrade => (HandlerKind::BusUpgradeRemote, MsgKind::UpgradeReq),
    };
    let run = h.run(handler, Fanout::NONE, line, now);
    let home = h.home_of(line);
    send_step(h, &run, 0, message(msg_kind, line, node, home, node));
    run.end
}

/// A dirty eviction the engine forwards to the home (the machine without
/// a direct data path).
pub fn handle_bus_writeback<H: Host>(h: &mut H, line: LineAddr, payload: u64, now: Cycle) -> Cycle {
    let run = h.run(HandlerKind::BusWritebackRemote, Fanout::NONE, line, now);
    let node = h.node();
    let home = h.home_of(line);
    let mut wb = message(MsgKind::WritebackReq, line, node, home, node);
    wb.payload = payload;
    send_step(h, &run, 0, wb);
    run.end
}

/// Presents a request for `line` to the home directory (the node) and
/// performs the action it prescribes.
pub fn handle_home_request<H: Host>(
    h: &mut H,
    kind: DirRequestKind,
    line: LineAddr,
    requester: NodeId,
    now: Cycle,
) -> Cycle {
    let outcome = h.dir().request(line, DirRequest { kind, requester });
    let end = match outcome {
        DirOutcome::Busy | DirOutcome::Act(DirAction::AwaitWriteback) => {
            h.probe(HandlerKind::HomeReadDirtyRemote, line, now).end
        }
        DirOutcome::Act(DirAction::Forward { owner }) => {
            let local_req = requester == h.node();
            let (handler, fwd_kind) = match kind {
                DirRequestKind::Read if local_req => {
                    (HandlerKind::BusReadLocalDirtyRemote, MsgKind::ReadFwd)
                }
                DirRequestKind::Read => (HandlerKind::HomeReadDirtyRemote, MsgKind::ReadFwd),
                _ if local_req => (
                    HandlerKind::BusReadExclLocalDirtyRemote,
                    MsgKind::ReadExclFwd,
                ),
                _ => (HandlerKind::HomeReadExclDirtyRemote, MsgKind::ReadExclFwd),
            };
            let run = h.run(handler, Fanout::NONE, line, now);
            let node = h.node();
            send_step(h, &run, 0, message(fwd_kind, line, node, owner, requester));
            run.end
        }
        DirOutcome::Act(DirAction::Supply {
            exclusive,
            invalidate,
        }) => home_supply(h, kind, line, requester, exclusive, invalidate, false, now),
        DirOutcome::Act(DirAction::GrantUpgrade { invalidate }) => {
            home_supply(h, kind, line, requester, true, invalidate, true, now)
        }
    };
    // The request may have claimed a sparse slot and displaced an idle
    // victim line: issue the victim's recall invalidations.
    drain_recalls(h, end);
    end
}

/// Supplies a line (or upgrade permission) from the home: invalidation
/// fan-out, local-copy handling, memory access, response.
#[allow(clippy::too_many_arguments)]
fn home_supply<H: Host>(
    h: &mut H,
    kind: DirRequestKind,
    line: LineAddr,
    requester: NodeId,
    exclusive: bool,
    invalidate: Option<SharerBitmap>,
    grant_only: bool,
    now: Cycle,
) -> Cycle {
    let local_req = requester == h.node();
    let copies = h.copies(line, local_req);
    let remote_invs = invalidate.as_ref().map_or(0, SharerBitmap::count);
    let local_inv = exclusive && copies.held;

    // Local-copy side effects and the supplied payload.
    let dirty = if exclusive {
        h.invalidate_copies(line, local_req)
    } else if copies.owned {
        h.downgrade_owner(line)
    } else {
        None
    };
    if let Some(dirty) = dirty {
        h.set_memory(line, dirty);
    }
    let payload = h.memory(line);

    let fan = Fanout {
        remote_invs,
        local_inv,
    };
    let handler = if grant_only || (local_req && kind == DirRequestKind::Upgrade) {
        HandlerKind::HomeUpgradeShared
    } else if !exclusive {
        HandlerKind::HomeReadClean
    } else if remote_invs > 0 || local_inv {
        HandlerKind::HomeReadExclShared
    } else {
        HandlerKind::HomeReadExclUncached
    };
    let run = h.run(handler, fan, line, now);

    // Invalidation requests go out first, in step order; the response
    // takes the send after them.
    if let Some(inv) = &invalidate {
        h.send_invalidations(&run, line, requester, inv);
    }
    if local_req {
        // Completion is local: immediately if no acks are outstanding,
        // otherwise at the last invalidation ack.
        if remote_invs == 0 {
            let at = run.mem_data.unwrap_or(run.end) + h.fill_overhead();
            h.complete(line, exclusive || grant_only, payload, at);
        }
    } else {
        let resp_kind = if grant_only {
            MsgKind::UpgradeAck
        } else if exclusive {
            MsgKind::DataExclResp
        } else {
            MsgKind::DataResp
        };
        let node = h.node();
        let mut resp = message(resp_kind, line, node, requester, requester);
        resp.payload = payload;
        resp.acks_pending = remote_invs as u16;
        send_step(h, &run, remote_invs as usize, resp);
    }
    // Non-busy supplies may have left buffered work runnable.
    drain_pending(h, line, run.end);
    run.end
}

/// Sends the invalidation fan-out of every recall the sparse directory
/// queued: one `InvReq` per target, issued back to back at `at`. The
/// acks return through the ordinary `InvAck` path and settle the recalled
/// line. Recalls bypass handler occupancy — the modeled controller
/// treats slot maintenance as background work — a deliberate
/// approximation documented in docs/MODEL.md. No-op for the dense
/// formats, which never queue recalls.
fn drain_recalls<H: Host>(h: &mut H, at: Cycle) {
    let node = h.node();
    while let Some(rc) = h.dir().take_recall() {
        for target in rc.targets.iter() {
            h.send(at, message(MsgKind::InvReq, rc.line, node, target, node));
        }
    }
}

/// After a directory transaction completes, replay one buffered request
/// if the line is idle.
fn drain_pending<H: Host>(h: &mut H, line: LineAddr, at: Cycle) {
    let popped = h.dir().pop_pending_if_idle(line);
    // The settle hook inside the pop may have started a recall of an
    // overcommitted sparse line.
    drain_recalls(h, at);
    if let Some(request) = popped {
        h.replay(line, request, at);
    }
}

/// Runs the handler of a network message arriving at the node.
pub fn handle_net<H: Host>(h: &mut H, msg: Msg, now: Cycle) -> Cycle {
    let line = msg.line;
    match msg.kind {
        MsgKind::ReadReq => handle_home_request(h, DirRequestKind::Read, line, msg.requester, now),
        MsgKind::ReadExclReq => {
            handle_home_request(h, DirRequestKind::ReadExcl, line, msg.requester, now)
        }
        MsgKind::UpgradeReq => {
            handle_home_request(h, DirRequestKind::Upgrade, line, msg.requester, now)
        }
        MsgKind::WritebackReq => handle_writeback(h, msg, now),
        MsgKind::ReadFwd | MsgKind::ReadExclFwd => handle_forward(h, msg, now),
        MsgKind::InvReq => handle_inv_req(h, msg, now),
        MsgKind::InvAck => handle_inv_ack(h, msg, now),
        MsgKind::DataResp => handle_data_resp(h, msg, now),
        MsgKind::DataExclResp => handle_data_excl_resp(h, msg, now),
        MsgKind::UpgradeAck => handle_upgrade_ack(h, msg, now),
        MsgKind::InvDone => handle_inv_done(h, msg, now),
        MsgKind::SharingWriteback => {
            let run = h.run(HandlerKind::HomeSharingWriteback, Fanout::NONE, line, now);
            h.dir().sharing_writeback(line, msg.from);
            h.set_memory(line, msg.payload);
            drain_pending(h, line, run.end);
            run.end
        }
        MsgKind::OwnershipAck => {
            let run = h.run(HandlerKind::HomeOwnershipAck, Fanout::NONE, line, now);
            h.dir().ownership_ack(line, msg.from);
            drain_pending(h, line, run.end);
            run.end
        }
        MsgKind::FwdMiss => handle_fwd_miss(h, msg, now),
        MsgKind::ReplacementHint => {
            let run = h.run(HandlerKind::HomeReplacementHint, Fanout::NONE, line, now);
            h.dir().remove_sharer_hint(line, msg.from);
            run.end
        }
    }
}

fn handle_writeback<H: Host>(h: &mut H, msg: Msg, now: Cycle) -> Cycle {
    let line = msg.line;
    let run = h.run(HandlerKind::HomeWritebackEviction, Fanout::NONE, line, now);
    h.set_memory(line, msg.payload);
    match h.dir().writeback(line, msg.from) {
        WritebackOutcome::Applied | WritebackOutcome::RacedWithForward => {}
        WritebackOutcome::ReleasesWaiter { request } => h.replay(line, request, run.end),
    }
    drain_pending(h, line, run.end);
    run.end
}

/// A forwarded request arrives at the (believed) dirty owner.
fn handle_forward<H: Host>(h: &mut H, msg: Msg, now: Cycle) -> Cycle {
    let line = msg.line;
    let node = h.node();
    let home = h.home_of(line);
    if !h.copies(line, false).held {
        // Our write-back is in flight; tell the home.
        let run = h.run(HandlerKind::OwnerFwdMissReply, Fanout::NONE, line, now);
        send_step(
            h,
            &run,
            0,
            message(MsgKind::FwdMiss, line, node, home, msg.requester),
        );
        return run.end;
    }
    let exclusive = msg.kind == MsgKind::ReadExclFwd;
    let home_requester = msg.requester == msg.from;
    let payload = if exclusive {
        h.invalidate_copies(line, false)
    } else {
        h.downgrade_owner(line)
    }
    .expect("forwarded owner must hold the line dirty");
    let handler = match (exclusive, home_requester) {
        (false, true) => HandlerKind::OwnerReadFwdHomeRequester,
        (false, false) => HandlerKind::OwnerReadFwdRemoteRequester,
        (true, true) => HandlerKind::OwnerReadExclFwdHomeRequester,
        (true, false) => HandlerKind::OwnerReadExclFwdRemoteRequester,
    };
    let run = h.run(handler, Fanout::NONE, line, now);
    let (data_kind, second_kind) = if exclusive {
        (MsgKind::DataExclResp, MsgKind::OwnershipAck)
    } else {
        (MsgKind::DataResp, MsgKind::SharingWriteback)
    };
    let mut data = message(data_kind, line, node, msg.requester, msg.requester);
    data.payload = payload;
    send_step(h, &run, 0, data);
    if !home_requester {
        let mut second = message(second_kind, line, node, home, msg.requester);
        second.payload = payload;
        send_step(h, &run, 1, second);
    }
    run.end
}

fn handle_inv_req<H: Host>(h: &mut H, msg: Msg, now: Cycle) -> Cycle {
    let line = msg.line;
    let run = h.run(HandlerKind::InvReqAtSharer, Fanout::NONE, line, now);
    if !h.copies(line, false).held {
        // A stale directory bit: the copy was silently dropped. Under an
        // inexact format this also counts the invalidations sent to nodes
        // that never held the line at all.
        h.count_useless_invalidation();
    }
    let dirty = h.invalidate_copies(line, false);
    let node = h.node();
    let home = h.home_of(line);
    let mut ack = message(MsgKind::InvAck, line, node, home, msg.requester);
    if let Some(payload) = dirty {
        // A sparse recall can invalidate the *dirty owner*: its ack
        // doubles as the write-back, with acks_pending == 1 marking the
        // payload valid (ordinary sharer acks carry no data).
        ack.payload = payload;
        ack.acks_pending = 1;
    }
    send_step(h, &run, 0, ack);
    run.end
}

fn handle_inv_ack<H: Host>(h: &mut H, msg: Msg, now: Cycle) -> Cycle {
    let line = msg.line;
    if msg.acks_pending != 0 {
        // The ack of a recalled dirty owner carries the line's data (see
        // `handle_inv_req`): apply it like a write-back.
        h.set_memory(line, msg.payload);
    }
    let node = h.node();
    let run = match h.dir().inv_ack(line) {
        // A recall's last ack settles the line silently (no requester
        // completion): the drain below replays anything buffered behind
        // it. While acks remain, the line is busy and the drain is a
        // no-op.
        None => h.run(HandlerKind::HomeInvAckMore, Fanout::NONE, line, now),
        Some(done) if done.requester == node => {
            let run = h.run(HandlerKind::HomeInvAckLastLocal, Fanout::NONE, line, now);
            let payload = h.memory(line);
            let at = run.end + h.fill_overhead();
            h.complete(line, true, payload, at);
            run
        }
        Some(done) => {
            let run = h.run(HandlerKind::HomeInvAckLastRemote, Fanout::NONE, line, now);
            let note = message(MsgKind::InvDone, line, node, done.requester, done.requester);
            send_step(h, &run, 0, note);
            run
        }
    };
    drain_pending(h, line, run.end);
    run.end
}

fn handle_data_resp<H: Host>(h: &mut H, msg: Msg, now: Cycle) -> Cycle {
    let line = msg.line;
    if h.home_of(line) != h.node() {
        let run = h.run(HandlerKind::ReqDataResp, Fanout::NONE, line, now);
        let at = run.deliver.unwrap_or(run.end) + h.fill_overhead();
        h.complete(line, false, msg.payload, at);
        return run.end;
    }
    // Home requested a dirty-remote line for a local processor: this
    // response doubles as the sharing write-back.
    let run = h.run(HandlerKind::HomeDataRespOwnerRead, Fanout::NONE, line, now);
    h.dir().sharing_writeback(line, msg.from);
    h.set_memory(line, msg.payload);
    let at = run.deliver.unwrap_or(run.end) + h.fill_overhead();
    h.complete(line, false, msg.payload, at);
    drain_pending(h, line, run.end);
    run.end
}

fn handle_data_excl_resp<H: Host>(h: &mut H, msg: Msg, now: Cycle) -> Cycle {
    let line = msg.line;
    if h.home_of(line) == h.node() {
        let run = h.run(
            HandlerKind::HomeDataRespOwnerReadExcl,
            Fanout::NONE,
            line,
            now,
        );
        h.dir().ownership_ack(line, msg.from);
        let at = run.deliver.unwrap_or(run.end) + h.fill_overhead();
        h.complete(line, true, msg.payload, at);
        drain_pending(h, line, run.end);
        return run.end;
    }
    let local_inv = h.copies(line, true).held;
    let fanout = Fanout {
        remote_invs: 0,
        local_inv,
    };
    let run = h.run(HandlerKind::ReqDataExclResp, fanout, line, now);
    if local_inv {
        h.invalidate_copies(line, true);
    }
    let at = run.deliver.unwrap_or(run.end) + h.fill_overhead();
    note_exclusive_grant(h, line, msg.payload, at, msg.acks_pending > 0);
    run.end
}

fn handle_upgrade_ack<H: Host>(h: &mut H, msg: Msg, now: Cycle) -> Cycle {
    let line = msg.line;
    let local_inv = h.copies(line, true).held;
    let fanout = Fanout {
        remote_invs: 0,
        local_inv,
    };
    let run = h.run(HandlerKind::ReqUpgradeAck, fanout, line, now);
    if local_inv {
        h.invalidate_copies(line, true);
    }
    // Permission grant: the payload stays whatever the cache holds.
    let payload = h.requester_copy(line).unwrap_or(0);
    note_exclusive_grant(h, line, payload, run.end + 2, msg.acks_pending > 0);
    run.end
}

/// Records an exclusive grant in the outstanding transaction; completes
/// it unless an invalidation-done notice is (still) owed.
fn note_exclusive_grant<H: Host>(
    h: &mut H,
    line: LineAddr,
    payload: u64,
    at: Cycle,
    needs_inv_done: bool,
) {
    let grant = h
        .grant(line)
        .expect("exclusive grant without an outstanding transaction");
    grant.has_data = true;
    grant.payload = payload;
    grant.data_time = at;
    grant.needs_inv_done = needs_inv_done;
    if needs_inv_done && !grant.inv_done {
        // Wait for the InvDone notice (it may arrive on a different
        // source path than the data).
        return;
    }
    h.complete(line, true, payload, at);
}

fn handle_inv_done<H: Host>(h: &mut H, msg: Msg, now: Cycle) -> Cycle {
    let line = msg.line;
    let run = h.run(HandlerKind::ReqInvDone, Fanout::NONE, line, now);
    let grant = h
        .grant(line)
        .expect("InvDone without an outstanding transaction");
    grant.inv_done = true;
    if grant.has_data {
        let (payload, data_time) = (grant.payload, grant.data_time);
        h.complete(line, true, payload, data_time.max(run.end));
    }
    run.end
}

fn handle_fwd_miss<H: Host>(h: &mut H, msg: Msg, now: Cycle) -> Cycle {
    let line = msg.line;
    let request = h.dir().fwd_miss(line, msg.from);
    let run = h.run(HandlerKind::HomeFwdMiss, Fanout::NONE, line, now);
    let payload = h.memory(line);
    let exclusive = request.kind != DirRequestKind::Read;
    if request.requester == h.node() {
        let at = run.mem_data.unwrap_or(run.end) + h.fill_overhead();
        h.complete(line, exclusive, payload, at);
    } else {
        let kind = if exclusive {
            MsgKind::DataExclResp
        } else {
            MsgKind::DataResp
        };
        let node = h.node();
        let mut resp = message(kind, line, node, request.requester, request.requester);
        resp.payload = payload;
        send_step(h, &run, 0, resp);
    }
    drain_pending(h, line, run.end);
    run.end
}
