//! Coherence-controller handler execution.
//!
//! This module contains the `Machine` methods that run protocol handlers:
//! choose the handler spec from the request and directory state, execute
//! its steps for timing (`steps::run_steps`), perform the state changes,
//! and emit the outgoing messages at the step-accurate send times.

use ccn_controller::EngineRole;
use ccn_mem::{LineAddr, NodeId};
use ccn_protocol::directory::{
    DirAction, DirOutcome, DirRequest, DirRequestKind, WritebackOutcome,
};
use ccn_protocol::handlers::{Fanout, HandlerKind};
use ccn_protocol::{Msg, MsgClass, MsgKind, SharerBitmap};
use ccn_sim::Cycle;

use crate::machine::Machine;
use crate::steps::{run_steps, CcRequest, StepRun};

impl Machine {
    pub(crate) fn execute_handler(&mut self, n: usize, engine: usize, req: CcRequest, now: Cycle) {
        self.set_current_engine(engine as u8);
        // Key the handler to the transaction it serves (the requesting
        // node / line pair) and attribute the time since the previous
        // milestone: dispatch-queue wait for fresh work, protocol stall
        // for replays of Busy/Recall-deferred requests. Write-backs run
        // on behalf of no live transaction.
        self.flight_key = match &req {
            CcRequest::Bus { line, .. } => Some((n as u16, line.0)),
            CcRequest::Replay {
                line, requester, ..
            } => Some((requester.0, line.0)),
            CcRequest::Net(msg) => Some((msg.requester.0, msg.line.0)),
            CcRequest::Writeback { .. } => None,
        };
        let stall = matches!(req, CcRequest::Replay { .. });
        self.record_flight_milestone(
            now,
            if stall {
                ccn_obs::flight::Category::Stall
            } else {
                ccn_obs::flight::Category::Queue
            },
        );
        let end = match req {
            CcRequest::Bus { kind, line } => {
                if self.home_index(line) == n {
                    self.handle_home_request(n, kind, line, NodeId(n as u16), now)
                } else {
                    self.handle_bus_remote(n, kind, line, now)
                }
            }
            CcRequest::Replay {
                kind,
                line,
                requester,
            } => self.handle_home_request(n, kind, line, requester, now),
            CcRequest::Net(msg) => self.handle_net(n, msg, now),
            CcRequest::Writeback { line, payload } => {
                let run =
                    self.run_spec(n, HandlerKind::BusWritebackRemote, Fanout::NONE, line, now);
                let home = self.map.home_of(line);
                let mut msg = self.msg(n, home, MsgKind::WritebackReq, line, NodeId(n as u16));
                msg.payload = payload;
                self.send(self.send_scratch[0], msg);
                run.end
            }
        };
        self.nodes[n].cc.complete_handler(engine, now, end);
        if self.nodes[n].cc.has_work(engine) {
            self.arm_cc(end, n, engine, 1);
        }
    }

    fn home_index(&self, line: LineAddr) -> usize {
        self.map.home_of(line).index()
    }

    /// Expands `kind` into the machine's scratch handler spec and
    /// executes it. The `SendMsg` completion times land in
    /// `send_scratch`. Both buffers are sized for this machine's widest
    /// handler, so the handler hot path never allocates.
    fn run_spec(
        &mut self,
        n: usize,
        kind: HandlerKind,
        fanout: Fanout,
        line: LineAddr,
        start: Cycle,
    ) -> StepRun {
        self.step_scratch.fill(kind, fanout);
        self.run_scratch(n, line, start)
    }

    /// The cheap occupancy of a request that only probed the directory
    /// (line busy / await-writeback): dispatch + request read + directory
    /// read.
    fn run_probe(&mut self, n: usize, kind: HandlerKind, line: LineAddr, start: Cycle) -> StepRun {
        self.step_scratch.fill_probe(kind);
        self.run_scratch(n, line, start)
    }

    fn run_scratch(&mut self, n: usize, line: LineAddr, start: Cycle) -> StepRun {
        let kind = self.step_scratch.kind;
        self.handler_counts[kind.index()] += 1;
        let run = run_steps(
            &mut self.nodes[n],
            &self.cfg,
            &self.step_scratch.steps,
            line,
            start,
            &mut self.send_scratch,
        );
        // Every handler execution is one hop. The no-direct-path
        // write-back serves no transaction: its hop carries the evicting
        // node and the line, the key a direct-path write-back's home
        // handler carries, and is recorded like one.
        let (node, txn_line) = self.flight_key.unwrap_or((n as u16, line.0));
        self.record_flight(ccn_obs::FlightEvent::Hop {
            node,
            line: txn_line,
            hop: ccn_obs::flight::Hop {
                time: start,
                at_node: n as u16,
                engine: self.current_engine,
                occupancy: run.end - start,
                handler: kind.paper_label(),
                phase: kind.phase().label(),
            },
        });
        self.record_flight_milestone(run.end, ccn_obs::flight::Category::Occupancy);
        run
    }

    fn send(&mut self, time: Cycle, msg: Msg) {
        self.send_msg(time, msg);
    }

    fn msg(&self, n: usize, to: NodeId, kind: MsgKind, line: LineAddr, requester: NodeId) -> Msg {
        Msg {
            kind,
            line,
            from: NodeId(n as u16),
            to,
            requester,
            acks_pending: 0,
            payload: 0,
        }
    }

    /// Sends the invalidation fan-out of every recall the sparse
    /// directory queued: one `InvReq` per target, issued back to back at
    /// `at`. The acks return through the ordinary `InvAck` path and
    /// settle the recalled line. Recalls bypass handler occupancy — the
    /// modeled controller treats slot maintenance as background work — a
    /// deliberate approximation documented in docs/MODEL.md. No-op for
    /// the dense formats, which never queue recalls.
    fn drain_recalls(&mut self, n: usize, at: Cycle) {
        while let Some(rc) = self.nodes[n].mem.dir.take_recall() {
            for target in rc.targets.iter() {
                let msg = self.msg(n, target, MsgKind::InvReq, rc.line, NodeId(n as u16));
                self.send(at, msg);
            }
        }
    }

    /// After a directory transaction completes, replay one buffered
    /// request if the line is idle.
    fn drain_pending(&mut self, n: usize, line: LineAddr, at: Cycle) {
        let popped = self.nodes[n].mem.dir.pop_pending_if_idle(line);
        // The settle hook inside the pop may have started a recall of an
        // overcommitted sparse line.
        self.drain_recalls(n, at);
        if let Some(req) = popped {
            let class = if req.requester.index() == n {
                MsgClass::BusRequest
            } else {
                MsgClass::NetRequest
            };
            self.enqueue_cc(
                n,
                EngineRole::Local,
                class,
                at,
                CcRequest::Replay {
                    kind: req.kind,
                    line,
                    requester: req.requester,
                },
            );
        }
    }

    // ---------------------------------------------------------------
    // Requester-side bus handlers (remote addresses)
    // ---------------------------------------------------------------

    fn handle_bus_remote(
        &mut self,
        n: usize,
        kind: DirRequestKind,
        line: LineAddr,
        now: Cycle,
    ) -> Cycle {
        let (handler, msg_kind) = match kind {
            DirRequestKind::Read => (HandlerKind::BusReadRemote, MsgKind::ReadReq),
            DirRequestKind::ReadExcl => (HandlerKind::BusReadExclRemote, MsgKind::ReadExclReq),
            DirRequestKind::Upgrade => (HandlerKind::BusUpgradeRemote, MsgKind::UpgradeReq),
        };
        let run = self.run_spec(n, handler, Fanout::NONE, line, now);
        let home = self.map.home_of(line);
        let msg = self.msg(n, home, msg_kind, line, NodeId(n as u16));
        self.send(self.send_scratch[0], msg);
        run.end
    }

    // ---------------------------------------------------------------
    // Home-side request handling (bus-local, network, and replays)
    // ---------------------------------------------------------------

    fn handle_home_request(
        &mut self,
        n: usize,
        kind: DirRequestKind,
        line: LineAddr,
        requester: NodeId,
        now: Cycle,
    ) -> Cycle {
        let outcome = self.nodes[n]
            .mem
            .dir
            .request(line, DirRequest { kind, requester });
        let end = match outcome {
            DirOutcome::Busy => {
                self.run_probe(n, HandlerKind::HomeReadDirtyRemote, line, now)
                    .end
            }
            DirOutcome::Act(DirAction::AwaitWriteback) => {
                self.run_probe(n, HandlerKind::HomeReadDirtyRemote, line, now)
                    .end
            }
            DirOutcome::Act(DirAction::Forward { owner }) => {
                let local_req = requester.index() == n;
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
                let run = self.run_spec(n, handler, Fanout::NONE, line, now);
                let msg = self.msg(n, owner, fwd_kind, line, requester);
                self.send(self.send_scratch[0], msg);
                run.end
            }
            DirOutcome::Act(DirAction::Supply {
                exclusive,
                invalidate,
            }) => self.home_supply(n, kind, line, requester, exclusive, invalidate, false, now),
            DirOutcome::Act(DirAction::GrantUpgrade { invalidate }) => {
                self.home_supply(n, kind, line, requester, true, invalidate, true, now)
            }
        };
        // The request may have claimed a sparse slot and displaced an
        // idle victim line: issue the victim's recall invalidations.
        self.drain_recalls(n, end);
        end
    }

    /// Supplies a line (or upgrade permission) from the home: invalidation
    /// fan-out, local-copy handling, memory access, response.
    #[allow(clippy::too_many_arguments)]
    fn home_supply(
        &mut self,
        n: usize,
        kind: DirRequestKind,
        line: LineAddr,
        requester: NodeId,
        exclusive: bool,
        invalidate: Option<SharerBitmap>,
        grant_only: bool,
        now: Cycle,
    ) -> Cycle {
        let local_req = requester.index() == n;
        let except = if local_req {
            self.nodes[n]
                .mshr
                .get(line)
                .map(|m| self.procs[m.initiator].slot)
        } else {
            None
        };
        let pres = self.presence(n, line);
        let has_other_local = match except {
            Some(slot) => pres.other_than(slot),
            None => pres.any(),
        };
        let remote_invs = invalidate.as_ref().map_or(0, SharerBitmap::count);
        let local_inv = exclusive && has_other_local;

        // Local-copy side effects and the supplied payload.
        let payload = if exclusive {
            if let Some(dirty) = self.invalidate_local_copies(n, line, except) {
                self.memory.insert(line, dirty);
            }
            *self.memory.get(line).unwrap_or(&0)
        } else {
            if pres.owner.is_some() {
                if let Some(dirty) = self.downgrade_local_owner(n, line) {
                    self.memory.insert(line, dirty);
                }
            }
            *self.memory.get(line).unwrap_or(&0)
        };

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
        let run = self.run_spec(n, handler, fan, line, now);

        // Invalidation requests go out first, in step order; the response
        // takes the send after them.
        if let Some(inv) = &invalidate {
            for (i, sharer) in inv.iter().enumerate() {
                let msg = self.msg(n, sharer, MsgKind::InvReq, line, requester);
                self.send(self.send_scratch[i], msg);
            }
        }
        if local_req {
            // Completion is local: immediately if no acks are outstanding,
            // otherwise at the last invalidation ack.
            if remote_invs == 0 {
                let at = run.mem_data.unwrap_or(run.end) + self.cfg.lat.fill_overhead;
                self.complete_mshr(n, line, exclusive || grant_only, payload, at);
            }
        } else {
            let resp_kind = if grant_only {
                MsgKind::UpgradeAck
            } else if exclusive {
                MsgKind::DataExclResp
            } else {
                MsgKind::DataResp
            };
            let t = self
                .send_scratch
                .get(remote_invs as usize)
                .copied()
                .unwrap_or(run.end);
            let mut msg = self.msg(n, requester, resp_kind, line, requester);
            msg.payload = payload;
            msg.acks_pending = remote_invs as u16;
            self.send(t, msg);
        }
        // Non-busy supplies may have left buffered work runnable.
        self.drain_pending(n, line, run.end);
        run.end
    }

    // ---------------------------------------------------------------
    // Network message handlers
    // ---------------------------------------------------------------

    fn handle_net(&mut self, n: usize, msg: Msg, now: Cycle) -> Cycle {
        match msg.kind {
            MsgKind::ReadReq => {
                self.handle_home_request(n, DirRequestKind::Read, msg.line, msg.requester, now)
            }
            MsgKind::ReadExclReq => {
                self.handle_home_request(n, DirRequestKind::ReadExcl, msg.line, msg.requester, now)
            }
            MsgKind::UpgradeReq => {
                self.handle_home_request(n, DirRequestKind::Upgrade, msg.line, msg.requester, now)
            }
            MsgKind::WritebackReq => self.handle_writeback(n, msg, now),
            MsgKind::ReadFwd | MsgKind::ReadExclFwd => self.handle_forward(n, msg, now),
            MsgKind::InvReq => self.handle_inv_req(n, msg, now),
            MsgKind::InvAck => self.handle_inv_ack(n, msg, now),
            MsgKind::DataResp => self.handle_data_resp(n, msg, now),
            MsgKind::DataExclResp => self.handle_data_excl_resp(n, msg, now),
            MsgKind::UpgradeAck => self.handle_upgrade_ack(n, msg, now),
            MsgKind::InvDone => self.handle_inv_done(n, msg, now),
            MsgKind::SharingWriteback => self.handle_sharing_writeback(n, msg, now),
            MsgKind::OwnershipAck => self.handle_ownership_ack(n, msg, now),
            MsgKind::FwdMiss => self.handle_fwd_miss(n, msg, now),
            MsgKind::ReplacementHint => {
                let run = self.run_spec(
                    n,
                    HandlerKind::HomeReplacementHint,
                    Fanout::NONE,
                    msg.line,
                    now,
                );
                self.nodes[n].mem.dir.remove_sharer_hint(msg.line, msg.from);
                run.end
            }
        }
    }

    fn handle_writeback(&mut self, n: usize, msg: Msg, now: Cycle) -> Cycle {
        let run = self.run_spec(
            n,
            HandlerKind::HomeWritebackEviction,
            Fanout::NONE,
            msg.line,
            now,
        );
        self.memory.insert(msg.line, msg.payload);
        match self.nodes[n].mem.dir.writeback(msg.line, msg.from) {
            WritebackOutcome::Applied | WritebackOutcome::RacedWithForward => {}
            WritebackOutcome::ReleasesWaiter { request } => {
                let class = if request.requester.index() == n {
                    MsgClass::BusRequest
                } else {
                    MsgClass::NetRequest
                };
                self.enqueue_cc(
                    n,
                    EngineRole::Local,
                    class,
                    run.end,
                    CcRequest::Replay {
                        kind: request.kind,
                        line: msg.line,
                        requester: request.requester,
                    },
                );
            }
        }
        self.drain_pending(n, msg.line, run.end);
        run.end
    }

    /// A forwarded request arrives at the (believed) dirty owner.
    fn handle_forward(&mut self, n: usize, msg: Msg, now: Cycle) -> Cycle {
        let line = msg.line;
        let pres = self.presence(n, line);
        if !pres.any() {
            // Our write-back is in flight; tell the home.
            let run = self.run_spec(n, HandlerKind::OwnerFwdMissReply, Fanout::NONE, line, now);
            let home = self.map.home_of(line);
            let reply = self.msg(n, home, MsgKind::FwdMiss, line, msg.requester);
            self.send(self.send_scratch[0], reply);
            return run.end;
        }
        let exclusive = msg.kind == MsgKind::ReadExclFwd;
        let home_requester = msg.requester == msg.from;
        let payload = if exclusive {
            self.invalidate_local_copies(n, line, None)
                .expect("forwarded owner must hold the line dirty")
        } else {
            self.downgrade_local_owner(n, line)
                .expect("forwarded owner must hold the line dirty")
        };
        let handler = match (exclusive, home_requester) {
            (false, true) => HandlerKind::OwnerReadFwdHomeRequester,
            (false, false) => HandlerKind::OwnerReadFwdRemoteRequester,
            (true, true) => HandlerKind::OwnerReadExclFwdHomeRequester,
            (true, false) => HandlerKind::OwnerReadExclFwdRemoteRequester,
        };
        let run = self.run_spec(n, handler, Fanout::NONE, line, now);
        let data_kind = if exclusive {
            MsgKind::DataExclResp
        } else {
            MsgKind::DataResp
        };
        let mut data = self.msg(n, msg.requester, data_kind, line, msg.requester);
        data.payload = payload;
        self.send(self.send_scratch[0], data);
        if !home_requester {
            let second_kind = if exclusive {
                MsgKind::OwnershipAck
            } else {
                MsgKind::SharingWriteback
            };
            let home = self.map.home_of(line);
            let mut second = self.msg(n, home, second_kind, line, msg.requester);
            second.payload = payload;
            self.send(self.send_scratch[1], second);
        }
        run.end
    }

    fn handle_inv_req(&mut self, n: usize, msg: Msg, now: Cycle) -> Cycle {
        let run = self.run_spec(n, HandlerKind::InvReqAtSharer, Fanout::NONE, msg.line, now);
        if !self.presence(n, msg.line).any() {
            // A stale directory bit: the copy was silently dropped. Under
            // an inexact format this also counts the invalidations sent
            // to nodes that never held the line at all.
            self.useless_invalidations += 1;
        }
        let dirty = self.invalidate_local_copies(n, msg.line, None);
        let home = self.map.home_of(msg.line);
        let mut ack = self.msg(n, home, MsgKind::InvAck, msg.line, msg.requester);
        if let Some(payload) = dirty {
            // A sparse recall can invalidate the *dirty owner*: its ack
            // doubles as the write-back, with acks_pending == 1 marking
            // the payload valid (ordinary sharer acks carry no data).
            ack.payload = payload;
            ack.acks_pending = 1;
        }
        self.send(self.send_scratch[0], ack);
        run.end
    }

    fn handle_inv_ack(&mut self, n: usize, msg: Msg, now: Cycle) -> Cycle {
        if msg.acks_pending != 0 {
            // The ack of a recalled dirty owner carries the line's data
            // (see `handle_inv_req`): apply it like a write-back.
            self.memory.insert(msg.line, msg.payload);
        }
        match self.nodes[n].mem.dir.inv_ack(msg.line) {
            None => {
                let run =
                    self.run_spec(n, HandlerKind::HomeInvAckMore, Fanout::NONE, msg.line, now);
                // A recall's last ack settles the line silently (no
                // requester completion): replay anything buffered behind
                // it. While acks remain, the line is busy and this drain
                // is a no-op.
                self.drain_pending(n, msg.line, run.end);
                run.end
            }
            Some(done) => {
                if done.requester.index() == n {
                    let run = self.run_spec(
                        n,
                        HandlerKind::HomeInvAckLastLocal,
                        Fanout::NONE,
                        msg.line,
                        now,
                    );
                    let payload = *self.memory.get(msg.line).unwrap_or(&0);
                    self.complete_mshr(
                        n,
                        msg.line,
                        true,
                        payload,
                        run.end + self.cfg.lat.fill_overhead,
                    );
                    self.drain_pending(n, msg.line, run.end);
                    run.end
                } else {
                    let run = self.run_spec(
                        n,
                        HandlerKind::HomeInvAckLastRemote,
                        Fanout::NONE,
                        msg.line,
                        now,
                    );
                    let note = self.msg(
                        n,
                        done.requester,
                        MsgKind::InvDone,
                        msg.line,
                        done.requester,
                    );
                    self.send(self.send_scratch[0], note);
                    self.drain_pending(n, msg.line, run.end);
                    run.end
                }
            }
        }
    }

    fn handle_data_resp(&mut self, n: usize, msg: Msg, now: Cycle) -> Cycle {
        if self.home_index(msg.line) == n {
            // Home requested a dirty-remote line for a local processor:
            // this response doubles as the sharing write-back.
            let run = self.run_spec(
                n,
                HandlerKind::HomeDataRespOwnerRead,
                Fanout::NONE,
                msg.line,
                now,
            );
            self.nodes[n].mem.dir.sharing_writeback(msg.line, msg.from);
            self.memory.insert(msg.line, msg.payload);
            let at = run.deliver.unwrap_or(run.end) + self.cfg.lat.fill_overhead;
            self.complete_mshr(n, msg.line, false, msg.payload, at);
            self.drain_pending(n, msg.line, run.end);
            run.end
        } else {
            let run = self.run_spec(n, HandlerKind::ReqDataResp, Fanout::NONE, msg.line, now);
            let at = run.deliver.unwrap_or(run.end) + self.cfg.lat.fill_overhead;
            self.complete_mshr(n, msg.line, false, msg.payload, at);
            run.end
        }
    }

    fn handle_data_excl_resp(&mut self, n: usize, msg: Msg, now: Cycle) -> Cycle {
        if self.home_index(msg.line) == n {
            let run = self.run_spec(
                n,
                HandlerKind::HomeDataRespOwnerReadExcl,
                Fanout::NONE,
                msg.line,
                now,
            );
            self.nodes[n].mem.dir.ownership_ack(msg.line, msg.from);
            let at = run.deliver.unwrap_or(run.end) + self.cfg.lat.fill_overhead;
            self.complete_mshr(n, msg.line, true, msg.payload, at);
            self.drain_pending(n, msg.line, run.end);
            return run.end;
        }
        let initiator_slot = self.nodes[n]
            .mshr
            .get(msg.line)
            .map(|m| self.procs[m.initiator].slot);
        let pres = self.presence(n, msg.line);
        let local_inv = match initiator_slot {
            Some(slot) => pres.other_than(slot),
            None => pres.any(),
        };
        let run = self.run_spec(
            n,
            HandlerKind::ReqDataExclResp,
            Fanout {
                remote_invs: 0,
                local_inv,
            },
            msg.line,
            now,
        );
        if local_inv {
            self.invalidate_local_copies(n, msg.line, initiator_slot);
        }
        let at = run.deliver.unwrap_or(run.end) + self.cfg.lat.fill_overhead;
        self.note_exclusive_grant(n, msg.line, msg.payload, at, msg.acks_pending > 0)
            .expect("DataExclResp without an MSHR");
        run.end
    }

    fn handle_upgrade_ack(&mut self, n: usize, msg: Msg, now: Cycle) -> Cycle {
        let initiator_slot = self.nodes[n]
            .mshr
            .get(msg.line)
            .map(|m| self.procs[m.initiator].slot);
        let pres = self.presence(n, msg.line);
        let local_inv = match initiator_slot {
            Some(slot) => pres.other_than(slot),
            None => pres.any(),
        };
        let run = self.run_spec(
            n,
            HandlerKind::ReqUpgradeAck,
            Fanout {
                remote_invs: 0,
                local_inv,
            },
            msg.line,
            now,
        );
        if local_inv {
            self.invalidate_local_copies(n, msg.line, initiator_slot);
        }
        // Permission grant: the payload stays whatever the cache holds.
        let payload = initiator_slot
            .and_then(|_| {
                let m = self.nodes[n]
                    .mshr
                    .get(msg.line)
                    .expect("UpgradeAck without an MSHR");
                self.procs[m.initiator].l2.payload_of(msg.line)
            })
            .unwrap_or(0);
        self.note_exclusive_grant(n, msg.line, payload, run.end + 2, msg.acks_pending > 0)
            .expect("UpgradeAck without an MSHR");
        run.end
    }

    /// Records an exclusive grant in the MSHR; completes the transaction
    /// if no invalidation-done notice is (still) outstanding.
    fn note_exclusive_grant(
        &mut self,
        n: usize,
        line: LineAddr,
        payload: u64,
        at: Cycle,
        needs_inv_done: bool,
    ) -> Result<(), ()> {
        {
            let mshr = self.nodes[n].mshr.get_mut(line).ok_or(())?;
            mshr.has_data = true;
            mshr.payload = payload;
            mshr.data_time = at;
            mshr.needs_inv_done = needs_inv_done;
            if needs_inv_done && !mshr.inv_done_received {
                // Wait for the InvDone notice (it may arrive on a
                // different source path than the data).
                return Ok(());
            }
        }
        self.complete_mshr(n, line, true, payload, at);
        Ok(())
    }

    fn handle_inv_done(&mut self, n: usize, msg: Msg, now: Cycle) -> Cycle {
        let run = self.run_spec(n, HandlerKind::ReqInvDone, Fanout::NONE, msg.line, now);
        let ready = {
            let mshr = self.nodes[n]
                .mshr
                .get_mut(msg.line)
                .expect("InvDone without an MSHR");
            mshr.inv_done_received = true;
            mshr.has_data.then_some((mshr.payload, mshr.data_time))
        };
        if let Some((payload, data_time)) = ready {
            self.complete_mshr(n, msg.line, true, payload, data_time.max(run.end));
        }
        run.end
    }

    fn handle_sharing_writeback(&mut self, n: usize, msg: Msg, now: Cycle) -> Cycle {
        let run = self.run_spec(
            n,
            HandlerKind::HomeSharingWriteback,
            Fanout::NONE,
            msg.line,
            now,
        );
        self.nodes[n].mem.dir.sharing_writeback(msg.line, msg.from);
        self.memory.insert(msg.line, msg.payload);
        self.drain_pending(n, msg.line, run.end);
        run.end
    }

    fn handle_ownership_ack(&mut self, n: usize, msg: Msg, now: Cycle) -> Cycle {
        let run = self.run_spec(
            n,
            HandlerKind::HomeOwnershipAck,
            Fanout::NONE,
            msg.line,
            now,
        );
        self.nodes[n].mem.dir.ownership_ack(msg.line, msg.from);
        self.drain_pending(n, msg.line, run.end);
        run.end
    }

    fn handle_fwd_miss(&mut self, n: usize, msg: Msg, now: Cycle) -> Cycle {
        let request = self.nodes[n].mem.dir.fwd_miss(msg.line, msg.from);
        let run = self.run_spec(n, HandlerKind::HomeFwdMiss, Fanout::NONE, msg.line, now);
        let payload = *self.memory.get(msg.line).unwrap_or(&0);
        let exclusive = request.kind != DirRequestKind::Read;
        if request.requester.index() == n {
            let at = run.mem_data.unwrap_or(run.end) + self.cfg.lat.fill_overhead;
            self.complete_mshr(n, msg.line, exclusive, payload, at);
        } else {
            let kind = if exclusive {
                MsgKind::DataExclResp
            } else {
                MsgKind::DataResp
            };
            let mut resp = self.msg(n, request.requester, kind, msg.line, request.requester);
            resp.payload = payload;
            self.send(self.send_scratch[0], resp);
        }
        self.drain_pending(n, msg.line, run.end);
        run.end
    }
}
