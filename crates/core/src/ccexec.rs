//! Coherence-controller handler execution.
//!
//! What each protocol handler decides and does is written once, in
//! [`ccn_protocol::exec`]; the model checker runs the same functions.
//! This module supplies the machine's side of them: [`At`] is one node
//! of the machine as an [`exec::Host`]. It times each handler's static
//! steps (`steps::run_steps`) and records the flight hop, sends messages
//! into the network at their step-accurate times, and queues replays at
//! the controller's engines.

use ccn_controller::EngineRole;
use ccn_mem::{LineAddr, NodeId};
use ccn_obs::flight::{Category, FlightEvent, Hop};
use ccn_protocol::directory::{DirRequest, Directory};
use ccn_protocol::exec::{self, Copies, Grant, StepRun};
use ccn_protocol::handlers::{Fanout, HandlerKind, Step, PROBE_STEPS};
use ccn_protocol::{Msg, MsgClass};
use ccn_sim::Cycle;

use crate::machine::Machine;
use crate::steps::{run_steps, CcRequest};

impl Machine {
    pub(crate) fn execute_handler(&mut self, n: usize, engine: usize, req: CcRequest, now: Cycle) {
        // Key the handler to the transaction it serves (the requesting
        // node / line pair) and attribute the time since the previous
        // milestone: dispatch-queue wait for fresh work, protocol stall
        // for replays of Busy/Recall-deferred requests. Write-backs run
        // on behalf of no live transaction.
        let flight_key = match &req {
            CcRequest::Bus { line, .. } => Some((n as u16, line.0)),
            CcRequest::Replay {
                line, requester, ..
            } => Some((requester.0, line.0)),
            CcRequest::Net(msg) => Some((msg.requester.0, msg.line.0)),
            CcRequest::Writeback { .. } => None,
        };
        let node = &mut At {
            m: self,
            n,
            engine: engine as u8,
            flight_key,
        };
        let waited = if matches!(req, CcRequest::Replay { .. }) {
            Category::Stall
        } else {
            Category::Queue
        };
        node.milestone(now, waited);
        let end = match req {
            CcRequest::Bus { kind, line } => exec::handle_bus_request(node, kind, line, now),
            CcRequest::Replay {
                kind,
                line,
                requester,
            } => exec::handle_home_request(node, kind, line, requester, now),
            CcRequest::Net(msg) => exec::handle_net(node, msg, now),
            CcRequest::Writeback { line, payload } => {
                exec::handle_bus_writeback(node, line, payload, now)
            }
        };
        self.nodes[n].cc.complete_handler(engine, now, end);
        if self.nodes[n].cc.has_work(engine) {
            self.arm_cc(end, n, engine, 1);
        }
    }
}

/// Node `n` of the machine, running a handler on one of its engines.
struct At<'a> {
    m: &'a mut Machine,
    n: usize,
    /// The engine running the handler, stamped into its flight-recorder
    /// hops so exported traces get one track per engine.
    engine: u8,
    /// Transaction key `(requesting node, line)` of the handler, so its
    /// occupancy spans land on the right transaction; `None` for a
    /// write-back, which serves no live transaction.
    flight_key: Option<(u16, u64)>,
}

impl At<'_> {
    /// Records a milestone of the transaction the handler serves (no-op
    /// when it serves none the recorder tracks, e.g. write-backs).
    fn milestone(&mut self, time: Cycle, cat: Category) {
        if let Some((node, line)) = self.flight_key {
            self.m.record_flight(FlightEvent::Milestone {
                node,
                line,
                time,
                cat,
            });
        }
    }

    /// Times `steps` at `fanout` on the node as handler `kind`, leaving
    /// their send times in the machine's `send_scratch` (sized in
    /// `Machine::new` for the widest fan-out, so the handler hot path
    /// never allocates), and records the handler's hop.
    fn run_handler(
        &mut self,
        kind: HandlerKind,
        steps: &[Step],
        fanout: Fanout,
        line: LineAddr,
        start: Cycle,
    ) -> StepRun {
        let m = &mut *self.m;
        m.handler_counts[kind.index()] += 1;
        let run = run_steps(
            &mut m.nodes[self.n],
            &m.cfg,
            steps,
            fanout,
            line,
            start,
            &mut m.send_scratch,
        );
        // Every handler execution is one hop. The no-direct-path
        // write-back serves no transaction: its hop carries the evicting
        // node and the line, the key a direct-path write-back's home
        // handler carries, and is recorded like one.
        let (node, txn_line) = self.flight_key.unwrap_or((self.n as u16, line.0));
        m.record_flight(FlightEvent::Hop {
            node,
            line: txn_line,
            hop: Hop {
                time: start,
                at_node: self.n as u16,
                engine: self.engine,
                occupancy: run.end - start,
                handler: kind.paper_label(),
                phase: kind.phase().label(),
            },
        });
        self.milestone(run.end, Category::Occupancy);
        run
    }

    /// The local slot of the processor whose miss opened the node's
    /// transaction on `line`, when asked to spare it.
    fn spared(&self, line: LineAddr, spare_requester: bool) -> Option<u8> {
        if !spare_requester {
            return None;
        }
        let mshr = self.m.nodes[self.n].mshr.get(line)?;
        Some(self.m.procs[mshr.initiator].slot)
    }
}

// The handlers in `exec` are generic over `Host`; the methods marked
// `#[inline]` are the ones the compiler otherwise keeps out of line,
// which costs a call each on the dispatch hot path.
impl exec::Host for At<'_> {
    fn node(&self) -> NodeId {
        NodeId(self.n as u16)
    }

    fn home_of(&self, line: LineAddr) -> NodeId {
        self.m.map.home_of(line)
    }

    fn dir(&mut self) -> &mut Directory {
        &mut self.m.nodes[self.n].mem.dir
    }

    #[inline]
    fn memory(&self, line: LineAddr) -> u64 {
        self.m.memory.get(line).copied().unwrap_or(0)
    }

    fn set_memory(&mut self, line: LineAddr, payload: u64) {
        self.m.memory.insert(line, payload);
    }

    #[inline]
    fn copies(&self, line: LineAddr, spare_requester: bool) -> Copies {
        let pres = self.m.presence(self.n, line);
        Copies {
            held: match self.spared(line, spare_requester) {
                Some(slot) => pres.other_than(slot),
                None => pres.any(),
            },
            owned: pres.owner.is_some(),
        }
    }

    #[inline]
    fn invalidate_copies(&mut self, line: LineAddr, spare_requester: bool) -> Option<u64> {
        let except = self.spared(line, spare_requester);
        self.m.invalidate_local_copies(self.n, line, except)
    }

    fn downgrade_owner(&mut self, line: LineAddr) -> Option<u64> {
        self.m.downgrade_local_owner(self.n, line)
    }

    #[inline]
    fn requester_copy(&self, line: LineAddr) -> Option<u64> {
        let mshr = self.m.nodes[self.n].mshr.get(line)?;
        self.m.procs[mshr.initiator].l2.payload_of(line)
    }

    fn grant(&mut self, line: LineAddr) -> Option<&mut Grant> {
        let mshr = self.m.nodes[self.n].mshr.get_mut(line)?;
        Some(&mut mshr.grant)
    }

    fn complete(&mut self, line: LineAddr, exclusive: bool, payload: u64, at: Cycle) {
        self.m.complete_mshr(self.n, line, exclusive, payload, at);
    }

    #[inline]
    fn run(&mut self, kind: HandlerKind, fanout: Fanout, line: LineAddr, start: Cycle) -> StepRun {
        self.run_handler(kind, kind.steps(), fanout, line, start)
    }

    fn probe(&mut self, kind: HandlerKind, line: LineAddr, start: Cycle) -> StepRun {
        self.run_handler(kind, PROBE_STEPS, Fanout::NONE, line, start)
    }

    fn sent_at(&self, i: usize) -> Option<Cycle> {
        self.m.send_scratch.get(i).copied()
    }

    fn fill_overhead(&self) -> Cycle {
        self.m.cfg.lat.fill_overhead
    }

    #[inline]
    fn send(&mut self, at: Cycle, msg: Msg) {
        self.m.send_msg(at, msg);
    }

    #[inline]
    fn replay(&mut self, line: LineAddr, request: DirRequest, at: Cycle) {
        let class = if request.requester.index() == self.n {
            MsgClass::BusRequest
        } else {
            MsgClass::NetRequest
        };
        self.m.enqueue_cc(
            self.n,
            EngineRole::Local,
            class,
            at,
            CcRequest::Replay {
                kind: request.kind,
                line,
                requester: request.requester,
            },
        );
    }

    fn count_useless_invalidation(&mut self) {
        self.m.useless_invalidations += 1;
    }
}
