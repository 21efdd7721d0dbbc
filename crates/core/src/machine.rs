//! The CC-NUMA machine model: processors, caches, buses, controllers,
//! directory protocol and network, driven by one event loop.
//!
//! See DESIGN.md §4 for the modeling approach: processors are in-order and
//! blocking; cache hits run in a fast path; misses, synchronization,
//! protocol handlers and message deliveries are discrete events; bandwidth
//! resources are FIFO reservation servers.

use ccn_mem::{
    AccessKind, AddressMap, LineAddr, LineState, LineTable, NodeId, PageMap, ProcId, SetAssocCache,
};
use ccn_net::Network;
use ccn_obs::flight::{Category, FlightEvent, FlightRecorder};
use ccn_protocol::directory::{DirRequestKind, DirState, SharerBitmap, SharerSet};
use ccn_protocol::{Msg, MsgClass};
use ccn_sim::{Component, ComponentStats, Cycle, EventQueue, FxHashMap, FxHashSet, Port};
use ccn_workloads::{Application, MachineShape, Op, SegmentProgram};

use ccn_controller::EngineRole;

use crate::config::{ConfigError, PlacementPolicy, SystemConfig};
use crate::node::Node;
use crate::report::{EngineReport, NodeReport, SimReport};
use crate::steps::CcRequest;
use crate::sync::{BarrierOutcome, LockOutcome, SyncState};

/// Simulation events.
#[derive(Debug, Clone)]
pub(crate) enum Event {
    /// Resume (or retry the blocked operation of) a processor.
    ProcResume(u32),
    /// A protocol engine should attempt a dispatch.
    CcWork { node: u16, engine: u8 },
    /// A network message reaches its destination controller.
    MsgArrive(Msg),
}

// ---------------------------------------------------------------
// Ports
//
// Components never schedule raw events at each other; every
// cross-component interaction goes through one of these named, typed
// endpoints. A port is a zero-cost wrapper over the calendar queue (same
// timestamp, same insertion order), so routing through it cannot change
// simulated behavior — it only makes the machine's wiring explicit and
// greppable.
// ---------------------------------------------------------------

/// Wakes (or retries) a processor: bus/controller/sync → processor.
pub(crate) const PROC_RESUME: Port<u32, Event> = Port::new("proc.resume", Event::ProcResume);

/// Kicks a protocol engine's dispatch loop: bus/NI → coherence controller.
pub(crate) const CC_WORK: Port<(u16, u8), Event> = Port::new("node.cc.work", |(node, engine)| {
    Event::CcWork { node, engine }
});

/// Delivers a message at its destination: network → network interface.
pub(crate) const MSG_ARRIVE: Port<Msg, Event> = Port::new("net.deliver", Event::MsgArrive);

/// Which local processors cache a line (the machine-side view that backs
/// both bus snooping and the bus-side duplicate directory).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Presence {
    /// Bitmask of local processor slots holding any copy.
    pub sharers: u64,
    /// Local slot holding the line Modified/Exclusive, if any.
    pub owner: Option<u8>,
}

impl Presence {
    pub(crate) fn any(&self) -> bool {
        self.sharers != 0
    }
    pub(crate) fn add(&mut self, slot: u8) {
        self.sharers |= 1 << slot;
    }
    pub(crate) fn remove(&mut self, slot: u8) {
        self.sharers &= !(1 << slot);
        if self.owner == Some(slot) {
            self.owner = None;
        }
    }
    pub(crate) fn other_than(&self, slot: u8) -> bool {
        self.sharers & !(1 << slot) != 0
    }
}

/// An outstanding node-level transaction (one per line per node).
#[derive(Debug)]
pub(crate) struct Mshr {
    pub kind: DirRequestKind,
    /// Global index of the processor that started the transaction.
    pub initiator: usize,
    /// Other blocked processors waiting on the same line, as a handle
    /// into the node's shared waiter slab (see `Node::waiter_pool`).
    pub waiters: ccn_sim::pool::ListRef,
    /// Data (or upgrade permission) has arrived.
    pub has_data: bool,
    /// The grant said invalidation acks are being collected at the home
    /// (completion additionally requires the `InvDone` notice).
    pub needs_inv_done: bool,
    /// The `InvDone` notice has arrived.
    pub inv_done_received: bool,
    /// Payload carried by the data response.
    pub payload: u64,
    /// When the data became available.
    pub data_time: Cycle,
    /// Whether the grant is exclusive.
    pub exclusive: bool,
}

impl Mshr {
    fn new(kind: DirRequestKind, initiator: usize) -> Self {
        Mshr {
            kind,
            initiator,
            waiters: ccn_sim::pool::ListRef::default(),
            has_data: false,
            needs_inv_done: false,
            inv_done_received: false,
            payload: 0,
            data_time: 0,
            exclusive: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProcState {
    Runnable,
    Blocked,
    Done,
}

#[derive(Debug)]
pub(crate) struct Proc {
    pub(crate) node: usize,
    pub(crate) slot: u8,
    pub(crate) program: SegmentProgram,
    pub(crate) l1: SetAssocCache,
    pub(crate) l2: SetAssocCache,
    pub(crate) pending: Option<Op>,
    pub(crate) state: ProcState,
    pub(crate) local_time: Cycle,
    pub(crate) instructions: u64,
    pub(crate) references: u64,
    pub(crate) instr_snapshot: u64,
    pub(crate) refs_snapshot: u64,
    pub(crate) passed_marker: bool,
    pub(crate) finish_time: Cycle,
}

/// The assembled CC-NUMA machine.
///
/// # Example
///
/// ```
/// use ccnuma::{Machine, SystemConfig};
/// use ccn_workloads::micro::PrivateCompute;
///
/// let cfg = SystemConfig::small();
/// let mut machine = Machine::new(cfg, &PrivateCompute::default()).unwrap();
/// let report = machine.run();
/// assert!(report.exec_cycles > 0);
/// ```
#[derive(Debug)]
pub struct Machine {
    pub(crate) cfg: SystemConfig,
    pub(crate) map: AddressMap,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) procs: Vec<Proc>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) net: Network,
    pub(crate) sync: SyncState,
    /// Next write version per line (global write serial numbers).
    pub(crate) versions: LineTable<u64>,
    /// Payload (version) currently stored in home memory.
    pub(crate) memory: LineTable<u64>,
    pub(crate) marker_count: usize,
    pub(crate) measure_start: Cycle,
    pub(crate) done_count: usize,
    pub(crate) workload_name: String,
    /// Pages already assigned under the first-touch policy.
    pub(crate) touched_pages: FxHashSet<u64>,
    /// End-to-end latency of every completed L2 miss (block to fill),
    /// in cycles: full distribution, machine-wide.
    pub(crate) miss_latency: ccn_sim::Histogram,
    /// Per-node L2 miss latency distributions (indexed by node).
    pub(crate) node_miss_latency: Vec<ccn_sim::Histogram>,
    /// Optional cycle-cadenced sampler over the component stats spine
    /// (see [`Machine::enable_sampler`]).
    pub(crate) sampler: Option<ccn_obs::Sampler>,
    /// Engine index of the protocol handler currently executing; stamped
    /// into flight-recorder hops so exported traces get one track per
    /// engine.
    pub(crate) current_engine: u8,
    /// Optional transaction flight recorder (see
    /// [`enable_flight_recorder`](Machine::enable_flight_recorder)).
    pub(crate) flight: Option<FlightRecorder>,
    /// Transaction key `(requesting node, line)` of the handler currently
    /// executing, so occupancy spans land on the right transaction.
    pub(crate) flight_key: Option<(u16, u64)>,
    /// Invalidation requests that found no local copy (stale directory
    /// bits from silent clean drops).
    pub(crate) useless_invalidations: u64,
    /// Handlers executed (measured phase), indexed by
    /// [`HandlerKind::index`](ccn_protocol::HandlerKind::index). A fixed
    /// array rather than a map: the dispatch path bumps a counter per
    /// event and must not touch the allocator.
    pub(crate) handler_counts: [u64; ccn_protocol::HandlerKind::COUNT],
    /// Reusable step buffer for handler execution: every handler
    /// invocation fills this buffer in place instead of building a fresh
    /// step vector, so the dispatch hot path never allocates.
    pub(crate) step_scratch: ccn_protocol::handlers::StepBuf,
    /// Reusable buffer for barrier releases: [`SyncState::barrier_arrive`]
    /// fills it with the processors to wake, so barrier episodes never
    /// hand ownership of a fresh `Vec` around.
    pub(crate) barrier_scratch: Vec<ProcId>,
}

impl Machine {
    /// Builds a machine running `app` under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is inconsistent.
    ///
    /// # Panics
    ///
    /// Panics if the application builds a number of programs different
    /// from the machine's processor count (a workload bug).
    pub fn new(cfg: SystemConfig, app: &dyn Application) -> Result<Machine, ConfigError> {
        cfg.validate()?;
        let shape = MachineShape {
            nodes: cfg.nodes,
            procs_per_node: cfg.procs_per_node,
            page_bytes: cfg.page_bytes,
            line_bytes: cfg.line_bytes,
        };
        let build = app.build(&shape);
        assert_eq!(
            build.programs.len(),
            cfg.nprocs(),
            "application built {} programs for {} processors",
            build.programs.len(),
            cfg.nprocs()
        );
        let mut pages = PageMap::round_robin(cfg.nodes as u16);
        for &(page, node) in &build.placements {
            pages.place(page, NodeId(node));
        }
        let map = AddressMap::new(cfg.line_bytes, cfg.page_bytes, pages);
        // The functional tables (memory image, version stamps) hold at
        // most one entry per line the workload can touch; sizing them to
        // the program footprint up front keeps steady-state inserts off
        // the allocator. The floor covers synthetic apps whose programs
        // are generated rather than range-based.
        let footprint = build.footprint_lines(cfg.line_bytes).max(1024);
        // Sized past the pending-event high-water mark so the queue's
        // slab never grows mid-run (the zero-alloc gate checks this):
        // the reference workloads peak around 34 concurrently pending
        // events per processor (blocked misses, protocol messages,
        // controller dispatch continuations), measured via
        // `max_pending_events`; 64 leaves comfortable headroom at a few
        // dozen bytes per slot.
        let nprocs = cfg.nprocs();
        let mut queue = EventQueue::with_capacity(nprocs * 64);
        let procs: Vec<Proc> = build
            .programs
            .into_iter()
            .enumerate()
            .map(|(i, segments)| {
                PROC_RESUME.send(&mut queue, 0, i as u32);
                Proc {
                    node: i / cfg.procs_per_node,
                    slot: (i % cfg.procs_per_node) as u8,
                    program: SegmentProgram::new(segments),
                    l1: SetAssocCache::new(cfg.l1_geometry()),
                    l2: SetAssocCache::new(cfg.l2_geometry()),
                    pending: None,
                    state: ProcState::Runnable,
                    local_time: 0,
                    instructions: 0,
                    references: 0,
                    instr_snapshot: 0,
                    refs_snapshot: 0,
                    passed_marker: false,
                    finish_time: 0,
                }
            })
            .collect();
        let nodes: Vec<Node> = (0..cfg.nodes)
            .map(|n| Node::new(&cfg, NodeId(n as u16)))
            .collect();
        let net = Network::new(cfg.nodes, cfg.net);
        let sync = SyncState::new(
            cfg.nprocs(),
            cfg.lat.barrier,
            cfg.lat.lock_acquire,
            cfg.lat.lock_handoff,
        );
        let nodes_len = nodes.len();
        Ok(Machine {
            cfg,
            map,
            queue,
            procs,
            nodes,
            net,
            sync,
            versions: LineTable::with_capacity(footprint),
            memory: LineTable::with_capacity(footprint),
            marker_count: 0,
            measure_start: 0,
            done_count: 0,
            workload_name: app.name(),
            touched_pages: FxHashSet::default(),
            miss_latency: ccn_sim::Histogram::new(),
            node_miss_latency: vec![ccn_sim::Histogram::new(); nodes_len],
            sampler: None,
            current_engine: 0,
            flight: None,
            flight_key: None,
            useless_invalidations: 0,
            handler_counts: [0; ccn_protocol::HandlerKind::COUNT],
            step_scratch: ccn_protocol::handlers::StepBuf::new(),
            barrier_scratch: Vec::with_capacity(nprocs),
        })
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the simulation deadlocks (events drain while processors
    /// are still blocked) — always a simulator or workload bug.
    pub fn run(&mut self) -> SimReport {
        self.run_with_event_limit(u64::MAX)
    }

    /// The same as [`run`](Machine::run): the simulator has one event
    /// loop, and `_threads` is ignored. Kept for the host-time benchmark's
    /// `ocean-slownet-t2` workload, which still calls it.
    pub fn run_parallel(&mut self, _threads: usize) -> SimReport {
        self.run()
    }

    /// Like [`run`](Machine::run), but panics with diagnostics after
    /// `max_events` events — a watchdog for tests.
    ///
    /// # Panics
    ///
    /// Panics on deadlock or when the event budget is exhausted.
    pub fn run_with_event_limit(&mut self, max_events: u64) -> SimReport {
        let mut events = 0u64;
        while let Some((t, ev)) = self.queue.pop() {
            // Take any samples that came due strictly before this event
            // dispatches: the observed state is a pure function of the
            // event history, so timelines are seed-deterministic.
            if self.sampler.is_some() {
                self.take_due_samples(t);
            }
            events += 1;
            if events > max_events {
                panic!(
                    "event budget exhausted at cycle {t}: queue={} done={}/{} event={ev:?} \
                     mshrs={:?}",
                    self.queue.len(),
                    self.done_count,
                    self.procs.len(),
                    self.nodes.iter().map(|n| n.mshr.len()).collect::<Vec<_>>(),
                );
            }
            match ev {
                Event::ProcResume(p) => self.run_proc(p as usize, t),
                Event::CcWork { node, engine } => self.cc_work(node as usize, engine as usize, t),
                Event::MsgArrive(msg) => self.msg_arrive(msg, t),
            }
        }
        // The measured phase ends when the event loop drains; report
        // assembly below allocates freely outside the alloc gate.
        ccn_sim::alloc_gate::phase_end();
        if self.done_count != self.procs.len() {
            let stuck: Vec<usize> = self
                .procs
                .iter()
                .enumerate()
                .filter(|(_, p)| p.state != ProcState::Done)
                .map(|(i, _)| i)
                .collect();
            panic!(
                "simulation drained with {} processors not done (stuck: {stuck:?}; \
                 sync blocked: {})",
                stuck.len(),
                self.sync.anyone_blocked()
            );
        }
        self.build_report()
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Total number of events scheduled over the run's lifetime (the
    /// denominator of events-per-second throughput measurements).
    pub fn events_scheduled(&self) -> u64 {
        self.queue.total_scheduled()
    }

    /// High-water mark of concurrently pending events in the event
    /// queue (capacity planning for the zero-alloc steady state).
    pub fn max_pending_events(&self) -> usize {
        self.queue.max_pending()
    }

    /// Samples the stats spine at the sampler's cadence: once per due
    /// cycle at or before `now`, attributing each sample to its due cycle.
    fn take_due_samples(&mut self, now: Cycle) {
        while let Some(due) = self.sampler.as_ref().and_then(|s| s.due_at(now)) {
            let snapshot = self.component_stats();
            self.sampler
                .as_mut()
                .expect("sampler checked above")
                .record(due, &snapshot);
        }
    }

    /// Samples the component stats spine every `every` cycles during the
    /// measured phase into a columnar [`Timeline`](ccn_obs::Timeline)
    /// (see [`timeline`](Machine::timeline)). Call before
    /// [`run`](Machine::run). Warm-up samples are discarded when the
    /// measured phase starts.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn enable_sampler(&mut self, every: Cycle) {
        self.sampler = Some(ccn_obs::Sampler::new(every));
    }

    /// The sampled component time series (empty unless
    /// [`enable_sampler`](Machine::enable_sampler) was called).
    pub fn timeline(&self) -> Option<&ccn_obs::Timeline> {
        self.sampler.as_ref().map(|s| s.timeline())
    }

    /// Records every coherence transaction's causal span events into a
    /// [`FlightRecorder`] retaining the most recent `capacity` completed
    /// transactions — each with an exact cycle decomposition into bus,
    /// queueing, occupancy, network and protocol-stall components that
    /// sums to its recorded miss latency. Every protocol-handler
    /// execution of the measured phase is recorded: as a hop of its
    /// transaction, or in a second ring of the most recent `capacity`
    /// hop-only records when it serves no live transaction. Strictly
    /// observational; call before [`run`](Machine::run).
    pub fn enable_flight_recorder(&mut self, capacity: usize) {
        self.flight = Some(FlightRecorder::new(capacity, self.cfg.nprocs()));
    }

    /// The transaction flight recorder, if
    /// [`enable_flight_recorder`](Machine::enable_flight_recorder) was
    /// called.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    pub(crate) fn record_flight(&mut self, event: FlightEvent) {
        if let Some(recorder) = &mut self.flight {
            recorder.apply(event);
        }
    }

    /// Records a milestone for the transaction the currently-executing
    /// handler serves (no-op when the handler runs on a transaction the
    /// recorder is not tracking, e.g. evictions and recalls).
    pub(crate) fn record_flight_milestone(&mut self, time: Cycle, cat: Category) {
        if let Some((node, line)) = self.flight_key {
            self.record_flight(FlightEvent::Milestone {
                node,
                line,
                time,
                cat,
            });
        }
    }

    /// Marks `engine` as the executor of the handler about to run, so
    /// its flight-recorder hop carries the right per-engine track.
    pub(crate) fn set_current_engine(&mut self, engine: u8) {
        self.current_engine = engine;
    }

    // ---------------------------------------------------------------
    // Processor execution
    // ---------------------------------------------------------------

    fn run_proc(&mut self, p: usize, now: Cycle) {
        if self.procs[p].state == ProcState::Done {
            return;
        }
        self.procs[p].state = ProcState::Runnable;
        let mut t = now.max(self.procs[p].local_time);
        // Direct-execution lookahead bound: a processor runs at most this
        // far ahead of the event clock inside one event, so the coherence
        // state it observes is never more than ~one miss latency stale.
        // (Unbounded lookahead would let a long compute phase reorder
        // against concurrent writes.)
        let horizon = t + 200;
        loop {
            if t >= horizon {
                self.procs[p].local_time = t;
                PROC_RESUME.send(&mut self.queue, t, p as u32);
                return;
            }
            // An op taken from `pending` is a *retry* of a blocked access:
            // its instruction was already counted when first issued.
            let (op, is_retry) = match self.procs[p].pending.take() {
                Some(op) => (op, true),
                None => match self.procs[p].program.next_op() {
                    Some(op) => (op, false),
                    None => {
                        let proc = &mut self.procs[p];
                        proc.state = ProcState::Done;
                        proc.finish_time = t;
                        proc.local_time = t;
                        self.done_count += 1;
                        return;
                    }
                },
            };
            match op {
                Op::Compute(c) => {
                    t += c as Cycle;
                    self.procs[p].instructions += c as u64;
                }
                Op::Read(addr) => {
                    if !is_retry {
                        self.procs[p].instructions += 1;
                        self.procs[p].references += 1;
                    }
                    let line = self.map.line_of(addr);
                    let proc = &mut self.procs[p];
                    if proc.l1.access(line, AccessKind::Read).readable() {
                        t += self.cfg.lat.l1_hit;
                        continue;
                    }
                    let l2_state = proc.l2.access(line, AccessKind::Read);
                    if l2_state.readable() {
                        t += self.cfg.lat.l2_hit;
                        let payload = proc.l2.payload_of(line).unwrap_or(0);
                        let _ = proc.l1.fill(line, LineState::Shared, payload);
                        continue;
                    }
                    t += self.cfg.lat.l2_miss_detect;
                    self.procs[p].local_time = t;
                    self.procs[p].pending = Some(op);
                    self.procs[p].state = ProcState::Blocked;
                    self.initiate_miss(p, line, false, l2_state, t);
                    return;
                }
                Op::Write(addr) => {
                    if !is_retry {
                        self.procs[p].instructions += 1;
                        self.procs[p].references += 1;
                    }
                    let line = self.map.line_of(addr);
                    let l2_state = self.procs[p].l2.access(line, AccessKind::Write);
                    if l2_state.writable() {
                        // Promote E->M silently and stamp a new version.
                        self.commit_write(p, line);
                        t += self.cfg.lat.l1_hit;
                        continue;
                    }
                    t += self.cfg.lat.l2_miss_detect;
                    self.procs[p].local_time = t;
                    self.procs[p].pending = Some(op);
                    self.procs[p].state = ProcState::Blocked;
                    self.initiate_miss(p, line, true, l2_state, t);
                    return;
                }
                Op::Barrier(id) => {
                    let mut released = std::mem::take(&mut self.barrier_scratch);
                    match self
                        .sync
                        .barrier_arrive(id, ProcId(p as u32), t, &mut released)
                    {
                        BarrierOutcome::Wait => {
                            self.barrier_scratch = released;
                            self.procs[p].local_time = t;
                            self.procs[p].state = ProcState::Blocked;
                            return;
                        }
                        BarrierOutcome::Release { at } => {
                            let now = self.queue.now();
                            for &w in &released {
                                PROC_RESUME.send(&mut self.queue, at.max(now), w.0);
                            }
                            self.barrier_scratch = released;
                            t = at.max(t);
                        }
                    }
                }
                Op::Lock(id) => match self.sync.lock(id, ProcId(p as u32), t) {
                    LockOutcome::Acquired { at } => t = at,
                    LockOutcome::Queued => {
                        self.procs[p].local_time = t;
                        self.procs[p].state = ProcState::Blocked;
                        return;
                    }
                },
                Op::Unlock(id) => {
                    t += 1;
                    if let Some((next, at)) = self.sync.unlock(id, t) {
                        let now = self.queue.now();
                        PROC_RESUME.send(&mut self.queue, at.max(now), next.0);
                    }
                }
                Op::StartMeasurement => {
                    if !self.procs[p].passed_marker {
                        self.procs[p].passed_marker = true;
                        self.marker_count += 1;
                        if self.marker_count == self.procs.len() {
                            self.start_measurement(t);
                        }
                    }
                }
            }
        }
    }

    /// Stamps a completed store: bumps the line's global version and
    /// updates the writing processor's cached payload. A writable copy's
    /// cached payload always equals the line's latest version (any staler
    /// copy would have been invalidated), which the counter asserts.
    fn commit_write(&mut self, p: usize, line: LineAddr) {
        let cached = self.procs[p].l2.payload_of(line).unwrap_or(0);
        let version = self.versions.get_or_insert_with(line, || 0);
        *version += 1;
        debug_assert_eq!(
            *version,
            cached + 1,
            "writable copy of {line} held version {cached}, global counter says {}",
            *version - 1
        );
        let v = *version;
        let proc = &mut self.procs[p];
        if proc.l2.state_of(line) == LineState::Exclusive {
            proc.l2.set_state(line, LineState::Modified);
        }
        proc.l2.set_payload(line, v);
    }

    /// Resets all statistics at the start of the measured phase.
    fn start_measurement(&mut self, t: Cycle) {
        ccn_sim::alloc_gate::phase_start();
        self.measure_start = t;
        for proc in self.procs.iter_mut() {
            proc.instr_snapshot = proc.instructions;
            proc.refs_snapshot = proc.references;
            proc.l1.reset_stats();
            proc.l2.reset_stats();
        }
        for node in self.nodes.iter_mut() {
            Component::reset_stats(node);
        }
        self.useless_invalidations = 0;
        self.handler_counts = [0; ccn_protocol::HandlerKind::COUNT];
        self.miss_latency = ccn_sim::Histogram::new();
        for h in self.node_miss_latency.iter_mut() {
            *h = ccn_sim::Histogram::new();
        }
        // Aggregate flight-recorder state resets with the histograms it
        // mirrors; in-flight transactions stay live (their fills land in
        // the measured miss-latency histograms, so the recorder keeps
        // them too).
        self.record_flight(FlightEvent::MeasureReset);
        Component::reset_stats(&mut self.net);
        SyncState::reset_stats(&mut self.sync);
        if let Some(sampler) = &mut self.sampler {
            sampler.arm(t);
        }
    }

    // ---------------------------------------------------------------
    // Miss path
    // ---------------------------------------------------------------

    fn initiate_miss(
        &mut self,
        p: usize,
        line: LineAddr,
        write: bool,
        l2_state: LineState,
        t: Cycle,
    ) {
        let n = self.procs[p].node;
        if self.cfg.placement == PlacementPolicy::FirstTouch {
            // The first access to a page anywhere in the machine homes it
            // on the toucher's node (explicit hints take precedence).
            let page = self.map.page_of_line(line);
            if self.touched_pages.insert(page) && !self.map.pages().is_placed(page) {
                self.map.pages_mut().place(page, NodeId(n as u16));
            }
        }
        {
            let node = &mut self.nodes[n];
            if let Some(mshr) = node.mshr.get_mut(line) {
                node.waiter_pool.push_back(&mut mshr.waiters, p as u32);
                return;
            }
        }
        let strobe = self.nodes[n].bus.address_phase(t);
        let snoop = self.nodes[n].bus.snoop_done(strobe);
        let home = self.map.home_of(line);
        let local_home = home.index() == n;
        let pres = self.nodes[n]
            .presence
            .get(line)
            .copied()
            .unwrap_or_default();
        let slot = self.procs[p].slot;
        let kind = if !write {
            DirRequestKind::Read
        } else if l2_state == LineState::Shared {
            DirRequestKind::Upgrade
        } else {
            DirRequestKind::ReadExcl
        };
        // The transaction begins here: the miss is detected and the
        // processor blocked. Fast paths below complete without further
        // milestones (pure bus service); the slow path adds one per hop.
        let op = match kind {
            DirRequestKind::Read => ccn_bus::BusOp::Read,
            DirRequestKind::Upgrade => ccn_bus::BusOp::Upgrade,
            DirRequestKind::ReadExcl => ccn_bus::BusOp::ReadExcl,
        };
        self.record_flight(FlightEvent::Begin {
            node: n as u16,
            proc: p as u32,
            line: line.0,
            time: t,
            op: op.label(),
        });
        // 1) Intra-node service from another local cache. Fill timing
        // follows the granted data-bus slot, so big SMP nodes feel their
        // shared-bus bandwidth.
        if let Some(owner_slot) = pres.owner {
            debug_assert_ne!(owner_slot, slot, "a proc cannot miss a line it owns");
            let owner_proc = self.proc_index(n, owner_slot);
            let owner_state = self.procs[owner_proc].l2.state_of(line);
            let payload = self.procs[owner_proc].l2.payload_of(line).unwrap_or(0);
            let xfer = self.nodes[n]
                .bus
                .data_transfer(snoop + self.cfg.lat.cache_to_cache, self.cfg.line_bytes);
            let c2c_fill = xfer.critical + self.cfg.lat.fill_overhead;
            if !write && local_home {
                // MESI downgrade: memory captures the dirty data.
                if owner_state == LineState::Modified {
                    self.memory.insert(line, payload);
                }
                self.procs[owner_proc].l2.set_state(line, LineState::Shared);
                self.nodes[n]
                    .presence
                    .get_or_insert_with(line, Presence::default)
                    .owner = None;
                self.fill_proc(p, line, LineState::Shared, payload, c2c_fill);
            } else {
                // Ownership migrates between local caches (remote lines
                // keep node-level dirtiness; local writes take the line).
                self.invalidate_proc_copy(owner_proc, line);
                self.fill_proc(p, line, LineState::Modified, payload, c2c_fill);
            }
            return;
        }
        if !write && pres.any() {
            // Shared intervention from a local S copy (no engine, no net).
            let donor_slot = (0..self.cfg.procs_per_node as u8)
                .find(|s| pres.sharers & (1 << s) != 0)
                .expect("presence bitmask non-empty");
            let donor = self.proc_index(n, donor_slot);
            let payload = self.procs[donor].l2.payload_of(line).unwrap_or(0);
            let xfer = self.nodes[n]
                .bus
                .data_transfer(snoop + self.cfg.lat.cache_to_cache, self.cfg.line_bytes);
            self.fill_proc(
                p,
                line,
                LineState::Shared,
                payload,
                xfer.critical + self.cfg.lat.fill_overhead,
            );
            return;
        }
        if local_home {
            let busy = self.nodes[n].mem.dir.is_busy(line);
            let dir_state = self.nodes[n].mem.dir.state_of(line);
            if !write && !busy && !matches!(dir_state, DirState::Dirty(_)) {
                // Memory supplies; the duplicate directory answers on the
                // bus without occupying a protocol engine.
                let bank = self.nodes[n]
                    .mem
                    .banks
                    .access(line, strobe + self.cfg.bus.address_slot_cycles);
                let first = bank + self.cfg.lat.mem_access;
                let xfer = self.nodes[n].bus.data_transfer(first, self.cfg.line_bytes);
                let fill_at = xfer.critical + self.cfg.lat.fill_overhead;
                let exclusive = dir_state == DirState::Uncached && !pres.any();
                let payload = self.memory.get(line).copied().unwrap_or(0);
                let state = if exclusive {
                    LineState::Exclusive
                } else {
                    LineState::Shared
                };
                self.fill_proc(p, line, state, payload, fill_at);
                return;
            }
            if write && !busy && dir_state == DirState::Uncached {
                // No remote copies: the bus transaction invalidates local
                // S copies and memory (or the upgrade) supplies.
                self.invalidate_local_copies(n, line, Some(slot));
                if kind == DirRequestKind::Upgrade {
                    let payload = self.procs[p].l2.payload_of(line).unwrap_or(0);
                    self.fill_proc(p, line, LineState::Exclusive, payload, snoop + 2);
                } else {
                    let bank = self.nodes[n]
                        .mem
                        .banks
                        .access(line, strobe + self.cfg.bus.address_slot_cycles);
                    let first = bank + self.cfg.lat.mem_access;
                    let xfer = self.nodes[n].bus.data_transfer(first, self.cfg.line_bytes);
                    let payload = self.memory.get(line).copied().unwrap_or(0);
                    self.fill_proc(
                        p,
                        line,
                        LineState::Exclusive,
                        payload,
                        xfer.critical + self.cfg.lat.fill_overhead,
                    );
                }
                return;
            }
        }

        // 2) The coherence controller takes over.
        if kind == DirRequestKind::Upgrade {
            self.procs[p].l2.pin(line);
        }
        self.nodes[n].mshr.insert(line, Mshr::new(kind, p));
        let role = if local_home {
            EngineRole::Local
        } else {
            EngineRole::Remote
        };
        let latched = snoop + self.cfg.lat.cc_request_latch;
        // Issue → bus latch rides the local bus (arbitration + snoop +
        // controller latch); everything after is queueing at the engine.
        self.record_flight(FlightEvent::Milestone {
            node: n as u16,
            line: line.0,
            time: latched,
            cat: Category::Bus,
        });
        self.enqueue_cc(
            n,
            role,
            MsgClass::BusRequest,
            latched,
            CcRequest::Bus { kind, line },
        );
    }

    // ---------------------------------------------------------------
    // Shared infrastructure used by the miss path and the handlers
    // (the handler bodies themselves live in ccexec.rs)
    // ---------------------------------------------------------------

    pub(crate) fn proc_index(&self, node: usize, slot: u8) -> usize {
        node * self.cfg.procs_per_node + slot as usize
    }

    /// Injects `msg` into the network at `time` and schedules its
    /// arrival — the single chokepoint every network send goes through.
    pub(crate) fn send_msg(&mut self, time: Cycle, msg: Msg) {
        let bytes = msg.size_bytes(self.cfg.line_bytes);
        let arrival = self.net.send(time, msg.from, msg.to, bytes);
        MSG_ARRIVE.send(&mut self.queue, arrival, msg);
    }

    pub(crate) fn enqueue_cc(
        &mut self,
        n: usize,
        role: EngineRole,
        class: MsgClass,
        time: Cycle,
        req: CcRequest,
    ) {
        let line = match &req {
            CcRequest::Bus { line, .. }
            | CcRequest::Replay { line, .. }
            | CcRequest::Writeback { line, .. } => *line,
            CcRequest::Net(msg) => msg.line,
        };
        let engine = self.nodes[n].cc.engine_for(role, line.0);
        let idle = self.nodes[n].cc.enqueue(role, line.0, class, time, req);
        // Wake the engine now if idle, or when it frees up otherwise: the
        // in-flight handler was scheduled before this request arrived and
        // cannot know about it.
        let wake = if idle {
            time
        } else {
            self.nodes[n].cc.busy_until(engine).max(time)
        };
        let at = wake.max(self.queue.now());
        CC_WORK.send(&mut self.queue, at, (n as u16, engine as u8));
    }

    fn cc_work(&mut self, n: usize, engine: usize, now: Cycle) {
        match self.nodes[n].cc.dispatch(engine, now) {
            Some((req, _class)) => self.execute_handler(n, engine, req, now),
            None => {
                // Engine busy (or spurious). Re-arm at the release time if
                // work is pending.
                let busy_until = self.nodes[n].cc.busy_until(engine);
                if busy_until > now && self.nodes[n].cc.has_work(engine) {
                    CC_WORK.send(&mut self.queue, busy_until, (n as u16, engine as u8));
                }
            }
        }
    }

    fn msg_arrive(&mut self, msg: Msg, _now: Cycle) {
        let n = msg.to.index();
        let local_home = self.map.home_of(msg.line).index() == n;
        let role = if local_home {
            EngineRole::Local
        } else {
            EngineRole::Remote
        };
        // The message is already at the NI; it enters the dispatch queue
        // immediately.
        let time = self.queue.now();
        // Wire time up to this delivery belongs to the network; the
        // requester/line pair keys the transaction the message serves
        // (a no-op for untracked traffic such as write-backs).
        self.record_flight(FlightEvent::Milestone {
            node: msg.requester.0,
            line: msg.line.0,
            time,
            cat: Category::Net,
        });
        self.enqueue_cc(n, role, msg.kind.class(), time, CcRequest::Net(msg));
    }

    /// Installs a line in a processor's L2 (or upgrades its state),
    /// updates presence, handles the eviction, and wakes the processor.
    pub(crate) fn fill_proc(
        &mut self,
        p: usize,
        line: LineAddr,
        state: LineState,
        payload: u64,
        at: Cycle,
    ) {
        let n = self.procs[p].node;
        let slot = self.procs[p].slot;
        if at > self.procs[p].local_time {
            let latency = at - self.procs[p].local_time;
            self.miss_latency.record(latency);
            self.node_miss_latency[n].record(latency);
            // Completion shares the histogram's guard, so the recorder's
            // transaction count and latencies agree with it exactly.
            self.record_flight(FlightEvent::Complete {
                node: n as u16,
                line: line.0,
                time: at,
            });
        } else {
            // A fill that costs the processor no cycles records no miss
            // latency; the transaction begun at issue still ends here.
            self.record_flight(FlightEvent::Close {
                node: n as u16,
                line: line.0,
            });
        }
        self.procs[p].l2.unpin(line);
        let eviction = if self.procs[p].l2.state_of(line) != LineState::Invalid {
            // Upgrade-style completion: permission only.
            self.procs[p].l2.set_state(line, state);
            None
        } else {
            self.procs[p].l2.fill(line, state, payload)
        };
        if let Some(ev) = eviction {
            self.handle_eviction(p, ev.line, ev.state, ev.payload, at);
        }
        let entry = self.nodes[n]
            .presence
            .get_or_insert_with(line, Presence::default);
        entry.add(slot);
        if state.writable() {
            entry.owner = Some(slot);
        }
        // Complete the blocked access atomically with the fill, as the
        // hardware does. Without this, another local processor could
        // migrate the line away between the fill and the retry — a
        // zero-progress livelock.
        let consumed = match self.procs[p].pending {
            Some(Op::Read(a)) if self.map.line_of(a) == line && state.readable() => true,
            Some(Op::Write(a)) if self.map.line_of(a) == line && state.writable() => {
                self.commit_write(p, line);
                true
            }
            _ => false,
        };
        if consumed {
            self.procs[p].pending = None;
        }
        let wake = at.max(self.queue.now());
        PROC_RESUME.send(&mut self.queue, wake, p as u32);
    }

    /// Removes one processor's copy (L1 + L2 + presence + pin).
    pub(crate) fn invalidate_proc_copy(&mut self, p: usize, line: LineAddr) -> Option<u64> {
        let n = self.procs[p].node;
        let slot = self.procs[p].slot;
        self.procs[p].l1.invalidate(line);
        self.procs[p].l2.unpin(line);
        let out = self.procs[p]
            .l2
            .invalidate(line)
            .map(|(_, payload)| payload);
        if let Some(entry) = self.nodes[n].presence.get_mut(line) {
            entry.remove(slot);
            if !entry.any() {
                self.nodes[n].presence.remove(line);
            }
        }
        out
    }

    /// Invalidates every local copy of `line` on node `n` except the one
    /// held by `except`; returns the payload of a Modified copy if one was
    /// destroyed.
    pub(crate) fn invalidate_local_copies(
        &mut self,
        n: usize,
        line: LineAddr,
        except: Option<u8>,
    ) -> Option<u64> {
        let pres = match self.nodes[n].presence.get(line) {
            Some(p) => *p,
            None => return None,
        };
        let mut dirty_payload = None;
        for slot in 0..self.cfg.procs_per_node as u8 {
            if pres.sharers & (1 << slot) == 0 || except == Some(slot) {
                continue;
            }
            let p = self.proc_index(n, slot);
            let was_dirty = self.procs[p].l2.state_of(line) == LineState::Modified;
            if let Some(payload) = self.invalidate_proc_copy(p, line) {
                if was_dirty {
                    dirty_payload = Some(payload);
                }
            }
        }
        dirty_payload
    }

    /// Downgrades the local Modified owner of `line` to Shared and returns
    /// its payload (the caller updates memory).
    pub(crate) fn downgrade_local_owner(&mut self, n: usize, line: LineAddr) -> Option<u64> {
        let owner_slot = self.nodes[n].presence.get(line)?.owner?;
        let p = self.proc_index(n, owner_slot);
        let payload = self.procs[p].l2.payload_of(line)?;
        self.procs[p].l2.set_state(line, LineState::Shared);
        self.nodes[n]
            .presence
            .get_mut(line)
            .expect("presence")
            .owner = None;
        Some(payload)
    }

    /// Handles an L2 eviction: presence bookkeeping plus the dirty
    /// write-back (bus transaction for local lines, direct-data-path
    /// network write-back for remote lines).
    pub(crate) fn handle_eviction(
        &mut self,
        p: usize,
        line: LineAddr,
        state: LineState,
        payload: u64,
        t: Cycle,
    ) {
        let n = self.procs[p].node;
        let slot = self.procs[p].slot;
        self.procs[p].l1.invalidate(line);
        if let Some(entry) = self.nodes[n].presence.get_mut(line) {
            entry.remove(slot);
            if !entry.any() {
                self.nodes[n].presence.remove(line);
            }
        }
        if state != LineState::Modified {
            // Clean copies drop silently unless the hint extension is on
            // and this was the node's last copy of a remote line.
            let home = self.map.home_of(line);
            if self.cfg.replacement_hints
                && home.index() != n
                && !self.nodes[n].presence.contains_key(line)
            {
                let msg = Msg {
                    kind: ccn_protocol::MsgKind::ReplacementHint,
                    line,
                    from: NodeId(n as u16),
                    to: home,
                    requester: NodeId(n as u16),
                    acks_pending: 0,
                    payload: 0,
                };
                self.send_msg(t, msg);
            }
            return;
        }
        let home = self.map.home_of(line);
        let strobe = self.nodes[n].bus.address_phase(t);
        let xfer = self.nodes[n].bus.data_transfer(
            strobe + self.cfg.bus.address_slot_cycles,
            self.cfg.line_bytes,
        );
        if home.index() == n {
            // Local write-back: memory captures the data on the bus.
            self.memory.insert(line, payload);
            self.nodes[n]
                .mem
                .banks
                .access(line, strobe + self.cfg.bus.address_slot_cycles);
        } else if self.cfg.direct_data_path {
            // Direct data path: bus interface forwards straight to the
            // network interface without a protocol-engine dispatch.
            let msg = Msg {
                kind: ccn_protocol::MsgKind::WritebackReq,
                line,
                from: NodeId(n as u16),
                to: home,
                requester: NodeId(n as u16),
                acks_pending: 0,
                payload,
            };
            self.send_msg(xfer.end, msg);
        } else {
            // Ablation: no direct path — the write-back competes for a
            // protocol engine like any other bus-side request.
            self.enqueue_cc(
                n,
                EngineRole::Remote,
                MsgClass::BusRequest,
                xfer.end,
                CcRequest::Writeback { line, payload },
            );
        }
    }

    /// Completes the node-level transaction on `line`: fills the
    /// initiator's cache, wakes all waiters.
    pub(crate) fn complete_mshr(
        &mut self,
        n: usize,
        line: LineAddr,
        exclusive: bool,
        payload: u64,
        at: Cycle,
    ) {
        let mshr = self.nodes[n]
            .mshr
            .remove(line)
            .unwrap_or_else(|| panic!("response for {line} without an MSHR on node {n}"));
        debug_assert!(
            mshr.kind == DirRequestKind::Read || exclusive,
            "a write transaction must complete with an exclusive grant"
        );
        let local_home = self.map.home_of(line).index() == n;
        let state = if !exclusive {
            LineState::Shared
        } else if local_home {
            LineState::Exclusive
        } else {
            LineState::Modified
        };
        self.fill_proc(mshr.initiator, line, state, payload, at);
        let mut waiters = mshr.waiters;
        while let Some(w) = self.nodes[n].waiter_pool.pop_front(&mut waiters) {
            let wake = at.max(self.queue.now());
            PROC_RESUME.send(&mut self.queue, wake, w);
        }
    }

    // ---------------------------------------------------------------
    // Reporting and invariants
    // ---------------------------------------------------------------

    /// One canonical walk over every component's statistics: the machine
    /// at the root, one subtree per node (bus, coherence controller,
    /// memory controller), then the network and the synchronization
    /// runtime. This is the same spine the measured-phase reset walks and
    /// `build_report` aggregates — a debugging/analysis view that needs no
    /// per-counter plumbing to stay complete.
    pub fn component_stats(&self) -> ComponentStats {
        let mut root = ComponentStats::named("machine");
        for (i, node) in self.nodes.iter().enumerate() {
            let mut snap = node.stats_snapshot();
            snap.name = format!("node{i}");
            root.children.push(snap);
        }
        root.children.push(self.net.stats_snapshot());
        root.children.push(self.sync.stats_snapshot());
        root
    }

    fn build_report(&self) -> SimReport {
        let end = self.procs.iter().map(|p| p.finish_time).max().unwrap_or(0);
        let exec_cycles = end.saturating_sub(self.measure_start);
        let instructions: u64 = self
            .procs
            .iter()
            .map(|p| p.instructions - p.instr_snapshot)
            .sum();
        let references: u64 = self
            .procs
            .iter()
            .map(|p| p.references - p.refs_snapshot)
            .sum();
        let l2_misses: u64 = self
            .procs
            .iter()
            .map(|p| p.l2.stats().read_misses + p.l2.stats().write_misses)
            .sum();
        let mut nodes = Vec::with_capacity(self.nodes.len());
        let mut cc_arrivals = 0;
        let mut cc_handled = 0;
        let mut cc_occupancy = 0;
        let mut delay_sum = 0.0;
        let mut delay_n = 0u64;
        let mut cc_queue_delay_hist = ccn_sim::Histogram::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let stats = node.cc.stats();
            cc_arrivals += stats.arrivals;
            cc_handled += stats.handled;
            cc_occupancy += stats.occupancy;
            delay_sum += stats.queue_delay.sum();
            delay_n += stats.queue_delay.count();
            cc_queue_delay_hist.merge(&stats.queue_delay_hist);
            let engines = (0..node.cc.engines())
                .map(|e| {
                    let es = node.cc.engine_stats(e);
                    let role = node.cc.policy().role_label(e);
                    EngineReport {
                        role,
                        arrivals: es.arrivals,
                        handled: es.handled,
                        occupancy: es.occupancy,
                        queue_delay_ns: ccn_sim::cycles_to_ns(1) * es.queue_delay.mean(),
                        class_arrivals: es.class_arrivals,
                    }
                })
                .collect();
            nodes.push(NodeReport {
                arrivals: stats.arrivals,
                handled: stats.handled,
                occupancy: stats.occupancy,
                queue_delay_ns: ccn_sim::cycles_to_ns(1) * stats.queue_delay.mean(),
                queue_delay_hist: stats.queue_delay_hist,
                miss_latency_hist: self.node_miss_latency[i].clone(),
                engines,
            });
        }
        let queue_delay_ns = if delay_n == 0 {
            0.0
        } else {
            ccn_sim::cycles_to_ns(1) * delay_sum / delay_n as f64
        };
        SimReport {
            architecture: ccn_controller::arch::report_label(self.cfg.engines, self.cfg.engine),
            workload: self.workload_name.clone(),
            exec_cycles,
            instructions,
            cc_arrivals,
            cc_handled,
            cc_occupancy,
            queue_delay_ns,
            nodes,
            l2_misses,
            references,
            messages: self.net.messages(),
            barriers: self.sync.barrier_episodes(),
            locks: self.sync.lock_stats(),
            handler_counts: {
                let mut counts: Vec<(String, u64)> = ccn_protocol::HandlerKind::all()
                    .iter()
                    .zip(self.handler_counts.iter())
                    .filter(|&(_, &v)| v != 0)
                    .map(|(k, &v)| (k.paper_label().to_string(), v))
                    .collect();
                // Sort by label as the tie-break so the report order is
                // fully deterministic, not an artifact of map iteration.
                counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                counts
            },
            miss_latency_ns: (
                ccn_sim::cycles_to_ns(1) * self.miss_latency.mean(),
                ccn_sim::cycles_to_ns(1) * self.miss_latency.max().unwrap_or(0) as f64,
            ),
            miss_latency_hist: self.miss_latency.clone(),
            cc_queue_delay_hist,
            net_transit_hist: self.net.transit_histogram().clone(),
            useless_invalidations: self.useless_invalidations,
            blame: self.flight.as_ref().map(|f| f.blame()),
            arrival_cv: {
                let mut inter = ccn_sim::stats::Accumulator::new();
                for node in &self.nodes {
                    for e in 0..node.cc.engines() {
                        inter.merge(&node.cc.engine_stats(e).interarrival);
                    }
                }
                inter.cv()
            },
            dir_cache_hit_ratio: {
                let (hits, total) = self.nodes.iter().fold((0u64, 0u64), |(h, t), n| {
                    (
                        h + n.mem.dircache.hits(),
                        t + n.mem.dircache.hits() + n.mem.dircache.misses(),
                    )
                });
                if total == 0 {
                    0.0
                } else {
                    hits as f64 / total as f64
                }
            },
        }
    }

    /// Checks protocol invariants after a completed run: no transient
    /// state anywhere, a single writable copy per line, directory states
    /// consistent with cache contents, and data values coherent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_quiescent(&self) -> Result<(), String> {
        for (n, node) in self.nodes.iter().enumerate() {
            if !node.mshr.is_empty() {
                return Err(format!(
                    "node {n} has outstanding MSHRs: {:?}",
                    node.mshr.iter().map(|(l, _)| l).collect::<Vec<_>>()
                ));
            }
            if !node.cc.is_drained() {
                return Err(format!(
                    "node {n}'s coherence controller still has queued requests"
                ));
            }
            for (line, _state, busy) in node.mem.dir.iter_states() {
                if busy {
                    return Err(format!("directory entry {line} on node {n} still busy"));
                }
            }
        }
        // Gather global copies per line.
        let mut copies: FxHashMap<LineAddr, Vec<(usize, LineState, u64)>> = FxHashMap::default();
        for (i, proc) in self.procs.iter().enumerate() {
            for (line, state, payload) in proc.l2.iter_resident() {
                copies.entry(line).or_default().push((i, state, payload));
            }
        }
        for (line, holders) in &copies {
            let writable: Vec<_> = holders.iter().filter(|(_, s, _)| s.writable()).collect();
            if writable.len() > 1 {
                return Err(format!(
                    "line {line} has {} writable copies",
                    writable.len()
                ));
            }
            if !writable.is_empty() && holders.len() > 1 {
                return Err(format!("line {line} mixes writable and shared copies"));
            }
            let home = self.map.home_of(*line);
            let latest = self.versions.get(*line).copied().unwrap_or(0);
            let dir_state = self.nodes[home.index()].mem.dir.state_of(*line);
            for &(p, state, payload) in holders {
                let holder_node = self.procs[p].node;
                if holder_node != home.index() {
                    // Remote copies must be tracked by the directory.
                    let tracked = match dir_state {
                        DirState::Dirty(owner) => owner.index() == holder_node,
                        DirState::Shared(bm) => bm.contains(NodeId(holder_node as u16)),
                        DirState::Uncached => false,
                    };
                    if !tracked {
                        return Err(format!(
                            "line {line}: node {holder_node} holds {state:?} but directory says {dir_state:?}"
                        ));
                    }
                }
                if state == LineState::Modified && payload != latest {
                    return Err(format!(
                        "line {line}: dirty copy has version {payload}, latest is {latest}"
                    ));
                }
            }
            // If nobody holds the line dirty, memory must have the latest
            // version.
            if writable.is_empty() && latest > 0 {
                let mem = self.memory.get(*line).copied().unwrap_or(0);
                if mem != latest {
                    return Err(format!(
                        "line {line}: memory has version {mem}, latest write was {latest}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The timing-independent functional outcome of the run: per-line write
    /// serials, home-memory contents, and every non-Uncached directory
    /// entry. Two runs of the same workload on different controller
    /// architectures may differ in every cycle count, but — if the
    /// workload ends in a cache-flushed, scrubbed state — must produce
    /// identical snapshots. This is what the `ccn-verify` differential
    /// conformance layer compares across HWC/PPC/2HWC/2PPC.
    pub fn functional_snapshot(&self) -> FunctionalSnapshot {
        let mut versions: Vec<(u64, u64)> = Vec::with_capacity(self.versions.len());
        versions.extend(self.versions.iter().map(|(l, &v)| (l.0, v)));
        versions.sort_unstable();
        let mut memory: Vec<(u64, u64)> = Vec::with_capacity(self.memory.len());
        memory.extend(self.memory.iter().map(|(l, &v)| (l.0, v)));
        memory.sort_unstable();
        let mut directory: Vec<(u64, u16, DirSnap)> = Vec::with_capacity(64);
        for (n, node) in self.nodes.iter().enumerate() {
            for (line, state, busy) in node.mem.dir.iter_states() {
                if state != DirState::Uncached || busy {
                    directory.push((line.0, n as u16, DirSnap::new(state, busy)));
                }
            }
        }
        directory.sort_unstable();
        FunctionalSnapshot {
            versions,
            memory,
            directory,
        }
    }
}

/// One non-idle directory entry in a [`FunctionalSnapshot`]: the stable
/// state as a plain tag plus payload words, and the busy flag.
///
/// Snapshotting used to render each entry to a `String`; a full-machine
/// snapshot allocated once per tracked line. This compact `Copy` form
/// carries the same information, and the canonical rendering the digest
/// hashes reproduces the historical text byte for byte for every state a
/// two-word full-map machine could produce — so committed digests never
/// move. [`Display`](std::fmt::Display) (what mismatch diffs print)
/// additionally elides sharer sets reaching past node 127, keeping a
/// 1024-node diff line readable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DirSnap {
    /// 0 = Uncached, 1 = Shared bitmap, 2 = Dirty, 3 = Shared pointers
    /// (the directory tag order, extended).
    tag: u8,
    /// Pointer-set length (tag 3 only).
    len: u8,
    /// Pointer-set overflow flag (tag 3 only).
    overflow: bool,
    /// Whether a transaction was outstanding at snapshot time.
    busy: bool,
    /// Sharer presence words (Shared bitmap), the owner id in word 0
    /// (Dirty), or one pointer per word (Shared pointers).
    payload: [u64; 16],
}

impl DirSnap {
    fn new(state: DirState, busy: bool) -> DirSnap {
        let mut snap = DirSnap {
            tag: 0,
            len: 0,
            overflow: false,
            busy,
            payload: [0; 16],
        };
        match state {
            DirState::Uncached => {}
            DirState::Shared(SharerSet::Map(bm)) => {
                snap.tag = 1;
                snap.payload = bm.words();
            }
            DirState::Shared(SharerSet::Ptrs {
                ptrs,
                len,
                overflow,
            }) => {
                snap.tag = 3;
                snap.len = len;
                snap.overflow = overflow;
                for (w, p) in snap.payload.iter_mut().zip(ptrs) {
                    *w = u64::from(p.0);
                }
            }
            DirState::Dirty(owner) => {
                snap.tag = 2;
                snap.payload[0] = u64::from(owner.0);
            }
        }
        snap
    }

    /// Writes the full-fidelity rendering the conformance digest hashes.
    /// States confined to the first two presence words keep the exact
    /// text `format!("{state:?}")` produced when the snapshot stored
    /// rendered strings; wider and pointer states could never be
    /// produced then, so their rendering is new by definition.
    fn render_canonical(&self, f: &mut impl std::fmt::Write) -> std::fmt::Result {
        match self.tag {
            0 => write!(f, "Uncached")?,
            1 => {
                let words = self.payload;
                if words[2..] == [0; 14] {
                    if words[1] == 0 {
                        write!(f, "Shared(NodeBitmap({}))", words[0])?;
                    } else {
                        write!(f, "Shared(SharerBitmap([{}, {}]))", words[0], words[1])?;
                    }
                } else {
                    write!(f, "Shared(WideBitmap[")?;
                    for (i, w) in words.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{w}")?;
                    }
                    write!(f, "])")?;
                }
            }
            3 => {
                write!(f, "Shared(Ptrs{{ovf={} [", u8::from(self.overflow))?;
                for (i, p) in self.payload[..usize::from(self.len)].iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "]}})")?;
            }
            _ => write!(f, "Dirty(NodeId({}))", self.payload[0])?,
        }
        if self.busy {
            write!(f, " (busy)")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for DirSnap {
    /// Human-facing rendering for snapshot mismatch diffs: identical to
    /// the canonical form, except that bitmap sharer sets reaching past
    /// node 127 print as a member count plus the first three and last two
    /// members instead of sixteen raw words.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.tag == 1 && self.payload[2..] != [0; 14] {
            let bm = SharerBitmap::from_words(self.payload);
            let count = bm.count();
            write!(f, "Shared({count} sharers [")?;
            let mut tail = [0u16; 2];
            for (shown, n) in bm.iter().enumerate() {
                if shown < 3 {
                    if shown > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", n.0)?;
                }
                tail[0] = tail[1];
                tail[1] = n.0;
            }
            match count {
                0..=3 => {}
                4 => write!(f, ", {}", tail[1])?,
                5 => write!(f, ", {}, {}", tail[0], tail[1])?,
                _ => write!(f, ", ..., {}, {}", tail[0], tail[1])?,
            }
            write!(f, "])")?;
            if self.busy {
                write!(f, " (busy)")?;
            }
            return Ok(());
        }
        self.render_canonical(f)
    }
}

impl std::fmt::Debug for DirSnap {
    /// Mismatch diffs print snapshot tuples with `{:?}`; the derived form
    /// would dump sixteen payload words per entry, so Debug shares the
    /// elided Display rendering.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Display::fmt(self, f)
    }
}

/// See [`Machine::functional_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionalSnapshot {
    /// Latest write serial per written line, sorted by line address.
    pub versions: Vec<(u64, u64)>,
    /// Version stored in home memory per line, sorted by line address.
    pub memory: Vec<(u64, u64)>,
    /// Every directory entry that is not idle-Uncached:
    /// `(line, home node, state)`, sorted.
    pub directory: Vec<(u64, u16, DirSnap)>,
}

impl FunctionalSnapshot {
    /// FNV-1a digest of the snapshot, for compact cross-architecture
    /// comparison tables.
    pub fn digest(&self) -> u64 {
        /// Streaming FNV-1a that doubles as a `fmt::Write` sink, so the
        /// directory-state rendering is hashed as it is formatted — the
        /// digest covers the same bytes as when snapshots stored rendered
        /// `String`s, without materializing them.
        struct Fnv(u64);
        impl Fnv {
            fn eat(&mut self, bytes: &[u8]) {
                for &b in bytes {
                    self.0 ^= b as u64;
                    self.0 = self.0.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        impl std::fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.eat(s.as_bytes());
                Ok(())
            }
        }
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for (l, v) in &self.versions {
            h.eat(&l.to_le_bytes());
            h.eat(&v.to_le_bytes());
        }
        h.eat(&[0xff]);
        for (l, v) in &self.memory {
            h.eat(&l.to_le_bytes());
            h.eat(&v.to_le_bytes());
        }
        h.eat(&[0xfe]);
        for (l, n, s) in &self.directory {
            h.eat(&l.to_le_bytes());
            h.eat(&n.to_le_bytes());
            // The digest hashes the *canonical* rendering, not the elided
            // Display form — elision is for human-facing diffs only and
            // must never make two different sharer sets digest-equal.
            s.render_canonical(&mut h)
                .expect("hashing sink never fails");
        }
        h.0
    }

    /// Describes the first difference from `other`, or `None` when the
    /// snapshots are identical.
    pub fn diff(&self, other: &FunctionalSnapshot) -> Option<String> {
        fn first_diff<T: PartialEq + std::fmt::Debug>(
            what: &str,
            a: &[T],
            b: &[T],
        ) -> Option<String> {
            if a.len() != b.len() {
                return Some(format!("{what}: {} entries vs {}", a.len(), b.len()));
            }
            a.iter()
                .zip(b)
                .find(|(x, y)| x != y)
                .map(|(x, y)| format!("{what}: {x:?} vs {y:?}"))
        }
        first_diff("write versions", &self.versions, &other.versions)
            .or_else(|| first_diff("home memory", &self.memory, &other.memory))
            .or_else(|| first_diff("directory", &self.directory, &other.directory))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presence_bitmask_semantics() {
        let mut p = Presence::default();
        assert!(!p.any());
        p.add(3);
        p.add(5);
        assert!(p.any());
        assert!(p.other_than(3));
        assert!(!p.other_than(3) || p.sharers & !(1 << 3) != 0);
        p.owner = Some(5);
        p.remove(5);
        assert_eq!(p.owner, None);
        assert!(p.any());
        p.remove(3);
        assert!(!p.any());
    }

    #[test]
    fn presence_other_than_excludes_only_the_slot() {
        let mut p = Presence::default();
        p.add(2);
        assert!(!p.other_than(2));
        assert!(p.other_than(1));
    }

    #[test]
    fn mshr_initial_state() {
        let m = Mshr::new(DirRequestKind::Upgrade, 7);
        assert_eq!(m.initiator, 7);
        assert!(!m.has_data && !m.needs_inv_done && !m.inv_done_received);
        assert!(m.waiters.is_empty());
    }

    #[test]
    fn version_stamps_are_monotonic_per_line() {
        use ccn_workloads::micro::PrivateCompute;
        let mut machine = Machine::new(
            crate::SystemConfig::small(),
            &PrivateCompute {
                bytes_per_proc: 4096,
                sweeps: 3,
            },
        )
        .unwrap();
        machine.run();
        // Every line's version counter must equal at least the number of
        // sweeps that wrote it (3 RW sweeps + 0 init writes... the init
        // writes count too: versions strictly positive for written lines).
        assert!(machine.versions.iter().all(|(_, &v)| v > 0));
        machine.check_quiescent().unwrap();
    }
}
