//! Conservative parallel execution of one [`Machine`].
//!
//! The machine is partitioned along the node boundary into shard
//! machines, each owning a contiguous node range with its processors,
//! caches, directories and a shard-local event wheel. Shards advance in
//! bounded time windows whose width is the machine's **lookahead** — the
//! minimum over the network's fall-through delay and the synchronization
//! wake-up bounds — and exchange cross-shard work (network messages,
//! sync wake-ups) only at window barriers, where the
//! [`Merger`](ccn_sim::par::Merger) reconstructs the exact sequential
//! `(time, seq)` order. Synchronization operations (barriers, locks,
//! the measurement marker) touch global state, so a shard *stalls* when
//! it reaches one; the coordinator applies stalled operations one at a
//! time in canonical order against the real [`SyncState`] and resumes
//! the shard inline. The result is byte-identical to
//! [`Machine::run`]: same reports, same functional snapshots, same
//! observability artifacts. See `docs/PARALLEL.md` for the proof sketch.

use ccn_protocol::Msg;
use ccn_sim::par::{EKey, LogRec, Merger, Ring, ShardId, ShardWheel};
use ccn_sim::{Component, ComponentStats, Cycle, EventQueue, ScheduleSink};

use crate::machine::{Event, Machine};

/// The machine's event sink: the sequential calendar queue, or — while
/// running as a shard of a parallel execution — a shard-local wheel plus
/// the per-window bookkeeping the barrier merge needs.
#[derive(Debug)]
pub(crate) enum MachineQueue {
    /// Sequential execution over the global calendar queue.
    Seq(EventQueue<Event>),
    /// One shard of a parallel execution.
    Shard(Box<ShardCtx>),
}

impl MachineQueue {
    /// Pops the next event — sequential mode only.
    pub(crate) fn pop_seq(&mut self) -> Option<(Cycle, Event)> {
        match self {
            MachineQueue::Seq(q) => q.pop(),
            MachineQueue::Shard(_) => panic!("sequential event loop on a shard machine"),
        }
    }

    /// Pending events.
    pub(crate) fn len(&self) -> usize {
        match self {
            MachineQueue::Seq(q) => q.len(),
            MachineQueue::Shard(ctx) => ctx.wheel.len(),
        }
    }

    /// Total events scheduled into this sink over its lifetime.
    pub(crate) fn total_scheduled(&self) -> u64 {
        match self {
            MachineQueue::Seq(q) => q.total_scheduled(),
            MachineQueue::Shard(ctx) => ctx.wheel.total_scheduled(),
        }
    }

    /// High-water mark of concurrently pending events (sequential mode;
    /// shard wheels don't track one).
    pub(crate) fn max_pending(&self) -> usize {
        match self {
            MachineQueue::Seq(q) => q.max_pending(),
            MachineQueue::Shard(_) => 0,
        }
    }

    /// Current cycle (delivery time of the most recently popped event).
    pub(crate) fn now(&self) -> Cycle {
        match self {
            MachineQueue::Seq(q) => q.now(),
            MachineQueue::Shard(ctx) => ctx.wheel.now(),
        }
    }

    /// The shard context, if this machine is a shard.
    pub(crate) fn shard_ctx(&mut self) -> Option<&mut ShardCtx> {
        match self {
            MachineQueue::Seq(_) => None,
            MachineQueue::Shard(ctx) => Some(ctx),
        }
    }

    /// The shard context, immutably.
    pub(crate) fn shard_ctx_ref(&self) -> Option<&ShardCtx> {
        match self {
            MachineQueue::Seq(_) => None,
            MachineQueue::Shard(ctx) => Some(ctx),
        }
    }
}

impl ScheduleSink<Event> for MachineQueue {
    fn schedule(&mut self, at: Cycle, event: Event) {
        match self {
            MachineQueue::Seq(q) => {
                q.schedule(at, event);
            }
            MachineQueue::Shard(ctx) => {
                assert!(
                    ctx.owns(&event),
                    "shard {} scheduled an event it does not own: {event:?}",
                    ctx.shard
                );
                let key = EKey::Fresh {
                    shard: ctx.shard,
                    xi: ctx.cur_xi,
                    idx: ctx.emit_idx,
                };
                ctx.emit_idx += 1;
                ctx.wheel.schedule_keyed(at, key, event);
            }
        }
    }

    fn now(&self) -> Cycle {
        MachineQueue::now(self)
    }
}

/// Per-shard execution state for one parallel run.
#[derive(Debug)]
pub(crate) struct ShardCtx {
    /// This shard's index.
    pub shard: ShardId,
    /// Global indices of the nodes this shard owns.
    pub node_base: usize,
    /// One past the last owned node.
    pub node_end: usize,
    /// Processors per node (for routing `ProcResume` targets).
    pub ppn: usize,
    /// The shard-local calendar.
    pub wheel: ShardWheel<Event>,
    /// Log index of the event currently executing.
    pub cur_xi: u32,
    /// Emission index within the current event (both wheel schedules and
    /// network sends consume slots, exactly like the sequential queue's
    /// global schedule-call sequence).
    pub emit_idx: u32,
    /// This window's executed events, in execution order.
    pub exec_log: Vec<LogRec<()>>,
    /// Network sends made this window, delivered at the barrier.
    pub pending_sends: Vec<PendingSend>,
    /// Whether the coordinator has a transaction flight recorder enabled
    /// (shard machines collect into `flight_log` instead of applying).
    pub collect_flight: bool,
    /// Flight-recorder events recorded this window, tagged with the
    /// executing event's log index and merged into the coordinator's
    /// recorder at the barrier in canonical order.
    pub flight_log: Vec<(u32, ccn_obs::FlightEvent)>,
    /// Set when the current event hit a synchronization operation; the
    /// coordinator applies it and resumes the shard.
    pub stall: Option<StallRecord>,
}

impl ShardCtx {
    /// Whether `event` targets state this shard owns.
    pub(crate) fn owns(&self, event: &Event) -> bool {
        let node = match *event {
            Event::ProcResume(p) => p as usize / self.ppn,
            Event::CcWork { node, .. } => node as usize,
            // Message deliveries go through the barrier, never through a
            // shard's own schedule path.
            Event::MsgArrive(_) => return false,
        };
        (self.node_base..self.node_end).contains(&node)
    }
}

/// A network message injected during a window; the coordinator replays
/// the delivery half against the hub network at the barrier, in
/// canonical send order.
#[derive(Debug)]
pub(crate) struct PendingSend {
    /// Canonical key of the send (parent event + emission index).
    pub key: EKey,
    /// Cycle the send was made.
    pub send_time: Cycle,
    /// When the head of the message clears the sender's NI (egress half,
    /// already applied on the shard's network).
    pub head_arrives: Cycle,
    /// The message.
    pub msg: Msg,
}

/// A synchronization operation a shard stalled on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StallRecord {
    /// The operation.
    pub op: SyncOp,
    /// The processor executing it.
    pub proc: usize,
    /// The processor's local time at the operation.
    pub t: Cycle,
    /// The direct-execution horizon of the interrupted `proc_loop` (must
    /// be preserved across the stall so the resumed loop re-schedules at
    /// the same cycle the sequential run would).
    pub horizon: Cycle,
    /// Log index of the stalled event.
    pub xi: u32,
    /// Emission counter at the stall (the coordinator advances it past
    /// any wake-ups the operation produces).
    pub emit_idx: u32,
    /// Cycle of the stalled event (for canonical ordering of stalls).
    pub entry_cycle: Cycle,
    /// Key of the stalled event.
    pub entry_key: EKey,
}

/// The synchronization operations that stall a shard.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SyncOp {
    /// `Op::Barrier(id)`.
    Barrier(u32),
    /// `Op::Lock(id)`.
    Lock(u32),
    /// `Op::Unlock(id)`.
    Unlock(u32),
    /// `Op::StartMeasurement`.
    Marker,
}

/// A vector slice that indexes by *global* position: shard machines own
/// `items[base..]` of the full machine's vector but keep addressing it
/// with global node/processor indices, so every model-code index doubles
/// as a partition assertion — touching another shard's state panics.
#[derive(Debug)]
pub(crate) struct Sliced<T> {
    base: usize,
    items: Vec<T>,
}

impl<T> Sliced<T> {
    /// Wraps a whole vector (base 0) — the sequential layout.
    pub(crate) fn whole(items: Vec<T>) -> Self {
        Sliced { base: 0, items }
    }

    /// Wraps a partition starting at global index `base`.
    pub(crate) fn part(base: usize, items: Vec<T>) -> Self {
        Sliced { base, items }
    }

    /// Number of owned items (the full count only when base is 0).
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    pub(crate) fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    pub(crate) fn iter_mut(&mut self) -> std::slice::IterMut<'_, T> {
        self.items.iter_mut()
    }

    /// Iterates `(global index, item)`.
    pub(crate) fn enumerate_global(&self) -> impl Iterator<Item = (usize, &T)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, t)| (self.base + i, t))
    }

    /// Takes the owned items out (partition/reassembly).
    pub(crate) fn take(&mut self) -> Vec<T> {
        std::mem::take(&mut self.items)
    }
}

impl<'a, T> IntoIterator for &'a Sliced<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<'a, T> IntoIterator for &'a mut Sliced<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter_mut()
    }
}

impl<T> std::ops::Index<usize> for Sliced<T> {
    type Output = T;
    fn index(&self, index: usize) -> &T {
        let local = index
            .checked_sub(self.base)
            .unwrap_or_else(|| panic!("index {index} below partition base {}", self.base));
        assert!(
            local < self.items.len(),
            "index {index} outside partition [{}, {})",
            self.base,
            self.base + self.items.len()
        );
        &self.items[local]
    }
}

impl<T> std::ops::IndexMut<usize> for Sliced<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        let local = index
            .checked_sub(self.base)
            .unwrap_or_else(|| panic!("index {index} below partition base {}", self.base));
        assert!(
            local < self.items.len(),
            "index {index} outside partition [{}, {})",
            self.base,
            self.base + self.items.len()
        );
        &mut self.items[local]
    }
}

// ---------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------

/// A deferred cross-shard processor wake-up (barrier release or lock
/// hand-off), inserted into the target shard's wheel at the window
/// barrier under its canonical key.
#[derive(Debug)]
struct Wakeup {
    key: EKey,
    at: Cycle,
    proc: u32,
}

/// The machine's lookahead: a lower bound on the delay of every
/// cross-shard interaction. Network messages take at least the
/// fall-through `min_delay`; barrier releases wake waiters no earlier
/// than `barrier` cycles after the arrival that released them; lock
/// hand-offs no earlier than `lock_handoff + 1` (the unlock itself
/// costs one cycle).
fn lookahead(cfg: &crate::config::SystemConfig) -> Cycle {
    cfg.net
        .min_delay()
        .min(cfg.lat.barrier)
        .min(cfg.lat.lock_handoff + 1)
}

impl Machine {
    /// Runs the simulation to completion on up to `threads` worker
    /// threads, partitioned along the node boundary, and returns a
    /// report **byte-identical** to [`Machine::run`] — same goldens,
    /// same functional snapshot, same timelines and traces.
    ///
    /// Falls back to the sequential loop when parallelism cannot help or
    /// cannot be made exact: one thread or one node, first-touch
    /// placement (page homing mutates a global map race-prone under
    /// partitioning), or a sampler cadence shorter than the lookahead.
    ///
    /// # Panics
    ///
    /// Panics on deadlock, like [`Machine::run`], and on a *lookahead
    /// violation* — a cross-shard interaction faster than the configured
    /// bound, which indicates a configuration whose network or
    /// synchronization latencies break the conservative window math.
    pub fn run_parallel(&mut self, threads: usize) -> crate::report::SimReport {
        self.run_parallel_with_event_limit(threads, u64::MAX)
    }

    /// Like [`Machine::run_parallel`], but panics with diagnostics after
    /// `max_events` events — the same watchdog contract as
    /// [`Machine::run_with_event_limit`].
    ///
    /// # Panics
    ///
    /// Panics on deadlock, lookahead violation, or an exhausted event
    /// budget.
    pub fn run_parallel_with_event_limit(
        &mut self,
        threads: usize,
        max_events: u64,
    ) -> crate::report::SimReport {
        let delta = lookahead(&self.cfg);
        if threads <= 1
            || self.cfg.nodes < 2
            || self.cfg.placement == crate::config::PlacementPolicy::FirstTouch
            || self.sampler.as_ref().is_some_and(|s| s.cadence() < delta)
        {
            return self.run_with_event_limit(max_events);
        }
        execute(self, threads, delta, max_events)
    }
}

/// Partition → windowed parallel execution → reassembly.
fn execute(
    coord: &mut Machine,
    threads: usize,
    delta: Cycle,
    max_events: u64,
) -> crate::report::SimReport {
    use crate::sync::SyncState;
    use ccn_mem::LineTable;

    assert!(delta >= 1, "lookahead must be positive");
    let nnodes = coord.cfg.nodes;
    let ppn = coord.cfg.procs_per_node;
    let nshards = threads.min(nnodes);

    // Contiguous node ranges, remainder spread over the first shards.
    let base = nnodes / nshards;
    let rem = nnodes % nshards;
    let mut ranges: Vec<std::ops::Range<usize>> = Vec::with_capacity(nshards);
    let mut start = 0;
    for s in 0..nshards {
        let len = base + usize::from(s < rem);
        ranges.push(start..start + len);
        start += len;
    }
    let mut node_to_shard = vec![0usize; nnodes];
    for (s, r) in ranges.iter().enumerate() {
        for n in r.clone() {
            node_to_shard[n] = s;
        }
    }
    let shard_of_event = |ev: &Event| -> usize {
        match *ev {
            Event::ProcResume(p) => node_to_shard[p as usize / ppn],
            Event::CcWork { node, .. } => node_to_shard[node as usize],
            Event::MsgArrive(ref m) => node_to_shard[m.to.index()],
        }
    };

    // Drain the sequential queue into shard wheels, preserving the
    // global schedule order as `Init` seed keys.
    let seq_queue = match std::mem::replace(&mut coord.queue, MachineQueue::Seq(EventQueue::new()))
    {
        MachineQueue::Seq(q) => q,
        MachineQueue::Shard(_) => panic!("parallel run of a shard machine"),
    };
    let mut wheels: Vec<ShardWheel<Event>> = (0..nshards).map(|_| ShardWheel::new()).collect();
    {
        let mut q = seq_queue;
        let mut seq = 0u64;
        while let Some((t, ev)) = q.pop() {
            wheels[shard_of_event(&ev)].seed(t, seq, ev);
            seq += 1;
        }
    }

    // Partition the machine state along the node boundary.
    let mut nodes_all = coord.nodes.take();
    let mut procs_all = coord.procs.take();
    let mut hists_all = coord.node_miss_latency.take();
    let mut memories: Vec<LineTable<u64>> = (0..nshards).map(|_| LineTable::new()).collect();
    for (line, &v) in coord.memory.iter() {
        memories[node_to_shard[coord.map.home_of(line).index()]].insert(line, v);
    }
    coord.memory = LineTable::new();

    let mut machines: Vec<Option<Machine>> = Vec::with_capacity(nshards);
    for (s, range) in ranges.iter().enumerate().rev() {
        let nodes: Vec<_> = nodes_all.drain(range.start..).collect();
        let procs: Vec<_> = procs_all.drain(range.start * ppn..).collect();
        let hists: Vec<_> = hists_all.drain(range.start..).collect();
        let wheel = wheels.pop().expect("one wheel per shard");
        machines.push(Some(Machine {
            cfg: coord.cfg.clone(),
            map: coord.map.clone(),
            queue: MachineQueue::Shard(Box::new(ShardCtx {
                shard: s as ShardId,
                node_base: range.start,
                node_end: range.end,
                ppn,
                wheel,
                cur_xi: 0,
                emit_idx: 0,
                exec_log: Vec::new(),
                pending_sends: Vec::new(),
                collect_flight: coord.flight.is_some(),
                flight_log: Vec::new(),
                stall: None,
            })),
            procs: Sliced::part(range.start * ppn, procs),
            nodes: Sliced::part(range.start, nodes),
            net: ccn_net::Network::new(nnodes, coord.cfg.net),
            sync: SyncState::new(
                coord.cfg.nprocs(),
                coord.cfg.lat.barrier,
                coord.cfg.lat.lock_acquire,
                coord.cfg.lat.lock_handoff,
            ),
            versions: LineTable::new(),
            memory: memories.pop().expect("one memory slice per shard"),
            marker_count: 0,
            measure_start: 0,
            done_count: 0,
            workload_name: String::new(),
            touched_pages: Default::default(),
            miss_latency: ccn_sim::Histogram::new(),
            node_miss_latency: Sliced::part(range.start, hists),
            sampler: None,
            current_engine: 0,
            flight: None,
            flight_key: None,
            extra_scheduled: 0,
            useless_invalidations: 0,
            handler_counts: [0; ccn_protocol::HandlerKind::COUNT],
            step_scratch: ccn_protocol::handlers::StepBuf::new(),
            barrier_scratch: Vec::new(),
        }));
    }
    machines.reverse();

    // Window loop over a scoped worker pool. The coordinator thread
    // doubles as the worker for shard 0 (with `threads` requested, it
    // spawns `threads - 1` workers and runs its own share inline), so
    // every requested thread is busy during phase 1. Rings are declared
    // before the scope so worker borrows outlive the scope body.
    let workers = threads.saturating_sub(1).min(nshards.saturating_sub(1));
    struct Task {
        shard: usize,
        m: Machine,
        end: Cycle,
    }
    struct TaskDone {
        shard: usize,
        m: Machine,
    }
    let task_rings: Vec<Ring<Task>> = (0..workers).map(|_| Ring::new(nshards + 1)).collect();
    let results: Ring<TaskDone> = Ring::new(nshards + 1);
    let mut executed = 0u64;
    std::thread::scope(|scope| {
        // Panic-safety in both directions: a panicking coordinator
        // closes the task rings so workers exit; a panicking worker
        // closes the result ring so the coordinator's pop fails fast.
        struct CloseOnDrop<'a, T>(&'a [Ring<T>]);
        impl<T> Drop for CloseOnDrop<'_, T> {
            fn drop(&mut self) {
                for ring in self.0 {
                    ring.close();
                }
            }
        }
        let _close_guard = CloseOnDrop(&task_rings);
        if workers > 0 {
            for ring in &task_rings {
                let results = &results;
                scope.spawn(move || {
                    let _close_guard = CloseOnDrop(std::slice::from_ref(results));
                    while let Some(mut task) = ring.pop() {
                        task.m.run_window(task.end);
                        results.push(TaskDone {
                            shard: task.shard,
                            m: task.m,
                        });
                    }
                });
            }
        }

        fn ctx_of(m: &Machine) -> &ShardCtx {
            m.queue.shard_ctx_ref().expect("shard machine")
        }
        // Per-window scratch, hoisted so allocations are reused. The
        // shards' flight buffers visit `flights` for the barrier merge
        // and go back to their shards afterwards.
        let mut local: Vec<usize> = Vec::new();
        let mut sends: Vec<PendingSend> = Vec::new();
        let mut order: Vec<(ShardId, u32)> = Vec::new();
        let mut flights: Vec<Vec<(u32, ccn_obs::FlightEvent)>> = vec![Vec::new(); nshards];
        let mut ptr: Vec<usize> = vec![0; nshards];
        loop {
            let w_start = machines
                .iter()
                .filter_map(|m| ctx_of(m.as_ref().expect("machine home")).wheel.next_time())
                .min();
            let Some(w_start) = w_start else { break };

            // Samples due at or before the window start see exactly the
            // state the sequential run would: every event below `w_start`
            // has executed, none at or above it has.
            while coord
                .sampler
                .as_ref()
                .is_some_and(|s| s.next_due() <= w_start)
            {
                let due = coord.sampler.as_ref().expect("sampler").next_due();
                let snap = merged_stats(coord, &machines, &ranges);
                coord.sampler.as_mut().expect("sampler").record(due, &snap);
            }
            let mut end = w_start + delta;
            if let Some(s) = &coord.sampler {
                end = end.min(s.next_due());
            }

            // Phase 1: run every busy shard to window-done or first
            // stall. Remote shards ship to workers first; the
            // coordinator then runs its own shard(s) inline and only
            // waits on the result ring for what it shipped.
            let mut pushed = 0;
            local.clear();
            for s in 0..nshards {
                let has_work = ctx_of(machines[s].as_ref().expect("machine home"))
                    .wheel
                    .next_time()
                    .is_some_and(|t| t < end);
                if !has_work {
                    continue;
                }
                if workers > 0 && s > 0 {
                    let m = machines[s].take().expect("machine home");
                    task_rings[(s - 1) % workers].push(Task { shard: s, m, end });
                    pushed += 1;
                } else {
                    local.push(s);
                }
            }
            for &s in &local {
                machines[s].as_mut().expect("machine home").run_window(end);
            }
            for _ in 0..pushed {
                let done = results.pop().expect("worker result");
                machines[done.shard] = Some(done.m);
            }

            // Phase 2: apply stalled synchronization operations one at a
            // time in canonical order against the real SyncState,
            // resuming each shard inline. Safe because every shard's
            // not-yet-reported sync operations come from entries ordered
            // after its current stall — except around the measurement
            // marker, whose counter reset is also observed by ordinary
            // events; while a marker is mid-flight the rounds fall into
            // *lockstep*, advancing exactly one canonical event at a time
            // across all shards.
            let mut wakeups: Vec<Wakeup> = Vec::new();
            let mut net_reset: Option<(ShardId, u32, u32)> = None;
            let nprocs_total = coord.cfg.nprocs();
            loop {
                loop {
                    let lockstep = coord.marker_count < nprocs_total
                        && (coord.marker_count > 0
                            || machines.iter().any(|m| {
                                matches!(
                                    ctx_of(m.as_ref().expect("machine home")).stall,
                                    Some(StallRecord {
                                        op: SyncOp::Marker,
                                        ..
                                    })
                                )
                            }));
                    #[derive(Clone, Copy)]
                    enum Action {
                        Apply,
                        Step,
                    }
                    let mut best: Option<(usize, Cycle, EKey, Action)> = None;
                    for s in 0..nshards {
                        let ctx = ctx_of(machines[s].as_ref().expect("machine home"));
                        let cand = if let Some(rec) = ctx.stall.as_ref() {
                            Some((rec.entry_cycle, rec.entry_key, Action::Apply))
                        } else if lockstep {
                            ctx.wheel
                                .next_entry()
                                .filter(|&(c, _)| c < end)
                                .map(|(c, k)| (c, k, Action::Step))
                        } else {
                            None
                        };
                        let Some((c, k, act)) = cand else { continue };
                        best = match best {
                            None => Some((s, c, k, act)),
                            Some((bs, bc, bk, bact)) => {
                                if cmp_entries(&machines, (c, k), (bc, bk)).is_lt() {
                                    Some((s, c, k, act))
                                } else {
                                    Some((bs, bc, bk, bact))
                                }
                            }
                        };
                    }
                    let Some((s, _, _, act)) = best else { break };
                    match act {
                        Action::Apply => {
                            let rec = machines[s]
                                .as_mut()
                                .expect("machine home")
                                .queue
                                .shard_ctx()
                                .expect("shard machine")
                                .stall
                                .take()
                                .expect("stall present");
                            apply_sync(coord, &mut machines, s, &rec, &mut wakeups, &mut net_reset);
                            let m = machines[s].as_mut().expect("machine home");
                            if !lockstep && ctx_of(m).stall.is_none() {
                                m.run_window(end);
                            }
                        }
                        Action::Step => {
                            machines[s].as_mut().expect("machine home").run_one(end);
                        }
                    }
                }
                // Shards parked by lockstep finish their windows; any new
                // stall re-enters the rounds.
                let mut restalled = false;
                for m in machines.iter_mut() {
                    let m = m.as_mut().expect("machine home");
                    if ctx_of(m).stall.is_none() && m.run_window(end) {
                        restalled = true;
                    }
                }
                if !restalled {
                    break;
                }
            }

            // Phase 3: window barrier — rank the window's executions,
            // merge flight events, seal keys, deliver cross-shard work.
            let mut logs: Vec<Vec<LogRec<()>>> = Vec::with_capacity(nshards);
            for (s, m) in machines.iter_mut().enumerate() {
                let ctx = m
                    .as_mut()
                    .expect("machine home")
                    .queue
                    .shard_ctx()
                    .expect("shard machine");
                logs.push(std::mem::take(&mut ctx.exec_log));
                sends.append(&mut ctx.pending_sends);
                flights[s] = std::mem::take(&mut ctx.flight_log);
            }
            executed += logs.iter().map(Vec::len).sum::<usize>() as u64;
            if executed > max_events {
                panic!(
                    "event budget exhausted at window end {end}: {executed} event(s) executed, \
                     limit {max_events}"
                );
            }
            let mut merger = Merger::new(logs);
            order.clear();
            // The merged order itself is only consumed by the flight
            // recorder and the (at most once per run) hub-stats reset;
            // ranks alone seal every escaping key.
            if coord.flight.is_some() || net_reset.is_some() {
                merger.rank_into(end, &mut order);
            } else {
                merger.rank_only(end);
            }
            if let Some(recorder) = &mut coord.flight {
                // Canonical-order merge: per-shard buffers are sorted by
                // log index with intra-event order preserved, so the
                // coordinator's recorder sees the exact sequential event
                // stream (ids, ring drops and the measurement reset all
                // land at their sequential spots).
                ptr.fill(0);
                for &(s, xi) in &order {
                    let s = s as usize;
                    while ptr[s] < flights[s].len() && flights[s][ptr[s]].0 == xi {
                        recorder.apply(flights[s][ptr[s]].1);
                        ptr[s] += 1;
                    }
                }
                debug_assert!(
                    ptr.iter().zip(&flights).all(|(&p, t)| p == t.len()),
                    "flight events left unmerged at the barrier"
                );
            }
            for m in machines.iter_mut() {
                let ctx = m
                    .as_mut()
                    .expect("machine home")
                    .queue
                    .shard_ctx()
                    .expect("shard machine");
                ctx.wheel.patch_keys(|k| merger.seal(k));
                ctx.wheel.set_floor(end);
            }
            // Replay delivery halves against the hub network in canonical
            // send order: receiver-side server state (and therefore every
            // arrival cycle) evolves exactly as in the sequential run. If
            // the measurement marker fired this window, the hub's stats
            // reset interleaves at the marker's canonical position.
            sends.sort_by_key(|ps| merger.resolve(&ps.key));
            let mut reset_pending = net_reset.take().map(|(ms, mxi, memit)| {
                let rank_of: std::collections::HashMap<(ShardId, u32), usize> =
                    order.iter().enumerate().map(|(i, &e)| (e, i)).collect();
                let marker_rank = rank_of[&(ms, mxi)];
                (rank_of, marker_rank, memit)
            });
            for ps in sends.drain(..) {
                if let Some((rank_of, marker_rank, memit)) = &reset_pending {
                    let EKey::Fresh { shard, xi, idx } = ps.key else {
                        unreachable!("window sends carry fresh keys")
                    };
                    let rank = rank_of[&(shard, xi)];
                    if rank > *marker_rank || (rank == *marker_rank && idx >= *memit) {
                        Component::reset_stats(&mut coord.net);
                        reset_pending = None;
                    }
                }
                let bytes = ps.msg.size_bytes(coord.cfg.line_bytes);
                let arrival = coord
                    .net
                    .deliver(ps.send_time, ps.head_arrives, ps.msg.to, bytes);
                let target = node_to_shard[ps.msg.to.index()];
                let key = merger.seal(&ps.key);
                let ctx = machines[target]
                    .as_mut()
                    .expect("machine home")
                    .queue
                    .shard_ctx()
                    .expect("shard machine");
                ctx.wheel
                    .insert_with(arrival, key, Event::MsgArrive(ps.msg), |k| {
                        merger.resolve(k)
                    });
            }
            if reset_pending.is_some() {
                Component::reset_stats(&mut coord.net);
            }
            for wk in wakeups {
                let target = node_to_shard[wk.proc as usize / ppn];
                let key = merger.seal(&wk.key);
                let ctx = machines[target]
                    .as_mut()
                    .expect("machine home")
                    .queue
                    .shard_ctx()
                    .expect("shard machine");
                ctx.wheel
                    .insert_with(wk.at, key, Event::ProcResume(wk.proc), |k| {
                        merger.resolve(k)
                    });
            }
            // Hand the log and flight allocations back to the shards for
            // reuse.
            for (s, mut log) in merger.into_logs().into_iter().enumerate() {
                log.clear();
                flights[s].clear();
                let ctx = machines[s]
                    .as_mut()
                    .expect("machine home")
                    .queue
                    .shard_ctx()
                    .expect("shard machine");
                ctx.exec_log = log;
                ctx.flight_log = std::mem::take(&mut flights[s]);
            }
        }
        for ring in &task_rings {
            ring.close();
        }
    });

    // Reassembly: fold the shards back into the coordinator machine and
    // report through the unchanged sequential aggregation path.
    let machines: Vec<Machine> = machines
        .into_iter()
        .map(|m| m.expect("machine home"))
        .collect();
    let mut nodes = Vec::with_capacity(nnodes);
    let mut procs = Vec::with_capacity(coord.cfg.nprocs());
    let mut hists = Vec::with_capacity(nnodes);
    for (mut m, range) in machines.into_iter().zip(&ranges) {
        coord.extra_scheduled += m.queue.total_scheduled();
        coord.net.adopt_egress(&m.net, range.clone());
        coord.net.add_traffic(m.net.messages(), m.net.bytes());
        coord.done_count += m.done_count;
        coord.useless_invalidations += m.useless_invalidations;
        for (total, &v) in coord.handler_counts.iter_mut().zip(m.handler_counts.iter()) {
            *total += v;
        }
        coord.miss_latency.merge(&m.miss_latency);
        for (line, &v) in m.memory.iter() {
            coord.memory.insert(line, v);
        }
        for (line, &v) in m.versions.iter() {
            let entry = coord.versions.get_or_insert_with(line, || 0);
            *entry = (*entry).max(v);
        }
        nodes.extend(m.nodes.take());
        procs.extend(m.procs.take());
        hists.extend(m.node_miss_latency.take());
    }
    coord.nodes = Sliced::whole(nodes);
    coord.procs = Sliced::whole(procs);
    coord.node_miss_latency = Sliced::whole(hists);
    coord.finish()
}

/// Applies one stalled synchronization operation against the
/// coordinator's real [`SyncState`] and resumes the stalled processor
/// inline where the operation continues (wake-ups of *other* processors
/// are deferred to the window barrier).
fn apply_sync(
    coord: &mut Machine,
    machines: &mut [Option<Machine>],
    shard: usize,
    rec: &StallRecord,
    wakeups: &mut Vec<Wakeup>,
    net_reset: &mut Option<(ShardId, u32, u32)>,
) {
    use crate::sync::{BarrierOutcome, LockOutcome, SyncState};
    use ccn_mem::ProcId;

    let fresh = |idx: u32| EKey::Fresh {
        shard: shard as ShardId,
        xi: rec.xi,
        idx,
    };
    match rec.op {
        SyncOp::Barrier(id) => {
            let mut released = std::mem::take(&mut coord.barrier_scratch);
            match coord
                .sync
                .barrier_arrive(id, ProcId(rec.proc as u32), rec.t, &mut released)
            {
                BarrierOutcome::Wait => {}
                BarrierOutcome::Release { at } => {
                    let mut emit = rec.emit_idx;
                    for w in &released {
                        wakeups.push(Wakeup {
                            key: fresh(emit),
                            at,
                            proc: w.0,
                        });
                        emit += 1;
                    }
                    machines[shard]
                        .as_mut()
                        .expect("machine home")
                        .resume_stalled(rec, at.max(rec.t), emit);
                }
            }
            coord.barrier_scratch = released;
        }
        SyncOp::Lock(id) => match coord.sync.lock(id, ProcId(rec.proc as u32), rec.t) {
            LockOutcome::Acquired { at } => {
                machines[shard]
                    .as_mut()
                    .expect("machine home")
                    .resume_stalled(rec, at, rec.emit_idx);
            }
            LockOutcome::Queued => {}
        },
        SyncOp::Unlock(id) => {
            let t = rec.t + 1;
            let mut emit = rec.emit_idx;
            if let Some((next, at)) = coord.sync.unlock(id, t) {
                wakeups.push(Wakeup {
                    key: fresh(emit),
                    at,
                    proc: next.0,
                });
                emit += 1;
            }
            machines[shard]
                .as_mut()
                .expect("machine home")
                .resume_stalled(rec, t, emit);
        }
        SyncOp::Marker => {
            let m = machines[shard].as_mut().expect("machine home");
            if !m.procs[rec.proc].passed_marker {
                m.procs[rec.proc].passed_marker = true;
                coord.marker_count += 1;
                if coord.marker_count == coord.cfg.nprocs() {
                    for mm in machines.iter_mut() {
                        let mm = mm.as_mut().expect("machine home");
                        mm.start_measurement_local(rec.t);
                        Component::reset_stats(&mut mm.net);
                    }
                    coord.measure_start = rec.t;
                    // The hub network's stats reset is deferred to the
                    // window barrier, where the delivery halves of this
                    // window's sends replay: sends canonically before
                    // this marker must be wiped, later ones counted.
                    *net_reset = Some((shard as ShardId, rec.xi, rec.emit_idx));
                    SyncState::reset_stats(&mut coord.sync);
                    if let Some(sampler) = &mut coord.sampler {
                        sampler.arm(rec.t);
                    }
                    if coord.flight.is_some() {
                        // Route the recorder's measurement reset through
                        // the stalling shard's event log: the barrier
                        // merge preserves intra-event push order, so the
                        // reset reaches the coordinator's recorder at the
                        // exact position `start_measurement` applies it
                        // sequentially.
                        let ctx = machines[shard]
                            .as_mut()
                            .expect("machine home")
                            .queue
                            .shard_ctx()
                            .expect("shard machine");
                        ctx.flight_log
                            .push((rec.xi, ccn_obs::FlightEvent::MeasureReset));
                    }
                }
            }
            machines[shard]
                .as_mut()
                .expect("machine home")
                .resume_stalled(rec, rec.t, rec.emit_idx);
        }
    }
}

/// The component-stats spine of the *split* machine, merged into the
/// exact shape [`Machine::component_stats`] produces sequentially: the
/// machine root, `node{i}` subtrees in global order, the network (hub
/// ingress/transit plus adopted shard egress and traffic counters), and
/// the synchronization runtime.
fn merged_stats(
    coord: &Machine,
    machines: &[Option<Machine>],
    ranges: &[std::ops::Range<usize>],
) -> ComponentStats {
    let mut root = ComponentStats::named("machine");
    for m in machines {
        let m = m.as_ref().expect("machine home");
        for (i, node) in m.nodes.enumerate_global() {
            let mut snap = node.stats_snapshot();
            snap.name = format!("node{i}");
            root.children.push(snap);
        }
    }
    let mut net = coord.net.clone();
    for (m, range) in machines.iter().zip(ranges) {
        let m = m.as_ref().expect("machine home");
        net.adopt_egress(&m.net, range.clone());
        net.add_traffic(m.net.messages(), m.net.bytes());
    }
    root.children.push(net.stats_snapshot());
    root.children.push(coord.sync.stats_snapshot());
    root
}

/// Canonical order of two *executed* entries `(cycle, key)` — the order
/// the sequential queue would have popped them in. Unlike the barrier
/// [`Merger`], this works mid-window (no per-cycle ranks yet) by
/// recursing through `Fresh` parent chains: two generated entries at the
/// same cycle order by their parents' canonical order, then by emission
/// index. The recursion terminates because every ancestor chain reaches
/// a sealed or seed key within the window.
fn cmp_entries(
    machines: &[Option<Machine>],
    a: (Cycle, EKey),
    b: (Cycle, EKey),
) -> std::cmp::Ordering {
    a.0.cmp(&b.0).then_with(|| cmp_keys(machines, &a.1, &b.1))
}

fn cmp_keys(machines: &[Option<Machine>], a: &EKey, b: &EKey) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    let parent = |k: &EKey| -> (Cycle, Option<(ShardId, u32)>, u64, Option<u32>) {
        match *k {
            EKey::Init { seq } => (0, None, 0, Some(seq as u32)),
            EKey::Sealed { pc, pr, idx } => (pc, None, pr, Some(idx)),
            EKey::Fresh { shard, xi, idx } => {
                let ctx = machines[shard as usize]
                    .as_ref()
                    .expect("machine home")
                    .queue
                    .shard_ctx_ref()
                    .expect("shard machine");
                (
                    ctx.exec_log[xi as usize].cycle,
                    Some((shard, xi)),
                    0,
                    Some(idx),
                )
            }
        }
    };
    match (a, b) {
        (EKey::Init { seq: x }, EKey::Init { seq: y }) => x.cmp(y),
        (EKey::Init { .. }, _) => Ordering::Less,
        (_, EKey::Init { .. }) => Ordering::Greater,
        _ => {
            let (pca, ea, pra, ia) = parent(a);
            let (pcb, eb, prb, ib) = parent(b);
            pca.cmp(&pcb).then_with(|| match (ea, eb) {
                (None, None) => pra.cmp(&prb).then(ia.cmp(&ib)),
                (Some(pa), Some(pb)) => {
                    if pa == pb {
                        ia.cmp(&ib)
                    } else {
                        let key_of = |(s, xi): (ShardId, u32)| {
                            machines[s as usize]
                                .as_ref()
                                .expect("machine home")
                                .queue
                                .shard_ctx_ref()
                                .expect("shard machine")
                                .exec_log[xi as usize]
                                .key
                        };
                        cmp_keys(machines, &key_of(pa), &key_of(pb))
                    }
                }
                // A sealed parent ran in a previous window (cycle below
                // the current window start); a fresh parent ran in this
                // one — equal parent cycles across that divide cannot
                // happen.
                _ => unreachable!("sealed and fresh parents cannot share a cycle"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use ccn_workloads::micro::{HotSpot, ProducerConsumer, UniformSharing};
    use ccn_workloads::Application;

    fn assert_identical(cfg: SystemConfig, app: &dyn Application, threads: usize) {
        let mut seq = Machine::new(cfg.clone(), app).expect("config");
        let seq_report = seq.run();
        let mut par = Machine::new(cfg, app).expect("config");
        let par_report = par.run_parallel(threads);
        let a = format!("{seq_report:#?}");
        let b = format!("{par_report:#?}");
        if a != b {
            for (la, lb) in a.lines().zip(b.lines()) {
                if la != lb {
                    panic!("parallel report diverged from sequential:\n  seq: {la}\n  par: {lb}");
                }
            }
            panic!("parallel report diverged from sequential (length)");
        }
        assert_eq!(
            seq.functional_snapshot().digest(),
            par.functional_snapshot().digest(),
            "functional state diverged"
        );
        assert_eq!(
            seq.events_scheduled(),
            par.events_scheduled(),
            "event accounting diverged"
        );
    }

    #[test]
    fn uniform_sharing_matches_sequential_two_shards() {
        let app = UniformSharing {
            touches_per_proc: 400,
            ..UniformSharing::default()
        };
        assert_identical(SystemConfig::small(), &app, 2);
    }

    #[test]
    fn uniform_sharing_matches_sequential_odd_shards() {
        let app = UniformSharing {
            touches_per_proc: 300,
            ..UniformSharing::default()
        };
        assert_identical(SystemConfig::small(), &app, 3);
    }

    #[test]
    fn hot_spot_matches_sequential() {
        let app = HotSpot::default();
        assert_identical(SystemConfig::small(), &app, 4);
    }

    #[test]
    fn producer_consumer_matches_sequential() {
        let app = ProducerConsumer::default();
        assert_identical(SystemConfig::small(), &app, 2);
    }

    #[test]
    fn more_threads_than_nodes_clamps() {
        let app = UniformSharing {
            touches_per_proc: 200,
            ..UniformSharing::default()
        };
        assert_identical(SystemConfig::small(), &app, 16);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn inflated_lookahead_panics_instead_of_reordering() {
        // An unsound (too large) lookahead must be detected by the window
        // floor check, never silently reorder deliveries.
        let app = UniformSharing {
            touches_per_proc: 200,
            ..UniformSharing::default()
        };
        let cfg = SystemConfig::small();
        let delta = lookahead(&cfg);
        let mut m = Machine::new(cfg, &app).expect("config");
        execute(&mut m, 2, delta * 50, u64::MAX);
    }
}
