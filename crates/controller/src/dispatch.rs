//! Input queues, dispatch arbitration, and engine statistics.

use std::collections::VecDeque;

use ccn_protocol::MsgClass;
use ccn_sim::stats::{Accumulator, Histogram};
use ccn_sim::{ComponentStats, Cycle};

use crate::EnginePolicy;

/// Which engine a request is routed to in a two-engine controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineRole {
    /// Local protocol engine: requests for addresses whose home is this
    /// node (the only engine that accesses the directory).
    Local,
    /// Remote protocol engine: requests for addresses homed elsewhere.
    Remote,
}

/// Number of distinct engine roles.
pub const NUM_ENGINE_ROLES: usize = 2;

impl EngineRole {
    /// Label used in Table 7.
    pub fn name(self) -> &'static str {
        match self {
            EngineRole::Local => "LPE",
            EngineRole::Remote => "RPE",
        }
    }
}

/// How many network-side requests may bypass a waiting bus-side request
/// before the anti-livelock exception forces the bus request through
/// (Section 2.2: "e.g. four subsequent network-side requests").
const BUS_STARVATION_LIMIT: u32 = 4;

#[derive(Debug, Clone)]
struct Engine<R> {
    queues: [VecDeque<(Cycle, R)>; 3],
    busy_until: Cycle,
    bus_bypasses: u32,
    last_arrival: Option<Cycle>,
    stats: EngineStats,
}

/// Occupancy and queueing statistics of one protocol engine.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Handlers executed.
    pub handled: u64,
    /// Total cycles the engine was occupied by handlers.
    pub occupancy: Cycle,
    /// Queueing delay of dispatched requests (log2 buckets, cycles, with
    /// an exact count and sum): the tail the mean hides is what
    /// distinguishes HWC from PPC under bursty load.
    pub queue_delay_hist: Histogram,
    /// Arrivals per input-queue class \[responses, net requests, bus\].
    pub class_arrivals: [u64; 3],
    /// Inter-arrival times in cycles (burstiness: the paper attributes
    /// FFT's outsized queueing delay to its bursty arrival process).
    pub interarrival: Accumulator,
}

impl EngineStats {
    /// Requests that arrived at this engine's queues, of every class.
    pub fn arrivals(&self) -> u64 {
        self.class_arrivals.iter().sum()
    }
}

/// Aggregate controller statistics (all engines combined), as used for the
/// per-node rows feeding Table 6.
#[derive(Debug, Clone, Default)]
pub struct ControllerStats {
    /// Requests that arrived at the controller.
    pub arrivals: u64,
    /// Handlers executed.
    pub handled: u64,
    /// Total handler occupancy in cycles.
    pub occupancy: Cycle,
    /// Queueing-delay distribution across all dispatches.
    pub queue_delay_hist: Histogram,
}

fn class_index(class: MsgClass) -> usize {
    match class {
        MsgClass::NetResponse => 0,
        MsgClass::NetRequest => 1,
        MsgClass::BusRequest => 2,
    }
}

/// The queueing/arbitration core of one node's coherence controller.
///
/// Generic over the request payload `R` (the machine model stores its own
/// request records). Each engine has three input queues; the dispatch
/// controller serves the transaction nearest to completion first — network
/// responses, then network requests, then bus requests — with the
/// anti-livelock exception that a bus request bypassed by four
/// network-side requests goes next.
///
/// # Example
///
/// ```
/// use ccn_controller::{CoherenceController, EnginePolicy, EngineRole};
/// use ccn_protocol::MsgClass;
///
/// let mut cc: CoherenceController<&str> = CoherenceController::new(EnginePolicy::Single);
/// cc.enqueue(EngineRole::Remote, 7, MsgClass::BusRequest, 10, "read miss");
/// cc.enqueue(EngineRole::Remote, 7, MsgClass::NetResponse, 11, "data resp");
/// // The response wins despite arriving later.
/// let (req, class) = cc.dispatch(0, 12).unwrap();
/// assert_eq!((req, class), ("data resp", MsgClass::NetResponse));
/// ```
#[derive(Debug, Clone)]
pub struct CoherenceController<R> {
    engines: Vec<Engine<R>>,
    policy: EnginePolicy,
}

impl<R> CoherenceController<R> {
    /// Creates an idle controller with the given engine policy.
    pub fn new(policy: EnginePolicy) -> Self {
        Self::with_queue_capacity(policy, 0)
    }

    /// Creates an idle controller whose per-class input queues are
    /// pre-sized for `capacity` pending requests each. Sizing for the
    /// machine's worst-case in-flight load keeps the enqueue path off
    /// the allocator in the steady state.
    pub fn with_queue_capacity(policy: EnginePolicy, capacity: usize) -> Self {
        let engine = || Engine {
            queues: std::array::from_fn(|_| VecDeque::with_capacity(capacity)),
            busy_until: 0,
            bus_bypasses: 0,
            last_arrival: None,
            stats: EngineStats::default(),
        };
        CoherenceController {
            engines: (0..policy.engines()).map(|_| engine()).collect(),
            policy,
        }
    }

    /// The engine policy.
    pub fn policy(&self) -> EnginePolicy {
        self.policy
    }

    /// The engine index that serves requests of `role` for `line`.
    pub fn engine_for(&self, role: EngineRole, line: u64) -> usize {
        self.policy.engine_for(role, line)
    }

    /// Enqueues a request at `time`. The caller wakes the engine: at
    /// `time`, or at [`busy_until`](Self::busy_until) if that is later.
    pub fn enqueue(&mut self, role: EngineRole, line: u64, class: MsgClass, time: Cycle, req: R) {
        let idx = self.engine_for(role, line);
        let engine = &mut self.engines[idx];
        engine.stats.class_arrivals[class_index(class)] += 1;
        if let Some(last) = engine.last_arrival {
            engine
                .stats
                .interarrival
                .record(time.saturating_sub(last) as f64);
        }
        engine.last_arrival = Some(time);
        engine.queues[class_index(class)].push_back((time, req));
    }

    /// The cycle engine `idx` becomes free.
    pub fn busy_until(&self, idx: usize) -> Cycle {
        self.engines[idx].busy_until
    }

    /// Attempts to dispatch the next request on engine `idx` at `now`.
    /// Returns `None` if the engine is busy or its queues are empty.
    ///
    /// The caller must follow a successful dispatch with
    /// [`complete_handler`](Self::complete_handler) once it has computed the
    /// handler's occupancy.
    pub fn dispatch(&mut self, idx: usize, now: Cycle) -> Option<(R, MsgClass)> {
        let engine = &mut self.engines[idx];
        if engine.busy_until > now {
            return None;
        }
        let bus_waiting = !engine.queues[class_index(MsgClass::BusRequest)].is_empty();
        let pick = if !engine.queues[class_index(MsgClass::NetResponse)].is_empty() {
            MsgClass::NetResponse
        } else if bus_waiting && engine.bus_bypasses >= BUS_STARVATION_LIMIT {
            MsgClass::BusRequest
        } else if !engine.queues[class_index(MsgClass::NetRequest)].is_empty() {
            MsgClass::NetRequest
        } else if bus_waiting {
            MsgClass::BusRequest
        } else {
            return None;
        };
        // Track starvation of the bus queue by network-side dispatches.
        match pick {
            MsgClass::BusRequest => engine.bus_bypasses = 0,
            MsgClass::NetResponse | MsgClass::NetRequest => {
                if bus_waiting {
                    engine.bus_bypasses += 1;
                }
            }
        }
        let (enq_time, req) = engine.queues[class_index(pick)]
            .pop_front()
            .expect("picked a non-empty queue");
        engine
            .stats
            .queue_delay_hist
            .record(now.saturating_sub(enq_time));
        Some((req, pick))
    }

    /// Records a handler execution on engine `idx` spanning
    /// `[start, end)`; marks the engine busy until `end`.
    ///
    /// # Panics
    ///
    /// Panics if `end < start`.
    pub fn complete_handler(&mut self, idx: usize, start: Cycle, end: Cycle) {
        assert!(end >= start, "handler cannot end before it starts");
        let engine = &mut self.engines[idx];
        engine.busy_until = end;
        engine.stats.handled += 1;
        engine.stats.occupancy += end - start;
    }

    /// Whether any queue of engine `idx` holds work.
    pub fn has_work(&self, idx: usize) -> bool {
        self.engines[idx].queues.iter().any(|q| !q.is_empty())
    }

    /// Whether every input queue of every engine is empty — the
    /// controller-level quiescence condition: no accepted request is still
    /// waiting for a handler. Used by end-of-run consistency checks.
    pub fn is_drained(&self) -> bool {
        (0..self.engines.len()).all(|idx| !self.has_work(idx))
    }

    /// Number of engines.
    pub fn engines(&self) -> usize {
        self.engines.len()
    }

    /// Statistics of engine `idx`.
    pub fn engine_stats(&self, idx: usize) -> &EngineStats {
        &self.engines[idx].stats
    }

    /// Aggregate statistics over all engines.
    pub fn stats(&self) -> ControllerStats {
        let mut out = ControllerStats::default();
        for e in &self.engines {
            out.arrivals += e.stats.arrivals();
            out.handled += e.stats.handled;
            out.occupancy += e.stats.occupancy;
            out.queue_delay_hist.merge(&e.stats.queue_delay_hist);
        }
        out
    }

    /// Requests currently waiting in engine `idx`'s input queues (the
    /// dispatch backlog the sampler's time series tracks).
    pub fn queue_depth(&self, idx: usize) -> usize {
        self.engines[idx].queues.iter().map(VecDeque::len).sum()
    }

    /// A snapshot of the controller's aggregate statistics, one child per
    /// protocol engine named `engine{idx}.{role}`.
    pub fn stats_snapshot(&self) -> ComponentStats {
        let agg = self.stats();
        let total_depth: usize = (0..self.engines.len()).map(|i| self.queue_depth(i)).sum();
        let mut snap = ComponentStats::named("cc")
            .counter("arrivals", agg.arrivals)
            .counter("handled", agg.handled)
            .counter("occupancy_cycles", agg.occupancy)
            .counter("queue_depth", total_depth as u64)
            .gauge("mean_queue_delay", agg.queue_delay_hist.mean())
            .gauge(
                "p99_queue_delay",
                agg.queue_delay_hist.quantile(0.99).unwrap_or(0.0),
            );
        for (idx, e) in self.engines.iter().enumerate() {
            snap.children.push(
                ComponentStats::named(format!("engine{idx}.{}", self.policy.role_label(idx)))
                    .counter("arrivals", e.stats.arrivals())
                    .counter("handled", e.stats.handled)
                    .counter("occupancy_cycles", e.stats.occupancy)
                    .counter("queue_depth", self.queue_depth(idx) as u64)
                    .gauge("mean_queue_delay", e.stats.queue_delay_hist.mean())
                    .gauge("mean_interarrival", e.stats.interarrival.mean()),
            );
        }
        snap
    }

    /// Resets statistics (not queue contents or busy state).
    pub fn reset_stats(&mut self) {
        for e in &mut self.engines {
            e.stats = EngineStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc(policy: EnginePolicy) -> CoherenceController<u32> {
        CoherenceController::new(policy)
    }

    #[test]
    fn priority_order_responses_first() {
        let mut c = cc(EnginePolicy::Single);
        c.enqueue(EngineRole::Remote, 0, MsgClass::BusRequest, 0, 1);
        c.enqueue(EngineRole::Remote, 0, MsgClass::NetRequest, 0, 2);
        c.enqueue(EngineRole::Remote, 0, MsgClass::NetResponse, 0, 3);
        assert_eq!(c.dispatch(0, 5), Some((3, MsgClass::NetResponse)));
        assert_eq!(c.dispatch(0, 5), Some((2, MsgClass::NetRequest)));
        assert_eq!(c.dispatch(0, 5), Some((1, MsgClass::BusRequest)));
        assert_eq!(c.dispatch(0, 5), None);
    }

    #[test]
    fn busy_engine_does_not_dispatch() {
        let mut c = cc(EnginePolicy::Single);
        c.enqueue(EngineRole::Local, 0, MsgClass::BusRequest, 0, 1);
        let (_, _) = c.dispatch(0, 0).unwrap();
        c.complete_handler(0, 0, 50);
        c.enqueue(EngineRole::Local, 0, MsgClass::BusRequest, 10, 2);
        assert_eq!(c.dispatch(0, 20), None);
        assert_eq!(c.dispatch(0, 50), Some((2, MsgClass::BusRequest)));
    }

    #[test]
    fn anti_livelock_lets_bus_through() {
        let mut c = cc(EnginePolicy::Single);
        c.enqueue(EngineRole::Remote, 0, MsgClass::BusRequest, 0, 99);
        // Keep feeding network requests; after 4 bypasses the bus request
        // must win even though a network request is waiting.
        for i in 0..4 {
            c.enqueue(EngineRole::Remote, 0, MsgClass::NetRequest, 0, i);
            assert_eq!(c.dispatch(0, 10), Some((i, MsgClass::NetRequest)));
        }
        c.enqueue(EngineRole::Remote, 0, MsgClass::NetRequest, 0, 100);
        assert_eq!(c.dispatch(0, 10), Some((99, MsgClass::BusRequest)));
        // Counter reset: network requests win again.
        assert_eq!(c.dispatch(0, 10), Some((100, MsgClass::NetRequest)));
    }

    #[test]
    fn responses_still_beat_starved_bus_requests() {
        let mut c = cc(EnginePolicy::Single);
        c.enqueue(EngineRole::Remote, 0, MsgClass::BusRequest, 0, 99);
        for i in 0..4 {
            c.enqueue(EngineRole::Remote, 0, MsgClass::NetRequest, 0, i);
            c.dispatch(0, 10);
        }
        c.enqueue(EngineRole::Remote, 0, MsgClass::NetResponse, 0, 7);
        // The paper's exception applies to further network-side *requests*;
        // responses (nearest to completion) still go first.
        assert_eq!(c.dispatch(0, 10), Some((7, MsgClass::NetResponse)));
        assert_eq!(c.dispatch(0, 10), Some((99, MsgClass::BusRequest)));
    }

    #[test]
    fn two_engine_routing() {
        let mut c = cc(EnginePolicy::LocalRemote);
        assert_eq!(c.engine_for(EngineRole::Local, 0), 0);
        assert_eq!(c.engine_for(EngineRole::Remote, 0), 1);
        c.enqueue(EngineRole::Local, 0, MsgClass::BusRequest, 0, 1);
        c.enqueue(EngineRole::Remote, 0, MsgClass::BusRequest, 0, 2);
        assert_eq!(c.dispatch(0, 1), Some((1, MsgClass::BusRequest)));
        assert_eq!(c.dispatch(1, 1), Some((2, MsgClass::BusRequest)));
    }

    #[test]
    fn single_engine_serves_both_roles() {
        let c = cc(EnginePolicy::Single);
        assert_eq!(c.engine_for(EngineRole::Local, 0), 0);
        assert_eq!(c.engine_for(EngineRole::Remote, 0), 0);
    }

    #[test]
    fn drained_means_every_queue_is_empty() {
        let mut c = cc(EnginePolicy::LocalRemote);
        assert!(c.is_drained());
        c.enqueue(EngineRole::Remote, 0, MsgClass::NetRequest, 0, 1);
        assert!(!c.is_drained());
        c.dispatch(1, 0);
        assert!(c.is_drained());
    }

    #[test]
    fn stats_accumulate() {
        let mut c = cc(EnginePolicy::Single);
        c.enqueue(EngineRole::Local, 0, MsgClass::BusRequest, 0, 1);
        c.dispatch(0, 10);
        c.complete_handler(0, 10, 40);
        let s = c.stats();
        assert_eq!(s.arrivals, 1);
        assert_eq!(s.handled, 1);
        assert_eq!(s.occupancy, 30);
        assert_eq!(s.queue_delay_hist.mean(), 10.0);
        assert_eq!(c.engine_stats(0).occupancy, 30);
    }

    #[test]
    #[should_panic(expected = "end before it starts")]
    fn bad_handler_interval_panics() {
        let mut c = cc(EnginePolicy::Single);
        c.complete_handler(0, 10, 5);
    }

    #[test]
    fn queue_delay_histogram_and_depth() {
        let mut c = cc(EnginePolicy::Single);
        c.enqueue(EngineRole::Local, 0, MsgClass::BusRequest, 0, 1);
        c.enqueue(EngineRole::Local, 0, MsgClass::NetRequest, 0, 2);
        assert_eq!(c.queue_depth(0), 2);
        c.dispatch(0, 10); // delay 10
        assert_eq!(c.queue_depth(0), 1);
        c.dispatch(0, 16); // delay 16
        let s = c.stats();
        assert_eq!(s.queue_delay_hist.count(), 2);
        assert_eq!(s.queue_delay_hist.min(), Some(10));
        assert_eq!(s.queue_delay_hist.max(), Some(16));
        assert_eq!(s.queue_delay_hist.mean(), 13.0);
        let snap = c.stats_snapshot();
        assert_eq!(snap.get_counter("queue_depth"), Some(0));
    }
}
