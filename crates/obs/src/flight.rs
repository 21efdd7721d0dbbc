//! Transaction flight recorder: per-transaction causal tracing with an
//! exact cycle decomposition.
//!
//! Every coherence transaction (an L2 miss from issue to fill) gets a
//! stable [`TxnId`] at issue; the simulator feeds the recorder one
//! [`FlightEvent`] per hop (bus latch, controller dispatch, handler
//! occupancy, network delivery, protocol replay). When the fill arrives,
//! the recorder telescopes the milestones into a per-[`Category`] cycle
//! decomposition that sums *exactly* to the transaction's end-to-end miss
//! latency — the same quantity the machine-wide miss-latency histogram
//! records — so `repro explain` output and the aggregate tables can never
//! disagree.
//!
//! The recorder is also the machine's only record of handler
//! executions: every handler emits one [`FlightEvent::Hop`]. A hop that
//! serves no live transaction (a write-back or replacement hint at the
//! home, a sparse-directory recall, a late ack) becomes a [`HopOnly`]
//! record, and so do the hops of a transaction that ends without a
//! completed record. [`FlightRecorder::spans`] reads every retained hop
//! back, which is what the Chrome trace export draws.
//!
//! The recorder is strictly observational: it only consumes event times
//! the simulator already computed, never influences scheduling, and keeps
//! completed transactions and hop-only records in two bounded rings
//! (oldest dropped and counted), so goldens and digests are
//! byte-identical with it on or off.
//!
//! Determinism rules: events are applied in the simulator's event order,
//! ids are assigned per-processor in issue order, and every query sorts
//! with total tie-breaks — so all artifacts derived from the recorder are
//! byte-identical across reruns and `--jobs` counts.

use ccn_harness::Json;
use ccn_sim::{Cycle, FxHashMap};
use std::collections::VecDeque;

/// Stable identity of one coherence transaction: the issuing processor's
/// global index and a per-processor issue sequence number. Renders as
/// `P<proc>#<seq>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId {
    /// Global index of the issuing processor.
    pub proc: u32,
    /// Issue sequence number within that processor (0-based).
    pub seq: u32,
}

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}#{}", self.proc, self.seq)
    }
}

impl TxnId {
    /// Parses the `P<proc>#<seq>` rendering back into an id.
    pub fn parse(s: &str) -> Option<TxnId> {
        let rest = s.strip_prefix('P')?;
        let (proc, seq) = rest.split_once('#')?;
        Some(TxnId {
            proc: proc.parse().ok()?,
            seq: seq.parse().ok()?,
        })
    }
}

/// Where a transaction's cycles are attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Local bus: arbitration, snoop, data transfer, and fill overhead
    /// (also the residual closing segment up to the fill).
    Bus,
    /// Waiting in a coherence-controller inbound queue for an engine.
    Queue,
    /// Protocol-handler occupancy on an engine.
    Occupancy,
    /// Network transit (inject to deliver), both request and reply legs.
    Net,
    /// Protocol stall: directory Busy/Recall/retry replay delay.
    Stall,
}

impl Category {
    /// All categories, in decomposition (and rendering) order.
    pub const ALL: [Category; 5] = [
        Category::Bus,
        Category::Queue,
        Category::Occupancy,
        Category::Net,
        Category::Stall,
    ];

    /// Dense index for per-category arrays.
    pub fn index(self) -> usize {
        match self {
            Category::Bus => 0,
            Category::Queue => 1,
            Category::Occupancy => 2,
            Category::Net => 3,
            Category::Stall => 4,
        }
    }

    /// Stable lowercase label (JSON keys, table headers).
    pub fn label(self) -> &'static str {
        match self {
            Category::Bus => "bus",
            Category::Queue => "queue",
            Category::Occupancy => "occupancy",
            Category::Net => "net",
            Category::Stall => "stall",
        }
    }
}

/// One recorded handler execution on behalf of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Handler start time (engine acquire).
    pub time: Cycle,
    /// Node the handler ran on.
    pub at_node: u16,
    /// Engine within that node's controller.
    pub engine: u8,
    /// Handler occupancy in cycles.
    pub occupancy: Cycle,
    /// Handler label (Table 4 row name).
    pub handler: &'static str,
    /// Transaction phase the handler belongs to.
    pub phase: &'static str,
}

/// One instrumentation event fed to the recorder by the simulator.
///
/// Transactions are keyed by `(node, line)` — the requesting node and the
/// cache line — which is unique while the transaction is outstanding
/// (one MSHR per line per node).
#[derive(Debug, Clone, Copy)]
pub enum FlightEvent {
    /// A processor issued a miss: a new transaction begins.
    Begin {
        /// Requesting node.
        node: u16,
        /// Issuing processor (global index).
        proc: u32,
        /// Cache line address.
        line: u64,
        /// Issue time (miss detected, processor blocked).
        time: Cycle,
        /// Bus operation label for the request.
        op: &'static str,
    },
    /// A causal milestone: cycles from the previous milestone up to
    /// `time` are attributed to `cat`.
    Milestone {
        /// Requesting node (transaction key).
        node: u16,
        /// Cache line address (transaction key).
        line: u64,
        /// Milestone time.
        time: Cycle,
        /// Category the preceding segment belongs to.
        cat: Category,
    },
    /// A protocol handler executed on behalf of the transaction
    /// (descriptive; attribution happens via `Milestone` events).
    Hop {
        /// Requesting node (transaction key).
        node: u16,
        /// Cache line address (transaction key).
        line: u64,
        /// The hop itself.
        hop: Hop,
    },
    /// The fill arrived: the transaction completes at `time`.
    Complete {
        /// Requesting node (transaction key).
        node: u16,
        /// Cache line address (transaction key).
        line: u64,
        /// Fill time; `time - issue` is the recorded miss latency.
        time: Cycle,
    },
    /// The fill arrived but cost the processor no cycles, so no miss
    /// latency is recorded: the transaction ends without a record and
    /// without being counted, and its hops become hop-only records.
    Close {
        /// Requesting node (transaction key).
        node: u16,
        /// Cache line address (transaction key).
        line: u64,
    },
    /// The measured phase starts: reset aggregates and drop the retained
    /// records, keep live transactions (in-flight misses crossing the
    /// boundary land in the measured miss-latency histograms, so the
    /// recorder keeps them too).
    MeasureReset,
}

/// A handler execution kept outside any transaction record: it served
/// no live transaction, or its transaction ended without a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopOnly {
    /// Requesting node of the key the handler carried.
    pub node: u16,
    /// Cache line the handler concerned.
    pub line: u64,
    /// The handler execution.
    pub hop: Hop,
}

/// A completed transaction with its exact cycle decomposition.
///
/// The record's handler hops live in the recorder's shared hop arena;
/// read them with [`FlightRecorder::hops`].
#[derive(Debug, Clone)]
pub struct TxnRecord {
    /// Stable transaction id.
    pub id: TxnId,
    /// Requesting node.
    pub node: u16,
    /// Cache line address.
    pub line: u64,
    /// Bus operation label of the original request.
    pub op: &'static str,
    /// Issue time.
    pub issue: Cycle,
    /// Fill time.
    pub complete: Cycle,
    /// Cycles per category, indexed by [`Category::index`]. Sums exactly
    /// to [`latency`](TxnRecord::latency).
    pub components: [u64; 5],
    /// Arena position of the first hop: a running count of hop slots,
    /// stored at index `hop_start % arena size`.
    hop_start: u64,
    /// Number of hops.
    hop_len: u32,
}

impl TxnRecord {
    /// End-to-end miss latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.complete - self.issue
    }

    /// Sum of the per-category components (always equals
    /// [`latency`](TxnRecord::latency)).
    pub fn components_sum(&self) -> u64 {
        self.components.iter().sum()
    }
}

/// Filler for hop-arena positions that hold no retained hop.
const NO_HOP: Hop = Hop {
    time: 0,
    at_node: 0,
    engine: 0,
    occupancy: 0,
    handler: "",
    phase: "",
};

/// Initial milestone and hop buffer sizes of a live-transaction slot:
/// above what a typical miss records, so the buffers rarely grow, and
/// once grown they keep their size for the slot's next transaction.
const SLOT_MILESTONES: usize = 16;
const SLOT_HOPS: usize = 8;

/// One slot of the live-transaction slab. Its buffers are cleared and
/// reused in place for the next transaction that takes the slot.
#[derive(Debug)]
struct LiveTxn {
    id: TxnId,
    op: &'static str,
    issue: Cycle,
    /// `(category, milestone time)` in event order.
    milestones: Vec<(Category, Cycle)>,
    hops: Vec<Hop>,
}

impl LiveTxn {
    fn empty() -> LiveTxn {
        LiveTxn {
            id: TxnId { proc: 0, seq: 0 },
            op: "",
            issue: 0,
            milestones: Vec::with_capacity(SLOT_MILESTONES),
            hops: Vec::with_capacity(SLOT_HOPS),
        }
    }
}

/// Machine-wide blame decomposition over the measured phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameSummary {
    /// Transactions completed since the measurement reset (including
    /// records the bounded ring has since dropped).
    pub transactions: u64,
    /// Completed records still retained in the ring.
    pub retained: u64,
    /// Completed records the bounded ring discarded.
    pub dropped: u64,
    /// Total miss cycles across all completed transactions.
    pub total_cycles: u64,
    /// Miss cycles per category (sums to `total_cycles`); immune to ring
    /// drops — accumulated incrementally at completion.
    pub component_cycles: [u64; 5],
    /// Latency (cycles) of the p99 transaction among retained records
    /// (`None` when nothing is retained).
    pub p99_threshold: Option<u64>,
    /// Total miss cycles of the p99 tail (retained records with latency
    /// at or above the threshold).
    pub tail_cycles: u64,
    /// Miss cycles per category within the p99 tail.
    pub tail_component_cycles: [u64; 5],
}

impl BlameSummary {
    /// Deterministic JSON form (sorted keys; stable category labels).
    pub fn to_json(&self) -> Json {
        fn comps(c: &[u64; 5]) -> Json {
            Json::Obj(
                Category::ALL
                    .iter()
                    .map(|cat| (cat.label().to_string(), Json::UInt(c[cat.index()])))
                    .collect(),
            )
        }
        Json::obj([
            ("transactions", Json::UInt(self.transactions)),
            ("retained", Json::UInt(self.retained)),
            ("dropped", Json::UInt(self.dropped)),
            ("total_cycles", Json::UInt(self.total_cycles)),
            ("component_cycles", comps(&self.component_cycles)),
            (
                "p99_threshold",
                match self.p99_threshold {
                    Some(t) => Json::UInt(t),
                    None => Json::Null,
                },
            ),
            ("tail_cycles", Json::UInt(self.tail_cycles)),
            ("tail_component_cycles", comps(&self.tail_component_cycles)),
        ])
    }
}

/// The flight recorder: applies [`FlightEvent`]s and keeps completed
/// transactions and hop-only records in bounded rings, plus incremental
/// per-category totals.
///
/// Storage is flat so the steady state stays off the allocator:
///
/// - in-flight transactions sit in a slab of slots found through an
///   `FxHashMap` keyed by `(node, line)`; a slot's milestone and hop
///   buffers are reused in place. Each processor has at most one miss
///   outstanding, and every transaction frees its slot at its fill
///   (completed or closed), so the map and slab are pre-sized to the
///   processor count and never grow in a machine run;
/// - completed records sit in one ring, and their hops in a second ring,
///   the hop arena, in completion order. A record's hops never straddle
///   the arena's end (the arena skips to its start instead), so they read
///   back as one slice;
/// - hop-only records sit in a third ring, in event order.
///
/// All three rings grow by doubling, and only while the retained records
/// need more room.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Next issue sequence number per processor.
    next_seq: Vec<u32>,
    /// In-flight transactions: `(node, line)` to a slot in `slots`.
    live: FxHashMap<(u16, u64), u32>,
    slots: Vec<LiveTxn>,
    /// Indices of the unused slots.
    free: Vec<u32>,
    /// Completed transactions, oldest first.
    completed: VecDeque<TxnRecord>,
    /// The hop arena: empty or a power of two long.
    hops: Vec<Hop>,
    /// Arena position one past the newest record's hops.
    hop_end: u64,
    /// Hop-only records, oldest first.
    hop_only: VecDeque<HopOnly>,
    capacity: usize,
    dropped: u64,
    hop_only_dropped: u64,
    /// Completions since the last measurement reset.
    transactions: u64,
    total_cycles: u64,
    component_cycles: [u64; 5],
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` completed transactions
    /// and at most `capacity` hop-only records, with its
    /// live-transaction table sized for `nprocs` processors (each has at
    /// most one miss outstanding). The rings are not pre-allocated: they
    /// grow as records arrive.
    pub fn new(capacity: usize, nprocs: usize) -> FlightRecorder {
        FlightRecorder {
            next_seq: vec![0; nprocs],
            live: FxHashMap::with_capacity_and_hasher(nprocs, Default::default()),
            slots: (0..nprocs).map(|_| LiveTxn::empty()).collect(),
            free: (0..nprocs as u32).rev().collect(),
            completed: VecDeque::new(),
            hops: Vec::new(),
            hop_end: 0,
            hop_only: VecDeque::new(),
            capacity,
            dropped: 0,
            hop_only_dropped: 0,
            transactions: 0,
            total_cycles: 0,
            component_cycles: [0; 5],
        }
    }

    /// Applies one instrumentation event.
    pub fn apply(&mut self, event: FlightEvent) {
        match event {
            FlightEvent::Begin {
                node,
                proc,
                line,
                time,
                op,
            } => {
                let p = proc as usize;
                if p >= self.next_seq.len() {
                    self.next_seq.resize(p + 1, 0);
                }
                let id = TxnId {
                    proc,
                    seq: self.next_seq[p],
                };
                self.next_seq[p] += 1;
                // A Begin on a live key supersedes the stale transaction:
                // its hops become hop-only records and the new
                // transaction takes over its slot.
                if let Some(&slot) = self.live.get(&(node, line)) {
                    self.release_hops(node, line, slot as usize);
                }
                let slot = *self.live.entry((node, line)).or_insert_with(|| {
                    self.free.pop().unwrap_or_else(|| {
                        self.slots.push(LiveTxn::empty());
                        (self.slots.len() - 1) as u32
                    })
                });
                let txn = &mut self.slots[slot as usize];
                txn.id = id;
                txn.op = op;
                txn.issue = time;
                txn.milestones.clear();
                txn.hops.clear();
            }
            FlightEvent::Milestone {
                node,
                line,
                time,
                cat,
            } => {
                if let Some(&slot) = self.live.get(&(node, line)) {
                    self.slots[slot as usize].milestones.push((cat, time));
                }
            }
            FlightEvent::Hop { node, line, hop } => match self.live.get(&(node, line)) {
                Some(&slot) => self.slots[slot as usize].hops.push(hop),
                None => self.push_hop_only(HopOnly { node, line, hop }),
            },
            FlightEvent::Complete { node, line, time } => {
                if let Some(slot) = self.live.remove(&(node, line)) {
                    self.finish(node, line, time, slot as usize);
                    self.free.push(slot);
                }
            }
            FlightEvent::Close { node, line } => {
                if let Some(slot) = self.live.remove(&(node, line)) {
                    self.release_hops(node, line, slot as usize);
                    self.free.push(slot);
                }
            }
            FlightEvent::MeasureReset => {
                self.transactions = 0;
                self.total_cycles = 0;
                self.component_cycles = [0; 5];
                self.dropped = 0;
                self.hop_only_dropped = 0;
                // The arena's contents die with the records.
                self.completed.clear();
                self.hop_only.clear();
            }
        }
    }

    /// Files one hop-only record, dropping the oldest when the ring is
    /// full.
    fn push_hop_only(&mut self, rec: HopOnly) {
        if self.capacity == 0 {
            self.hop_only_dropped += 1;
            return;
        }
        if self.hop_only.len() == self.capacity {
            self.hop_only.pop_front();
            self.hop_only_dropped += 1;
        }
        self.hop_only.push_back(rec);
    }

    /// Moves the hops of the transaction in `slot`, which ends without a
    /// record, to hop-only records keyed by its `(node, line)`.
    fn release_hops(&mut self, node: u16, line: u64, slot: usize) {
        let mut hops = std::mem::take(&mut self.slots[slot].hops);
        for hop in hops.drain(..) {
            self.push_hop_only(HopOnly { node, line, hop });
        }
        // The emptied buffer goes back to the slot for its next user.
        self.slots[slot].hops = hops;
    }

    /// Telescopes the milestones of the transaction in `slot` into the
    /// exact decomposition and files the completed record.
    fn finish(&mut self, node: u16, line: u64, complete: Cycle, slot: usize) {
        let txn = &self.slots[slot];
        debug_assert!(complete >= txn.issue, "fill before issue");
        let complete = complete.max(txn.issue);
        let mut components = [0u64; 5];
        let mut last = txn.issue;
        for &(cat, t) in &txn.milestones {
            // Clamp to the fill time: an occupancy milestone can land
            // past the fill (the critical word returns before the handler
            // retires) and side-path milestones can arrive out of time
            // order; clamping keeps every segment non-negative and the
            // total telescoping exactly to `complete - issue`.
            let ct = t.min(complete);
            components[cat.index()] += ct.saturating_sub(last);
            last = last.max(ct);
        }
        // The closing segment (last milestone to fill) rides the local
        // bus: data transfer plus fill overhead.
        components[Category::Bus.index()] += complete - last;
        let latency: u64 = complete - txn.issue;
        debug_assert_eq!(components.iter().sum::<u64>(), latency);
        self.transactions += 1;
        self.total_cycles += latency;
        for (total, c) in self.component_cycles.iter_mut().zip(components) {
            *total += c;
        }
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.completed.len() == self.capacity {
            self.completed.pop_front();
            self.dropped += 1;
        }
        let n = txn.hops.len();
        let hop_start = self.reserve_hops(n as u64);
        let txn = &self.slots[slot];
        let at = self.arena_index(hop_start);
        self.hops[at..at + n].copy_from_slice(&txn.hops);
        self.completed.push_back(TxnRecord {
            id: txn.id,
            node,
            line,
            op: txn.op,
            issue: txn.issue,
            complete,
            components,
            hop_start,
            hop_len: n as u32,
        });
    }

    /// Reserves `n` arena positions for the next record's hops and
    /// returns the first. Positions from the oldest retained record's
    /// hops up to `hop_end` are in use; the new chain goes after them,
    /// skipping to the arena's start rather than wrapping.
    fn reserve_hops(&mut self, n: u64) -> u64 {
        let oldest = self.completed.front().map_or(self.hop_end, |r| r.hop_start);
        loop {
            let size = self.hops.len() as u64;
            let mut start = self.hop_end;
            if size > 0 && self.arena_index(start) as u64 + n > size {
                start = start.next_multiple_of(size);
            }
            if start + n - oldest <= size {
                self.hop_end = start + n;
                return start;
            }
            // Grow the arena in place. A position in use moves from index
            // `pos % size` to `pos % grown`: the same index, or one in
            // the new tail, which no other position in use occupies. A
            // chain that did not wrap before does not wrap now.
            let grown = (2 * size).max(n.next_power_of_two());
            self.hops.resize(grown as usize, NO_HOP);
            for pos in oldest..self.hop_end {
                let (from, to) = ((pos % size) as usize, (pos % grown) as usize);
                self.hops[to] = self.hops[from];
            }
        }
    }

    /// Index of arena position `pos`. An empty arena has only held
    /// empty chains, all at position 0.
    fn arena_index(&self, pos: u64) -> usize {
        (pos & (self.hops.len() as u64).wrapping_sub(1)) as usize
    }

    /// Completed transactions retained in the ring, oldest first.
    pub fn completed(&self) -> impl Iterator<Item = &TxnRecord> {
        self.completed.iter()
    }

    /// The handler executions on behalf of `rec`, in event order.
    ///
    /// `rec` must be a record this recorder currently retains (from
    /// [`completed`](FlightRecorder::completed),
    /// [`find`](FlightRecorder::find) or
    /// [`slowest`](FlightRecorder::slowest)).
    pub fn hops(&self, rec: &TxnRecord) -> &[Hop] {
        let at = self.arena_index(rec.hop_start);
        &self.hops[at..at + rec.hop_len as usize]
    }

    /// How many completed records the bounded ring has discarded.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Hop-only records retained in their ring, oldest first.
    pub fn hop_only(&self) -> impl Iterator<Item = &HopOnly> {
        self.hop_only.iter()
    }

    /// How many hop-only records the bounded ring has discarded.
    pub fn hop_only_dropped(&self) -> u64 {
        self.hop_only_dropped
    }

    /// Every retained handler execution with the line its record names:
    /// the hops of the retained transactions in completion order, then
    /// the hop-only records oldest first.
    pub fn spans(&self) -> impl Iterator<Item = (u64, &Hop)> {
        self.completed
            .iter()
            .flat_map(|r| self.hops(r).iter().map(move |h| (r.line, h)))
            .chain(self.hop_only.iter().map(|r| (r.line, &r.hop)))
    }

    /// Transactions completed since the last measurement reset.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }

    /// The retained record with this id, if any.
    pub fn find(&self, id: TxnId) -> Option<&TxnRecord> {
        self.completed.iter().find(|r| r.id == id)
    }

    /// The `k` slowest retained transactions, ordered by latency
    /// descending with the transaction id as a total tie-break.
    pub fn slowest(&self, k: usize) -> Vec<&TxnRecord> {
        let mut all: Vec<&TxnRecord> = self.completed.iter().collect();
        all.sort_by(|a, b| b.latency().cmp(&a.latency()).then_with(|| a.id.cmp(&b.id)));
        all.truncate(k);
        all
    }

    /// Machine-wide blame decomposition (totals are drop-immune; the
    /// p99-tail slice is computed over retained records).
    pub fn blame(&self) -> BlameSummary {
        let mut p99_threshold = None;
        let mut tail_cycles = 0;
        let mut tail_component_cycles = [0u64; 5];
        if !self.completed.is_empty() {
            let mut lat: Vec<u64> = self.completed.iter().map(|r| r.latency()).collect();
            let n = lat.len();
            // Rank ceil(0.99 * n), 1-indexed: the latency at or above
            // which a transaction is in the top 1%. Selection finds the
            // same rank a full sort would, in linear time.
            let rank = (n * 99).div_ceil(100).max(1);
            let threshold = *lat.select_nth_unstable(rank - 1).1;
            p99_threshold = Some(threshold);
            for r in &self.completed {
                if r.latency() >= threshold {
                    tail_cycles += r.latency();
                    for (t, c) in tail_component_cycles.iter_mut().zip(r.components) {
                        *t += c;
                    }
                }
            }
        }
        BlameSummary {
            transactions: self.transactions,
            retained: self.completed.len() as u64,
            dropped: self.dropped,
            total_cycles: self.total_cycles,
            component_cycles: self.component_cycles,
            p99_threshold,
            tail_cycles,
            tail_component_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn begin(rec: &mut FlightRecorder, node: u16, proc: u32, line: u64, time: Cycle) {
        rec.apply(FlightEvent::Begin {
            node,
            proc,
            line,
            time,
            op: "Read",
        });
    }

    #[test]
    fn txn_id_renders_and_parses() {
        let id = TxnId { proc: 12, seq: 345 };
        assert_eq!(id.to_string(), "P12#345");
        assert_eq!(TxnId::parse("P12#345"), Some(id));
        assert_eq!(TxnId::parse("12#345"), None);
        assert_eq!(TxnId::parse("P12"), None);
        assert_eq!(TxnId::parse("P#"), None);
    }

    #[test]
    fn decomposition_sums_exactly_to_latency() {
        let mut rec = FlightRecorder::new(16, 2);
        begin(&mut rec, 0, 0, 64, 100);
        for (cat, t) in [
            (Category::Bus, 120),
            (Category::Queue, 135),
            (Category::Occupancy, 155),
            (Category::Net, 180),
        ] {
            rec.apply(FlightEvent::Milestone {
                node: 0,
                line: 64,
                time: t,
                cat,
            });
        }
        rec.apply(FlightEvent::Complete {
            node: 0,
            line: 64,
            time: 200,
        });
        let r = rec.completed().next().unwrap();
        assert_eq!(r.latency(), 100);
        assert_eq!(r.components_sum(), 100);
        assert_eq!(r.components, [20 + 20, 15, 20, 25, 0]);
    }

    #[test]
    fn out_of_order_and_overshooting_milestones_still_sum_exactly() {
        let mut rec = FlightRecorder::new(16, 2);
        begin(&mut rec, 3, 7, 128, 1000);
        // An occupancy milestone past the fill time (handler retires
        // after the critical word) and a side-path milestone that moves
        // backwards in time.
        for (cat, t) in [
            (Category::Net, 1100),
            (Category::Occupancy, 1400),
            (Category::Stall, 1050),
            (Category::Net, 1250),
        ] {
            rec.apply(FlightEvent::Milestone {
                node: 3,
                line: 128,
                time: t,
                cat,
            });
        }
        rec.apply(FlightEvent::Complete {
            node: 3,
            line: 128,
            time: 1300,
        });
        let r = rec.completed().next().unwrap();
        assert_eq!(r.latency(), 300);
        assert_eq!(r.components_sum(), 300, "clamped telescoping is exact");
        // Occupancy clamps to the fill; the backwards stall milestone
        // contributes nothing; the final net milestone is inside the
        // already-attributed range.
        assert_eq!(r.components, [0, 0, 200, 100, 0]);
    }

    #[test]
    fn ids_are_per_processor_issue_order() {
        let mut rec = FlightRecorder::new(16, 2);
        begin(&mut rec, 0, 0, 64, 10);
        rec.apply(FlightEvent::Complete {
            node: 0,
            line: 64,
            time: 20,
        });
        begin(&mut rec, 1, 4, 64, 12);
        begin(&mut rec, 0, 0, 192, 30);
        rec.apply(FlightEvent::Complete {
            node: 0,
            line: 192,
            time: 44,
        });
        let ids: Vec<String> = rec.completed().map(|r| r.id.to_string()).collect();
        assert_eq!(ids, ["P0#0", "P0#1"]);
        // The other processor's transaction is still live.
        assert_eq!(rec.transactions(), 2);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut rec = FlightRecorder::new(2, 2);
        for i in 0..4u64 {
            begin(&mut rec, 0, 0, 64 * (i + 1), 10 * i);
            rec.apply(FlightEvent::Complete {
                node: 0,
                line: 64 * (i + 1),
                time: 10 * i + 5,
            });
        }
        assert_eq!(rec.dropped(), 2);
        assert_eq!(rec.transactions(), 4);
        let blame = rec.blame();
        // Totals are immune to ring drops.
        assert_eq!(blame.total_cycles, 4 * 5);
        assert_eq!(blame.retained, 2);
        assert_eq!(blame.dropped, 2);
    }

    #[test]
    fn zero_capacity_counts_every_completion_as_dropped() {
        let mut rec = FlightRecorder::new(0, 2);
        begin(&mut rec, 0, 0, 64, 0);
        rec.apply(FlightEvent::Complete {
            node: 0,
            line: 64,
            time: 9,
        });
        assert_eq!(rec.dropped(), 1);
        assert_eq!(rec.completed().count(), 0);
        assert_eq!(rec.blame().total_cycles, 9);
    }

    #[test]
    fn milestones_for_unknown_transactions_are_ignored() {
        let mut rec = FlightRecorder::new(4, 2);
        rec.apply(FlightEvent::Milestone {
            node: 9,
            line: 640,
            time: 5,
            cat: Category::Net,
        });
        rec.apply(FlightEvent::Complete {
            node: 9,
            line: 640,
            time: 6,
        });
        assert_eq!(rec.transactions(), 0);
    }

    #[test]
    fn measure_reset_clears_aggregates_but_keeps_live() {
        let mut rec = FlightRecorder::new(4, 2);
        begin(&mut rec, 0, 0, 64, 0);
        rec.apply(FlightEvent::Complete {
            node: 0,
            line: 64,
            time: 7,
        });
        begin(&mut rec, 1, 4, 128, 3);
        rec.apply(FlightEvent::MeasureReset);
        assert_eq!(rec.transactions(), 0);
        assert_eq!(rec.completed().count(), 0);
        assert_eq!(rec.blame().total_cycles, 0);
        // The in-flight transaction crossed the boundary and still
        // completes into the measured window.
        rec.apply(FlightEvent::Complete {
            node: 1,
            line: 128,
            time: 23,
        });
        assert_eq!(rec.transactions(), 1);
        assert_eq!(rec.completed().next().unwrap().latency(), 20);
        // Ids keep advancing across the reset.
        begin(&mut rec, 0, 0, 64, 30);
        rec.apply(FlightEvent::Complete {
            node: 0,
            line: 64,
            time: 35,
        });
        assert_eq!(rec.completed().nth(1).unwrap().id.to_string(), "P0#1");
    }

    #[test]
    fn slowest_orders_by_latency_then_id() {
        let mut rec = FlightRecorder::new(8, 2);
        for (proc, line, issue, fill) in
            [(0u32, 64u64, 0u64, 50u64), (1, 128, 0, 90), (2, 192, 0, 50)]
        {
            begin(&mut rec, 0, proc, line, issue);
            rec.apply(FlightEvent::Complete {
                node: 0,
                line,
                time: fill,
            });
        }
        let top: Vec<String> = rec.slowest(3).iter().map(|r| r.id.to_string()).collect();
        assert_eq!(top, ["P1#0", "P0#0", "P2#0"]);
        assert_eq!(rec.slowest(1).len(), 1);
        assert_eq!(rec.find(TxnId { proc: 2, seq: 0 }).unwrap().latency(), 50);
        assert!(rec.find(TxnId { proc: 9, seq: 9 }).is_none());
    }

    #[test]
    fn blame_p99_tail_over_retained() {
        let mut rec = FlightRecorder::new(256, 2);
        for i in 0..100u64 {
            begin(&mut rec, 0, i as u32, 64 * (i + 1), 0);
            rec.apply(FlightEvent::Complete {
                node: 0,
                line: 64 * (i + 1),
                time: i + 1,
            });
        }
        let blame = rec.blame();
        // Rank ceil(0.99*100) = 99 → threshold is the 99th smallest
        // latency; the tail holds the two records at or above it.
        assert_eq!(blame.p99_threshold, Some(99));
        assert_eq!(blame.tail_cycles, 99 + 100);
        assert_eq!(blame.total_cycles, (1..=100).sum::<u64>());
        // All-bus decomposition: no milestones were recorded.
        assert_eq!(
            blame.component_cycles[Category::Bus.index()],
            blame.total_cycles
        );
        assert_eq!(blame.transactions, 100);
    }

    #[test]
    fn blame_json_is_deterministic() {
        let mut rec = FlightRecorder::new(4, 2);
        begin(&mut rec, 0, 0, 64, 0);
        rec.apply(FlightEvent::Complete {
            node: 0,
            line: 64,
            time: 10,
        });
        let a = rec.blame().to_json().to_string();
        let b = rec.blame().to_json().to_string();
        assert_eq!(a, b);
        assert!(a.contains("\"component_cycles\""));
        assert!(a.contains("\"p99_threshold\":10"));
        let empty = FlightRecorder::new(4, 2).blame().to_json().to_string();
        assert!(empty.contains("\"p99_threshold\":null"));
    }

    #[test]
    fn hops_are_recorded_in_order() {
        let mut rec = FlightRecorder::new(4, 2);
        begin(&mut rec, 2, 5, 64, 0);
        for (t, handler) in [(10, "home_read_clean"), (30, "req_data_resp")] {
            rec.apply(FlightEvent::Hop {
                node: 2,
                line: 64,
                hop: Hop {
                    time: t,
                    at_node: 1,
                    engine: 0,
                    occupancy: 14,
                    handler,
                    phase: "home-request",
                },
            });
        }
        rec.apply(FlightEvent::Complete {
            node: 2,
            line: 64,
            time: 50,
        });
        let r = rec.completed().next().unwrap();
        let hops = rec.hops(r);
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].handler, "home_read_clean");
        assert_eq!(hops[1].time, 30);
    }

    #[test]
    fn hops_without_a_live_transaction_become_hop_only_records() {
        let mut rec = FlightRecorder::new(2, 2);
        for t in [5, 6, 7] {
            rec.apply(FlightEvent::Hop {
                node: 1,
                line: 64 * t,
                hop: hop_at(t),
            });
        }
        // The ring keeps the newest two and counts the third.
        let kept: Vec<(u64, Cycle)> = rec.hop_only().map(|r| (r.line, r.hop.time)).collect();
        assert_eq!(kept, [(384, 6), (448, 7)]);
        assert_eq!(rec.hop_only_dropped(), 1);
        // Neither the transaction ring nor its counts see them.
        assert_eq!((rec.completed().count(), rec.dropped()), (0, 0));
        assert_eq!(rec.spans().count(), 2);
        rec.apply(FlightEvent::MeasureReset);
        assert_eq!((rec.hop_only().count(), rec.hop_only_dropped()), (0, 0));
    }

    #[test]
    fn close_frees_the_slot_and_keeps_the_hops() {
        let mut rec = FlightRecorder::new(4, 1);
        for i in 0..10u64 {
            begin(&mut rec, 0, 0, 64, 100 * i);
            rec.apply(FlightEvent::Hop {
                node: 0,
                line: 64,
                hop: hop_at(100 * i + 1),
            });
            rec.apply(FlightEvent::Close { node: 0, line: 64 });
        }
        // No record, no count, and the one slot is reused every time.
        assert_eq!(rec.transactions(), 0);
        assert_eq!(rec.completed().count(), 0);
        assert_eq!(rec.slots.len(), 1);
        assert!(rec.live.is_empty());
        let times: Vec<Cycle> = rec.hop_only().map(|r| r.hop.time).collect();
        assert_eq!(times, [601, 701, 801, 901]);
        // A superseded transaction's hops are kept the same way.
        begin(&mut rec, 0, 0, 64, 2000);
        rec.apply(FlightEvent::Hop {
            node: 0,
            line: 64,
            hop: hop_at(2001),
        });
        begin(&mut rec, 0, 0, 64, 2100);
        assert_eq!(rec.hop_only().last().unwrap().hop.time, 2001);
        assert_eq!(rec.slots.len(), 1);
    }

    fn hop_at(time: Cycle) -> Hop {
        Hop {
            time,
            at_node: 0,
            engine: 0,
            occupancy: 1,
            handler: "h",
            phase: "p",
        }
    }

    #[test]
    fn hop_arena_keeps_every_retained_chain_and_stays_bounded() {
        // Hop counts 0..=6 in a ring of three: records are discarded
        // while the arena holds a mix of live and dead chains, and the
        // arena wraps many times over.
        let mut rec = FlightRecorder::new(3, 1);
        for i in 0..200u64 {
            let line = 64 * (i % 5);
            begin(&mut rec, 0, 0, line, 1000 * i);
            for h in 0..i % 7 {
                rec.apply(FlightEvent::Hop {
                    node: 0,
                    line,
                    hop: hop_at(1000 * i + h),
                });
            }
            rec.apply(FlightEvent::Complete {
                node: 0,
                line,
                time: 1000 * i + 10,
            });
            for r in rec.completed() {
                let times: Vec<Cycle> = rec.hops(r).iter().map(|h| h.time).collect();
                let want: Vec<Cycle> = (0..r.issue / 1000 % 7).map(|h| r.issue + h).collect();
                assert_eq!(times, want, "hops of {}", r.id);
            }
            // Three retained chains of up to six hops, a skipped tail of
            // up to five and the new chain use at most 29 positions; the
            // arena doubles only when short, so it never passes 32.
            assert!(rec.hops.len() <= 32, "arena grew to {}", rec.hops.len());
        }
        assert_eq!(rec.dropped(), 197);
    }

    /// The p99 threshold and tail sums by a full sort: the reference
    /// `blame` must match.
    fn p99_by_sort(rec: &FlightRecorder) -> (Option<u64>, u64, [u64; 5]) {
        let mut lat: Vec<u64> = rec.completed().map(|r| r.latency()).collect();
        if lat.is_empty() {
            return (None, 0, [0; 5]);
        }
        lat.sort_unstable();
        let threshold = lat[(lat.len() * 99).div_ceil(100).max(1) - 1];
        let mut tail = 0;
        let mut parts = [0u64; 5];
        for r in rec.completed().filter(|r| r.latency() >= threshold) {
            tail += r.latency();
            for (t, c) in parts.iter_mut().zip(r.components) {
                *t += c;
            }
        }
        (Some(threshold), tail, parts)
    }

    #[test]
    fn p99_selection_matches_a_full_sort() {
        let mut rng = ccn_sim::SplitMix64::new(0x9e37);
        let sizes = [1usize, 2, 99, 100, 101]
            .into_iter()
            .chain((0..40).map(|_| 1 + rng.next_below(600) as usize))
            .collect::<Vec<_>>();
        for (case, n) in sizes.into_iter().enumerate() {
            let mut rec = FlightRecorder::new(1 << 10, 4);
            // The first five cases use distinct latencies; the random
            // ones draw from a narrow range so the threshold ties.
            let spread = 1 + rng.next_below(40);
            for i in 0..n as u64 {
                let line = 64 * i;
                begin(&mut rec, 0, 0, line, 0);
                let latency = if case < 5 {
                    i + 1
                } else {
                    1 + rng.next_below(spread)
                };
                rec.apply(FlightEvent::Milestone {
                    node: 0,
                    line,
                    time: rng.next_below(latency + 1),
                    cat: Category::ALL[rng.next_below(5) as usize],
                });
                rec.apply(FlightEvent::Complete {
                    node: 0,
                    line,
                    time: latency,
                });
            }
            let blame = rec.blame();
            assert_eq!(
                (
                    blame.p99_threshold,
                    blame.tail_cycles,
                    blame.tail_component_cycles
                ),
                p99_by_sort(&rec),
                "n = {n}"
            );
        }
    }
}
