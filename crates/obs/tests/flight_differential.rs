//! Differential test: the flight recorder's flat storage (live-slot
//! slab, record ring, hop arena, hop-only ring) against a
//! straightforward reference recorder built from a `HashMap` of live
//! transactions, a `VecDeque` of records that own their hops, and a
//! `VecDeque` of hop-only records.
//!
//! Every artifact the recorder feeds — `repro explain`, Chrome spans and
//! flows, blame sidecars — must be identical whichever storage holds the
//! records. Random event streams drive both recorders through the
//! awkward cases: a `Begin` that supersedes a live transaction on the
//! same key, hops and other events for keys nobody began, transactions
//! closed without a record, milestones past the fill or back in time,
//! measurement resets with transactions in flight, and rings small
//! enough to wrap many times (capacities 0, 1, 2, 7, 64).

use std::collections::{HashMap, VecDeque};

use ccn_obs::flight::{BlameSummary, Category, FlightEvent, FlightRecorder, Hop, HopOnly, TxnId};
use ccn_sim::{Cycle, SplitMix64};

/// A completed transaction as the reference keeps it: hops owned.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Record {
    id: TxnId,
    node: u16,
    line: u64,
    op: &'static str,
    issue: Cycle,
    complete: Cycle,
    components: [u64; 5],
    hops: Vec<Hop>,
}

impl Record {
    fn latency(&self) -> Cycle {
        self.complete - self.issue
    }
}

struct LiveTxn {
    id: TxnId,
    op: &'static str,
    issue: Cycle,
    milestones: Vec<(Category, Cycle)>,
    hops: Vec<Hop>,
}

/// The obviously-correct model.
struct ReferenceRecorder {
    next_seq: HashMap<u32, u32>,
    live: HashMap<(u16, u64), LiveTxn>,
    completed: VecDeque<Record>,
    hop_only: VecDeque<HopOnly>,
    capacity: usize,
    dropped: u64,
    hop_only_dropped: u64,
    transactions: u64,
    total_cycles: u64,
    component_cycles: [u64; 5],
}

impl ReferenceRecorder {
    fn new(capacity: usize) -> ReferenceRecorder {
        ReferenceRecorder {
            next_seq: HashMap::new(),
            live: HashMap::new(),
            completed: VecDeque::new(),
            hop_only: VecDeque::new(),
            capacity,
            dropped: 0,
            hop_only_dropped: 0,
            transactions: 0,
            total_cycles: 0,
            component_cycles: [0; 5],
        }
    }

    fn apply(&mut self, event: FlightEvent) {
        match event {
            FlightEvent::Begin {
                node,
                proc,
                line,
                time,
                op,
            } => {
                let seq = self.next_seq.entry(proc).or_insert(0);
                let id = TxnId { proc, seq: *seq };
                *seq += 1;
                let stale = self.live.insert(
                    (node, line),
                    LiveTxn {
                        id,
                        op,
                        issue: time,
                        milestones: Vec::new(),
                        hops: Vec::new(),
                    },
                );
                if let Some(stale) = stale {
                    self.release(node, line, stale);
                }
            }
            FlightEvent::Milestone {
                node,
                line,
                time,
                cat,
            } => {
                if let Some(txn) = self.live.get_mut(&(node, line)) {
                    txn.milestones.push((cat, time));
                }
            }
            FlightEvent::Hop { node, line, hop } => match self.live.get_mut(&(node, line)) {
                Some(txn) => txn.hops.push(hop),
                None => self.push_hop_only(HopOnly { node, line, hop }),
            },
            FlightEvent::Complete { node, line, time } => {
                if let Some(txn) = self.live.remove(&(node, line)) {
                    self.finish(node, line, time, txn);
                }
            }
            FlightEvent::Close { node, line } => {
                if let Some(txn) = self.live.remove(&(node, line)) {
                    self.release(node, line, txn);
                }
            }
            FlightEvent::MeasureReset => {
                self.transactions = 0;
                self.total_cycles = 0;
                self.component_cycles = [0; 5];
                self.dropped = 0;
                self.hop_only_dropped = 0;
                self.completed.clear();
                self.hop_only.clear();
            }
        }
    }

    fn push_hop_only(&mut self, rec: HopOnly) {
        self.hop_only.push_back(rec);
        if self.hop_only.len() > self.capacity {
            self.hop_only.pop_front();
            self.hop_only_dropped += 1;
        }
    }

    /// A transaction that ends without a record leaves its hops behind
    /// as hop-only records.
    fn release(&mut self, node: u16, line: u64, txn: LiveTxn) {
        for hop in txn.hops {
            self.push_hop_only(HopOnly { node, line, hop });
        }
    }

    fn finish(&mut self, node: u16, line: u64, complete: Cycle, txn: LiveTxn) {
        let complete = complete.max(txn.issue);
        let mut components = [0u64; 5];
        let mut last = txn.issue;
        for &(cat, t) in &txn.milestones {
            let ct = t.min(complete);
            components[cat.index()] += ct.saturating_sub(last);
            last = last.max(ct);
        }
        components[Category::Bus.index()] += complete - last;
        let latency = complete - txn.issue;
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
        self.completed.push_back(Record {
            id: txn.id,
            node,
            line,
            op: txn.op,
            issue: txn.issue,
            complete,
            components,
            hops: txn.hops,
        });
    }

    fn slowest(&self, k: usize) -> Vec<&Record> {
        let mut all: Vec<&Record> = self.completed.iter().collect();
        all.sort_by(|a, b| b.latency().cmp(&a.latency()).then_with(|| a.id.cmp(&b.id)));
        all.truncate(k);
        all
    }

    /// Blame with the p99 threshold picked by a full sort.
    fn blame(&self) -> BlameSummary {
        let mut p99_threshold = None;
        let mut tail_cycles = 0;
        let mut tail_component_cycles = [0u64; 5];
        if !self.completed.is_empty() {
            let mut lat: Vec<u64> = self.completed.iter().map(Record::latency).collect();
            lat.sort_unstable();
            let rank = (lat.len() * 99).div_ceil(100).max(1);
            let threshold = lat[rank - 1];
            p99_threshold = Some(threshold);
            for r in self.completed.iter().filter(|r| r.latency() >= threshold) {
                tail_cycles += r.latency();
                for (t, c) in tail_component_cycles.iter_mut().zip(r.components) {
                    *t += c;
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

/// The recorder's view of a record in the reference's shape, hop chain
/// included.
fn owned(rec: &FlightRecorder, r: &ccn_obs::TxnRecord) -> Record {
    Record {
        id: r.id,
        node: r.node,
        line: r.line,
        op: r.op,
        issue: r.issue,
        complete: r.complete,
        components: r.components,
        hops: rec.hops(r).to_vec(),
    }
}

/// Checks every query surface of the two recorders for equality.
fn compare(rec: &FlightRecorder, model: &ReferenceRecorder, rng: &mut SplitMix64, ctx: &str) {
    let got: Vec<Record> = rec.completed().map(|r| owned(rec, r)).collect();
    let want: Vec<Record> = model.completed.iter().cloned().collect();
    assert_eq!(got, want, "retained records diverged {ctx}");
    assert_eq!(rec.dropped(), model.dropped, "dropped() {ctx}");
    let got: Vec<HopOnly> = rec.hop_only().copied().collect();
    let want_hop_only: Vec<HopOnly> = model.hop_only.iter().copied().collect();
    assert_eq!(got, want_hop_only, "hop-only records diverged {ctx}");
    assert_eq!(
        rec.hop_only_dropped(),
        model.hop_only_dropped,
        "hop_only_dropped() {ctx}"
    );
    let got: Vec<(u64, Hop)> = rec.spans().map(|(line, hop)| (line, *hop)).collect();
    let spans: Vec<(u64, Hop)> = want
        .iter()
        .flat_map(|r| r.hops.iter().map(|h| (r.line, *h)))
        .chain(want_hop_only.iter().map(|r| (r.line, r.hop)))
        .collect();
    assert_eq!(got, spans, "spans() {ctx}");
    assert_eq!(
        rec.transactions(),
        model.transactions,
        "transactions() {ctx}"
    );
    for k in [0, 1, 3, want.len(), want.len() + 2] {
        let got: Vec<Record> = rec.slowest(k).into_iter().map(|r| owned(rec, r)).collect();
        let want: Vec<Record> = model.slowest(k).into_iter().cloned().collect();
        assert_eq!(got, want, "slowest({k}) {ctx}");
    }
    // A retained id, and a random one that is usually not retained.
    let mut ids: Vec<TxnId> = model.completed.iter().take(1).map(|r| r.id).collect();
    ids.push(TxnId {
        proc: rng.next_below(6) as u32,
        seq: rng.next_below(40) as u32,
    });
    for id in ids {
        assert_eq!(
            rec.find(id).map(|r| owned(rec, r)),
            model.completed.iter().find(|r| r.id == id).cloned(),
            "find({id}) {ctx}"
        );
    }
    assert_eq!(
        rec.blame().to_json().to_string(),
        model.blame().to_json().to_string(),
        "blame() {ctx}"
    );
}

const OPS: [&str; 3] = ["Read", "ReadExcl", "Upgrade"];
const HANDLERS: [(&str, &str); 3] = [
    ("bus read remote", "request-issue"),
    ("remote read to home (clean)", "home-service"),
    ("data in response to a remote read request", "completion"),
];

/// Drives both recorders with `steps` random events and compares them
/// every few dozen steps and at the end.
fn differential_run(seed: u64, capacity: usize, steps: u32) {
    let mut rng = SplitMix64::new(seed);
    // Sized for two processors while the stream uses six: the slab and
    // the sequence table must grow past their initial sizes.
    let mut rec = FlightRecorder::new(capacity, 2);
    let mut model = ReferenceRecorder::new(capacity);
    let mut now: Cycle = 0;
    for step in 0..steps {
        now += rng.next_below(30);
        // Few keys, so Begins often land on a live key and events often
        // target a key whose transaction already completed.
        let node = rng.next_below(3) as u16;
        let line = 64 * rng.next_below(4);
        let event = match rng.next_below(100) {
            0..=19 => FlightEvent::Begin {
                node,
                proc: rng.next_below(6) as u32,
                line,
                time: now,
                op: OPS[rng.next_below(3) as usize],
            },
            20..=54 => FlightEvent::Milestone {
                node,
                line,
                // Mostly forward, sometimes back in time or far ahead
                // (past the eventual fill).
                time: (now + rng.next_below(400)).saturating_sub(100),
                cat: Category::ALL[rng.next_below(5) as usize],
            },
            55..=79 => {
                let (handler, phase) = HANDLERS[rng.next_below(3) as usize];
                FlightEvent::Hop {
                    node,
                    line,
                    hop: Hop {
                        time: now,
                        at_node: rng.next_below(16) as u16,
                        engine: rng.next_below(2) as u8,
                        occupancy: rng.next_below(120),
                        handler,
                        phase,
                    },
                }
            }
            80..=92 => FlightEvent::Complete {
                node,
                line,
                time: now,
            },
            93..=98 => FlightEvent::Close { node, line },
            _ => FlightEvent::MeasureReset,
        };
        rec.apply(event);
        model.apply(event);
        if step % 37 == 0 {
            compare(
                &rec,
                &model,
                &mut rng,
                &format!("at step {step} (seed {seed}, capacity {capacity})"),
            );
        }
    }
    compare(
        &rec,
        &model,
        &mut rng,
        &format!("at the end (seed {seed}, capacity {capacity})"),
    );
}

#[test]
fn flat_storage_matches_the_reference_recorder() {
    for capacity in [0, 1, 2, 7, 64] {
        for seed in 0..12 {
            differential_run(seed * 0x9e37_79b9 + capacity as u64, capacity, 3000);
        }
    }
}

#[test]
fn long_runs_wrap_the_ring_and_compact_the_arena_many_times() {
    for capacity in [1, 7, 64] {
        differential_run(0xdead_beef ^ capacity as u64, capacity, 40_000);
    }
}

#[test]
fn in_flight_transactions_cross_the_measurement_reset() {
    // Begin on every key, reset, then finish them all: both recorders
    // keep the live transactions and count them in the new window.
    let mut rec = FlightRecorder::new(7, 2);
    let mut model = ReferenceRecorder::new(7);
    let mut rng = SplitMix64::new(7);
    let mut apply = |e: FlightEvent| {
        rec.apply(e);
        model.apply(e);
    };
    for (i, node) in (0..3u16).enumerate() {
        for line in [0u64, 64, 128] {
            apply(FlightEvent::Begin {
                node,
                proc: i as u32,
                line,
                time: 10,
                op: "Read",
            });
            apply(FlightEvent::Milestone {
                node,
                line,
                time: 20,
                cat: Category::Queue,
            });
        }
    }
    apply(FlightEvent::MeasureReset);
    for node in 0..3u16 {
        for line in [0u64, 64, 128] {
            apply(FlightEvent::Complete {
                node,
                line,
                time: 50 + line,
            });
        }
    }
    compare(&rec, &model, &mut rng, "after the reset");
    assert_eq!(rec.transactions(), 9);
    assert_eq!(rec.dropped(), 2);
}
