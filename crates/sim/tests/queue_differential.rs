//! Differential test: the calendar-queue [`EventQueue`] against a
//! straightforward sorted-map reference model.
//!
//! The queue's contract — non-decreasing delivery times, FIFO among
//! same-cycle events, ordered placement by `insert_by`, `pop_before`
//! refusing without side effects, panic on scheduling into the past —
//! is what every golden anchor and conformance digest in this repository
//! implicitly depends on. The bucketed implementation is exercised here
//! with randomized schedules designed to hit its interesting regimes:
//! dense same-cycle ties, jitter inside the wheel window, far-future
//! events that take the far path, and drains that force the clock to
//! jump over long idle gaps.

use std::collections::{BTreeMap, VecDeque};

use ccn_sim::{Cycle, EventQueue, SplitMix64};

/// The obviously-correct model: each cycle's events in a deque, in a
/// map ordered by cycle.
#[derive(Default)]
struct ReferenceQueue {
    cycles: BTreeMap<Cycle, VecDeque<u64>>,
    len: usize,
    now: Cycle,
}

impl ReferenceQueue {
    fn insert_by(&mut self, time: Cycle, event: u64, behind: impl FnMut(&u64) -> bool) {
        assert!(time >= self.now);
        let list = self.cycles.entry(time).or_default();
        list.insert(list.partition_point(behind), event);
        self.len += 1;
    }

    fn schedule(&mut self, time: Cycle, event: u64) {
        self.insert_by(time, event, |_| true);
    }

    fn pop_before(&mut self, end: Cycle) -> Option<(Cycle, u64)> {
        let mut first = self.cycles.first_entry().filter(|e| *e.key() < end)?;
        let time = *first.key();
        let event = first.get_mut().pop_front().expect("no empty cycle is kept");
        if first.get().is_empty() {
            first.remove();
        }
        self.now = time;
        self.len -= 1;
        Some((time, event))
    }

    fn pop(&mut self) -> Option<(Cycle, u64)> {
        self.pop_before(Cycle::MAX)
    }
}

/// Runs `ops` random insert/pop steps on both queues and checks that
/// every pop returns the identical `(time, event)` pair.
///
/// Events are `key << 32 | id` with a unique `id`. Plain schedules use
/// `key = id`, larger than every pending event's, and `insert_by` places
/// a random smaller key by `event < new`, so every cycle's events stay
/// sorted and the ordered insert has a well-defined position.
fn differential_run(seed: u64, ops: u32) {
    let mut rng = SplitMix64::new(seed);
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(64);
    let mut model = ReferenceQueue::default();
    let mut next_id: u64 = 0;

    for step in 0..ops {
        // Bias toward inserting so the queues build up a deep backlog,
        // then drain nearly empty once every 10,000 steps so the clock
        // jumps to far cycles and bounded pops refuse with only far
        // events pending.
        let p_pop = if step % 10_000 < 8_000 { 0.45 } else { 0.9 };
        let drain = model.len > 0 && rng.chance(p_pop);
        if !drain {
            let now = model.now;
            let time = match rng.next_below(8) {
                // Dense ties: land exactly on the current cycle.
                0 | 1 => now,
                // A hot cycle shared by many events.
                2 => now + 3,
                // Typical latency jitter, inside the wheel window.
                3..=5 => now + 1 + rng.next_below(700),
                // Straddle the window boundary (wheel span is 1024).
                6 => now + 900 + rng.next_below(300),
                // Far future: guaranteed far path, with its own ties.
                _ => now + 10_000 + rng.next_below(90_000) / 17 * 17,
            };
            if rng.chance(0.3) {
                let event = (rng.next_below(next_id + 1) << 32) | next_id;
                queue.insert_by(time, event, |&e| e < event);
                model.insert_by(time, event, |&e| e < event);
            } else {
                let event = (next_id << 32) | next_id;
                queue.schedule(time, event);
                model.schedule(time, event);
            }
            next_id += 1;
        } else {
            // Mostly plain pops; otherwise a bound that may fall short of
            // the next event (and refuse) or reach into the far path.
            let (got, want) = if rng.chance(0.7) {
                (queue.pop(), model.pop())
            } else {
                let end = match rng.next_below(3) {
                    0 => model.now + rng.next_below(8),
                    1 => model.now + rng.next_below(2_000),
                    _ => model.now + rng.next_below(100_000),
                };
                (queue.pop_before(end), model.pop_before(end))
            };
            assert_eq!(
                got, want,
                "divergence at step {step} (seed {seed}): queue {got:?} vs model {want:?}"
            );
        }
        assert_eq!(queue.len(), model.len);
        assert_eq!(queue.now(), model.now);
    }

    // Drain what's left: the tails must agree too.
    loop {
        let got = queue.pop();
        let want = model.pop();
        assert_eq!(got, want, "divergence draining (seed {seed})");
        if got.is_none() {
            break;
        }
    }
    assert_eq!(queue.now(), model.now);
    assert_eq!(queue.total_scheduled(), next_id);
}

#[test]
fn random_schedules_match_reference_model() {
    for seed in [1, 0xdead_beef, 42, 7_777_777, 0x0123_4567_89ab_cdef] {
        differential_run(seed, 100_000);
    }
}

#[test]
fn all_ties_on_one_cycle_match_reference_model() {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut model = ReferenceQueue::default();
    for i in 0..10_000 {
        queue.schedule(5, i);
        model.schedule(5, i);
    }
    while let Some(want) = model.pop() {
        assert_eq!(queue.pop(), Some(want));
    }
    assert_eq!(queue.pop(), None);
}

#[test]
fn overflow_only_workload_matches_reference_model() {
    // Every event beyond the wheel window: each cycle starts out on the
    // far path, and the queue must still agree with the model.
    let mut rng = SplitMix64::new(99);
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut model = ReferenceQueue::default();
    for i in 0..5_000 {
        let time = 1_000_000 + rng.next_below(2_000);
        queue.schedule(time, i);
        model.schedule(time, i);
    }
    while let Some(want) = model.pop() {
        assert_eq!(queue.pop(), Some(want));
    }
    assert_eq!(queue.pop(), None);
}

#[test]
#[should_panic(expected = "scheduled at cycle")]
fn past_scheduling_still_panics_after_overflow_jump() {
    // Regression guard for the causality assertion across the clock
    // jump: after the clock lands at a far-future cycle, scheduling
    // just behind it must still be rejected.
    let mut q = EventQueue::new();
    q.schedule(500_000, ());
    assert_eq!(q.pop(), Some((500_000, ())));
    q.schedule(499_999, ());
}
