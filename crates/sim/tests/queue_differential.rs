//! Differential test: the calendar-queue [`EventQueue`] against a
//! straightforward sorted-map reference model.
//!
//! The queue's contract — non-decreasing delivery times, FIFO among
//! same-cycle events, panic on scheduling into the past — is what every
//! golden anchor and conformance digest in this repository
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
    fn schedule(&mut self, time: Cycle, event: u64) {
        assert!(time >= self.now);
        self.cycles.entry(time).or_default().push_back(event);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(Cycle, u64)> {
        let mut first = self.cycles.first_entry()?;
        let time = *first.key();
        let event = first.get_mut().pop_front().expect("no empty cycle is kept");
        if first.get().is_empty() {
            first.remove();
        }
        self.now = time;
        self.len -= 1;
        Some((time, event))
    }
}

/// Runs `ops` random schedule/pop steps on both queues and checks that
/// every pop returns the identical `(time, event)` pair. Events are
/// unique ids, so a FIFO violation shows as a mismatch.
fn differential_run(seed: u64, ops: u32) {
    let mut rng = SplitMix64::new(seed);
    let mut queue: EventQueue<u64> = EventQueue::with_capacity(64);
    let mut model = ReferenceQueue::default();
    let mut next_id: u64 = 0;

    for step in 0..ops {
        // Bias toward inserting so the queues build up a deep backlog,
        // then drain nearly empty once every 10,000 steps so the clock
        // jumps over long idle gaps to far cycles.
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
            queue.schedule(time, next_id);
            model.schedule(time, next_id);
            next_id += 1;
        } else {
            let (got, want) = (queue.pop(), model.pop());
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
