//! Barrier and lock runtime.
//!
//! Synchronization is simulated with fixed-latency primitives rather than
//! through the coherence protocol (DESIGN.md §3, substitution 3): barriers
//! release all arrivals after a fixed overhead; locks grant in FIFO order
//! with an acquisition cost when free and a hand-off cost when contended.

use std::collections::VecDeque;

use ccn_mem::ProcId;
use ccn_sim::{ComponentStats, Cycle, FxHashMap};

/// Outcome of a processor arriving at a barrier.
///
/// A release hands the woken processors back through the caller's reused
/// buffer (see [`SyncState::barrier_arrive`]) rather than an owned `Vec`,
/// so a barrier episode in the steady state never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierOutcome {
    /// Not everyone is here yet; the processor blocks.
    Wait,
    /// This arrival completes the barrier: release everyone (including the
    /// caller) at the given time. The waiters to wake (excluding the
    /// caller) are in the buffer passed to `barrier_arrive`.
    Release {
        /// The cycle all participants resume.
        at: Cycle,
    },
}

/// Outcome of a lock acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was free: the caller holds it and resumes at `at`.
    Acquired {
        /// Resume time (acquisition cost applied).
        at: Cycle,
    },
    /// The lock is held: the caller blocks until hand-off.
    Queued,
}

#[derive(Debug, Default)]
struct BarrierState {
    arrived: usize,
    waiters: Vec<ProcId>,
}

#[derive(Debug, Default)]
struct LockState {
    held: bool,
    queue: VecDeque<ProcId>,
}

/// The machine's synchronization state.
#[derive(Debug)]
pub struct SyncState {
    nprocs: usize,
    barrier_cost: Cycle,
    lock_cost: Cycle,
    handoff_cost: Cycle,
    barriers: FxHashMap<u32, BarrierState>,
    /// Waiter buffers recycled from completed barriers. Workloads are
    /// free to use a fresh barrier id per episode, so completed entries
    /// are removed from the map — but their waiter storage comes back
    /// here and is handed to the next new barrier, keeping the steady
    /// state allocation-free either way.
    spare_waiters: Vec<Vec<ProcId>>,
    locks: FxHashMap<u32, LockState>,
    barrier_episodes: u64,
    lock_acquisitions: u64,
    lock_contended: u64,
}

impl SyncState {
    /// Creates the runtime for `nprocs` participating processors.
    pub fn new(nprocs: usize, barrier_cost: Cycle, lock_cost: Cycle, handoff_cost: Cycle) -> Self {
        SyncState {
            nprocs,
            barrier_cost,
            lock_cost,
            handoff_cost,
            barriers: FxHashMap::default(),
            spare_waiters: Vec::with_capacity(4),
            locks: FxHashMap::default(),
            barrier_episodes: 0,
            lock_acquisitions: 0,
            lock_contended: 0,
        }
    }

    /// Processor `proc` arrives at barrier `id` at time `now`.
    ///
    /// On [`BarrierOutcome::Release`] the woken processors are written
    /// into `released` (cleared first). The completed entry leaves the
    /// map but its waiter buffer is recycled through `spare_waiters`, so
    /// after the first episode has sized the buffers further episodes —
    /// whether they reuse a barrier id or mint fresh ones — never touch
    /// the allocator.
    pub fn barrier_arrive(
        &mut self,
        id: u32,
        proc: ProcId,
        now: Cycle,
        released: &mut Vec<ProcId>,
    ) -> BarrierOutcome {
        let nprocs = self.nprocs;
        let spare = &mut self.spare_waiters;
        let state = self.barriers.entry(id).or_insert_with(|| BarrierState {
            arrived: 0,
            waiters: spare
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(nprocs.saturating_sub(1))),
        });
        state.arrived += 1;
        if state.arrived == nprocs {
            self.barrier_episodes += 1;
            released.clear();
            let mut done = self.barriers.remove(&id).expect("entry touched above");
            released.append(&mut done.waiters);
            self.spare_waiters.push(done.waiters);
            BarrierOutcome::Release {
                at: now + self.barrier_cost,
            }
        } else {
            state.waiters.push(proc);
            BarrierOutcome::Wait
        }
    }

    /// Processor `proc` tries to take lock `id` at time `now`.
    pub fn lock(&mut self, id: u32, proc: ProcId, now: Cycle) -> LockOutcome {
        let state = self.locks.entry(id).or_default();
        self.lock_acquisitions += 1;
        if state.held {
            self.lock_contended += 1;
            state.queue.push_back(proc);
            LockOutcome::Queued
        } else {
            state.held = true;
            LockOutcome::Acquired {
                at: now + self.lock_cost,
            }
        }
    }

    /// Processor releases lock `id` at time `now`; returns the next holder
    /// (already granted) and its resume time, if anyone was queued.
    ///
    /// # Panics
    ///
    /// Panics if the lock was not held (an unlock without a lock is a
    /// workload bug worth failing loudly on).
    pub fn unlock(&mut self, id: u32, now: Cycle) -> Option<(ProcId, Cycle)> {
        let state = self
            .locks
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unlock of never-locked lock {id}"));
        assert!(state.held, "unlock of free lock {id}");
        if let Some(next) = state.queue.pop_front() {
            // Hand off directly; the lock stays held.
            Some((next, now + self.handoff_cost))
        } else {
            state.held = false;
            None
        }
    }

    /// Barriers completed.
    pub fn barrier_episodes(&self) -> u64 {
        self.barrier_episodes
    }

    /// Total lock acquisitions and how many were contended.
    pub fn lock_stats(&self) -> (u64, u64) {
        (self.lock_acquisitions, self.lock_contended)
    }

    /// A snapshot of the barrier and lock counters.
    pub fn stats_snapshot(&self) -> ComponentStats {
        ComponentStats::named("sync")
            .counter("barrier_episodes", self.barrier_episodes)
            .counter("lock_acquisitions", self.lock_acquisitions)
            .counter("lock_contended", self.lock_contended)
    }

    /// Resets the episode/acquisition counters (measured-phase reporting);
    /// blocked-waiter state is untouched.
    pub fn reset_stats(&mut self) {
        self.barrier_episodes = 0;
        self.lock_acquisitions = 0;
        self.lock_contended = 0;
    }

    /// Whether any processor is still blocked on a barrier or lock
    /// (deadlock diagnosis for the drain check).
    pub fn anyone_blocked(&self) -> bool {
        self.barriers.values().any(|b| !b.waiters.is_empty())
            || self.locks.values().any(|l| !l.queue.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcId {
        ProcId(i)
    }

    #[test]
    fn barrier_releases_on_last_arrival() {
        let mut s = SyncState::new(3, 100, 10, 50);
        let mut released = Vec::new();
        assert_eq!(
            s.barrier_arrive(0, p(0), 10, &mut released),
            BarrierOutcome::Wait
        );
        assert_eq!(
            s.barrier_arrive(0, p(1), 20, &mut released),
            BarrierOutcome::Wait
        );
        let BarrierOutcome::Release { at } = s.barrier_arrive(0, p(2), 30, &mut released) else {
            panic!("expected release");
        };
        assert_eq!(released, vec![p(0), p(1)]);
        assert_eq!(at, 130);
        assert_eq!(s.barrier_episodes(), 1);
    }

    #[test]
    fn barrier_ids_are_independent() {
        let mut s = SyncState::new(2, 100, 10, 50);
        let mut released = Vec::new();
        assert_eq!(
            s.barrier_arrive(0, p(0), 0, &mut released),
            BarrierOutcome::Wait
        );
        assert_eq!(
            s.barrier_arrive(1, p(1), 0, &mut released),
            BarrierOutcome::Wait
        );
        assert!(matches!(
            s.barrier_arrive(0, p(1), 5, &mut released),
            BarrierOutcome::Release { .. }
        ));
    }

    #[test]
    fn barrier_state_is_reused_across_episodes() {
        // The same barrier id must work for episode after episode without
        // growing: entries are reset in place, not removed and re-created.
        let mut s = SyncState::new(2, 100, 10, 50);
        let mut released = Vec::with_capacity(1);
        for round in 0..3u64 {
            assert_eq!(
                s.barrier_arrive(9, p(0), round * 100, &mut released),
                BarrierOutcome::Wait
            );
            assert!(s.anyone_blocked());
            let BarrierOutcome::Release { at } =
                s.barrier_arrive(9, p(1), round * 100 + 5, &mut released)
            else {
                panic!("expected release in round {round}");
            };
            assert_eq!(released, vec![p(0)]);
            assert_eq!(at, round * 100 + 105);
            assert!(!s.anyone_blocked());
        }
        assert_eq!(s.barrier_episodes(), 3);
    }

    #[test]
    fn lock_free_then_contended() {
        let mut s = SyncState::new(2, 100, 10, 50);
        assert_eq!(s.lock(7, p(0), 0), LockOutcome::Acquired { at: 10 });
        assert_eq!(s.lock(7, p(1), 5), LockOutcome::Queued);
        let (next, at) = s.unlock(7, 100).expect("hand-off");
        assert_eq!(next, p(1));
        assert_eq!(at, 150);
        // p(1) now holds it; release with empty queue frees it.
        assert_eq!(s.unlock(7, 200), None);
        assert_eq!(s.lock(7, p(0), 300), LockOutcome::Acquired { at: 310 });
        assert_eq!(s.lock_stats(), (3, 1));
    }

    #[test]
    #[should_panic(expected = "unlock of free lock")]
    fn double_unlock_panics() {
        let mut s = SyncState::new(2, 100, 10, 50);
        s.lock(1, p(0), 0);
        s.unlock(1, 10);
        s.unlock(1, 20);
    }

    #[test]
    fn stats_reset_keeps_waiters() {
        let mut s = SyncState::new(2, 100, 10, 50);
        s.lock(1, p(0), 0);
        s.lock(1, p(1), 0); // queued
        s.reset_stats();
        assert_eq!(s.lock_stats(), (0, 0));
        assert!(s.anyone_blocked(), "waiters must survive a stats reset");
    }

    #[test]
    fn blocked_detection() {
        let mut s = SyncState::new(2, 100, 10, 50);
        assert!(!s.anyone_blocked());
        s.barrier_arrive(0, p(0), 0, &mut Vec::new());
        assert!(s.anyone_blocked());
    }
}
