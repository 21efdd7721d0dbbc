//! Conservative parallel discrete-event execution.
//!
//! This module is the engine-side substrate for running one simulation on
//! several threads while reproducing the sequential [`EventQueue`]
//! schedule *byte for byte*. The model is partitioned into shards, each
//! owning a [`ShardWheel`] (that same queue, over keyed entries). Shards
//! advance independently through bounded time windows whose width is the
//! model's **lookahead** — a lower bound on the delay of any cross-shard
//! interaction. Cross-shard messages are exchanged through [`Ring`]
//! buffers drained at window barriers, where a deterministic merge rule
//! reconstructs the exact sequential ordering.
//!
//! # The merge rule
//!
//! The sequential queue delivers events in `(time, seq)` order, where
//! `seq` is the global schedule-call order: same-cycle events pop in the
//! FIFO order their `schedule` calls were made. A schedule call happens
//! either before the run (a *seed*) or during the execution of a parent
//! event; therefore the schedule-call order of a bucket is exactly
//!
//! `(seed seq)` first, then `(parent execution position, emission index)`.
//!
//! Each scheduled entry carries an [`EKey`] encoding precisely that:
//! seeds are `Init{seq}`; entries whose parent executed in a *finished*
//! window are `Sealed{pc, pr, idx}` (parent cycle, parent rank within its
//! cycle, emission index); entries born in the *current* window are
//! `Fresh{shard, xi, idx}`, pointing at the parent's slot in its shard's
//! per-window execution log. Because every cross-shard interaction is
//! delayed by at least the lookahead, no event can gain same-window
//! parents on another shard — so each shard's window execution is the
//! exact projection of the sequential schedule, and its own schedules
//! append to a cycle's list in canonical order; only barrier-time
//! arrivals need an ordered insert. At the window barrier a [`Merger`]
//! ranks every executed event cycle by cycle (a k-way merge of the
//! per-shard logs by key), yielding the canonical global order; `Fresh`
//! keys are then patched to `Sealed` form and the logs are discarded.
//!
//! The wheel enforces the conservative safety property at the boundary:
//! inserting an event below a shard's window floor panics (a *lookahead
//! violation*) rather than silently reordering — see the adversarial
//! tests in `crates/sim/tests/par_differential.rs`.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::{Cycle, EventQueue};

/// Shard index, compact for key storage.
pub type ShardId = u16;

/// Deterministic merge key of one scheduled entry. See the module docs
/// for the ordering it encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EKey {
    /// Seeded before the run, in seed order.
    Init {
        /// Global seed sequence number.
        seq: u64,
    },
    /// Scheduled by a parent whose global position is finalized.
    Sealed {
        /// Parent's execution cycle.
        pc: Cycle,
        /// Parent's rank among all events executed at `pc`.
        pr: u64,
        /// Emission index within the parent's execution.
        idx: u32,
    },
    /// Scheduled this window by a parent identified through its shard's
    /// execution log; resolved to `Sealed` form at the window barrier.
    Fresh {
        /// Parent's shard.
        shard: ShardId,
        /// Parent's index in that shard's current-window execution log.
        xi: u32,
        /// Emission index within the parent's execution.
        idx: u32,
    },
}

/// A fully resolved, totally ordered form of an [`EKey`].
///
/// `Init` maps to class 0 (seeds precede same-cycle descendants, since
/// their schedule calls happen before the run); generated entries map to
/// class 1 ordered by `(parent cycle, parent rank, emission index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Resolved {
    class: u8,
    pc: Cycle,
    pr: u64,
    idx: u64,
}

impl Resolved {
    fn of_sealed(key: &EKey) -> Resolved {
        match *key {
            EKey::Init { seq } => Resolved {
                class: 0,
                pc: 0,
                pr: 0,
                idx: seq,
            },
            EKey::Sealed { pc, pr, idx } => Resolved {
                class: 1,
                pc,
                pr,
                idx: u64::from(idx),
            },
            EKey::Fresh { .. } => panic!("unpatched Fresh key at a sealed-only comparison"),
        }
    }
}

/// One executed event in a shard's per-window log: the key it ran under,
/// the cycle it ran at, and caller metadata (e.g. the event payload for
/// differential tests, or trace bookkeeping for the machine).
#[derive(Debug, Clone)]
pub struct LogRec<P> {
    /// Delivery cycle the event executed at.
    pub cycle: Cycle,
    /// The key the entry was scheduled under.
    pub key: EKey,
    /// Caller-defined metadata.
    pub meta: P,
}

/// Resolves keys and assigns canonical per-cycle ranks at a window
/// barrier, from the per-shard execution logs of that window.
#[derive(Debug)]
pub struct Merger<P> {
    logs: Vec<Vec<LogRec<P>>>,
    ranks: Vec<Vec<u64>>,
    done: Vec<usize>,
}

impl<P> Merger<P> {
    /// Builds a merger over one window's per-shard execution logs. Each
    /// log must be in execution order (cycles non-decreasing).
    pub fn new(logs: Vec<Vec<LogRec<P>>>) -> Self {
        let ranks = logs.iter().map(|l| vec![u64::MAX; l.len()]).collect();
        let done = vec![0; logs.len()];
        Merger { logs, ranks, done }
    }

    /// The log record a `Fresh` key points at.
    pub fn log(&self, shard: ShardId, xi: u32) -> &LogRec<P> {
        &self.logs[shard as usize][xi as usize]
    }

    /// Resolves `key` to its total-order form. A `Fresh` key requires its
    /// parent to have been ranked already (parents always execute, and
    /// therefore rank, before their children).
    ///
    /// # Panics
    ///
    /// Panics if a `Fresh` parent has not been ranked yet.
    pub fn resolve(&self, key: &EKey) -> Resolved {
        match *key {
            EKey::Fresh { shard, xi, idx } => {
                let pr = self.ranks[shard as usize][xi as usize];
                assert_ne!(pr, u64::MAX, "parent rank not assigned before child use");
                Resolved {
                    class: 1,
                    pc: self.logs[shard as usize][xi as usize].cycle,
                    pr,
                    idx: u64::from(idx),
                }
            }
            ref sealed => Resolved::of_sealed(sealed),
        }
    }

    /// Rewrites `key` into window-independent form: `Fresh` becomes
    /// `Sealed` via [`Merger::resolve`]; seeds and sealed keys pass
    /// through.
    pub fn seal(&self, key: &EKey) -> EKey {
        match *key {
            EKey::Fresh { shard, xi, idx } => EKey::Sealed {
                pc: self.logs[shard as usize][xi as usize].cycle,
                pr: self.ranks[shard as usize][xi as usize],
                idx,
            },
            sealed => sealed,
        }
    }

    /// Consumes the merger and returns the per-shard logs, letting the
    /// caller reclaim their allocations for the next window.
    pub fn into_logs(self) -> Vec<Vec<LogRec<P>>> {
        self.logs
    }

    /// Assigns canonical ranks to every logged event with cycle `< end`,
    /// cycle by cycle, and returns the merged global execution order as
    /// `(shard, log index)` pairs.
    pub fn rank_through(&mut self, end: Cycle) -> Vec<(ShardId, u32)> {
        let mut order = Vec::new();
        self.rank_into(end, &mut order);
        order
    }

    /// [`Merger::rank_through`] into a caller-owned buffer (appended, not
    /// cleared), so per-window callers can reuse one allocation.
    pub fn rank_into(&mut self, end: Cycle, order: &mut Vec<(ShardId, u32)>) {
        self.rank_impl::<true>(end, order);
    }

    /// Assigns ranks without materializing the merged order, for callers
    /// (the common case) with no order consumer — ranks alone are enough
    /// to seal every escaping key.
    pub fn rank_only(&mut self, end: Cycle) {
        let mut order = Vec::new();
        self.rank_impl::<false>(end, &mut order);
    }

    /// Within a cycle this is a k-way merge of the per-shard log segments
    /// by resolved key; ranks become visible to later resolutions as soon
    /// as they are assigned, which is what lets same-cycle zero-delay
    /// children (whose keys point at same-cycle parents) resolve. Cycles
    /// where only one shard executed skip key resolution entirely — the
    /// log order is already canonical there.
    fn rank_impl<const COLLECT: bool>(&mut self, end: Cycle, order: &mut Vec<(ShardId, u32)>) {
        // (shard, cached resolved head key) for the cycle being merged.
        let mut heads: Vec<(usize, Resolved)> = Vec::new();
        loop {
            // The next unranked cycle across all shards and how many
            // shards have entries at it, in one pass.
            let mut cycle = None;
            let mut live = 0usize;
            let mut only = 0usize;
            for (s, log) in self.logs.iter().enumerate() {
                let Some(rec) = log.get(self.done[s]) else {
                    continue;
                };
                match cycle {
                    Some(c) if rec.cycle > c => {}
                    Some(c) if rec.cycle == c => live += 1,
                    _ => {
                        cycle = Some(rec.cycle);
                        live = 1;
                        only = s;
                    }
                }
            }
            let Some(c) = cycle else { break };
            if c >= end {
                break;
            }
            if live == 1 {
                // Single-shard cycle: ranks are the log order.
                let s = only;
                let mut xi = self.done[s];
                let mut rank = 0u64;
                while self.logs[s].get(xi).is_some_and(|r| r.cycle == c) {
                    self.ranks[s][xi] = rank;
                    rank += 1;
                    if COLLECT {
                        order.push((s as ShardId, xi as u32));
                    }
                    xi += 1;
                }
                self.done[s] = xi;
                continue;
            }
            // Multi-shard cycle: tournament over cached resolved heads.
            // A loser's cached key stays valid — its parent's rank was
            // already assigned when the key was first resolved.
            heads.clear();
            for s in 0..self.logs.len() {
                if let Some(rec) = self.logs[s].get(self.done[s]) {
                    if rec.cycle == c {
                        heads.push((s, self.resolve(&rec.key)));
                    }
                }
            }
            let mut rank = 0u64;
            while !heads.is_empty() {
                let mut mi = 0;
                for (i, h) in heads.iter().enumerate().skip(1) {
                    if h.1 < heads[mi].1 {
                        mi = i;
                    }
                }
                let s = heads[mi].0;
                let xi = self.done[s];
                self.ranks[s][xi] = rank;
                rank += 1;
                self.done[s] = xi + 1;
                if COLLECT {
                    order.push((s as ShardId, xi as u32));
                }
                match self.logs[s].get(self.done[s]) {
                    Some(rec) if rec.cycle == c => heads[mi].1 = self.resolve(&rec.key),
                    _ => {
                        heads.swap_remove(mi);
                    }
                }
            }
        }
    }
}

/// A shard-local calendar: an [`EventQueue`] of keyed entries plus the
/// barrier floor and the slots of the current window's `Fresh` entries.
///
/// During window execution the owning shard appends (its schedules
/// provably arrive in canonical key order; see the module docs);
/// barrier-time insertions go through [`ShardWheel::insert_with`], which
/// places the entry at its canonical position and enforces the lookahead
/// floor. [`ShardWheel::patch_keys`] seals exactly the `Fresh` entries
/// scheduled since the last barrier, found by their queue slots.
#[derive(Debug)]
pub struct ShardWheel<E> {
    queue: EventQueue<(EKey, E)>,
    floor: Cycle,
    /// Queue slots of the `Fresh` entries scheduled since the last
    /// `patch_keys` call. A slot whose entry already popped may have been
    /// reused by a later entry of the same window, itself listed here.
    fresh: Vec<u32>,
}

impl<E> Default for ShardWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ShardWheel<E> {
    /// An empty wheel at cycle 0.
    pub fn new() -> Self {
        ShardWheel {
            queue: EventQueue::new(),
            floor: 0,
            fresh: Vec::new(),
        }
    }

    /// Current cycle: the delivery time of the most recently popped entry.
    pub fn now(&self) -> Cycle {
        self.queue.now()
    }

    /// Total entries scheduled into this wheel over its lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.queue.total_scheduled()
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The cycle of the earliest pending entry.
    pub fn next_time(&self) -> Option<Cycle> {
        self.queue.peek_time()
    }

    /// The cycle and key of the entry the next `pop_window` call would
    /// return, without removing it.
    pub fn next_entry(&self) -> Option<(Cycle, EKey)> {
        self.queue.peek().map(|(c, (key, _))| (c, *key))
    }

    /// Raises the barrier floor: after a window ending at `floor`, no
    /// entry below it may ever be inserted.
    pub fn set_floor(&mut self, floor: Cycle) {
        self.floor = self.floor.max(floor);
    }

    /// Seeds an entry before the run under an `Init` key. Seeds must be
    /// fed in ascending `seq` order.
    pub fn seed(&mut self, at: Cycle, seq: u64, ev: E) {
        self.queue.schedule(at, (EKey::Init { seq }, ev));
    }

    /// Schedules a shard-local entry under `key` during window execution.
    /// Same-cycle (zero-delay) schedules join the tail of the cycle
    /// currently being drained, exactly like the sequential queue's FIFO.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the wheel's past.
    pub fn schedule_keyed(&mut self, at: Cycle, key: EKey, ev: E) {
        let slot = self.queue.schedule(at, (key, ev));
        if matches!(key, EKey::Fresh { .. }) {
            self.fresh.push(slot);
        }
    }

    /// Inserts a sealed entry at its canonical position among cycle
    /// `at`'s pending entries, comparing keys through `resolve`. This is
    /// the barrier-time path for cross-shard arrivals (message
    /// deliveries, wakeups).
    ///
    /// # Panics
    ///
    /// Panics with a *lookahead violation* if `at` is below the barrier
    /// floor — the shard may already have executed past it, so inserting
    /// would silently diverge from the sequential schedule.
    pub fn insert_with<R: Fn(&EKey) -> Resolved>(
        &mut self,
        at: Cycle,
        key: EKey,
        ev: E,
        resolve: R,
    ) {
        assert!(
            at >= self.floor,
            "lookahead violation: cross-shard arrival at cycle {at} is below \
             the window floor {} — the lookahead bound is unsound",
            self.floor
        );
        debug_assert!(
            !matches!(key, EKey::Fresh { .. }),
            "barrier insertions must carry sealed keys"
        );
        let rk = resolve(&key);
        self.queue
            .insert_by(at, (key, ev), |(k, _)| resolve(k) <= rk);
    }

    /// Pops the next entry strictly before `end`, in canonical order.
    /// Returns `None` when the window is exhausted.
    pub fn pop_window(&mut self, end: Cycle) -> Option<(Cycle, EKey, E)> {
        self.queue
            .pop_before(end)
            .map(|(t, (key, ev))| (t, key, ev))
    }

    /// Rewrites every pending `Fresh` entry's key (window-barrier
    /// patching to `Sealed` form), using the slots recorded at schedule
    /// time. Entries consumed within the window are skipped; sealing is
    /// the identity on seeds and sealed keys.
    pub fn patch_keys(&mut self, seal: impl Fn(&EKey) -> EKey) {
        for slot in self.fresh.drain(..) {
            if let Some((key, _)) = self.queue.get_mut(slot) {
                *key = seal(key);
            }
        }
    }
}

/// A bounded single-producer/single-consumer ring with blocking push and
/// pop, used both as the per-pair boundary buffer drained at window
/// barriers and as the coordinator↔worker hand-off channel.
///
/// The workspace forbids `unsafe`, so the ring is a mutex-protected deque
/// with a condvar rather than a lock-free buffer; exchanges happen once
/// per window barrier, far off the simulation hot path.
#[derive(Debug)]
pub struct Ring<T> {
    inner: Mutex<RingState<T>>,
    cv: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct RingState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> Ring<T> {
    /// A ring holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Ring {
            inner: Mutex::new(RingState {
                items: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Pushes an item, blocking while the ring is full.
    ///
    /// # Panics
    ///
    /// Panics if the ring is closed.
    pub fn push(&self, item: T) {
        let mut st = self.inner.lock().expect("ring lock");
        while st.items.len() >= self.capacity && !st.closed {
            st = self.cv.wait(st).expect("ring wait");
        }
        assert!(!st.closed, "push into a closed ring");
        st.items.push_back(item);
        self.cv.notify_all();
    }

    /// Pops an item, blocking while the ring is empty; `None` once the
    /// ring is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.inner.lock().expect("ring lock");
        loop {
            if let Some(item) = st.items.pop_front() {
                self.cv.notify_all();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).expect("ring wait");
        }
    }

    /// Closes the ring, waking blocked consumers.
    pub fn close(&self) {
        self.inner.lock().expect("ring lock").closed = true;
        self.cv.notify_all();
    }
}

/// One emission from a handler in the generic engine: deliver `ev` to
/// shard `to` after `delay` cycles.
#[derive(Debug, Clone)]
pub struct Emission<E> {
    /// Destination shard.
    pub to: usize,
    /// Delivery delay in cycles (cross-shard emissions must respect the
    /// engine's lookahead).
    pub delay: Cycle,
    /// The event payload.
    pub ev: E,
}

#[derive(Debug)]
struct SendRec<E> {
    key: EKey,
    send_time: Cycle,
    to: usize,
    delay: Cycle,
    ev: E,
}

struct WindowTask<E> {
    shard: usize,
    wheel: ShardWheel<E>,
    end: Cycle,
}

struct WindowResult<E> {
    shard: usize,
    wheel: ShardWheel<E>,
    log: Vec<LogRec<E>>,
    sends: Vec<SendRec<E>>,
}

/// Runs a sharded model conservatively and returns the canonical global
/// execution order as `(cycle, shard, event)` — byte-comparable against
/// the same model driven through a sequential [`crate::EventQueue`].
///
/// `seeds` are the initial events in schedule order; `lookahead` must
/// lower-bound every cross-shard emission delay (violations panic at the
/// offending barrier rather than reorder); `threads <= 1` runs the same
/// windowed machinery inline.
///
/// # Panics
///
/// Panics on a lookahead violation: a cross-shard emission with
/// `delay < lookahead` that lands below a shard's window floor.
pub fn run_conservative<E, F>(
    seeds: Vec<(Cycle, usize, E)>,
    nshards: usize,
    lookahead: Cycle,
    threads: usize,
    handler: F,
) -> Vec<(Cycle, usize, E)>
where
    E: Send + Clone,
    F: Fn(usize, Cycle, &E, &mut Vec<Emission<E>>) + Sync,
{
    assert!(nshards > 0 && lookahead > 0);
    let mut wheels: Vec<Option<ShardWheel<E>>> =
        (0..nshards).map(|_| Some(ShardWheel::new())).collect();
    for (seq, (at, shard, ev)) in seeds.into_iter().enumerate() {
        wheels[shard]
            .as_mut()
            .expect("wheel present")
            .seed(at, seq as u64, ev);
    }

    let mut out = Vec::new();
    let workers = threads.clamp(1, nshards);
    // Coordinator → worker task rings (one per worker, SPSC) and the
    // shared worker → coordinator result ring. Declared before the scope
    // so the spawned workers' borrows outlive the scope body.
    let task_rings: Vec<Ring<WindowTask<E>>> =
        (0..workers).map(|_| Ring::new(nshards + 1)).collect();
    let results: Ring<WindowResult<E>> = Ring::new(nshards + 1);
    std::thread::scope(|scope| {
        // If the coordinator panics (e.g. a lookahead violation), close
        // the task rings on unwind so blocked workers exit instead of
        // deadlocking the scope join.
        struct CloseOnDrop<'a, T>(&'a [Ring<T>]);
        impl<T> Drop for CloseOnDrop<'_, T> {
            fn drop(&mut self) {
                for ring in self.0 {
                    ring.close();
                }
            }
        }
        let _close_guard = CloseOnDrop(&task_rings);
        if workers > 1 {
            for ring in &task_rings {
                let results = &results;
                let handler = &handler;
                scope.spawn(move || {
                    // Mirror-image guard: a panicking worker closes the
                    // result ring so the coordinator stops waiting on it.
                    let _close_guard = CloseOnDrop(std::slice::from_ref(results));
                    while let Some(task) = ring.pop() {
                        results.push(run_window(task, handler));
                    }
                });
            }
        }

        loop {
            let window = wheels
                .iter()
                .filter_map(|w| w.as_ref().expect("wheel home").next_time())
                .min();
            let Some(start) = window else { break };
            let end = start + lookahead;

            // Run every shard with work in this window.
            let mut busy = Vec::new();
            for shard in 0..nshards {
                let has_work = wheels[shard]
                    .as_ref()
                    .expect("wheel home")
                    .next_time()
                    .is_some_and(|t| t < end);
                if !has_work {
                    continue;
                }
                let task = WindowTask {
                    shard,
                    wheel: wheels[shard].take().expect("wheel home"),
                    end,
                };
                busy.push(shard);
                if workers > 1 {
                    task_rings[shard % workers].push(task);
                } else {
                    results.push(run_window(task, &handler));
                }
            }

            // Barrier: collect, rank, patch, deliver.
            let mut logs: Vec<Vec<LogRec<E>>> = (0..nshards).map(|_| Vec::new()).collect();
            let mut sends = Vec::new();
            for _ in 0..busy.len() {
                let res = results.pop().expect("worker result");
                logs[res.shard] = res.log;
                sends.extend(res.sends);
                wheels[res.shard] = Some(res.wheel);
            }
            let mut merger = Merger::new(logs);
            for (shard, xi) in merger.rank_through(end) {
                let rec = merger.log(shard, xi);
                out.push((rec.cycle, shard as usize, rec.meta.clone()));
            }
            for wheel in wheels.iter_mut() {
                let wheel = wheel.as_mut().expect("wheel home");
                wheel.patch_keys(|k| merger.seal(k));
                wheel.set_floor(end);
            }
            sends.sort_by_key(|s| merger.resolve(&s.key));
            for s in sends {
                let arrival = s.send_time + s.delay;
                wheels[s.to].as_mut().expect("wheel home").insert_with(
                    arrival,
                    merger.seal(&s.key),
                    s.ev,
                    |k| merger.resolve(k),
                );
            }
        }
        for ring in &task_rings {
            ring.close();
        }
    });
    out
}

fn run_window<E, F>(mut task: WindowTask<E>, handler: &F) -> WindowResult<E>
where
    E: Send + Clone,
    F: Fn(usize, Cycle, &E, &mut Vec<Emission<E>>) + Sync,
{
    let mut log: Vec<LogRec<E>> = Vec::new();
    let mut sends = Vec::new();
    let mut emissions = Vec::new();
    while let Some((t, key, ev)) = task.wheel.pop_window(task.end) {
        let xi = log.len() as u32;
        emissions.clear();
        handler(task.shard, t, &ev, &mut emissions);
        log.push(LogRec {
            cycle: t,
            key,
            meta: ev,
        });
        for (idx, em) in emissions.drain(..).enumerate() {
            let key = EKey::Fresh {
                shard: task.shard as ShardId,
                xi,
                idx: idx as u32,
            };
            if em.to == task.shard {
                task.wheel.schedule_keyed(t + em.delay, key, em.ev);
            } else {
                sends.push(SendRec {
                    key,
                    send_time: t,
                    to: em.to,
                    delay: em.delay,
                    ev: em.ev,
                });
            }
        }
    }
    WindowResult {
        shard: task.shard,
        wheel: task.wheel,
        log,
        sends,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_fifo_and_zero_delay_append() {
        let mut w: ShardWheel<u32> = ShardWheel::new();
        w.seed(5, 0, 10);
        w.seed(5, 1, 11);
        let (t, k, e) = w.pop_window(100).unwrap();
        assert_eq!((t, e), (5, 10));
        assert_eq!(k, EKey::Init { seq: 0 });
        // Zero-delay schedule joins the tail of the draining bucket.
        w.schedule_keyed(
            5,
            EKey::Fresh {
                shard: 0,
                xi: 0,
                idx: 0,
            },
            12,
        );
        assert_eq!(w.pop_window(100).unwrap().2, 11);
        assert_eq!(w.pop_window(100).unwrap().2, 12);
        assert!(w.pop_window(100).is_none());
        assert_eq!(w.total_scheduled(), 3);
    }

    #[test]
    fn wheel_window_edge_exclusive() {
        let mut w: ShardWheel<u32> = ShardWheel::new();
        w.seed(9, 0, 1);
        w.seed(10, 1, 2);
        assert_eq!(w.pop_window(10).unwrap().0, 9);
        assert!(w.pop_window(10).is_none(), "cycle 10 is outside [0, 10)");
        assert_eq!(w.next_time(), Some(10));
        assert_eq!(w.pop_window(11).unwrap().0, 10);
    }

    #[test]
    #[should_panic(expected = "lookahead violation")]
    fn insert_below_floor_panics() {
        let mut w: ShardWheel<u32> = ShardWheel::new();
        w.set_floor(26);
        w.insert_with(25, EKey::Init { seq: 0 }, 1, Resolved::of_sealed);
    }

    #[test]
    fn insert_positions_by_key() {
        let mut w: ShardWheel<u32> = ShardWheel::new();
        let k = |pc, pr, idx| EKey::Sealed { pc, pr, idx };
        w.insert_with(50, k(3, 0, 0), 30, Resolved::of_sealed);
        w.insert_with(50, k(1, 0, 0), 10, Resolved::of_sealed);
        w.insert_with(50, k(2, 5, 1), 20, Resolved::of_sealed);
        let order: Vec<u32> = std::iter::from_fn(|| w.pop_window(100).map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn patch_keys_seals_a_fresh_entry_in_a_reused_slot() {
        let mut w: ShardWheel<u32> = ShardWheel::new();
        let fresh = |xi| EKey::Fresh {
            shard: 0,
            xi,
            idx: 0,
        };
        let seal = |k: &EKey| match *k {
            EKey::Fresh { xi, idx, .. } => EKey::Sealed {
                pc: 1,
                pr: u64::from(xi),
                idx,
            },
            sealed => sealed,
        };
        w.seed(1, 0, 0);
        assert_eq!(w.pop_window(10).unwrap().2, 0);
        // A fresh entry that pops inside its window frees its slot ...
        w.schedule_keyed(2, fresh(0), 1);
        assert_eq!(w.pop_window(10).unwrap().2, 1);
        // ... which the next fresh entry of the same window takes over.
        w.schedule_keyed(5, fresh(1), 2);
        w.patch_keys(seal);
        assert_eq!(
            w.next_entry(),
            Some((
                5,
                EKey::Sealed {
                    pc: 1,
                    pr: 1,
                    idx: 0
                }
            ))
        );
    }

    #[test]
    fn merger_ranks_same_cycle_across_shards() {
        // Shard 0 executed entries keyed (pc=0, pr=0, idx 0) and a fresh
        // child of its own first entry; shard 1 executed (pc=0, pr=1).
        let logs = vec![
            vec![
                LogRec {
                    cycle: 7,
                    key: EKey::Sealed {
                        pc: 0,
                        pr: 0,
                        idx: 0,
                    },
                    meta: "a",
                },
                LogRec {
                    cycle: 7,
                    key: EKey::Fresh {
                        shard: 0,
                        xi: 0,
                        idx: 0,
                    },
                    meta: "a-child",
                },
            ],
            vec![LogRec {
                cycle: 7,
                key: EKey::Sealed {
                    pc: 0,
                    pr: 1,
                    idx: 0,
                },
                meta: "b",
            }],
        ];
        let mut m = Merger::new(logs);
        let order: Vec<&str> = m
            .rank_through(100)
            .into_iter()
            .map(|(s, xi)| m.log(s, xi).meta)
            .collect();
        // a (pc 0, pr 0) < b (pc 0, pr 1) < a-child (pc 7 parent).
        assert_eq!(order, vec!["a", "b", "a-child"]);
        assert_eq!(
            m.seal(&EKey::Fresh {
                shard: 0,
                xi: 0,
                idx: 3
            }),
            EKey::Sealed {
                pc: 7,
                pr: 0,
                idx: 3
            }
        );
    }

    #[test]
    fn ring_is_fifo_and_close_drains() {
        let r: Ring<u32> = Ring::new(4);
        r.push(1);
        r.push(2);
        r.close();
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn ring_blocks_across_threads() {
        let r: Ring<u32> = Ring::new(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..100 {
                    r.push(i);
                }
                r.close();
            });
            let mut got = Vec::new();
            while let Some(v) = r.pop() {
                got.push(v);
            }
            assert_eq!(got, (0..100).collect::<Vec<_>>());
        });
    }
}
