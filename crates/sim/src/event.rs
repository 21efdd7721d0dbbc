//! Deterministic time-ordered event queue.
//!
//! Implemented as a calendar queue: a fixed wheel of per-cycle buckets
//! covering the near future, plus a short cycle-sorted list of the
//! far-future cycles beyond the wheel's horizon. Every cycle's events,
//! near or far, form one intrusive FIFO list through a shared slab, so a
//! far cycle enters the wheel by moving its whole list into its bucket.
//! Discrete-event simulators schedule almost exclusively a few tens to
//! hundreds of cycles ahead (component latencies), so nearly every event
//! takes the O(1) bucket path; far cycles are rare timers.

use crate::Cycle;

/// Log2 of the wheel size. 1024 cycles comfortably covers every
/// component latency in the simulated machine (the slowest single hop,
/// uncontended DRAM plus network, is well under 300 CPU cycles), so the
/// far cycles are cold in practice.
const WHEEL_BITS: u32 = 10;
/// Cycles (and buckets) covered by the wheel window `[now, now+SPAN)`.
const WHEEL_SPAN: Cycle = 1 << WHEEL_BITS;
/// Maps an absolute cycle to its bucket index.
const WHEEL_MASK: Cycle = WHEEL_SPAN - 1;

/// A deterministic discrete-event queue.
///
/// Events are delivered in non-decreasing timestamp order; events scheduled
/// for the same cycle are delivered in the order they were scheduled (FIFO).
/// This makes every simulation run bit-for-bit reproducible.
///
/// The payload type `E` is chosen by the simulator that owns the queue; the
/// engine itself attaches no meaning to it.
///
/// # Example
///
/// ```
/// let mut q = ccn_sim::EventQueue::new();
/// q.schedule(20, "b");
/// q.schedule(10, "a");
/// q.schedule(20, "c");
/// assert_eq!(q.pop(), Some((10, "a")));
/// assert_eq!(q.pop(), Some((20, "b")));
/// assert_eq!(q.pop(), Some((20, "c")));
/// assert_eq!(q.pop(), None);
/// ```
///
/// # Invariants
///
/// * Every bucketed event's timestamp lies in `[now, now + SPAN)`, so a
///   bucket only ever holds events of a single absolute cycle.
/// * Every far cycle is `>= now + SPAN`, restored whenever a pop advances
///   the clock: each far cycle that entered the window moves its list,
///   whole, into its bucket before any later insertion can reach that
///   bucket, so its earlier-scheduled events stay in front.
/// * `now <= `(every pending timestamp), enforced by the insertion
///   assertion, so `time - now` never wraps.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// `SPAN` buckets; bucket `t & MASK` holds the list for cycle `t`.
    ///
    /// One shared slab instead of a `VecDeque` per bucket: bursty
    /// workloads pile thousands of same-cycle events into whichever
    /// bucket the burst lands on, and per-bucket buffers would each have
    /// to be sized for the worst burst (megabytes of mostly-idle
    /// capacity) to keep the steady state allocation-free. The slab is
    /// sized once for the *total* pending high-water mark, which every
    /// bucket shares.
    wheel: Box<[List]>,
    /// Far cycles with their lists and list lengths, latest first so the
    /// earliest is popped off the end.
    far: Vec<(Cycle, List, usize)>,
    /// Node storage for every list.
    slab: Vec<Slot<E>>,
    /// Head of the free list through `slab` (`NIL` = empty).
    free: u32,
    /// Events in the wheel's buckets.
    wheel_len: usize,
    /// Events in the far lists.
    far_len: usize,
    /// Lifetime count of scheduled events.
    scheduled: u64,
    /// High-water mark of concurrently pending events, for capacity
    /// planning (the zero-alloc gate needs the slab sized past this).
    max_pending: usize,
    now: Cycle,
}

/// Sentinel for "no slot" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// One cycle's events as an intrusive FIFO through the slab:
/// `(head, tail)`, `(NIL, NIL)` when empty.
type List = (u32, u32);

/// One slab slot: an event plus the link to the next slot of its list
/// (or of the free list). `None` while on the free list.
#[derive(Debug)]
struct Slot<E> {
    event: Option<E>,
    next: u32,
}

/// Appends slot `idx` to the tail of `list`.
fn append<E>(slab: &mut [Slot<E>], list: &mut List, idx: u32) {
    if list.1 == NIL {
        *list = (idx, idx);
    } else {
        slab[list.1 as usize].next = idx;
        list.1 = idx;
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at cycle zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `events` concurrently
    /// pending events, so neither warm-up (e.g. scheduling every
    /// processor's initial resume at cycle zero) nor a steady state
    /// that stays under the high-water mark ever reallocates. The
    /// shared slab means the bound covers any distribution of those
    /// events across cycles, including all of them landing on one.
    pub fn with_capacity(events: usize) -> Self {
        EventQueue {
            wheel: vec![(NIL, NIL); WHEEL_SPAN as usize].into_boxed_slice(),
            far: Vec::with_capacity(events.min(64)),
            slab: Vec::with_capacity(events),
            free: NIL,
            wheel_len: 0,
            far_len: 0,
            scheduled: 0,
            max_pending: 0,
            now: 0,
        }
    }

    /// Takes a slab slot for `event` and returns its index, reusing the
    /// free list when possible.
    fn alloc_slot(&mut self, event: E) -> u32 {
        let idx = self.free;
        if idx == NIL {
            assert!(self.slab.len() < NIL as usize, "event slab full");
            self.slab.push(Slot {
                event: Some(event),
                next: NIL,
            });
            self.slab.len() as u32 - 1
        } else {
            let slot = &mut self.slab[idx as usize];
            self.free = slot.next;
            slot.event = Some(event);
            slot.next = NIL;
            idx
        }
    }

    /// Schedules `event` to fire at absolute cycle `time`, behind every
    /// event already pending at that cycle.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (before the last popped event); a
    /// simulator that schedules into the past has a causality bug and must
    /// fail loudly rather than silently reorder history.
    #[inline]
    pub fn schedule(&mut self, time: Cycle, event: E) {
        assert!(
            time >= self.now,
            "event scheduled at cycle {time} but the clock is already at {}",
            self.now
        );
        self.scheduled += 1;
        self.max_pending = self.max_pending.max(self.len() + 1);
        let idx = self.alloc_slot(event);
        let list = if time - self.now < WHEEL_SPAN {
            self.wheel_len += 1;
            &mut self.wheel[(time & WHEEL_MASK) as usize]
        } else {
            self.far_len += 1;
            let i = match self.far.binary_search_by(|&(t, ..)| time.cmp(&t)) {
                Ok(i) => i,
                Err(i) => {
                    self.far.insert(i, (time, (NIL, NIL), 0));
                    i
                }
            };
            let (_, list, len) = &mut self.far[i];
            *len += 1;
            list
        };
        append(&mut self.slab, list, idx);
    }

    /// The event that a `schedule(time, ..)` made now would queue
    /// directly behind: the last event pending at cycle `time`, or `None`
    /// when that cycle has no pending event (it is empty, fully popped,
    /// or already in the past). A caller may fold new work into it
    /// instead of scheduling, when running the two back to back is what
    /// the queue would do anyway. O(1) inside the wheel window, a binary
    /// search over the far cycles beyond it.
    pub fn last_at_mut(&mut self, time: Cycle) -> Option<&mut E> {
        if time < self.now {
            return None;
        }
        let tail = if time - self.now < WHEEL_SPAN {
            self.wheel[(time & WHEEL_MASK) as usize].1
        } else {
            let i = self.far.binary_search_by(|&(t, ..)| time.cmp(&t)).ok()?;
            self.far[i].1 .1
        };
        if tail == NIL {
            return None;
        }
        self.slab[tail as usize].event.as_mut()
    }

    /// The earliest pending cycle and the first slot of its list.
    fn first(&self) -> Option<(Cycle, u32)> {
        if self.wheel_len == 0 {
            return self.far.last().map(|&(t, (head, _), _)| (t, head));
        }
        // The wheel's events all precede every far cycle. Pops scan from
        // the clock they advance, so the empty buckets a pop skips are
        // never rescanned and the cost amortizes to O(time advanced).
        let mut t = self.now;
        loop {
            debug_assert!(t - self.now < WHEEL_SPAN, "scan ran past the window");
            let head = self.wheel[(t & WHEEL_MASK) as usize].0;
            if head != NIL {
                return Some((t, head));
            }
            t += 1;
        }
    }

    /// Removes and returns the next event as `(time, event)`, advancing the
    /// clock to its timestamp. Returns `None` when the queue is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let (time, head) = self.first()?;
        self.now = time;
        // Far cycles now inside the window move into their buckets, which
        // are empty: an earlier cycle sharing one would be in the past.
        while let Some(&(t, list, len)) = self.far.last() {
            if t - time >= WHEEL_SPAN {
                break;
            }
            self.far.pop();
            let bucket = &mut self.wheel[(t & WHEEL_MASK) as usize];
            debug_assert_eq!(bucket.0, NIL, "far list moved into a live bucket");
            *bucket = list;
            self.far_len -= len;
            self.wheel_len += len;
        }
        let bucket = &mut self.wheel[(time & WHEEL_MASK) as usize];
        let slot = &mut self.slab[head as usize];
        let event = slot.event.take().expect("occupied bucket slot");
        if slot.next == NIL {
            *bucket = (NIL, NIL);
        } else {
            bucket.0 = slot.next;
        }
        slot.next = self.free;
        self.free = head;
        self.wheel_len -= 1;
        Some((time, event))
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.first().map(|(t, _)| t)
    }

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.wheel_len + self.far_len
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events scheduled over the queue's lifetime.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// High-water mark of concurrently pending events over the queue's
    /// lifetime.
    pub fn max_pending(&self) -> usize {
        self.max_pending
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(5, 'a');
        q.schedule(3, 'b');
        q.schedule(9, 'c');
        assert_eq!(q.pop(), Some((3, 'b')));
        assert_eq!(q.pop(), Some((5, 'a')));
        assert_eq!(q.pop(), Some((9, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((7, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.schedule(10, ());
        q.schedule(20, ());
        q.pop();
        assert_eq!(q.now(), 10);
        q.schedule(15, ()); // future relative to 10: fine
        q.pop();
        assert_eq!(q.now(), 15);
    }

    #[test]
    #[should_panic(expected = "scheduled at cycle")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn counts_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(4, ());
        q.schedule(2, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(2));
        assert_eq!(q.total_scheduled(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.total_scheduled(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_survive_the_far_path() {
        let mut q = EventQueue::new();
        // Far beyond the wheel window, plus a near event.
        q.schedule(5, "near");
        q.schedule(1_000_000, "far-b");
        q.schedule(1_000_000, "far-c"); // same-cycle tie on the far path
        q.schedule(999_999, "far-a");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((5, "near")));
        // The wheel is empty: the clock must jump, not scan a million slots.
        assert_eq!(q.peek_time(), Some(999_999));
        assert_eq!(q.pop(), Some((999_999, "far-a")));
        assert_eq!(q.pop(), Some((1_000_000, "far-b")));
        assert_eq!(q.pop(), Some((1_000_000, "far-c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn migrated_and_direct_events_interleave_fifo() {
        let mut q = EventQueue::new();
        let target = 3 * WHEEL_SPAN; // starts out beyond the window
        q.schedule(target, "scheduled-first");
        // Walk the clock forward until `target` is inside the window,
        // then schedule a same-cycle event directly into the bucket.
        let mut t = 0;
        while t + WHEEL_SPAN <= target {
            q.schedule(t + 1, "tick");
            let (pt, _) = q.pop().unwrap();
            t = pt;
        }
        q.schedule(target, "scheduled-second");
        assert_eq!(q.pop(), Some((target, "scheduled-first")));
        assert_eq!(q.pop(), Some((target, "scheduled-second")));
    }

    #[test]
    fn last_at_mut_is_the_tail_of_a_wheel_bucket() {
        let mut q = EventQueue::new();
        q.schedule(7, 1);
        q.schedule(9, 2);
        q.schedule(7, 3);
        assert_eq!(q.last_at_mut(7), Some(&mut 3));
        assert_eq!(q.last_at_mut(9), Some(&mut 2));
        // Changing the tail in place changes what pops, not the order.
        *q.last_at_mut(7).unwrap() = 30;
        assert_eq!(q.pop(), Some((7, 1)));
        assert_eq!(q.pop(), Some((7, 30)));
        assert_eq!(q.pop(), Some((9, 2)));
    }

    #[test]
    fn last_at_mut_is_the_tail_of_a_far_list() {
        let mut q = EventQueue::new();
        let far = 5 * WHEEL_SPAN;
        q.schedule(far, "a");
        q.schedule(far + 3, "x");
        q.schedule(far, "b");
        assert_eq!(q.last_at_mut(far), Some(&mut "b"));
        assert_eq!(q.last_at_mut(far + 3), Some(&mut "x"));
        // A far cycle with nothing on it, between and beyond the others.
        assert_eq!(q.last_at_mut(far + 1), None);
        assert_eq!(q.last_at_mut(far + 100), None);
        *q.last_at_mut(far).unwrap() = "c";
        assert_eq!(q.pop(), Some((far, "a")));
        assert_eq!(q.pop(), Some((far, "c")));
        assert_eq!(q.pop(), Some((far + 3, "x")));
    }

    #[test]
    fn last_at_mut_on_a_partly_popped_cycle() {
        let mut q = EventQueue::new();
        for i in 0..3 {
            q.schedule(4, i);
        }
        assert_eq!(q.pop(), Some((4, 0)));
        // The clock is at 4 with two events left there: the tail is
        // still the last one scheduled.
        assert_eq!(q.last_at_mut(4), Some(&mut 2));
        assert_eq!(q.pop(), Some((4, 1)));
        assert_eq!(q.last_at_mut(4), Some(&mut 2));
        assert_eq!(q.pop(), Some((4, 2)));
        // Fully popped: a new event would have nothing in front of it.
        assert_eq!(q.last_at_mut(4), None);
    }

    #[test]
    fn last_at_mut_on_an_empty_cycle() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.last_at_mut(0), None);
        q.schedule(10, 1);
        assert_eq!(q.last_at_mut(11), None);
        // Cycle 10's bucket one wheel span later: a far cycle with
        // nothing on it.
        assert_eq!(q.last_at_mut(10 + WHEEL_SPAN), None);
    }

    #[test]
    fn last_at_mut_on_a_past_cycle_is_none() {
        let mut q = EventQueue::new();
        q.schedule(3, 'a');
        q.schedule(3 + WHEEL_SPAN, 'b');
        assert_eq!(q.pop(), Some((3, 'a')));
        q.schedule(5, 'c');
        assert_eq!(q.pop(), Some((5, 'c')));
        // Cycle 3 is behind the clock; its bucket now serves cycle
        // 3 + SPAN, whose event must not be reported for cycle 3.
        assert_eq!(q.last_at_mut(3), None);
        assert_eq!(q.last_at_mut(3 + WHEEL_SPAN), Some(&mut 'b'));
    }

    #[test]
    fn window_boundary_events_classify_correctly() {
        let mut q = EventQueue::new();
        q.schedule(WHEEL_SPAN - 1, "last-in-window");
        q.schedule(WHEEL_SPAN, "first-beyond");
        assert_eq!(q.pop(), Some((WHEEL_SPAN - 1, "last-in-window")));
        assert_eq!(q.pop(), Some((WHEEL_SPAN, "first-beyond")));
        assert_eq!(q.pop(), None);
    }
}
