//! FIFO reservation servers for bandwidth resources.

use crate::{ComponentStats, Cycle};

/// A FIFO *reservation server*: the timing model for a pipelined bandwidth
/// resource such as a bus address slot stream, a data bus, a memory bank,
/// directory DRAM, or a network port.
///
/// A client requests the resource at time `t` for `d` cycles with
/// [`acquire`](Server::acquire) and receives the *grant time*
/// `max(t, next_free)`; the server becomes free again at `grant + d`.
/// The number of grants, their summed queueing delay (`grant - t`) and
/// busy time are kept so that the simulator can report utilizations and
/// average queueing delays the way Tables 6 and 7 of the paper do.
///
/// Because grants are handed out in call order, the model is exact for a
/// FIFO resource as long as calls are made in non-decreasing request-time
/// order, which the event-driven simulator guarantees up to the small
/// look-ahead inside a single protocol handler (a handler reserves the bus
/// and memory a few cycles into its own future; see the design notes in
/// DESIGN.md).
///
/// # Example
///
/// ```
/// let mut bank = ccn_sim::Server::new("memory bank 0");
/// assert_eq!(bank.acquire(100, 8), 100);
/// assert_eq!(bank.acquire(100, 8), 108); // second request queues
/// assert_eq!(bank.acquire(500, 8), 500); // idle gap, immediate grant
/// assert_eq!(bank.busy_cycles(), 24);
/// ```
#[derive(Debug, Clone)]
pub struct Server {
    name: &'static str,
    next_free: Cycle,
    busy: Cycle,
    requests: u64,
    /// Exact sum of every grant's queueing delay.
    queue_delay_sum: u128,
}

impl Server {
    /// Creates an idle server. `name` is used only in `Debug` output and
    /// diagnostics.
    pub fn new(name: &'static str) -> Self {
        Server {
            name,
            next_free: 0,
            busy: 0,
            requests: 0,
            queue_delay_sum: 0,
        }
    }

    /// Reserves the resource at request time `time` for `duration` cycles
    /// and returns the grant time.
    pub fn acquire(&mut self, time: Cycle, duration: Cycle) -> Cycle {
        let grant = self.next_free.max(time);
        self.next_free = grant + duration;
        self.busy += duration;
        self.requests += 1;
        self.queue_delay_sum += u128::from(grant - time);
        grant
    }

    /// Like [`acquire`](Server::acquire), but returns the *completion* time
    /// (`grant + duration`) instead of the grant time.
    pub fn acquire_until(&mut self, time: Cycle, duration: Cycle) -> Cycle {
        self.acquire(time, duration) + duration
    }

    /// The earliest time a new request made now would be granted.
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }

    /// Total cycles of reserved (busy) time.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy
    }

    /// Number of acquisitions served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Mean queueing delay in cycles over all acquisitions (0 if none).
    pub fn mean_queue_delay(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.queue_delay_sum as f64 / self.requests as f64
        }
    }

    /// The diagnostic name given at construction.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// A snapshot of the server's statistics, named after the server.
    pub fn stats_snapshot(&self) -> ComponentStats {
        ComponentStats::named(self.name)
            .counter("requests", self.requests())
            .counter("busy_cycles", self.busy)
            .gauge("mean_queue_delay", self.mean_queue_delay())
    }

    /// Resets statistics (busy time, request count and queue-delay sum)
    /// without forgetting the current reservation horizon.
    ///
    /// Used when the measured interval starts after warm-up (the paper
    /// reports the parallel phase only).
    pub fn reset_stats(&mut self) {
        self.busy = 0;
        self.requests = 0;
        self.queue_delay_sum = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_fifo_and_tracks_busy() {
        let mut s = Server::new("t");
        assert_eq!(s.acquire(10, 5), 10);
        assert_eq!(s.acquire(11, 5), 15);
        assert_eq!(s.acquire(40, 2), 40);
        assert_eq!(s.busy_cycles(), 12);
        assert_eq!(s.requests(), 3);
    }

    #[test]
    fn queue_delay_mean() {
        let mut s = Server::new("t");
        s.acquire(0, 10); // delay 0
        s.acquire(0, 10); // delay 10
        s.acquire(0, 10); // delay 20
        assert_eq!(s.mean_queue_delay(), 10.0);
    }

    #[test]
    fn acquire_until_is_completion() {
        let mut s = Server::new("t");
        assert_eq!(s.acquire_until(7, 3), 10);
        assert_eq!(s.acquire_until(7, 3), 13);
    }

    #[test]
    fn reset_stats_keeps_horizon() {
        let mut s = Server::new("t");
        s.acquire(0, 100);
        s.reset_stats();
        assert_eq!(s.busy_cycles(), 0);
        assert_eq!(s.requests(), 0);
        assert_eq!(s.mean_queue_delay(), 0.0);
        // still reserved until 100
        assert_eq!(s.acquire(0, 1), 100);
    }

    #[test]
    fn snapshot_and_reset() {
        let mut s = Server::new("bank");
        s.acquire(0, 10);
        let snap = s.stats_snapshot();
        assert_eq!(snap.name, "bank");
        assert_eq!(snap.get_counter("requests"), Some(1));
        assert_eq!(snap.get_counter("busy_cycles"), Some(10));
        s.reset_stats();
        assert_eq!(s.stats_snapshot().get_counter("requests"), Some(0));
        // Reservations survive the reset: the server is still busy.
        assert_eq!(s.next_free(), 10);
    }

    #[test]
    fn mean_queue_delay_is_exact_past_float_precision() {
        let mut s = Server::new("t");
        // Delays 0, 2^53 + 1 and 1: an f64 running total would round the
        // second to 2^53 and lose the third.
        let big = (1u64 << 53) + 1;
        s.acquire(0, big);
        s.acquire(0, 1); // delay 2^53 + 1
        s.acquire(big, 1); // delay 1
        assert_eq!(s.requests(), 3);
        assert_eq!(s.mean_queue_delay(), ((1u128 << 53) + 2) as f64 / 3.0);
    }
}
