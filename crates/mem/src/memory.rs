//! Interleaved memory-bank timing model.

use ccn_sim::{ComponentStats, Cycle, Server};

use crate::addr::LineAddr;

/// The interleaved main memory of one SMP node.
///
/// The paper's nodes have interleaved memory behind a memory controller
/// that is a separate bus agent from the coherence controller. Each bank is
/// a FIFO [`Server`]; consecutive cache lines map to consecutive banks, so
/// streaming accesses spread across banks while a hot line queues on one.
///
/// Timing: a line access occupies its bank for `bank_occupancy` cycles; the
/// latency from the start of the access to the first (critical) data beat
/// is reported by the caller's latency model, not here — this model only
/// answers "when does the bank accept and finish my access?".
///
/// # Example
///
/// ```
/// use ccn_mem::{LineAddr, MemoryBanks};
///
/// let mut mem = MemoryBanks::new(4, 16);
/// // Two accesses to the same line contend; different lines interleave.
/// let t0 = mem.access(LineAddr(8), 100);
/// let t1 = mem.access(LineAddr(8), 100);
/// let t2 = mem.access(LineAddr(9), 100);
/// assert_eq!(t0, 100);
/// assert_eq!(t1, 116);
/// assert_eq!(t2, 100);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryBanks {
    banks: Vec<Server>,
    bank_occupancy: Cycle,
    accesses: u64,
}

impl MemoryBanks {
    /// Creates `num_banks` interleaved banks, each busy `bank_occupancy`
    /// cycles per line access.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` is zero.
    pub fn new(num_banks: usize, bank_occupancy: Cycle) -> Self {
        assert!(num_banks > 0, "memory needs at least one bank");
        MemoryBanks {
            banks: vec![Server::new("memory bank"); num_banks],
            bank_occupancy,
            accesses: 0,
        }
    }

    /// Requests a line access starting no earlier than `time`; returns the
    /// cycle at which the bank begins servicing it.
    pub fn access(&mut self, line: LineAddr, time: Cycle) -> Cycle {
        self.accesses += 1;
        let bank = (line.0 % self.banks.len() as u64) as usize;
        self.banks[bank].acquire(time, self.bank_occupancy)
    }

    /// Total line accesses serviced.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Mean bank queueing delay in cycles.
    pub fn mean_queue_delay(&self) -> f64 {
        let (sum, n) = self.banks.iter().fold((0.0, 0u64), |(s, n), b| {
            (
                s + b.mean_queue_delay() * b.requests() as f64,
                n + b.requests(),
            )
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// A snapshot of the memory's statistics, every bank nested.
    pub fn stats_snapshot(&self) -> ComponentStats {
        let mut snap = ComponentStats::named("memory")
            .counter("accesses", self.accesses)
            .gauge("mean_queue_delay", self.mean_queue_delay());
        for bank in &self.banks {
            snap.children.push(bank.stats_snapshot());
        }
        snap
    }

    /// Resets statistics, keeping pending reservations.
    pub fn reset_stats(&mut self) {
        for b in &mut self.banks {
            b.reset_stats();
        }
        self.accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaves_by_line() {
        let mut mem = MemoryBanks::new(2, 10);
        assert_eq!(mem.access(LineAddr(0), 0), 0);
        assert_eq!(mem.access(LineAddr(1), 0), 0); // other bank
        assert_eq!(mem.access(LineAddr(2), 0), 10); // bank 0 again
        assert_eq!(mem.accesses(), 3);
    }

    #[test]
    fn queue_delay_accounting() {
        let mut mem = MemoryBanks::new(1, 10);
        mem.access(LineAddr(0), 0);
        mem.access(LineAddr(0), 0); // waits 10
        assert!((mem.mean_queue_delay() - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_panics() {
        let _ = MemoryBanks::new(0, 1);
    }
}
