//! Split-transaction SMP bus model.
//!
//! Each node of the simulated machine has a 100 MHz, 16-byte-wide,
//! fully-pipelined, split-transaction bus with *separate address and data
//! buses* (Section 2.1 of the paper). This crate models the bus as two FIFO
//! reservation resources:
//!
//! * the **address bus**, which accepts one address strobe every two bus
//!   cycles (4 CPU cycles) — this is also the rate at which the bus-side
//!   duplicate directory can be looked up;
//! * the **data bus**, which moves 16 bytes per bus cycle and drives the
//!   critical quad-word first, so a stalled load resumes after the first
//!   beat while the rest of the line streams behind it.
//!
//! The protocol content of bus transactions (who snoops, who answers) is
//! decided by the machine model in the `ccnuma` crate; this crate answers
//! only the *when* questions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ccn_sim::{ComponentStats, Cycle, Server, CPU_CYCLES_PER_BUS_CYCLE};

/// The kind of transaction driven on a node's SMP bus.
///
/// These correspond to the bus-side handler vocabulary of the paper's
/// Table 4 plus the plain transactions that never reach a protocol engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusOp {
    /// Read request (load miss).
    Read,
    /// Read-exclusive request (store miss).
    ReadExcl,
    /// Upgrade: store hit on a Shared line (no data needed).
    Upgrade,
    /// Write-back of a dirty line (eviction or downgrade).
    WriteBack,
    /// Invalidate local copies (driven by the coherence controller on
    /// behalf of a remote writer).
    Invalidate,
    /// Data delivery from the coherence controller to a waiting requester.
    DataDeliver,
}

impl BusOp {
    /// Stable label for traces and flight-recorder records.
    pub fn label(self) -> &'static str {
        match self {
            BusOp::Read => "Read",
            BusOp::ReadExcl => "ReadExcl",
            BusOp::Upgrade => "Upgrade",
            BusOp::WriteBack => "WriteBack",
            BusOp::Invalidate => "Invalidate",
            BusOp::DataDeliver => "DataDeliver",
        }
    }
}

/// Timing parameters of the SMP bus.
#[derive(Debug, Clone, Copy)]
pub struct BusConfig {
    /// CPU cycles between consecutive address strobes (paper: 2 bus cycles
    /// = 4 CPU cycles; also the duplicate-directory lookup rate).
    pub address_slot_cycles: Cycle,
    /// CPU cycles from address strobe to stable snoop result.
    pub snoop_cycles: Cycle,
    /// Data-bus width in bytes per bus cycle (paper: 16).
    pub bytes_per_beat: u64,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            address_slot_cycles: 4,
            snoop_cycles: 4,
            bytes_per_beat: 16,
        }
    }
}

/// Completed timing of one data transfer on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataTransfer {
    /// Cycle the data bus was granted.
    pub start: Cycle,
    /// Cycle the critical (first) beat is available to the requester.
    pub critical: Cycle,
    /// Cycle the full line has transferred and the data bus is free.
    pub end: Cycle,
}

/// One node's split-transaction SMP bus.
///
/// # Example
///
/// ```
/// use ccn_bus::{BusConfig, SmpBus};
///
/// let mut bus = SmpBus::new(BusConfig::default());
/// let a0 = bus.address_phase(100);
/// let a1 = bus.address_phase(100);
/// assert_eq!(a0, 100);
/// assert_eq!(a1, 104); // next address slot
/// let xfer = bus.data_transfer(a0, 128);
/// assert_eq!(xfer.critical, xfer.start + 2);
/// assert_eq!(xfer.end, xfer.start + 16); // 8 beats x 2 CPU cycles
/// ```
#[derive(Debug, Clone)]
pub struct SmpBus {
    config: BusConfig,
    address: Server,
    data: Server,
}

impl SmpBus {
    /// Creates an idle bus with the given timing.
    pub fn new(config: BusConfig) -> Self {
        SmpBus {
            config,
            address: Server::new("smp address bus"),
            data: Server::new("smp data bus"),
        }
    }

    /// The bus timing parameters.
    pub fn config(&self) -> BusConfig {
        self.config
    }

    /// Arbitrates for an address slot at `time`; returns the strobe cycle.
    pub fn address_phase(&mut self, time: Cycle) -> Cycle {
        self.address.acquire(time, self.config.address_slot_cycles)
    }

    /// Cycle at which snoop results for a strobe at `strobe` are stable.
    pub fn snoop_done(&self, strobe: Cycle) -> Cycle {
        strobe + self.config.snoop_cycles
    }

    /// Schedules a `bytes`-byte transfer on the data bus no earlier than
    /// `time`. Critical-quad-word-first: the requester's stall ends at
    /// `critical`, one beat after the transfer starts.
    pub fn data_transfer(&mut self, time: Cycle, bytes: u64) -> DataTransfer {
        let beats = bytes.div_ceil(self.config.bytes_per_beat).max(1);
        let duration = beats * CPU_CYCLES_PER_BUS_CYCLE;
        let start = self.data.acquire(time, duration);
        DataTransfer {
            start,
            critical: start + CPU_CYCLES_PER_BUS_CYCLE,
            end: start + duration,
        }
    }

    /// Total address phases arbitrated (the address bus's acquisitions).
    pub fn transactions(&self) -> u64 {
        self.address.requests()
    }

    /// Mean address-arbitration queueing delay in cycles.
    pub fn mean_address_delay(&self) -> f64 {
        self.address.mean_queue_delay()
    }

    /// A snapshot of the bus's statistics, address and data buses nested.
    pub fn stats_snapshot(&self) -> ComponentStats {
        ComponentStats::named("bus")
            .counter("transactions", self.transactions())
            .gauge("mean_address_delay", self.mean_address_delay())
            .child(self.address.stats_snapshot())
            .child(self.data.stats_snapshot())
    }

    /// Resets statistics, keeping pending reservations.
    pub fn reset_stats(&mut self) {
        self.address.reset_stats();
        self.data.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_op_labels_are_unique() {
        let ops = [
            BusOp::Read,
            BusOp::ReadExcl,
            BusOp::Upgrade,
            BusOp::WriteBack,
            BusOp::Invalidate,
            BusOp::DataDeliver,
        ];
        let mut labels: Vec<&str> = ops.iter().map(|o| o.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), ops.len());
    }

    #[test]
    fn address_slots_are_paced() {
        let mut bus = SmpBus::new(BusConfig::default());
        assert_eq!(bus.address_phase(0), 0);
        assert_eq!(bus.address_phase(0), 4);
        assert_eq!(bus.address_phase(0), 8);
        assert_eq!(bus.address_phase(100), 100);
        assert_eq!(bus.transactions(), 4);
    }

    #[test]
    fn full_line_transfer_timing() {
        let mut bus = SmpBus::new(BusConfig::default());
        let t = bus.data_transfer(10, 128);
        assert_eq!(t.start, 10);
        assert_eq!(t.critical, 12);
        assert_eq!(t.end, 26);
        // Next transfer queues behind.
        let t2 = bus.data_transfer(10, 32);
        assert_eq!(t2.start, 26);
        assert_eq!(t2.end, 30);
    }

    #[test]
    fn short_transfer_minimum_one_beat() {
        let mut bus = SmpBus::new(BusConfig::default());
        let t = bus.data_transfer(0, 8);
        assert_eq!(t.end - t.start, CPU_CYCLES_PER_BUS_CYCLE);
    }

    #[test]
    fn snoop_window() {
        let bus = SmpBus::new(BusConfig::default());
        assert_eq!(bus.snoop_done(10), 14);
    }

    #[test]
    fn busy_cycles_and_reset() {
        let mut bus = SmpBus::new(BusConfig::default());
        bus.address_phase(0);
        let address_busy = |bus: &SmpBus| {
            bus.stats_snapshot()
                .find("smp address bus")
                .and_then(|s| s.get_counter("busy_cycles"))
        };
        assert_eq!(address_busy(&bus), Some(4));
        bus.reset_stats();
        assert_eq!(address_busy(&bus), Some(0));
        assert_eq!(bus.transactions(), 0);
    }
}
