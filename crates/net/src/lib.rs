//! Interconnection network model.
//!
//! The paper's base system connects 16 SMP nodes with a 32-byte-wide
//! state-of-the-art switch with a 70 ns (14-cycle) point-to-point latency;
//! the slow-network experiment (Figure 8) raises the latency to 1 µs.
//! Following the paper's methodology, contention is modeled at the
//! *external points* of the network — each node's egress (injection) and
//! ingress (delivery) ports — plus wire/fall-through latency; the switch
//! core is assumed non-blocking.
//!
//! Messages from the same source to the same destination are delivered in
//! order (each port is a FIFO reservation server and the fall-through
//! latency is constant); the directory protocol relies on this for the
//! write-back / forward-miss race.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ccn_mem::NodeId;
use ccn_sim::{Component, ComponentStats, Cycle, Histogram, Server};

/// Network timing parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Point-to-point fall-through latency in CPU cycles (paper: 14 = 70 ns
    /// base, 200 = 1 µs for the slow-network study).
    pub latency_cycles: Cycle,
    /// Port bandwidth in bytes per CPU cycle (paper: 32 bytes per 100 MHz
    /// switch cycle = 16 bytes per CPU cycle).
    pub bytes_per_cycle: u64,
    /// Fixed network-interface processing overhead per message per side.
    pub ni_overhead: Cycle,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency_cycles: 14,
            bytes_per_cycle: 16,
            ni_overhead: 5,
        }
    }
}

impl NetConfig {
    /// The Figure 8 slow network: 1 µs point-to-point latency.
    pub fn slow() -> Self {
        NetConfig {
            latency_cycles: 200,
            ..NetConfig::default()
        }
    }

    /// The minimum send-to-arrival delay of any message: NI overhead and
    /// at least one serialization cycle on each side, plus the
    /// fall-through latency. No cross-node message can take effect
    /// sooner than this after its send.
    pub fn min_delay(&self) -> Cycle {
        2 * self.ni_overhead + self.latency_cycles + 2
    }
}

/// The machine's interconnection network.
///
/// # Example
///
/// ```
/// use ccn_mem::NodeId;
/// use ccn_net::{NetConfig, Network};
///
/// let mut net = Network::new(4, NetConfig::default());
/// let arrival = net.send(100, NodeId(0), NodeId(2), 16);
/// // 1-cycle serialization at each port + 5-cycle NI overhead each side
/// // + 14-cycle fall-through.
/// assert_eq!(arrival, 100 + 5 + 1 + 14 + 1 + 5);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    config: NetConfig,
    egress: Vec<Server>,
    ingress: Vec<Server>,
    messages: u64,
    bytes: u64,
    transit: Histogram,
}

impl Network {
    /// Creates a network connecting `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or the configured bandwidth is zero.
    pub fn new(nodes: usize, config: NetConfig) -> Self {
        assert!(nodes > 0, "a network needs at least one node");
        assert!(config.bytes_per_cycle > 0, "bandwidth must be positive");
        Network {
            config,
            egress: vec![Server::new("net egress"); nodes],
            ingress: vec![Server::new("net ingress"); nodes],
            messages: 0,
            bytes: 0,
            transit: Histogram::new(),
        }
    }

    /// The network timing parameters.
    pub fn config(&self) -> NetConfig {
        self.config
    }

    fn serialization(&self, bytes: u64) -> Cycle {
        bytes.div_ceil(self.config.bytes_per_cycle).max(1)
    }

    /// Sends a `bytes`-byte message, earliest injection at `time`; returns
    /// the cycle at which the message is fully delivered to the destination
    /// node's network interface.
    ///
    /// Sends to self are legal (they still pay port and NI costs); the
    /// machine model never generates them, but the torture tests may.
    pub fn send(&mut self, time: Cycle, from: NodeId, to: NodeId, bytes: u64) -> Cycle {
        self.messages += 1;
        self.bytes += bytes;
        let ser = self.serialization(bytes);
        let injected = self.egress[from.index()].acquire_until(time + self.config.ni_overhead, ser);
        let head_arrives = injected + self.config.latency_cycles;
        let delivered = self.ingress[to.index()].acquire_until(head_arrives, ser);
        let arrival = delivered + self.config.ni_overhead;
        self.transit.record(arrival - time);
        arrival
    }

    /// End-to-end message transit times (send to NI delivery), in cycles,
    /// as a log2-bucketed distribution.
    pub fn transit_histogram(&self) -> &Histogram {
        &self.transit
    }

    /// Total messages sent.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Total payload+header bytes moved.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Utilization of a node's egress port over `elapsed` cycles.
    pub fn egress_utilization(&self, node: NodeId, elapsed: Cycle) -> f64 {
        self.egress[node.index()].utilization(elapsed)
    }

    /// Resets statistics, keeping port reservations.
    pub fn reset_stats(&mut self) {
        for p in self.egress.iter_mut().chain(self.ingress.iter_mut()) {
            p.reset_stats();
        }
        self.messages = 0;
        self.bytes = 0;
        self.transit = Histogram::new();
    }
}

impl Component for Network {
    fn component_name(&self) -> &'static str {
        "net"
    }

    fn stats_snapshot(&self) -> ComponentStats {
        let mut snap = ComponentStats::named("net")
            .counter("messages", self.messages)
            .counter("bytes", self.bytes)
            .gauge("p99_transit", self.transit.quantile(0.99).unwrap_or(0.0));
        for port in self.egress.iter().chain(self.ingress.iter()) {
            snap.children.push(port.stats_snapshot());
        }
        snap
    }

    fn reset_stats(&mut self) {
        Network::reset_stats(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(cfg: NetConfig) -> Network {
        Network::new(4, cfg)
    }

    #[test]
    fn no_contention_latency() {
        let mut net = n(NetConfig::default());
        // 144-byte data message: ser = ceil(144/16) = 9 per port.
        let t = net.send(0, NodeId(0), NodeId(1), 144);
        assert_eq!(t, 5 + 9 + 14 + 9 + 5);
        assert_eq!(net.messages(), 1);
        assert_eq!(net.bytes(), 144);
    }

    #[test]
    fn egress_contention_serializes() {
        let mut net = n(NetConfig::default());
        let a = net.send(0, NodeId(0), NodeId(1), 16);
        let b = net.send(0, NodeId(0), NodeId(2), 16);
        assert_eq!(b - a, 1); // second message waits one serialization slot
    }

    #[test]
    fn ingress_contention_serializes() {
        let mut net = n(NetConfig::default());
        let a = net.send(0, NodeId(0), NodeId(3), 160);
        let b = net.send(0, NodeId(1), NodeId(3), 160);
        assert!(b > a, "same-destination messages must queue at ingress");
    }

    #[test]
    fn same_pair_fifo_order() {
        let mut net = n(NetConfig::default());
        let mut last = 0;
        for i in 0..10 {
            let t = net.send(i, NodeId(2), NodeId(0), 144);
            assert!(t > last, "delivery order must follow send order");
            last = t;
        }
    }

    #[test]
    fn slow_network_latency() {
        let mut net = n(NetConfig::slow());
        let t = net.send(0, NodeId(0), NodeId(1), 16);
        assert_eq!(t, 5 + 1 + 200 + 1 + 5);
    }

    #[test]
    fn stats_reset() {
        let mut net = n(NetConfig::default());
        net.send(0, NodeId(0), NodeId(1), 16);
        assert!(net.egress_utilization(NodeId(0), 10) > 0.0);
        assert_eq!(net.transit_histogram().count(), 1);
        net.reset_stats();
        assert_eq!(net.messages(), 0);
        assert_eq!(net.egress_utilization(NodeId(0), 10), 0.0);
        assert_eq!(net.transit_histogram().count(), 0);
    }

    #[test]
    fn min_delay_bounds_every_send() {
        for cfg in [NetConfig::default(), NetConfig::slow()] {
            let mut net = Network::new(4, cfg);
            let arrival = net.send(1000, NodeId(0), NodeId(1), 8);
            assert_eq!(
                arrival - 1000,
                cfg.min_delay(),
                "8-byte control message is minimal"
            );
            let arrival = net.send(5000, NodeId(1), NodeId(2), 144);
            assert!(arrival - 5000 >= cfg.min_delay());
        }
    }

    #[test]
    fn transit_histogram_records_end_to_end_times() {
        let mut net = n(NetConfig::default());
        let a = net.send(0, NodeId(0), NodeId(1), 16); // uncontended
        let _b = net.send(0, NodeId(0), NodeId(1), 16); // queues at egress
        let h = net.transit_histogram();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(a)); // first message left at time 0
        assert!(h.max().unwrap() > a);
    }
}
