//! Simulation results: the statistics the paper's tables are built from.

use ccn_sim::{cycles_to_ns, stats::rate_per_us, Cycle, Histogram};

/// Per-engine summary inside a [`NodeReport`] (Table 7 uses the LPE/RPE
/// split).
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// "LPE" or "RPE" for two-engine controllers; "PE" for one.
    pub role: &'static str,
    /// Requests that arrived at this engine.
    pub arrivals: u64,
    /// Handlers executed.
    pub handled: u64,
    /// Total handler occupancy in cycles.
    pub occupancy: Cycle,
    /// Mean queueing delay in nanoseconds.
    pub queue_delay_ns: f64,
    /// Arrivals per class: \[net responses, net requests, bus requests\].
    pub class_arrivals: [u64; 3],
}

impl EngineReport {
    /// Utilization over the measured execution time.
    pub fn utilization(&self, exec_cycles: Cycle) -> f64 {
        if exec_cycles == 0 {
            0.0
        } else {
            self.occupancy as f64 / exec_cycles as f64
        }
    }
}

/// Per-node coherence-controller statistics.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Requests that arrived at this node's controller.
    pub arrivals: u64,
    /// Handlers executed.
    pub handled: u64,
    /// Total handler occupancy in cycles.
    pub occupancy: Cycle,
    /// Mean queueing delay in nanoseconds.
    pub queue_delay_ns: f64,
    /// Full queueing-delay distribution (cycles) across this node's
    /// engines.
    pub queue_delay_hist: Histogram,
    /// Full L2 miss latency distribution (cycles) for this node's
    /// processors.
    pub miss_latency_hist: Histogram,
    /// Per-engine breakdown (one entry for HWC/PPC, two for 2HWC/2PPC).
    pub engines: Vec<EngineReport>,
}

/// The result of one simulation run: everything Tables 6 and 7 and the
/// figures need.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Human-readable architecture label (HWC/PPC/2HWC/2PPC).
    pub architecture: String,
    /// Workload label.
    pub workload: String,
    /// Execution time of the measured (parallel) phase, in CPU cycles.
    pub exec_cycles: Cycle,
    /// Total instructions executed in the measured phase.
    pub instructions: u64,
    /// Requests to all coherence controllers in the measured phase.
    pub cc_arrivals: u64,
    /// Handlers executed in the measured phase.
    pub cc_handled: u64,
    /// Total controller occupancy (sum over nodes/engines), in cycles.
    pub cc_occupancy: Cycle,
    /// Mean controller queueing delay in nanoseconds.
    pub queue_delay_ns: f64,
    /// Per-node breakdown.
    pub nodes: Vec<NodeReport>,
    /// L2 misses across all processors (measured phase).
    pub l2_misses: u64,
    /// Total memory references (measured phase).
    pub references: u64,
    /// Network messages sent (measured phase).
    pub messages: u64,
    /// Barrier episodes completed.
    pub barriers: u64,
    /// Lock acquisitions `(total, contended)`.
    pub locks: (u64, u64),
    /// Handlers executed by kind, most frequent first.
    pub handler_counts: Vec<(String, u64)>,
    /// End-to-end L2 miss latency `(mean, max)` in nanoseconds.
    pub miss_latency_ns: (f64, f64),
    /// Machine-wide L2 miss latency distribution, in cycles. Its exact
    /// mean and max back `miss_latency_ns`; percentiles come from the
    /// log2 buckets.
    pub miss_latency_hist: Histogram,
    /// Controller queueing-delay distribution (cycles), merged across all
    /// nodes and engines.
    pub cc_queue_delay_hist: Histogram,
    /// Network end-to-end transit-time distribution (cycles).
    pub net_transit_hist: Histogram,
    /// Directory-cache hit ratio across all home controllers.
    pub dir_cache_hit_ratio: f64,
    /// Invalidation requests that found no cached copy (stale directory
    /// bits caused by silent clean evictions).
    pub useless_invalidations: u64,
    /// Coefficient of variation of request inter-arrival times at the
    /// controllers (1 ≈ Poisson; larger = bursty, the paper's explanation
    /// for FFT's outsized queueing delay).
    pub arrival_cv: f64,
    /// Machine-wide per-component miss-cycle blame decomposition (`None`
    /// unless the transaction flight recorder was enabled; see
    /// [`Machine::enable_flight_recorder`](crate::Machine::enable_flight_recorder)).
    pub blame: Option<ccn_obs::BlameSummary>,
}

impl SimReport {
    /// Requests to coherence controllers per instruction — the paper's
    /// RCCPI application-characterization metric.
    pub fn rccpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cc_arrivals as f64 / self.instructions as f64
        }
    }

    /// Average controller utilization: mean over nodes of
    /// occupancy / execution time (Table 6's "average utilization").
    pub fn avg_utilization(&self) -> f64 {
        if self.nodes.is_empty() || self.exec_cycles == 0 {
            return 0.0;
        }
        let total: f64 = self
            .nodes
            .iter()
            .map(|n| n.occupancy as f64 / self.exec_cycles as f64)
            .sum();
        total / self.nodes.len() as f64
    }

    /// Mean utilization of the engine with `role` across nodes (Table 7).
    pub fn avg_engine_utilization(&self, role: &str) -> f64 {
        let mut sum = 0.0;
        let mut n = 0;
        for node in &self.nodes {
            for e in &node.engines {
                if e.role == role {
                    sum += e.utilization(self.exec_cycles);
                    n += 1;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Fraction of requests handled by the engine with `role` (Table 7's
    /// request distribution).
    pub fn engine_request_share(&self, role: &str) -> f64 {
        let mut matching = 0u64;
        let mut total = 0u64;
        for node in &self.nodes {
            for e in &node.engines {
                total += e.arrivals;
                if e.role == role {
                    matching += e.arrivals;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            matching as f64 / total as f64
        }
    }

    /// Mean queueing delay in nanoseconds of the engine with `role`.
    pub fn engine_queue_delay_ns(&self, role: &str) -> f64 {
        let mut sum = 0.0;
        let mut n = 0u64;
        for node in &self.nodes {
            for e in &node.engines {
                if e.role == role && e.handled > 0 {
                    sum += e.queue_delay_ns * e.handled as f64;
                    n += e.handled;
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean request arrival rate per controller, in requests per
    /// microsecond (Table 6's rightmost columns).
    pub fn arrival_rate_per_us(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let per_cc = self.cc_arrivals as f64 / self.nodes.len() as f64;
        rate_per_us(per_cc.round() as u64, self.exec_cycles)
    }

    /// Execution time in microseconds.
    pub fn exec_us(&self) -> f64 {
        cycles_to_ns(self.exec_cycles) / 1000.0
    }

    /// L2 miss ratio over all references.
    pub fn l2_miss_ratio(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.references as f64
        }
    }
}

impl SimReport {
    /// Renders a human-readable multi-section summary: headline numbers,
    /// the per-node controller table, and the handler mix.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} on {}: {} cycles ({:.1} us), {} instructions, RCCPI {:.2}e-3",
            self.workload,
            self.architecture,
            self.exec_cycles,
            self.exec_us(),
            self.instructions,
            self.rccpi() * 1000.0
        );
        let _ = writeln!(
            out,
            "controllers: {} requests, avg utilization {:.1}%, avg queue {:.0} ns, {} messages, {} L2 misses ({:.2}% of references)",
            self.cc_arrivals,
            self.avg_utilization() * 100.0,
            self.queue_delay_ns,
            self.messages,
            self.l2_misses,
            self.l2_miss_ratio() * 100.0
        );
        let ns = cycles_to_ns(1);
        let _ = writeln!(
            out,
            "miss latency: mean {:.0} ns, p50 {:.0} ns, p90 {:.0} ns, p99 {:.0} ns, max {:.0} ns; arrival burstiness CV {:.2}",
            self.miss_latency_ns.0,
            ns * self.miss_latency_hist.quantile(0.50).unwrap_or(0.0),
            ns * self.miss_latency_hist.quantile(0.90).unwrap_or(0.0),
            ns * self.miss_latency_hist.quantile(0.99).unwrap_or(0.0),
            self.miss_latency_ns.1,
            self.arrival_cv
        );
        let _ = writeln!(
            out,
            "queueing: controller p99 {:.0} ns, network transit p99 {:.0} ns",
            ns * self.cc_queue_delay_hist.quantile(0.99).unwrap_or(0.0),
            ns * self.net_transit_hist.quantile(0.99).unwrap_or(0.0)
        );
        let mut nodes = crate::tables::TextTable::new(vec![
            "node",
            "arrivals",
            "handled",
            "utilization",
            "queue (ns)",
        ]);
        for (i, n) in self.nodes.iter().enumerate() {
            nodes.row(vec![
                i.to_string(),
                n.arrivals.to_string(),
                n.handled.to_string(),
                crate::tables::pct(if self.exec_cycles == 0 {
                    0.0
                } else {
                    n.occupancy as f64 / self.exec_cycles as f64
                }),
                crate::tables::num(n.queue_delay_ns, 0),
            ]);
        }
        let _ = writeln!(out, "{}", nodes.render());
        if !self.handler_counts.is_empty() {
            let mut mix = crate::tables::TextTable::new(vec!["handler", "count"])
                .with_title("handler mix (top 10)");
            for (name, count) in self.handler_counts.iter().take(10) {
                mix.row(vec![name.clone(), count.to_string()]);
            }
            let _ = writeln!(out, "{}", mix.render());
        }
        out
    }
}

/// The increase in execution time of `slow` relative to `fast` — the
/// paper's "PP penalty" when comparing PPC against HWC.
///
/// ```
/// assert_eq!(ccnuma::report::penalty(100, 193), 0.93);
/// ```
pub fn penalty(fast_cycles: Cycle, slow_cycles: Cycle) -> f64 {
    if fast_cycles == 0 {
        return 0.0;
    }
    (slow_cycles as f64 - fast_cycles as f64) / fast_cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(role: &'static str, arrivals: u64, occupancy: Cycle) -> EngineReport {
        EngineReport {
            role,
            arrivals,
            handled: arrivals,
            occupancy,
            queue_delay_ns: 100.0,
            class_arrivals: [0, 0, arrivals],
        }
    }

    fn report() -> SimReport {
        SimReport {
            architecture: "2HWC".into(),
            workload: "test".into(),
            exec_cycles: 1000,
            instructions: 10_000,
            cc_arrivals: 40,
            cc_handled: 40,
            cc_occupancy: 400,
            queue_delay_ns: 100.0,
            nodes: vec![
                NodeReport {
                    arrivals: 20,
                    handled: 20,
                    occupancy: 200,
                    queue_delay_ns: 100.0,
                    queue_delay_hist: Histogram::new(),
                    miss_latency_hist: Histogram::new(),
                    engines: vec![engine("LPE", 5, 150), engine("RPE", 15, 50)],
                },
                NodeReport {
                    arrivals: 20,
                    handled: 20,
                    occupancy: 200,
                    queue_delay_ns: 100.0,
                    queue_delay_hist: Histogram::new(),
                    miss_latency_hist: Histogram::new(),
                    engines: vec![engine("LPE", 10, 100), engine("RPE", 10, 100)],
                },
            ],
            l2_misses: 15,
            references: 5_000,
            messages: 60,
            barriers: 2,
            locks: (4, 1),
            handler_counts: Vec::new(),
            miss_latency_ns: (0.0, 0.0),
            miss_latency_hist: Histogram::new(),
            cc_queue_delay_hist: Histogram::new(),
            net_transit_hist: Histogram::new(),
            dir_cache_hit_ratio: 0.0,
            useless_invalidations: 0,
            arrival_cv: 0.0,
            blame: None,
        }
    }

    #[test]
    fn rccpi_is_requests_per_instruction() {
        assert!((report().rccpi() - 0.004).abs() < 1e-12);
    }

    #[test]
    fn avg_utilization_means_over_nodes() {
        assert!((report().avg_utilization() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn engine_views() {
        let r = report();
        assert!((r.avg_engine_utilization("LPE") - 0.125).abs() < 1e-12);
        assert!((r.engine_request_share("RPE") - 25.0 / 40.0).abs() < 1e-12);
        assert!((r.engine_queue_delay_ns("LPE") - 100.0).abs() < 1e-9);
    }

    #[test]
    fn arrival_rate_per_controller() {
        // 20 arrivals per CC over 1000 cycles (5 µs) = 4 per µs.
        assert!((report().arrival_rate_per_us() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn summary_renders_all_sections() {
        let r = report();
        let s = r.render_summary();
        assert!(s.contains("2HWC"));
        assert!(s.contains("controllers:"));
        assert!(s.contains("node"));
        assert!(s.contains("p99"));
    }

    #[test]
    fn summary_shows_histogram_percentiles() {
        let mut r = report();
        for c in [100u64, 200, 400, 4000] {
            r.miss_latency_hist.record(c);
        }
        let s = r.render_summary();
        // p50 of the recorded cycles is within [100, 4000] cycles, i.e.
        // [500, 20000] ns; the line renders some nonzero value.
        assert!(s.contains("miss latency: mean"));
        assert!(s.contains("queueing: controller p99"));
    }

    #[test]
    fn penalty_matches_paper_definition() {
        assert!((penalty(100, 152) - 0.52).abs() < 1e-12);
        assert_eq!(penalty(0, 10), 0.0);
    }
}
