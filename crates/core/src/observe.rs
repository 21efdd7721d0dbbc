//! Observability exports: Chrome traces and per-run metrics payloads.
//!
//! This module bridges the machine's raw observability state — the
//! [`FlightRecorder`](ccn_obs::FlightRecorder)'s handler hops, the
//! sampled component [`Timeline`](ccn_obs::Timeline), and the latency
//! histograms carried by [`SimReport`] — into the serialized artifacts
//! the `repro` binary writes: a Perfetto-loadable `trace_event` JSON
//! document and the metrics sidecars a sweep drops next to its
//! checkpoints.
//!
//! Everything here reads completed simulation state; nothing feeds back
//! into timing, so enabling export cannot perturb a run.

use ccn_harness::Json;
use ccn_obs::{histogram_to_json, ChromeTrace};

use crate::machine::Machine;
use crate::report::SimReport;

impl Machine {
    /// Exports the flight recorder's handler executions and the sampled
    /// timeline as one Chrome `trace_event` JSON document.
    ///
    /// Processes map to nodes and threads to protocol engines, so
    /// Perfetto shows one swimlane per engine with handler executions
    /// laid out on the simulated clock: one span per hop the recorder
    /// retains, from the measured phase. Flow arrows link each retained
    /// transaction's hops. If a sampler was enabled, each node's
    /// controller `queue_depth` series becomes a counter track.
    ///
    /// Call after [`run`](Machine::run); combine with
    /// [`enable_flight_recorder`](Machine::enable_flight_recorder) (and
    /// optionally [`enable_sampler`](Machine::enable_sampler)) before it.
    pub fn chrome_trace(&self) -> Json {
        let mut trace = ChromeTrace::new();
        for (i, node) in self.nodes.iter().enumerate() {
            trace.set_process_name(i as u64, format!("node{i}"));
            for e in 0..node.cc.engines() {
                let role = node.cc.policy().role_label(e);
                trace.set_thread_name(i as u64, e as u64, format!("engine{e}.{role}"));
            }
        }
        if let Some(recorder) = self.flight() {
            for (line, hop) in recorder.spans() {
                trace.add_span(
                    (u64::from(hop.at_node), u64::from(hop.engine)),
                    hop.handler,
                    "handler",
                    hop.time,
                    hop.occupancy,
                    vec![("line", Json::UInt(line))],
                );
            }
            // Ring health travels in the document header, so a viewer
            // (or the trace artifact's reader) sees truncation at a
            // glance.
            trace.set_other_data("flight_dropped", Json::UInt(recorder.dropped()));
            trace.set_other_data("hop_only_dropped", Json::UInt(recorder.hop_only_dropped()));
            // Flow arrows link each transaction's handler spans across
            // node/engine tracks, in hop order; single-hop transactions
            // have nothing to link and are skipped by `add_flow`.
            for rec in recorder.completed() {
                let id = (u64::from(rec.id.proc) << 32) | u64::from(rec.id.seq);
                trace.add_flow(
                    id,
                    rec.id.to_string(),
                    recorder
                        .hops(rec)
                        .iter()
                        .map(|h| (u64::from(h.at_node), u64::from(h.engine), h.time))
                        .collect(),
                );
            }
        }
        if let Some(timeline) = self.timeline() {
            let keys: Vec<(String, &str)> = timeline
                .series_keys()
                .filter(|&(_, metric, _)| metric == "queue_depth")
                .map(|(path, metric, _)| (path.to_string(), metric))
                .collect();
            for (path, metric) in keys {
                // Only the controller-level total per node, not the
                // per-engine children: one counter track per node.
                let Some(node_idx) = controller_node_index(&path) else {
                    continue;
                };
                let Some(values) = timeline.counter_series(&path, metric) else {
                    continue;
                };
                for (&t, &v) in timeline.times().iter().zip(values) {
                    trace.add_counter(
                        node_idx as u64,
                        "cc queue_depth",
                        t,
                        vec![("depth".to_string(), v as f64)],
                    );
                }
            }
        }
        trace.into_json()
    }
}

/// Parses the node index out of a controller-level spine path
/// (`"machine/node3/cc"` → `Some(3)`); deeper or unrelated paths return
/// `None`.
fn controller_node_index(path: &str) -> Option<usize> {
    let rest = path.strip_prefix("machine/node")?;
    let (idx, tail) = rest.split_once('/')?;
    (tail == "cc").then(|| idx.parse().ok())?
}

/// The per-run metrics payload written as a sweep sidecar: the full
/// latency distributions behind the report's scalar summaries, in the
/// deterministic JSON histogram form.
pub fn report_metrics(report: &SimReport) -> Json {
    let mut fields = vec![
        (
            "schema_version",
            Json::UInt(ccn_obs::SIDECAR_SCHEMA_VERSION),
        ),
        ("architecture", Json::Str(report.architecture.clone())),
        ("workload", Json::Str(report.workload.clone())),
        ("exec_cycles", Json::UInt(report.exec_cycles)),
        ("miss_latency", histogram_to_json(&report.miss_latency_hist)),
        (
            "cc_queue_delay",
            histogram_to_json(&report.cc_queue_delay_hist),
        ),
        ("net_transit", histogram_to_json(&report.net_transit_hist)),
        (
            "nodes",
            Json::Arr(
                report
                    .nodes
                    .iter()
                    .map(|n| {
                        Json::obj([
                            ("queue_delay", histogram_to_json(&n.queue_delay_hist)),
                            ("miss_latency", histogram_to_json(&n.miss_latency_hist)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(blame) = &report.blame {
        fields.push(("blame", blame.to_json()));
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_paths_parse() {
        assert_eq!(controller_node_index("machine/node0/cc"), Some(0));
        assert_eq!(controller_node_index("machine/node12/cc"), Some(12));
        assert_eq!(controller_node_index("machine/node0/cc/engine0.PE"), None);
        assert_eq!(controller_node_index("machine/node0/bus"), None);
        assert_eq!(controller_node_index("machine/net"), None);
    }

    #[test]
    fn metrics_payload_round_trips_histograms() {
        use ccn_workloads::micro::PrivateCompute;
        let mut machine =
            Machine::new(crate::SystemConfig::small(), &PrivateCompute::default()).unwrap();
        let report = machine.run();
        let payload = report_metrics(&report);
        let back = ccn_obs::histogram_from_json(payload.get("miss_latency").unwrap()).unwrap();
        assert_eq!(back, report.miss_latency_hist);
        // The payload parses back from its rendered text.
        ccn_harness::json::parse(&payload.render_pretty()).unwrap();
    }

    #[test]
    fn chrome_trace_exports_spans_per_engine() {
        use ccn_workloads::micro::UniformSharing;
        let mut machine =
            Machine::new(crate::SystemConfig::small(), &UniformSharing::default()).unwrap();
        machine.enable_flight_recorder(1 << 16);
        machine.enable_sampler(500);
        machine.run();
        let j = machine.chrome_trace();
        let events = match j.get("traceEvents").unwrap() {
            Json::Arr(v) => v.clone(),
            _ => panic!("traceEvents must be an array"),
        };
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("X")));
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("M")));
        // Deterministic: a second export of the same machine is identical.
        assert_eq!(j.to_string(), machine.chrome_trace().to_string());
    }
}
