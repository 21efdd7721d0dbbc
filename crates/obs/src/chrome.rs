//! Chrome `trace_event` JSON export.
//!
//! Builds the "JSON Array Format with metadata" that `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev) load directly: complete
//! (`"ph": "X"`) duration events for protocol-handler executions, counter
//! (`"ph": "C"`) events for sampled time series, and metadata
//! (`"ph": "M"`) events naming processes and threads. Processes map to
//! simulated nodes and threads to protocol engines, so a loaded trace
//! shows one swimlane per engine with handler occupancy laid out on the
//! simulated clock.
//!
//! Timestamps are microseconds (the format's unit); the conversion from
//! CPU cycles is a fixed multiply, so equal cycle counts always render as
//! equal timestamps and export is deterministic. Events are emitted
//! sorted by `(pid, tid, ts)`, which makes per-track timestamps monotone
//! — the property the trace-schema test checks.

use ccn_harness::Json;
use ccn_sim::Cycle;
use std::collections::BTreeMap;

/// Converts CPU cycles to `trace_event` microseconds (5 ns per cycle).
pub fn cycles_to_us(cycles: Cycle) -> f64 {
    ccn_sim::cycles_to_ns(cycles) / 1000.0
}

#[derive(Debug, Clone)]
struct Span {
    pid: u64,
    tid: u64,
    ts: Cycle,
    dur: Cycle,
    name: String,
    cat: &'static str,
    args: Vec<(&'static str, Json)>,
}

#[derive(Debug, Clone)]
struct Counter {
    pid: u64,
    ts: Cycle,
    name: String,
    values: Vec<(String, f64)>,
}

#[derive(Debug, Clone)]
struct Flow {
    id: u64,
    name: String,
    /// `(pid, tid, ts)` anchors, in causal order.
    points: Vec<(u64, u64, Cycle)>,
}

/// Accumulates simulation events and renders them as one Chrome
/// `trace_event` JSON document.
///
/// ```
/// let mut trace = ccn_obs::ChromeTrace::new();
/// trace.set_process_name(0, "node0");
/// trace.set_thread_name(0, 1, "engine1.RPE");
/// trace.add_span((0, 1), "remote read", "handler", 100, 26, vec![]);
/// let json = trace.into_json();
/// assert!(json.get("traceEvents").is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    spans: Vec<Span>,
    counters: Vec<Counter>,
    flows: Vec<Flow>,
    process_names: BTreeMap<u64, String>,
    thread_names: BTreeMap<(u64, u64), String>,
    other_data: BTreeMap<String, Json>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Names the track group for `pid` (one per simulated node).
    pub fn set_process_name(&mut self, pid: u64, name: impl Into<String>) {
        self.process_names.insert(pid, name.into());
    }

    /// Names the track for `(pid, tid)` (one per protocol engine).
    pub fn set_thread_name(&mut self, pid: u64, tid: u64, name: impl Into<String>) {
        self.thread_names.insert((pid, tid), name.into());
    }

    /// Adds a complete (`"X"`) event: a handler execution of `dur` cycles
    /// starting at cycle `ts` on `track` `(pid, tid)`, with optional
    /// `args` shown in the inspector pane.
    pub fn add_span(
        &mut self,
        track: (u64, u64),
        name: impl Into<String>,
        cat: &'static str,
        ts: Cycle,
        dur: Cycle,
        args: Vec<(&'static str, Json)>,
    ) {
        self.spans.push(Span {
            pid: track.0,
            tid: track.1,
            ts,
            dur,
            name: name.into(),
            cat,
            args,
        });
    }

    /// Adds a counter (`"C"`) event: the sampled `values` of counter
    /// track `name` under process `pid` at cycle `ts`. Perfetto renders
    /// each value key as one stacked band.
    pub fn add_counter(
        &mut self,
        pid: u64,
        name: impl Into<String>,
        ts: Cycle,
        values: Vec<(String, f64)>,
    ) {
        self.counters.push(Counter {
            pid,
            ts,
            name: name.into(),
            values,
        });
    }

    /// Adds a flow (`"s"`/`"t"`/`"f"` chain) linking the given
    /// `(pid, tid, ts)` anchors in causal order — the arrows tracing one
    /// transaction across node/engine tracks. Flows with fewer than two
    /// anchors have nothing to link and are dropped.
    pub fn add_flow(&mut self, id: u64, name: impl Into<String>, points: Vec<(u64, u64, Cycle)>) {
        if points.len() < 2 {
            return;
        }
        self.flows.push(Flow {
            id,
            name: name.into(),
            points,
        });
    }

    /// Sets one entry of the document's top-level `otherData` metadata
    /// object (e.g. the flight recorder's dropped-record counts).
    pub fn set_other_data(&mut self, key: impl Into<String>, value: Json) {
        self.other_data.insert(key.into(), value);
    }

    /// Renders the trace as a `trace_event` JSON document: metadata
    /// first, then spans sorted by `(pid, tid, ts, dur)`, then counters
    /// sorted by `(pid, name, ts)`. The sort is stable, so insertion
    /// order breaks remaining ties deterministically.
    pub fn into_json(self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        for (pid, name) in &self.process_names {
            events.push(Json::obj([
                ("ph", Json::Str("M".into())),
                ("pid", Json::UInt(*pid)),
                ("name", Json::Str("process_name".into())),
                ("args", Json::obj([("name", Json::Str(name.clone()))])),
            ]));
        }
        for ((pid, tid), name) in &self.thread_names {
            events.push(Json::obj([
                ("ph", Json::Str("M".into())),
                ("pid", Json::UInt(*pid)),
                ("tid", Json::UInt(*tid)),
                ("name", Json::Str("thread_name".into())),
                ("args", Json::obj([("name", Json::Str(name.clone()))])),
            ]));
        }
        let mut spans = self.spans;
        spans.sort_by_key(|a| (a.pid, a.tid, a.ts, a.dur));
        for s in spans {
            let mut obj = vec![
                ("ph", Json::Str("X".into())),
                ("pid", Json::UInt(s.pid)),
                ("tid", Json::UInt(s.tid)),
                ("name", Json::Str(s.name)),
                ("cat", Json::Str(s.cat.into())),
                ("ts", Json::Num(cycles_to_us(s.ts))),
                ("dur", Json::Num(cycles_to_us(s.dur))),
            ];
            if !s.args.is_empty() {
                obj.push(("args", Json::obj(s.args)));
            }
            events.push(Json::obj(obj));
        }
        let mut flows = self.flows;
        flows.sort_by(|a, b| a.id.cmp(&b.id).then_with(|| a.name.cmp(&b.name)));
        for f in flows {
            let last = f.points.len() - 1;
            for (i, (pid, tid, ts)) in f.points.into_iter().enumerate() {
                let ph = match i {
                    0 => "s",
                    _ if i == last => "f",
                    _ => "t",
                };
                let mut obj = vec![
                    ("ph", Json::Str(ph.into())),
                    ("pid", Json::UInt(pid)),
                    ("tid", Json::UInt(tid)),
                    ("name", Json::Str(f.name.clone())),
                    ("cat", Json::Str("txn".into())),
                    ("id", Json::UInt(f.id)),
                    ("ts", Json::Num(cycles_to_us(ts))),
                ];
                if ph == "f" {
                    // Bind the terminating arrow to the enclosing slice.
                    obj.push(("bp", Json::Str("e".into())));
                }
                events.push(Json::obj(obj));
            }
        }
        let mut counters = self.counters;
        counters
            .sort_by(|a, b| (a.pid, a.name.as_str(), a.ts).cmp(&(b.pid, b.name.as_str(), b.ts)));
        for c in counters {
            events.push(Json::obj([
                ("ph", Json::Str("C".into())),
                ("pid", Json::UInt(c.pid)),
                ("name", Json::Str(c.name)),
                ("ts", Json::Num(cycles_to_us(c.ts))),
                (
                    "args",
                    Json::Obj(
                        c.values
                            .into_iter()
                            .map(|(k, v)| (k, Json::Num(v)))
                            .collect(),
                    ),
                ),
            ]));
        }
        let mut doc = vec![
            ("displayTimeUnit", Json::Str("ns".into())),
            ("traceEvents", Json::Arr(events)),
        ];
        if !self.other_data.is_empty() {
            doc.push((
                "otherData",
                Json::Obj(self.other_data.into_iter().collect()),
            ));
        }
        Json::obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_to_us_conversion() {
        assert_eq!(cycles_to_us(0), 0.0);
        assert_eq!(cycles_to_us(200), 1.0); // 200 cycles = 1000 ns = 1 µs
        assert_eq!(cycles_to_us(26), 0.13);
    }

    fn events(j: &Json) -> Vec<Json> {
        match j.get("traceEvents").unwrap() {
            Json::Arr(v) => v.clone(),
            _ => panic!("traceEvents must be an array"),
        }
    }

    #[test]
    fn spans_sorted_monotone_per_track() {
        let mut t = ChromeTrace::new();
        // Inserted out of order across two tracks.
        t.add_span((0, 1), "b", "handler", 500, 10, vec![]);
        t.add_span((0, 0), "a", "handler", 300, 10, vec![]);
        t.add_span((0, 1), "c", "handler", 100, 10, vec![]);
        let evs = events(&t.into_json());
        let xs: Vec<(u64, u64, f64)> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .map(|e| {
                (
                    e.get("pid").unwrap().as_u64().unwrap(),
                    e.get("tid").unwrap().as_u64().unwrap(),
                    e.get("ts").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        assert_eq!(xs.len(), 3);
        for w in xs.windows(2) {
            assert!(w[0].0 < w[1].0 || w[0].1 < w[1].1 || w[0].2 <= w[1].2);
        }
    }

    #[test]
    fn metadata_and_counters_render() {
        let mut t = ChromeTrace::new();
        t.set_process_name(2, "node2");
        t.set_thread_name(2, 0, "engine0.PE");
        t.add_counter(2, "queue_depth", 100, vec![("cc".into(), 3.0)]);
        let j = t.into_json();
        let evs = events(&j);
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].get("ph").unwrap().as_str(), Some("M"));
        let c = evs.last().unwrap();
        assert_eq!(c.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(
            c.get("args").unwrap().get("cc").unwrap().as_f64(),
            Some(3.0)
        );
        // The document parses back as JSON.
        ccn_harness::json::parse(&j.to_string()).unwrap();
    }

    #[test]
    fn flows_render_start_step_finish() {
        let mut t = ChromeTrace::new();
        t.add_flow(7, "P0#3", vec![(0, 0, 10), (1, 0, 40), (0, 0, 90)]);
        // Too short to link anything: dropped, so only the first flow's
        // three events render.
        t.add_flow(8, "P1#0", vec![(0, 0, 5)]);
        let evs = events(&t.into_json());
        let phs: Vec<&str> = evs
            .iter()
            .filter_map(|e| e.get("ph").and_then(Json::as_str))
            .collect();
        assert_eq!(phs, ["s", "t", "f"]);
        let finish = evs.last().unwrap();
        assert_eq!(finish.get("bp").and_then(Json::as_str), Some("e"));
        assert_eq!(finish.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(finish.get("cat").and_then(Json::as_str), Some("txn"));
    }

    #[test]
    fn other_data_appears_only_when_set() {
        let bare = ChromeTrace::new().into_json();
        assert!(bare.get("otherData").is_none());
        let mut t = ChromeTrace::new();
        t.set_other_data("flight_dropped", Json::UInt(12));
        let j = t.into_json();
        assert_eq!(
            j.get("otherData")
                .unwrap()
                .get("flight_dropped")
                .unwrap()
                .as_u64(),
            Some(12)
        );
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let mut t = ChromeTrace::new();
            t.set_process_name(0, "node0");
            t.add_span(
                (0, 0),
                "read",
                "handler",
                10,
                20,
                vec![("line", Json::UInt(64))],
            );
            t.add_span((0, 0), "write", "handler", 40, 18, vec![]);
            t.into_json().render_pretty()
        };
        assert_eq!(build(), build());
    }
}
