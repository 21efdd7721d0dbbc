//! `repro bench` — std-only micro/macro benchmarks of the simulator's hot
//! path, with a JSON artifact (`BENCH_sim.json`) and a regression gate.
//!
//! Four cases, from narrow to broad:
//!
//! * `event_queue_churn` — hold-model churn on [`ccn_sim::EventQueue`]:
//!   a steady pending population with near-future jitter plus a tail of
//!   far-future events, the access pattern the machine model produces.
//! * `cache_probe_storm` — hot/cold probe mix on
//!   [`ccn_mem::SetAssocCache`] with fills and evictions.
//! * `directory_handler_mix` — a protocol-legal request/ack/write-back
//!   script against [`ccn_protocol::directory::Directory`].
//! * `end_to_end_reference` — one full Ocean/HWC simulation, the
//!   reference sweep unit every table and figure is built from.
//!
//! Throughput is reported as events (or operations) per second, keeping
//! each case's best sample over several passes (see [`run_bench`]); the
//! artifact also records wall-clock seconds and peak RSS. A checked-in
//! baseline (`--baseline FILE`) turns the run into a smoke-level
//! regression gate: the run fails if any case loses more than 25% of its
//! baseline throughput. Baselines are machine-dependent — re-bless by
//! copying a fresh `BENCH_sim.json` when the runner class changes.

use std::time::Instant;

use ccn_harness::Json;
use ccn_mem::{AccessKind, CacheGeometry, LineAddr, LineState, NodeId, SetAssocCache};
use ccn_protocol::directory::{DirOutcome, DirRequest, DirRequestKind, Directory};
use ccn_sim::{EventQueue, SplitMix64};
use ccn_workloads::suite::SuiteApp;
use ccnuma::experiments::{config_for, ConfigMods, Options};
use ccnuma::{Architecture, Machine};

/// One benchmark case's measurement.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// Case name (stable key in the JSON artifact).
    pub name: &'static str,
    /// Unit of work counted (`"events"` or `"ops"`).
    pub unit: &'static str,
    /// Total units of work performed.
    pub work: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Heap allocations observed inside the measured phase, when the
    /// case runs under the allocation gate (the end-to-end reference
    /// case only). `None` for ungated cases.
    pub measured_allocs: Option<u64>,
}

impl CaseResult {
    /// Work units per second.
    pub fn per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.work as f64 / self.secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("unit", Json::Str(self.unit.to_string())),
            ("work", Json::UInt(self.work)),
            ("secs", Json::Num(self.secs)),
            ("per_sec", Json::Num(self.per_sec())),
        ];
        if let Some(allocs) = self.measured_allocs {
            fields.push(("measured_allocs", Json::UInt(allocs)));
        }
        Json::obj(fields)
    }
}

/// The full benchmark report.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `"quick"` or `"full"`.
    pub mode: &'static str,
    /// Source revision (git describe).
    pub revision: String,
    /// Per-case measurements.
    pub cases: Vec<CaseResult>,
    /// Peak resident set size in bytes, if the platform exposes it.
    pub peak_rss_bytes: Option<u64>,
}

impl BenchReport {
    /// Serializes the report (the `BENCH_sim.json` schema, version 1).
    pub fn to_json(&self) -> Json {
        let cases = self
            .cases
            .iter()
            .map(|c| (c.name, c.to_json()))
            .collect::<Vec<_>>();
        Json::obj([
            ("schema", Json::UInt(1)),
            ("mode", Json::Str(self.mode.to_string())),
            ("revision", Json::Str(self.revision.clone())),
            ("cases", Json::obj(cases)),
            (
                "peak_rss_bytes",
                match self.peak_rss_bytes {
                    Some(b) => Json::UInt(b),
                    None => Json::Null,
                },
            ),
        ])
    }

    /// Human-readable table for the console.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "benchmarks ({} mode):", self.mode);
        for c in &self.cases {
            let _ = write!(
                out,
                "  {:<24} {:>12} {} in {:>8.3}s  ->  {:>12.0} {}/s",
                c.name,
                c.work,
                c.unit,
                c.secs,
                c.per_sec(),
                c.unit
            );
            let _ = match c.measured_allocs {
                Some(a) => writeln!(out, "  [{a} allocs in measured phase]"),
                None => writeln!(out),
            };
        }
        if let Some(rss) = self.peak_rss_bytes {
            let _ = writeln!(out, "  peak RSS: {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
        }
        out
    }

    /// Compares this report against a baseline artifact, failing any case
    /// whose throughput dropped by more than `tolerance` (e.g. `0.25`).
    /// Cases missing from the baseline are skipped. Returns the list of
    /// per-case verdict lines and whether everything passed.
    pub fn check_against(&self, baseline: &Json, tolerance: f64) -> (Vec<String>, bool) {
        let mut lines = Vec::new();
        let mut ok = true;
        for c in &self.cases {
            if let Some(allocs) = c.measured_allocs {
                let pass = allocs == 0;
                if !pass {
                    ok = false;
                }
                lines.push(format!(
                    "  [{}] {}: {} allocations in measured phase (gate: 0)",
                    if pass { "PASS" } else { "FAIL" },
                    c.name,
                    allocs,
                ));
            }
            let Some(base) = baseline
                .get("cases")
                .and_then(|cs| cs.get(c.name))
                .and_then(|b| b.get("per_sec"))
                .and_then(Json::as_f64)
            else {
                lines.push(format!("  [SKIP] {}: no baseline entry", c.name));
                continue;
            };
            let floor = base * (1.0 - tolerance);
            let now = c.per_sec();
            let pass = now >= floor;
            if !pass {
                ok = false;
            }
            lines.push(format!(
                "  [{}] {}: {:.0} {}/s vs baseline {:.0} (floor {:.0})",
                if pass { "PASS" } else { "FAIL" },
                c.name,
                now,
                c.unit,
                base,
                floor,
            ));
        }
        (lines, ok)
    }
}

/// Runs every benchmark case. `quick` shrinks the work so the whole suite
/// finishes in a few seconds (the CI smoke gate); the full mode sizes the
/// cases for stable numbers. `obs` runs the end-to-end case with the
/// observability layer on (stats-spine sampler + flight recorder), so a
/// baseline gate bounds the overhead of observing.
///
/// Each case is sampled once per pass over the whole list, and the best
/// sample is kept. On a shared runner, interference only ever *subtracts*
/// throughput and arrives in bursts longer than one case, so the maximum
/// of samples spaced a full pass apart is the least-contaminated estimate
/// of what the code can do — the right statistic to hold against a
/// regression floor. A real regression lowers every sample alike.
pub fn run_bench(quick: bool, obs: bool, revision: &str) -> BenchReport {
    const PASSES: u32 = 3;
    let mut cases: Vec<CaseResult> = Vec::new();
    for pass in 0..PASSES {
        let sample = vec![
            bench_event_queue(if quick { 2_000_000 } else { 10_000_000 }),
            bench_cache_probes(if quick { 2_000_000 } else { 16_000_000 }),
            bench_directory(if quick { 300_000 } else { 1_500_000 }),
            bench_end_to_end(quick, obs),
        ];
        if pass == 0 {
            cases = sample;
        } else {
            for (best, next) in cases.iter_mut().zip(sample) {
                if next.per_sec() > best.per_sec() {
                    *best = next;
                }
            }
        }
    }
    BenchReport {
        mode: match (quick, obs) {
            (true, false) => "quick",
            (true, true) => "quick+obs",
            (false, false) => "full",
            (false, true) => "full+obs",
        },
        revision: revision.to_string(),
        cases,
        peak_rss_bytes: peak_rss_bytes(),
    }
}

/// Hold-model event-queue churn: a steady population of pending events,
/// each pop scheduling a replacement a short jitter ahead — plus a 1/64
/// tail of far-future events so the far/near split is exercised.
fn bench_event_queue(pops: u64) -> CaseResult {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(4096);
    let mut rng = SplitMix64::new(0xB_EC);
    for i in 0..4096u64 {
        q.schedule(1 + rng.next_below(512), i);
    }
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..pops {
        let (t, id) = q.pop().expect("population is steady");
        acc = acc.wrapping_add(t ^ id);
        let jitter = if id % 64 == 0 {
            10_000 + rng.next_below(90_000)
        } else {
            1 + rng.next_below(480)
        };
        q.schedule(t + jitter, id);
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    CaseResult {
        name: "event_queue_churn",
        unit: "events",
        work: pops,
        secs,
        measured_allocs: None,
    }
}

/// Cache probe storm: the paper's L2 geometry, a hot set that mostly hits
/// and a cold tail that misses, fills, and evicts.
fn bench_cache_probes(accesses: u64) -> CaseResult {
    let mut cache = SetAssocCache::new(CacheGeometry::l2(128));
    let mut rng = SplitMix64::new(0xCAC4E);
    let hot = 4096u64;
    let cold = 65_536u64;
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..accesses {
        let line = if rng.next_below(10) < 9 {
            LineAddr(rng.next_below(hot))
        } else {
            LineAddr(hot + rng.next_below(cold))
        };
        let kind = if i % 4 == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let state = cache.access(line, kind);
        if state == LineState::Invalid {
            let fill_state = if kind == AccessKind::Write {
                LineState::Modified
            } else {
                LineState::Shared
            };
            if let Some(ev) = cache.fill(line, fill_state, i) {
                acc = acc.wrapping_add(ev.line.0);
            }
        } else if kind == AccessKind::Write && !state.writable() {
            cache.set_state(line, LineState::Modified);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box((acc, cache.resident_lines()));
    CaseResult {
        measured_allocs: None,
        name: "cache_probe_storm",
        unit: "ops",
        work: accesses,
        secs,
    }
}

/// Directory handler mix: per line, a protocol-legal script of reads
/// building a sharer set, a read-exclusive collecting invalidation acks,
/// and the owner's write-back — the home-side handler sequence the paper's
/// Table 4 rows are built from. `rounds` counts script executions; the
/// reported work counts directory operations.
fn bench_directory(rounds: u64) -> CaseResult {
    let mut dir = Directory::with_capacity(NodeId(0), 4096);
    let lines = 4096u64;
    let r1 = NodeId(1);
    let r2 = NodeId(2);
    let r3 = NodeId(3);
    let start = Instant::now();
    let mut ops = 0u64;
    for i in 0..rounds {
        let line = LineAddr(i % lines);
        // Two readers build a sharer set.
        let _ = dir.request(line, req(DirRequestKind::Read, r1));
        let _ = dir.request(line, req(DirRequestKind::Read, r2));
        // A third node takes the line exclusive; both sharers ack.
        let out = dir.request(line, req(DirRequestKind::ReadExcl, r3));
        debug_assert!(matches!(out, DirOutcome::Act(_)));
        let _ = dir.inv_ack(line);
        let _ = dir.inv_ack(line);
        // The owner writes the line back; the directory is idle again.
        let _ = dir.writeback(line, r3);
        ops += 6;
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(dir.buffered_requests());
    CaseResult {
        measured_allocs: None,
        name: "directory_handler_mix",
        unit: "ops",
        work: ops,
        secs,
    }
}

fn req(kind: DirRequestKind, requester: NodeId) -> DirRequest {
    DirRequest { kind, requester }
}

/// One full reference simulation: Ocean on the HWC architecture — quick
/// scale for the smoke gate, the default reproduction scale otherwise.
/// Throughput is simulation events per wall-clock second. With `obs`,
/// the run carries the full observability load: the stats-spine sampler
/// and the transaction flight recorder, which records every handler
/// span.
fn bench_end_to_end(quick: bool, obs: bool) -> CaseResult {
    let opts = if quick {
        Options::quick()
    } else {
        Options::repro()
    };
    let app = SuiteApp::OceanBase;
    let cfg = config_for(app, Architecture::Hwc, opts, ConfigMods::default());
    let instance = app.instantiate(opts.scale);
    let mut machine = Machine::new(cfg, instance.as_ref()).expect("bench config is valid");
    if obs {
        machine.enable_sampler(if quick { 500 } else { 10_000 });
        machine.enable_flight_recorder(1 << 16);
    }
    // Arm the allocation gate: the machine starts counting when it
    // resets statistics for the measured phase and stops when the event
    // loop drains, so the count below covers exactly the steady state.
    // The observability variant keeps the gate off — the recorder's
    // rings and the sampler's timeline grow by design.
    if !obs {
        ccn_sim::alloc_gate::request();
    }
    let start = Instant::now();
    let report = machine.run();
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(report.exec_cycles);
    let measured_allocs = if obs {
        None
    } else {
        Some(ccn_sim::alloc_gate::counts().0)
    };
    if std::env::var_os("BENCH_DEBUG").is_some() {
        eprintln!(
            "[bench-debug] end_to_end max pending events: {}",
            machine.max_pending_events()
        );
    }
    if obs {
        std::hint::black_box((
            machine.timeline().map(|t| t.len()),
            machine.flight().map(|f| f.transactions()),
        ));
    }
    CaseResult {
        name: "end_to_end_reference",
        unit: "events",
        work: machine.events_scheduled(),
        secs,
        measured_allocs,
    }
}

/// Peak resident set size of this process in bytes (Linux `VmHWM`;
/// `None` elsewhere).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_produce_positive_throughput() {
        // Tiny work sizes: this is a smoke test of the harness, not a
        // measurement.
        let c = bench_event_queue(10_000);
        assert_eq!(c.work, 10_000);
        assert!(c.per_sec() > 0.0);
        let c = bench_cache_probes(10_000);
        assert!(c.per_sec() > 0.0);
        let c = bench_directory(1_000);
        assert_eq!(c.work, 6_000);
        assert!(c.per_sec() > 0.0);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            mode: "quick",
            revision: "test".into(),
            cases: vec![CaseResult {
                name: "event_queue_churn",
                unit: "events",
                work: 100,
                secs: 0.5,
                measured_allocs: None,
            }],
            peak_rss_bytes: Some(1024),
        };
        let text = report.to_json().render_pretty();
        let back = ccn_harness::json::parse(&text).unwrap();
        assert_eq!(
            back.get("cases")
                .and_then(|c| c.get("event_queue_churn"))
                .and_then(|c| c.get("per_sec"))
                .and_then(Json::as_f64),
            Some(200.0)
        );
    }

    #[test]
    fn baseline_gate_passes_and_fails() {
        let report = BenchReport {
            mode: "quick",
            revision: "test".into(),
            cases: vec![CaseResult {
                name: "event_queue_churn",
                unit: "events",
                work: 1000,
                secs: 1.0, // 1000/s
                measured_allocs: None,
            }],
            peak_rss_bytes: None,
        };
        let fast_baseline =
            ccn_harness::json::parse(r#"{"cases":{"event_queue_churn":{"per_sec": 2000.0}}}"#)
                .unwrap();
        let (_, ok) = report.check_against(&fast_baseline, 0.25);
        assert!(!ok, "half the baseline throughput must fail a 25% gate");
        let slow_baseline =
            ccn_harness::json::parse(r#"{"cases":{"event_queue_churn":{"per_sec": 1100.0}}}"#)
                .unwrap();
        let (lines, ok) = report.check_against(&slow_baseline, 0.25);
        assert!(ok, "a <25% dip must pass: {lines:?}");
        let (lines, ok) = report.check_against(&Json::Null, 0.25);
        assert!(ok, "no baseline entries -> all skipped");
        assert!(lines[0].contains("SKIP"));
    }
}
