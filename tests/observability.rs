//! Observability determinism and trace-schema tests.
//!
//! The observability layer's contract is that it *observes*: two runs of
//! the same seed-deterministic simulation must produce bit-identical
//! histograms, timelines, and exported traces, and the Chrome
//! `trace_event` document must be well-formed (parseable, monotone
//! timestamps per track) so Perfetto loads it.

use std::collections::BTreeMap;

use ccn_harness::Json;
use ccn_workloads::suite::SuiteApp;
use ccnuma::experiments::{config_for, ConfigMods, Options};
use ccnuma::{Architecture, Machine};

/// One instrumented reference run: sampler + flight recorder on.
fn observed_run() -> Machine {
    let opts = Options::quick();
    let app = SuiteApp::OceanBase;
    let cfg = config_for(app, Architecture::Hwc, opts, ConfigMods::default());
    let instance = app.instantiate(opts.scale);
    let mut machine = Machine::new(cfg, instance.as_ref()).expect("valid config");
    machine.enable_sampler(1000);
    machine.enable_flight_recorder(1 << 20);
    machine.run();
    machine
}

#[test]
fn identical_seeds_produce_identical_histograms_and_timelines() {
    let a = observed_run();
    let b = observed_run();

    // Histogram buckets are bit-identical, down to every report field.
    let ra = a.component_stats();
    let rb = b.component_stats();
    assert_eq!(ra.render(), rb.render(), "component stats diverged");

    // The timeline JSON (times + every series column) is byte-identical.
    let ta = a.timeline().expect("sampler on").to_json().render_pretty();
    let tb = b.timeline().expect("sampler on").to_json().render_pretty();
    assert_eq!(ta, tb, "timelines diverged between identical-seed runs");
    assert!(
        !a.timeline().unwrap().is_empty(),
        "measured phase was sampled"
    );

    // The exported Chrome trace is byte-identical too.
    assert_eq!(
        a.chrome_trace().render_pretty(),
        b.chrome_trace().render_pretty(),
        "trace exports diverged between identical-seed runs"
    );
}

#[test]
fn report_histograms_are_deterministic_and_consistent() {
    let run = |_: u32| {
        let opts = Options::quick();
        let cfg = config_for(
            SuiteApp::OceanBase,
            Architecture::Ppc,
            opts,
            ConfigMods::default(),
        );
        let instance = SuiteApp::OceanBase.instantiate(opts.scale);
        Machine::new(cfg, instance.as_ref()).unwrap().run()
    };
    let a = run(0);
    let b = run(1);
    assert_eq!(a.miss_latency_hist, b.miss_latency_hist);
    assert_eq!(a.cc_queue_delay_hist, b.cc_queue_delay_hist);
    assert_eq!(a.net_transit_hist, b.net_transit_hist);
    // The histogram's exact aggregates back the report's scalar summary.
    assert_eq!(
        a.miss_latency_ns.0,
        ccn_sim::cycles_to_ns(1) * a.miss_latency_hist.mean()
    );
    assert_eq!(
        a.miss_latency_ns.1,
        ccn_sim::cycles_to_ns(1) * a.miss_latency_hist.max().unwrap_or(0) as f64
    );
    // Per-node distributions partition the machine-wide ones.
    let node_total: u64 = a.nodes.iter().map(|n| n.miss_latency_hist.count()).sum();
    assert_eq!(node_total, a.miss_latency_hist.count());
}

#[test]
fn exported_trace_is_wellformed_with_monotone_timestamps_per_track() {
    let machine = observed_run();
    let doc = machine.chrome_trace();

    // The document round-trips through the JSON parser.
    let text = doc.render_pretty();
    let parsed = ccn_harness::json::parse(&text).expect("trace is valid JSON");
    assert_eq!(
        parsed.get("displayTimeUnit").and_then(Json::as_str),
        Some("ns")
    );
    let events = match parsed.get("traceEvents").expect("traceEvents present") {
        Json::Arr(v) => v.clone(),
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty());

    let mut spans = 0usize;
    let mut flow_anchors = 0usize;
    let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> = Default::default();
    for ev in &events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .expect("every event has ph");
        let pid = ev
            .get("pid")
            .and_then(Json::as_u64)
            .expect("every event has pid");
        match ph {
            "M" => {
                assert!(ev.get("name").is_some() && ev.get("args").is_some());
            }
            // Transaction flow arrows: start, step, finish anchors bound
            // to the handler spans they link.
            "s" | "t" | "f" => {
                flow_anchors += 1;
                assert_eq!(ev.get("cat").and_then(Json::as_str), Some("txn"));
                assert!(ev.get("id").and_then(Json::as_u64).is_some());
                assert!(ev.get("ts").and_then(Json::as_f64).is_some());
                if ph == "f" {
                    // Binding point "enclosing slice" so the arrow ends
                    // at the span rather than the next one.
                    assert_eq!(ev.get("bp").and_then(Json::as_str), Some("e"));
                }
            }
            "X" => {
                spans += 1;
                let tid = ev.get("tid").and_then(Json::as_u64).expect("X has tid");
                let ts = ev.get("ts").and_then(Json::as_f64).expect("X has ts");
                let dur = ev.get("dur").and_then(Json::as_f64).expect("X has dur");
                assert!(ts >= 0.0 && dur >= 0.0);
                // Timestamps are monotone non-decreasing per (pid, tid)
                // track — the property Perfetto's importer relies on.
                if let Some(prev) = last_ts.insert((pid, tid), ts) {
                    assert!(
                        prev <= ts,
                        "track ({pid},{tid}) went backwards: {prev} > {ts}"
                    );
                }
            }
            "C" => {
                assert!(ev.get("ts").and_then(Json::as_f64).is_some());
                assert!(matches!(ev.get("args"), Some(Json::Obj(_))));
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    // One span per hop the recorder retains: transaction hops and
    // hop-only records alike.
    let recorder = machine.flight().expect("recorder on");
    assert_eq!(
        spans,
        recorder.spans().count(),
        "every retained hop exported"
    );
    assert!(
        recorder.hop_only().count() > 0,
        "reference run has hop-only records"
    );
    // Every retained multi-hop transaction contributes one anchor per
    // hop; single-hop transactions have nothing to link.
    let expected_anchors: usize = recorder
        .completed()
        .map(|r| recorder.hops(r).len())
        .filter(|&n| n >= 2)
        .sum();
    assert_eq!(flow_anchors, expected_anchors, "every hop chain exported");
    assert!(
        flow_anchors > 0,
        "reference run has cross-node transactions"
    );
    // Spans carry the engine attribution: every tid maps to a declared
    // thread_name metadata record.
    let named: std::collections::BTreeSet<(u64, u64)> = events
        .iter()
        .filter(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("name").and_then(Json::as_str) == Some("thread_name")
        })
        .map(|e| {
            (
                e.get("pid").and_then(Json::as_u64).unwrap(),
                e.get("tid").and_then(Json::as_u64).unwrap(),
            )
        })
        .collect();
    for track in last_ts.keys() {
        assert!(named.contains(track), "span track {track:?} is unnamed");
    }
}

#[test]
fn flight_decomposition_sums_exactly_and_reconciles_with_histograms() {
    let opts = Options::quick();
    let app = SuiteApp::OceanBase;
    let cfg = config_for(app, Architecture::TwoPpc, opts, ConfigMods::default());
    let instance = app.instantiate(opts.scale);
    let mut machine = Machine::new(cfg.clone(), instance.as_ref()).expect("valid config");
    machine.enable_flight_recorder(1 << 20);
    let report = machine.run();
    let recorder = machine.flight().expect("recorder on");

    // The tentpole contract: every explained transaction's component
    // cycles sum EXACTLY to its recorded miss latency — no residue, no
    // double counting.
    let mut checked = 0u64;
    for rec in recorder.completed() {
        assert_eq!(
            rec.components_sum(),
            rec.latency(),
            "{} decomposition does not telescope to its latency",
            rec.id
        );
        checked += 1;
    }
    assert!(checked > 0, "reference run completed transactions");

    // The recorder agrees with the independently recorded miss-latency
    // histogram: same population, same total cycles.
    let blame = recorder.blame();
    assert_eq!(blame.transactions, report.miss_latency_hist.count());
    assert_eq!(
        u128::from(blame.total_cycles),
        report.miss_latency_hist.sum()
    );
    assert_eq!(
        blame.component_cycles.iter().sum::<u64>(),
        blame.total_cycles
    );
    assert!(report.blame.is_some(), "instrumented report carries blame");

    // Strictly observational: the instrumented run's timing and
    // statistics are identical to a bare run's.
    let mut bare = Machine::new(cfg, instance.as_ref()).expect("valid config");
    let bare_report = bare.run();
    assert_eq!(report.exec_cycles, bare_report.exec_cycles);
    assert_eq!(report.miss_latency_hist, bare_report.miss_latency_hist);
    assert_eq!(report.cc_arrivals, bare_report.cc_arrivals);
    assert!(bare_report.blame.is_none(), "bare report has no blame");
}

#[test]
fn sparse_format_trace_is_identical_across_thread_counts() {
    // A sparse directory small enough to force recalls (the `sparse:8`
    // case of `recorder_spans_cover_every_measured_handler` checks that
    // the run produces their invalidation spans). Each simulation owns
    // its state, so the export must be byte-identical whether one run has
    // the process to itself or two runs share it on separate host
    // threads, as sweep workers do.
    let run = || {
        let opts = Options::quick()
            .with_dir_format(ccn_protocol::DirFormat::parse("sparse:8").expect("valid format"));
        let app = SuiteApp::OceanBase;
        let cfg = config_for(app, Architecture::Hwc, opts, ConfigMods::default());
        let instance = app.instantiate(opts.scale);
        let mut machine = Machine::new(cfg, instance.as_ref()).expect("valid config");
        machine.enable_flight_recorder(1 << 20);
        machine.run();
        machine.chrome_trace().render_pretty()
    };
    let lone = run();
    let concurrent: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2).map(|_| s.spawn(run)).collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (i, trace) in concurrent.iter().enumerate() {
        assert!(
            lone == *trace,
            "sparse-format export of concurrent run {i} diverged from the lone run"
        );
    }
}

/// Runs `app` on `cfg` with a recorder ring large enough to drop
/// nothing, checks that the recorder holds exactly one span per measured
/// handler execution, and returns the machine and its handler counts.
fn assert_spans_match_handler_counts(
    name: &str,
    cfg: ccnuma::SystemConfig,
    app: &dyn ccn_workloads::Application,
) -> (Machine, Vec<(String, u64)>) {
    let mut machine = Machine::new(cfg, app).expect("valid config");
    machine.enable_flight_recorder(1 << 20);
    let report = machine.run();
    let recorder = machine.flight().expect("recorder on");
    assert_eq!(
        (recorder.dropped(), recorder.hop_only_dropped()),
        (0, 0),
        "{name}: the ring must not drop"
    );
    let mut spans: BTreeMap<&str, u64> = BTreeMap::new();
    for (_, hop) in recorder.spans() {
        *spans.entry(hop.handler).or_default() += 1;
    }
    let counts: BTreeMap<&str, u64> = report
        .handler_counts
        .iter()
        .map(|(label, n)| (label.as_str(), *n))
        .collect();
    assert_eq!(spans, counts, "{name}");
    (machine, report.handler_counts)
}

#[test]
fn recorder_spans_cover_every_measured_handler() {
    let opts = Options::quick();
    let ocean = SuiteApp::OceanBase.instantiate(opts.scale);
    for arch in Architecture::all() {
        let cfg = config_for(SuiteApp::OceanBase, arch, opts, ConfigMods::default());
        assert_spans_match_handler_counts(arch.name(), cfg, ocean.as_ref());
    }
    // Sparse-directory recalls: their invalidations and acks serve no
    // live transaction, so they exercise the hop-only ring.
    let sparse = opts.with_dir_format(ccn_protocol::DirFormat::parse("sparse:8").unwrap());
    let cfg = config_for(
        SuiteApp::OceanBase,
        Architecture::Hwc,
        sparse,
        ConfigMods::default(),
    );
    let (sparse_run, _) = assert_spans_match_handler_counts("sparse:8", cfg, ocean.as_ref());
    // The sparse run actually exercised the recall path: its pressure
    // shows up as invalidation-request spans at the sharers.
    assert!(
        sparse_run
            .flight()
            .unwrap()
            .spans()
            .any(|(_, hop)| hop.handler.contains("invalidation request")),
        "sparse:8 run produced no invalidation spans"
    );
    let kv = ccn_scenario::Scenario::new(ccn_bench::golden::kv_mix_spec());
    let cfg = ccn_scenario::scenario_config(Architecture::Ppc, 4, 2);
    assert_spans_match_handler_counts("kv-mix 4x2", cfg, &kv);
    // Without the direct data path, dirty remote evictions run a
    // handler keyed to no transaction at the evicting node.
    let mut cfg = config_for(
        SuiteApp::OceanBase,
        Architecture::Hwc,
        opts,
        ConfigMods::default(),
    );
    cfg.direct_data_path = false;
    let evictions = ccn_workloads::micro::UniformSharing {
        region_bytes: 4 * 1024 * 1024,
        touches_per_proc: 4_000,
        write_percent: 40,
        work: 6,
        seed: 11,
    };
    let (_, counts) = assert_spans_match_handler_counts("no direct path", cfg, &evictions);
    assert!(
        counts
            .iter()
            .any(|(label, n)| label.contains("no direct path") && *n > 0),
        "the ablation ran no-direct-path write-backs: {counts:?}"
    );
}

#[test]
fn sweep_sidecars_are_identical_across_worker_counts() {
    use ccnuma::sweep::{RunKey, Runner};
    let opts = Options::quick();
    let keys = [
        RunKey::new(SuiteApp::OceanBase, Architecture::Hwc),
        RunKey::new(SuiteApp::OceanBase, Architecture::TwoPpc),
    ];
    let base = std::env::temp_dir().join(format!("ccn-obs-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let read_all = |dir: &std::path::Path| -> Vec<(String, String)> {
        keys.iter()
            .map(|k| {
                let p = ccn_obs::sidecar_path(dir, &k.id(opts));
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read_to_string(&p).expect("sidecar written"),
                )
            })
            .collect()
    };
    let d1 = base.join("serial");
    Runner::sequential(opts)
        .with_metrics_dir(&d1)
        .with_blame(1 << 16)
        .run(&keys);
    let d2 = base.join("parallel");
    Runner::parallel(opts, 4)
        .with_progress(false)
        .with_metrics_dir(&d2)
        .with_blame(1 << 16)
        .run(&keys);
    assert_eq!(read_all(&d1), read_all(&d2));
    // Sidecar payloads carry recoverable histograms, declare the schema
    // version the reader demands, and (with blame on) an exact
    // per-component decomposition of the run's miss cycles.
    for k in &keys {
        let json = ccn_obs::read_sidecar(&d1, &k.id(opts)).expect("versioned sidecar reads back");
        let h = ccn_obs::histogram_from_json(json.get("miss_latency").unwrap())
            .expect("well-formed histogram");
        assert!(h.count() > 0, "reference run misses were recorded");
        let blame = json.get("blame").expect("blame summary present");
        assert_eq!(
            blame.get("transactions").and_then(Json::as_u64),
            Some(h.count()),
            "blame population matches the miss histogram"
        );
    }
    std::fs::remove_dir_all(&base).unwrap();
}
