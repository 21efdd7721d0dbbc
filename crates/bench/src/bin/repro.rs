//! `repro` — regenerates every table and figure of
//! *Coherence Controller Architectures for SMP-Based CC-NUMA
//! Multiprocessors* (ISCA 1997).
//!
//! ```text
//! repro [--quick | --paper] [--jobs N] [--fresh] [--out DIR] <target>...
//!
//! targets: table1 table2 table3 table4 table5 table6 table7
//!          fig6 fig7 fig8 fig9 fig10 fig11 fig12
//!          ablations summary run stats trace explain validate verify
//!          golden all
//!
//! repro scenario list | check [SPEC...] | run SPEC... | record SPEC | replay FILE
//! ```
//!
//! `scenario` enters the declarative-workload frontend (`ccn-scenario`):
//! JSON specs describing typed traffic phases run across all four
//! architectures under the conformance digest envelope, and any
//! workload's access stream can be recorded to a binary trace and
//! replayed byte-for-byte. See `docs/SCENARIOS.md`.
//!
//! `run` simulates the reference workload (Ocean) on a machine of
//! arbitrary size and directory sharer representation: `--nodes N`
//! (64/256/1024 for the scaling study), `--dir-format
//! full|coarse:K|limited:I|sparse:S`, `--arch NAME` to narrow the
//! default four-architecture sweep. It reports execution time, RCCPI,
//! controller utilization/queueing, useless invalidations, and the
//! directory storage the format burns per entry. See `EXPERIMENTS.md`.
//!
//! `verify` runs the protocol verification suite: bounded exhaustive
//! model checking of the directory protocol (`--nodes N --lines L
//! --depth D`, optionally under the adversarial `--ordering pair-fifo`
//! network or with a seeded bug via `--mutate NAME`), a checker sanity
//! sweep that demands every seeded mutation be caught, and
//! cross-architecture differential conformance (`--conf-cases K`).
//! `golden` compares the deterministic anchor outputs against the
//! snapshots under `tests/golden/`; `golden --bless` regenerates them.
//! The simulator's host-time benchmark is not a target here: it is
//! perfbench (`perfbench/`), gated in CI against `ci/perf_floors.json`.
//! See `docs/PERF.md`.
//!
//! `stats` runs the reference simulation (Ocean on HWC) with the
//! stats-spine sampler enabled (`--sample-every N` cycles, default 1000)
//! and prints the end-of-run component tree; with `--timeline` it also
//! writes the sampled per-component time series as JSON under `--out`
//! (default `results/`). `trace` runs the same simulation with the
//! transaction flight recorder on and exports its measured-phase handler
//! spans, with flow arrows along each transaction's hops, as a Chrome
//! `trace_event` file loadable in Perfetto or `chrome://tracing` to the
//! same directory (`--ring-capacity N` sizes the recorder's two rings,
//! transactions and hop-only records; the artifact header carries both
//! dropped counts). Both JSON artifacts are deterministic: byte-identical
//! across reruns and worker counts.
//!
//! `explain` runs the same reference simulation with the transaction
//! flight recorder on (`--ring-capacity N` retained transactions) and
//! prints the `--top K` slowest misses — each with its causal hop chain
//! and an exact cycle decomposition into bus, queueing, occupancy,
//! network and protocol-stall components — followed by the machine-wide
//! blame table (per-component shares of all and of p99-tail miss
//! cycles). `--txn ID` explains one transaction by its stable id
//! (e.g. `P3#17`) instead. Output is byte-identical across reruns. See
//! `docs/OBSERVABILITY.md`.
//!
//! The default scale runs the full 16×4 machine with scaled-down data sets
//! (minutes); `--paper` uses the paper's Table 5 sizes (hours); `--quick`
//! runs a 4×2 machine with tiny data sets (seconds; for smoke-testing the
//! harness, not for numbers). With `--out DIR`, each target's output is
//! also written to `DIR/<target>_<scale>.txt`, stamped with the
//! configuration and source revision.
//!
//! Sweep targets (table6/7, the figures) run on a worker pool — `--jobs N`
//! sets the width (default: available parallelism) — and checkpoint each
//! completed simulation under `results/checkpoints/`. An interrupted
//! sweep resumes from its checkpoint; `--fresh` discards recorded results
//! first. Result tables are byte-identical for every `--jobs` value: all
//! timing-dependent telemetry goes to stderr. `--metrics DIR` drops a
//! per-run metrics sidecar (the full latency distributions) for every
//! simulated job; `--blame` additionally records each run's transaction
//! flight and stamps a per-component blame summary into the sidecar.
//!
//! An unknown `--flag`, or a `--jobs` value that is not a non-negative
//! integer, is a usage error (exit 2).

use std::fmt::Write as _;
use std::time::Instant;

use ccn_bench::{
    artifact_path, artifact_stamp, checkpoint_path, expand_targets, git_describe, golden,
    jobs_from_flags, options_from_flags, scale_name, sweep_name, unknown_flag, SWEEP_TARGETS,
    TARGETS,
};
use ccn_harness::{Json, SweepSummary};
use ccn_workloads::suite::SuiteApp;
use ccnuma::experiments::{self, Options};
use ccnuma::sweep::Runner;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The scenario frontend owns its whole argument list.
    if positional_targets(&args).first() == Some(&"scenario") {
        std::process::exit(ccn_bench::scenario_cli::run(&args));
    }
    if let Some(flag) = unknown_flag(&args, VALUE_FLAGS, SWITCHES) {
        eprintln!("unknown flag '{flag}'");
        std::process::exit(2);
    }
    let opts = options_from_flags(&args);
    let jobs = jobs_from_flags(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let fresh = args.iter().any(|a| a == "--fresh");
    let out_dir = flag_value(&args, "--out");
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("can create the output directory");
    }
    // "all" covers the paper's tables and figures; the extras
    // (ablations, summary, validate, verify, golden) run only when asked
    // for by name, and run beside it when named with it.
    let targets = expand_targets(&positional_targets(&args));
    for t in &targets {
        if !TARGETS.contains(t) {
            eprintln!("unknown target '{t}'; known targets: {TARGETS:?}");
            std::process::exit(2);
        }
    }
    let revision = git_describe();
    println!(
        "# ISCA'97 coherence-controller reproduction — {} on a {}x{} machine\n",
        scale_name(&opts),
        opts.nodes,
        opts.procs_per_node
    );
    let mut failed = false;
    let mut totals = Totals::default();
    for target in targets {
        let runner = sweep_runner(target, opts, jobs, &revision, fresh, &args);
        let start = Instant::now();
        let output = render_target(target, opts, jobs, &args, runner.as_ref(), &mut failed);
        print!("{output}");
        if let Some(dir) = &out_dir {
            let path = artifact_path(dir, target, &opts);
            let stamped = format!("{}{output}", artifact_stamp(target, &opts, &revision));
            std::fs::write(&path, stamped).expect("can write the target output");
        }
        if let Some(r) = &runner {
            totals.absorb(r);
        }
        eprintln!("[{target} took {:.1?}]", start.elapsed());
    }
    totals.report();
    if failed {
        std::process::exit(1);
    }
}

/// Extracts the value following a `--flag`.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Flags that take a value; their values are not targets.
const VALUE_FLAGS: &[&str] = &[
    "--out",
    "--jobs",
    "--depth",
    "--nodes",
    "--lines",
    "--mutate",
    "--ordering",
    "--conf-cases",
    "--sample-every",
    "--trace",
    "--arch",
    "--metrics",
    "--dir-format",
    "--ring-capacity",
    "--top",
    "--txn",
];

/// Flags that take no value.
const SWITCHES: &[&str] = &[
    "--quick",
    "--paper",
    "--fresh",
    "--timeline",
    "--blame",
    "--bless",
];

/// The non-flag arguments, with every value flag's value skipped.
fn positional_targets(args: &[String]) -> Vec<&str> {
    let mut targets = Vec::new();
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
            continue;
        }
        if !a.starts_with("--") {
            targets.push(a.as_str());
        }
    }
    targets
}

/// Parses a numeric `--flag N`, exiting with a usage error on garbage.
fn uint_flag(args: &[String], flag: &str, default: u64) -> u64 {
    match flag_value(args, flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} wants a non-negative integer, got '{v}'");
            std::process::exit(2);
        }),
    }
}

/// Builds the worker-pool runner for a sweep target (`None` for targets
/// that simulate nothing or run a single diagnostic).
fn sweep_runner(
    target: &str,
    opts: Options,
    jobs: usize,
    revision: &str,
    fresh: bool,
    args: &[String],
) -> Option<Runner> {
    if !SWEEP_TARGETS.contains(&target) {
        return None;
    }
    let sweep = sweep_name(target);
    let path = checkpoint_path(sweep, &opts);
    if fresh {
        let _ = std::fs::remove_file(&path);
    }
    let mut runner = Runner::parallel(opts, jobs)
        .with_checkpoint(path)
        .with_meta(vec![
            ("sweep", Json::Str(sweep.to_string())),
            ("revision", Json::Str(revision.to_string())),
        ]);
    // `--metrics DIR` drops a per-run metrics sidecar next to the
    // checkpoints; `--blame` additionally runs each simulation with the
    // flight recorder on so every sidecar carries a blame summary.
    if let Some(dir) = flag_value(args, "--metrics") {
        runner = runner.with_metrics_dir(dir);
    }
    if args.iter().any(|a| a == "--blame") {
        runner = runner.with_blame((uint_flag(args, "--ring-capacity", 1 << 20) as usize).max(1));
    }
    Some(runner)
}

/// Accumulated harness telemetry across every sweep target in one
/// invocation, reported once on stderr at the end.
#[derive(Default)]
struct Totals {
    executed: usize,
    skipped: usize,
    summary: Option<SweepSummary>,
}

impl Totals {
    fn absorb(&mut self, runner: &Runner) {
        let stats = runner.stats();
        self.executed += stats.executed;
        self.skipped += stats.skipped;
        if let Some(s) = stats.summary {
            match &mut self.summary {
                Some(total) => total.merge(&s),
                slot => *slot = Some(s),
            }
        }
    }

    fn report(&self) {
        if self.executed + self.skipped == 0 {
            return;
        }
        eprintln!(
            "[harness] {} simulation(s) executed, {} replayed from checkpoints",
            self.executed, self.skipped
        );
        if let Some(s) = &self.summary {
            eprint!("{}", s.render());
        }
    }
}

fn render_target(
    target: &str,
    opts: Options,
    jobs: usize,
    args: &[String],
    runner: Option<&Runner>,
    failed: &mut bool,
) -> String {
    let mut out = String::new();
    match target {
        "table1" => render(&mut out, experiments::table1().render()),
        "table2" => render(&mut out, experiments::table2().render()),
        "table3" => render(&mut out, experiments::table3().render()),
        "table4" => render(&mut out, experiments::table4().render()),
        "table5" => render(&mut out, experiments::table5().render()),
        "table6" => render(&mut out, experiments::table6_with(sweep(runner)).render()),
        "table7" => render(&mut out, experiments::table7_with(sweep(runner)).render()),
        "fig6" => render_figure(&mut out, experiments::fig6_with(sweep(runner))),
        "fig7" => render_figure(&mut out, experiments::fig7_with(sweep(runner))),
        "fig8" => render_figure(&mut out, experiments::fig8_with(sweep(runner))),
        "fig9" => render_figure(&mut out, experiments::fig9_with(sweep(runner))),
        "fig10" => {
            // The paper shows the sweep for the full suite; the four apps
            // spanning the communication range keep the default run short.
            let apps = [
                SuiteApp::Lu,
                SuiteApp::FftBase,
                SuiteApp::Radix,
                SuiteApp::OceanBase,
            ];
            for app in apps {
                render_figure(&mut out, experiments::fig10_with(sweep(runner), app));
            }
        }
        "fig11" => render(
            &mut out,
            experiments::scatter_with(sweep(runner)).render_fig11(),
        ),
        "fig12" => render(
            &mut out,
            experiments::scatter_with(sweep(runner)).render_fig12(),
        ),
        "summary" => {
            // Full per-run diagnostics for the headline comparison.
            use ccnuma::experiments::{run_one, ConfigMods};
            use ccnuma::Architecture;
            for arch in [Architecture::Hwc, Architecture::Ppc] {
                let report = run_one(SuiteApp::OceanBase, arch, opts, ConfigMods::default());
                render(&mut out, report.render_summary());
            }
        }
        "ablations" => {
            use ccnuma::ablations;
            render(
                &mut out,
                ablations::engine_scaling(SuiteApp::OceanBase, opts).render(),
            );
            render(
                &mut out,
                ablations::engine_scaling(SuiteApp::Radix, opts).render(),
            );
            render(
                &mut out,
                ablations::accelerated_pp(SuiteApp::OceanBase, opts).render(),
            );
            render(
                &mut out,
                ablations::accelerated_pp(SuiteApp::Radix, opts).render(),
            );
            render(
                &mut out,
                ablations::split_balance(SuiteApp::OceanBase, opts).render(),
            );
            render(&mut out, ablations::placement_policies(opts).render());
            render(
                &mut out,
                ablations::direct_data_path(SuiteApp::OceanBase, opts).render(),
            );
            render(
                &mut out,
                ablations::directory_cache(SuiteApp::OceanBase, opts).render(),
            );
            render(
                &mut out,
                ablations::replacement_hints(SuiteApp::FftBase, opts).render(),
            );
            render(&mut out, ablations::flash_conditions(opts).render());
        }
        "run" => {
            let (report, ok) = run_target(opts, args);
            render(&mut out, report);
            if !ok {
                *failed = true;
            }
        }
        "stats" => render(&mut out, run_stats_target(opts, args)),
        "trace" => render(&mut out, run_trace_target(opts, args)),
        "explain" => render(&mut out, run_explain_target(opts, args)),
        "validate" => {
            let (report, ok) = validate(opts);
            render(&mut out, report);
            if !ok {
                *failed = true;
            }
        }
        "verify" => {
            let (report, ok) = run_verify(opts, jobs, args);
            render(&mut out, report);
            if !ok {
                *failed = true;
            }
        }
        "golden" => {
            if args.iter().any(|a| a == "--bless") {
                render(&mut out, golden::bless_all());
            } else {
                let (report, ok) = golden::check_all();
                render(&mut out, report);
                if !ok {
                    *failed = true;
                }
            }
        }
        other => unreachable!("validated target {other}"),
    }
    out
}

/// Every sweep target is paired with a runner in `main`; anything else is
/// a wiring bug.
fn sweep(runner: Option<&Runner>) -> &Runner {
    runner.expect("sweep targets run with a harness runner")
}

fn render(out: &mut String, s: String) {
    let _ = writeln!(out, "{s}");
}

fn render_figure(out: &mut String, fig: ccnuma::experiments::Figure) {
    render(out, fig.render());
    render(out, fig.render_chart());
}

/// PASS/FAIL checks of the paper's quantitative anchors at the chosen
/// scale — a production-grade version of the integration tests.
fn validate(opts: Options) -> (String, bool) {
    use ccnuma::experiments::{run_one, ConfigMods};
    use ccnuma::{penalty, probe, Architecture, SystemConfig};
    let mut out = String::new();
    let mut failures = 0;
    let mut check = |out: &mut String, name: &str, ok: bool, detail: String| {
        let _ = writeln!(
            out,
            "[{}] {name}: {detail}",
            if ok { "PASS" } else { "FAIL" }
        );
        if !ok {
            failures += 1;
        }
    };

    let hwc_lat = probe::read_miss_breakdown(&SystemConfig::base(), false).total();
    check(
        &mut out,
        "table3 HWC read-miss latency = 142",
        hwc_lat == 142,
        format!("{hwc_lat} cycles"),
    );
    let ppc_lat = probe::read_miss_breakdown(
        &SystemConfig::base().with_architecture(Architecture::Ppc),
        false,
    )
    .total();
    check(
        &mut out,
        "table3 PPC read-miss latency near 212",
        (200..=216).contains(&ppc_lat),
        format!("{ppc_lat} cycles"),
    );

    let lo_hwc = run_one(SuiteApp::Lu, Architecture::Hwc, opts, ConfigMods::default());
    let lo_ppc = run_one(SuiteApp::Lu, Architecture::Ppc, opts, ConfigMods::default());
    let hi_hwc = run_one(
        SuiteApp::OceanBase,
        Architecture::Hwc,
        opts,
        ConfigMods::default(),
    );
    let hi_ppc = run_one(
        SuiteApp::OceanBase,
        Architecture::Ppc,
        opts,
        ConfigMods::default(),
    );
    let lo_pen = penalty(lo_hwc.exec_cycles, lo_ppc.exec_cycles);
    let hi_pen = penalty(hi_hwc.exec_cycles, hi_ppc.exec_cycles);
    check(
        &mut out,
        "Ocean penalty exceeds LU penalty",
        hi_pen > lo_pen,
        format!("Ocean {:.0}% vs LU {:.0}%", hi_pen * 100.0, lo_pen * 100.0),
    );
    check(
        &mut out,
        "Ocean RCCPI exceeds LU RCCPI",
        hi_hwc.rccpi() > lo_hwc.rccpi(),
        format!(
            "{:.2} vs {:.2} (x1000)",
            hi_hwc.rccpi() * 1000.0,
            lo_hwc.rccpi() * 1000.0
        ),
    );
    let occ_ratio = hi_ppc.cc_occupancy as f64 / hi_hwc.cc_occupancy as f64;
    check(
        &mut out,
        "PPC/HWC occupancy ratio near 2.5",
        (1.8..=3.6).contains(&occ_ratio),
        format!("{occ_ratio:.2}"),
    );
    let two = run_one(
        SuiteApp::OceanBase,
        Architecture::TwoPpc,
        opts,
        ConfigMods::default(),
    );
    check(
        &mut out,
        "second engine speeds up Ocean/PPC",
        two.exec_cycles < hi_ppc.exec_cycles,
        format!("{} vs {}", two.exec_cycles, hi_ppc.exec_cycles),
    );

    let ok = failures == 0;
    if ok {
        let _ = writeln!(out, "\nall anchors hold");
    } else {
        let _ = writeln!(out, "\n{failures} anchor(s) FAILED");
    }
    (out, ok)
}

/// Builds the observability reference machine: Ocean on HWC at the
/// selected scale, the same simulation the `summary` target starts with.
fn obs_machine(opts: Options) -> ccnuma::Machine {
    use ccnuma::experiments::{config_for, ConfigMods};
    use ccnuma::Architecture;
    let app = SuiteApp::OceanBase;
    let cfg = config_for(app, Architecture::Hwc, opts, ConfigMods::default());
    let instance = app.instantiate(opts.scale);
    ccnuma::Machine::new(cfg, instance.as_ref()).expect("reference config is valid")
}

/// Where the observability targets write their JSON artifacts: under
/// `--out` when given, `results/` otherwise. The files are deliberately
/// un-stamped (no revision header) so identical runs are byte-identical.
fn obs_artifact(args: &[String], name: &str, opts: Options) -> String {
    let dir = flag_value(args, "--out").unwrap_or_else(|| "results".into());
    std::fs::create_dir_all(&dir).expect("can create the output directory");
    format!("{dir}/{name}_{}.json", ccnuma::sweep::scale_tag(opts.scale))
}

/// The `run` target: the reference workload (Ocean) on a machine of
/// arbitrary size and directory sharer representation — the workhorse
/// of the scaling campaign in `EXPERIMENTS.md`. `--nodes N` overrides
/// the machine size, `--dir-format F` picks the sharer format, and
/// `--arch NAME` narrows the sweep to one architecture (default: all
/// four). A machine the selected format cannot track is rejected up
/// front with the configuration error naming the format and its limit.
fn run_target(opts: Options, args: &[String]) -> (String, bool) {
    use ccnuma::experiments::{config_for, ConfigMods};
    use ccnuma::Architecture;
    let mut out = String::new();
    let nodes = uint_flag(args, "--nodes", opts.nodes as u64) as usize;
    let format = match flag_value(args, "--dir-format") {
        None => opts.dir_format,
        Some(s) => match ccn_protocol::DirFormat::parse(&s) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
    };
    let mut opts = Options { nodes, ..opts }.with_dir_format(format);
    // The scaled data sets are tuned for the paper's 16-node machine;
    // simulating them on hundreds of nodes takes hours. Machines beyond
    // the paper's size drop to the tiny data sets — the scaling study
    // cares about trends, not absolute times — unless `--paper` insists.
    let shrunk = nodes > 16 && opts.scale == ccn_workloads::suite::Scale::Scaled;
    if shrunk {
        opts.scale = ccn_workloads::suite::Scale::Tiny;
    }
    let archs: Vec<Architecture> = match flag_value(args, "--arch") {
        None => Architecture::all().to_vec(),
        Some(name) => match Architecture::all()
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(&name))
        {
            Some(a) => vec![a],
            None => {
                eprintln!("unknown architecture '{name}'; expected HWC, PPC, 2HWC or 2PPC");
                std::process::exit(2);
            }
        },
    };
    let app = SuiteApp::OceanBase;
    // Validate before simulating, so an over-capacity machine surfaces
    // as the configuration error naming the format and its limit rather
    // than a panic deep inside machine construction.
    let cfg = config_for(app, archs[0], opts, ConfigMods::default());
    if let Err(e) = cfg.validate() {
        let _ = writeln!(out, "invalid machine: {e}");
        return (out, false);
    }
    let full_bpe = ccn_protocol::DirFormat::FullMap.bits_per_entry(cfg.nodes as u16);
    let bpe = format.bits_per_entry(cfg.nodes as u16);
    let _ = writeln!(
        out,
        "reference run: Ocean on a {}x{} machine, directory format {}",
        cfg.nodes,
        cfg.procs_per_node,
        format.label()
    );
    if shrunk {
        let _ = writeln!(
            out,
            "(machines past the paper's 16 nodes use the tiny data sets; --paper overrides)"
        );
    }
    let _ = writeln!(
        out,
        "directory storage: {bpe} bits/entry, {:.1}% of full-map's {full_bpe}",
        100.0 * bpe as f64 / full_bpe as f64
    );
    let _ = writeln!(
        out,
        "{:<6} {:>12} {:>10} {:>11} {:>6} {:>10} {:>13}",
        "arch", "cycles", "exec(us)", "RCCPI(e-3)", "util%", "queue(ns)", "useless-invs"
    );
    // The stock tiny grid is sized for tens of processors and stops
    // dividing the processor grid on hundreds; size it to the machine.
    let instance: Box<dyn ccn_workloads::Application> =
        if opts.scale == ccn_workloads::suite::Scale::Tiny {
            Box::new(ccn_bench::ocean_for(cfg.nodes * cfg.procs_per_node))
        } else {
            app.instantiate(opts.scale)
        };
    for arch in archs {
        let cfg = config_for(app, arch, opts, ConfigMods::default());
        let mut machine =
            ccnuma::Machine::new(cfg, instance.as_ref()).expect("configuration validated above");
        let report = machine.run();
        let _ = writeln!(
            out,
            "{:<6} {:>12} {:>10.1} {:>11.2} {:>6.1} {:>10.0} {:>13}",
            report.architecture,
            report.exec_cycles,
            report.exec_us(),
            report.rccpi() * 1000.0,
            report.avg_utilization() * 100.0,
            report.queue_delay_ns,
            report.useless_invalidations
        );
    }
    (out, true)
}

/// The `stats` target: the component stats spine with the cycle sampler
/// on; `--timeline` additionally dumps the columnar time series as JSON.
fn run_stats_target(opts: Options, args: &[String]) -> String {
    let every = uint_flag(args, "--sample-every", 1000);
    let mut machine = obs_machine(opts);
    machine.enable_sampler(every);
    machine.run();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "component stats: Ocean on HWC, sampled every {every} cycles"
    );
    render(&mut out, machine.component_stats().render());
    let timeline = machine.timeline().expect("sampler was enabled");
    let _ = writeln!(
        out,
        "timeline: {} sample(s) x {} series over the measured phase",
        timeline.len(),
        timeline.series_count()
    );
    if args.iter().any(|a| a == "--timeline") {
        let path = obs_artifact(args, "timeline", opts);
        std::fs::write(&path, timeline.to_json().render_pretty())
            .expect("can write the timeline artifact");
        let _ = writeln!(out, "wrote {path}");
    }
    out
}

/// The `trace` target: the reference simulation with the flight
/// recorder and the sampler on, exported as a Chrome `trace_event` JSON
/// document.
fn run_trace_target(opts: Options, args: &[String]) -> String {
    let every = uint_flag(args, "--sample-every", 1000);
    let capacity = (uint_flag(args, "--ring-capacity", 1 << 20) as usize).max(1);
    let mut machine = obs_machine(opts);
    machine.enable_flight_recorder(capacity);
    machine.enable_sampler(every);
    machine.run();
    let mut out = String::new();
    let path = obs_artifact(args, "trace", opts);
    std::fs::write(&path, machine.chrome_trace().render_pretty())
        .expect("can write the trace artifact");
    let recorder = machine.flight().expect("flight recorder was enabled");
    let (dropped, hop_only_dropped) = (recorder.dropped(), recorder.hop_only_dropped());
    let _ = writeln!(
        out,
        "trace: {} handler span(s) of the measured phase, {dropped} transaction(s) and \
         {hop_only_dropped} hop-only record(s) dropped; wrote {path}",
        recorder.spans().count()
    );
    if dropped + hop_only_dropped > 0 {
        let _ = writeln!(
            out,
            "warning: the recorder's rings overflowed; the export covers only the most recent records"
        );
    }
    let _ = writeln!(
        out,
        "load it at https://ui.perfetto.dev or chrome://tracing"
    );
    out
}

/// The `explain` target: the reference simulation with the transaction
/// flight recorder on. Prints the slowest misses with their causal hop
/// chains and exact cycle decompositions, then the machine-wide blame
/// table; `--txn ID` explains one transaction by id instead.
fn run_explain_target(opts: Options, args: &[String]) -> String {
    let top = (uint_flag(args, "--top", 5) as usize).max(1);
    let capacity = (uint_flag(args, "--ring-capacity", 1 << 20) as usize).max(1);
    let mut machine = obs_machine(opts);
    machine.enable_flight_recorder(capacity);
    machine.run();
    let recorder = machine.flight().expect("flight recorder was enabled");
    let blame = recorder.blame();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder: Ocean on HWC, {} transaction(s) completed ({} retained, {} dropped)",
        blame.transactions, blame.retained, blame.dropped
    );
    match flag_value(args, "--txn") {
        Some(spec) => {
            let Some(id) = ccn_obs::TxnId::parse(&spec) else {
                let _ = writeln!(out, "--txn wants an id like P3#17, got '{spec}'");
                return out;
            };
            match recorder.find(id) {
                Some(rec) => explain_txn(&mut out, recorder, rec),
                None => {
                    let _ = writeln!(out, "transaction {id} is not in the recorder ring");
                }
            }
        }
        None => {
            let _ = writeln!(out, "\nslowest {top} transaction(s):");
            for rec in recorder.slowest(top) {
                explain_txn(&mut out, recorder, rec);
            }
        }
    }
    render_blame(&mut out, &blame);
    out
}

/// One transaction's explanation: identity line, exact decomposition,
/// and the causal hop chain across node/engine tracks.
fn explain_txn(out: &mut String, recorder: &ccn_obs::FlightRecorder, rec: &ccn_obs::TxnRecord) {
    let latency = rec.latency();
    let _ = writeln!(
        out,
        "\n{}  {} of line {:#x} by node {}: cycles {}..{} = {} cycle(s)",
        rec.id, rec.op, rec.line, rec.node, rec.issue, rec.complete, latency
    );
    let parts: Vec<String> = ccn_obs::Category::ALL
        .iter()
        .filter_map(|cat| {
            let cycles = rec.components[cat.index()];
            (cycles > 0).then(|| {
                format!(
                    "{} {} ({:.1}%)",
                    cat.label(),
                    cycles,
                    100.0 * cycles as f64 / latency.max(1) as f64
                )
            })
        })
        .collect();
    let _ = writeln!(
        out,
        "  decomposition: {} = {} cycle(s)",
        parts.join(" + "),
        rec.components_sum()
    );
    for hop in recorder.hops(rec) {
        let _ = writeln!(
            out,
            "    @{:<10} node{:<4} engine{}  {:<44} [{}] {} cycle(s)",
            hop.time, hop.at_node, hop.engine, hop.handler, hop.phase, hop.occupancy
        );
    }
}

/// The machine-wide blame table: each component's share of all measured
/// miss cycles and of the p99 latency tail's cycles.
fn render_blame(out: &mut String, blame: &ccn_obs::BlameSummary) {
    let _ = writeln!(
        out,
        "\nblame: {} miss cycle(s) across {} retained transaction(s)",
        blame.total_cycles, blame.retained
    );
    if let Some(threshold) = blame.p99_threshold {
        let _ = writeln!(
            out,
            "p99 tail: transactions at >= {threshold} cycle(s), {} cycle(s) total",
            blame.tail_cycles
        );
    }
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>8} {:>14} {:>10}",
        "component", "cycles", "share", "tail cycles", "tail share"
    );
    for cat in ccn_obs::Category::ALL {
        let cycles = blame.component_cycles[cat.index()];
        let tail = blame.tail_component_cycles[cat.index()];
        let _ = writeln!(
            out,
            "{:<12} {:>14} {:>7.1}% {:>14} {:>9.1}%",
            cat.label(),
            cycles,
            100.0 * cycles as f64 / blame.total_cycles.max(1) as f64,
            tail,
            100.0 * tail as f64 / blame.tail_cycles.max(1) as f64
        );
    }
}

/// The `verify` target: bounded exhaustive model checking, a checker
/// sanity sweep over the seeded mutations, and cross-architecture
/// differential conformance.
fn run_verify(opts: Options, jobs: usize, args: &[String]) -> (String, bool) {
    use ccn_verify::{
        conformance_cases, explore, run_conformance, Bounds, ModelConfig, Mutation, Ordering,
    };
    let mut out = String::new();
    let mut ok = true;

    let (nodes, lines, depth) = match ccn_bench::model_bounds(
        uint_flag(args, "--nodes", 2),
        uint_flag(args, "--lines", 1),
        uint_flag(args, "--depth", u64::from(Bounds::default().depth)),
    ) {
        Ok(bounds) => bounds,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let format = match flag_value(args, "--dir-format") {
        None => ccn_protocol::DirFormat::FullMap,
        Some(s) => match ccn_protocol::DirFormat::parse(&s) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        },
    };
    let mutate = flag_value(args, "--mutate").unwrap_or_else(|| "none".to_string());
    let Some(mutation) = Mutation::parse(&mutate) else {
        let names: Vec<&str> = Mutation::ALL.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "unknown mutation '{mutate}'; known: none, {}",
            names.join(", ")
        );
        std::process::exit(2);
    };
    let ordering = match flag_value(args, "--ordering").as_deref() {
        None | Some("causal") => Ordering::Causal,
        Some("pair-fifo") => Ordering::PairFifo,
        Some(other) => {
            eprintln!("unknown ordering '{other}'; known: causal, pair-fifo");
            std::process::exit(2);
        }
    };
    let bounds = Bounds {
        depth,
        ..Bounds::default()
    };
    let cfg = ModelConfig {
        nodes,
        lines,
        ordering,
        mutation,
        format,
        ..ModelConfig::default()
    };

    let _ = writeln!(
        out,
        "model check: {nodes} node(s), {lines} line(s), depth {}, {:?} ordering, \
         mutation {mutate}, directory format {}",
        bounds.depth,
        ordering,
        format.label()
    );
    let report = explore(&cfg, &bounds);
    let _ = writeln!(out, "{}", report.summary());
    match (&report.violation, mutation) {
        (None, Mutation::None) => {}
        (Some(v), Mutation::None) => {
            // Under the architected (causal) ordering this is a real bug;
            // under pair-fifo it demonstrates the ordering is load-bearing
            // but still exits nonzero so it is never mistaken for clean.
            let _ = write!(out, "{v}");
            ok = false;
        }
        (Some(v), _) => {
            let _ = writeln!(out, "seeded mutation caught; shrunk counterexample:");
            let _ = write!(out, "{v}");
        }
        (None, _) => {
            let _ = writeln!(
                out,
                "FAIL: the checker missed the seeded mutation '{mutate}'"
            );
            ok = false;
        }
    }

    // With the faithful protocol, additionally demand that the checker
    // catches every seeded mutation at this configuration — a run that
    // reports "no violations" is only meaningful if the checker is known
    // to be able to fail.
    if mutation == Mutation::None
        && ordering == Ordering::Causal
        && format == ccn_protocol::DirFormat::FullMap
    {
        let _ = writeln!(
            out,
            "\nchecker sanity (each seeded mutation must be caught):"
        );
        for (name, m) in Mutation::ALL {
            let mcfg = ModelConfig { mutation: m, ..cfg };
            // Mutations surface within a few events; the configured depth
            // may be shallow for speed, so give the sanity sweep the full
            // default depth (violating runs terminate early regardless).
            let r = explore(
                &mcfg,
                &Bounds {
                    depth: Bounds::default().depth,
                    ..bounds
                },
            );
            match r.violation {
                Some(v) => {
                    let _ = writeln!(
                        out,
                        "  [PASS] {name}: [{}] in {} events",
                        v.kind,
                        v.trace.len()
                    );
                }
                None => {
                    let _ = writeln!(out, "  [FAIL] {name}: not caught");
                    ok = false;
                }
            }
        }
    }

    // Differential conformance across the four architectures (skipped
    // when a mutation or adversarial ordering was requested: those runs
    // study the model checker, not the timed simulator).
    if mutation == Mutation::None
        && ordering == Ordering::Causal
        && format == ccn_protocol::DirFormat::FullMap
    {
        let cases = conformance_cases(uint_flag(args, "--conf-cases", 4));
        let runner = Runner::parallel(opts, jobs);
        let _ = writeln!(
            out,
            "\nconformance: {} case(s) x {} architectures",
            cases.len(),
            ccnuma::Architecture::all().len()
        );
        match run_conformance(&runner, &cases) {
            Ok(records) => {
                let _ = writeln!(
                    out,
                    "all architectures agree on the functional outcome ({} runs)",
                    records.len()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "CONFORMANCE FAILURE: {e}");
                ok = false;
            }
        }
    }

    let _ = writeln!(
        out,
        "\n{}",
        if ok { "verify: PASS" } else { "verify: FAIL" }
    );
    (out, ok)
}
