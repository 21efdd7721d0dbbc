//! The `repro scenario` subcommand family: declarative workload
//! scenarios and binary trace record/replay.
//!
//! ```text
//! repro scenario list
//! repro scenario check [SPEC...]
//! repro scenario run SPEC... [--quick|--paper] [--jobs N] [--fresh] [--metrics DIR]
//! repro scenario record SPEC [--trace FILE] [--check]
//! repro scenario replay FILE [--arch NAME]
//! ```
//!
//! `list` prints the phase catalog, the node-set selectors, and every
//! example spec under `examples/scenarios/`. `check` parse-validates
//! specs (all examples when none are named). `run` sweeps a spec across
//! all four controller architectures on the harness worker pool — with
//! checkpoint/resume under `results/checkpoints/` and byte-identical
//! output for every `--jobs` value — and enforces the conformance digest
//! envelope. `record` captures the spec's exact per-processor access
//! stream to a binary trace (and with `--check` replays it in-process,
//! demanding an identical report and functional snapshot). `replay` runs
//! a recorded trace through the timed simulator on any architecture.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ccn_harness::Json;
use ccn_scenario::{
    record_with_limit, run_checked, run_scenario_conformance, scenario_config, sweep::shape_of,
    Scenario, ScenarioSpec, Trace, TraceReplay, NODE_SETS, PHASE_KINDS,
};
use ccnuma::sweep::scale_tag;
use ccnuma::{Architecture, RunRecord, Runner};

use crate::{git_describe, jobs_from_flags, options_from_flags};

/// Cap on recorded ops (~1 GB of decoded trace); `record` refuses larger
/// workloads instead of exhausting memory.
const RECORD_OP_LIMIT: u64 = 50_000_000;

/// Flags of the scenario CLI that consume a value.
const VALUE_FLAGS: &[&str] = &["--jobs", "--trace", "--arch", "--metrics", "--out"];

/// Flags of the scenario CLI that take no value.
const SWITCHES: &[&str] = &["--quick", "--paper", "--fresh", "--check"];

/// Entry point: parses `args` (the full argument list, starting at the
/// `scenario` keyword) and returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    if let Some(error) = crate::usage_error(args, VALUE_FLAGS, SWITCHES) {
        eprintln!("{error}");
        return 2;
    }
    let positionals = positionals(args);
    debug_assert_eq!(positionals.first().copied(), Some("scenario"));
    let Some(&sub) = positionals.get(1) else {
        eprintln!("usage: repro scenario <list|check|run|record|replay> ...");
        return 2;
    };
    let operands: Vec<&str> = positionals[2..].to_vec();
    match sub {
        "list" => {
            print!("{}", render_list());
            0
        }
        "check" => cmd_check(&operands),
        "run" => cmd_run(&operands, args),
        "record" => cmd_record(&operands, args),
        "replay" => cmd_replay(&operands, args),
        other => {
            eprintln!(
                "unknown scenario subcommand '{other}'; known: list, check, run, record, replay"
            );
            2
        }
    }
}

/// Non-flag arguments with value-flag values skipped.
fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip = true;
            continue;
        }
        if !a.starts_with("--") {
            out.push(a.as_str());
        }
    }
    out
}

/// The value of a value flag; [`run`] has already rejected one given
/// without its value.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    crate::flag_value(args, flag).ok().flatten()
}

/// The directory the example specs live in.
pub fn examples_dir() -> PathBuf {
    PathBuf::from("examples/scenarios")
}

/// Every example spec path, sorted for deterministic listings.
pub fn example_specs() -> Vec<PathBuf> {
    let mut specs: Vec<PathBuf> = std::fs::read_dir(examples_dir())
        .map(|dir| {
            dir.filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "json"))
                .collect()
        })
        .unwrap_or_default();
    specs.sort();
    specs
}

/// The `list` text: the phase catalog, node-set selectors, and example
/// specs with their one-line descriptions.
pub fn render_list() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "phase kinds:");
    for (name, desc) in PHASE_KINDS {
        let _ = writeln!(out, "  {name:<14} {desc}");
    }
    let _ = writeln!(out, "\nnode sets:");
    for (name, desc) in NODE_SETS {
        let _ = writeln!(out, "  {name:<14} {desc}");
    }
    let _ = writeln!(out, "\nexample specs ({}):", examples_dir().display());
    let specs = example_specs();
    if specs.is_empty() {
        let _ = writeln!(out, "  (none found)");
    }
    for path in specs {
        match load_spec(&path) {
            Ok(spec) => {
                let _ = writeln!(
                    out,
                    "  {:<24} {} ({} phase(s))",
                    spec.name,
                    spec.description,
                    spec.phases.len()
                );
            }
            Err(e) => {
                let _ = writeln!(out, "  {:<24} INVALID: {e}", path.display());
            }
        }
    }
    out
}

fn load_spec(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    ScenarioSpec::parse_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_check(operands: &[&str]) -> i32 {
    let paths: Vec<PathBuf> = if operands.is_empty() {
        example_specs()
    } else {
        operands.iter().map(PathBuf::from).collect()
    };
    if paths.is_empty() {
        eprintln!(
            "no specs to check (none under {})",
            examples_dir().display()
        );
        return 2;
    }
    let mut failed = 0;
    for path in &paths {
        match load_spec(path) {
            Ok(spec) => println!(
                "[ OK ] {} — '{}', {} phase(s)",
                path.display(),
                spec.name,
                spec.phases.len()
            ),
            Err(e) => {
                println!("[FAIL] {e}");
                failed += 1;
            }
        }
    }
    if failed > 0 {
        println!("{failed} of {} spec(s) invalid", paths.len());
        1
    } else {
        println!("all {} spec(s) valid", paths.len());
        0
    }
}

fn cmd_run(operands: &[&str], args: &[String]) -> i32 {
    if operands.is_empty() {
        eprintln!(
            "usage: repro scenario run SPEC... [--quick|--paper] [--jobs N] [--fresh] [--metrics DIR]"
        );
        return 2;
    }
    let opts = options_from_flags(args);
    let jobs = match jobs_from_flags(args) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let fresh = args.iter().any(|a| a == "--fresh");
    let metrics_dir = flag_value(args, "--metrics").map(PathBuf::from);
    let revision = git_describe();
    let mut ok = true;
    for path in operands {
        let spec = match load_spec(Path::new(path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{e}");
                return 2;
            }
        };
        let checkpoint = scenario_checkpoint_path(&spec, &opts);
        if fresh {
            let _ = std::fs::remove_file(&checkpoint);
        }
        let runner = Runner::parallel(opts, jobs)
            .with_checkpoint(&checkpoint)
            .with_meta(vec![
                ("sweep", Json::Str(format!("scenario-{}", spec.name))),
                ("revision", Json::Str(revision.clone())),
            ]);
        println!(
            "scenario '{}' on a {}x{} machine ({} phase(s), seed {}):",
            spec.name,
            opts.nodes,
            opts.procs_per_node,
            spec.phases.len(),
            spec.seed
        );
        match run_scenario_conformance(&runner, &spec, metrics_dir.as_deref()) {
            Ok(records) => {
                println!(
                    "  {:<6} {:>14} {:>14} {:>12}  digest",
                    "arch", "exec cycles", "instructions", "cc arrivals"
                );
                for r in &records {
                    println!(
                        "  {:<6} {:>14} {:>14} {:>12}  {:016x}",
                        r.architecture, r.exec_cycles, r.instructions, r.cc_arrivals, r.digest
                    );
                }
                println!(
                    "  all architectures agree on the functional outcome (digest {:016x})",
                    records[0].digest
                );
                let stats = runner.stats();
                eprintln!(
                    "[scenario {}] {} simulated, {} replayed from {}",
                    spec.name, stats.executed, stats.skipped, checkpoint
                );
            }
            Err(e) => {
                println!("  CONFORMANCE FAILURE: {e}");
                ok = false;
            }
        }
    }
    if ok {
        0
    } else {
        1
    }
}

/// The checkpoint file for one scenario sweep. Embeds the spec's content
/// hash so an edited spec restarts instead of replaying stale records.
pub fn scenario_checkpoint_path(
    spec: &ScenarioSpec,
    opts: &ccnuma::experiments::Options,
) -> String {
    format!(
        "results/checkpoints/scenario-{}-{:08x}-{}-{}x{}.jsonl",
        spec.name,
        spec.content_hash() as u32,
        scale_tag(opts.scale),
        opts.nodes,
        opts.procs_per_node
    )
}

fn cmd_record(operands: &[&str], args: &[String]) -> i32 {
    let [path] = operands else {
        eprintln!("usage: repro scenario record SPEC [--quick|--paper] [--trace FILE] [--check]");
        return 2;
    };
    let spec = match load_spec(Path::new(path)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let opts = options_from_flags(args);
    let cfg = scenario_config(Architecture::Hwc, opts.nodes, opts.procs_per_node);
    let shape = shape_of(&cfg);
    if let Err(e) = spec.check_shape(&shape) {
        eprintln!(
            "scenario '{}' does not fit a {}x{} machine: {e}",
            spec.name, opts.nodes, opts.procs_per_node
        );
        return 2;
    }
    let scenario = Scenario::new(spec.clone());
    let trace = match record_with_limit(&scenario, &shape, RECORD_OP_LIMIT) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("recording '{}': {e}", spec.name);
            return 1;
        }
    };
    let out_path = flag_value(args, "--trace")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("results/traces/{}.ccnt", spec.name)));
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).expect("can create the trace directory");
    }
    if let Err(e) = trace.save(&out_path) {
        eprintln!("{e}");
        return 1;
    }
    let bytes = trace.to_bytes().len();
    println!(
        "recorded '{}': {} op(s) across {} processor(s), {} byte(s) -> {}",
        spec.name,
        trace.op_count(),
        trace.ops.len(),
        bytes,
        out_path.display()
    );
    if args.iter().any(|a| a == "--check") {
        let loaded = match Trace::load(&out_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("re-reading the trace: {e}");
                return 1;
            }
        };
        let (orig, orig_snap) = run_checked(&scenario, cfg.clone());
        let (back, back_snap) = run_checked(&TraceReplay::new(loaded), cfg);
        if RunRecord::from_report(&orig) == RunRecord::from_report(&back)
            && orig_snap.digest() == back_snap.digest()
        {
            println!(
                "replay check: report and functional snapshot identical (digest {:016x})",
                orig_snap.digest()
            );
        } else {
            println!("replay check FAILED: the replayed run diverged from the original");
            return 1;
        }
    }
    0
}

fn cmd_replay(operands: &[&str], args: &[String]) -> i32 {
    let [path] = operands else {
        eprintln!("usage: repro scenario replay FILE [--arch HWC|PPC|2HWC|2PPC]");
        return 2;
    };
    let trace = match Trace::load(Path::new(path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let arch = match flag_value(args, "--arch") {
        None => Architecture::Hwc,
        Some(name) => match Architecture::all()
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
        {
            Some(a) => a,
            None => {
                let names: Vec<&str> = Architecture::all().iter().map(|a| a.name()).collect();
                eprintln!("unknown architecture '{name}'; known: {}", names.join(", "));
                return 2;
            }
        },
    };
    let cfg = scenario_config(arch, trace.shape.nodes, trace.shape.procs_per_node);
    if shape_of(&cfg) != trace.shape {
        eprintln!(
            "trace '{}' was recorded on an incompatible geometry (page/line bytes differ)",
            trace.name
        );
        return 2;
    }
    println!(
        "replaying '{}' ({} op(s)) on {} ({}x{}):",
        trace.name,
        trace.op_count(),
        arch.name(),
        trace.shape.nodes,
        trace.shape.procs_per_node
    );
    let (report, snap) = run_checked(&TraceReplay::new(trace), cfg);
    println!(
        "  exec cycles {}  instructions {}  cc arrivals {}  digest {:016x}",
        report.exec_cycles,
        report.instructions,
        report.cc_arrivals,
        snap.digest()
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positionals_skip_value_flags() {
        let args: Vec<String> = [
            "scenario", "run", "--jobs", "4", "a.json", "--trace", "t.ccnt", "--fresh", "b.json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(
            positionals(&args),
            vec!["scenario", "run", "a.json", "b.json"]
        );
    }

    #[test]
    fn list_renders_the_full_catalog() {
        let out = render_list();
        for (name, _) in PHASE_KINDS {
            assert!(out.contains(name), "missing {name}");
        }
        assert!(out.contains("node sets:"));
    }

    #[test]
    fn checkpoint_path_embeds_name_hash_and_machine() {
        let spec =
            ScenarioSpec::parse_str(r#"{ "name": "cp", "phases": [ { "kind": "uniform" } ] }"#)
                .unwrap();
        let opts = ccnuma::experiments::Options::quick();
        let path = scenario_checkpoint_path(&spec, &opts);
        assert!(
            path.starts_with("results/checkpoints/scenario-cp-"),
            "{path}"
        );
        assert!(path.ends_with("-tiny-4x2.jsonl"), "{path}");
        let mut edited = spec;
        edited.seed += 1;
        assert_ne!(path, scenario_checkpoint_path(&edited, &opts));
    }

    #[test]
    fn unknown_subcommand_is_a_usage_error() {
        let args: Vec<String> = ["scenario", "frobnicate"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(run(&args), 2);
    }
}
