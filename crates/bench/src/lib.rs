//! Benchmark harness for the ISCA '97 reproduction.
//!
//! This crate contains:
//!
//! * the `repro` binary — regenerates every table and figure of the paper
//!   (`cargo run --release -p ccn-bench --bin repro -- all`), sweeping
//!   simulations on a worker pool (`--jobs N`) with incremental
//!   checkpoints under `results/`;
//! * the golden anchors ([`golden`]) and the `repro scenario` frontend
//!   ([`scenario_cli`]).
//!
//! The library portion holds the shared CLI plumbing. The simulator's
//! host-time benchmark is perfbench (`perfbench/`), outside this crate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod golden;
pub mod scenario_cli;

use ccn_workloads::suite::Scale;
use ccnuma::experiments::Options;
use ccnuma::sweep::scale_tag;

/// Experiment selectors accepted by the `repro` binary.
pub const TARGETS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablations",
    "summary",
    "run",
    "stats",
    "trace",
    "explain",
    "validate",
    "verify",
    "golden",
    "all",
];

/// Targets that are *extras*: they run only when asked for by name and
/// are not part of what `all` expands to.
pub const EXTRA_TARGETS: &[&str] = &[
    "ablations",
    "summary",
    "run",
    "stats",
    "trace",
    "explain",
    "validate",
    "verify",
    "golden",
    "all",
];

/// The targets `all` (or an empty target list) expands to: every table
/// and figure of the paper, without the extras.
pub fn default_targets() -> Vec<&'static str> {
    TARGETS
        .iter()
        .copied()
        .filter(|t| !EXTRA_TARGETS.contains(t))
        .collect()
}

/// The targets a command line runs, in order: `all` (or an empty list)
/// expands in place to [`default_targets`], the other named targets keep
/// their places, and a target named twice runs once, at its first place.
pub fn expand_targets<'a>(named: &[&'a str]) -> Vec<&'a str> {
    let named: &[&str] = if named.is_empty() { &["all"] } else { named };
    let mut targets = Vec::new();
    for &name in named {
        let expansion = if name == "all" {
            default_targets()
        } else {
            vec![name]
        };
        for target in expansion {
            if !targets.contains(&target) {
                targets.push(target);
            }
        }
    }
    targets
}

/// Targets that sweep simulations and therefore run through the harness
/// worker pool with a checkpoint file.
pub const SWEEP_TARGETS: &[&str] = &[
    "table6", "table7", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
];

/// Parses the CLI scale flags into experiment options.
///
/// `--quick` selects a tiny machine and data sets (seconds), `--paper` the
/// paper's Table 5 sizes (hours); the default is the scaled reproduction
/// setup (minutes).
pub fn options_from_flags(args: &[String]) -> Options {
    if args.iter().any(|a| a == "--quick") {
        Options::quick()
    } else if args.iter().any(|a| a == "--paper") {
        Options::paper()
    } else {
        Options::repro()
    }
}

/// The value given for a value flag: `None` when `flag` is absent, and
/// an error naming it when it is the last argument, with no value after
/// it.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

/// Parses `--jobs N` into a worker count; defaults to the machine's
/// available parallelism. `--jobs 1` forces a serial sweep (as does
/// `--jobs 0`). A missing value, or one that is not a non-negative
/// integer, is an error naming the flag.
pub fn jobs_from_flags(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--jobs")? {
        None => Ok(ccn_harness::default_workers()),
        Some(v) => v
            .parse::<usize>()
            .map(|n| n.max(1))
            .map_err(|_| format!("--jobs wants a non-negative integer, got '{v}'")),
    }
}

/// The first usage error in `args`: a `--flag` that is neither one of
/// `value_flags` (whose values are skipped) nor one of `switches`, or a
/// value flag given last, without its value.
pub fn usage_error(args: &[String], value_flags: &[&str], switches: &[&str]) -> Option<String> {
    let mut awaiting_value = None;
    for a in args {
        if awaiting_value.take().is_some() {
            continue;
        }
        if value_flags.contains(&a.as_str()) {
            awaiting_value = Some(a);
        } else if a.starts_with("--") && !switches.contains(&a.as_str()) {
            return Some(format!("unknown flag '{a}'"));
        }
    }
    awaiting_value.map(|flag| format!("{flag} needs a value"))
}

/// Human-readable description of the scale in use.
pub fn scale_name(opts: &Options) -> &'static str {
    match opts.scale {
        Scale::Paper => "paper data sets (Table 5)",
        Scale::Scaled => "scaled data sets (default)",
        Scale::Tiny => "tiny data sets (--quick)",
    }
}

/// The checkpoint file for one sweep target at one scale/machine size.
/// Checkpoints live under `results/` so interrupted sweeps resume across
/// invocations; the sweep name (not the worker count) keys the file.
pub fn checkpoint_path(sweep: &str, opts: &Options) -> String {
    format!(
        "results/checkpoints/{sweep}-{}-{}x{}.jsonl",
        scale_tag(opts.scale),
        opts.nodes,
        opts.procs_per_node
    )
}

/// Figures 11 and 12 render the same underlying sweep; both targets share
/// one checkpoint so the grid is simulated once.
pub fn sweep_name(target: &str) -> &str {
    match target {
        "fig11" | "fig12" => "scatter",
        other => other,
    }
}

/// Where `--out DIR` writes one target's output. The scale is part of the
/// name (`results/table6_paper.txt`) so runs at different scales never
/// overwrite each other.
pub fn artifact_path(dir: &str, target: &str, opts: &Options) -> String {
    format!("{dir}/{target}_{}.txt", scale_tag(opts.scale))
}

/// The header comment stamped into every written artifact: the exact
/// configuration plus the source revision. Deliberately excludes the
/// worker count — artifacts must be byte-identical across `--jobs N`.
pub fn artifact_stamp(target: &str, opts: &Options, revision: &str) -> String {
    format!(
        "# repro artifact: {target}\n# config: {} on a {}x{} machine\n# revision: {revision}\n\n",
        scale_name(opts),
        opts.nodes,
        opts.procs_per_node
    )
}

/// An Ocean instance whose grid tiles the machine's processor grid: the
/// stock tiny data set (34×34) up to ~1k processors, with the interior
/// growing past that so every tile stays non-empty. `repro run` uses it
/// on machines past the paper's 16 nodes.
pub fn ocean_for(nprocs: usize) -> ccn_workloads::apps::Ocean {
    use ccn_workloads::apps::Ocean;
    // Mirrors the workload layer's internal processor-grid layout.
    let mut rows = (nprocs as f64).sqrt() as usize;
    while rows > 1 && !nprocs.is_multiple_of(rows) {
        rows -= 1;
    }
    let cols = nprocs / rows;
    let gcd = {
        let (mut a, mut b) = (rows, cols);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let lcm = rows / gcd * cols;
    let interior = lcm * 32usize.div_ceil(lcm);
    Ocean {
        grid: interior + 2,
        ..Ocean::tiny()
    }
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// when git (or the repository) is unavailable.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Checks `repro verify`'s model bounds: `--nodes` from 2 to
/// [`ccn_protocol::MAX_NODES`], `--lines` from 1 to 255 and `--depth` up
/// to `u32::MAX`, the ranges `ccn_verify::ModelConfig` and
/// `ccn_verify::Bounds` can hold and the model can run. The error names
/// the first flag out of range.
pub fn model_bounds(nodes: u64, lines: u64, depth: u64) -> Result<(u16, u8, u32), String> {
    let max_nodes = ccn_protocol::MAX_NODES;
    let nodes = u16::try_from(nodes)
        .ok()
        .filter(|n| (2..=max_nodes).contains(n))
        .ok_or_else(|| format!("--nodes wants 2 to {max_nodes} nodes, got {nodes}"))?;
    let lines = u8::try_from(lines)
        .ok()
        .filter(|&l| l >= 1)
        .ok_or_else(|| format!("--lines wants 1 to {} lines, got {lines}", u8::MAX))?;
    let depth = u32::try_from(depth)
        .map_err(|_| format!("--depth wants at most {} events, got {depth}", u32::MAX))?;
    Ok((nodes, lines, depth))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_bounds_reject_what_the_model_cannot_run() {
        assert_eq!(model_bounds(2, 1, 64), Ok((2, 1, 64)));
        assert_eq!(model_bounds(1024, 255, 0), Ok((1024, 255, 0)));
        for (nodes, lines, depth, flag) in [
            (1, 1, 6, "--nodes"),
            (2000, 1, 6, "--nodes"),
            (65538, 1, 6, "--nodes"),
            (2, 0, 6, "--lines"),
            (2, 256, 6, "--lines"),
            (2, 257, 6, "--lines"),
            (2, 1, 1 << 32, "--depth"),
        ] {
            let err = model_bounds(nodes, lines, depth).unwrap_err();
            assert!(err.starts_with(flag), "{nodes}/{lines}/{depth}: {err}");
        }
    }

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        assert_eq!(options_from_flags(&s(&["--quick"])).nodes, 4);
        assert_eq!(options_from_flags(&s(&["--paper"])).nodes, 16);
        assert_eq!(options_from_flags(&s(&[])).nodes, 16);
        assert_eq!(
            scale_name(&options_from_flags(&s(&["--quick"]))),
            "tiny data sets (--quick)"
        );
    }

    #[test]
    fn usage_errors_name_unknown_flags_and_missing_values() {
        let (values, switches) = (&["--out"][..], &["--quick"][..]);
        let error = |args: &[&str]| usage_error(&s(args), values, switches);
        assert_eq!(error(&["--quick", "fig6"]), None);
        assert_eq!(error(&["--out", "--x", "fig6"]), None);
        assert_eq!(
            error(&["fig6", "--bogus", "2"]),
            Some("unknown flag '--bogus'".to_string())
        );
        assert_eq!(
            error(&["--quick", "fig6", "--out"]),
            Some("--out needs a value".to_string())
        );
    }

    #[test]
    fn jobs_parsing() {
        assert_eq!(jobs_from_flags(&s(&["--jobs", "8", "fig6"])), Ok(8));
        assert_eq!(jobs_from_flags(&s(&["--jobs", "0"])), Ok(1));
        assert!(jobs_from_flags(&s(&["fig6"])).is_ok_and(|n| n >= 1));
        for bad in ["x", "-2", "1.5", ""] {
            let err = jobs_from_flags(&s(&["--jobs", bad, "table1"])).unwrap_err();
            assert!(
                err.starts_with("--jobs") && err.contains(bad),
                "{bad}: {err}"
            );
        }
        for missing in [&["table1", "--jobs"][..], &["--quick", "--jobs"]] {
            assert_eq!(
                jobs_from_flags(&s(missing)),
                Err("--jobs needs a value".to_string()),
                "{missing:?}"
            );
        }
    }

    #[test]
    fn a_value_flag_given_last_is_an_error_naming_it() {
        let args = s(&["--quick", "run", "--arch", "hwc", "--nodes"]);
        assert_eq!(flag_value(&args, "--arch"), Ok(Some("hwc")));
        assert_eq!(flag_value(&args, "--out"), Ok(None));
        assert_eq!(
            flag_value(&args, "--nodes"),
            Err("--nodes needs a value".to_string())
        );
    }

    #[test]
    fn checkpoints_key_on_sweep_scale_and_machine() {
        let opts = Options::quick();
        assert_eq!(
            checkpoint_path(sweep_name("fig6"), &opts),
            "results/checkpoints/fig6-tiny-4x2.jsonl"
        );
        // fig11/fig12 share the scatter sweep.
        assert_eq!(sweep_name("fig11"), "scatter");
        assert_eq!(sweep_name("fig12"), "scatter");
        assert_eq!(sweep_name("table6"), "table6");
    }

    #[test]
    fn artifact_paths_encode_the_scale() {
        assert_eq!(
            artifact_path("results", "table6", &Options::paper()),
            "results/table6_paper.txt"
        );
        assert_eq!(
            artifact_path("results", "fig6", &Options::quick()),
            "results/fig6_tiny.txt"
        );
    }

    #[test]
    fn stamp_names_config_and_revision_but_not_jobs() {
        let stamp = artifact_stamp("fig6", &Options::quick(), "abc1234");
        assert!(stamp.contains("fig6"));
        assert!(stamp.contains("4x2"));
        assert!(stamp.contains("abc1234"));
        assert!(!stamp.contains("jobs"));
    }

    #[test]
    fn targets_cover_all_tables_and_figures() {
        for t in [
            "table1", "table7", "fig6", "fig12", "verify", "golden", "all",
        ] {
            assert!(TARGETS.contains(&t));
        }
        for t in SWEEP_TARGETS {
            assert!(TARGETS.contains(t));
        }
        let defaults = default_targets();
        assert!(defaults.contains(&"table6") && defaults.contains(&"fig12"));
        for t in EXTRA_TARGETS {
            assert!(!defaults.contains(t), "extra {t} leaked into `all`");
        }
    }

    #[test]
    fn all_expands_in_place_beside_named_targets() {
        let defaults = default_targets();
        assert_eq!(expand_targets(&[]), defaults);
        assert_eq!(expand_targets(&["all"]), defaults);
        // `all ablations` runs the paper's targets and then the ablations.
        let mut all_then_ablations = defaults.clone();
        all_then_ablations.push("ablations");
        assert_eq!(expand_targets(&["all", "ablations"]), all_then_ablations);
        // Named targets keep their places; one already in `all` runs once.
        let mut expected = vec!["ablations", "table3"];
        expected.extend(defaults.iter().filter(|&&t| t != "table3"));
        assert_eq!(
            expand_targets(&["ablations", "table3", "all", "table3"]),
            expected
        );
        assert_eq!(expand_targets(&["fig6", "fig6"]), ["fig6"]);
        // An unknown name is kept, so the caller can reject it.
        assert_eq!(expand_targets(&["all", "bogus"]).last(), Some(&"bogus"));
    }
}
