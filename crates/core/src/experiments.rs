//! One entry point per paper table and figure.
//!
//! Each function runs the required simulations and returns both the raw
//! data and a rendered text table whose rows/series match what the paper
//! reports. The `repro` binary in `ccn-bench` is a thin CLI over this
//! module.
//!
//! Problem sizes come from [`Scale`]: `Scaled` (default) preserves each
//! application's communication character at a fraction of the paper's
//! runtime; `Paper` uses Table 5's data sets; `Tiny` is for tests.

use ccn_net::NetConfig;
use ccn_protocol::handlers::{Fanout, HandlerKind};
use ccn_protocol::subop::{EngineKind, OccupancyTable, SubOp};
use ccn_workloads::suite::{Scale, SuiteApp};

use crate::config::{Architecture, SystemConfig};
use crate::machine::Machine;
use crate::probe;
use crate::report::{penalty, SimReport};
use crate::steps::run_idle;
use crate::sweep::{RunKey, RunRecord, Runner};
use crate::tables::{num, pct, TextTable};

/// Machine size and problem scale for a reproduction run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Problem-size scale.
    pub scale: Scale,
    /// Nodes in the machine (LU and Cholesky automatically halve this, as
    /// the paper runs them on 32 processors).
    pub nodes: usize,
    /// Processors per node.
    pub procs_per_node: usize,
    /// Directory sharer representation (the paper's protocol is full-map;
    /// the scaling study sweeps the alternatives).
    pub dir_format: ccn_protocol::DirFormat,
}

impl Options {
    /// The full reproduction setup: the paper's 16×4 machine with scaled
    /// problem sizes.
    pub fn repro() -> Self {
        Options {
            scale: Scale::Scaled,
            nodes: 16,
            procs_per_node: 4,
            dir_format: ccn_protocol::DirFormat::FullMap,
        }
    }

    /// The paper's exact setup (16×4 machine, Table 5 data sets). Slow.
    pub fn paper() -> Self {
        Options {
            scale: Scale::Paper,
            ..Options::repro()
        }
    }

    /// A fast setup for tests and CI: a 4×2 machine with tiny data sets.
    pub fn quick() -> Self {
        Options {
            scale: Scale::Tiny,
            nodes: 4,
            procs_per_node: 2,
            dir_format: ccn_protocol::DirFormat::FullMap,
        }
    }

    /// The same options with a different directory format.
    pub fn with_dir_format(mut self, format: ccn_protocol::DirFormat) -> Self {
        self.dir_format = format;
        self
    }
}

/// Configuration knobs varied by the parameter studies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ConfigMods {
    /// Override the cache-line size (Figure 7: 32).
    pub line_bytes: Option<u64>,
    /// Use the 1 µs network (Figure 8).
    pub slow_net: bool,
    /// Override processors per node, keeping total processors constant
    /// (Figure 10).
    pub procs_per_node: Option<usize>,
}

/// Builds the system configuration for one run (public so ablation
/// studies and downstream tools can tweak it further).
pub fn config_for(
    app: SuiteApp,
    arch: Architecture,
    opts: Options,
    mods: ConfigMods,
) -> SystemConfig {
    let mut nodes = if app.wants_32_procs() {
        (opts.nodes / 2).max(1)
    } else {
        opts.nodes
    };
    let mut ppn = opts.procs_per_node;
    if let Some(p) = mods.procs_per_node {
        // Keep the total processor count fixed while varying node size.
        let total = nodes * ppn;
        ppn = p;
        nodes = (total / p).max(1);
    }
    let mut cfg = SystemConfig::base()
        .with_architecture(arch)
        .with_nodes(nodes)
        .with_procs_per_node(ppn)
        .with_dir_format(opts.dir_format);
    if let Some(lb) = mods.line_bytes {
        cfg = cfg.with_line_bytes(lb);
    }
    if mods.slow_net {
        cfg = cfg.with_net(NetConfig::slow());
    }
    cfg
}

/// Runs one (application, architecture) simulation.
///
/// # Panics
///
/// Panics if the configuration is invalid or the workload cannot be laid
/// out on the machine (e.g. indivisible problem sizes).
pub fn run_one(app: SuiteApp, arch: Architecture, opts: Options, mods: ConfigMods) -> SimReport {
    run_one_instrumented(app, arch, opts, mods, None)
}

/// [`run_one`] with an optional transaction flight recorder of
/// the given ring capacity. When enabled, the returned report carries a
/// [`blame`](SimReport::blame) summary; timing and every other report
/// field are unchanged (the recorder is strictly observational).
///
/// # Panics
///
/// Panics under the same conditions as [`run_one`].
pub fn run_one_instrumented(
    app: SuiteApp,
    arch: Architecture,
    opts: Options,
    mods: ConfigMods,
    flight_capacity: Option<usize>,
) -> SimReport {
    let cfg = config_for(app, arch, opts, mods);
    let instance = app.instantiate(opts.scale);
    let mut machine = Machine::new(cfg, instance.as_ref()).expect("experiment config is valid");
    if let Some(capacity) = flight_capacity {
        machine.enable_flight_recorder(capacity);
    }
    machine.run()
}

// -------------------------------------------------------------------
// Tables 1-5: configuration-derived
// -------------------------------------------------------------------

/// Table 1: base system no-contention latencies.
pub fn table1() -> TextTable {
    let cfg = SystemConfig::base();
    let mut t = TextTable::new(vec!["component", "cycles (5 ns)"])
        .with_title("Table 1: base system no-contention latencies");
    let mut row = |name: &str, v: u64| t.row(vec![name.to_string(), v.to_string()]);
    row("L1 hit", cfg.lat.l1_hit);
    row("L2 hit (L1 miss)", cfg.lat.l2_hit);
    row("detect L2 miss", cfg.lat.l2_miss_detect);
    row(
        "bus address strobe to next address strobe",
        cfg.bus.address_slot_cycles,
    );
    row(
        "bus address strobe to start of data transfer from memory",
        cfg.lat.mem_access,
    );
    row("cache-to-cache transfer start", cfg.lat.cache_to_cache);
    row("network point-to-point", cfg.net.latency_cycles);
    t
}

/// Table 2: protocol-engine sub-operation occupancies for HWC and PPC.
pub fn table2() -> TextTable {
    let hwc = OccupancyTable::for_engine(EngineKind::Hwc);
    let ppc = OccupancyTable::for_engine(EngineKind::Ppc);
    let mut t = TextTable::new(vec!["sub-operation", "HWC", "PPC"])
        .with_title("Table 2: protocol engine sub-operation occupancies (cycles)");
    let mut rows = [(SubOp::Dispatch, 0); SubOp::COUNT];
    hwc.rows_into(&mut rows);
    for (op, hwc_cost) in rows {
        t.row(vec![
            op.description().to_string(),
            hwc_cost.to_string(),
            ppc.cost(op).to_string(),
        ]);
    }
    t
}

/// Table 3: no-contention remote read-miss latency breakdown, plus the
/// measured totals from a real two-node run.
pub fn table3() -> TextTable {
    let hwc_cfg = SystemConfig::base();
    let ppc_cfg = SystemConfig::base().with_architecture(Architecture::Ppc);
    let hwc = probe::read_miss_breakdown(&hwc_cfg, false);
    let ppc = probe::read_miss_breakdown(&ppc_cfg, false);
    let mut t = TextTable::new(vec!["step", "HWC", "PPC"]).with_title(
        "Table 3: read miss to a remote line clean at home (cycles; paper totals: 142 / 212)",
    );
    for (h, p) in hwc.rows.iter().zip(&ppc.rows) {
        t.row(vec![
            h.step.to_string(),
            h.cycles.to_string(),
            p.cycles.to_string(),
        ]);
    }
    t.row(vec![
        "total (analytic)".to_string(),
        hwc.total().to_string(),
        ppc.total().to_string(),
    ]);
    t.row(vec![
        "total (measured, cold directory)".to_string(),
        probe::measured_read_miss(&hwc_cfg).to_string(),
        probe::measured_read_miss(&ppc_cfg).to_string(),
    ]);
    t
}

/// Table 4: protocol handler occupancies, each handler run by the step
/// executor on an idle node with its directory-cache entry warm (one
/// remote invalidation assumed for the fan-out handlers, as a
/// representative row).
pub fn table4() -> TextTable {
    let occupancy = |arch, kind| {
        let cfg = SystemConfig::base().with_architecture(arch);
        run_idle(&cfg, kind, Fanout::remote(1)).0.end
    };
    let mut t = TextTable::new(vec!["handler", "HWC", "PPC"])
        .with_title("Table 4: protocol handler occupancies (cycles)");
    for &kind in HandlerKind::all() {
        t.row(vec![
            kind.paper_label().to_string(),
            occupancy(Architecture::Hwc, kind).to_string(),
            occupancy(Architecture::Ppc, kind).to_string(),
        ]);
    }
    t
}

/// Table 5: benchmark types and data sets.
pub fn table5() -> TextTable {
    let mut t = TextTable::new(vec!["application", "type", "problem size"])
        .with_title("Table 5: benchmark types and data sets");
    for app in SuiteApp::base_suite() {
        let (name, ty, size) = app.table5_row();
        t.row(vec![name.to_string(), ty.to_string(), size.to_string()]);
    }
    t
}

// -------------------------------------------------------------------
// Table 6: communication statistics (HWC vs PPC, base system)
// -------------------------------------------------------------------

/// One application's Table 6 row.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// Application label.
    pub app: String,
    /// PP penalty (PPC vs HWC execution time).
    pub pp_penalty: f64,
    /// 1000 × RCCPI (HWC run).
    pub rccpi_x1000: f64,
    /// PPC occupancy / HWC occupancy.
    pub occupancy_ratio: f64,
    /// Average HWC controller utilization.
    pub hwc_utilization: f64,
    /// Average PPC controller utilization.
    pub ppc_utilization: f64,
    /// Average HWC queueing delay (ns).
    pub hwc_queue_ns: f64,
    /// Average PPC queueing delay (ns).
    pub ppc_queue_ns: f64,
    /// Requests per controller per µs, HWC.
    pub hwc_rate: f64,
    /// Requests per controller per µs, PPC.
    pub ppc_rate: f64,
}

/// Table 6 data: one row per application (including the large data sets).
#[derive(Debug, Clone)]
pub struct Table6Data {
    /// Rows in suite order.
    pub rows: Vec<Table6Row>,
}

/// The applications shown in Table 6 / Figures 11-12 (base suite plus the
/// large-data-size variants).
pub fn table6_apps() -> Vec<SuiteApp> {
    let mut apps = SuiteApp::base_suite().to_vec();
    apps.insert(5, SuiteApp::FftLarge);
    apps.push(SuiteApp::OceanLarge);
    apps
}

/// Runs Table 6 through a sweep [`Runner`]: HWC and PPC on the base
/// configuration for every application.
pub fn table6_with(runner: &Runner) -> Table6Data {
    let apps = table6_apps();
    let mut keys = Vec::with_capacity(apps.len() * 2);
    for &app in &apps {
        keys.push(RunKey::new(app, Architecture::Hwc));
        keys.push(RunKey::new(app, Architecture::Ppc));
    }
    let records = runner.run(&keys);
    let rows = records
        .chunks_exact(2)
        .map(|pair| table6_row_from(&pair[0], &pair[1]))
        .collect();
    Table6Data { rows }
}

/// Derives one Table 6 row from a matched HWC/PPC run pair.
pub fn table6_row(hwc: &SimReport, ppc: &SimReport) -> Table6Row {
    table6_row_from(&RunRecord::from_report(hwc), &RunRecord::from_report(ppc))
}

fn table6_row_from(hwc: &RunRecord, ppc: &RunRecord) -> Table6Row {
    Table6Row {
        app: hwc.workload.clone(),
        pp_penalty: penalty(hwc.exec_cycles, ppc.exec_cycles),
        rccpi_x1000: hwc.rccpi() * 1000.0,
        occupancy_ratio: if hwc.cc_occupancy == 0 {
            0.0
        } else {
            ppc.cc_occupancy as f64 / hwc.cc_occupancy as f64
        },
        hwc_utilization: hwc.avg_utilization,
        ppc_utilization: ppc.avg_utilization,
        hwc_queue_ns: hwc.queue_delay_ns,
        ppc_queue_ns: ppc.queue_delay_ns,
        hwc_rate: hwc.arrival_rate_per_us,
        ppc_rate: ppc.arrival_rate_per_us,
    }
}

impl Table6Data {
    /// Renders the table in the paper's column layout.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "application",
            "PP penalty",
            "1000 x RCCPI",
            "PPC/HWC occupancy",
            "HWC util",
            "PPC util",
            "HWC queue (ns)",
            "PPC queue (ns)",
            "req/us HWC",
            "req/us PPC",
        ])
        .with_title("Table 6: communication statistics on the base system configuration");
        for r in &self.rows {
            t.row(vec![
                r.app.clone(),
                pct(r.pp_penalty),
                num(r.rccpi_x1000, 2),
                num(r.occupancy_ratio, 2),
                pct(r.hwc_utilization),
                pct(r.ppc_utilization),
                num(r.hwc_queue_ns, 0),
                num(r.ppc_queue_ns, 0),
                num(r.hwc_rate, 2),
                num(r.ppc_rate, 2),
            ]);
        }
        t.render()
    }
}

// -------------------------------------------------------------------
// Table 7: two-engine controllers (LPE/RPE)
// -------------------------------------------------------------------

/// One (application, architecture) row of Table 7.
#[derive(Debug, Clone)]
pub struct Table7Row {
    /// Application label.
    pub app: String,
    /// "2HWC" or "2PPC".
    pub architecture: String,
    /// LPE utilization.
    pub lpe_utilization: f64,
    /// RPE utilization.
    pub rpe_utilization: f64,
    /// Fraction of requests handled by the LPE.
    pub lpe_share: f64,
    /// Fraction of requests handled by the RPE.
    pub rpe_share: f64,
    /// LPE queueing delay (ns).
    pub lpe_queue_ns: f64,
    /// RPE queueing delay (ns).
    pub rpe_queue_ns: f64,
}

/// Table 7 data.
#[derive(Debug, Clone)]
pub struct Table7Data {
    /// Two rows (2HWC, 2PPC) per application.
    pub rows: Vec<Table7Row>,
}

/// Runs Table 7 through a sweep [`Runner`]: 2HWC and 2PPC on the base
/// configuration.
pub fn table7_with(runner: &Runner) -> Table7Data {
    let mut keys = Vec::new();
    for app in table6_apps() {
        for arch in [Architecture::TwoHwc, Architecture::TwoPpc] {
            keys.push(RunKey::new(app, arch));
        }
    }
    let rows = runner.run(&keys).iter().map(table7_row_from).collect();
    Table7Data { rows }
}

/// Derives a Table 7 row from a two-engine run.
fn table7_row_from(record: &RunRecord) -> Table7Row {
    Table7Row {
        app: record.workload.clone(),
        architecture: record.architecture.clone(),
        lpe_utilization: record.lpe_utilization,
        rpe_utilization: record.rpe_utilization,
        lpe_share: record.lpe_share,
        rpe_share: record.rpe_share,
        lpe_queue_ns: record.lpe_queue_ns,
        rpe_queue_ns: record.rpe_queue_ns,
    }
}

impl Table7Data {
    /// Renders the table in the paper's column layout.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "application",
            "arch",
            "LPE util",
            "RPE util",
            "LPE req share",
            "RPE req share",
            "LPE queue (ns)",
            "RPE queue (ns)",
        ])
        .with_title("Table 7: two-engine controllers on the base system configuration");
        for r in &self.rows {
            t.row(vec![
                r.app.clone(),
                r.architecture.clone(),
                pct(r.lpe_utilization),
                pct(r.rpe_utilization),
                pct(r.lpe_share),
                pct(r.rpe_share),
                num(r.lpe_queue_ns, 0),
                num(r.rpe_queue_ns, 0),
            ]);
        }
        t.render()
    }
}

// -------------------------------------------------------------------
// Figures 6-10: normalized execution times
// -------------------------------------------------------------------

/// A family of normalized-execution-time series (one figure).
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure title.
    pub title: String,
    /// Column labels (applications, possibly with a variant suffix).
    pub labels: Vec<String>,
    /// One (series name, normalized execution times) entry per series.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Figure {
    /// Renders the figure as ASCII grouped bars (the paper's figures are
    /// bar charts).
    pub fn render_chart(&self) -> String {
        crate::tables::bar_chart(&self.title, &self.labels, &self.series, 48)
    }

    /// Renders the figure as a table of normalized execution times.
    pub fn render(&self) -> String {
        let mut headers = vec!["series".to_string()];
        headers.extend(self.labels.clone());
        let mut t = TextTable::new(headers).with_title(self.title.clone());
        for (name, values) in &self.series {
            let mut row = vec![name.clone()];
            row.extend(values.iter().map(|v| num(*v, 2)));
            t.row(row);
        }
        t.render()
    }
}

/// Runs Figure 6 through a sweep [`Runner`]: normalized execution time
/// on the base system, all four architectures over the eight-application
/// suite.
pub fn fig6_with(runner: &Runner) -> Figure {
    normalized_figure(
        "Figure 6: normalized execution time, base system".to_string(),
        &SuiteApp::base_suite(),
        runner,
        ConfigMods::default(),
    )
}

/// Runs Figure 7 through a sweep [`Runner`]: the base suite with 32-byte
/// cache lines, normalized to HWC on the *base* (128-byte) configuration.
pub fn fig7_with(runner: &Runner) -> Figure {
    normalized_vs_base_figure(
        "Figure 7: normalized execution time, 32-byte lines (vs 128-byte HWC)".to_string(),
        &SuiteApp::base_suite(),
        runner,
        ConfigMods {
            line_bytes: Some(32),
            ..ConfigMods::default()
        },
    )
}

/// Runs Figure 8 through a sweep [`Runner`]: the four high-penalty
/// applications on the 1 µs network, normalized to HWC on the base
/// configuration.
pub fn fig8_with(runner: &Runner) -> Figure {
    normalized_vs_base_figure(
        "Figure 8: normalized execution time, 1 us network (vs base HWC)".to_string(),
        &SuiteApp::high_penalty_suite(),
        runner,
        ConfigMods {
            slow_net: true,
            ..ConfigMods::default()
        },
    )
}

/// Runs Figure 9 through a sweep [`Runner`]: FFT and Ocean at base and
/// large data sizes, each size normalized to its own HWC run.
pub fn fig9_with(runner: &Runner) -> Figure {
    let apps = [
        SuiteApp::FftBase,
        SuiteApp::FftLarge,
        SuiteApp::OceanBase,
        SuiteApp::OceanLarge,
    ];
    normalized_figure(
        "Figure 9: normalized execution time, base and large data sizes".to_string(),
        &apps,
        runner,
        ConfigMods::default(),
    )
}

/// Runs Figure 10 through a sweep [`Runner`]: 1/2/4/8 processors per SMP
/// node at constant total processor count, normalized to HWC with 4
/// processors per node.
pub fn fig10_with(runner: &Runner, app: SuiteApp) -> Figure {
    let ppn_values = [1usize, 2, 4, 8];
    // One grid: the base run plus every (architecture, node size) cell.
    let mut keys = vec![RunKey::new(app, Architecture::Hwc)];
    for &arch in Architecture::all().iter() {
        for &p in &ppn_values {
            keys.push(RunKey::with_mods(
                app,
                arch,
                ConfigMods {
                    procs_per_node: Some(p),
                    ..ConfigMods::default()
                },
            ));
        }
    }
    let records = runner.run(&keys);
    let base = &records[0];
    let labels = ppn_values.iter().map(|p| format!("{p}/node")).collect();
    let series = Architecture::all()
        .iter()
        .enumerate()
        .map(|(i, arch)| {
            let values = (0..ppn_values.len())
                .map(|j| {
                    let r = &records[1 + i * ppn_values.len() + j];
                    r.exec_cycles as f64 / base.exec_cycles as f64
                })
                .collect();
            (arch.name().to_string(), values)
        })
        .collect();
    Figure {
        title: format!(
            "Figure 10 ({}): processors per SMP node sweep (vs base HWC)",
            base.workload
        ),
        labels,
        series,
    }
}

/// Runs `apps` × all architectures with `mods`, normalizing each
/// application to its own HWC run *under the same mods*.
fn normalized_figure(
    title: String,
    apps: &[SuiteApp],
    runner: &Runner,
    mods: ConfigMods,
) -> Figure {
    let archs = Architecture::all();
    let mut keys = Vec::with_capacity(apps.len() * archs.len());
    for &app in apps {
        for &arch in archs.iter() {
            keys.push(RunKey::with_mods(app, arch, mods));
        }
    }
    let records = runner.run(&keys);
    let mut labels = Vec::new();
    let mut matrix: Vec<Vec<f64>> = vec![Vec::new(); archs.len()];
    for (a, per_app) in records.chunks_exact(archs.len()).enumerate() {
        let hwc_cycles = per_app[0].exec_cycles;
        labels.push(per_app[0].workload.clone());
        for (i, r) in per_app.iter().enumerate() {
            matrix[i].push(r.exec_cycles as f64 / hwc_cycles as f64);
        }
        debug_assert_eq!(apps[a], keys[a * archs.len()].app);
    }
    Figure {
        title,
        labels,
        series: archs
            .iter()
            .zip(matrix)
            .map(|(a, v)| (a.name().to_string(), v))
            .collect(),
    }
}

/// Like [`normalized_figure`], but normalizes to HWC on the *unmodified*
/// base configuration (the paper's normalization for Figures 7 and 8).
fn normalized_vs_base_figure(
    title: String,
    apps: &[SuiteApp],
    runner: &Runner,
    mods: ConfigMods,
) -> Figure {
    let archs = Architecture::all();
    // Per app: the unmodified HWC baseline, then the modified grid.
    let mut keys = Vec::with_capacity(apps.len() * (archs.len() + 1));
    for &app in apps {
        keys.push(RunKey::new(app, Architecture::Hwc));
        for &arch in archs.iter() {
            keys.push(RunKey::with_mods(app, arch, mods));
        }
    }
    let records = runner.run(&keys);
    let mut labels = Vec::new();
    let mut matrix: Vec<Vec<f64>> = vec![Vec::new(); archs.len()];
    for group in records.chunks_exact(archs.len() + 1) {
        let base = &group[0];
        labels.push(base.workload.clone());
        for (i, r) in group[1..].iter().enumerate() {
            matrix[i].push(r.exec_cycles as f64 / base.exec_cycles as f64);
        }
    }
    Figure {
        title,
        labels,
        series: archs
            .iter()
            .zip(matrix)
            .map(|(a, v)| (a.name().to_string(), v))
            .collect(),
    }
}

// -------------------------------------------------------------------
// Figures 11 and 12: RCCPI scatter plots
// -------------------------------------------------------------------

/// One scatter point for Figures 11/12.
#[derive(Debug, Clone)]
pub struct ScatterPoint {
    /// Application label.
    pub app: String,
    /// 1000 × RCCPI.
    pub rccpi_x1000: f64,
    /// Requests per controller per µs on HWC.
    pub hwc_rate: f64,
    /// Requests per controller per µs on PPC.
    pub ppc_rate: f64,
    /// Requests per controller per µs on 2HWC.
    pub two_hwc_rate: f64,
    /// PP penalty.
    pub pp_penalty: f64,
}

/// Data shared by Figures 11 and 12.
#[derive(Debug, Clone)]
pub struct ScatterData {
    /// One point per application.
    pub points: Vec<ScatterPoint>,
}

/// Runs the Figure 11/12 sweep through a sweep [`Runner`].
pub fn scatter_with(runner: &Runner) -> ScatterData {
    let archs = [Architecture::Hwc, Architecture::Ppc, Architecture::TwoHwc];
    let mut keys = Vec::new();
    for app in table6_apps() {
        for arch in archs {
            keys.push(RunKey::new(app, arch));
        }
    }
    let points = runner
        .run(&keys)
        .chunks_exact(archs.len())
        .map(|group| {
            let (hwc, ppc, two_hwc) = (&group[0], &group[1], &group[2]);
            ScatterPoint {
                app: hwc.workload.clone(),
                rccpi_x1000: hwc.rccpi() * 1000.0,
                hwc_rate: hwc.arrival_rate_per_us,
                ppc_rate: ppc.arrival_rate_per_us,
                two_hwc_rate: two_hwc.arrival_rate_per_us,
                pp_penalty: penalty(hwc.exec_cycles, ppc.exec_cycles),
            }
        })
        .collect();
    ScatterData { points }
}

impl ScatterData {
    /// Renders Figure 11: arrival rate vs RCCPI per architecture.
    pub fn render_fig11(&self) -> String {
        let mut t = TextTable::new(vec![
            "application",
            "1000 x RCCPI",
            "req/us 2HWC",
            "req/us HWC",
            "req/us PPC",
        ])
        .with_title("Figure 11: coherence controller bandwidth limitations");
        let mut points = self.points.clone();
        points.sort_by(|a, b| a.rccpi_x1000.total_cmp(&b.rccpi_x1000));
        for p in &points {
            t.row(vec![
                p.app.clone(),
                num(p.rccpi_x1000, 2),
                num(p.two_hwc_rate, 2),
                num(p.hwc_rate, 2),
                num(p.ppc_rate, 2),
            ]);
        }
        t.render()
    }

    /// Renders Figure 12: PP penalty vs RCCPI.
    pub fn render_fig12(&self) -> String {
        let mut t = TextTable::new(vec!["application", "1000 x RCCPI", "PP penalty"])
            .with_title("Figure 12: effect of communication rate on PP penalty");
        let mut points = self.points.clone();
        points.sort_by(|a, b| a.rccpi_x1000.total_cmp(&b.rccpi_x1000));
        for p in &points {
            t.row(vec![
                p.app.clone(),
                num(p.rccpi_x1000, 2),
                pct(p.pp_penalty),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        for table in [table1(), table2(), table4(), table5()] {
            let s = table.render();
            assert!(s.lines().count() > 3, "table too short:\n{s}");
        }
        assert!(table3().render().contains("total"));
    }

    #[test]
    fn table4_shows_ppc_slower_everywhere() {
        let rendered = table4().render();
        assert!(rendered.contains("bus read remote"));
        assert!(rendered.contains("invalidation request from home to sharer"));
    }

    #[test]
    fn config_for_respects_32_proc_apps() {
        let opts = Options::repro();
        let lu = config_for(SuiteApp::Lu, Architecture::Hwc, opts, ConfigMods::default());
        assert_eq!(lu.nprocs(), 32);
        let ocean = config_for(
            SuiteApp::OceanBase,
            Architecture::Hwc,
            opts,
            ConfigMods::default(),
        );
        assert_eq!(ocean.nprocs(), 64);
    }

    #[test]
    fn ppn_sweep_keeps_total_processors() {
        let opts = Options::repro();
        for p in [1, 2, 4, 8] {
            let cfg = config_for(
                SuiteApp::OceanBase,
                Architecture::Hwc,
                opts,
                ConfigMods {
                    procs_per_node: Some(p),
                    ..ConfigMods::default()
                },
            );
            assert_eq!(cfg.nprocs(), 64, "ppn={p}");
        }
    }

    #[test]
    fn quick_fig6_runs() {
        let fig = fig6_with(&Runner::sequential(Options::quick()));
        assert_eq!(fig.labels.len(), 8);
        assert_eq!(fig.series.len(), 4);
        // HWC normalizes to 1.0.
        for v in &fig.series[0].1 {
            assert!((v - 1.0).abs() < 1e-12);
        }
        // PPC loses on average; at tiny scale an individual imbalanced
        // app can flip through lock-scheduling noise.
        let ppc = &fig.series[2].1;
        let mean = ppc.iter().sum::<f64>() / ppc.len() as f64;
        assert!(mean >= 1.0, "PPC mean normalized time {mean} < 1");
        for v in ppc {
            assert!(*v >= 0.85, "PPC normalized time {v} implausibly low");
        }
    }
}
