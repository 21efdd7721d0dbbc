//! Allocation guards for the measured phase, with the transaction flight
//! recorder on and off.
//!
//! The recorder is meant to be cheap enough to leave on. Its live table
//! is sized when it is enabled, so in the measured phase the only heap
//! traffic left is the completed ring, the hop arena and the hop-only
//! ring doubling up to their working size: a few dozen allocations, not
//! one per transaction. This binary installs its own counting global
//! allocator, forwarding every allocation to [`ccn_sim::alloc_gate`],
//! and holds quick Ocean on HWC and on 2PPC, with a large and a small
//! ring, to that bound. Each of those runs allocates at least once, so a
//! count of 0 fails too: it means the machine no longer arms the gate,
//! and every count below would read 0 whatever the run allocated.
//!
//! With the recorder off the bound is zero. Quick Ocean on 4x2 HWC is
//! the reference simulation at its smallest. The key-value mix on 8x2
//! PPC has long controller queues: its pending events must stay inside
//! the event slab `Machine::new` sizes, which holds only while queued
//! requests do not each keep a wake-up of their own pending. The same
//! mix on 128x1 HWC with four-pointer limited directories holds the
//! handler scratch to zero as well: its overflowed lines broadcast
//! invalidations to up to 127 nodes from one handler, and `Machine::new`
//! sizes the send-time buffer for that fan-out. On 256x1 HWC with
//! full-map directories, each Shared line's four-word sharer record
//! takes a slot its directory reuses once the line leaves Shared, so
//! recycling records allocates nothing either. Radix at its scaled data
//! set on 4x2 HWC, with the paper's 1 MB L2, fills cache sets for the
//! first time in its measured phase, and six of its eight L2s end it
//! with more than half their sets filled: each set's ways are written
//! on its first fill, inside the store `SetAssocCache::new` reserved
//! for every set, so first fills allocate nothing.
//!
//! To find the call site of a measured-phase allocation, run with
//! `ALLOC_TRACE=N`: each run then prints a backtrace for each of its
//! first N measured-phase allocations (`cargo test --release --test
//! flight_alloc`; a failing test shows them with its output).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ccn_bench::golden::kv_mix_spec;
use ccn_protocol::DirFormat;
use ccn_scenario::{scenario_config, Scenario};
use ccn_workloads::suite::{Scale, SuiteApp};
use ccn_workloads::Application;
use ccnuma::experiments::{config_for, ConfigMods, Options};
use ccnuma::{Architecture, Machine, SystemConfig};

/// System allocator that reports every `alloc`/`realloc` to the gate,
/// which counts it only while a requested measured phase is live.
struct CountingAlloc;

// SAFETY: defers to `System` for every operation; the counter hook does
// not allocate and never observes the pointers (a backtrace, when asked
// for, allocates through this allocator with the hook switched off).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Backtraces the current run may still print (`ALLOC_TRACE`).
static TRACES_LEFT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while this thread prints a backtrace, whose own allocations
    /// are neither counted nor traced.
    static IN_TRACE: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation of `size` bytes and, while the run has
/// backtraces left and its measured phase is live, prints where it came
/// from.
fn note(size: usize) {
    if IN_TRACE.get() {
        return;
    }
    ccn_sim::alloc_gate::note(size);
    if ccn_sim::alloc_gate::armed() && TRACES_LEFT.load(Relaxed) > 0 {
        TRACES_LEFT.fetch_sub(1, Relaxed);
        IN_TRACE.set(true);
        let trace = std::backtrace::Backtrace::force_capture();
        eprintln!("[alloc-trace] {size} bytes in the measured phase:\n{trace}");
        IN_TRACE.set(false);
    }
}

/// Arms the gate for the next run's measured phase, with `ALLOC_TRACE`
/// backtraces to print.
fn request_counting() {
    let traces = std::env::var("ALLOC_TRACE").map_or(0, |v| v.parse().unwrap_or(0));
    TRACES_LEFT.store(traces, Relaxed);
    ccn_sim::alloc_gate::request();
}

/// Measured-phase allocations allowed with the recorder on.
const MAX_MEASURED_ALLOCS: u64 = 64;

// One test function on purpose: the gate's counters are process-wide,
// so the runs must not overlap.
#[test]
fn recorder_on_measured_phase_allocates_a_bounded_number_of_times() {
    for arch in [Architecture::Hwc, Architecture::TwoPpc] {
        for capacity in [1 << 16, 256] {
            let opts = Options::quick();
            let app = SuiteApp::OceanBase;
            let cfg = config_for(app, arch, opts, ConfigMods::default());
            let instance = app.instantiate(opts.scale);
            let mut machine = Machine::new(cfg, instance.as_ref()).expect("valid config");
            machine.enable_flight_recorder(capacity);
            request_counting();
            machine.run();
            let (allocs, bytes) = ccn_sim::alloc_gate::counts();
            ccn_sim::alloc_gate::reset();
            let recorder = machine.flight().expect("recorder on");
            assert!(recorder.transactions() > 0, "the run recorded transactions");
            assert!(
                allocs > 0,
                "{} with a {capacity}-record ring: the measured phase counted no \
                 allocation, so the machine no longer arms the gate",
                arch.name()
            );
            assert!(
                allocs <= MAX_MEASURED_ALLOCS,
                "{} with a {capacity}-record ring: the measured phase allocated {allocs} \
                 time(s) ({bytes} bytes), over the bound of {MAX_MEASURED_ALLOCS}",
                arch.name()
            );
        }
    }

    // Recorder off: no allocation at all.
    let ocean = SuiteApp::OceanBase.instantiate(Options::quick().scale);
    let kv_mix = Scenario::new(kv_mix_spec());
    let radix_opts = Options {
        scale: Scale::Scaled,
        ..Options::quick()
    };
    let radix = SuiteApp::Radix.instantiate(radix_opts.scale);
    let machines: [(&str, SystemConfig, &dyn Application); 5] = [
        (
            "quick Ocean on 4x2 HWC",
            config_for(
                SuiteApp::OceanBase,
                Architecture::Hwc,
                Options::quick(),
                ConfigMods::default(),
            ),
            ocean.as_ref(),
        ),
        (
            "kv-mix on 8x2 PPC",
            scenario_config(Architecture::Ppc, 8, 2),
            &kv_mix,
        ),
        (
            "kv-mix on 128x1 HWC limited:4",
            scenario_config(Architecture::Hwc, 128, 1)
                .with_dir_format(DirFormat::Limited { ptrs: 4 }),
            &kv_mix,
        ),
        (
            "kv-mix on 256x1 HWC",
            scenario_config(Architecture::Hwc, 256, 1),
            &kv_mix,
        ),
        (
            "scaled Radix on 4x2 HWC",
            config_for(
                SuiteApp::Radix,
                Architecture::Hwc,
                radix_opts,
                ConfigMods::default(),
            ),
            radix.as_ref(),
        ),
    ];
    for (name, cfg, app) in machines {
        let mut machine = Machine::new(cfg, app).expect("valid config");
        request_counting();
        let report = machine.run();
        let (allocs, bytes) = ccn_sim::alloc_gate::counts();
        ccn_sim::alloc_gate::reset();
        assert!(report.cc_arrivals > 0, "the run queued controller work");
        assert_eq!(
            allocs,
            0,
            "{name}, recorder off: the measured phase allocated {allocs} time(s) \
             ({bytes} bytes) at a peak of {} pending events; ALLOC_TRACE=N prints \
             their call sites",
            machine.max_pending_events()
        );
    }
}
