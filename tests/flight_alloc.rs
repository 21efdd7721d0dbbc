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
//! ring, to that bound.
//!
//! With the recorder off the bound is zero, on a machine with long
//! controller queues: the key-value mix on 8x2 PPC. Its pending events
//! must stay inside the event slab `Machine::new` sizes, which holds
//! only while queued requests do not each keep a wake-up of their own
//! pending. The same mix on 128x1 HWC with four-pointer limited
//! directories holds the handler scratch to zero as well: its
//! overflowed lines broadcast invalidations to up to 127 nodes from one
//! handler, and `Machine::new` sizes the step and send-time buffers for
//! that fan-out. On 256x1 HWC with full-map directories, each Shared
//! line's four-word sharer record takes a slot its directory reuses
//! once the line leaves Shared, so recycling records allocates nothing
//! either.

use std::alloc::{GlobalAlloc, Layout, System};

use ccn_bench::golden::kv_mix_spec;
use ccn_protocol::DirFormat;
use ccn_scenario::{scenario_config, Scenario};
use ccn_workloads::suite::SuiteApp;
use ccnuma::experiments::{config_for, ConfigMods, Options};
use ccnuma::{Architecture, Machine};

/// System allocator that reports every `alloc`/`realloc` to the gate,
/// which counts it only while a requested measured phase is live.
struct CountingAlloc;

// SAFETY: defers to `System` for every operation; the counter hook does
// not allocate and never observes the pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ccn_sim::alloc_gate::note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ccn_sim::alloc_gate::note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ccn_sim::alloc_gate::note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

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
            ccn_sim::alloc_gate::request();
            machine.run();
            let (allocs, bytes) = ccn_sim::alloc_gate::counts();
            ccn_sim::alloc_gate::reset();
            let recorder = machine.flight().expect("recorder on");
            assert!(recorder.transactions() > 0, "the run recorded transactions");
            assert!(
                allocs <= MAX_MEASURED_ALLOCS,
                "{} with a {capacity}-record ring: the measured phase allocated {allocs} \
                 time(s) ({bytes} bytes), over the bound of {MAX_MEASURED_ALLOCS}",
                arch.name()
            );
        }
    }

    // Recorder off: no allocation at all.
    let machines = [
        ("8x2 PPC", scenario_config(Architecture::Ppc, 8, 2)),
        (
            "128x1 HWC limited:4",
            scenario_config(Architecture::Hwc, 128, 1)
                .with_dir_format(DirFormat::Limited { ptrs: 4 }),
        ),
        ("256x1 HWC", scenario_config(Architecture::Hwc, 256, 1)),
    ];
    for (name, cfg) in machines {
        let mut machine = Machine::new(cfg, &Scenario::new(kv_mix_spec())).expect("valid config");
        ccn_sim::alloc_gate::request();
        let report = machine.run();
        let (allocs, bytes) = ccn_sim::alloc_gate::counts();
        ccn_sim::alloc_gate::reset();
        assert!(report.cc_arrivals > 0, "the run queued controller work");
        assert_eq!(
            allocs,
            0,
            "kv-mix on {name}, recorder off: the measured phase allocated {allocs} time(s) \
             ({bytes} bytes) at a peak of {} pending events",
            machine.max_pending_events()
        );
    }
}
