//! Property tests for the reservation server and the event queue: the
//! conservation and ordering laws every timing model in the workspace
//! depends on.
//!
//! Cases are generated with the in-tree deterministic RNG rather than a
//! property-testing framework, so the suite is hermetic (no registry
//! dependencies) and every run exercises exactly the same inputs.

use ccn_sim::{EventQueue, Server, SplitMix64};

const CASES: u64 = 128;

/// Grants never overlap, never precede their request, and total busy
/// time equals the sum of requested durations.
#[test]
fn server_grants_are_disjoint_and_conserve_time() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xA11C + case);
        let n = 1 + rng.next_below(199) as usize;
        let requests: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.next_below(10_000), 1 + rng.next_below(99)))
            .collect();
        let mut server = Server::new("prop");
        let mut intervals = Vec::new();
        let mut total = 0;
        for &(t, d) in &requests {
            let grant = server.acquire(t, d);
            assert!(grant >= t, "case {case}: grant {grant} before request {t}");
            intervals.push((grant, grant + d));
            total += d;
        }
        assert_eq!(server.busy_cycles(), total, "case {case}");
        // Grants are handed out in call order and never overlap.
        for w in intervals.windows(2) {
            assert!(w[1].0 >= w[0].1, "case {case}: overlapping grants {w:?}");
        }
    }
}

/// Busy time never exceeds a window that covers all grants.
#[test]
fn server_busy_time_fits_the_window() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xB22D + case);
        let n = 1 + rng.next_below(99) as usize;
        let mut server = Server::new("prop");
        let mut end = 0;
        for _ in 0..n {
            let t = rng.next_below(1_000);
            let d = 1 + rng.next_below(49);
            let grant = server.acquire(t, d);
            end = end.max(grant + d);
        }
        assert!(server.busy_cycles() <= end, "case {case}");
    }
}

/// Events come out in timestamp order, FIFO among equal stamps, and
/// nothing is lost.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC33E + case);
        let n = 1 + rng.next_below(299) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.next_below(1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last: Option<(u64, usize)> = None;
        let mut seen = vec![false; times.len()];
        while let Some((t, i)) = q.pop() {
            assert_eq!(times[i], t, "case {case}: event carries its own timestamp");
            if let Some((lt, li)) = last {
                assert!(
                    t > lt || (t == lt && i > li),
                    "case {case}: stable order violated"
                );
            }
            seen[i] = true;
            last = Some((t, i));
        }
        assert!(
            seen.iter().all(|&s| s),
            "case {case}: every event must come out"
        );
    }
}

/// The RNG produces identical streams for identical seeds and bounded
/// values stay in range.
#[test]
fn rng_determinism_and_bounds() {
    let mut meta = SplitMix64::new(0xD44F);
    for case in 0..CASES {
        let seed = meta.next_u64();
        let bound = 1 + meta.next_below(999_999);
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        for _ in 0..100 {
            let x = a.next_below(bound);
            assert_eq!(x, b.next_below(bound), "case {case}");
            assert!(x < bound, "case {case}");
        }
    }
}
