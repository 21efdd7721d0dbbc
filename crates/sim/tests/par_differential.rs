//! Differential tests for the conservative parallel engine
//! (`ccn_sim::par`) against the sequential calendar [`EventQueue`].
//!
//! The same randomized branching workload is driven through both
//! engines and the *complete delivered order* — `(cycle, shard, event)`
//! triple by triple — must match, including the FIFO tie-break among
//! same-cycle events whose parents executed on different shards. The
//! adversarial cases pin the boundary semantics: emissions landing
//! exactly on the window edge, zero-delay self-send chains, far-future
//! emissions colliding on shared cycles past the calendar's horizon, and
//! a mutation test that shrinks the lookahead below the model's actual
//! cross-shard delay and expects the safety panic, not a reordering.

use ccn_sim::par::{run_conservative, Emission};
use ccn_sim::{Cycle, EventQueue, SplitMix64};

/// Cross-shard emissions are delayed by at least this many cycles.
const LOOKAHEAD: Cycle = 7;

/// An event: the high byte is the remaining branching depth, the rest is
/// a seed for the deterministic emission pattern.
type Ev = u64;

fn ev(depth: u64, seed: u64) -> Ev {
    (depth << 56) | (seed & ((1 << 56) - 1))
}

/// Deterministic handler: branch into up to three children with
/// payload-derived targets and delays. `min_cross` is the smallest delay
/// used for a cross-shard emission — the honest model uses `LOOKAHEAD`,
/// the mutation test lies.
fn branch(
    shard: usize,
    payload: Ev,
    nshards: usize,
    min_cross: Cycle,
    out: &mut Vec<Emission<Ev>>,
) {
    let depth = payload >> 56;
    if depth == 0 {
        return;
    }
    let mut rng = SplitMix64::new(payload);
    let kids = rng.next_below(4);
    for _ in 0..kids {
        let to = rng.next_below(nshards as u64) as usize;
        // Small delay ranges create heavy same-cycle collisions both
        // within a shard and across the boundary.
        let delay = if to == shard {
            rng.next_below(4)
        } else {
            min_cross + rng.next_below(3)
        };
        out.push(Emission {
            to,
            delay,
            ev: ev(depth - 1, rng.next_u64()),
        });
    }
}

/// The obviously-correct reference: one sequential calendar queue over
/// `(shard, event)` pairs, popped to completion, with the handler
/// signature of [`run_conservative`].
fn run_sequential(
    seeds: &[(Cycle, usize, Ev)],
    handler: impl Fn(usize, Cycle, &Ev, &mut Vec<Emission<Ev>>),
) -> Vec<(Cycle, usize, Ev)> {
    let mut queue: EventQueue<(usize, Ev)> = EventQueue::new();
    for &(at, shard, payload) in seeds {
        queue.schedule(at, (shard, payload));
    }
    let mut out = Vec::new();
    let mut emissions = Vec::new();
    while let Some((t, (shard, payload))) = queue.pop() {
        out.push((t, shard, payload));
        emissions.clear();
        handler(shard, t, &payload, &mut emissions);
        for em in emissions.drain(..) {
            queue.schedule(t + em.delay, (em.to, em.ev));
        }
    }
    out
}

fn make_seeds(rng: &mut SplitMix64, nshards: usize, count: usize) -> Vec<(Cycle, usize, Ev)> {
    (0..count)
        .map(|_| {
            let at = rng.next_below(20);
            let shard = rng.next_below(nshards as u64) as usize;
            let depth = 2 + rng.next_below(4);
            (at, shard, ev(depth, rng.next_u64()))
        })
        .collect()
}

fn differential_case(seed: u64, nshards: usize, threads: usize) {
    let mut rng = SplitMix64::new(seed);
    let seeds = make_seeds(&mut rng, nshards, 40);
    let handler = |s, _, e: &Ev, out: &mut Vec<_>| branch(s, *e, nshards, LOOKAHEAD, out);
    let expected = run_sequential(&seeds, handler);
    let got = run_conservative(seeds, nshards, LOOKAHEAD, threads, handler);
    assert_eq!(
        got, expected,
        "parallel pop order diverged (seed {seed}, {nshards} shards, {threads} threads)"
    );
    assert!(!expected.is_empty());
}

#[test]
fn randomized_merge_matches_sequential_pop_order() {
    for seed in 0..12 {
        for nshards in [1, 2, 3, 4] {
            for threads in [1, 2, 4] {
                differential_case(0xC0FFEE ^ seed, nshards, threads);
            }
        }
    }
}

/// Like [`branch`], but most children land past a calendar wheel's
/// horizon: 1,100–1,400 or 4,200–4,500 cycles ahead, snapped down to a
/// 16-cycle grid of absolute cycles so far arrivals from different
/// parents and shards collide. Cross-shard ones then reach the target's
/// far cycles at barriers, often ahead of entries already there.
fn branch_far(shard: usize, t: Cycle, payload: Ev, nshards: usize, out: &mut Vec<Emission<Ev>>) {
    let depth = payload >> 56;
    if depth == 0 {
        return;
    }
    let mut rng = SplitMix64::new(payload);
    let kids = rng.next_below(4);
    let grid = |ahead: Cycle| (t + ahead) / 16 * 16 - t;
    for _ in 0..kids {
        let to = rng.next_below(nshards as u64) as usize;
        let delay = match rng.next_below(3) {
            0 => grid(1_100 + rng.next_below(300)),
            1 => grid(4_200 + rng.next_below(300)),
            _ if to == shard => rng.next_below(4),
            _ => LOOKAHEAD + rng.next_below(3),
        };
        out.push(Emission {
            to,
            delay,
            ev: ev(depth - 1, rng.next_u64()),
        });
    }
}

#[test]
fn far_future_collisions_match_sequential() {
    for seed in 0..40 {
        for nshards in [2, 3, 4] {
            let mut rng = SplitMix64::new(0xFA2 ^ seed);
            let seeds = make_seeds(&mut rng, nshards, 40);
            let handler = |s, t, e: &Ev, out: &mut Vec<_>| branch_far(s, t, *e, nshards, out);
            let expected = run_sequential(&seeds, handler);
            for threads in [1, 2] {
                let got = run_conservative(seeds.clone(), nshards, LOOKAHEAD, threads, handler);
                assert_eq!(
                    got, expected,
                    "parallel pop order diverged (seed {seed}, {nshards} shards, \
                     {threads} threads)"
                );
            }
        }
    }
}

#[test]
fn window_edge_emissions_match_sequential() {
    // Every cross-shard emission lands exactly `LOOKAHEAD` after its
    // parent — i.e. exactly on the next window's opening edge when the
    // parent ran at the window start. The edge cycle must execute in the
    // *next* window, in canonical order.
    let nshards = 3;
    let seeds: Vec<(Cycle, usize, Ev)> = (0..nshards)
        .map(|s| (0, s, ev(5, 0x9E3779B9 + s as u64)))
        .collect();
    let edge = |shard: usize, payload: Ev, out: &mut Vec<Emission<Ev>>| {
        let depth = payload >> 56;
        if depth == 0 {
            return;
        }
        let mut rng = SplitMix64::new(payload);
        for _ in 0..2 {
            let to = rng.next_below(nshards as u64) as usize;
            let delay = if to == shard { 0 } else { LOOKAHEAD };
            out.push(Emission {
                to,
                delay,
                ev: ev(depth - 1, rng.next_u64()),
            });
        }
    };
    let expected = run_sequential(&seeds, |s, _, e, out| edge(s, *e, out));
    for threads in [1, 2] {
        let got = run_conservative(
            seeds.clone(),
            nshards,
            LOOKAHEAD,
            threads,
            |s, _, e, out| edge(s, *e, out),
        );
        assert_eq!(got, expected);
    }
}

#[test]
fn zero_delay_self_send_chains_match_sequential() {
    // Chains of zero-delay self-sends: each event spawns a same-cycle
    // child on its own shard plus a cross-shard cousin, so a single cycle
    // hosts a long FIFO run that the draining bucket must preserve while
    // barrier-inserted arrivals interleave at the same cycle later.
    let nshards = 2;
    let seeds = vec![(0, 0, ev(6, 1)), (0, 1, ev(6, 2)), (LOOKAHEAD, 0, ev(6, 3))];
    let chain = |shard: usize, payload: Ev, out: &mut Vec<Emission<Ev>>| {
        let depth = payload >> 56;
        if depth == 0 {
            return;
        }
        let mut rng = SplitMix64::new(payload);
        out.push(Emission {
            to: shard,
            delay: 0,
            ev: ev(depth - 1, rng.next_u64()),
        });
        if rng.chance(0.7) {
            out.push(Emission {
                to: 1 - shard,
                delay: LOOKAHEAD,
                ev: ev(depth - 1, rng.next_u64()),
            });
        }
    };
    let expected = run_sequential(&seeds, |s, _, e, out| chain(s, *e, out));
    for threads in [1, 2] {
        let got = run_conservative(
            seeds.clone(),
            nshards,
            LOOKAHEAD,
            threads,
            |s, _, e, out| chain(s, *e, out),
        );
        assert_eq!(got, expected);
    }
}

#[test]
#[should_panic(expected = "lookahead violation")]
fn shrunken_lookahead_panics_instead_of_reordering() {
    // Mutation test: the model actually sends cross-shard traffic with
    // delay `LOOKAHEAD - 1`, but the engine is promised `LOOKAHEAD`. The
    // safety check at the barrier must panic — silently delivering the
    // message would reorder it behind events the target shard already
    // executed.
    let mut rng = SplitMix64::new(42);
    let seeds = make_seeds(&mut rng, 2, 20);
    run_conservative(seeds, 2, LOOKAHEAD, 1, |s, _, e, out| {
        branch(s, *e, 2, LOOKAHEAD - 1, out)
    });
}

#[test]
fn threaded_engine_matches_inline_engine() {
    // The worker-pool path and the inline path must produce identical
    // output (they share every data structure; this pins the hand-off).
    let mut rng = SplitMix64::new(7);
    let seeds = make_seeds(&mut rng, 4, 60);
    let run = |threads| {
        run_conservative(seeds.clone(), 4, LOOKAHEAD, threads, |s, _, e, out| {
            branch(s, *e, 4, LOOKAHEAD, out)
        })
    };
    let inline = run(1);
    assert_eq!(run(2), inline);
    assert_eq!(run(4), inline);
}
