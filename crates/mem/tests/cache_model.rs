//! Model-based property tests: `SetAssocCache` against a naive reference
//! implementation (per-set vectors with explicit LRU ordering).
//!
//! Operation sequences are generated with the in-tree deterministic RNG,
//! so the suite is hermetic and every run replays the same cases.

use std::collections::HashMap;

use ccn_mem::{AccessKind, CacheGeometry, Eviction, LineAddr, LineState, SetAssocCache};
use ccn_sim::SplitMix64;

/// A deliberately slow but obviously correct reference cache.
struct RefCache {
    sets: u64,
    ways: usize,
    /// Per set: (line, state, payload), most-recently-used last.
    contents: HashMap<u64, Vec<(u64, LineState, u64)>>,
}

impl RefCache {
    fn new(geometry: CacheGeometry) -> Self {
        RefCache {
            sets: geometry.sets(),
            ways: geometry.ways as usize,
            contents: HashMap::new(),
        }
    }

    fn set_of(&self, line: u64) -> u64 {
        line % self.sets
    }

    fn state_of(&self, line: u64) -> LineState {
        self.contents
            .get(&self.set_of(line))
            .and_then(|s| s.iter().find(|(l, _, _)| *l == line))
            .map(|(_, st, _)| *st)
            .unwrap_or(LineState::Invalid)
    }

    fn access(&mut self, line: u64, kind: AccessKind) -> LineState {
        let set = self.set_of(line);
        let entries = self.contents.entry(set).or_default();
        if let Some(pos) = entries.iter().position(|(l, _, _)| *l == line) {
            let state = entries[pos].1;
            let hit = match kind {
                AccessKind::Read => state.readable(),
                AccessKind::Write => state.writable(),
            };
            if hit {
                let e = entries.remove(pos);
                entries.push(e); // MRU
            }
            state
        } else {
            LineState::Invalid
        }
    }

    fn fill(&mut self, line: u64, state: LineState, payload: u64) -> Option<Eviction> {
        let ways = self.ways;
        let set = self.set_of(line);
        let entries = self.contents.entry(set).or_default();
        assert!(entries.iter().all(|(l, _, _)| *l != line));
        let evicted = if entries.len() == ways {
            let (l, st, pl) = entries.remove(0); // LRU first
            Some(Eviction {
                line: LineAddr(l),
                state: st,
                payload: pl,
            })
        } else {
            None
        };
        entries.push((line, state, payload));
        evicted
    }

    fn invalidate(&mut self, line: u64) -> Option<(LineState, u64)> {
        let set = self.set_of(line);
        let entries = self.contents.get_mut(&set)?;
        let pos = entries.iter().position(|(l, _, _)| *l == line)?;
        let (_, st, pl) = entries.remove(pos);
        Some((st, pl))
    }
}

#[derive(Debug, Clone)]
enum CacheOp {
    Access(u64, bool),
    Fill(u64, u8, u64),
    Invalidate(u64),
    SetState(u64, u8),
}

fn random_op(rng: &mut SplitMix64, lines: u64) -> CacheOp {
    match rng.next_below(4) {
        0 => CacheOp::Access(rng.next_below(lines), rng.chance(0.5)),
        1 => CacheOp::Fill(
            rng.next_below(lines),
            rng.next_below(3) as u8,
            rng.next_u64(),
        ),
        2 => CacheOp::Invalidate(rng.next_below(lines)),
        _ => CacheOp::SetState(rng.next_below(lines), rng.next_below(3) as u8),
    }
}

fn state_from(code: u8) -> LineState {
    match code {
        0 => LineState::Shared,
        1 => LineState::Exclusive,
        _ => LineState::Modified,
    }
}

/// Applies `op` to both caches and asserts that they agree on its
/// outcome and, afterwards, on the state of every line below `lines`.
fn apply(cache: &mut SetAssocCache, model: &mut RefCache, op: CacheOp, lines: u64, case: u64) {
    match op {
        CacheOp::Access(l, write) => {
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            assert_eq!(
                cache.access(LineAddr(l), kind),
                model.access(l, kind),
                "case {case}"
            );
        }
        CacheOp::Fill(l, s, p) => {
            if cache.state_of(LineAddr(l)) == LineState::Invalid {
                // Fills pair with misses.
                let state = state_from(s);
                let got = cache.fill(LineAddr(l), state, p);
                let want = model.fill(l, state, p);
                assert_eq!(got, want, "case {case}: evictions must match");
            }
        }
        CacheOp::Invalidate(l) => {
            assert_eq!(
                cache.invalidate(LineAddr(l)),
                model.invalidate(l),
                "case {case}"
            );
        }
        CacheOp::SetState(l, s) => {
            if cache.state_of(LineAddr(l)) != LineState::Invalid {
                let state = state_from(s);
                cache.set_state(LineAddr(l), state);
                let set = model.set_of(l);
                let entries = model.contents.get_mut(&set).unwrap();
                let pos = entries.iter().position(|(x, _, _)| *x == l).unwrap();
                entries[pos].1 = state;
            }
        }
    }
    // Spot-check agreement on every line we know about.
    for l in 0..lines {
        assert_eq!(
            cache.state_of(LineAddr(l)),
            model.state_of(l),
            "case {case}: state divergence on line {l}"
        );
    }
}

#[test]
fn cache_matches_reference_model() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0xCAC4E + case);
        let n = 1 + rng.next_below(299) as usize;
        let geometry = CacheGeometry {
            size_bytes: 1024,
            line_bytes: 64,
            ways: 2,
        };
        let mut cache = SetAssocCache::new(geometry);
        let mut model = RefCache::new(geometry);
        for _ in 0..n {
            let op = random_op(&mut rng, 64);
            apply(&mut cache, &mut model, op, 64, case);
        }
    }
}

/// `op` with its line moved into one of `sets`, keeping the line's tag.
fn confine(op: CacheOp, total_sets: u64, sets: &[u64]) -> CacheOp {
    let move_line = |l: u64| l - l % total_sets + sets[(l % sets.len() as u64) as usize];
    match op {
        CacheOp::Access(l, w) => CacheOp::Access(move_line(l), w),
        CacheOp::Fill(l, s, p) => CacheOp::Fill(move_line(l), s, p),
        CacheOp::Invalidate(l) => CacheOp::Invalidate(move_line(l)),
        CacheOp::SetState(l, s) => CacheOp::SetState(move_line(l), s),
    }
}

#[test]
fn cache_matches_reference_model_as_sets_fill_for_the_first_time() {
    let geometry = CacheGeometry {
        size_bytes: 4096,
        line_bytes: 64,
        ways: 4,
    };
    let total_sets = geometry.sets();
    let lines = 8 * total_sets;
    for case in 0..32u64 {
        let mut rng = SplitMix64::new(0x1A2E + case);
        // A few sets, in random order, are the only ones touched at first;
        // later the stream spreads over every set.
        let few: Vec<u64> = (0..3).map(|_| rng.next_below(total_sets)).collect();
        let mut cache = SetAssocCache::new(geometry);
        let mut model = RefCache::new(geometry);
        for i in 0..600 {
            let op = random_op(&mut rng, lines);
            let op = if i < 200 {
                confine(op, total_sets, &few)
            } else {
                op
            };
            apply(&mut cache, &mut model, op, lines, case);
        }
        let got: Vec<_> = cache.iter_resident().collect();
        assert!(
            got.windows(2)
                .all(|w| w[0].0 .0 % total_sets <= w[1].0 .0 % total_sets),
            "case {case}: resident lines must come in ascending set order"
        );
        let mut got: Vec<_> = got.into_iter().map(|(l, st, p)| (l.0, st, p)).collect();
        got.sort_unstable();
        let mut want: Vec<_> = model.contents.values().flatten().copied().collect();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}: resident lines must match");
    }
}

#[test]
fn resident_count_never_exceeds_capacity() {
    for case in 0..64u64 {
        let mut rng = SplitMix64::new(0x0CCF + case);
        let n = 1 + rng.next_below(299) as usize;
        let geometry = CacheGeometry {
            size_bytes: 2048,
            line_bytes: 64,
            ways: 4,
        };
        let mut cache = SetAssocCache::new(geometry);
        let capacity = (geometry.size_bytes / geometry.line_bytes) as usize;
        for _ in 0..n {
            if let CacheOp::Fill(l, s, p) = random_op(&mut rng, 256) {
                if cache.state_of(LineAddr(l)) == LineState::Invalid {
                    cache.fill(LineAddr(l), state_from(s), p);
                }
            }
            assert!(cache.resident_lines() <= capacity, "case {case}");
        }
    }
}
