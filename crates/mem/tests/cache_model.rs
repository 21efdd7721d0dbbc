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
    /// Per set: (line, state, payload, pinned), most-recently-used last.
    contents: HashMap<u64, Vec<(u64, LineState, u64, bool)>>,
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

    fn entry(&mut self, line: u64) -> Option<&mut (u64, LineState, u64, bool)> {
        let set = self.set_of(line);
        self.contents
            .get_mut(&set)?
            .iter_mut()
            .find(|(l, ..)| *l == line)
    }

    fn state_of(&self, line: u64) -> LineState {
        self.contents
            .get(&self.set_of(line))
            .and_then(|s| s.iter().find(|(l, ..)| *l == line))
            .map(|&(_, st, ..)| st)
            .unwrap_or(LineState::Invalid)
    }

    fn access(&mut self, line: u64, kind: AccessKind) -> LineState {
        let set = self.set_of(line);
        let entries = self.contents.entry(set).or_default();
        if let Some(pos) = entries.iter().position(|(l, ..)| *l == line) {
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

    /// Whether a fill of `line` has a way to go to: a free one, or an
    /// unpinned one to evict.
    fn can_fill(&self, line: u64) -> bool {
        self.contents
            .get(&self.set_of(line))
            .is_none_or(|e| e.len() < self.ways || e.iter().any(|&(.., pinned)| !pinned))
    }

    fn fill(&mut self, line: u64, state: LineState, payload: u64) -> Option<Eviction> {
        let ways = self.ways;
        let set = self.set_of(line);
        let entries = self.contents.entry(set).or_default();
        assert!(entries.iter().all(|(l, ..)| *l != line));
        let evicted = if entries.len() == ways {
            // The least recently used unpinned line.
            let pos = entries.iter().position(|&(.., pinned)| !pinned).unwrap();
            let (l, st, pl, _) = entries.remove(pos);
            Some(Eviction {
                line: LineAddr(l),
                state: st,
                payload: pl,
            })
        } else {
            None
        };
        entries.push((line, state, payload, false));
        evicted
    }

    fn invalidate(&mut self, line: u64) -> Option<(LineState, u64)> {
        let set = self.set_of(line);
        let entries = self.contents.get_mut(&set)?;
        let pos = entries.iter().position(|(l, ..)| *l == line)?;
        let (_, st, pl, _) = entries.remove(pos);
        Some((st, pl))
    }

    /// Every resident line as `(line, state, payload)`, sorted.
    fn resident(&self) -> Vec<(u64, LineState, u64)> {
        let mut lines: Vec<_> = self
            .contents
            .values()
            .flatten()
            .map(|&(l, st, pl, _)| (l, st, pl))
            .collect();
        lines.sort_unstable();
        lines
    }
}

/// One operation on a line, named by its index among the test's lines.
#[derive(Debug, Clone)]
enum CacheOp {
    Access(u64, bool),
    Fill(u64, u8, u64),
    Invalidate(u64),
    SetState(u64, u8),
    Pin(u64),
    Unpin(u64),
    SetPayload(u64, u64),
}

fn random_op(rng: &mut SplitMix64, lines: u64) -> CacheOp {
    let line = rng.next_below(lines);
    match rng.next_below(7) {
        0 => CacheOp::Access(line, rng.chance(0.5)),
        1 => CacheOp::Fill(line, rng.next_below(3) as u8, rng.next_u64()),
        2 => CacheOp::Invalidate(line),
        3 => CacheOp::SetState(line, rng.next_below(3) as u8),
        4 => CacheOp::Pin(line),
        5 => CacheOp::Unpin(line),
        _ => CacheOp::SetPayload(line, rng.next_u64()),
    }
}

fn state_from(code: u8) -> LineState {
    match code {
        0 => LineState::Shared,
        1 => LineState::Exclusive,
        _ => LineState::Modified,
    }
}

/// The test's lines: `base + index` for `index` below `count`.
#[derive(Debug, Clone, Copy)]
struct Lines {
    base: u64,
    count: u64,
}

impl Lines {
    fn from_zero(count: u64) -> Lines {
        Lines { base: 0, count }
    }

    /// Lines whose tags straddle 2^57 in a cache of `sets` sets.
    fn near_2_57(count: u64, sets: u64) -> Lines {
        Lines {
            base: ((1 << 57) - count / sets / 2) * sets,
            count,
        }
    }

    fn line(&self, index: u64) -> u64 {
        self.base + index
    }
}

/// Applies `op` to both caches and asserts that they agree on its
/// outcome and, afterwards, on the state and payload of every line.
fn apply(cache: &mut SetAssocCache, model: &mut RefCache, op: CacheOp, lines: Lines, case: u64) {
    let resident =
        |cache: &SetAssocCache, l: u64| cache.state_of(LineAddr(l)) != LineState::Invalid;
    match op {
        CacheOp::Access(l, write) => {
            let l = lines.line(l);
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
            let l = lines.line(l);
            // Fills pair with misses, and a set whose every way is
            // pinned cannot take one.
            if !resident(cache, l) && model.can_fill(l) {
                let state = state_from(s);
                let got = cache.fill(LineAddr(l), state, p);
                let want = model.fill(l, state, p);
                assert_eq!(got, want, "case {case}: evictions must match");
            }
        }
        CacheOp::Invalidate(l) => {
            let l = lines.line(l);
            assert_eq!(
                cache.invalidate(LineAddr(l)),
                model.invalidate(l),
                "case {case}"
            );
        }
        CacheOp::SetState(l, s) => {
            let l = lines.line(l);
            if resident(cache, l) {
                let state = state_from(s);
                cache.set_state(LineAddr(l), state);
                model.entry(l).unwrap().1 = state;
            }
        }
        CacheOp::Pin(l) => {
            let l = lines.line(l);
            if resident(cache, l) {
                cache.pin(LineAddr(l));
                model.entry(l).unwrap().3 = true;
            }
        }
        CacheOp::Unpin(l) => {
            let l = lines.line(l);
            cache.unpin(LineAddr(l));
            if let Some(e) = model.entry(l) {
                e.3 = false;
            }
        }
        CacheOp::SetPayload(l, p) => {
            let l = lines.line(l);
            if resident(cache, l) {
                cache.set_payload(LineAddr(l), p);
                model.entry(l).unwrap().2 = p;
            }
        }
    }
    // Spot-check agreement on every line we know about.
    for i in 0..lines.count {
        let l = lines.line(i);
        assert_eq!(
            cache.state_of(LineAddr(l)),
            model.state_of(l),
            "case {case}: state divergence on line {l:#x}"
        );
        assert_eq!(
            cache.payload_of(LineAddr(l)),
            model.entry(l).map(|e| e.2),
            "case {case}: payload divergence on line {l:#x}"
        );
    }
}

/// Runs `cases` random operation streams of `len` operations over
/// `lines` against the reference model.
fn differential(geometry: CacheGeometry, lines: Lines, seed: u64, cases: u64) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(seed + case);
        let n = 1 + rng.next_below(299) as usize;
        let mut cache = SetAssocCache::new(geometry);
        let mut model = RefCache::new(geometry);
        for _ in 0..n {
            let op = random_op(&mut rng, lines.count);
            apply(&mut cache, &mut model, op, lines, case);
        }
        let mut got: Vec<_> = cache
            .iter_resident()
            .map(|(l, st, p)| (l.0, st, p))
            .collect();
        got.sort_unstable();
        assert_eq!(
            got,
            model.resident(),
            "case {case}: resident lines must match"
        );
    }
}

const SMALL: CacheGeometry = CacheGeometry {
    size_bytes: 1024,
    line_bytes: 64,
    ways: 2,
};

#[test]
fn cache_matches_reference_model() {
    differential(SMALL, Lines::from_zero(64), 0xCAC4E, 64);
}

#[test]
fn cache_matches_reference_model_on_tags_near_2_57() {
    differential(SMALL, Lines::near_2_57(64, SMALL.sets()), 0x5757, 64);
}

/// `op` with its line moved into one of `sets`, keeping the line's tag.
fn confine(op: CacheOp, total_sets: u64, sets: &[u64]) -> CacheOp {
    let move_line = |l: u64| l - l % total_sets + sets[(l % sets.len() as u64) as usize];
    match op {
        CacheOp::Access(l, w) => CacheOp::Access(move_line(l), w),
        CacheOp::Fill(l, s, p) => CacheOp::Fill(move_line(l), s, p),
        CacheOp::Invalidate(l) => CacheOp::Invalidate(move_line(l)),
        CacheOp::SetState(l, s) => CacheOp::SetState(move_line(l), s),
        CacheOp::Pin(l) => CacheOp::Pin(move_line(l)),
        CacheOp::Unpin(l) => CacheOp::Unpin(move_line(l)),
        CacheOp::SetPayload(l, p) => CacheOp::SetPayload(move_line(l), p),
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
    for (lines, seed) in [
        (Lines::from_zero(8 * total_sets), 0x1A2E),
        (Lines::near_2_57(8 * total_sets, total_sets), 0x2A2E),
    ] {
        for case in 0..32u64 {
            let mut rng = SplitMix64::new(seed + case);
            // A few sets, in random order, are the only ones touched at
            // first; later the stream spreads over every set.
            let few: Vec<u64> = (0..3).map(|_| rng.next_below(total_sets)).collect();
            let mut cache = SetAssocCache::new(geometry);
            let mut model = RefCache::new(geometry);
            for i in 0..600 {
                let op = random_op(&mut rng, lines.count);
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
            assert_eq!(
                got,
                model.resident(),
                "case {case}: resident lines must match"
            );
        }
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
