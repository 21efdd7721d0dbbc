//! Set-associative LRU cache with MESI line states.
//!
//! The tag store is struct-of-arrays, like `LineTable`: one tag word per
//! way (the tag, the eviction pin and the MESI state packed together),
//! with the ways' LRU stamps and payloads in parallel stores. A set's
//! ways sit together as one block, found through a per-set block index,
//! so a probe compares the tag words of one block (at most the
//! associativity, typically 4, adjacent words) and touches nothing else.
//! A set's block is written the first time the set is filled and
//! appended in first-fill order inside stores reserved for every set up
//! front, so an untouched set costs neither a write nor a page, and
//! nothing reallocates during a run. There are no side maps: residency
//! is the tag match itself and the pin is a bit of the tag word, so the
//! probe and fill paths — the hottest in the whole simulator — allocate
//! nothing.

use std::ops::Range;

use crate::addr::LineAddr;

/// MESI state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LineState {
    /// Not present / no permission.
    Invalid,
    /// Readable; other copies may exist.
    Shared,
    /// Readable and writable; no other copies; memory is up to date.
    Exclusive,
    /// Readable and writable; no other copies; memory is stale.
    Modified,
}

impl LineState {
    /// Whether the line may be read without a coherence action.
    pub fn readable(self) -> bool {
        self != LineState::Invalid
    }

    /// Whether the line may be written without a coherence action.
    pub fn writable(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }
}

/// Read or write, for cache accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheGeometry {
    /// The paper's L1: 16 KB, 4-way (line size matches the system's).
    pub fn l1(line_bytes: u64) -> Self {
        CacheGeometry {
            size_bytes: 16 * 1024,
            line_bytes,
            ways: 4,
        }
    }

    /// The paper's L2: 1 MB, 4-way.
    pub fn l2(line_bytes: u64) -> Self {
        CacheGeometry {
            size_bytes: 1024 * 1024,
            line_bytes,
            ways: 4,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not an exact power-of-two split.
    pub fn sets(&self) -> u64 {
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways as u64),
            "capacity must be divisible into whole sets"
        );
        let sets = lines / self.ways as u64;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }
}

/// A tag word's low bits: the 2-bit MESI state (`LineState` order, so 0
/// is Invalid), then the eviction pin. The tag sits above them.
const STATE_BITS: u64 = 0b011;
/// Excludes the way from victim selection while an outstanding
/// transaction depends on the line staying resident.
const PIN: u64 = 0b100;
const TAG_SHIFT: u32 = 3;

/// The state held in a tag word.
fn state_of_word(word: u64) -> LineState {
    match word & STATE_BITS {
        0 => LineState::Invalid,
        1 => LineState::Shared,
        2 => LineState::Exclusive,
        _ => LineState::Modified,
    }
}

/// Block start of a set that has never been filled. Its block range
/// starts past the end of any way store, so a probe of it finds nothing.
const UNFILLED: u32 = u32::MAX;

/// Outcome of [`SetAssocCache::fill`]: the line that had to be displaced, if
/// any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The displaced line.
    pub line: LineAddr,
    /// Its state at eviction (dirty means a write-back is required).
    pub state: LineState,
    /// Its data payload.
    pub payload: u64,
}

/// A set-associative cache with true-LRU replacement and MESI states.
///
/// The cache is a *tag store with state*: the simulator carries a small
/// `payload` per line (used by the protocol-torture tests to check data
/// coherence) instead of actual data bytes.
///
/// # Example
///
/// ```
/// use ccn_mem::{CacheGeometry, LineAddr, LineState, SetAssocCache};
///
/// let mut cache = SetAssocCache::new(CacheGeometry { size_bytes: 1024, line_bytes: 64, ways: 2 });
/// assert_eq!(cache.state_of(LineAddr(3)), LineState::Invalid);
/// cache.fill(LineAddr(3), LineState::Shared, 0);
/// assert_eq!(cache.state_of(LineAddr(3)), LineState::Shared);
/// ```
#[derive(Debug)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    set_mask: u64,
    set_bits: u32,
    ways_per_set: usize,
    /// Per set: the index in the way stores of its block's first way, or
    /// `UNFILLED`.
    blocks: Vec<u32>,
    /// One word per way: the tag above `TAG_SHIFT`, then `PIN` and the
    /// state bits. One block of `ways_per_set` words per filled set, in
    /// first-fill order; `new` reserves room for every set, so it never
    /// reallocates.
    tags: Vec<u64>,
    /// Each way's last-use tick, parallel to `tags`.
    stamps: Vec<u64>,
    /// Each way's data payload (a write version number), parallel to
    /// `tags`.
    payloads: Vec<u64>,
    tick: u64,
    /// Number of non-Invalid ways, maintained incrementally.
    resident: usize,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into power-of-two sets.
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets();
        let ways_per_set = geometry.ways as usize;
        assert!(
            sets * geometry.ways as u64 <= UNFILLED as u64,
            "too many ways to index"
        );
        let ways = sets as usize * ways_per_set;
        SetAssocCache {
            geometry,
            set_mask: sets - 1,
            set_bits: (sets - 1).count_ones(),
            ways_per_set,
            blocks: vec![UNFILLED; sets as usize],
            tags: Vec::with_capacity(ways),
            stamps: Vec::with_capacity(ways),
            payloads: Vec::with_capacity(ways),
            tick: 0,
            resident: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize
    }

    /// The range of the way stores that holds `set`'s block. An unfilled
    /// set's range lies past their end.
    fn block(&self, set: usize) -> Range<usize> {
        let base = self.blocks[set] as usize;
        base..base + self.ways_per_set
    }

    /// Index of the way holding `line`, found by comparing the tag words
    /// of its set's block (a handful of adjacent words — no hashing).
    #[inline]
    fn slot(&self, line: LineAddr) -> Option<usize> {
        let tag = line.0 >> self.set_bits;
        let block = self.block(self.set_of(line));
        let base = block.start;
        self.tags
            .get(block)?
            .iter()
            .position(|&w| w & STATE_BITS != 0 && w >> TAG_SHIFT == tag)
            .map(|i| base + i)
    }

    /// The MESI state of `line` (Invalid if not resident). Does not touch
    /// LRU — this is the *snoop* path.
    pub fn state_of(&self, line: LineAddr) -> LineState {
        self.slot(line)
            .map_or(LineState::Invalid, |i| state_of_word(self.tags[i]))
    }

    /// The data payload of `line`, if resident.
    pub fn payload_of(&self, line: LineAddr) -> Option<u64> {
        self.slot(line).map(|i| self.payloads[i])
    }

    /// Performs a processor access: refreshes the line's LRU position on a
    /// hit and returns the pre-access state. The caller decides, from the
    /// state, whether a coherence action is needed; a hit for a write
    /// requires write permission.
    pub fn access(&mut self, line: LineAddr, kind: AccessKind) -> LineState {
        self.tick += 1;
        let Some(i) = self.slot(line) else {
            return LineState::Invalid;
        };
        let state = state_of_word(self.tags[i]);
        let hit = match kind {
            AccessKind::Read => state.readable(),
            AccessKind::Write => state.writable(),
        };
        if hit {
            self.stamps[i] = self.tick;
        }
        state
    }

    /// Installs `line` with `state` and `payload`, evicting the LRU way of
    /// the set if it is full. Returns the eviction, if one occurred.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident (fills must pair with
    /// misses), or if its tag does not fit a tag word (a line number at
    /// or above 2^61 times the set count).
    pub fn fill(&mut self, line: LineAddr, state: LineState, payload: u64) -> Option<Eviction> {
        assert!(
            self.slot(line).is_none(),
            "fill of already-resident line {line}"
        );
        assert!(state != LineState::Invalid, "cannot fill an Invalid line");
        let tag = line.0 >> self.set_bits;
        assert!(
            tag >> (u64::BITS - TAG_SHIFT) == 0,
            "line {line} is too wide to tag"
        );
        self.tick += 1;
        let set = self.set_of(line);
        if self.blocks[set] == UNFILLED {
            // The set's first fill: append its block to the stores.
            let end = self.tags.len() + self.ways_per_set;
            self.blocks[set] = self.tags.len() as u32;
            self.tags.resize(end, 0);
            self.stamps.resize(end, 0);
            self.payloads.resize(end, 0);
        }
        // Prefer an invalid way; otherwise evict true-LRU among unpinned.
        let mut victim = usize::MAX;
        let mut best = u64::MAX;
        for i in self.block(set) {
            let word = self.tags[i];
            if word & STATE_BITS == 0 {
                victim = i;
                break;
            }
            if self.stamps[i] < best && word & PIN == 0 {
                best = self.stamps[i];
                victim = i;
            }
        }
        assert!(
            victim != usize::MAX,
            "every way of the set is pinned; cannot fill {line}"
        );
        let old = self.tags[victim];
        let evicted = if old & STATE_BITS != 0 {
            self.resident -= 1;
            Some(Eviction {
                line: self.line_in_set(set, old >> TAG_SHIFT),
                state: state_of_word(old),
                payload: self.payloads[victim],
            })
        } else {
            None
        };
        self.tags[victim] = tag << TAG_SHIFT | state as u64;
        self.stamps[victim] = self.tick;
        self.payloads[victim] = payload;
        self.resident += 1;
        evicted
    }

    fn line_in_set(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr((tag << self.set_bits) | set as u64)
    }

    /// Changes the state of a resident line (upgrade, downgrade, or snoop
    /// response). Setting `Invalid` removes the line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn set_state(&mut self, line: LineAddr, state: LineState) {
        let i = self
            .slot(line)
            .unwrap_or_else(|| panic!("set_state on non-resident line {line}"));
        if state == LineState::Invalid {
            self.tags[i] &= !(PIN | STATE_BITS);
            self.resident -= 1;
        } else {
            self.tags[i] = self.tags[i] & !STATE_BITS | state as u64;
        }
    }

    /// Invalidates `line` if resident; returns its pre-invalidation state
    /// and payload, or `None` if it was not resident (e.g. silently
    /// dropped earlier).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<(LineState, u64)> {
        let i = self.slot(line)?;
        let state = state_of_word(self.tags[i]);
        self.tags[i] &= !(PIN | STATE_BITS);
        self.resident -= 1;
        Some((state, self.payloads[i]))
    }

    /// Updates the payload of a resident line (a completed store).
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn set_payload(&mut self, line: LineAddr, payload: u64) {
        let i = self
            .slot(line)
            .unwrap_or_else(|| panic!("set_payload on non-resident line {line}"));
        self.payloads[i] = payload;
    }

    /// Pins a resident line against eviction (an outstanding transaction
    /// depends on it staying resident).
    pub fn pin(&mut self, line: LineAddr) {
        let i = self.slot(line);
        debug_assert!(i.is_some(), "pin of non-resident {line}");
        if let Some(i) = i {
            self.tags[i] |= PIN;
        }
    }

    /// Releases a pin. Idempotent (a no-op on non-resident lines).
    pub fn unpin(&mut self, line: LineAddr) {
        if let Some(i) = self.slot(line) {
            self.tags[i] &= !PIN;
        }
    }

    /// Iterates over all resident lines as `(line, state, payload)`, in
    /// ascending set order.
    pub fn iter_resident(&self) -> impl Iterator<Item = (LineAddr, LineState, u64)> + '_ {
        (0..self.blocks.len()).flat_map(move |set| {
            let block = self.block(set);
            let base = block.start;
            self.tags
                .get(block)
                .unwrap_or_default()
                .iter()
                .enumerate()
                .filter(|&(_, &w)| w & STATE_BITS != 0)
                .map(move |(i, &w)| {
                    (
                        self.line_in_set(set, w >> TAG_SHIFT),
                        state_of_word(w),
                        self.payloads[base + i],
                    )
                })
        })
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways, 64 B lines
        SetAssocCache::new(CacheGeometry {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn geometry_sets() {
        assert_eq!(CacheGeometry::l2(128).sets(), 2048);
        assert_eq!(CacheGeometry::l1(128).sets(), 32);
        assert_eq!(CacheGeometry::l1(32).sets(), 128);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.access(LineAddr(5), AccessKind::Read), LineState::Invalid);
        assert!(c.fill(LineAddr(5), LineState::Shared, 7).is_none());
        assert_eq!(c.access(LineAddr(5), AccessKind::Read), LineState::Shared);
        assert_eq!(c.payload_of(LineAddr(5)), Some(7));
    }

    #[test]
    fn write_to_shared_counts_as_miss() {
        let mut c = small();
        c.fill(LineAddr(1), LineState::Shared, 0);
        assert_eq!(c.access(LineAddr(1), AccessKind::Write), LineState::Shared);
        c.set_state(LineAddr(1), LineState::Modified);
        assert_eq!(
            c.access(LineAddr(1), AccessKind::Write),
            LineState::Modified
        );
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // set = line % 4; lines 0, 4, 8 all map to set 0 (2 ways)
        c.fill(LineAddr(0), LineState::Shared, 0);
        c.fill(LineAddr(4), LineState::Shared, 0);
        c.access(LineAddr(0), AccessKind::Read); // 0 now MRU
        let ev = c
            .fill(LineAddr(8), LineState::Shared, 0)
            .expect("must evict");
        assert_eq!(ev.line, LineAddr(4));
        assert_eq!(c.state_of(LineAddr(0)), LineState::Shared);
        assert_eq!(c.state_of(LineAddr(4)), LineState::Invalid);
        assert_eq!(ev.state, LineState::Shared);
    }

    #[test]
    fn dirty_eviction_reports_payload() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Modified, 42);
        c.fill(LineAddr(4), LineState::Shared, 0);
        let ev = c
            .fill(LineAddr(8), LineState::Shared, 0)
            .expect("must evict");
        assert_eq!(ev.line, LineAddr(0));
        assert_eq!(ev.state, LineState::Modified);
        assert_eq!(ev.payload, 42);
    }

    #[test]
    fn invalidate_and_snoop() {
        let mut c = small();
        c.fill(LineAddr(9), LineState::Modified, 3);
        assert_eq!(c.state_of(LineAddr(9)), LineState::Modified);
        assert_eq!(c.invalidate(LineAddr(9)), Some((LineState::Modified, 3)));
        assert_eq!(c.state_of(LineAddr(9)), LineState::Invalid);
        assert_eq!(c.invalidate(LineAddr(9)), None);
    }

    #[test]
    fn fill_prefers_invalid_way() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Shared, 0);
        c.fill(LineAddr(4), LineState::Shared, 0);
        c.invalidate(LineAddr(0));
        // Set 0 has an invalid way; no eviction expected.
        assert!(c.fill(LineAddr(8), LineState::Shared, 0).is_none());
        assert_eq!(c.state_of(LineAddr(4)), LineState::Shared);
    }

    #[test]
    fn tag_reconstruction_round_trips() {
        let mut c = small();
        let line = LineAddr(0x1234_5678);
        c.fill(line, LineState::Exclusive, 1);
        // Force eviction from the same set.
        let set_mask = 3u64;
        let same_set_a = LineAddr((0xAAAA << 2) | (line.0 & set_mask));
        let same_set_b = LineAddr((0xBBBB << 2) | (line.0 & set_mask));
        c.fill(same_set_a, LineState::Shared, 0);
        let ev = c
            .fill(same_set_b, LineState::Shared, 0)
            .expect("evicts LRU");
        assert_eq!(ev.line, line);
    }

    #[test]
    fn resident_iteration() {
        let mut c = small();
        c.fill(LineAddr(1), LineState::Shared, 10);
        c.fill(LineAddr(2), LineState::Modified, 20);
        let mut got: Vec<_> = c.iter_resident().collect();
        got.sort();
        assert_eq!(
            got,
            vec![
                (LineAddr(1), LineState::Shared, 10),
                (LineAddr(2), LineState::Modified, 20)
            ]
        );
        assert_eq!(c.resident_lines(), 2);
    }

    /// The three way stores, for checks of their reservations.
    fn stores(c: &SetAssocCache) -> [&Vec<u64>; 3] {
        [&c.tags, &c.stamps, &c.payloads]
    }

    #[test]
    fn new_cache_holds_no_block() {
        let geometry = CacheGeometry::l2(128);
        let c = SetAssocCache::new(geometry);
        for store in stores(&c) {
            assert!(store.is_empty(), "no way is written before a fill");
            assert_eq!(store.capacity(), 2048 * 4, "room is reserved for every set");
        }
        assert!(c.blocks.iter().all(|&b| b == UNFILLED));
        assert_eq!(c.iter_resident().count(), 0);
        assert_eq!(c.state_of(LineAddr(0)), LineState::Invalid);
    }

    #[test]
    fn filling_every_set_never_moves_the_way_stores() {
        let geometry = CacheGeometry::l2(128);
        let sets = geometry.sets();
        let mut c = SetAssocCache::new(geometry);
        let reserved = stores(&c).map(|s| (s.as_ptr(), s.capacity()));
        // Five lines per set: every set is filled, then each evicts once.
        for line in 0..5 * sets {
            c.fill(LineAddr(line), LineState::Shared, line);
            assert_eq!(
                stores(&c).map(|s| (s.as_ptr(), s.capacity())),
                reserved,
                "a store moved or grew at line {line}"
            );
        }
        for store in stores(&c) {
            assert_eq!(store.len(), store.capacity(), "every set holds a block");
        }
        assert_eq!(c.resident_lines(), 4 * sets as usize);
    }

    #[test]
    fn tag_words_pack_wide_tags_beside_pin_and_state() {
        let mut c = small();
        // Tags at the top of the 61 bits a tag word holds.
        let widest = (1u64 << 61) - 1;
        let a = LineAddr(widest << 2 | 1);
        let b = LineAddr((widest - 1) << 2 | 1);
        c.fill(a, LineState::Modified, 5);
        c.pin(a);
        c.fill(b, LineState::Shared, 6);
        assert_eq!(c.state_of(a), LineState::Modified);
        assert_eq!(c.state_of(b), LineState::Shared);
        assert_eq!(c.state_of(LineAddr(1)), LineState::Invalid);
        // The pinned line is the LRU one, so the fill evicts `b`.
        let ev = c
            .fill(LineAddr(5), LineState::Exclusive, 7)
            .expect("evicts");
        assert_eq!((ev.line, ev.state, ev.payload), (b, LineState::Shared, 6));
        c.set_state(a, LineState::Exclusive);
        assert_eq!(
            c.state_of(a),
            LineState::Exclusive,
            "the pin survives a state change"
        );
        let ev = c.fill(LineAddr(9), LineState::Shared, 8).expect("evicts");
        assert_eq!(ev.line, LineAddr(5), "the pinned line is still skipped");
    }

    #[test]
    #[should_panic(expected = "too wide to tag")]
    fn fill_rejects_a_tag_past_the_tag_word() {
        let _ = small().fill(LineAddr(1 << 63), LineState::Shared, 0);
    }

    #[test]
    fn iter_resident_yields_sets_in_ascending_order() {
        let mut c = small();
        // First fills in descending set order, so the blocks are stored
        // in the reverse of set order.
        for line in [7, 2, 5, 1, 4, 0] {
            c.fill(LineAddr(line), LineState::Shared, line);
        }
        let sets: Vec<u64> = c.iter_resident().map(|(l, _, _)| l.0 % 4).collect();
        assert_eq!(sets, [0, 0, 1, 1, 2, 3]);
        let mut lines: Vec<u64> = c.iter_resident().map(|(l, _, _)| l.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, [0, 1, 2, 4, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_fill_panics() {
        let mut c = small();
        c.fill(LineAddr(1), LineState::Shared, 0);
        c.fill(LineAddr(1), LineState::Shared, 0);
    }

    #[test]
    fn only_hits_refresh_lru() {
        let mut c = small();
        c.fill(LineAddr(0), LineState::Shared, 0);
        c.fill(LineAddr(4), LineState::Shared, 0);
        // The read hits and makes line 4 the LRU way; the write to line
        // 4's Shared copy misses and must leave it there.
        assert_eq!(c.access(LineAddr(0), AccessKind::Read), LineState::Shared);
        assert_eq!(c.access(LineAddr(4), AccessKind::Write), LineState::Shared);
        let ev = c.fill(LineAddr(8), LineState::Shared, 0).expect("evicts");
        assert_eq!(ev.line, LineAddr(4));
    }
}

#[cfg(test)]
mod pin_tests {
    use super::*;

    #[test]
    fn pinned_lines_survive_fills() {
        let mut c = SetAssocCache::new(CacheGeometry {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        });
        c.fill(LineAddr(0), LineState::Shared, 0);
        c.fill(LineAddr(4), LineState::Shared, 0);
        c.access(LineAddr(4), AccessKind::Read); // 0 is LRU
        c.pin(LineAddr(0));
        let ev = c.fill(LineAddr(8), LineState::Shared, 0).expect("evicts");
        assert_eq!(ev.line, LineAddr(4), "pinned LRU line must be skipped");
        c.unpin(LineAddr(0));
        let ev = c.fill(LineAddr(12), LineState::Shared, 0).expect("evicts");
        assert_eq!(ev.line, LineAddr(0));
    }

    #[test]
    #[should_panic(expected = "pinned")]
    fn all_pinned_panics() {
        let mut c = SetAssocCache::new(CacheGeometry {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
        });
        c.fill(LineAddr(0), LineState::Shared, 0);
        c.fill(LineAddr(4), LineState::Shared, 0);
        c.pin(LineAddr(0));
        c.pin(LineAddr(4));
        let _ = c.fill(LineAddr(8), LineState::Shared, 0);
    }
}
