//! Set-associative LRU cache with MESI line states.
//!
//! The tag store is a single flat `Vec` of ways; a probe compares the
//! tags of one set's ways (at most the associativity, typically 4)
//! directly in that array. There are no side maps: residency is the tag
//! match itself and the eviction pin is a bit in the way, so the probe
//! and fill paths — the hottest in the whole simulator — allocate
//! nothing and touch one cache-resident run of memory.

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

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    state: LineState,
    last_use: u64,
    /// Data payload carried for protocol checking (a write version number).
    payload: u64,
    /// Excluded from victim selection while an outstanding transaction
    /// depends on the line staying resident.
    pinned: bool,
}

const EMPTY_WAY: Way = Way {
    tag: 0,
    state: LineState::Invalid,
    last_use: 0,
    payload: 0,
    pinned: false,
};

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
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    set_mask: u64,
    set_bits: u32,
    ways_per_set: usize,
    ways: Vec<Way>,
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
        SetAssocCache {
            geometry,
            set_mask: sets - 1,
            set_bits: (sets - 1).count_ones(),
            ways_per_set,
            ways: vec![EMPTY_WAY; (sets as usize) * ways_per_set],
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

    /// Index of the way holding `line`, found by comparing the tags of
    /// its set's ways (a handful of adjacent words — no hashing).
    #[inline]
    fn slot(&self, line: LineAddr) -> Option<usize> {
        let tag = line.0 >> self.set_bits;
        let base = self.set_of(line) * self.ways_per_set;
        self.ways[base..base + self.ways_per_set]
            .iter()
            .position(|w| w.state != LineState::Invalid && w.tag == tag)
            .map(|i| base + i)
    }

    /// The MESI state of `line` (Invalid if not resident). Does not touch
    /// LRU — this is the *snoop* path.
    pub fn state_of(&self, line: LineAddr) -> LineState {
        self.slot(line)
            .map_or(LineState::Invalid, |i| self.ways[i].state)
    }

    /// The data payload of `line`, if resident.
    pub fn payload_of(&self, line: LineAddr) -> Option<u64> {
        self.slot(line).map(|i| self.ways[i].payload)
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
        let state = self.ways[i].state;
        let hit = match kind {
            AccessKind::Read => state.readable(),
            AccessKind::Write => state.writable(),
        };
        if hit {
            self.ways[i].last_use = self.tick;
        }
        state
    }

    /// Installs `line` with `state` and `payload`, evicting the LRU way of
    /// the set if it is full. Returns the eviction, if one occurred.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident (fills must pair with misses).
    pub fn fill(&mut self, line: LineAddr, state: LineState, payload: u64) -> Option<Eviction> {
        assert!(
            self.slot(line).is_none(),
            "fill of already-resident line {line}"
        );
        assert!(state != LineState::Invalid, "cannot fill an Invalid line");
        self.tick += 1;
        let set = self.set_of(line);
        let base = set * self.ways_per_set;
        // Prefer an invalid way; otherwise evict true-LRU among unpinned.
        let mut victim = usize::MAX;
        let mut best = u64::MAX;
        for i in base..base + self.ways_per_set {
            if self.ways[i].state == LineState::Invalid {
                victim = i;
                break;
            }
            if self.ways[i].last_use < best && !self.ways[i].pinned {
                best = self.ways[i].last_use;
                victim = i;
            }
        }
        assert!(
            victim != usize::MAX,
            "every way of the set is pinned; cannot fill {line}"
        );
        let evicted = if self.ways[victim].state != LineState::Invalid {
            let old = self.ways[victim];
            let old_line = self.line_in_way(victim, old.tag);
            self.resident -= 1;
            Some(Eviction {
                line: old_line,
                state: old.state,
                payload: old.payload,
            })
        } else {
            None
        };
        self.ways[victim] = Way {
            tag: line.0 >> self.set_bits,
            state,
            last_use: self.tick,
            payload,
            pinned: false,
        };
        self.resident += 1;
        evicted
    }

    fn line_in_way(&self, way_index: usize, tag: u64) -> LineAddr {
        let set = (way_index / self.ways_per_set) as u64;
        LineAddr((tag << self.set_bits) | set)
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
            self.ways[i].state = LineState::Invalid;
            self.ways[i].pinned = false;
            self.resident -= 1;
        } else {
            self.ways[i].state = state;
        }
    }

    /// Invalidates `line` if resident; returns its pre-invalidation state
    /// and payload, or `None` if it was not resident (e.g. silently
    /// dropped earlier).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<(LineState, u64)> {
        let i = self.slot(line)?;
        let old = self.ways[i];
        self.ways[i].state = LineState::Invalid;
        self.ways[i].pinned = false;
        self.resident -= 1;
        Some((old.state, old.payload))
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
        self.ways[i].payload = payload;
    }

    /// Pins a resident line against eviction (an outstanding transaction
    /// depends on it staying resident).
    pub fn pin(&mut self, line: LineAddr) {
        let i = self.slot(line);
        debug_assert!(i.is_some(), "pin of non-resident {line}");
        if let Some(i) = i {
            self.ways[i].pinned = true;
        }
    }

    /// Releases a pin. Idempotent (a no-op on non-resident lines).
    pub fn unpin(&mut self, line: LineAddr) {
        if let Some(i) = self.slot(line) {
            self.ways[i].pinned = false;
        }
    }

    /// Iterates over all resident lines as `(line, state, payload)`.
    pub fn iter_resident(&self) -> impl Iterator<Item = (LineAddr, LineState, u64)> + '_ {
        self.ways
            .iter()
            .enumerate()
            .filter(|(_, w)| w.state != LineState::Invalid)
            .map(|(i, w)| (self.line_in_way(i, w.tag), w.state, w.payload))
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
