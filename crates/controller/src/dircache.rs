//! Write-through directory cache.
//!
//! Both controller designs use a write-through directory cache holding up
//! to 8 K full-bit-map directory entries to reduce directory read latency
//! (Section 2.2). The hardware design uses a custom on-chip cache; the
//! protocol-processor design uses the commodity processor's on-chip data
//! cache — the *capacity and behaviour* are the same, only the hit cost
//! differs (and that is priced by the sub-operation table).
//!
//! Because the cache is write-through, directory writes update DRAM in the
//! background and never cause dirty evictions; only reads allocate.

use ccn_mem::LineAddr;
use ccn_sim::ComponentStats;

/// Direct-mapped, write-through directory-entry cache (tags only).
///
/// # Example
///
/// ```
/// use ccn_controller::DirCache;
/// use ccn_mem::LineAddr;
///
/// let mut dc = DirCache::new(8);
/// assert!(!dc.read(LineAddr(3))); // cold miss allocates
/// assert!(dc.read(LineAddr(3))); // now hits
/// ```
#[derive(Debug, Clone)]
pub struct DirCache {
    tags: Vec<u64>,
    entries: u64,
    hits: u64,
    misses: u64,
}

const EMPTY_TAG: u64 = u64::MAX;

impl DirCache {
    /// Creates a directory cache with `entries` entries (paper: 8192).
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    pub fn new(entries: u64) -> Self {
        assert!(
            entries.is_power_of_two(),
            "entry count must be a power of two"
        );
        DirCache {
            tags: vec![EMPTY_TAG; entries as usize],
            entries,
            hits: 0,
            misses: 0,
        }
    }

    fn slot(&self, line: LineAddr) -> (usize, u64) {
        ((line.0 % self.entries) as usize, line.0 / self.entries)
    }

    /// Performs a directory read for `line`; returns `true` on a hit.
    /// Misses allocate (the DRAM fill is timed by the caller).
    pub fn read(&mut self, line: LineAddr) -> bool {
        let (idx, tag) = self.slot(line);
        if self.tags[idx] == tag {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            self.tags[idx] = tag;
            false
        }
    }

    /// Performs a write-through directory write: updates the cached copy if
    /// present but never allocates.
    pub fn write(&mut self, line: LineAddr) {
        // Tags-only model: a write to a cached entry keeps it cached; a
        // write to an uncached entry goes straight to DRAM.
        let _ = self.slot(line);
    }

    /// Directory-cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Directory-cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio over all reads (0 when no reads happened).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// A snapshot of the directory cache's hit and miss counts.
    pub fn stats_snapshot(&self) -> ComponentStats {
        ComponentStats::named("dircache")
            .counter("hits", self.hits)
            .counter("misses", self.misses)
            .gauge("hit_ratio", self.hit_ratio())
    }

    /// Resets counters (contents survive — the measured phase starts warm).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_then_hit() {
        let mut dc = DirCache::new(4);
        assert!(!dc.read(LineAddr(1)));
        assert!(dc.read(LineAddr(1)));
        assert_eq!((dc.hits(), dc.misses()), (1, 1));
        assert!((dc.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut dc = DirCache::new(4);
        assert!(!dc.read(LineAddr(1)));
        assert!(!dc.read(LineAddr(5))); // same slot, different tag
        assert!(!dc.read(LineAddr(1))); // evicted by 5
    }

    #[test]
    fn writes_do_not_allocate() {
        let mut dc = DirCache::new(4);
        dc.write(LineAddr(2));
        assert!(!dc.read(LineAddr(2)));
    }

    #[test]
    fn reset_keeps_contents() {
        let mut dc = DirCache::new(4);
        dc.read(LineAddr(3));
        dc.reset_stats();
        assert_eq!(dc.misses(), 0);
        assert!(dc.read(LineAddr(3)), "contents must survive a stats reset");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = DirCache::new(6);
    }
}
