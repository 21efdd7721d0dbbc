//! Pluggable sharer-set representations for the home directory.
//!
//! The paper evaluated its four controller architectures on full-map
//! directories at small node counts; reproducing the RCCPI story at 256+
//! nodes requires the classic scaled directory formats. This module holds
//! the seam: [`SharerBitmap`] (the raw presence-bit vector), [`SharerSet`]
//! (the sharer record of one line: one capped bitmap plus a broadcast
//! bit, whatever the format), and [`DirFormat`] (the per-run policy that
//! decides how sharers are recorded, how an invalidation target set is
//! derived from the record, and how much directory memory the modeled
//! hardware spends per line).
//!
//! A [`SharerSet`] is 1024 nodes wide: it is the value the directory
//! hands out. The directory itself keeps each record at the machine's
//! width, ⌈nodes / 64⌉ presence words in one slot of a per-directory
//! slab (`SharerSlab`), so a 16-node home stores one word per Shared
//! line and a 1024-node home pays for sixteen only on its Shared lines.
//!
//! Registered formats (see [`DIR_FORMATS`]):
//!
//! * **full** — one presence bit per node; exact sharer sets.
//! * **coarse:K** — one presence bit per K-node region; a write
//!   invalidates every node of every recorded region (over-invalidation),
//!   cutting directory memory by K×.
//! * **limited:I** — `Dir_i_B`: `I` exact node pointers (a bitmap that
//!   holds at most `I` members) plus a broadcast bit; on pointer overflow
//!   a write invalidates *all* nodes.
//! * **sparse:S** — exact full-map entries, but only `S` stable entries
//!   per home node; claiming an occupied slot recalls (invalidates) the
//!   victim line everywhere, the way a directory cache with
//!   evict-invalidate behaves without a backing full directory.
//!
//! All formats are *conservative*: a recorded set is always a superset of
//! the true sharers, so over-invalidation can cost performance but never
//! correctness. The bounded model checker in `ccn-verify` checks exactly
//! this (safety with over-invalidation allowed) for every format.

use ccn_mem::NodeId;

/// Number of presence words in a [`SharerBitmap`].
const SHARER_WORDS: usize = 16;

/// The largest machine any directory format can track (presence-bit
/// capacity of [`SharerBitmap`]).
pub const MAX_NODES: u16 = (SHARER_WORDS * 64) as u16;

/// Maximum exact pointers a limited-pointer (`Dir_i_B`) entry can hold.
pub const MAX_PTRS: u8 = 8;

/// Maximum stable entries per home of a sparse directory: the lines the
/// L2s of Figure 10's 8-processor node can hold (8 × 1 MiB / 128 B). A
/// sparse home allocates its slot table up front, so the bound keeps a
/// mistyped parameter from reserving gigabytes.
pub const MAX_SPARSE_SLOTS: u32 = 65_536;

/// A set of sharer nodes, stored as a fixed array of 64-bit presence
/// words (capacity 1024 nodes; paper systems use 8–64). The set is `Copy`
/// and passed by value through directory actions and invalidation
/// payloads, so collecting or handing out a sharer list never allocates.
///
/// Membership walks are word-parallel: `count` sums `count_ones` per
/// word and [`iter`](Self::iter) strips set bits with `trailing_zeros`
/// instead of testing all 1024 positions bit by bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct SharerBitmap([u64; SHARER_WORDS]);

impl SharerBitmap {
    /// The number of nodes a bitmap can track.
    pub const CAPACITY: u16 = (SHARER_WORDS * 64) as u16;

    /// The empty set.
    pub const EMPTY: SharerBitmap = SharerBitmap([0; SHARER_WORDS]);

    /// A set containing only `node`.
    #[inline]
    pub fn just(node: NodeId) -> Self {
        let mut bm = SharerBitmap::EMPTY;
        bm.insert(node);
        bm
    }

    /// Adds `node` to the set.
    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        insert_in(&mut self.0, node);
    }

    /// Removes `node` from the set (no-op for out-of-range ids).
    #[inline]
    pub fn remove(&mut self, node: NodeId) {
        remove_from(&mut self.0, node);
    }

    /// Whether `node` is in the set.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        contains_in(&self.0, node)
    }

    /// Number of nodes in the set.
    #[inline]
    pub fn count(&self) -> u32 {
        count_in(&self.0)
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == [0; SHARER_WORDS]
    }

    /// Iterates over the members in ascending order, one `trailing_zeros`
    /// per member rather than one test per possible node id.
    #[inline]
    pub fn iter(&self) -> SharerIter {
        SharerIter {
            words: self.0,
            word: 0,
        }
    }

    /// Returns this set with `node` removed.
    #[inline]
    pub fn without(mut self, node: NodeId) -> Self {
        self.remove(node);
        self
    }

    /// The raw presence words, lowest nodes first.
    #[inline]
    pub fn words(&self) -> [u64; SHARER_WORDS] {
        self.0
    }

    /// Rebuilds a set from its raw presence words (the inverse of
    /// [`words`](Self::words), for snapshot carriers).
    #[inline]
    pub fn from_words(words: [u64; SHARER_WORDS]) -> Self {
        SharerBitmap(words)
    }

    /// A set containing every node below `nodes` except `skip` — the
    /// broadcast-invalidation target list of an overflowed
    /// limited-pointer entry.
    pub fn all_below_except(nodes: u16, skip: NodeId) -> Self {
        let nodes = nodes.min(Self::CAPACITY);
        let mut bm = SharerBitmap::EMPTY;
        for w in 0..usize::from(nodes >> 6) {
            bm.0[w] = u64::MAX;
        }
        let rem = nodes % 64;
        if rem != 0 {
            bm.0[usize::from(nodes >> 6)] = (1u64 << rem) - 1;
        }
        bm.remove(skip);
        bm
    }

    /// Reference implementation of [`iter`](Self::iter): test every
    /// possible node id, one bit at a time. Kept as the oracle the
    /// word-parallel iterator is differentially tested against.
    #[cfg(test)]
    fn iter_per_bit(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..Self::CAPACITY).filter_map(move |i| self.contains(NodeId(i)).then_some(NodeId(i)))
    }
}

// Presence-word operations shared by records of every width: node `n`
// is bit `n % 64` of word `n / 64`.

/// Sets `node`'s bit.
#[inline]
fn insert_in(words: &mut [u64], node: NodeId) {
    let w = usize::from(node.0 >> 6);
    assert!(w < words.len(), "node id beyond bitmap capacity");
    words[w] |= 1 << (node.0 % 64);
}

/// Clears `node`'s bit (no-op for ids beyond the words).
#[inline]
fn remove_from(words: &mut [u64], node: NodeId) {
    if let Some(w) = words.get_mut(usize::from(node.0 >> 6)) {
        *w &= !(1 << (node.0 % 64));
    }
}

/// Whether `node`'s bit is set.
#[inline]
fn contains_in(words: &[u64], node: NodeId) -> bool {
    words
        .get(usize::from(node.0 >> 6))
        .is_some_and(|w| w & (1 << (node.0 % 64)) != 0)
}

/// Number of set bits.
#[inline]
fn count_in(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Word-parallel iterator over a [`SharerBitmap`]'s members.
#[derive(Debug, Clone)]
pub struct SharerIter {
    words: [u64; SHARER_WORDS],
    word: usize,
}

impl Iterator for SharerIter {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        while self.word < SHARER_WORDS {
            let w = self.words[self.word];
            if w != 0 {
                let bit = w.trailing_zeros() as u16;
                // Clear the lowest set bit.
                self.words[self.word] = w & (w - 1);
                return Some(NodeId(self.word as u16 * 64 + bit));
            }
            self.word += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left: usize = self.words[self.word..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (left, Some(left))
    }
}

impl ExactSizeIterator for SharerIter {}

/// The sharer record of a line with read-only copies: one capped bitmap
/// for every [`DirFormat`], as the directory hands it out (it stores the
/// same record at the machine's width in its slab).
///
/// The stored set is always a *superset* of the true remote sharers:
/// full-map and sparse records are exact, coarse records round every
/// sharer up to its region, a limited-pointer record holds at most its
/// pointer count of exact members, and an overflowed one stands for
/// "everyone". [`expand`](Self::expand) turns the record back into a
/// concrete invalidation target list. Records are written only through
/// [`DirFormat::note_sharer`], so equal member sets are equal records
/// whatever order the sharers arrived in. The default is the empty
/// record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet {
    /// Recorded members: exact nodes, or every node of each recorded
    /// coarse region. Empty while `overflow` is set.
    bits: SharerBitmap,
    /// Broadcast bit of a limited-pointer record: its pointers overflowed
    /// and the set now stands for every node in the machine.
    overflow: bool,
}

impl SharerSet {
    /// The recorded members, in ascending order when iterated (a pointer
    /// record's sorted pointers). Empty once a pointer record overflowed.
    #[inline]
    pub fn bits(&self) -> SharerBitmap {
        self.bits
    }

    /// Whether a pointer record overflowed to broadcast.
    #[inline]
    pub fn overflowed(&self) -> bool {
        self.overflow
    }

    /// Whether `node` may hold a copy. Over-approximate: an overflowed
    /// record contains everyone, a coarse record the whole region.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        self.overflow || self.bits.contains(node)
    }

    /// Number of *recorded* members. An overflowed record holds none and
    /// returns 0 even though it stands for every node — use
    /// [`expand`](Self::expand) for the real target count.
    #[inline]
    pub fn count(&self) -> u32 {
        self.bits.count()
    }

    /// Whether the set stands for no node at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        !self.overflow && self.bits.is_empty()
    }

    /// The concrete invalidation target list this record stands for, on
    /// a `nodes`-node machine whose home (never a directory-tracked
    /// sharer) is `home`.
    pub fn expand(&self, nodes: u16, home: NodeId) -> SharerBitmap {
        if self.overflow {
            SharerBitmap::all_below_except(nodes, home)
        } else {
            self.bits
        }
    }

    /// Removes a recorded member. A no-op on an overflowed record, which
    /// records no individual members. The directory removes members from
    /// its stored record; this is the reference that record is tested
    /// against.
    #[cfg(test)]
    pub fn remove(&mut self, node: NodeId) {
        self.bits.remove(node);
    }
}

/// A directory sharer-representation format, selected per run
/// (`repro --dir-format`). See the module docs for the catalog.
///
/// The format decides three things: how a new sharer is recorded in a
/// [`SharerSet`] ([`note_sharer`](Self::note_sharer)), whether a record
/// proves a node's membership well enough to grant a data-less upgrade
/// ([`proves_sharer`](Self::proves_sharer)), and how much directory
/// memory the modeled hardware spends
/// ([`bits_per_entry`](Self::bits_per_entry)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DirFormat {
    /// One presence bit per node; exact sharer sets.
    #[default]
    FullMap,
    /// One presence bit per `region`-node region: recording a sharer
    /// sets its whole region, so a write over-invalidates the region.
    Coarse {
        /// Nodes covered by one presence bit (≥ 2).
        region: u16,
    },
    /// `Dir_i_B` limited pointers: `ptrs` exact pointers, broadcast
    /// invalidation once they overflow.
    Limited {
        /// Number of exact pointers (1..=[`MAX_PTRS`]).
        ptrs: u8,
    },
    /// Exact full-map entries, but only `slots` stable entries per home
    /// node; claiming an occupied slot recalls the victim line.
    Sparse {
        /// Stable directory entries per home node
        /// (1..=[`MAX_SPARSE_SLOTS`]).
        slots: u32,
    },
}

impl DirFormat {
    /// The family name, without parameters.
    pub fn name(&self) -> &'static str {
        match self {
            DirFormat::FullMap => "full",
            DirFormat::Coarse { .. } => "coarse",
            DirFormat::Limited { .. } => "limited",
            DirFormat::Sparse { .. } => "sparse",
        }
    }

    /// The canonical `name:param` spelling accepted by
    /// [`parse`](Self::parse) (e.g. `limited:4`).
    pub fn label(&self) -> String {
        match self {
            DirFormat::FullMap => "full".to_string(),
            DirFormat::Coarse { region } => format!("coarse:{region}"),
            DirFormat::Limited { ptrs } => format!("limited:{ptrs}"),
            DirFormat::Sparse { slots } => format!("sparse:{slots}"),
        }
    }

    /// A filename/run-id-safe spelling of [`label`](Self::label)
    /// (`limited4`, `coarse8`, …).
    pub fn slug(&self) -> String {
        match self {
            DirFormat::FullMap => "full".to_string(),
            DirFormat::Coarse { region } => format!("coarse{region}"),
            DirFormat::Limited { ptrs } => format!("limited{ptrs}"),
            DirFormat::Sparse { slots } => format!("sparse{slots}"),
        }
    }

    /// Parses a `--dir-format` argument: a family name with an optional
    /// `:param` (`full`, `coarse:4`, `limited:4`, `sparse:256`). A bare
    /// family name uses the registry default parameter.
    pub fn parse(s: &str) -> Result<DirFormat, String> {
        let (name, param) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        let num = |what: &str, default: u64| -> Result<u64, String> {
            match param {
                None => Ok(default),
                Some(p) => p
                    .parse::<u64>()
                    .map_err(|_| format!("bad {what} {p:?} in directory format {s:?}")),
            }
        };
        match name {
            "full" | "full-map" | "fullmap" => match param {
                None => Ok(DirFormat::FullMap),
                Some(_) => Err(format!("directory format {s:?} takes no parameter")),
            },
            "coarse" => {
                let region = num("region size", 4)?;
                if !(2..=u64::from(MAX_NODES)).contains(&region) {
                    return Err(format!(
                        "coarse region size must be in 2..={MAX_NODES}, got {region}"
                    ));
                }
                Ok(DirFormat::Coarse {
                    region: region as u16,
                })
            }
            "limited" => {
                let ptrs = num("pointer count", 4)?;
                if !(1..=u64::from(MAX_PTRS)).contains(&ptrs) {
                    return Err(format!(
                        "limited pointer count must be in 1..={MAX_PTRS}, got {ptrs}"
                    ));
                }
                Ok(DirFormat::Limited { ptrs: ptrs as u8 })
            }
            "sparse" => {
                let slots = num("slot count", 1024)?;
                if !(1..=u64::from(MAX_SPARSE_SLOTS)).contains(&slots) {
                    return Err(format!(
                        "sparse slot count must be in 1..={MAX_SPARSE_SLOTS}, got {slots}"
                    ));
                }
                Ok(DirFormat::Sparse {
                    slots: slots as u32,
                })
            }
            _ => Err(format!(
                "unknown directory format {s:?} (expected one of: {})",
                format_names().join(", ")
            )),
        }
    }

    /// Directory memory per *entry* in bits, on a `nodes`-node machine:
    /// the presence field this format would burn in hardware (the data
    /// the paper's Figure 1 calls directory memory overhead).
    pub fn bits_per_entry(&self, nodes: u16) -> u32 {
        let nodes = u32::from(nodes.max(2));
        // State tag (2 bits) + owner pointer, common to every format.
        let common = 2 + log2_ceil(nodes);
        match self {
            DirFormat::FullMap | DirFormat::Sparse { .. } => common + nodes,
            DirFormat::Coarse { region } => common + nodes.div_ceil(u32::from(*region)),
            DirFormat::Limited { ptrs } => common + u32::from(*ptrs) * log2_ceil(nodes) + 1,
        }
    }

    /// Whether the record *proves* `node` currently holds a Shared copy —
    /// the grounds for granting a data-less upgrade. Exact records prove
    /// it by membership, and an overflowed pointer record has no members
    /// left to prove it with; a coarse region bit never says anything
    /// about an individual node, so the upgrade must be demoted to an
    /// exclusive supply with data (handing exclusive permission to a node
    /// with no copy would be unsound).
    pub fn proves_sharer(&self, set: &SharerSet, node: NodeId) -> bool {
        !matches!(self, DirFormat::Coarse { .. }) && set.bits.contains(node)
    }

    /// Records `node` as a sharer in `set`, on a `nodes`-node machine
    /// with home node `home` (the home's copies are bus-visible and
    /// never recorded).
    pub fn note_sharer(&self, set: &mut SharerSet, node: NodeId, nodes: u16, home: NodeId) {
        self.record(&mut set.bits.0, &mut set.overflow, node, nodes, home);
    }

    /// [`note_sharer`](Self::note_sharer) on a record of any width: its
    /// presence `words` and its broadcast bit `overflow`.
    fn record(
        &self,
        words: &mut [u64],
        overflow: &mut bool,
        node: NodeId,
        nodes: u16,
        home: NodeId,
    ) {
        match *self {
            DirFormat::Coarse { region } => {
                let start = node.0 - node.0 % region;
                let end = (start + region).min(nodes);
                for n in start..end {
                    if NodeId(n) != home {
                        insert_in(words, NodeId(n));
                    }
                }
            }
            // A pointer record is a bitmap of at most `ptrs` members;
            // ascending iteration is the sorted pointer order.
            DirFormat::Limited { ptrs } => {
                if *overflow || contains_in(words, node) {
                    return; // already a pointer, or already broadcast
                }
                if count_in(words) < u32::from(ptrs) {
                    insert_in(words, node);
                } else {
                    // Pointer overflow: drop the pointers and raise the
                    // broadcast bit — the canonical Dir_i_B response.
                    words.fill(0);
                    *overflow = true;
                }
            }
            DirFormat::FullMap | DirFormat::Sparse { .. } => insert_in(words, node),
        }
    }

    /// A set containing exactly the record of `node` (the first-sharer
    /// transition).
    pub fn just(&self, node: NodeId, nodes: u16, home: NodeId) -> SharerSet {
        let mut set = SharerSet::default();
        self.note_sharer(&mut set, node, nodes, home);
        set
    }
}

/// The sharer records of one directory, each stored at the machine's
/// width: ⌈nodes / 64⌉ presence words in one slot of a flat,
/// zero-initialized `Vec<u64>`.
///
/// A directory entry holds a [`SharerSlot`] while its line is Shared and
/// nothing otherwise, so the entry stays a few bytes wide on every
/// machine and only Shared lines pay for presence words. Released slots
/// are zeroed and reused last-in first-out; the slab grows only when
/// more lines are Shared at once than ever before.
#[derive(Debug, Clone)]
pub(crate) struct SharerSlab {
    /// Presence words per record.
    stride: usize,
    /// Every record, `stride` words each. A free slot is all zero.
    words: Vec<u64>,
    /// Released slots. Its capacity always covers every slot, so a
    /// release never allocates.
    free: Vec<u32>,
}

/// A directory entry's handle on its sharer record in a [`SharerSlab`]:
/// the slot holding the presence words, and the broadcast bit of an
/// overflowed limited-pointer record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SharerSlot {
    slot: u32,
    overflow: bool,
}

impl SharerSlab {
    /// A slab for a `nodes`-node machine, pre-sized for `records` lines
    /// Shared at once.
    pub(crate) fn new(nodes: u16, records: usize) -> Self {
        let stride = usize::from(nodes).div_ceil(64).clamp(1, SHARER_WORDS);
        SharerSlab {
            stride,
            words: Vec::with_capacity(records * stride),
            free: Vec::with_capacity(records),
        }
    }

    /// Presence words per record.
    #[cfg(test)]
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Slots holding a record, and slots in the slab.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> (usize, usize) {
        let total = self.words.len() / self.stride;
        (total - self.free.len(), total)
    }

    #[inline]
    fn words(&self, rec: SharerSlot) -> &[u64] {
        let at = rec.slot as usize * self.stride;
        &self.words[at..at + self.stride]
    }

    #[inline]
    fn words_mut(&mut self, rec: SharerSlot) -> &mut [u64] {
        let at = rec.slot as usize * self.stride;
        &mut self.words[at..at + self.stride]
    }

    /// Claims an empty record.
    #[inline]
    fn alloc(&mut self) -> SharerSlot {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = self.words.len() / self.stride;
            self.words.resize(self.words.len() + self.stride, 0);
            self.free.reserve(slot + 1);
            slot as u32
        });
        SharerSlot {
            slot,
            overflow: false,
        }
    }

    /// A new record of exactly `node` (the first-sharer transition; see
    /// [`DirFormat::just`]).
    #[inline]
    pub(crate) fn just(
        &mut self,
        format: DirFormat,
        node: NodeId,
        nodes: u16,
        home: NodeId,
    ) -> SharerSlot {
        let mut rec = self.alloc();
        self.note_sharer(format, &mut rec, node, nodes, home);
        rec
    }

    /// Returns `rec`'s slot to the free list, zeroed.
    #[inline]
    pub(crate) fn release(&mut self, rec: SharerSlot) {
        self.words_mut(rec).fill(0);
        self.free.push(rec.slot);
    }

    /// Releases `rec` and returns the record it held.
    #[inline]
    pub(crate) fn take(&mut self, rec: SharerSlot) -> SharerSet {
        let set = self.get(rec);
        self.release(rec);
        set
    }

    /// [`DirFormat::note_sharer`] on a stored record.
    #[inline]
    pub(crate) fn note_sharer(
        &mut self,
        format: DirFormat,
        rec: &mut SharerSlot,
        node: NodeId,
        nodes: u16,
        home: NodeId,
    ) {
        format.record(self.words_mut(*rec), &mut rec.overflow, node, nodes, home);
    }

    /// Removes a recorded member; a no-op on an overflowed record.
    #[inline]
    pub(crate) fn remove(&mut self, rec: SharerSlot, node: NodeId) {
        remove_from(self.words_mut(rec), node);
    }

    /// Whether `node` may hold a copy (see [`SharerSet::contains`]).
    #[inline]
    pub(crate) fn contains(&self, rec: SharerSlot, node: NodeId) -> bool {
        rec.overflow || contains_in(self.words(rec), node)
    }

    /// Whether the record stands for no node at all.
    #[inline]
    pub(crate) fn is_empty(&self, rec: SharerSlot) -> bool {
        !rec.overflow && self.words(rec).iter().all(|w| *w == 0)
    }

    /// The record as the 1024-node value the directory hands out.
    #[inline]
    pub(crate) fn get(&self, rec: SharerSlot) -> SharerSet {
        let mut bits = SharerBitmap::EMPTY;
        bits.0[..self.stride].copy_from_slice(self.words(rec));
        SharerSet {
            bits,
            overflow: rec.overflow,
        }
    }
}

#[inline]
fn log2_ceil(n: u32) -> u32 {
    32 - n.saturating_sub(1).leading_zeros()
}

/// The registered directory formats, in registry order — the canonical
/// instance of each family. CI's `dir-formats` job model-checks and
/// conformance-tests each of these; the sweep layer accepts any
/// parameterization via [`DirFormat::parse`].
pub const DIR_FORMATS: [DirFormat; 4] = [
    DirFormat::FullMap,
    DirFormat::Coarse { region: 4 },
    DirFormat::Limited { ptrs: 4 },
    DirFormat::Sparse { slots: 1024 },
];

/// The family names of the registered formats, for error messages and
/// CLI help.
pub fn format_names() -> Vec<&'static str> {
    DIR_FORMATS.iter().map(|f| f.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_basics() {
        let mut bm = SharerBitmap::EMPTY;
        assert!(bm.is_empty());
        bm.insert(NodeId(3));
        bm.insert(NodeId(5));
        assert!(bm.contains(NodeId(3)));
        assert!(!bm.contains(NodeId(4)));
        assert_eq!(bm.count(), 2);
        assert_eq!(bm.iter().collect::<Vec<_>>(), vec![NodeId(3), NodeId(5)]);
        assert_eq!(bm.without(NodeId(3)), SharerBitmap::just(NodeId(5)));
    }

    #[test]
    fn bitmap_insert_and_remove_are_idempotent() {
        let mut bm = SharerBitmap::EMPTY;
        bm.insert(NodeId(1));
        bm.insert(NodeId(1));
        assert_eq!(bm.count(), 1);
        assert_eq!(bm, SharerBitmap::just(NodeId(1)));
        bm.remove(NodeId(1));
        bm.remove(NodeId(1));
        assert!(bm.is_empty());
        assert_eq!(bm, SharerBitmap::EMPTY);
    }

    #[test]
    fn bitmap_without_an_absent_node_is_a_no_op() {
        let bm = SharerBitmap::just(NodeId(1));
        assert_eq!(bm.without(NodeId(2)), bm);
        assert_eq!(SharerBitmap::EMPTY.without(NodeId(1)), SharerBitmap::EMPTY);
        // `without` is by-value: the original is untouched either way.
        assert!(bm.contains(NodeId(1)));
        assert!(bm.without(NodeId(1)).is_empty());
    }

    #[test]
    fn bitmap_iterates_in_ascending_node_order() {
        let mut bm = SharerBitmap::EMPTY;
        for n in [NodeId(63), NodeId(0), NodeId(17), NodeId(5)] {
            bm.insert(n);
        }
        let order: Vec<u16> = bm.iter().map(|n| n.0).collect();
        assert_eq!(order, vec![0, 5, 17, 63]);
        assert_eq!(bm.count(), 4);
    }

    #[test]
    fn bitmap_handles_word_boundaries() {
        // Nodes 63 and 64 live in different presence words; both sides of
        // the boundary must be visible to every word-parallel operation,
        // and the same at the top of the widened array.
        let mut bm = SharerBitmap::EMPTY;
        bm.insert(NodeId(63));
        bm.insert(NodeId(64));
        assert!(bm.contains(NodeId(63)));
        assert!(bm.contains(NodeId(64)));
        assert_eq!(bm.count(), 2);
        assert_eq!(bm.iter().collect::<Vec<_>>(), vec![NodeId(63), NodeId(64)]);
        let words = bm.words();
        assert_eq!(words[0], 1 << 63);
        assert_eq!(words[1], 1);
        assert!(words[2..].iter().all(|w| *w == 0));
        bm.remove(NodeId(63));
        assert_eq!(bm.iter().collect::<Vec<_>>(), vec![NodeId(64)]);
        // Out-of-range queries are false, not panics; removal of an
        // out-of-range id must not clobber bit 0 (shift-amount wrap).
        assert!(!bm.contains(NodeId(SharerBitmap::CAPACITY)));
        assert!(!bm.contains(NodeId(2000)));
        let mut high = SharerBitmap::just(NodeId(0));
        high.insert(NodeId(SharerBitmap::CAPACITY - 1));
        high.remove(NodeId(SharerBitmap::CAPACITY));
        high.remove(NodeId(2000));
        assert!(high.contains(NodeId(0)));
        assert!(high.contains(NodeId(SharerBitmap::CAPACITY - 1)));
        assert_eq!(high.count(), 2);
    }

    #[test]
    #[should_panic(expected = "beyond bitmap capacity")]
    fn bitmap_insert_beyond_capacity_panics() {
        let mut bm = SharerBitmap::EMPTY;
        bm.insert(NodeId(SharerBitmap::CAPACITY));
    }

    /// Deterministic xorshift for the differential battery below.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn word_parallel_iter_matches_per_bit_reference() {
        // Random member sets, always including both sides of the word
        // boundary at node 64: the word-parallel iterator must agree with
        // the per-bit oracle on order, count and membership.
        let mut state = 0x1234_5678_9abc_def0u64;
        for round in 0..200 {
            let mut bm = SharerBitmap::EMPTY;
            for _ in 0..(round % 17) {
                bm.insert(NodeId(
                    (xorshift(&mut state) % u64::from(SharerBitmap::CAPACITY)) as u16,
                ));
            }
            if round % 3 == 0 {
                bm.insert(NodeId(63));
                bm.insert(NodeId(64));
            }
            let fast: Vec<NodeId> = bm.iter().collect();
            let slow: Vec<NodeId> = bm.iter_per_bit().collect();
            assert_eq!(fast, slow, "iteration order diverged on {bm:?}");
            assert_eq!(bm.count() as usize, slow.len(), "count diverged on {bm:?}");
            assert_eq!(bm.iter().len(), slow.len(), "size_hint diverged on {bm:?}");
            assert_eq!(bm.is_empty(), slow.is_empty());
        }
    }

    #[test]
    fn bitmap_insert_remove_churn_matches_reference_set() {
        use std::collections::BTreeSet;
        let mut bm = SharerBitmap::EMPTY;
        let mut reference: BTreeSet<u16> = BTreeSet::new();
        let mut state = 0xdead_beef_cafe_f00du64;
        for _ in 0..5000 {
            let r = xorshift(&mut state);
            let node = (r % u64::from(SharerBitmap::CAPACITY)) as u16;
            if r & (1 << 40) == 0 {
                bm.insert(NodeId(node));
                reference.insert(node);
            } else {
                bm.remove(NodeId(node));
                reference.remove(&node);
            }
            assert_eq!(bm.count() as usize, reference.len());
            assert_eq!(bm.contains(NodeId(node)), reference.contains(&node));
        }
        let got: Vec<u16> = bm.iter().map(|n| n.0).collect();
        let want: Vec<u16> = reference.iter().copied().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn all_below_except_builds_broadcast_targets() {
        let bm = SharerBitmap::all_below_except(6, NodeId(2));
        assert_eq!(
            bm.iter().map(|n| n.0).collect::<Vec<_>>(),
            vec![0, 1, 3, 4, 5]
        );
        // Word-boundary counts and full-capacity machines.
        assert_eq!(SharerBitmap::all_below_except(64, NodeId(0)).count(), 63);
        assert_eq!(SharerBitmap::all_below_except(65, NodeId(64)).count(), 64);
        let full = SharerBitmap::all_below_except(MAX_NODES, NodeId(1023));
        assert_eq!(full.count(), u32::from(MAX_NODES) - 1);
        assert!(!full.contains(NodeId(1023)));
    }

    #[test]
    fn coarse_note_sharer_rounds_up_to_the_region() {
        let f = DirFormat::Coarse { region: 4 };
        let home = NodeId(0);
        let mut set = SharerSet::default();
        f.note_sharer(&mut set, NodeId(5), 16, home);
        // Region {4,5,6,7} is recorded, nothing else.
        for n in 0..16 {
            assert_eq!(set.contains(NodeId(n)), (4..8).contains(&n), "node {n}");
        }
        // The home's region never records the home itself, and regions
        // clamp at the machine size.
        let mut set = SharerSet::default();
        f.note_sharer(&mut set, NodeId(1), 6, home);
        assert!(!set.contains(NodeId(0)));
        assert!(set.contains(NodeId(1)));
        assert!(set.contains(NodeId(3)));
        let mut set = SharerSet::default();
        f.note_sharer(&mut set, NodeId(5), 6, home);
        assert!(set.contains(NodeId(4)));
        assert!(set.contains(NodeId(5)));
        assert!(!set.contains(NodeId(6)));
        assert_eq!(set.expand(6, home).count(), 2);
    }

    #[test]
    fn limited_pointers_stay_sorted_and_overflow_to_broadcast() {
        let f = DirFormat::Limited { ptrs: 2 };
        let home = NodeId(0);
        let mut set = f.just(NodeId(9), 16, home);
        f.note_sharer(&mut set, NodeId(3), 16, home);
        f.note_sharer(&mut set, NodeId(3), 16, home); // duplicate: no-op
        assert_eq!(set.count(), 2);
        assert!(set.contains(NodeId(3)) && set.contains(NodeId(9)));
        assert!(!set.contains(NodeId(4)));
        assert_eq!(
            set.expand(16, home).iter().map(|n| n.0).collect::<Vec<_>>(),
            vec![3, 9]
        );
        // Same members, different insertion order: identical record.
        let mut other = f.just(NodeId(3), 16, home);
        f.note_sharer(&mut other, NodeId(9), 16, home);
        assert_eq!(set, other);
        // Third sharer overflows to broadcast and drops the pointers.
        f.note_sharer(&mut set, NodeId(12), 16, home);
        assert_eq!(
            set,
            SharerSet {
                bits: SharerBitmap::EMPTY,
                overflow: true
            }
        );
        assert_eq!(set.count(), 0);
        assert!(set.contains(NodeId(7)), "broadcast contains everyone");
        assert!(!set.is_empty());
        let targets = set.expand(16, home);
        assert_eq!(targets.count(), 15, "broadcast hits all but the home");
        assert!(!targets.contains(home));
        // Exact removal is impossible after overflow.
        set.remove(NodeId(7));
        assert!(set.contains(NodeId(7)));
    }

    #[test]
    fn pointer_removal_returns_to_the_empty_record() {
        let f = DirFormat::Limited { ptrs: 4 };
        let home = NodeId(0);
        let mut set = f.just(NodeId(2), 16, home);
        f.note_sharer(&mut set, NodeId(7), 16, home);
        f.note_sharer(&mut set, NodeId(4), 16, home);
        set.remove(NodeId(4));
        assert_eq!(set.count(), 2);
        assert!(!set.contains(NodeId(4)));
        // Removing the rest leaves the canonical empty record.
        set.remove(NodeId(2));
        set.remove(NodeId(7));
        assert!(set.is_empty());
        assert_eq!(set, SharerSet::default());
        set.remove(NodeId(9)); // absent: no-op
        assert_eq!(set, SharerSet::default());
    }

    #[test]
    fn parse_round_trips_registry_labels() {
        for f in DIR_FORMATS {
            assert_eq!(DirFormat::parse(&f.label()), Ok(f));
            assert_eq!(DirFormat::parse(f.name()).map(|p| p.name()), Ok(f.name()));
        }
        assert_eq!(DirFormat::parse("full-map"), Ok(DirFormat::FullMap));
        assert_eq!(
            DirFormat::parse("coarse:8"),
            Ok(DirFormat::Coarse { region: 8 })
        );
        assert_eq!(
            DirFormat::parse("limited:1"),
            Ok(DirFormat::Limited { ptrs: 1 })
        );
        assert_eq!(
            DirFormat::parse("sparse:64"),
            Ok(DirFormat::Sparse { slots: 64 })
        );
        for bad in [
            "fullest",
            "full:2",
            "coarse:1",
            "coarse:x",
            "limited:0",
            "limited:99",
            "sparse:0",
            "sparse:65537",
            "sparse:4294967296",
        ] {
            assert!(DirFormat::parse(bad).is_err(), "{bad} should not parse");
        }
        // The sparse bound is Figure 10's 8-processor L2 capacity.
        assert_eq!(
            DirFormat::parse("sparse:65536"),
            Ok(DirFormat::Sparse {
                slots: MAX_SPARSE_SLOTS
            })
        );
    }

    #[test]
    fn storage_accounting_matches_the_textbook_formulas() {
        // At 1024 nodes: full-map burns 1024 presence bits; coarse:4 a
        // quarter of that; limited:4 four 10-bit pointers + broadcast.
        let common = 2 + 10; // tag + owner pointer
        assert_eq!(DirFormat::FullMap.bits_per_entry(1024), common + 1024);
        assert_eq!(
            DirFormat::Coarse { region: 4 }.bits_per_entry(1024),
            common + 256
        );
        assert_eq!(
            DirFormat::Limited { ptrs: 4 }.bits_per_entry(1024),
            common + 41
        );
        assert_eq!(
            DirFormat::Sparse { slots: 64 }.bits_per_entry(1024),
            common + 1024
        );
    }

    #[test]
    fn exactness_gates_upgrade_grants() {
        // A coarse record never proves an individual node's membership,
        // even when the bit covering it is set.
        let coarse = DirFormat::Coarse { region: 4 };
        let set = coarse.just(NodeId(1), 8, NodeId(0));
        assert!(set.contains(NodeId(1)));
        assert!(!coarse.proves_sharer(&set, NodeId(1)));
        // Limited pointers prove membership exactly until they overflow.
        let limited = DirFormat::Limited { ptrs: 2 };
        let mut set = limited.just(NodeId(1), 8, NodeId(0));
        assert!(limited.proves_sharer(&set, NodeId(1)));
        assert!(!limited.proves_sharer(&set, NodeId(2)));
        limited.note_sharer(&mut set, NodeId(2), 8, NodeId(0));
        limited.note_sharer(&mut set, NodeId(3), 8, NodeId(0));
        assert!(set.contains(NodeId(1)), "overflow still covers everyone");
        assert!(!limited.proves_sharer(&set, NodeId(1)));
        // Full-map and sparse membership is always proof.
        for exact in [DirFormat::FullMap, DirFormat::Sparse { slots: 8 }] {
            let set = exact.just(NodeId(1), 8, NodeId(0));
            assert!(exact.proves_sharer(&set, NodeId(1)));
            assert!(!exact.proves_sharer(&set, NodeId(2)));
        }
    }

    /// The `Dir_i_B` record as a sorted array of up to [`MAX_PTRS`]
    /// pointers plus a broadcast bit: the representation the capped
    /// bitmap replaced, kept as its reference.
    #[derive(Debug, Clone, Copy, Default)]
    struct SortedPtrs {
        ptrs: [NodeId; MAX_PTRS as usize],
        len: u8,
        overflow: bool,
    }

    impl SortedPtrs {
        fn members(&self) -> &[NodeId] {
            &self.ptrs[..usize::from(self.len)]
        }

        fn note(&mut self, cap: u8, node: NodeId) {
            if self.overflow {
                return;
            }
            let n = usize::from(self.len);
            let pos = self.members().partition_point(|p| p.0 < node.0);
            if pos < n && self.ptrs[pos] == node {
                return;
            }
            if n < usize::from(cap) {
                self.ptrs.copy_within(pos..n, pos + 1);
                self.ptrs[pos] = node;
                self.len += 1;
            } else {
                *self = SortedPtrs {
                    overflow: true,
                    ..SortedPtrs::default()
                };
            }
        }

        fn remove(&mut self, node: NodeId) {
            if self.overflow {
                return;
            }
            let n = usize::from(self.len);
            if let Some(i) = self.members().iter().position(|p| *p == node) {
                self.ptrs.copy_within(i + 1..n, i);
                self.ptrs[n - 1] = NodeId(0);
                self.len -= 1;
            }
        }

        fn contains(&self, node: NodeId) -> bool {
            self.overflow || self.members().contains(&node)
        }

        fn proves(&self, node: NodeId) -> bool {
            !self.overflow && self.members().contains(&node)
        }

        fn expand(&self, nodes: u16, home: NodeId) -> Vec<NodeId> {
            if self.overflow {
                (0..nodes).map(NodeId).filter(|n| *n != home).collect()
            } else {
                self.members().to_vec()
            }
        }
    }

    #[test]
    fn sized_records_match_the_wide_set() {
        use ccn_sim::SplitMix64;
        // Records of ⌈nodes / 64⌉ words, a few live at once so slots are
        // released and reused in shuffled order, against the 1024-node
        // value the directory hands out.
        let formats = [
            DirFormat::FullMap,
            DirFormat::Coarse { region: 3 },
            DirFormat::Limited { ptrs: 2 },
            DirFormat::Sparse { slots: 16 },
        ];
        for nodes in [2u16, 64, 65, 128, 129, 1024] {
            for (fi, f) in formats.into_iter().enumerate() {
                let mut rng = SplitMix64::new(u64::from(nodes) << 8 | fi as u64);
                let node_below =
                    |rng: &mut SplitMix64| NodeId(rng.next_below(u64::from(nodes)) as u16);
                let home = node_below(&mut rng);
                let mut slab = SharerSlab::new(nodes, 2);
                assert_eq!(slab.stride(), usize::from(nodes).div_ceil(64));
                let mut live: Vec<(SharerSlot, SharerSet)> = Vec::new();
                let (mut overflows, mut rounded, mut removed) = (0, 0, 0);
                for step in 0..3000 {
                    let i = rng.next_below(live.len().max(1) as u64) as usize;
                    // Half the operands are members of the record, so
                    // removals and repeated notes hit on wide machines.
                    let bits = live.get(i).map_or(SharerBitmap::EMPTY, |(_, r)| r.bits());
                    let node = match bits.count() {
                        n if n > 0 && rng.next_below(2) == 0 => {
                            let k = rng.next_below(u64::from(n)) as usize;
                            bits.iter().nth(k).expect("k is below the member count")
                        }
                        _ => node_below(&mut rng),
                    };
                    match rng.next_below(16) {
                        0 if !live.is_empty() => {
                            let (rec, _) = live.swap_remove(i);
                            slab.release(rec);
                        }
                        1 | 2 if live.len() < 6 => live.push((slab.alloc(), SharerSet::default())),
                        3..=5 if !live.is_empty() => {
                            let (rec, reference) = &mut live[i];
                            removed += u32::from(reference.bits().contains(node));
                            slab.remove(*rec, node);
                            reference.remove(node);
                        }
                        // The home's copies are never recorded.
                        _ if !live.is_empty() && node != home => {
                            let (rec, reference) = &mut live[i];
                            let (was, before) = (reference.overflowed(), reference.count());
                            slab.note_sharer(f, rec, node, nodes, home);
                            f.note_sharer(reference, node, nodes, home);
                            overflows += u32::from(!was && reference.overflowed());
                            rounded += u32::from(reference.count() > before + 1);
                        }
                        _ => {}
                    }
                    let at = format!("{nodes} nodes, {}, step {step}", f.label());
                    for (rec, reference) in &live {
                        let got = slab.get(*rec);
                        assert_eq!(got, *reference, "{at}");
                        assert_eq!(slab.contains(*rec, node), reference.contains(node), "{at}");
                        assert_eq!(slab.is_empty(*rec), reference.is_empty(), "{at}");
                        assert_eq!(got.count(), reference.count(), "{at}");
                        let targets: Vec<NodeId> = got.expand(nodes, home).iter().collect();
                        let want: Vec<NodeId> = reference.expand(nodes, home).iter().collect();
                        assert_eq!(targets, want, "{at}");
                        assert!(targets.windows(2).all(|w| w[0].0 < w[1].0), "{at}");
                    }
                    assert_eq!(slab.slots().0, live.len(), "{at}: slots leaked");
                }
                assert!(
                    removed > 0,
                    "{nodes} nodes, {}: no member removed",
                    f.label()
                );
                if nodes >= 64 {
                    match f {
                        DirFormat::Limited { .. } => assert!(overflows > 0, "{nodes}: no overflow"),
                        DirFormat::Coarse { .. } => assert!(rounded > 0, "{nodes}: no rounding"),
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn capped_bitmap_matches_the_sorted_pointer_reference() {
        use ccn_sim::SplitMix64;
        for nodes in [16u16, 1024] {
            for cap in 1..=MAX_PTRS {
                let f = DirFormat::Limited { ptrs: cap };
                let mut rng = SplitMix64::new(u64::from(nodes) << 8 | u64::from(cap));
                let node_below =
                    |rng: &mut SplitMix64| NodeId(rng.next_below(u64::from(nodes)) as u16);
                let home = node_below(&mut rng);
                let mut set = SharerSet::default();
                let mut reference = SortedPtrs::default();
                let (mut overflows, mut removes_after_overflow) = (0, 0);
                for step in 0..3000 {
                    // Half the operands are recorded pointers, so removals
                    // and repeated notes hit members on the wide machine.
                    let node = match reference.members() {
                        m if !m.is_empty() && rng.next_below(2) == 0 => {
                            m[rng.next_below(m.len() as u64) as usize]
                        }
                        _ => node_below(&mut rng),
                    };
                    match rng.next_below(32) {
                        // The line's record starts over (it went Uncached).
                        0 => (set, reference) = (SharerSet::default(), SortedPtrs::default()),
                        1..=8 => {
                            removes_after_overflow += u32::from(reference.overflow);
                            set.remove(node);
                            reference.remove(node);
                        }
                        _ => {
                            let was = reference.overflow;
                            f.note_sharer(&mut set, node, nodes, home);
                            reference.note(cap, node);
                            overflows += u32::from(!was && reference.overflow);
                        }
                    }
                    let probe = node_below(&mut rng);
                    let at = format!("{nodes} nodes, limited:{cap}, step {step}: {reference:?}");
                    for n in [node, probe] {
                        assert_eq!(set.contains(n), reference.contains(n), "{at}");
                        assert_eq!(f.proves_sharer(&set, n), reference.proves(n), "{at}");
                    }
                    assert_eq!(set.count(), u32::from(reference.len), "{at}");
                    assert_eq!(
                        set.is_empty(),
                        reference.len == 0 && !reference.overflow,
                        "{at}"
                    );
                    let targets: Vec<NodeId> = set.expand(nodes, home).iter().collect();
                    assert_eq!(targets, reference.expand(nodes, home), "{at}");
                }
                assert!(
                    overflows > 0,
                    "{nodes} nodes, limited:{cap}: never overflowed"
                );
                assert!(
                    removes_after_overflow > 0,
                    "{nodes} nodes, limited:{cap}: no removal after overflow"
                );
            }
        }
    }
}
