//! Physical address layout, identifiers, and page placement.

use std::fmt;

/// Identifies an SMP node (0-based) in the CC-NUMA machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The node index as a `usize` for table indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a compute processor (0-based, global across the machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The processor index as a `usize` for table indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A cache-line-aligned address: the byte address divided by the line size.
///
/// Using line numbers rather than byte addresses everywhere in the protocol
/// prevents an entire class of mixed-granularity bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// Maps pages of the shared address space to their home nodes.
///
/// The paper uses round-robin page placement for all applications except
/// FFT, which uses programmer-directed placement; both are expressed here.
/// Pages not covered by an explicit entry fall back to round-robin.
#[derive(Debug, Clone)]
pub struct PageMap {
    num_nodes: u16,
    /// Explicit placements: `explicit[page - explicit_base]`, `u16::MAX`
    /// meaning "no override".
    explicit_base: u64,
    explicit: Vec<u16>,
}

impl PageMap {
    /// Creates a pure round-robin page map over `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes` is zero.
    pub fn round_robin(num_nodes: u16) -> Self {
        assert!(num_nodes > 0, "a machine needs at least one node");
        PageMap {
            num_nodes,
            explicit_base: 0,
            explicit: Vec::new(),
        }
    }

    /// Overrides the home of `page` to `home` (programmer placement hint).
    pub fn place(&mut self, page: u64, home: NodeId) {
        assert!(home.0 < self.num_nodes, "placement beyond last node");
        if self.explicit.is_empty() {
            self.explicit_base = page;
        }
        if page < self.explicit_base {
            let grow = (self.explicit_base - page) as usize;
            let mut fresh = vec![u16::MAX; grow];
            fresh.extend_from_slice(&self.explicit);
            self.explicit = fresh;
            self.explicit_base = page;
        }
        let idx = (page - self.explicit_base) as usize;
        if idx >= self.explicit.len() {
            self.explicit.resize(idx + 1, u16::MAX);
        }
        self.explicit[idx] = home.0;
    }

    /// The home node of `page`.
    pub fn home_of_page(&self, page: u64) -> NodeId {
        if page >= self.explicit_base {
            let idx = (page - self.explicit_base) as usize;
            if idx < self.explicit.len() && self.explicit[idx] != u16::MAX {
                return NodeId(self.explicit[idx]);
            }
        }
        NodeId((page % self.num_nodes as u64) as u16)
    }

    /// Whether `page` has an explicit placement (hint or first-touch).
    pub fn is_placed(&self, page: u64) -> bool {
        page >= self.explicit_base
            && ((page - self.explicit_base) as usize) < self.explicit.len()
            && self.explicit[(page - self.explicit_base) as usize] != u16::MAX
    }

    /// Number of nodes this map distributes over.
    pub fn num_nodes(&self) -> u16 {
        self.num_nodes
    }
}

/// The machine's physical address geometry: line size, page size, and page
/// placement. Translates byte addresses to lines, pages and home nodes.
#[derive(Debug, Clone)]
pub struct AddressMap {
    /// log2 of the line size.
    line_shift: u32,
    /// log2 of the page size.
    page_shift: u32,
    pages: PageMap,
}

impl AddressMap {
    /// Creates an address map.
    ///
    /// # Panics
    ///
    /// Panics unless `line_bytes` and `page_bytes` are powers of two with
    /// `line_bytes <= page_bytes`.
    pub fn new(line_bytes: u64, page_bytes: u64, pages: PageMap) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(line_bytes <= page_bytes, "a line cannot span pages");
        AddressMap {
            line_shift: line_bytes.trailing_zeros(),
            page_shift: page_bytes.trailing_zeros(),
            pages,
        }
    }

    /// Cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        1 << self.page_shift
    }

    /// The line containing byte address `addr`.
    pub fn line_of(&self, addr: u64) -> LineAddr {
        LineAddr(addr >> self.line_shift)
    }

    /// The page containing byte address `addr`.
    pub fn page_of(&self, addr: u64) -> u64 {
        addr >> self.page_shift
    }

    /// The page containing `line`.
    pub fn page_of_line(&self, line: LineAddr) -> u64 {
        line.0 >> (self.page_shift - self.line_shift)
    }

    /// The home node of the page containing `line`.
    pub fn home_of(&self, line: LineAddr) -> NodeId {
        self.pages.home_of_page(self.page_of_line(line))
    }

    /// Mutable access to the page map, for placement hints.
    pub fn pages_mut(&mut self) -> &mut PageMap {
        &mut self.pages
    }

    /// Shared access to the page map.
    pub fn pages(&self) -> &PageMap {
        &self.pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_homes() {
        let map = AddressMap::new(128, 4096, PageMap::round_robin(4));
        assert_eq!(map.home_of(LineAddr(0)), NodeId(0));
        // 4096/128 = 32 lines per page
        assert_eq!(map.home_of(LineAddr(31)), NodeId(0));
        assert_eq!(map.home_of(LineAddr(32)), NodeId(1));
        assert_eq!(map.home_of(LineAddr(32 * 4)), NodeId(0));
        assert_eq!(map.home_of(LineAddr(32 * 5)), NodeId(1));
    }

    #[test]
    fn line_and_page_math() {
        let map = AddressMap::new(128, 4096, PageMap::round_robin(2));
        assert_eq!(map.line_of(0), LineAddr(0));
        assert_eq!(map.line_of(127), LineAddr(0));
        assert_eq!(map.line_of(128), LineAddr(1));
        assert_eq!(map.page_of(4095), 0);
        assert_eq!(map.page_of(4096), 1);
        assert_eq!(map.page_of_line(LineAddr(32)), 1);
        assert_eq!((map.line_bytes(), map.page_bytes()), (128, 4096));
        for addr in [0, 4095, 4096, 1 << 40, u64::MAX] {
            assert_eq!(map.page_of_line(map.line_of(addr)), map.page_of(addr));
        }
    }

    #[test]
    fn explicit_placement_overrides() {
        let mut pm = PageMap::round_robin(4);
        pm.place(10, NodeId(3));
        pm.place(12, NodeId(0));
        assert_eq!(pm.home_of_page(10), NodeId(3));
        assert_eq!(pm.home_of_page(11), NodeId(3)); // 11 % 4
        assert_eq!(pm.home_of_page(12), NodeId(0));
        assert_eq!(pm.home_of_page(9), NodeId(1)); // fallback 9 % 4
    }

    #[test]
    fn explicit_placement_below_base() {
        let mut pm = PageMap::round_robin(4);
        pm.place(10, NodeId(3));
        pm.place(5, NodeId(2));
        assert_eq!(pm.home_of_page(5), NodeId(2));
        assert_eq!(pm.home_of_page(10), NodeId(3));
        assert_eq!(pm.home_of_page(7), NodeId(3)); // fallback 7 % 4
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_line_size() {
        let _ = AddressMap::new(96, 4096, PageMap::round_robin(1));
    }

    #[test]
    #[should_panic(expected = "beyond last node")]
    fn rejects_placement_out_of_range() {
        let mut pm = PageMap::round_robin(2);
        pm.place(0, NodeId(2));
    }
}
