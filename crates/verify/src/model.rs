//! Abstract transition-system model of the directory protocol.
//!
//! The model runs the simulator's own protocol code: every message
//! delivery and every request a node's processor presents calls the
//! handlers in [`ccn_protocol::exec`], the functions the timed machine
//! calls, which drive the real [`ccn_protocol::directory::Directory`].
//! Around them the model keeps an untimed abstraction of everything
//! else: one cache and one MSHR per node per line, a message pool in
//! place of the timed network, and a per-line write counter in place of
//! real data. Its side of [`exec::Host`] applies a handler's effects to
//! that state, ignores every cycle value, and is where the seeded
//! [`Mutation`]s live. So every interleaving the explorer enumerates is a
//! schedule of the machine's handlers, and a violation found here is a
//! bug in the code the simulator runs.
//!
//! One delivery is one step: the handler runs to completion, and so do
//! the buffered requests it releases, replayed in order before the step
//! ends. The machine queues such a replay at the engine instead, where a
//! request of a higher-priority class can dispatch ahead of it.
//!
//! # Message ordering
//!
//! The machine's network delivers messages between a source/destination
//! pair in send order (FIFO ports, constant fall-through), and the
//! receiving controller dispatches network *responses* before network
//! *requests* (the paper's nearest-to-completion-first rule). Together
//! these give the protocol its architected ordering guarantee, which
//! [`Ordering::Causal`] reproduces: per destination and line, messages
//! are consumed in send order, except that a response may overtake
//! earlier-sent requests. [`Ordering::PairFifo`] keeps only per-pair
//! per-class FIFO and frees everything else — an adversarial network the
//! real machine does not have, useful for probing which races the
//! architected ordering is actually load-bearing for.

use std::fmt::Write as _;

use ccn_mem::{LineAddr, NodeId};
use ccn_protocol::directory::{DirRequest, DirRequestKind, DirState, Directory};
use ccn_protocol::exec::{self, Copies, Grant, StepRun};
use ccn_protocol::handlers::{Fanout, HandlerKind};
use ccn_protocol::{DirFormat, Msg, MsgClass, MsgKind, SharerBitmap};
use ccn_sim::Cycle;

/// Message-ordering discipline the model's network enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// The machine's architected guarantee: per destination and line,
    /// delivery follows send order, but a response may overtake
    /// earlier-sent requests (dispatch-priority jump).
    #[default]
    Causal,
    /// Adversarial: FIFO only within one (source, destination, class)
    /// triple; requests and responses reorder freely.
    PairFifo,
}

/// A protocol mutation: a deliberately seeded bug used to demonstrate that
/// the checker catches real defects (and what its counterexamples look
/// like). `None` is the faithful protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// Faithful protocol.
    #[default]
    None,
    /// A sharer acknowledges an invalidation but keeps its copy readable.
    SharerIgnoresInv,
    /// A sharer invalidates its copy but never sends the ack.
    SharerDropsInvAck,
    /// The home omits the last invalidation of a fan-out while still
    /// counting it in the expected acks.
    HomeDropsInv,
    /// A forwarded owner hands out an exclusive copy but keeps its own
    /// modified copy.
    OwnerKeepsCopy,
}

impl Mutation {
    /// All mutations, with their CLI names.
    pub const ALL: [(&'static str, Mutation); 4] = [
        ("sharer-ignores-inv", Mutation::SharerIgnoresInv),
        ("sharer-drops-inv-ack", Mutation::SharerDropsInvAck),
        ("home-drops-inv", Mutation::HomeDropsInv),
        ("owner-keeps-copy", Mutation::OwnerKeepsCopy),
    ];

    /// Parses a CLI mutation name.
    pub fn parse(name: &str) -> Option<Mutation> {
        if name == "none" {
            return Some(Mutation::None);
        }
        Mutation::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, m)| *m)
    }
}

/// Size and behavior bounds of the modeled system.
#[derive(Debug, Clone, Copy)]
pub struct ModelConfig {
    /// Number of nodes (2–64; exhaustive exploration wants 2–4).
    pub nodes: u16,
    /// Number of cache lines (homes assigned round-robin).
    pub lines: u8,
    /// Maximum writes issued per line. Writes are what grow the version
    /// space, so bounding them makes the reachable state space finite.
    pub max_writes: u32,
    /// Whether nodes may spontaneously evict cached copies (silent clean
    /// drops and dirty write-backs).
    pub evictions: bool,
    /// Message-ordering discipline.
    pub ordering: Ordering,
    /// Seeded protocol bug, if any.
    pub mutation: Mutation,
    /// Directory sharer representation the home nodes run. Coarse and
    /// limited-pointer formats over-invalidate (safety is preserved, some
    /// invalidations are useless); sparse directories add evict-invalidate
    /// recalls to the explored behavior.
    pub format: DirFormat,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            nodes: 2,
            lines: 1,
            max_writes: 2,
            evictions: true,
            ordering: Ordering::Causal,
            mutation: Mutation::None,
            format: DirFormat::FullMap,
        }
    }
}

impl ModelConfig {
    /// The home node of `line` (round-robin).
    pub fn home_of(&self, line: u8) -> NodeId {
        NodeId(line as u16 % self.nodes)
    }

    /// The line address used for `line` in the directory.
    pub fn addr(&self, line: u8) -> LineAddr {
        LineAddr(line as u64)
    }
}

/// A node's cached copy of one line. The payload is the write-version
/// number the copy was filled with (the model's stand-in for data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyState {
    /// No copy.
    Invalid,
    /// Read-only copy holding version `v`.
    Shared(u64),
    /// Writable (dirty) copy holding version `v`.
    Modified(u64),
}

/// One outstanding transaction of a node on a line (the machine's MSHR).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mshr {
    kind: DirRequestKind,
    grant: Grant,
}

impl Mshr {
    fn new(kind: DirRequestKind) -> Self {
        Mshr {
            kind,
            grant: Grant::default(),
        }
    }
}

/// An in-flight message, stamped with a global send-sequence number that
/// the [`Ordering`] rules consult.
#[derive(Debug, Clone, Copy)]
struct Flight {
    seq: u64,
    msg: Msg,
}

/// One atomic step of the transition system.
///
/// `Issue` and `Evict` model processor activity; `Deliver` consumes one
/// in-flight message and runs the receiving controller's handler to
/// completion (including any directory-pending replays it unblocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Label {
    /// A processor on `node` issues a read or write to `line`.
    Issue {
        /// Issuing node.
        node: u16,
        /// Target line.
        line: u8,
        /// Write (true) or read (false).
        write: bool,
    },
    /// `node` evicts its copy of `line` (write-back if dirty).
    Evict {
        /// Evicting node.
        node: u16,
        /// Evicted line.
        line: u8,
    },
    /// Deliver the next eligible message to `to` for `line`.
    Deliver {
        /// Destination node.
        to: u16,
        /// Line the message concerns.
        line: u8,
        /// Source node (informational; determined by the ordering rule).
        from: u16,
        /// Whether the response-priority slot is taken (see [`Ordering`]).
        response: bool,
    },
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Label::Issue { node, line, write } => {
                let op = if write { "write" } else { "read" };
                write!(f, "node {node} issues a {op} to line {line}")
            }
            Label::Evict { node, line } => write!(f, "node {node} evicts line {line}"),
            Label::Deliver { to, line, from, .. } => {
                write!(f, "deliver to node {to} from node {from} (line {line})")
            }
        }
    }
}

/// A full state of the modeled system.
#[derive(Debug, Clone)]
pub struct ModelState {
    dirs: Vec<Directory>,
    caches: Vec<Vec<CopyState>>,
    mshrs: Vec<Vec<Option<Mshr>>>,
    flights: Vec<Flight>,
    memory: Vec<u64>,
    version: Vec<u64>,
    writes: Vec<u32>,
    next_seq: u64,
    /// Set when a handler hit a protocol-impossible situation (an assert
    /// the real machine would die on); the state is terminal.
    wedged: Option<String>,
}

impl ModelState {
    /// The initial state: everything invalid, memory at version 0.
    pub fn new(cfg: &ModelConfig) -> Self {
        assert!(cfg.nodes >= 2, "the protocol needs at least two nodes");
        assert!(cfg.lines >= 1, "at least one line");
        let n = cfg.nodes as usize;
        let l = cfg.lines as usize;
        ModelState {
            dirs: (0..cfg.nodes)
                .map(|i| {
                    Directory::with_format(NodeId(i), cfg.lines as usize, cfg.format, cfg.nodes)
                })
                .collect(),
            caches: vec![vec![CopyState::Invalid; l]; n],
            mshrs: vec![vec![None; l]; n],
            flights: Vec::new(),
            memory: vec![0; l],
            version: vec![0; l],
            writes: vec![0; l],
            next_seq: 0,
            wedged: None,
        }
    }

    /// The cached copy `node` holds of `line`.
    pub fn copy(&self, node: u16, line: u8) -> CopyState {
        self.caches[node as usize][line as usize]
    }

    /// The latest committed write version of `line`.
    pub fn version_of(&self, line: u8) -> u64 {
        self.version[line as usize]
    }

    /// Whether the system is fully quiescent: no in-flight messages, no
    /// outstanding transactions, no busy directory lines. (Directory
    /// pending queues cannot be non-empty here: handlers replay them
    /// whenever a line goes idle.)
    pub fn is_quiescent(&self, cfg: &ModelConfig) -> bool {
        self.flights.is_empty()
            && self.mshrs.iter().flatten().all(Option::is_none)
            && (0..cfg.lines).all(|l| !self.dirs[cfg.home_of(l).index()].is_busy(cfg.addr(l)))
    }

    // -----------------------------------------------------------------
    // Enabled labels
    // -----------------------------------------------------------------

    /// All labels enabled in this state, in a deterministic order
    /// (issues, evictions, then deliveries by destination/line/source).
    pub fn enabled(&self, cfg: &ModelConfig) -> Vec<Label> {
        let mut out = Vec::new();
        if self.wedged.is_some() {
            return out; // terminal
        }
        for node in 0..cfg.nodes {
            for line in 0..cfg.lines {
                let li = line as usize;
                let no_mshr = self.mshrs[node as usize][li].is_none();
                let copy = self.caches[node as usize][li];
                if no_mshr && copy == CopyState::Invalid {
                    out.push(Label::Issue {
                        node,
                        line,
                        write: false,
                    });
                }
                if self.writes[li] < cfg.max_writes {
                    // A write is issuable on a miss (I), an upgrade (S),
                    // or as a hit (M); reads on a present copy are hits
                    // with no protocol action and are skipped.
                    let issuable = match copy {
                        CopyState::Invalid | CopyState::Shared(_) => no_mshr,
                        CopyState::Modified(_) => no_mshr,
                    };
                    if issuable {
                        out.push(Label::Issue {
                            node,
                            line,
                            write: true,
                        });
                    }
                }
            }
        }
        if cfg.evictions {
            for node in 0..cfg.nodes {
                for line in 0..cfg.lines {
                    let li = line as usize;
                    let copy = self.caches[node as usize][li];
                    if copy == CopyState::Invalid {
                        continue;
                    }
                    // Evicting under an outstanding upgrade is legal (the
                    // L2 may displace the line while the MSHR waits); other
                    // MSHR kinds imply no copy is present anyway.
                    let ok = match self.mshrs[node as usize][li] {
                        None => true,
                        Some(m) => m.kind == DirRequestKind::Upgrade,
                    };
                    if ok {
                        out.push(Label::Evict { node, line });
                    }
                }
            }
        }
        self.deliverable(cfg, &mut out);
        out
    }

    /// Appends the enabled `Deliver` labels per the ordering discipline.
    fn deliverable(&self, cfg: &ModelConfig, out: &mut Vec<Label>) {
        match cfg.ordering {
            Ordering::Causal => {
                // Per (to, line): the oldest message, plus the oldest
                // response when the oldest message is a request.
                let mut keys: Vec<(u16, u8)> = self
                    .flights
                    .iter()
                    .map(|f| (f.msg.to.0, f.msg.line.0 as u8))
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                for (to, line) in keys {
                    let group = || {
                        self.flights
                            .iter()
                            .filter(move |f| f.msg.to.0 == to && f.msg.line.0 as u8 == line)
                    };
                    let oldest = group().min_by_key(|f| f.seq).expect("non-empty group");
                    if oldest.msg.kind.class() == MsgClass::NetResponse {
                        out.push(Label::Deliver {
                            to,
                            line,
                            from: oldest.msg.from.0,
                            response: true,
                        });
                    } else {
                        out.push(Label::Deliver {
                            to,
                            line,
                            from: oldest.msg.from.0,
                            response: false,
                        });
                        if let Some(resp) = group()
                            .filter(|f| f.msg.kind.class() == MsgClass::NetResponse)
                            .min_by_key(|f| f.seq)
                        {
                            out.push(Label::Deliver {
                                to,
                                line,
                                from: resp.msg.from.0,
                                response: true,
                            });
                        }
                    }
                }
            }
            Ordering::PairFifo => {
                let mut keys: Vec<(u16, u8, u16, bool)> = self
                    .flights
                    .iter()
                    .map(|f| {
                        (
                            f.msg.to.0,
                            f.msg.line.0 as u8,
                            f.msg.from.0,
                            f.msg.kind.class() == MsgClass::NetResponse,
                        )
                    })
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                for (to, line, from, response) in keys {
                    out.push(Label::Deliver {
                        to,
                        line,
                        from,
                        response,
                    });
                }
            }
        }
    }

    /// Resolves a `Deliver` label to the index of the flight it consumes,
    /// per the ordering discipline. `None` if no such message is eligible.
    fn resolve(
        &self,
        cfg: &ModelConfig,
        to: u16,
        line: u8,
        from: u16,
        response: bool,
    ) -> Option<usize> {
        let in_group = |f: &Flight| f.msg.to.0 == to && f.msg.line.0 as u8 == line;
        match cfg.ordering {
            Ordering::Causal => {
                let oldest = self
                    .flights
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| in_group(f))
                    .min_by_key(|(_, f)| f.seq)?;
                if response {
                    let (i, f) = self
                        .flights
                        .iter()
                        .enumerate()
                        .filter(|(_, f)| in_group(f) && f.msg.kind.class() == MsgClass::NetResponse)
                        .min_by_key(|(_, f)| f.seq)?;
                    (f.msg.from.0 == from).then_some(i)
                } else {
                    let (i, f) = oldest;
                    if f.msg.kind.class() == MsgClass::NetResponse {
                        return None; // the oldest is a response; use the response slot
                    }
                    (f.msg.from.0 == from).then_some(i)
                }
            }
            Ordering::PairFifo => {
                let class = if response {
                    MsgClass::NetResponse
                } else {
                    MsgClass::NetRequest
                };
                self.flights
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| {
                        in_group(f) && f.msg.from.0 == from && f.msg.kind.class() == class
                    })
                    .min_by_key(|(_, f)| f.seq)
                    .map(|(i, _)| i)
            }
        }
    }

    // -----------------------------------------------------------------
    // Transitions
    // -----------------------------------------------------------------

    /// Applies `label`. Returns a human-readable note describing what the
    /// step did, or `Err` when the label is not enabled here (used by the
    /// trace shrinker, which speculatively deletes events).
    pub fn apply(&mut self, cfg: &ModelConfig, label: Label) -> Result<String, String> {
        if self.wedged.is_some() {
            return Err("state is wedged".into());
        }
        match label {
            Label::Issue { node, line, write } => self.issue(cfg, node, line, write),
            Label::Evict { node, line } => self.evict(cfg, node, line),
            Label::Deliver {
                to,
                line,
                from,
                response,
            } => {
                let idx = self
                    .resolve(cfg, to, line, from, response)
                    .ok_or_else(|| format!("no eligible message for {label}"))?;
                let msg = self.flights.remove(idx).msg;
                let note = format!(
                    "deliver {:?} node {} -> node {}",
                    msg.kind, msg.from.0, msg.to.0
                );
                Ok(self.run_handlers(cfg, msg.to, Some(msg.kind), note, |h| {
                    exec::handle_net(h, msg, 0);
                }))
            }
        }
    }

    fn issue(
        &mut self,
        cfg: &ModelConfig,
        node: u16,
        line: u8,
        write: bool,
    ) -> Result<String, String> {
        let li = line as usize;
        let ni = node as usize;
        if self.mshrs[ni][li].is_some() {
            return Err(format!("node {node} already has line {line} outstanding"));
        }
        let copy = self.caches[ni][li];
        if write {
            if self.writes[li] >= cfg.max_writes {
                return Err(format!("write budget for line {line} exhausted"));
            }
            self.writes[li] += 1;
            if let CopyState::Modified(_) = copy {
                self.version[li] += 1;
                self.caches[ni][li] = CopyState::Modified(self.version[li]);
                return Ok(format!(
                    "node {node} write hit on line {line}: now holds M(v{})",
                    self.version[li]
                ));
            }
        } else if copy != CopyState::Invalid {
            return Err(format!("node {node} read of line {line} would hit"));
        }
        let kind = match (write, copy) {
            (false, _) => DirRequestKind::Read,
            (true, CopyState::Invalid) => DirRequestKind::ReadExcl,
            (true, CopyState::Shared(_)) => DirRequestKind::Upgrade,
            (true, CopyState::Modified(_)) => unreachable!("write hits return above"),
        };
        self.mshrs[ni][li] = Some(Mshr::new(kind));
        let note = format!("node {node} issues {kind:?} for line {line}");
        Ok(self.run_handlers(cfg, NodeId(node), None, note, |h| {
            exec::handle_bus_request(h, kind, cfg.addr(line), 0);
        }))
    }

    fn evict(&mut self, cfg: &ModelConfig, node: u16, line: u8) -> Result<String, String> {
        let li = line as usize;
        let ni = node as usize;
        let copy = self.caches[ni][li];
        self.caches[ni][li] = CopyState::Invalid;
        let home = cfg.home_of(line);
        match copy {
            CopyState::Invalid => Err(format!("node {node} holds no copy of line {line}")),
            CopyState::Shared(_) => Ok(format!(
                "node {node} silently drops its clean copy of line {line}"
            )),
            CopyState::Modified(v) => {
                if home.0 == node {
                    self.memory[li] = v;
                    Ok(format!(
                        "node {node} (home) writes line {line} v{v} back to its local memory"
                    ))
                } else {
                    // The direct data path: no handler runs at the evictor.
                    self.post(Msg {
                        kind: MsgKind::WritebackReq,
                        line: cfg.addr(line),
                        from: NodeId(node),
                        to: home,
                        requester: NodeId(node),
                        acks_pending: 0,
                        payload: v,
                    });
                    Ok(format!(
                        "node {node} evicts dirty line {line}: WritebackReq(v{v}) to home node {}",
                        home.0
                    ))
                }
            }
        }
    }

    /// Puts `msg` in flight.
    fn post(&mut self, msg: Msg) {
        self.flights.push(Flight {
            seq: self.next_seq,
            msg,
        });
        self.next_seq += 1;
    }

    /// Runs `handler` on `node`, then every request it released for
    /// replay, in order, all in one step; returns the step's narration,
    /// which starts with `note`. `delivering` is the kind of the message
    /// being delivered, if any. A panic in the protocol code is a state
    /// the machine would die on: it wedges the state.
    fn run_handlers(
        &mut self,
        cfg: &ModelConfig,
        node: NodeId,
        delivering: Option<MsgKind>,
        note: String,
        handler: impl FnOnce(&mut At<'_>),
    ) -> String {
        let mut at = At {
            st: self,
            cfg,
            node,
            delivering,
            replays: Vec::new(),
            note,
        };
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handler(&mut at);
            let mut next = 0;
            while let Some(&(line, request)) = at.replays.get(next) {
                next += 1;
                let _ = write!(
                    at.note,
                    "; home replays buffered {:?} from node {}",
                    request.kind, request.requester.0
                );
                exec::handle_home_request(&mut at, request.kind, line, request.requester, 0);
            }
        }));
        let mut note = at.note;
        if let Err(panic) = ran {
            let why = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into());
            let why = format!("node {}: {why}", node.0);
            let _ = write!(note, "; WEDGE: {why}");
            self.wedged = Some(why);
        }
        note
    }

    // -----------------------------------------------------------------
    // Invariants
    // -----------------------------------------------------------------

    /// Checks the every-state invariants. Returns `(kind, detail)` of the
    /// first violation.
    ///
    /// * `protocol-wedge` — a handler hit a state the machine asserts out
    ///   on (lost ownership, unexpected ack, ...).
    /// * `swmr` — two writable copies, or a writable copy concurrent with
    ///   a readable one (single-writer / multiple-reader broken).
    /// * `stale-data` — a cached copy holds a version other than the
    ///   latest committed write.
    pub fn check(&self, cfg: &ModelConfig) -> Option<(&'static str, String)> {
        if let Some(w) = &self.wedged {
            return Some(("protocol-wedge", w.clone()));
        }
        for line in 0..cfg.lines {
            let li = line as usize;
            let mut owner: Option<u16> = None;
            let mut readers: Vec<u16> = Vec::new();
            for node in 0..cfg.nodes {
                match self.caches[node as usize][li] {
                    CopyState::Invalid => {}
                    CopyState::Shared(_) => readers.push(node),
                    CopyState::Modified(_) => {
                        if let Some(prev) = owner {
                            return Some((
                                "swmr",
                                format!("nodes {prev} and {node} both hold line {line} Modified"),
                            ));
                        }
                        owner = Some(node);
                    }
                }
            }
            if let (Some(o), Some(r)) = (owner, readers.first()) {
                return Some((
                    "swmr",
                    format!(
                        "node {o} holds line {line} Modified while node {r} still \
                         holds a readable copy"
                    ),
                ));
            }
            for node in 0..cfg.nodes {
                let v = match self.caches[node as usize][li] {
                    CopyState::Invalid => continue,
                    CopyState::Shared(v) | CopyState::Modified(v) => v,
                };
                if v != self.version[li] {
                    return Some((
                        "stale-data",
                        format!(
                            "node {node} holds line {line} at v{v} but the latest \
                             committed write is v{}",
                            self.version[li]
                        ),
                    ));
                }
            }
        }
        None
    }

    /// Checks the quiescent-state invariants (call only when
    /// [`ModelState::is_quiescent`]): memory currency and directory/cache
    /// agreement.
    pub fn check_quiescent(&self, cfg: &ModelConfig) -> Option<(&'static str, String)> {
        for line in 0..cfg.lines {
            let li = line as usize;
            let home = cfg.home_of(line);
            let state = self.dirs[home.index()].state_of(cfg.addr(line));
            let mut remote_owner: Option<u16> = None;
            let mut any_owner = false;
            let mut remote_readers: Vec<u16> = Vec::new();
            for node in 0..cfg.nodes {
                match self.caches[node as usize][li] {
                    CopyState::Modified(_) => {
                        any_owner = true;
                        if node != home.0 {
                            remote_owner = Some(node);
                        }
                    }
                    CopyState::Shared(_) if node != home.0 => remote_readers.push(node),
                    _ => {}
                }
            }
            if !any_owner && self.memory[li] != self.version[li] {
                return Some((
                    "lost-write",
                    format!(
                        "quiescent with no dirty copy, but memory holds line {line} v{} \
                         while the latest committed write is v{}",
                        self.memory[li], self.version[li]
                    ),
                ));
            }
            match (remote_owner, state) {
                (Some(o), DirState::Dirty(d)) if d.0 == o => {}
                (Some(o), other) => {
                    return Some((
                        "directory-disagreement",
                        format!(
                            "node {o} holds line {line} Modified but the directory says \
                             {other:?}"
                        ),
                    ));
                }
                (None, DirState::Dirty(d)) => {
                    return Some((
                        "directory-disagreement",
                        format!(
                            "directory says node {} owns line {line} but it holds no \
                             dirty copy",
                            d.0
                        ),
                    ));
                }
                (None, DirState::Shared(bm)) => {
                    // Stale bits from silent evictions are legal; missing
                    // bits are not.
                    for r in &remote_readers {
                        if !bm.contains(NodeId(*r)) {
                            return Some((
                                "directory-disagreement",
                                format!(
                                    "node {r} holds line {line} Shared but is missing \
                                     from the directory's sharer set"
                                ),
                            ));
                        }
                    }
                }
                (None, DirState::Uncached) => {
                    if let Some(r) = remote_readers.first() {
                        return Some((
                            "directory-disagreement",
                            format!(
                                "node {r} holds line {line} Shared but the directory \
                                 says Uncached"
                            ),
                        ));
                    }
                }
            }
        }
        None
    }

    // -----------------------------------------------------------------
    // Canonical encoding and rendering
    // -----------------------------------------------------------------

    /// Canonical byte encoding of the state, used for visited-set
    /// deduplication. Two states encode equally iff they are
    /// behaviorally identical under the configured ordering (in-flight
    /// message sequence numbers are rank-normalized).
    pub fn encode(&self, cfg: &ModelConfig) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.push(u8::from(self.wedged.is_some()));
        for node in 0..cfg.nodes as usize {
            for line in 0..cfg.lines as usize {
                match self.caches[node][line] {
                    CopyState::Invalid => out.push(0),
                    CopyState::Shared(v) => {
                        out.push(1);
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    CopyState::Modified(v) => {
                        out.push(2);
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
                match self.mshrs[node][line] {
                    None => out.push(0),
                    Some(m) => {
                        out.push(match m.kind {
                            DirRequestKind::Read => 1,
                            DirRequestKind::ReadExcl => 2,
                            DirRequestKind::Upgrade => 3,
                        });
                        out.push(u8::from(m.grant.has_data));
                        out.extend_from_slice(&m.grant.payload.to_le_bytes());
                        out.push(u8::from(m.grant.needs_inv_done));
                        out.push(u8::from(m.grant.inv_done));
                    }
                }
            }
        }
        for li in 0..cfg.lines as usize {
            out.extend_from_slice(&self.memory[li].to_le_bytes());
            out.extend_from_slice(&self.version[li].to_le_bytes());
            out.extend_from_slice(&self.writes[li].to_le_bytes());
        }
        for dir in &self.dirs {
            dir.encode_canonical(&mut out);
        }
        // In-flight messages: sort by the ordering-relevant key, stable in
        // send order, so irrelevant cross-group interleavings collapse.
        let mut idx: Vec<usize> = (0..self.flights.len()).collect();
        match cfg.ordering {
            Ordering::Causal => idx.sort_by_key(|&i| {
                let m = &self.flights[i].msg;
                (m.to.0, m.line.0, self.flights[i].seq)
            }),
            Ordering::PairFifo => idx.sort_by_key(|&i| {
                let m = &self.flights[i].msg;
                (
                    m.to.0,
                    m.line.0,
                    m.from.0,
                    m.kind.class() == MsgClass::NetResponse,
                    self.flights[i].seq,
                )
            }),
        }
        for i in idx {
            let m = &self.flights[i].msg;
            out.push(kind_code(m.kind));
            out.extend_from_slice(&m.line.0.to_le_bytes());
            out.extend_from_slice(&m.from.0.to_le_bytes());
            out.extend_from_slice(&m.to.0.to_le_bytes());
            out.extend_from_slice(&m.requester.0.to_le_bytes());
            out.extend_from_slice(&m.acks_pending.to_le_bytes());
            out.extend_from_slice(&m.payload.to_le_bytes());
        }
        out
    }

    /// Multi-line human-readable dump of the state (used at the end of a
    /// counterexample trace).
    pub fn render(&self, cfg: &ModelConfig) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for line in 0..cfg.lines {
            let li = line as usize;
            let home = cfg.home_of(line);
            let _ = writeln!(
                out,
                "line {line} (home node {}): committed v{}, memory v{}, dir {:?}{}",
                home.0,
                self.version[li],
                self.memory[li],
                self.dirs[home.index()].state_of(cfg.addr(line)),
                if self.dirs[home.index()].is_busy(cfg.addr(line)) {
                    " (busy)"
                } else {
                    ""
                }
            );
            for node in 0..cfg.nodes {
                let c = self.caches[node as usize][li];
                let m = self.mshrs[node as usize][li];
                if c == CopyState::Invalid && m.is_none() {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  node {node}: cache {c:?}{}",
                    match m {
                        None => String::new(),
                        Some(m) => format!(", outstanding {:?}", m.kind),
                    }
                );
            }
        }
        for f in &self.flights {
            let _ = writeln!(
                out,
                "in flight: {:?} node {} -> node {} (line {}, v{})",
                f.msg.kind, f.msg.from.0, f.msg.to.0, f.msg.line.0, f.msg.payload
            );
        }
        if let Some(w) = &self.wedged {
            let _ = writeln!(out, "WEDGED: {w}");
        }
        out
    }
}

/// One node of the model running handlers within one step: the model's
/// side of [`exec::Host`]. It applies each handler's effects untimed,
/// narrates them, seeds the configured [`Mutation`], and holds the
/// requests a handler releases for replay until the handler returns.
struct At<'a> {
    st: &'a mut ModelState,
    cfg: &'a ModelConfig,
    node: NodeId,
    /// The kind of the message being delivered (`None` for a processor's
    /// own request).
    delivering: Option<MsgKind>,
    replays: Vec<(LineAddr, DirRequest)>,
    note: String,
}

impl At<'_> {
    fn copy(&mut self, line: LineAddr) -> &mut CopyState {
        &mut self.st.caches[self.node.index()][line.0 as usize]
    }
}

impl exec::Host for At<'_> {
    fn node(&self) -> NodeId {
        self.node
    }

    fn home_of(&self, line: LineAddr) -> NodeId {
        self.cfg.home_of(line.0 as u8)
    }

    fn dir(&mut self) -> &mut Directory {
        &mut self.st.dirs[self.node.index()]
    }

    fn memory(&self, line: LineAddr) -> u64 {
        self.st.memory[line.0 as usize]
    }

    fn set_memory(&mut self, line: LineAddr, payload: u64) {
        self.st.memory[line.0 as usize] = payload;
        let _ = write!(self.note, "; memory takes v{payload}");
    }

    /// A node caches a line in one copy, its requester's: sparing the
    /// requester leaves nothing.
    fn copies(&self, line: LineAddr, spare_requester: bool) -> Copies {
        let copy = self.st.caches[self.node.index()][line.0 as usize];
        Copies {
            held: !spare_requester && copy != CopyState::Invalid,
            owned: matches!(copy, CopyState::Modified(_)),
        }
    }

    fn invalidate_copies(&mut self, line: LineAddr, spare_requester: bool) -> Option<u64> {
        let copy = *self.copy(line);
        if spare_requester || copy == CopyState::Invalid {
            return None;
        }
        let dirty = match copy {
            CopyState::Modified(v) => Some(v),
            _ => None,
        };
        let node = self.node.0;
        match (self.cfg.mutation, self.delivering) {
            (Mutation::SharerIgnoresInv, Some(MsgKind::InvReq)) => {
                let _ = write!(self.note, "; node {node} KEEPS its copy [mutation]");
                None
            }
            (Mutation::OwnerKeepsCopy, Some(MsgKind::ReadExclFwd)) => {
                let _ = write!(
                    self.note,
                    "; node {node} KEEPS its modified copy [mutation]"
                );
                dirty
            }
            _ => {
                *self.copy(line) = CopyState::Invalid;
                let _ = write!(self.note, "; node {node} invalidates its copy");
                dirty
            }
        }
    }

    fn downgrade_owner(&mut self, line: LineAddr) -> Option<u64> {
        let CopyState::Modified(v) = *self.copy(line) else {
            return None;
        };
        *self.copy(line) = CopyState::Shared(v);
        let _ = write!(self.note, "; node {} downgrades to S(v{v})", self.node.0);
        Some(v)
    }

    fn requester_copy(&self, line: LineAddr) -> Option<u64> {
        match self.st.caches[self.node.index()][line.0 as usize] {
            CopyState::Invalid => None,
            CopyState::Shared(v) | CopyState::Modified(v) => Some(v),
        }
    }

    fn grant(&mut self, line: LineAddr) -> Option<&mut Grant> {
        let mshr = self.st.mshrs[self.node.index()][line.0 as usize].as_mut()?;
        Some(&mut mshr.grant)
    }

    /// The transaction's kind decides the fill: a read fills a shared
    /// copy, a write commits the next version.
    fn complete(&mut self, line: LineAddr, _exclusive: bool, payload: u64, _at: Cycle) {
        let (ni, li) = (self.node.index(), line.0 as usize);
        let m = self.st.mshrs[ni][li]
            .take()
            .expect("completion without an outstanding transaction");
        let node = self.node.0;
        if m.kind == DirRequestKind::Read {
            self.st.caches[ni][li] = CopyState::Shared(payload);
            let _ = write!(self.note, "; node {node} read completes with S(v{payload})");
        } else {
            self.st.version[li] += 1;
            let v = self.st.version[li];
            self.st.caches[ni][li] = CopyState::Modified(v);
            let _ = write!(self.note, "; node {node} write completes: commits v{v}");
        }
    }

    fn run(&mut self, _: HandlerKind, _: Fanout, _: LineAddr, _: Cycle) -> StepRun {
        StepRun::default()
    }

    fn probe(&mut self, _: HandlerKind, _: LineAddr, _: Cycle) -> StepRun {
        self.note
            .push_str("; home holds the request until the line settles");
        StepRun::default()
    }

    fn sent_at(&self, _: usize) -> Option<Cycle> {
        None
    }

    fn fill_overhead(&self) -> Cycle {
        0
    }

    fn send(&mut self, _: Cycle, msg: Msg) {
        if self.cfg.mutation == Mutation::SharerDropsInvAck && msg.kind == MsgKind::InvAck {
            let _ = write!(
                self.note,
                "; node {} DROPS the InvAck [mutation]",
                msg.from.0
            );
            return;
        }
        let _ = write!(self.note, "; {:?}", msg.kind);
        if msg.kind.carries_data() || (msg.kind == MsgKind::InvAck && msg.acks_pending != 0) {
            let _ = write!(self.note, "(v{})", msg.payload);
        }
        let _ = write!(self.note, " to node {}", msg.to.0);
        if self.cfg.lines > 1 {
            // A recall's invalidations concern another line than the step's.
            let _ = write!(self.note, " (line {})", msg.line.0);
        }
        if matches!(msg.kind, MsgKind::DataExclResp | MsgKind::UpgradeAck) && msg.acks_pending > 0 {
            let _ = write!(self.note, " ({} ack(s) pending)", msg.acks_pending);
        }
        self.st.post(msg);
    }

    fn replay(&mut self, line: LineAddr, request: DirRequest, _: Cycle) {
        self.replays.push((line, request));
    }

    fn count_useless_invalidation(&mut self) {
        self.note.push_str("; no copy left (useless invalidation)");
    }

    fn send_invalidations(
        &mut self,
        run: &StepRun,
        line: LineAddr,
        requester: NodeId,
        targets: &SharerBitmap,
    ) {
        let last = targets.iter().last();
        match last {
            Some(dropped) if self.cfg.mutation == Mutation::HomeDropsInv => {
                exec::send_invalidations(self, run, line, requester, &targets.without(dropped));
                let _ = write!(
                    self.note,
                    "; home DROPS the invalidation to node {} [mutation]",
                    dropped.0
                );
            }
            _ => exec::send_invalidations(self, run, line, requester, targets),
        }
    }
}

fn kind_code(kind: MsgKind) -> u8 {
    use MsgKind::*;
    match kind {
        ReadReq => 0,
        ReadExclReq => 1,
        UpgradeReq => 2,
        WritebackReq => 3,
        ReadFwd => 4,
        ReadExclFwd => 5,
        InvReq => 6,
        DataResp => 7,
        DataExclResp => 8,
        UpgradeAck => 9,
        InvDone => 10,
        SharingWriteback => 11,
        OwnershipAck => 12,
        InvAck => 13,
        FwdMiss => 14,
        ReplacementHint => 15,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes() -> ModelConfig {
        ModelConfig::default()
    }

    fn deliver_all(cfg: &ModelConfig, st: &mut ModelState) {
        for _ in 0..1000 {
            let labels: Vec<Label> = st
                .enabled(cfg)
                .into_iter()
                .filter(|l| matches!(l, Label::Deliver { .. }))
                .collect();
            match labels.first() {
                None => return,
                Some(&l) => {
                    st.apply(cfg, l).expect("enabled label applies");
                }
            }
        }
        panic!("message drain did not terminate");
    }

    #[test]
    fn remote_read_fills_shared_and_registers_in_directory() {
        let cfg = two_nodes();
        let mut st = ModelState::new(&cfg);
        st.apply(
            &cfg,
            Label::Issue {
                node: 1,
                line: 0,
                write: false,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        assert_eq!(st.copy(1, 0), CopyState::Shared(0));
        assert_eq!(
            st.dirs[0].state_of(LineAddr(0)),
            DirState::Shared(DirFormat::FullMap.just(NodeId(1), 2, NodeId(0)))
        );
        assert!(st.is_quiescent(&cfg));
        assert!(st.check(&cfg).is_none());
        assert!(st.check_quiescent(&cfg).is_none());
    }

    #[test]
    fn write_invalidates_remote_sharer() {
        let cfg = two_nodes();
        let mut st = ModelState::new(&cfg);
        st.apply(
            &cfg,
            Label::Issue {
                node: 1,
                line: 0,
                write: false,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        st.apply(
            &cfg,
            Label::Issue {
                node: 0,
                line: 0,
                write: true,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        assert_eq!(st.copy(0, 0), CopyState::Modified(1));
        assert_eq!(st.copy(1, 0), CopyState::Invalid);
        assert_eq!(st.version_of(0), 1);
        assert!(st.check(&cfg).is_none());
        assert!(st.is_quiescent(&cfg));
    }

    #[test]
    fn dirty_remote_owner_serves_a_forwarded_read() {
        let cfg = two_nodes();
        let mut st = ModelState::new(&cfg);
        st.apply(
            &cfg,
            Label::Issue {
                node: 1,
                line: 0,
                write: true,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        assert_eq!(st.copy(1, 0), CopyState::Modified(1));
        st.apply(
            &cfg,
            Label::Issue {
                node: 0,
                line: 0,
                write: false,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        assert_eq!(st.copy(0, 0), CopyState::Shared(1));
        assert_eq!(st.copy(1, 0), CopyState::Shared(1));
        assert!(st.check_quiescent(&cfg).is_none());
    }

    #[test]
    fn writeback_fwdmiss_race_resolves_from_memory() {
        let cfg = two_nodes();
        let mut st = ModelState::new(&cfg);
        st.apply(
            &cfg,
            Label::Issue {
                node: 1,
                line: 0,
                write: true,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        // Owner evicts; the write-back is in flight when home forwards.
        st.apply(&cfg, Label::Evict { node: 1, line: 0 }).unwrap();
        st.apply(
            &cfg,
            Label::Issue {
                node: 0,
                line: 0,
                write: false,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        assert_eq!(st.copy(0, 0), CopyState::Shared(1));
        assert!(st.is_quiescent(&cfg));
        assert!(st.check_quiescent(&cfg).is_none());
    }

    #[test]
    fn a_forbidden_delivery_wedges_the_state() {
        let cfg = two_nodes();
        let forbidden = Msg {
            kind: MsgKind::InvDone,
            line: LineAddr(0),
            from: NodeId(0),
            to: NodeId(1),
            requester: NodeId(1),
            acks_pending: 0,
            payload: 0,
        };
        // An InvDone at a node with no outstanding transaction, and an
        // InvAck at a home that expects none: the machine would die on
        // either, so the model must end the path there.
        for msg in [
            forbidden,
            Msg {
                kind: MsgKind::InvAck,
                from: NodeId(1),
                to: NodeId(0),
                ..forbidden
            },
        ] {
            let mut st = ModelState::new(&cfg);
            st.post(msg);
            let deliver = Label::Deliver {
                to: msg.to.0,
                line: 0,
                from: msg.from.0,
                response: true,
            };
            assert_eq!(
                st.enabled(&cfg),
                vec![
                    Label::Issue {
                        node: 0,
                        line: 0,
                        write: false
                    },
                    Label::Issue {
                        node: 0,
                        line: 0,
                        write: true
                    },
                    Label::Issue {
                        node: 1,
                        line: 0,
                        write: false
                    },
                    Label::Issue {
                        node: 1,
                        line: 0,
                        write: true
                    },
                    deliver,
                ]
            );
            st.apply(&cfg, deliver).expect("the delivery runs");
            let (kind, _) = st.check(&cfg).expect("the state is wedged");
            assert_eq!(kind, "protocol-wedge", "{msg:?}");
            assert!(st.enabled(&cfg).is_empty(), "a wedged state is terminal");
            assert!(st.render(&cfg).contains("WEDGED"));
        }
    }

    #[test]
    fn encoding_is_stable_across_equivalent_interleavings() {
        let cfg = two_nodes();
        let mut a = ModelState::new(&cfg);
        let mut b = ModelState::new(&cfg);
        a.apply(
            &cfg,
            Label::Issue {
                node: 1,
                line: 0,
                write: false,
            },
        )
        .unwrap();
        b.apply(
            &cfg,
            Label::Issue {
                node: 1,
                line: 0,
                write: false,
            },
        )
        .unwrap();
        assert_eq!(a.encode(&cfg), b.encode(&cfg));
        deliver_all(&cfg, &mut a);
        assert_ne!(a.encode(&cfg), b.encode(&cfg));
    }

    #[test]
    fn mutated_sharer_produces_a_swmr_violation() {
        let cfg = ModelConfig {
            mutation: Mutation::SharerIgnoresInv,
            ..two_nodes()
        };
        let mut st = ModelState::new(&cfg);
        st.apply(
            &cfg,
            Label::Issue {
                node: 1,
                line: 0,
                write: false,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        st.apply(
            &cfg,
            Label::Issue {
                node: 0,
                line: 0,
                write: true,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        let (kind, _) = st.check(&cfg).expect("mutation must violate coherence");
        assert_eq!(kind, "swmr");
    }

    #[test]
    fn sparse_recall_keeps_the_model_coherent() {
        let cfg = ModelConfig {
            nodes: 2,
            lines: 3,
            format: DirFormat::Sparse { slots: 1 },
            ..ModelConfig::default()
        };
        let mut st = ModelState::new(&cfg);
        // Node 1 fills line 0; its home (node 0) has a single dir slot.
        st.apply(
            &cfg,
            Label::Issue {
                node: 1,
                line: 0,
                write: false,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        assert_eq!(st.copy(1, 0), CopyState::Shared(0));
        // Reading line 2 — same home, same slot — evicts line 0 from the
        // directory, recalling (invalidating) node 1's clean copy.
        st.apply(
            &cfg,
            Label::Issue {
                node: 1,
                line: 2,
                write: false,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        assert_eq!(st.copy(1, 2), CopyState::Shared(0));
        assert_eq!(st.copy(1, 0), CopyState::Invalid);
        assert!(st.dirs[0].recalled_lines() > 0, "the recall must have run");
        assert!(st.is_quiescent(&cfg));
        assert!(st.check(&cfg).is_none());
        assert!(st.check_quiescent(&cfg).is_none());
    }

    #[test]
    fn sparse_recall_of_a_dirty_line_saves_the_data() {
        let cfg = ModelConfig {
            nodes: 2,
            lines: 3,
            format: DirFormat::Sparse { slots: 1 },
            ..ModelConfig::default()
        };
        let mut st = ModelState::new(&cfg);
        st.apply(
            &cfg,
            Label::Issue {
                node: 1,
                line: 0,
                write: true,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        assert_eq!(st.copy(1, 0), CopyState::Modified(1));
        // The slot steal recalls the *dirty* line; the data must ride the
        // ack back into home memory (the lost-write invariant checks it).
        st.apply(
            &cfg,
            Label::Issue {
                node: 1,
                line: 2,
                write: false,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        assert_eq!(st.copy(1, 0), CopyState::Invalid);
        assert_eq!(st.version_of(0), 1);
        assert!(st.is_quiescent(&cfg));
        assert!(st.check(&cfg).is_none());
        assert!(st.check_quiescent(&cfg).is_none());
    }

    #[test]
    fn coarse_over_invalidation_stays_coherent() {
        let cfg = ModelConfig {
            nodes: 4,
            lines: 1,
            format: DirFormat::Coarse { region: 2 },
            ..ModelConfig::default()
        };
        let mut st = ModelState::new(&cfg);
        // Node 2 reads; the coarse map records its whole {2, 3} region.
        st.apply(
            &cfg,
            Label::Issue {
                node: 2,
                line: 0,
                write: false,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        // Node 1's write fans an InvReq to node 3 as well — useless but
        // harmless; coherence and directory agreement must survive.
        st.apply(
            &cfg,
            Label::Issue {
                node: 1,
                line: 0,
                write: true,
            },
        )
        .unwrap();
        deliver_all(&cfg, &mut st);
        assert_eq!(st.copy(2, 0), CopyState::Invalid);
        assert_eq!(st.copy(1, 0), CopyState::Modified(1));
        assert!(st.is_quiescent(&cfg));
        assert!(st.check(&cfg).is_none());
        assert!(st.check_quiescent(&cfg).is_none());
    }
}
