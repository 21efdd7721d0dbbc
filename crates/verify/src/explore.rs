//! Bounded exhaustive exploration of the protocol model.
//!
//! A breadth-first search over [`ModelState`]s, deduplicated through the
//! canonical state encoding, so the shortest counterexample is found
//! first. Every transition is checked against the every-state invariants
//! (single-writer/multiple-reader, data currency); every *new* state is
//! additionally probed with a deterministic message drain to verify that
//! the system can always reach quiescence and that, once quiescent, the
//! directory, the caches and memory agree.

use std::collections::VecDeque;

use ccn_sim::FxHashMap;

use crate::model::{Label, ModelConfig, ModelState};
use crate::shrink;

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// Maximum trace depth (number of events) explored. States at the
    /// bound are recorded but not expanded; if any such state exists the
    /// report is marked non-exhaustive.
    pub depth: u32,
    /// Hard cap on distinct states (memory guard): the search ends when
    /// it finds a new state with this many already visited.
    pub max_states: usize,
    /// Step cap for the per-state drain probe and for trace replay.
    pub drain_cap: u32,
}

impl Default for Bounds {
    fn default() -> Self {
        Bounds {
            depth: 64,
            max_states: 4_000_000,
            drain_cap: 10_000,
        }
    }
}

/// One event of a counterexample trace: the label that was applied and
/// the human-readable note describing what it did.
#[derive(Debug, Clone)]
pub struct Step {
    /// The transition label.
    pub label: Label,
    /// What the step did, as narrated by the model.
    pub note: String,
}

/// A checked invariant failure, with the shortest (shrunk) trace that
/// reproduces it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Violation class: `swmr`, `stale-data`, `protocol-wedge`, `stuck`,
    /// `lost-write` or `directory-disagreement`.
    pub kind: String,
    /// One-line description of what is wrong.
    pub detail: String,
    /// The event sequence reproducing the violation from the initial
    /// state.
    pub trace: Vec<Step>,
    /// Rendered dump of the violating state.
    pub end_state: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "coherence violation [{}]: {}", self.kind, self.detail)?;
        writeln!(f, "counterexample ({} events):", self.trace.len())?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:2}. {}", i + 1, step.note)?;
        }
        writeln!(f, "final state:")?;
        for line in self.end_state.lines() {
            writeln!(f, "  {line}")?;
        }
        Ok(())
    }
}

/// Result of one exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken (including ones leading to already-seen states).
    pub transitions: u64,
    /// Whether the reachable state space was covered completely (no state
    /// was left unexpanded because of the depth or state bound).
    pub exhaustive: bool,
    /// The state cap, when reaching it ended the search.
    pub state_cap: Option<usize>,
    /// Deepest BFS layer reached.
    pub depth_reached: u32,
    /// The first violation found, if any (with a shrunk trace).
    pub violation: Option<Violation>,
}

impl Report {
    /// One-line summary for logs and the CLI.
    pub fn summary(&self) -> String {
        let cover = match self.state_cap {
            Some(cap) => format!("stopped at the {cap}-state cap"),
            None if self.exhaustive => "exhaustive".to_string(),
            None => "bounded".to_string(),
        };
        match &self.violation {
            None => format!(
                "explored {} states / {} transitions ({cover}, depth {}): no violations",
                self.states, self.transitions, self.depth_reached
            ),
            Some(v) => format!(
                "explored {} states / {} transitions ({cover}, depth {}): VIOLATION [{}] \
                 with a {}-event counterexample",
                self.states,
                self.transitions,
                self.depth_reached,
                v.kind,
                v.trace.len()
            ),
        }
    }
}

/// Explores the reachable state space of `cfg` up to `bounds`, returning
/// the first violation found (with a shrunk counterexample) or a clean
/// coverage report.
pub fn explore(cfg: &ModelConfig, bounds: &Bounds) -> Report {
    let init = ModelState::new(cfg);
    let mut visited: FxHashMap<Vec<u8>, u32> = FxHashMap::default();
    // meta[id] = (parent id, label+note that produced the state)
    let mut meta: Vec<(u32, Option<Label>)> = Vec::new();
    let mut frontier: VecDeque<(u32, u32, ModelState)> = VecDeque::new();
    visited.insert(init.encode(cfg), 0);
    meta.push((0, None));
    frontier.push_back((0, 0, init));

    let mut transitions: u64 = 0;
    let mut exhaustive = true;
    let mut depth_reached: u32 = 0;
    let mut state_cap = None;

    'search: while let Some((id, depth, state)) = frontier.pop_front() {
        depth_reached = depth_reached.max(depth);
        if depth >= bounds.depth {
            exhaustive = false;
            continue;
        }
        for label in state.enabled(cfg) {
            let mut next = state.clone();
            let Ok(_note) = next.apply(cfg, label) else {
                continue;
            };
            transitions += 1;
            if let Some((kind, _)) = next.check(cfg) {
                let mut labels = path_labels(&meta, id);
                labels.push(label);
                return finish(
                    cfg,
                    bounds,
                    visited.len(),
                    transitions,
                    depth_reached,
                    kind,
                    labels,
                );
            }
            let key = next.encode(cfg);
            if visited.contains_key(&key) {
                continue;
            }
            if visited.len() >= bounds.max_states {
                exhaustive = false;
                state_cap = Some(bounds.max_states);
                break 'search;
            }
            if let Some((kind, drain_labels)) = drain_probe(cfg, &next, bounds.drain_cap) {
                let mut labels = path_labels(&meta, id);
                labels.push(label);
                labels.extend(drain_labels);
                return finish(
                    cfg,
                    bounds,
                    visited.len(),
                    transitions,
                    depth_reached,
                    kind,
                    labels,
                );
            }
            let nid = meta.len() as u32;
            visited.insert(key, nid);
            meta.push((id, Some(label)));
            frontier.push_back((nid, depth + 1, next));
        }
    }

    Report {
        states: visited.len(),
        transitions,
        exhaustive,
        state_cap,
        depth_reached,
        violation: None,
    }
}

/// Reconstructs the label path from the initial state to `id`.
fn path_labels(meta: &[(u32, Option<Label>)], mut id: u32) -> Vec<Label> {
    let mut labels = Vec::new();
    while let (parent, Some(label)) = meta[id as usize] {
        labels.push(label);
        id = parent;
    }
    labels.reverse();
    labels
}

/// Checks that `state` can drain to quiescence through message deliveries
/// alone, and that the quiescent state is consistent. Returns the
/// violation kind and the delivery labels taken to reach it.
fn drain_probe(
    cfg: &ModelConfig,
    state: &ModelState,
    cap: u32,
) -> Option<(&'static str, Vec<Label>)> {
    let mut st = state.clone();
    let mut taken = Vec::new();
    for _ in 0..cap {
        let Some(label) = st
            .enabled(cfg)
            .into_iter()
            .find(|l| matches!(l, Label::Deliver { .. }))
        else {
            break;
        };
        taken.push(label);
        if st.apply(cfg, label).is_err() {
            break;
        }
        if let Some((kind, _)) = st.check(cfg) {
            return Some((kind, taken));
        }
    }
    if !st.is_quiescent(cfg) {
        return Some(("stuck", taken));
    }
    st.check_quiescent(cfg).map(|(kind, _)| (kind, taken))
}

/// Shrinks the counterexample and assembles the final report.
fn finish(
    cfg: &ModelConfig,
    bounds: &Bounds,
    states: usize,
    transitions: u64,
    depth_reached: u32,
    kind: &'static str,
    labels: Vec<Label>,
) -> Report {
    let violation = shrink::shrink_trace(cfg, &labels, kind, bounds.drain_cap)
        .or_else(|| shrink::replay(cfg, &labels, bounds.drain_cap))
        .expect("a violating trace must replay to a violation");
    Report {
        states,
        transitions,
        exhaustive: false,
        state_cap: None,
        depth_reached,
        violation: Some(violation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Mutation;

    #[test]
    fn two_nodes_one_line_is_clean_and_exhaustive() {
        let cfg = ModelConfig::default();
        let report = explore(&cfg, &Bounds::default());
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.exhaustive, "state space should be fully covered");
        assert!(
            report.states > 100,
            "suspiciously small space: {}",
            report.states
        );
    }

    #[test]
    fn state_cap_bounds_the_visited_set() {
        let cfg = ModelConfig {
            nodes: 3,
            ..ModelConfig::default()
        };
        let report = explore(
            &cfg,
            &Bounds {
                max_states: 1_000,
                ..Bounds::default()
            },
        );
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.states <= 1_000, "{} states", report.states);
        assert!(!report.exhaustive);
        assert!(
            report.summary().contains("1000-state cap"),
            "{}",
            report.summary()
        );
    }

    #[test]
    fn dropped_inv_ack_is_caught_as_stuck() {
        let cfg = ModelConfig {
            mutation: Mutation::SharerDropsInvAck,
            ..ModelConfig::default()
        };
        let report = explore(&cfg, &Bounds::default());
        let v = report.violation.expect("mutation must be caught");
        assert_eq!(v.kind, "stuck");
        assert!(
            v.trace.len() <= 15,
            "counterexample not minimal: {} events\n{v}",
            v.trace.len()
        );
    }

    #[test]
    fn ignored_invalidation_breaks_swmr() {
        let cfg = ModelConfig {
            mutation: Mutation::SharerIgnoresInv,
            ..ModelConfig::default()
        };
        let report = explore(&cfg, &Bounds::default());
        let v = report.violation.expect("mutation must be caught");
        assert!(
            v.kind == "swmr" || v.kind == "stale-data",
            "kind: {}",
            v.kind
        );
        assert!(v.trace.len() <= 15, "trace too long:\n{v}");
    }
}
