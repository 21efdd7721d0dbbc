//! The unified statistics spine.
//!
//! Every hardware model in the workspace (bus, memory banks, protocol
//! engines, network ports, …) keeps its own counters and answers two
//! questions through inherent methods of the same names: "what have you
//! counted?" (`stats_snapshot`) and "start counting afresh"
//! (`reset_stats`). A composite (a node, the whole machine) answers them
//! by calling its children's, so a snapshot is one [`ComponentStats`]
//! tree in which a component appears only where its parent adds it.
//!
//! Taking a snapshot never mutates a component, and resetting statistics
//! never touches simulated state (reservations, queue contents, busy
//! times), so the tree is safe to read from a calibrated simulator: it
//! holds the same counters the components already keep.

/// A named snapshot of one component's statistics, with child components
/// nested beneath it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentStats {
    /// Component name, unique among its siblings (e.g. `"bus"`).
    pub name: String,
    /// Monotonic event counts, e.g. `("transactions", 1024)`.
    pub counters: Vec<(&'static str, u64)>,
    /// Derived point-in-time values, e.g. `("mean_queue_delay", 3.5)`.
    pub gauges: Vec<(&'static str, f64)>,
    /// Sub-component snapshots.
    pub children: Vec<ComponentStats>,
}

impl ComponentStats {
    /// An empty snapshot named `name`.
    pub fn named(name: impl Into<String>) -> Self {
        ComponentStats {
            name: name.into(),
            ..ComponentStats::default()
        }
    }

    /// Adds a counter (builder style).
    #[must_use]
    pub fn counter(mut self, key: &'static str, value: u64) -> Self {
        self.counters.push((key, value));
        self
    }

    /// Adds a gauge (builder style).
    #[must_use]
    pub fn gauge(mut self, key: &'static str, value: f64) -> Self {
        self.gauges.push((key, value));
        self
    }

    /// Adds a child snapshot (builder style).
    #[must_use]
    pub fn child(mut self, child: ComponentStats) -> Self {
        self.children.push(child);
        self
    }

    /// The value of counter `key` on this node, if present.
    pub fn get_counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    /// Sums counter `key` over this node and every descendant.
    pub fn total(&self, key: &str) -> u64 {
        self.get_counter(key).unwrap_or(0) + self.children.iter().map(|c| c.total(key)).sum::<u64>()
    }

    /// The first descendant (depth-first, including `self`) named `name`.
    pub fn find(&self, name: &str) -> Option<&ComponentStats> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Renders the tree as indented `name: counter=value …` lines, one
    /// component per line — a debugging view, not a stable artifact
    /// format.
    pub fn render(&self) -> String {
        fn walk(node: &ComponentStats, depth: usize, out: &mut String) {
            use std::fmt::Write as _;
            let _ = write!(out, "{:indent$}{}:", "", node.name, indent = depth * 2);
            for (k, v) in &node.counters {
                let _ = write!(out, " {k}={v}");
            }
            for (k, v) in &node.gauges {
                let _ = write!(out, " {k}={v:.3}");
            }
            out.push('\n');
            for child in &node.children {
                walk(child, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_totals_and_lookup() {
        let tree = ComponentStats::named("machine")
            .counter("events", 5)
            .child(ComponentStats::named("node0").counter("events", 2))
            .child(
                ComponentStats::named("node1")
                    .counter("events", 3)
                    .child(ComponentStats::named("bus").counter("events", 7)),
            );
        assert_eq!(tree.total("events"), 17);
        assert_eq!(tree.get_counter("events"), Some(5));
        assert_eq!(tree.find("bus").unwrap().total("events"), 7);
        assert!(tree.find("node2").is_none());
    }

    #[test]
    fn render_is_indented_by_depth() {
        let tree = ComponentStats::named("m")
            .child(ComponentStats::named("c").counter("x", 1).gauge("g", 0.5));
        let text = tree.render();
        assert!(text.contains("m:\n"));
        assert!(text.contains("  c: x=1 g=0.500"));
    }

    /// A four-level tree exercising `total`, `find` and `render` past the
    /// two-level cases above (machine → node → component → sub-unit is
    /// the real spine's depth).
    fn deep_tree() -> ComponentStats {
        ComponentStats::named("machine")
            .counter("events", 1)
            .child(
                ComponentStats::named("node0")
                    .counter("events", 10)
                    .child(
                        ComponentStats::named("cc")
                            .counter("events", 100)
                            .gauge("util", 0.5)
                            .child(ComponentStats::named("engine0").counter("events", 1000))
                            .child(ComponentStats::named("engine1").counter("events", 2000)),
                    )
                    .child(ComponentStats::named("bus").counter("events", 7)),
            )
            .child(
                ComponentStats::named("node1")
                    .child(ComponentStats::named("cc").counter("events", 5)),
            )
    }

    #[test]
    fn total_sums_across_all_levels() {
        let tree = deep_tree();
        assert_eq!(tree.total("events"), 1 + 10 + 100 + 1000 + 2000 + 7 + 5);
        // A key missing everywhere sums to zero.
        assert_eq!(tree.total("absent"), 0);
        // Totals from an interior node cover only its subtree.
        assert_eq!(tree.find("node1").unwrap().total("events"), 5);
    }

    #[test]
    fn find_is_depth_first() {
        let tree = deep_tree();
        // Two components are named "cc"; depth-first search must return
        // node0's (the first subtree explored), not node1's.
        assert_eq!(tree.find("cc").unwrap().get_counter("events"), Some(100));
        // Leaves three levels down are reachable.
        assert_eq!(
            tree.find("engine1").unwrap().get_counter("events"),
            Some(2000)
        );
        assert!(tree.find("engine2").is_none());
    }

    #[test]
    fn render_indents_every_level() {
        let text = deep_tree().render();
        assert!(text.contains("machine: events=1\n"));
        assert!(text.contains("\n  node0: events=10\n"));
        assert!(text.contains("\n    cc: events=100 util=0.500\n"));
        assert!(text.contains("\n      engine0: events=1000\n"));
        // One line per component, no more.
        assert_eq!(text.lines().count(), 8);
    }
}
