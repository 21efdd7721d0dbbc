//! Architecture labels.
//!
//! The paper's comparison swaps the coherence-controller implementation
//! inside an otherwise-fixed node. An architecture is two orthogonal
//! choices, both plain values in a machine's configuration: an engine
//! implementation ([`EngineKind`]: how much each protocol sub-operation
//! costs) and an engine policy ([`EnginePolicy`]: how many engines a
//! controller has and how requests split across them). This module names
//! a combination for reports; see `docs/MODEL.md` for how to add one.

use ccn_protocol::EngineKind;

use crate::EnginePolicy;

/// The report label for an arbitrary `(policy, engine)` combination.
///
/// The paper's four architectures render as their own names; extended
/// policies (engine pairs, interleaved banks) prefix the policy's short
/// name, e.g. `2x2e-HWC`.
///
/// ```
/// use ccn_controller::{arch::report_label, EnginePolicy};
/// use ccn_protocol::EngineKind;
///
/// assert_eq!(report_label(EnginePolicy::Single, EngineKind::Hwc), "HWC");
/// assert_eq!(report_label(EnginePolicy::LocalRemote, EngineKind::Ppc), "2PPC");
/// assert_eq!(
///     report_label(EnginePolicy::Interleaved(4), EngineKind::Hwc),
///     "4ie-HWC"
/// );
/// ```
pub fn report_label(engines: EnginePolicy, engine: EngineKind) -> String {
    let engines_label = match engines {
        EnginePolicy::Single => String::new(),
        EnginePolicy::LocalRemote => "2".to_string(),
        other => format!("{}e-", other.name()),
    };
    format!("{engines_label}{}", engine.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extended_policies_get_prefixed_labels() {
        assert_eq!(
            report_label(EnginePolicy::LocalRemotePairs(2), EngineKind::Ppc),
            "2x2e-PPC"
        );
        assert_eq!(
            report_label(EnginePolicy::Interleaved(4), EngineKind::Hwc),
            "4ie-HWC"
        );
    }
}
