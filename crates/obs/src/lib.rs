//! Observability layer over the statistics spine.
//!
//! The simulator's components already keep every counter the paper's
//! tables need; this crate turns those counters into *time-resolved* and
//! *distribution-resolved* artifacts without touching simulated behavior:
//!
//! - [`histogram_to_json`] / [`histogram_from_json`] give the
//!   the [`ccn_sim::Histogram`] primitive a lossless, deterministic
//!   JSON form (sorted keys, sparse buckets);
//! - [`Sampler`] walks a [`ComponentStats`](ccn_sim::ComponentStats) tree
//!   at a fixed cycle cadence and accumulates a columnar [`Timeline`] of
//!   per-component series (occupancy, queue depth, dispatch backlog);
//! - [`ChromeTrace`] converts protocol-handler executions and timeline
//!   counters into the Chrome `trace_event` JSON format that
//!   `chrome://tracing` and Perfetto load directly;
//! - [`FlightRecorder`] records every protocol-handler execution,
//!   assigns every coherence transaction a stable id, and turns its
//!   causally-linked span events into an exact per-category cycle
//!   decomposition (queueing, occupancy, bus, network, stall);
//! - [`write_sidecar`] drops per-run metrics files next to a sweep's
//!   checkpoints so `repro --jobs N` runs keep their distributions.
//!
//! Everything here is observational: feeding the same deterministic
//! simulation through this crate twice produces byte-identical JSON.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod flight;
pub mod sidecar;
pub mod timeline;

pub use chrome::{cycles_to_us, ChromeTrace};
pub use flight::{BlameSummary, Category, FlightEvent, FlightRecorder, TxnId, TxnRecord};
pub use sidecar::{
    read_sidecar, sidecar_path, write_sidecar, SidecarError, SIDECAR_SCHEMA_VERSION,
};
pub use timeline::{Sampler, SeriesKind, Timeline};

use ccn_harness::Json;
use ccn_sim::Histogram;

/// Serializes a histogram as a deterministic JSON object.
///
/// Buckets are stored sparsely as `[bucket_index, count]` pairs in
/// ascending index order; `count`, `sum`, `min` and `max` are the exact
/// aggregates. The sum is saturated to `u64` (latency sums in this
/// simulator sit far below that; a run would need ~2^64 total cycles of
/// recorded delay to clip).
pub fn histogram_to_json(h: &Histogram) -> Json {
    Json::obj([
        ("count", Json::UInt(h.count())),
        (
            "sum",
            Json::UInt(u64::try_from(h.sum()).unwrap_or(u64::MAX)),
        ),
        ("min", Json::UInt(h.min().unwrap_or(0))),
        ("max", Json::UInt(h.max().unwrap_or(0))),
        (
            "buckets",
            Json::Arr(
                h.nonzero_buckets()
                    .into_iter()
                    .map(|(i, c)| Json::Arr(vec![Json::UInt(i as u64), Json::UInt(c)]))
                    .collect(),
            ),
        ),
    ])
}

/// Rebuilds a histogram from [`histogram_to_json`] output. Returns `None`
/// if the value is not a well-formed histogram object.
pub fn histogram_from_json(j: &Json) -> Option<Histogram> {
    let buckets: Vec<(usize, u64)> = match j.get("buckets")? {
        Json::Arr(items) => items
            .iter()
            .map(|pair| match pair {
                Json::Arr(iv) if iv.len() == 2 => Some((iv[0].as_u64()? as usize, iv[1].as_u64()?)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    let h = Histogram::from_parts(
        &buckets,
        u128::from(j.get("sum")?.as_u64()?),
        j.get("min")?.as_u64()?,
        j.get("max")?.as_u64()?,
    );
    (h.count() == j.get("count")?.as_u64()?).then_some(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_json_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 5, 900, 1 << 33] {
            h.record(v);
        }
        let j = histogram_to_json(&h);
        let back = histogram_from_json(&j).expect("well-formed");
        assert_eq!(back, h);
        // Text form round-trips through the parser too.
        let reparsed = ccn_harness::json::parse(&j.to_string()).unwrap();
        assert_eq!(histogram_from_json(&reparsed).unwrap(), h);
    }

    #[test]
    fn histogram_json_is_deterministic_text() {
        let mut h = Histogram::new();
        h.record(7);
        h.record(9);
        let a = histogram_to_json(&h).to_string();
        let b = histogram_to_json(&h.clone()).to_string();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"buckets\":"));
    }

    #[test]
    fn malformed_histogram_json_rejected() {
        assert!(histogram_from_json(&Json::Null).is_none());
        assert!(histogram_from_json(&Json::obj([("count", Json::UInt(1))])).is_none());
        // Count mismatch is rejected rather than silently accepted.
        let mut h = Histogram::new();
        h.record(3);
        let mut j = histogram_to_json(&h);
        if let Json::Obj(map) = &mut j {
            map.insert("count".into(), Json::UInt(99));
        }
        assert!(histogram_from_json(&j).is_none());
    }
}
