//! Statistics primitives: counters and running means.
//!
//! These are deliberately simple — everything the paper reports is a count,
//! a mean, a ratio, or a rate — but they are used pervasively, so they live
//! here rather than being re-invented per crate.

use std::fmt;

/// A running mean/min/max accumulator over `f64` samples.
///
/// ```
/// let mut acc = ccn_sim::stats::Accumulator::new();
/// acc.record(2.0);
/// acc.record(4.0);
/// assert_eq!(acc.mean(), 3.0);
/// assert_eq!(acc.count(), 2);
/// assert_eq!(acc.min(), Some(2.0));
/// assert_eq!(acc.max(), Some(4.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: f64) {
        self.count += 1;
        self.sum += sample;
        self.sum_sq += sample * sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of all samples, or 0.0 if none were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Population variance of the samples (0 if fewer than two).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / self.count as f64 - mean * mean).max(0.0)
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (σ/μ): 1 for a Poisson arrival process,
    /// larger for bursty ones. 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        let mean = self.mean();
        if mean.abs() < f64::EPSILON {
            0.0
        } else {
            self.std_dev() / mean
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &Accumulator) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Accumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} mean={:.3}", self.count, self.mean())
    }
}

/// Number of buckets in a [`Histogram`]: one for zero plus one per power
/// of two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A streaming log2-bucketed histogram of `u64` samples (latencies in
/// cycles, queue depths, …).
///
/// Bucket 0 counts zeros; bucket `i` (1..=64) counts samples in
/// `[2^(i-1), 2^i)`. Count, sum, min and max are tracked exactly, so the
/// mean and max reported from a histogram are bit-identical to what an
/// [`Accumulator`] fed the same integer samples would report (integer
/// sums stay exact in `f64` below 2^53). Quantiles interpolate within the
/// containing bucket and are clamped to the observed `[min, max]`, which
/// makes them deterministic and merge-stable: merging per-node
/// histograms then asking for p99 gives the same answer as one histogram
/// fed every sample.
///
/// ```
/// let mut h = ccn_sim::stats::Histogram::new();
/// for v in [1u64, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), Some(100));
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((1.0..=4.0).contains(&p50));
/// assert_eq!(ccn_sim::stats::Histogram::new().quantile(0.5), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// The bucket index holding `value`: 0 for 0, else `64 - leading_zeros`.
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The half-open sample range `[lo, hi)` covered by bucket `index`
/// (saturating at `u64::MAX` for the top bucket).
pub fn bucket_range(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 1),
        64 => (1u64 << 63, u64::MAX),
        i => (1u64 << (i - 1), 1u64 << i),
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean of all samples, or 0.0 if none were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The raw bucket counts (index `i` covers [`bucket_range`]`(i)`).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// The non-empty buckets as `(bucket_index, count)` pairs, ascending —
    /// the compact form used when serializing a histogram.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Restores a histogram from its serialized parts (the inverse of
    /// [`nonzero_buckets`](Histogram::nonzero_buckets) plus the exact
    /// aggregates). Used by sidecar readers; bucket indexes past the last
    /// bucket are ignored.
    pub fn from_parts(buckets: &[(usize, u64)], sum: u128, min: u64, max: u64) -> Self {
        let mut h = Histogram::new();
        for &(i, c) in buckets {
            if i < HISTOGRAM_BUCKETS {
                h.buckets[i] = c;
                h.count += c;
            }
        }
        if h.count > 0 {
            h.sum = sum;
            h.min = min;
            h.max = max;
        }
        h
    }

    /// The quantile `q` (in `[0, 1]`) estimated by linear interpolation
    /// within the containing log2 bucket, clamped to the observed
    /// `[min, max]`. Returns `None` when the histogram is empty — an
    /// empty distribution has no quantiles, and a silent `0.0` reads as
    /// a real (excellent) latency. Deterministic: depends only on bucket
    /// counts and the exact min/max, both of which merge losslessly.
    ///
    /// The interpolation range of the containing bucket is intersected
    /// with `[min, max]` before interpolating, so a distribution whose
    /// samples all land in one bucket stays pinned inside the observed
    /// range instead of sweeping the bucket's full power-of-two span.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // The 1-based rank of the sample we want.
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bucket_range(i);
                // Interpolate within the part of the bucket that was
                // actually observed.
                let lo = lo.max(self.min) as f64;
                let hi = hi.min(self.max) as f64;
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo + frac * (hi - lo).max(0.0);
                return Some(est.clamp(self.min as f64, self.max as f64));
            }
            seen += c;
        }
        Some(self.max as f64)
    }

    /// Merges another histogram into this one. Deterministic: bucket
    /// counts, count, sum, min and max all combine exactly, so merge
    /// order never matters.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={:.0} p90={:.0} p99={:.0} max={}",
            self.count,
            self.mean(),
            self.quantile(0.50).unwrap_or(0.0),
            self.quantile(0.90).unwrap_or(0.0),
            self.quantile(0.99).unwrap_or(0.0),
            self.max
        )
    }
}

/// Rate helper: events per microsecond given a count and an elapsed time in
/// CPU cycles (5 ns), as used for the "arrival rate of requests per µs"
/// columns of Table 6.
///
/// ```
/// // 1000 requests over 200_000 cycles (1 ms) = 1 request/µs
/// assert!((ccn_sim::stats::rate_per_us(1000, 200_000) - 1.0).abs() < 1e-12);
/// ```
pub fn rate_per_us(count: u64, elapsed_cycles: u64) -> f64 {
    if elapsed_cycles == 0 {
        return 0.0;
    }
    let us = elapsed_cycles as f64 * crate::NS_PER_CPU_CYCLE / 1000.0;
    count as f64 / us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_empty() {
        let acc = Accumulator::new();
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.min(), None);
        assert_eq!(acc.max(), None);
        assert_eq!(acc.count(), 0);
    }

    #[test]
    fn accumulator_merge() {
        let mut a = Accumulator::new();
        a.record(1.0);
        let mut b = Accumulator::new();
        b.record(3.0);
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.mean(), 3.0);
        assert_eq!(a.min(), Some(1.0));
        assert_eq!(a.max(), Some(5.0));
    }

    #[test]
    fn variance_and_cv() {
        let mut a = Accumulator::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.record(x);
        }
        assert!((a.variance() - 4.0).abs() < 1e-9);
        assert!((a.std_dev() - 2.0).abs() < 1e-9);
        assert!((a.cv() - 0.4).abs() < 1e-9);
        let empty = Accumulator::new();
        assert_eq!(empty.variance(), 0.0);
        assert_eq!(empty.cv(), 0.0);
    }

    #[test]
    fn rate_helper() {
        assert_eq!(rate_per_us(100, 0), 0.0);
        // 200 cycles = 1 µs
        assert!((rate_per_us(5, 200) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn histogram_one_bucket_quantiles_stay_in_observed_range() {
        // All samples in bucket 7 ([64, 128)); the observed range is
        // [70, 100], and every quantile must stay inside it — not sweep
        // the bucket's full power-of-two span.
        let mut h = Histogram::new();
        for v in [70u64, 80, 90, 100] {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            assert!(
                (70.0..=100.0).contains(&est),
                "q={q}: {est} escaped the observed range"
            );
        }
        assert_eq!(h.quantile(1.0), Some(100.0));
        // A single-sample histogram pins every quantile to the sample.
        let mut one = Histogram::new();
        one.record(77);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(one.quantile(q), Some(77.0));
        }
    }

    #[test]
    fn histogram_merge_of_empty_is_identity() {
        let mut h = Histogram::new();
        for v in [3u64, 9, 200] {
            h.record(v);
        }
        let before = h.clone();
        h.merge(&Histogram::new());
        assert_eq!(h, before);
        // And merging into an empty histogram copies the other side.
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
        // Empty-into-empty stays empty (quantiles have no value).
        let mut e2 = Histogram::new();
        e2.merge(&Histogram::new());
        assert_eq!(e2.count(), 0);
        assert_eq!(e2.quantile(0.99), None);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, u64::MAX] {
            h.record(v);
        }
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1); // 0
        assert_eq!(buckets[1], 1); // 1
        assert_eq!(buckets[2], 2); // 2, 3
        assert_eq!(buckets[3], 2); // 4, 7
        assert_eq!(buckets[4], 1); // 8..16
        assert_eq!(buckets[64], 1); // top bucket
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn histogram_mean_matches_accumulator_exactly() {
        // The report pipeline replaced an f64 Accumulator with the
        // histogram; integer samples must produce bit-identical means.
        let samples = [3u64, 17, 1000, 250_000, 0, 42, 42, 99_999_999];
        let mut h = Histogram::new();
        let mut a = Accumulator::new();
        for &v in &samples {
            h.record(v);
            a.record(v as f64);
        }
        assert_eq!(h.mean().to_bits(), a.mean().to_bits());
        assert_eq!(
            (h.max().unwrap() as f64).to_bits(),
            a.max().unwrap().to_bits()
        );
    }

    #[test]
    fn histogram_quantiles_clamped_and_ordered() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.50).unwrap();
        let p90 = h.quantile(0.90).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p90 && p90 <= p99);
        assert!(p99 <= h.max().unwrap() as f64);
        assert!(h.quantile(0.0).unwrap() >= h.min().unwrap() as f64);
        assert_eq!(h.quantile(1.0), Some(1000.0));
        // A single-valued distribution pins every quantile to that value.
        let mut one = Histogram::new();
        one.record(77);
        one.record(77);
        assert_eq!(one.quantile(0.5), Some(77.0));
        assert_eq!(one.quantile(0.99), Some(77.0));
    }

    #[test]
    fn histogram_merge_is_lossless_and_order_independent() {
        let mut all = Histogram::new();
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 0..100u64 {
            all.record(v * v);
            if v % 2 == 0 {
                a.record(v * v);
            } else {
                b.record(v * v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all);
        assert_eq!(ab.quantile(0.9), all.quantile(0.9));
        assert!(ab.quantile(0.9).is_some());
    }

    #[test]
    fn histogram_round_trips_through_parts() {
        let mut h = Histogram::new();
        for v in [5u64, 5, 80, 1 << 40] {
            h.record(v);
        }
        let rebuilt = Histogram::from_parts(
            &h.nonzero_buckets(),
            h.sum(),
            h.min().unwrap(),
            h.max().unwrap(),
        );
        assert_eq!(rebuilt, h);
    }

    #[test]
    fn bucket_ranges_partition_the_domain() {
        assert_eq!(bucket_range(0), (0, 1));
        assert_eq!(bucket_range(1), (1, 2));
        assert_eq!(bucket_range(5), (16, 32));
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_range(i).1, bucket_range(i + 1).0);
        }
    }
}
