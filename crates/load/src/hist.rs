//! Log-bucketed histograms for latency (and any other u64) distributions.
//!
//! HDR-histogram-style layout: values are bucketed by order of magnitude
//! (position of the highest set bit) with a fixed number of linear
//! sub-buckets per octave, giving a bounded relative error (≤ 1/32 ≈ 3.1%
//! here) at every scale from nanoseconds to hours while using a few KiB:
//! buckets are allocated only up to the highest one ever recorded (8 bytes
//! × 32 per octave of the largest value), so an empty histogram owns no
//! memory and a retained one costs what its range needs, not the 16 KiB of
//! the full 64-octave table. Recording is O(1); quantiles are a cumulative
//! scan, so reported percentiles are monotone in the quantile by
//! construction.

/// Linear sub-buckets per power-of-two octave. 32 bounds the relative
/// quantile error at 1/32.
const SUB_BUCKETS: u64 = 32;
const SUB_BITS: u32 = 5;

/// A log-bucketed histogram over `u64` values.
#[derive(Clone)]
pub struct Histogram {
    /// Bucket counts up to the highest bucket recorded so far; every
    /// bucket past the end is zero.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS {
            // The first two octaves are exact (values 0..32 map 1:1).
            return value as usize;
        }
        let octave = 63 - value.leading_zeros();
        let sub = (value >> (octave - SUB_BITS)) - SUB_BUCKETS;
        ((octave - SUB_BITS + 1) as u64 * SUB_BUCKETS + sub) as usize
    }

    /// The inclusive upper bound of bucket `idx` (the value reported for
    /// quantiles landing in it).
    fn bucket_upper(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB_BUCKETS {
            return idx;
        }
        let octave = idx / SUB_BUCKETS + SUB_BITS as u64 - 1;
        let sub = idx % SUB_BUCKETS + SUB_BUCKETS;
        // Computed in u128: the top octave's last bucket bound is 2^64 - 1,
        // which overflows the shift in u64.
        let upper = ((sub as u128 + 1) << (octave - SUB_BITS as u64)) - 1;
        upper.min(u64::MAX as u128) as u64
    }

    /// The count of `value`'s bucket, growing the table to reach it.
    fn bucket_mut(&mut self, value: u64) -> &mut u64 {
        let idx = Self::bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        &mut self.counts[idx]
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        *self.bucket_mut(value) += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `n` observations of the same value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        *self.bucket_mut(value) += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in [0, 1]: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q × count)`. Returns 0
    /// when empty. Monotone in `q` and clamped to `[min, max]`, so
    /// cross-bucket rounding can never report a value outside the observed
    /// range.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The standard percentile summary: (p50, p90, p99, p999).
    pub fn percentiles(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.quantile(0.999),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(1.0 / 32.0), 0);
        assert_eq!(h.quantile(1.0), 31);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn bucket_upper_bounds_bucket_members() {
        // Every value maps to a bucket whose upper bound is ≥ the value
        // and within the bucket's relative-error envelope.
        for v in [0, 1, 31, 32, 33, 100, 1_000, 65_535, 1 << 20, u64::MAX / 2] {
            let idx = Histogram::bucket_index(v);
            let upper = Histogram::bucket_upper(idx);
            assert!(upper >= v, "upper {upper} < value {v}");
            if v >= 32 {
                // Relative error bound: bucket width / value ≤ 1/32.
                assert!(upper - v <= v / 32 + 1, "v={v} upper={upper}");
            }
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 1_000); // 1µs .. 10ms in ns
        }
        let p50 = h.quantile(0.5);
        let exact = 5_000 * 1_000;
        let err = (p50 as f64 - exact as f64).abs() / exact as f64;
        assert!(err < 0.04, "p50 {p50} vs exact {exact} (err {err})");
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut combined = Histogram::new();
        for i in 0..500u64 {
            let v = i * i + 17;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), combined.quantile(q));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Percentiles are monotone: p50 ≤ p90 ≤ p99 ≤ p999 ≤ max for any
        /// sample set.
        #[test]
        fn percentiles_monotone(samples in proptest::collection::vec(any::<u64>(), 1..200)) {
            let mut h = Histogram::new();
            for &s in &samples {
                // Keep within the top octave to exercise wide magnitudes.
                h.record(s >> 1);
            }
            let (p50, p90, p99, p999) = h.percentiles();
            prop_assert!(p50 <= p90);
            prop_assert!(p90 <= p99);
            prop_assert!(p99 <= p999);
            prop_assert!(p999 <= h.max());
            prop_assert!(h.min() <= p50);
        }

        /// For small samples the reported quantile brackets the exact
        /// sorted-sample percentile: it is ≥ the exact order statistic and
        /// within the bucket's relative-error envelope above it.
        #[test]
        fn quantile_brackets_exact_order_statistic(
            samples in proptest::collection::vec(0u64..1_000_000_000, 1..50),
            qsel in 0usize..3,
        ) {
            let q = [0.5, 0.9, 0.99][qsel];
            let mut h = Histogram::new();
            for &s in &samples {
                h.record(s);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let reported = h.quantile(q);
            prop_assert!(reported >= exact, "reported {} < exact {}", reported, exact);
            // Upper envelope: one bucket width above the exact value.
            prop_assert!(
                reported <= exact + exact / 32 + 1,
                "reported {} too far above exact {}",
                reported,
                exact
            );
        }

        /// merge is associative and commutative: (a∪b)∪c = a∪(b∪c) and
        /// a∪b = b∪a observably — the law the sharded runner relies on to
        /// make per-shard histograms partition-independent.
        #[test]
        fn merge_is_associative_and_commutative(
            xs in proptest::collection::vec(any::<u64>(), 0..60),
            ys in proptest::collection::vec(any::<u64>(), 0..60),
            zs in proptest::collection::vec(any::<u64>(), 0..60),
        ) {
            let fill = |vals: &[u64]| {
                let mut h = Histogram::new();
                for &v in vals {
                    h.record(v);
                }
                h
            };
            let same = |a: &Histogram, b: &Histogram| {
                a.count() == b.count()
                    && a.min() == b.min()
                    && a.max() == b.max()
                    && a.sum == b.sum
                    && a.counts == b.counts
            };

            // Associativity.
            let mut left = fill(&xs);
            let mut bc = fill(&ys);
            left.merge(&bc); // (a∪b)
            left.merge(&fill(&zs)); // (a∪b)∪c
            let mut right = fill(&xs);
            bc = fill(&ys);
            bc.merge(&fill(&zs)); // (b∪c)
            right.merge(&bc); // a∪(b∪c)
            prop_assert!(same(&left, &right), "merge not associative");

            // Commutativity.
            let mut ab = fill(&xs);
            ab.merge(&fill(&ys));
            let mut ba = fill(&ys);
            ba.merge(&fill(&xs));
            prop_assert!(same(&ab, &ba), "merge not commutative");
        }

        /// record_n(v, n) is equivalent to n× record(v).
        #[test]
        fn record_n_matches_repeated_record(v in any::<u64>(), n in 1u64..100) {
            let mut a = Histogram::new();
            a.record_n(v, n);
            let mut b = Histogram::new();
            for _ in 0..n {
                b.record(v);
            }
            prop_assert_eq!(a.count(), b.count());
            prop_assert_eq!(a.quantile(0.5), b.quantile(0.5));
            prop_assert_eq!(a.max(), b.max());
        }
    }
}
