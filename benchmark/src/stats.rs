//! Order statistics and seed derivation shared by every workload.

use xsc_metrics::quantiles::percentile;

/// A set of durations in nanoseconds, summarised by nearest-rank
/// percentiles (`xsc_metrics::quantiles::percentile`).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Nearest-rank percentile in nanoseconds; `None` when no sample was
    /// taken.
    pub fn pct_ns(&self, p: f64) -> Option<u64> {
        if self.ns.is_empty() {
            return None;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        Some(percentile(&sorted, p))
    }

    /// Nearest-rank percentile in seconds; NaN (which makes the run
    /// incorrect) when no sample was taken.
    pub fn pct_s(&self, p: f64) -> f64 {
        self.pct_ns(p).map_or(f64::NAN, |ns| ns as f64 * 1e-9)
    }

    pub fn median_s(&self) -> f64 {
        self.pct_s(50.0)
    }
}

/// SplitMix64 finaliser: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_sort_before_ranking() {
        let mut s = Samples::new();
        for ns in [5, 1, 4, 2, 3] {
            s.push_ns(ns * 1_000_000_000);
        }
        assert_eq!(s.median_s(), 3.0);
        assert_eq!(s.pct_s(100.0), 5.0);
        assert_eq!(s.pct_ns(0.0), Some(1_000_000_000));
        assert_eq!(s.len(), 5);
        assert_eq!(Samples::new().pct_ns(50.0), None);
        assert!(Samples::new().median_s().is_nan());
    }

    #[test]
    fn p99_of_a_hundred_samples_is_the_99th() {
        let mut s = Samples::new();
        for ns in (1..=100).rev() {
            s.push_ns(ns);
        }
        assert_eq!(s.pct_ns(99.0), Some(99));
        assert_eq!(s.pct_ns(50.0), Some(50));
    }

    #[test]
    fn mix_separates_salts_and_seeds() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
