//! Order statistics and a fixed-bucket latency histogram.

/// Median of `values` (mean of the two middle values for an even
/// count). Empty input gives `NaN`.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Mean of the middle half of `values` by rank. Like the median it
/// ignores the stalls a shared machine adds to a few samples, but it is
/// not held to the grid of whole nanoseconds that short spans fall on.
/// Empty input gives `NaN`.
pub fn iq_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quarter = v.len() / 4;
    let middle = &v[quarter..v.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `values` that still has at least
/// [`TAIL_BEYOND`] samples beyond it, as `(percentile, value)`: the
/// sample of rank `n − TAIL_BEYOND` (1-based) in ascending order, whose
/// nearest-rank percentile is `100 · (n − TAIL_BEYOND) / n`. `None`
/// when there are too few samples to have any such percentile.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    let idx = n.checked_sub(TAIL_BEYOND + 1)?;
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (idx + 1) as f64 / n as f64, v[idx]))
}

/// Values below this are counted in exact 1 ns buckets.
const EXACT: u64 = 1 << 10;
/// Sub-buckets per power of two above [`EXACT`] (0.8 % resolution).
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Powers of two covered above [`EXACT`]: up to 2^50 ns.
const OCTAVES: usize = 40;

/// Latency histogram with fixed bucket edges: exact below 1 µs,
/// log-linear (128 buckets per power of two) above. Recording is one
/// array increment, so it can sit inside a closed loop of ~100 ns
/// calls; two histograms merge by adding counts.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; EXACT as usize + OCTAVES * SUB],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        if ns < EXACT {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let sub = ((ns >> (exp - SUB_BITS)) as usize) & (SUB - 1);
        let octave = (exp - EXACT.trailing_zeros()) as usize;
        (EXACT as usize + octave * SUB + sub).min(EXACT as usize + OCTAVES * SUB - 1)
    }

    /// The midpoint of bucket `b`, in ns.
    fn value(b: usize) -> f64 {
        if b < EXACT as usize {
            return b as f64;
        }
        let octave = (b - EXACT as usize) / SUB;
        let sub = (b - EXACT as usize) % SUB;
        let exp = octave as u32 + EXACT.trailing_zeros();
        let lo = ((SUB + sub) as u64) << (exp - SUB_BITS);
        lo as f64 + 0.5 * (1u64 << (exp - SUB_BITS)) as f64
    }

    /// Counts one sample of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank quantile `q ∈ (0, 1]`, in ns (`NaN` when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(b);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (pct, value) = tail(&values).expect("100 samples have a tail");
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), TAIL_BEYOND);

        // Eleven samples: only the smallest has ten beyond it.
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((100.0 / 11.0, 0.0)));
        assert_eq!(tail(&eleven[..10]), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn iq_mean_averages_the_middle_half() {
        // The lowest and highest two of eight are dropped.
        assert_eq!(iq_mean(&[1e6, 3.0, 0.0, 4.0, 5.0, 6.0, 2.0, 9e6]), 4.5);
        assert_eq!(iq_mean(&[7.0]), 7.0);
        assert!(iq_mean(&[]).is_nan());
    }

    #[test]
    fn histogram_quantiles_stay_within_bucket_resolution() {
        let mut h = Histogram::default();
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        assert_eq!(h.quantile(0.005), 500.0);
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 100_000.0;
            assert!((h.quantile(q) - exact).abs() / exact < 0.01, "q={q}");
        }
        let mut other = Histogram::default();
        other.record(7);
        h.merge(&other);
        assert_eq!(h.total, 100_001);
        // Values past the top octave land in the last bucket.
        other.record(u64::MAX);
        assert!(other.quantile(1.0) > 1e14);
    }
}
