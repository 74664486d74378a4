//! Latency samples and the few statistics the report needs.

use std::time::Duration;

/// Latency samples of one op kind, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub Vec<u64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos() as u64);
    }

    /// Appends another set.
    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `q`-quantile (nearest rank) in microseconds; 0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        quantile(&self.0, q) as f64 / 1e3
    }
}

/// Nearest-rank quantile of unsorted `values`; 0 when empty.
pub fn quantile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
