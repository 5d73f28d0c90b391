//! Order statistics, the rate-ladder rule and the output digest.

/// Median of `xs` (mean of the two middle values for even lengths);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for no values.
pub fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (default "exclusive" method).
/// `None` with fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    Some(out)
}

/// 1-based nearest rank of percentile `p` (0–100) among `n` samples. The
/// small guard keeps products like 0.999 × 10000 from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100) of ascending `sorted`; 0 when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest of the reported tail percentiles (99.9, 99, 95, 90, 75,
/// 50) that has at least ten samples beyond it, or `None` when even the
/// median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= 10)
}

/// A latency sample set summarised as a median plus a tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Median.
    pub p50: f64,
    /// The requested tail percentile, or the highest one with ten
    /// samples beyond it when there are too few samples for it.
    pub tail: f64,
    /// Number of samples.
    pub n: usize,
}

/// Median and tail (`want`, capped by [`tail_percentile`]) of `xs`.
pub fn tail(xs: &[f64], want: f64) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let p = tail_percentile(v.len()).map_or(100.0, |p| p.min(want));
    Tail {
        p50: percentile_sorted(&v, 50.0),
        tail: percentile_sorted(&v, p),
        n: v.len(),
    }
}

/// The highest rate of a ladder climbed in ascending order: the last
/// rung of the leading run of rungs that held (`ok`). 0 when the first
/// rung already failed.
pub fn ladder_max(rungs: &[(f64, bool)]) -> f64 {
    rungs
        .iter()
        .take_while(|&&(_, ok)| ok)
        .last()
        .map_or(0.0, |&(rate, _)| rate)
}

/// Whether a queue-depth series grew over the run: the mean depth over
/// its last quarter exceeds the mean over its first quarter by more than
/// `slack` events.
pub fn backlog_growing(depths: &[f64], slack: f64) -> bool {
    let q = depths.len() / 4;
    if q == 0 {
        return false;
    }
    mean(depths[depths.len() - q..].iter().copied()) - mean(depths[..q].iter().copied()) > slack
}

/// 64-bit FNV-1a, the digest behind every correctness gate.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn tail_caps_the_percentile_at_the_sample_count() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 99.0);
        assert_eq!((t.p50, t.tail, t.n), (500.0, 990.0, 1000));
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            tail(&few, 99.0).tail,
            90.0,
            "p99 of 100 samples falls back to p90"
        );
    }

    #[test]
    fn ladder_max_is_the_last_rung_before_the_first_failure() {
        assert_eq!(ladder_max(&[(1e3, true), (2e3, true), (4e3, false)]), 2e3);
        assert_eq!(ladder_max(&[(1e3, true), (2e3, false), (4e3, true)]), 1e3);
        assert_eq!(ladder_max(&[(1e3, false)]), 0.0);
        assert_eq!(ladder_max(&[(1e3, true), (2e3, true)]), 2e3);
    }

    #[test]
    fn backlog_growth_compares_first_and_last_quarters() {
        let flat = vec![3.0; 100];
        assert!(!backlog_growing(&flat, 8.0));
        let rising: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(backlog_growing(&rising, 8.0));
        assert!(!backlog_growing(&[1.0, 50.0], 8.0), "too short to judge");
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
