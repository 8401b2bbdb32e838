//! Order statistics and the digest used by the output checks.

/// Percentiles the tail is chosen from, highest first, in permille.
const TAILS: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// Nearest-rank percentile `p` (0..=100) of `samples` (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (nearest rank) of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile of [`TAILS`] with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond its nearest rank, or `None`
/// when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    let n = n as u64;
    TAILS
        .into_iter()
        .find(|&pm| n - (pm * n).div_ceil(1000) >= TAIL_MIN_BEYOND)
        .map(|pm| pm as f64 / 10.0)
}

/// `(percentile used, value)` of the tail of `samples`; falls back to the
/// median when there are too few samples for any tail.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let p = tail_percentile(samples.len()).unwrap_or(50.0);
    (p, percentile(samples, p))
}

/// 64-bit FNV-1a, the digest of every simulated report the checks compare.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one string.
pub fn fnv(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.update(s.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(28), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        for n in 20..2_000 {
            let samples: Vec<f64> = (1..=n).map(f64::from).collect();
            let (p, v) = tail(&samples);
            let beyond = samples.iter().filter(|&&x| x > v).count();
            assert!(beyond >= 10, "n={n} p{p}: only {beyond} beyond");
        }
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50.0, 2.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv("a"), 0xaf63_dc4c_8601_ec8c);
        let mut split = Fnv::new();
        split.update(b"foo");
        split.update(b"bar");
        assert_eq!(split.finish(), fnv("foobar"));
    }
}
