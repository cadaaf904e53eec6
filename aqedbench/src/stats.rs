//! Order statistics and the seeded generator shared by every workload
//! and by `compare`.

/// Percentiles `tail` may report, highest first.
const TAIL_PERCENTILES: [f64; 4] = [99.0, 98.0, 95.0, 90.0];

/// Samples that must lie beyond a reported tail percentile.
const TAIL_MIN_BEYOND: f64 = 10.0;

/// Median of `xs`; the mean of the middle pair for even lengths.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartiles as Python's `statistics.quantiles(xs, n=4)`
/// (default "exclusive" method) gives them.
///
/// # Panics
///
/// Panics on fewer than two samples.
#[must_use]
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let s = sorted(xs);
    let ld = s.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp raised `j`: extrapolates below the
        // smallest pair, as Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range divided by the median: the run-to-run spread
/// `BENCHMARK.json` bounds are judged against.
#[must_use]
pub fn relative_iqr(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

/// Nearest-rank percentile `p` (0–100] of `xs`.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let s = sorted(xs);
    let rank = (p * s.len() as f64 / 100.0).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest percentile (of p99, p98, p95, p90) with at least ten
/// samples beyond it, as `(percentile, value)`; `None` when even p90
/// has fewer than ten samples beyond it.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len() as f64;
    TAIL_PERCENTILES
        .iter()
        .find(|&&p| n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile(xs, p)))
}

/// Percentile of repeated operations taken as their quiet-host time.
const QUIET_PERCENTILE: f64 = 10.0;

/// The time repeated runs of one operation take when the host leaves the
/// benchmark alone: their 10th percentile (nearest rank, so the minimum
/// below ten samples). Neighbours on a shared host only ever add time,
/// and on a small virtual machine they slow the CPU by up to 1.5× for
/// stretches of a fraction of a second to several seconds; a median
/// moves with how much of a run such stretches cover, a low percentile
/// barely does.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn quiet(xs: &[f64]) -> f64 {
    percentile(xs, QUIET_PERCENTILE)
}

/// Geometric mean of positive samples.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty sample");
    (xs.iter()
        .map(|x| x.max(f64::MIN_POSITIVE).ln())
        .sum::<f64>()
        / xs.len() as f64)
        .exp()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: a small, seedable, reproducible generator. The same seed
/// yields the same workload inputs on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, with `stream` separating independent
    /// draws made from one seed.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), [1.0, 3.0, 5.0]);
    }

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        let xs: Vec<f64> = (1..=560).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((98.0, 549.0)));
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((95.0, 190.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
    }

    #[test]
    fn quiet_time_is_the_tenth_percentile_or_the_minimum() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quiet(&xs), 10.0);
        assert_eq!(quiet(&[9.0, 7.0, 8.0]), 7.0);
        assert_eq!(quiet(&[4.0; 10]), 4.0);
    }

    #[test]
    fn geomean_weighs_every_sample_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rng_is_reproducible_per_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 0);
            (0..4).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let mut xs: Vec<u32> = (0..10).collect();
        Rng::new(7, 1).shuffle(&mut xs);
        let mut back = xs.clone();
        back.sort_unstable();
        assert_eq!(back, (0..10).collect::<Vec<_>>());
    }
}
