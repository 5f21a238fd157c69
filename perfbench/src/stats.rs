//! Raw samples and exact quantiles.
//!
//! Every quantile the benchmark reports is computed by nearest rank
//! from the raw samples it measured itself, never from a bucketed
//! histogram, and is refused when fewer than [`MIN_BEYOND`] samples lie
//! beyond it: a p99 needs at least 1000 samples, a p50 at least 20.

/// Samples that must lie strictly beyond a quantile's rank for the
/// quantile to be reported.
pub const MIN_BEYOND: usize = 10;

/// One metric's raw samples.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean, `None` without samples.
    pub fn mean(&self) -> Option<f64> {
        (!self.values.is_empty()).then(|| self.sum() / self.values.len() as f64)
    }

    /// Largest sample: a worst case, not a quantile.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Nearest-rank quantile `p` in `(0, 1]`, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond its rank.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        let n = self.values.len();
        let rank = nearest_rank(p, n)?;
        if n - rank < MIN_BEYOND {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[rank - 1])
    }

    /// Median of however many samples there are, with no refusal: for
    /// set-up repeats and per-slice medians, whose count the run's
    /// design fixes.
    pub fn median_unchecked(&self) -> Option<f64> {
        let rank = nearest_rank(0.5, self.values.len())?;
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[rank - 1])
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
        }
    }
}

/// The 1-based nearest rank of quantile `p` among `n` samples:
/// `ceil(p * n)`, at least 1. `None` when `n` is 0 or `p` is outside
/// `(0, 1]`.
pub fn nearest_rank(p: f64, n: usize) -> Option<usize> {
    if n == 0 || !(p > 0.0 && p <= 1.0) {
        return None;
    }
    // Scale to integer per-mille first so 0.95 * 200 is exactly 190.
    let permille = (p * 1000.0).round() as usize;
    Some((permille * n).div_ceil(1000).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        values.into_iter().collect()
    }

    #[test]
    fn nearest_rank_is_ceil_of_p_times_n() {
        assert_eq!(nearest_rank(0.5, 20), Some(10));
        assert_eq!(nearest_rank(0.5, 21), Some(11));
        assert_eq!(nearest_rank(0.95, 200), Some(190));
        assert_eq!(nearest_rank(0.99, 1000), Some(990));
        assert_eq!(nearest_rank(0.99, 1001), Some(991));
        assert_eq!(nearest_rank(1.0, 7), Some(7));
        assert_eq!(nearest_rank(0.001, 7), Some(1));
        assert_eq!(nearest_rank(0.5, 0), None);
        assert_eq!(nearest_rank(0.0, 5), None);
        assert_eq!(nearest_rank(1.5, 5), None);
    }

    #[test]
    fn quantile_picks_the_ranked_sample_regardless_of_order() {
        // 1..=40 shuffled: p50 is the 20th smallest, p75 the 30th.
        let s = samples((1..=40).map(|k| ((k * 17) % 41) as f64));
        assert_eq!(s.quantile(0.5), Some(20.0));
        assert_eq!(s.quantile(0.75), Some(30.0));
    }

    #[test]
    fn quantile_refuses_fewer_than_ten_samples_beyond() {
        let s = samples((1..=19).map(f64::from));
        assert_eq!(s.quantile(0.5), None, "rank 10 of 19 has 9 beyond");
        let s = samples((1..=20).map(f64::from));
        assert_eq!(s.quantile(0.5), Some(10.0));
        let s = samples((1..=999).map(f64::from));
        assert_eq!(s.quantile(0.99), None);
        let s = samples((1..=1000).map(f64::from));
        assert_eq!(s.quantile(0.99), Some(990.0));
        assert_eq!(s.quantile(1.0), None, "the maximum is never a quantile");
    }

    #[test]
    fn mean_and_unchecked_median() {
        let s = samples([3.0, 1.0, 2.0]);
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.median_unchecked(), Some(2.0));
        assert_eq!(Samples::new().mean(), None);
        assert_eq!(Samples::new().median_unchecked(), None);
    }
}
