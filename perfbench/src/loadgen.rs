//! The seeded open-loop generator: a Poisson arrival schedule fixed by
//! the seed, and a pacer that sleeps until each request is due.
//!
//! A Poisson process observed over a window of `T` seconds and known to
//! produce `N` arrivals places them as `N` independent uniform points in
//! `[0, T)`. The schedule draws exactly that, so the count of requests
//! (and with it the offered work) is the same for every seed while the
//! gaps stay exponential; only the arrival times and the generated
//! inputs move with the seed.

use std::time::{Duration, Instant};

/// A window in which the generator ran later than this is invalid: its
/// requests no longer arrived on the seeded schedule.
pub const LATE_LIMIT_MS: f64 = 250.0;

/// The failed check for a window whose generator ran `late_ms` late at
/// worst, if that is over [`LATE_LIMIT_MS`].
pub fn late_check(late_ms: f64) -> Option<String> {
    (late_ms > LATE_LIMIT_MS).then(|| {
        format!("open-loop generator ran {late_ms:.1} ms late, over the {LATE_LIMIT_MS} ms limit")
    })
}

/// splitmix64: a small, fast, seedable generator. Deterministic across
/// platforms, which the schedule-determinism test relies on.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Due times, in seconds from the start of the window, of
/// `rate * seconds` (rounded) Poisson arrivals. Sorted ascending.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut rng = Rng::new(seed);
    let mut due: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// Sleeps until each due time of a schedule and reports how late the
/// caller got there.
pub struct Pacer {
    start: Instant,
}

impl Pacer {
    pub fn start() -> Self {
        Pacer {
            start: Instant::now(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.start
    }

    /// Seconds since the window opened.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Block until `due` seconds into the window. Returns the lateness
    /// in seconds (0 when the generator was on time).
    pub fn wait_until(&self, due: f64) -> f64 {
        let now = self.now();
        if now < due {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        (self.now() - due).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 50.0, 20.0);
        let b = poisson_schedule(7, 50.0, 20.0);
        let c = poisson_schedule(8, 50.0, 20.0);
        assert_eq!(a.len(), 1000);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_ne!(a, c);
        assert_eq!(c.len(), a.len(), "the count does not depend on the seed");
    }

    #[test]
    fn schedule_is_sorted_inside_the_window_with_exponential_gaps() {
        let due = poisson_schedule(3, 100.0, 50.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| (0.0..50.0).contains(&t)));
        // Exponential gaps with mean 1/rate have coefficient of variation
        // 1; evenly spaced arrivals would have 0.
        let gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 0.01).abs() < 0.001, "mean gap {mean}");
        assert!((0.9..1.1).contains(&cv), "gap cv {cv}");
    }

    #[test]
    fn shuffle_is_seeded_and_keeps_the_multiset() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        Rng::new(1).shuffle(&mut a);
        Rng::new(1).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }
}
