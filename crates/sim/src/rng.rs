//! Deterministic random numbers for the simulators.
//!
//! All stochastic behaviour (noise arrival, daemon burst lengths, workload
//! jitter) flows through [`SimRng`], a seeded wrapper around `rand`'s
//! `StdRng`. The distribution samplers the noise models need (exponential,
//! normal, lognormal) are implemented here directly — `rand_distr` is not in
//! the approved dependency set, and the implementations are ten lines each.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::time::SimDuration;

/// A seeded, deterministic random number generator with the distribution
/// samplers used by the noise and workload models.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Create from an explicit seed. Equal seeds produce equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derive the child stream for run `index` of a batch rooted at
    /// `root`, statelessly: unlike [`SimRng::fork`] no generator state is
    /// consumed, so the stream depends only on `(root, index)` — never on
    /// how many streams were split before it or on which host thread asks.
    /// This is what gives the parallel run driver scheduling-independent
    /// per-run entropy (see [`crate::run`]).
    pub fn split_stream(root: u64, index: u64) -> SimRng {
        SimRng::seed_from_u64(crate::run::split_seed(root, index))
    }

    /// Derive an independent child stream; used to give each enclave / node
    /// its own generator while keeping the whole experiment reproducible
    /// from one root seed.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        // Mix the salt through splitmix64 so forks with adjacent salts do
        // not produce correlated StdRng seeds.
        let z = self.inner.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_from_u64(crate::run::mix64(z))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        self.inner.gen_range(lo..hi)
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        // Inverse CDF; guard the log argument away from zero.
        let u = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        -mean * u.ln()
    }

    /// Standard-normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, stddev: f64) -> f64 {
        mean + stddev * self.standard_normal()
    }

    /// Lognormal sample parameterized by the underlying normal's `mu` and
    /// `sigma` (so the median is `exp(mu)`).
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Exponentially distributed duration with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exponential(mean.as_secs_f64()))
    }

    /// Normally distributed duration, clamped at zero.
    pub fn normal_duration(&mut self, mean: SimDuration, stddev: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.normal(mean.as_secs_f64(), stddev.as_secs_f64()))
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn forks_are_decorrelated_but_deterministic() {
        let mut root1 = SimRng::seed_from_u64(7);
        let mut root2 = SimRng::seed_from_u64(7);
        let mut f1 = root1.fork(1);
        let mut f2 = root2.fork(1);
        assert_eq!(f1.unit().to_bits(), f2.unit().to_bits());

        let mut g1 = SimRng::seed_from_u64(7).fork(1);
        let mut g2 = SimRng::seed_from_u64(7).fork(2);
        let same = (0..32)
            .filter(|_| g1.unit().to_bits() == g2.unit().to_bits())
            .count();
        assert!(same < 4, "sibling forks look correlated");
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed_from_u64(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((2.8..3.2).contains(&mean), "exp mean = {mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = SimRng::seed_from_u64(2);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((9.9..10.1).contains(&mean), "normal mean = {mean}");
        assert!((3.6..4.4).contains(&var), "normal var = {var}");
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 20_001;
        let mut xs: Vec<f64> = (0..n).map(|_| rng.lognormal(1.0, 0.8)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        let expect = 1.0f64.exp();
        assert!((median - expect).abs() / expect < 0.1, "median = {median}");
    }

    #[test]
    fn durations_are_nonnegative() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..1000 {
            // Deliberately stress the clamp with stddev >> mean.
            let d = rng.normal_duration(SimDuration::from_nanos(10), SimDuration::from_micros(10));
            // SimDuration is unsigned; just ensure construction succeeded.
            let _ = d.as_nanos();
        }
    }

    #[test]
    fn uniform_bounds_respected() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1000 {
            let x = rng.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            let k = rng.uniform_u64(5, 8);
            assert!((5..8).contains(&k));
        }
    }
}
