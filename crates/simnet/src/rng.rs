//! Deterministic pseudo-random number generation.
//!
//! The simulator implements its own small PRNG ([`SimRng`], a
//! xoshiro256\*\* core seeded through SplitMix64) instead of depending on the
//! `rand` crate: experiment reproducibility requires that the *exact* random
//! stream be stable across library versions and platforms, and the generator
//! is a dozen lines. Distribution helpers cover everything the simulation
//! needs (uniform, Bernoulli, exponential, normal, lognormal, Pareto).

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// ```
/// use datagrid_simnet::rng::SimRng;
///
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut s = seed;
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        SimRng { state }
    }

    /// Derives an independent child generator for a named subcomponent.
    ///
    /// Forking by label lets every part of the simulation (each link's
    /// background traffic, each host's load process, each sensor's noise)
    /// consume an independent stream, so adding one component never perturbs
    /// another component's randomness.
    pub fn fork(&self, label: &str) -> SimRng {
        // FNV-1a over the label, mixed with fresh output from self's stream
        // position -- clone first so forking does not advance the parent.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut base = self.state[0] ^ self.state[3].rotate_left(17);
        base ^= h;
        SimRng::seed_from_u64(base)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad uniform range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "Lemire's method keeps the low 64 bits of the 128-bit product on purpose"
    )]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is empty");
        // Lemire-style rejection for unbiased sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// An exponential variate with the given rate (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive, got {rate}");
        // Inverse transform; guard against ln(0).
        let u = 1.0 - self.next_f64();
        -u.ln() / rate
    }

    /// A standard normal variate (Box–Muller, one value per call).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = (1.0 - self.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// A lognormal variate parameterised by the *underlying* normal's
    /// `mu` and `sigma`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// A lognormal variate with the given *distribution* mean, with shape
    /// `sigma` (of the underlying normal). Useful for flow sizes: heavy
    /// tailed but with a controlled mean.
    pub fn lognormal_with_mean(&mut self, mean: f64, sigma: f64) -> f64 {
        assert!(mean > 0.0, "lognormal mean must be positive, got {mean}");
        let mu = mean.ln() - 0.5 * sigma * sigma;
        self.lognormal(mu, sigma)
    }

    /// A Pareto variate with minimum `xm` and shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `xm` or `alpha` is not strictly positive.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        assert!(
            xm > 0.0 && alpha > 0.0,
            "bad pareto parameters xm={xm} alpha={alpha}"
        );
        let u = 1.0 - self.next_f64();
        xm / u.powf(1.0 / alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::seed_from_u64(123);
        let mut b = SimRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_is_stable_and_independent() {
        let parent = SimRng::seed_from_u64(7);
        let mut c1 = parent.fork("bg:link0");
        let mut c2 = parent.fork("bg:link0");
        let mut c3 = parent.fork("bg:link1");
        assert_eq!(c1.next_u64(), c2.next_u64());
        assert_ne!(c1.next_u64(), c3.next_u64());
        // Forking does not advance the parent.
        let mut p1 = parent.clone();
        let mut p2 = parent.clone();
        let _ = p1.fork("x");
        assert_eq!(p1.next_u64(), p2.next_u64());
    }

    #[test]
    fn unit_interval() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    #[expect(clippy::cast_possible_truncation, reason = "rng.below(7) is below 7")]
    fn below_is_in_range_and_covers() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = rng.below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::seed_from_u64(13);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut rng = SimRng::seed_from_u64(17);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn lognormal_with_mean_matches_mean() {
        let mut rng = SimRng::seed_from_u64(19);
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| rng.lognormal_with_mean(10.0, 1.0))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 10.0).abs() < 0.35, "mean {mean}");
    }

    #[test]
    fn pareto_respects_minimum() {
        let mut rng = SimRng::seed_from_u64(23);
        for _ in 0..10_000 {
            assert!(rng.pareto(5.0, 1.5) >= 5.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(29);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }
}
