//! Retry policy: exponential backoff with seeded jitter and capped
//! attempts.
//!
//! Globus clients retry failed transfers with growing pauses so a flapping
//! link is not hammered while it recovers. [`RetryPolicy`] reproduces that
//! behaviour deterministically: the pause after retry *k* is
//! `base · multiplier^k`, clamped to `max_backoff`, then spread by a
//! symmetric jitter fraction drawn from a caller-supplied [`SimRng`] — same
//! seed, same pauses.
//!
//! ```
//! use datagrid_gridftp::retry::RetryPolicy;
//! use datagrid_simnet::prelude::*;
//!
//! let policy = RetryPolicy::default();
//! let mut rng = SimRng::seed_from_u64(7);
//! let first = policy.backoff(0, &mut rng);
//! assert!(first > SimDuration::ZERO);
//! ```

use datagrid_simnet::rng::SimRng;
use datagrid_simnet::time::SimDuration;

/// How (and how often) a stalled transfer is retried.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total sessions allowed, including the first attempt. At least 1.
    pub max_attempts: u32,
    /// Pause before the first retry.
    pub base_backoff: SimDuration,
    /// Growth factor between consecutive retries.
    pub multiplier: f64,
    /// Upper bound on any single pause.
    pub max_backoff: SimDuration,
    /// Symmetric jitter fraction in `[0, 1)`: each pause is scaled by a
    /// factor uniform in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    /// Four attempts with 2 s → 4 s → 8 s pauses (±25 % jitter), capped at
    /// 30 s — the shape of the Globus retry defaults scaled to simulation.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimDuration::from_secs(2),
            multiplier: 2.0,
            max_backoff: SimDuration::from_secs(30),
            jitter: 0.25,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: the first stall is final.
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// Sets the attempt cap (clamped to at least 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Sets the pause before the first retry.
    pub fn with_base_backoff(mut self, base: SimDuration) -> Self {
        self.base_backoff = base;
        self
    }

    /// Sets the jitter fraction.
    ///
    /// # Panics
    ///
    /// Panics if `jitter` is outside `[0, 1)`.
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&jitter),
            "jitter must be in [0, 1), got {jitter}"
        );
        self.jitter = jitter;
        self
    }

    /// The pause before retry number `retry` (0 = first retry). Draws the
    /// jitter factor from `rng`, so equal seeds give equal schedules.
    pub fn backoff(&self, retry: u32, rng: &mut SimRng) -> SimDuration {
        let exp = self
            .multiplier
            .powi(i32::try_from(retry).unwrap_or(i32::MAX));
        let raw = self.base_backoff.as_secs_f64() * exp;
        let capped = raw.min(self.max_backoff.as_secs_f64());
        let factor = if self.jitter > 0.0 {
            rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        } else {
            1.0
        };
        SimDuration::from_secs_f64((capped * factor).max(0.0))
    }

    /// `true` when `attempts` sessions have been used up.
    pub fn exhausted(&self, attempts: u32) -> bool {
        attempts >= self.max_attempts.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_jitter() -> RetryPolicy {
        RetryPolicy::default().with_jitter(0.0)
    }

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let policy = RetryPolicy {
            max_backoff: SimDuration::from_secs(10),
            ..no_jitter().with_base_backoff(SimDuration::from_secs(1))
        };
        let mut rng = SimRng::seed_from_u64(1);
        let secs: Vec<f64> = (0..6)
            .map(|k| policy.backoff(k, &mut rng).as_secs_f64())
            .collect();
        assert_eq!(secs, vec![1.0, 2.0, 4.0, 8.0, 10.0, 10.0]);
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let policy = RetryPolicy::default().with_jitter(0.25);
        let draw = |seed: u64| {
            let mut rng = SimRng::seed_from_u64(seed);
            (0..8)
                .map(|k| policy.backoff(k, &mut rng))
                .collect::<Vec<_>>()
        };
        let a = draw(42);
        assert_eq!(a, draw(42), "same seed, same schedule");
        assert_ne!(a, draw(43));
        let mut rng = SimRng::seed_from_u64(9);
        for k in 0..3 {
            let nominal = 2.0 * 2.0_f64.powi(k);
            let got = policy.backoff(k as u32, &mut rng).as_secs_f64();
            assert!(
                (nominal * 0.75..=nominal * 1.25).contains(&got),
                "retry {k}: {got} outside ±25% of {nominal}"
            );
        }
    }

    #[test]
    fn exhaustion_and_attempt_floor() {
        let policy = RetryPolicy::no_retries();
        assert!(!policy.exhausted(0));
        assert!(policy.exhausted(1));
        let zero = RetryPolicy::default().with_max_attempts(0);
        assert_eq!(zero.max_attempts, 1, "cap clamps to one attempt");
    }

    #[test]
    #[should_panic(expected = "jitter")]
    fn out_of_range_jitter_rejected() {
        let _ = RetryPolicy::default().with_jitter(1.0);
    }
}
