//! Small online statistics accumulators used throughout the simulator and
//! the experiment harness.

#![cfg_attr(
    not(test),
    expect(
        clippy::expect_used,
        reason = "summaries reject NaN at ingestion, so comparisons are total"
    )
)]

use crate::time::{SimDuration, SimTime};

/// Welford online accumulator for count/mean/variance/min/max.
///
/// ```
/// use datagrid_simnet::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.min(), Some(1.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats::default()
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "statistics require finite samples, got {x}");
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

/// Time-weighted mean of a piecewise-constant signal.
///
/// Feed it `(time, new_value)` change points in nondecreasing time order;
/// the mean weights each value by how long it was held.
///
/// ```
/// use datagrid_simnet::stats::TimeWeightedMean;
/// use datagrid_simnet::time::SimTime;
///
/// let mut m = TimeWeightedMean::starting_at(SimTime::ZERO, 0.0);
/// m.set(SimTime::from_secs_f64(1.0), 10.0);
/// m.set(SimTime::from_secs_f64(3.0), 0.0);
/// // 0 for 1 s, 10 for 2 s.
/// assert_eq!(m.mean_until(SimTime::from_secs_f64(3.0)), 20.0 / 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeWeightedMean {
    start: SimTime,
    last_change: SimTime,
    current: f64,
    weighted_sum: f64,
}

impl TimeWeightedMean {
    /// Starts tracking at `start` with an initial value.
    pub fn starting_at(start: SimTime, initial: f64) -> Self {
        TimeWeightedMean {
            start,
            last_change: start,
            current: initial,
            weighted_sum: 0.0,
        }
    }

    /// Records that the signal changed to `value` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous change point.
    pub fn set(&mut self, at: SimTime, value: f64) {
        assert!(at >= self.last_change, "time must be nondecreasing");
        self.weighted_sum += self.current * (at - self.last_change).as_secs_f64();
        self.last_change = at;
        self.current = value;
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Time-weighted mean over `[start, until]`.
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the last change point.
    pub fn mean_until(&self, until: SimTime) -> f64 {
        assert!(until >= self.last_change, "cannot average into the past");
        let total = (until - self.start).as_secs_f64();
        if total == 0.0 {
            return self.current;
        }
        let sum = self.weighted_sum + self.current * (until - self.last_change).as_secs_f64();
        sum / total
    }
}

/// Computes the arithmetic mean of a slice (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Computes the median of a slice (0 when empty). Does not require the
/// input to be sorted.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("median requires comparable values"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Computes the `q`-quantile of a slice by linear interpolation between
/// order statistics (0 when empty). `q` is clamped to `[0, 1]`; the input
/// need not be sorted. Used by the benchmark harness for latency
/// percentiles.
#[expect(
    clippy::cast_possible_truncation,
    reason = "pos lies in [0, len - 1], so its floor and ceil are valid indices"
)]
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("percentile requires comparable values")
    });
    let q = q.clamp(0.0, 1.0);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Converts a throughput in bytes over a duration to bits per second.
pub fn throughput_bps(bytes: u64, elapsed: SimDuration) -> f64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        bytes as f64 * 8.0 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn time_weighted_mean_piecewise() {
        let mut m = TimeWeightedMean::starting_at(SimTime::ZERO, 4.0);
        m.set(SimTime::from_secs_f64(2.0), 8.0);
        assert_eq!(m.current(), 8.0);
        let avg = m.mean_until(SimTime::from_secs_f64(4.0));
        assert!((avg - 6.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_mean_at_start() {
        let m = TimeWeightedMean::starting_at(SimTime::from_secs_f64(5.0), 3.0);
        assert_eq!(m.mean_until(SimTime::from_secs_f64(5.0)), 3.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(percentile(&xs, 0.5), 2.5);
        assert!((percentile(&xs, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn throughput_helper() {
        let bps = throughput_bps(1_000_000, SimDuration::from_secs(8));
        assert_eq!(bps, 1_000_000.0);
        assert_eq!(throughput_bps(1, SimDuration::ZERO), 0.0);
    }
}
