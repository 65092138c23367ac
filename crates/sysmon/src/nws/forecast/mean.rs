//! Mean-based forecasters.

#![cfg_attr(
    not(test),
    expect(
        clippy::expect_used,
        reason = "sliding windows are non-empty whenever consulted; measurements reject NaN"
    )
)]

use std::collections::VecDeque;

use super::window::SortedWindow;
use super::Forecaster;

/// Running mean of the entire history.
#[derive(Debug, Clone, Default)]
pub struct RunningMean {
    count: u64,
    mean: f64,
}

impl RunningMean {
    /// Creates an empty running mean.
    pub fn new() -> Self {
        RunningMean::default()
    }
}

impl Forecaster for RunningMean {
    fn name(&self) -> &'static str {
        "running_mean"
    }

    fn update(&mut self, value: f64) {
        self.count += 1;
        self.mean += (value - self.mean) / self.count as f64;
    }

    fn forecast(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    fn clone_box(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

/// Mean of the most recent `window` measurements.
#[derive(Debug, Clone)]
pub struct SlidingMean {
    window: usize,
    buf: VecDeque<f64>,
    sum: f64,
}

impl SlidingMean {
    /// Creates a sliding mean over the given window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        SlidingMean {
            window,
            buf: VecDeque::with_capacity(window),
            sum: 0.0,
        }
    }

    /// The configured window length.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Forecaster for SlidingMean {
    fn name(&self) -> &'static str {
        "sliding_mean"
    }

    fn update(&mut self, value: f64) {
        if self.buf.len() == self.window {
            self.sum -= self.buf.pop_front().expect("window non-empty");
        }
        self.buf.push_back(value);
        self.sum += value;
    }

    fn forecast(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.sum / self.buf.len() as f64)
        }
    }

    fn clone_box(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

/// Sliding mean whose window length adapts to recent prediction error: each
/// step it compares its own window against a half-length window and drifts
/// toward whichever predicted the newest value better (the NWS "adaptive
/// window" idea).
#[derive(Debug, Clone)]
pub struct AdaptiveMean {
    min_window: usize,
    max_window: usize,
    window: usize,
    buf: VecDeque<f64>,
}

impl AdaptiveMean {
    /// Creates an adaptive mean with window bounds.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_window <= max_window`.
    pub fn new(min_window: usize, max_window: usize) -> Self {
        assert!(
            min_window > 0 && min_window <= max_window,
            "need 0 < min ({min_window}) <= max ({max_window})"
        );
        AdaptiveMean {
            min_window,
            max_window,
            window: min_window,
            buf: VecDeque::with_capacity(max_window),
        }
    }

    /// The current adapted window length.
    pub fn current_window(&self) -> usize {
        self.window
    }

    fn mean_of_last(&self, n: usize) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        let n = n.min(self.buf.len());
        let sum: f64 = self.buf.iter().rev().take(n).sum();
        Some(sum / n as f64)
    }
}

impl Forecaster for AdaptiveMean {
    fn name(&self) -> &'static str {
        "adaptive_mean"
    }

    fn update(&mut self, value: f64) {
        // Compare the full-window and half-window predictions of `value`
        // made from the *previous* buffer state, then adapt.
        if self.buf.len() >= self.min_window {
            let full = self.mean_of_last(self.window).expect("non-empty");
            let half = self
                .mean_of_last((self.window / 2).max(self.min_window))
                .expect("non-empty");
            if (half - value).abs() < (full - value).abs() {
                self.window = (self.window - 1).max(self.min_window);
            } else {
                self.window = (self.window + 1).min(self.max_window);
            }
        }
        if self.buf.len() == self.max_window {
            self.buf.pop_front();
        }
        self.buf.push_back(value);
    }

    fn forecast(&self) -> Option<f64> {
        self.mean_of_last(self.window)
    }

    fn clone_box(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

/// Mean of a sliding window after discarding the highest and lowest
/// `trim_fraction` of values (robust to measurement spikes).
#[derive(Debug, Clone)]
pub struct TrimmedMean {
    trim_fraction: f64,
    buf: SortedWindow,
}

impl TrimmedMean {
    /// Creates a trimmed mean over `window` samples, trimming
    /// `trim_fraction` (of the *total*, split between both tails).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `trim_fraction` is outside `[0, 0.9]`.
    pub fn new(window: usize, trim_fraction: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(
            (0.0..=0.9).contains(&trim_fraction),
            "trim fraction must be in [0, 0.9], got {trim_fraction}"
        );
        TrimmedMean {
            trim_fraction,
            buf: SortedWindow::new(window),
        }
    }
}

impl Forecaster for TrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed_mean"
    }

    fn update(&mut self, value: f64) {
        self.buf.push(value);
    }

    fn forecast(&self) -> Option<f64> {
        let v = self.buf.sorted();
        if v.is_empty() {
            return None;
        }
        let cut = ((v.len() as f64 * self.trim_fraction) / 2.0).floor() as usize;
        let kept = &v[cut..v.len() - cut];
        debug_assert!(!kept.is_empty());
        Some(kept.iter().sum::<f64>() / kept.len() as f64)
    }

    fn clone_box(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_converges() {
        let mut f = RunningMean::new();
        assert_eq!(f.forecast(), None);
        for x in [2.0, 4.0, 6.0] {
            f.update(x);
        }
        assert_eq!(f.forecast(), Some(4.0));
    }

    #[test]
    fn sliding_mean_forgets_old_values() {
        let mut f = SlidingMean::new(2);
        f.update(100.0);
        f.update(1.0);
        f.update(3.0);
        assert_eq!(f.forecast(), Some(2.0));
        assert_eq!(f.window(), 2);
    }

    #[test]
    fn sliding_mean_partial_window() {
        let mut f = SlidingMean::new(10);
        f.update(4.0);
        assert_eq!(f.forecast(), Some(4.0));
    }

    #[test]
    fn adaptive_mean_shrinks_on_level_shift() {
        let mut f = AdaptiveMean::new(2, 32);
        for _ in 0..32 {
            f.update(10.0);
        }
        let before = f.current_window();
        for _ in 0..20 {
            f.update(50.0); // abrupt level shift: short windows win
        }
        assert!(f.current_window() < before.max(3) + 20);
        let fc = f.forecast().unwrap();
        assert!(fc > 30.0, "adaptive mean should track the shift, got {fc}");
    }

    #[test]
    fn adaptive_mean_bounds_respected() {
        let mut f = AdaptiveMean::new(3, 6);
        for i in 0..100 {
            f.update((i % 7) as f64);
            let w = f.current_window();
            assert!((3..=6).contains(&w));
        }
    }

    #[test]
    fn trimmed_mean_ignores_spikes() {
        let mut f = TrimmedMean::new(10, 0.4);
        for _ in 0..8 {
            f.update(10.0);
        }
        f.update(1000.0);
        f.update(-1000.0);
        let fc = f.forecast().unwrap();
        assert!((fc - 10.0).abs() < 1e-9, "trimmed mean {fc}");
    }

    #[test]
    fn trimmed_mean_no_trim_is_plain_mean() {
        let mut f = TrimmedMean::new(4, 0.0);
        for x in [1.0, 2.0, 3.0, 4.0] {
            f.update(x);
        }
        assert_eq!(f.forecast(), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = SlidingMean::new(0);
    }
}
