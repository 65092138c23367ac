//! The incremental windowed forecasters against the allocate-and-sort
//! implementations they replaced, bit for bit.
//!
//! The oracles below are those earlier bodies of `SlidingMedian`,
//! `AdaptiveMedian`, `TrimmedMean` and `AdaptiveMean`: every query copies
//! the window and stable-sorts or re-sums it. Each shipped forecaster is
//! compared with its oracle after every update, alone and inside the full
//! NWS battery, on forecast bits, cumulative `abs_error`/`sq_error` bits
//! and the selected member. Every stream is longer than 130 values and is
//! checked after each update, so every length from 1 to 130 is covered,
//! crossing each window edge (10, 20, 30, 64).

use std::collections::VecDeque;

use datagrid_simnet::rng::SimRng;
use datagrid_sysmon::nws::forecast::{
    AdaptiveMean, AdaptiveMedian, Ar1Forecaster, ExpSmoothing, Forecaster, LastValue,
    MetaForecaster, RunningMean, SelectionMetric, SlidingMean, SlidingMedian, TrimmedMean,
};

fn median_of(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut v: Vec<f64> = values.collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

#[derive(Debug, Clone)]
struct OracleSlidingMedian {
    window: usize,
    buf: VecDeque<f64>,
}

impl OracleSlidingMedian {
    fn new(window: usize) -> Self {
        OracleSlidingMedian {
            window,
            buf: VecDeque::new(),
        }
    }
}

impl Forecaster for OracleSlidingMedian {
    fn name(&self) -> &'static str {
        "sliding_median"
    }

    fn update(&mut self, value: f64) {
        if self.buf.len() == self.window {
            self.buf.pop_front();
        }
        self.buf.push_back(value);
    }

    fn forecast(&self) -> Option<f64> {
        median_of(self.buf.iter().copied())
    }

    fn clone_box(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

#[derive(Debug, Clone)]
struct OracleAdaptiveMedian {
    min_window: usize,
    max_window: usize,
    window: usize,
    buf: VecDeque<f64>,
}

impl OracleAdaptiveMedian {
    fn new(min_window: usize, max_window: usize) -> Self {
        OracleAdaptiveMedian {
            min_window,
            max_window,
            window: min_window,
            buf: VecDeque::new(),
        }
    }

    fn median_of_last(&self, n: usize) -> Option<f64> {
        let n = n.min(self.buf.len());
        median_of(self.buf.iter().rev().take(n).copied())
    }
}

impl Forecaster for OracleAdaptiveMedian {
    fn name(&self) -> &'static str {
        "adaptive_median"
    }

    fn update(&mut self, value: f64) {
        if self.buf.len() >= self.min_window {
            let full = self.median_of_last(self.window).expect("non-empty");
            let half = self
                .median_of_last((self.window / 2).max(self.min_window))
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
        self.median_of_last(self.window)
    }

    fn clone_box(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

#[derive(Debug, Clone)]
struct OracleAdaptiveMean {
    min_window: usize,
    max_window: usize,
    window: usize,
    buf: VecDeque<f64>,
}

impl OracleAdaptiveMean {
    fn new(min_window: usize, max_window: usize) -> Self {
        OracleAdaptiveMean {
            min_window,
            max_window,
            window: min_window,
            buf: VecDeque::new(),
        }
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

impl Forecaster for OracleAdaptiveMean {
    fn name(&self) -> &'static str {
        "adaptive_mean"
    }

    fn update(&mut self, value: f64) {
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

#[derive(Debug, Clone)]
struct OracleTrimmedMean {
    window: usize,
    trim_fraction: f64,
    buf: VecDeque<f64>,
}

impl OracleTrimmedMean {
    fn new(window: usize, trim_fraction: f64) -> Self {
        OracleTrimmedMean {
            window,
            trim_fraction,
            buf: VecDeque::new(),
        }
    }
}

impl Forecaster for OracleTrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed_mean"
    }

    fn update(&mut self, value: f64) {
        if self.buf.len() == self.window {
            self.buf.pop_front();
        }
        self.buf.push_back(value);
    }

    fn forecast(&self) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = self.buf.iter().copied().collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
        let cut = ((v.len() as f64 * self.trim_fraction) / 2.0).floor() as usize;
        let kept = &v[cut..v.len() - cut];
        Some(kept.iter().sum::<f64>() / kept.len() as f64)
    }

    fn clone_box(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

/// `MetaForecaster::nws_battery` with the oracles in place of the four
/// windowed members, in the same order.
fn oracle_battery() -> MetaForecaster {
    MetaForecaster::new(
        vec![
            Box::new(LastValue::new()),
            Box::new(RunningMean::new()),
            Box::new(SlidingMean::new(10)),
            Box::new(SlidingMean::new(30)),
            Box::new(OracleAdaptiveMean::new(5, 64)),
            Box::new(OracleTrimmedMean::new(20, 0.2)),
            Box::new(OracleSlidingMedian::new(10)),
            Box::new(OracleSlidingMedian::new(30)),
            Box::new(OracleAdaptiveMedian::new(5, 64)),
            Box::new(ExpSmoothing::new(0.1)),
            Box::new(ExpSmoothing::new(0.5)),
            Box::new(Ar1Forecaster::new(30)),
        ],
        SelectionMetric::MeanAbsoluteError,
    )
}

/// Shipped forecaster and its oracle, over a spread of window shapes.
fn member_pairs() -> Vec<(Box<dyn Forecaster>, Box<dyn Forecaster>)> {
    let mut pairs: Vec<(Box<dyn Forecaster>, Box<dyn Forecaster>)> = Vec::new();
    for w in [1, 2, 3, 4, 10, 30] {
        pairs.push((
            Box::new(SlidingMedian::new(w)),
            Box::new(OracleSlidingMedian::new(w)),
        ));
    }
    for (w, trim) in [(1, 0.0), (4, 0.9), (9, 0.4), (20, 0.2), (30, 0.5)] {
        pairs.push((
            Box::new(TrimmedMean::new(w, trim)),
            Box::new(OracleTrimmedMean::new(w, trim)),
        ));
    }
    for (lo, hi) in [(1, 1), (1, 4), (2, 8), (3, 3), (5, 64)] {
        pairs.push((
            Box::new(AdaptiveMedian::new(lo, hi)),
            Box::new(OracleAdaptiveMedian::new(lo, hi)),
        ));
        pairs.push((
            Box::new(AdaptiveMean::new(lo, hi)),
            Box::new(OracleAdaptiveMean::new(lo, hi)),
        ));
    }
    pairs
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Few distinct values, both zero signs among them.
    Ties,
    /// Mostly zeros with occasional bursts.
    Zeros,
    /// Constant runs of random length and level.
    ConstantRuns,
    /// Noisy plateaus with abrupt level shifts: the adaptive windows grow
    /// on the plateaus and shrink at the shifts.
    LevelShifts,
    /// Wide-range noise.
    Noise,
}

const SHAPES: [Shape; 5] = [
    Shape::Ties,
    Shape::Zeros,
    Shape::ConstantRuns,
    Shape::LevelShifts,
    Shape::Noise,
];

fn stream(shape: Shape, seed: u64, len: usize) -> Vec<f64> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(len);
    let mut level = 50.0;
    let mut run_left = 0usize;
    while out.len() < len {
        let v = match shape {
            Shape::Ties => [-0.0, 0.0, 1.0, 2.0, 2.0, 3.5][rng.below(6) as usize],
            Shape::Zeros => {
                if rng.chance(0.1) {
                    rng.uniform(0.0, 1e9)
                } else {
                    0.0
                }
            }
            Shape::ConstantRuns => {
                if run_left == 0 {
                    run_left = 1 + rng.below(79) as usize;
                    level = [0.0, 7.0, 1e8, rng.uniform(0.0, 1e3)][rng.below(4) as usize];
                }
                run_left -= 1;
                level
            }
            Shape::LevelShifts => {
                if run_left == 0 {
                    run_left = 5 + rng.below(115) as usize;
                    level = rng.uniform(1.0, 1e3);
                }
                run_left -= 1;
                (level + rng.normal(0.0, level * 0.05)).max(0.0)
            }
            Shape::Noise => rng.uniform(0.0, 1e9),
        };
        out.push(v);
    }
    out
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// Asserts that two batteries agree bit for bit.
fn assert_same(new: &MetaForecaster, oracle: &MetaForecaster, ctx: &str) {
    assert_eq!(
        bits(new.forecast()),
        bits(oracle.forecast()),
        "forecast, {ctx}"
    );
    assert_eq!(new.selected(), oracle.selected(), "selected, {ctx}");
    for (a, b) in new.scores().iter().zip(oracle.scores()) {
        assert_eq!(a.name, b.name, "{ctx}");
        assert_eq!(
            a.predictions, b.predictions,
            "{} predictions, {ctx}",
            a.name
        );
        assert_eq!(
            a.abs_error.to_bits(),
            b.abs_error.to_bits(),
            "{} abs_error, {ctx}",
            a.name
        );
        assert_eq!(
            a.sq_error.to_bits(),
            b.sq_error.to_bits(),
            "{} sq_error, {ctx}",
            a.name
        );
    }
}

#[test]
fn each_member_matches_its_oracle() {
    for shape in SHAPES {
        for seed in 0..6 {
            let values = stream(shape, seed, 400);
            for (new, oracle) in member_pairs() {
                let name = new.name();
                let mut new = MetaForecaster::new(vec![new], SelectionMetric::MeanAbsoluteError);
                let mut oracle =
                    MetaForecaster::new(vec![oracle], SelectionMetric::MeanAbsoluteError);
                for (i, &v) in values.iter().enumerate() {
                    new.update(v);
                    oracle.update(v);
                    let ctx = format!("{name} on {shape:?} seed {seed} after {} updates", i + 1);
                    assert_same(&new, &oracle, &ctx);
                }
            }
        }
    }
}

#[test]
fn adaptive_windows_shrink_and_regrow_in_step() {
    for seed in 0..8 {
        let values = stream(Shape::LevelShifts, seed, 1500);
        let mut median = AdaptiveMedian::new(5, 64);
        let mut median_oracle = OracleAdaptiveMedian::new(5, 64);
        let mut mean = AdaptiveMean::new(5, 64);
        let mut mean_oracle = OracleAdaptiveMean::new(5, 64);
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &v in &values {
            median.update(v);
            median_oracle.update(v);
            mean.update(v);
            mean_oracle.update(v);
            assert_eq!(median.current_window(), median_oracle.window, "seed {seed}");
            assert_eq!(mean.current_window(), mean_oracle.window, "seed {seed}");
            lo = lo.min(median.current_window());
            hi = hi.max(median.current_window());
        }
        assert!(
            lo < 10 && hi > 32,
            "stream must shrink and regrow the window, saw {lo}..={hi}"
        );
    }
}

#[test]
fn nws_battery_matches_oracle_battery() {
    for shape in SHAPES {
        for seed in 0..6 {
            let values = stream(shape, 100 + seed, 1000);
            let mut new = MetaForecaster::nws_battery();
            let mut oracle = oracle_battery();
            assert_same(&new, &oracle, "empty");
            for (i, &v) in values.iter().enumerate() {
                new.update(v);
                oracle.update(v);
                let ctx = format!("{shape:?} seed {seed} after {} updates", i + 1);
                assert_same(&new, &oracle, &ctx);
            }
            // A clone carries the cached forecasts with it.
            let (mut new, mut oracle) = (new.clone(), oracle.clone());
            new.update(values[0]);
            oracle.update(values[0]);
            assert_same(&new, &oracle, "after clone");
        }
    }
}
