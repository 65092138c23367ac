//! Stochastic utilisation processes.
//!
//! A [`LoadProcess`] produces a piecewise-constant utilisation signal in
//! `[0, 1]`, advancing one step per update interval. Four model families
//! cover the behaviours seen on the paper's testbed hosts: idle desktops,
//! batch-loaded cluster nodes (bursty on/off), steadily loaded servers
//! (mean-reverting AR(1)) and machines with daily rhythm (diurnal).

use datagrid_simnet::rng::SimRng;
use datagrid_simnet::time::SimDuration;

/// A family of utilisation dynamics for CPU or disk.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadModel {
    /// Constant utilisation.
    Constant(f64),
    /// Mean-reverting AR(1): `x' = mean + phi (x - mean) + sigma ε`,
    /// clamped to `[0, 1]`.
    Ar1 {
        /// Long-run mean utilisation.
        mean: f64,
        /// Per-step persistence in `[0, 1)`.
        phi: f64,
        /// Innovation standard deviation.
        sigma: f64,
    },
    /// Two-state Markov chain alternating between a busy and an idle level
    /// (batch jobs arriving and finishing).
    MarkovOnOff {
        /// Utilisation while busy.
        busy_level: f64,
        /// Utilisation while idle.
        idle_level: f64,
        /// Per-step probability of a busy host going idle.
        p_busy_to_idle: f64,
        /// Per-step probability of an idle host going busy.
        p_idle_to_busy: f64,
    },
    /// Sinusoidal daily rhythm plus noise:
    /// `base + amplitude sin(2π step / period_steps) + sigma ε`.
    Diurnal {
        /// Mean utilisation.
        base: f64,
        /// Sinusoid amplitude.
        amplitude: f64,
        /// Steps per full cycle.
        period_steps: u64,
        /// Noise standard deviation.
        sigma: f64,
    },
    /// Replays a recorded utilisation trace, cycling when exhausted —
    /// for reproducing measured load patterns exactly.
    Trace(Vec<f64>),
}

impl LoadModel {
    fn validate(&self) {
        let check = |x: f64, what: &str| {
            assert!(
                (0.0..=1.0).contains(&x),
                "{what} must be in [0, 1], got {x}"
            );
        };
        match *self {
            LoadModel::Constant(u) => check(u, "constant utilisation"),
            LoadModel::Ar1 { mean, phi, sigma } => {
                check(mean, "AR(1) mean");
                assert!(
                    (0.0..1.0).contains(&phi),
                    "phi must be in [0, 1), got {phi}"
                );
                assert!(sigma >= 0.0, "sigma must be non-negative");
            }
            LoadModel::MarkovOnOff {
                busy_level,
                idle_level,
                p_busy_to_idle,
                p_idle_to_busy,
            } => {
                check(busy_level, "busy level");
                check(idle_level, "idle level");
                check(p_busy_to_idle, "busy->idle probability");
                check(p_idle_to_busy, "idle->busy probability");
            }
            LoadModel::Diurnal {
                base,
                amplitude,
                period_steps,
                sigma,
            } => {
                check(base, "diurnal base");
                assert!(amplitude >= 0.0, "amplitude must be non-negative");
                assert!(period_steps > 0, "period must be positive");
                assert!(sigma >= 0.0, "sigma must be non-negative");
            }
            LoadModel::Trace(ref samples) => {
                assert!(!samples.is_empty(), "a trace needs at least one sample");
                for &u in samples {
                    check(u, "trace sample");
                }
            }
        }
    }

    fn initial(&self) -> f64 {
        match *self {
            LoadModel::Constant(u) => u,
            LoadModel::Ar1 { mean, .. } => mean,
            LoadModel::MarkovOnOff { idle_level, .. } => idle_level,
            LoadModel::Diurnal { base, .. } => base,
            LoadModel::Trace(ref samples) => samples[0],
        }
    }
}

/// A running utilisation process: one value per update interval,
/// deterministic given its [`SimRng`] stream.
///
/// ```
/// use datagrid_simnet::rng::SimRng;
/// use datagrid_simnet::time::SimDuration;
/// use datagrid_sysmon::load::{LoadModel, LoadProcess};
///
/// let model = LoadModel::Ar1 { mean: 0.3, phi: 0.9, sigma: 0.05 };
/// let mut p = LoadProcess::new(model, SimDuration::from_secs(10), SimRng::seed_from_u64(1));
/// let u = p.advance();
/// assert!((0.0..=1.0).contains(&u));
/// assert_eq!(p.utilization(), u);
/// ```
#[derive(Debug, Clone)]
pub struct LoadProcess {
    model: LoadModel,
    interval: SimDuration,
    rng: SimRng,
    current: f64,
    busy: bool,
    step: u64,
}

impl LoadProcess {
    /// Creates a process; the initial value is the model's resting level.
    ///
    /// # Panics
    ///
    /// Panics if the model parameters are out of range or the interval is
    /// zero.
    pub fn new(model: LoadModel, interval: SimDuration, rng: SimRng) -> Self {
        model.validate();
        assert!(!interval.is_zero(), "update interval must be positive");
        let current = model.initial();
        LoadProcess {
            model,
            interval,
            rng,
            current,
            busy: false,
            step: 0,
        }
    }

    /// A constant process (handy in tests and calibration).
    pub fn constant(utilization: f64) -> Self {
        LoadProcess::new(
            LoadModel::Constant(utilization),
            SimDuration::from_secs(1),
            SimRng::seed_from_u64(0),
        )
    }

    /// Current utilisation in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.current
    }

    /// Current idle fraction in `[0, 1]` (what MDS/sysstat report).
    pub fn idle(&self) -> f64 {
        1.0 - self.current
    }

    /// The spacing between updates.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Advances one step and returns the new utilisation.
    pub fn advance(&mut self) -> f64 {
        self.step += 1;
        self.current = match self.model {
            LoadModel::Constant(u) => u,
            LoadModel::Ar1 { mean, phi, sigma } => {
                let next = mean + phi * (self.current - mean) + sigma * self.rng.standard_normal();
                next.clamp(0.0, 1.0)
            }
            LoadModel::MarkovOnOff {
                busy_level,
                idle_level,
                p_busy_to_idle,
                p_idle_to_busy,
            } => {
                if self.busy {
                    if self.rng.chance(p_busy_to_idle) {
                        self.busy = false;
                    }
                } else if self.rng.chance(p_idle_to_busy) {
                    self.busy = true;
                }
                if self.busy {
                    busy_level
                } else {
                    idle_level
                }
            }
            LoadModel::Diurnal {
                base,
                amplitude,
                period_steps,
                sigma,
            } => {
                let phase =
                    std::f64::consts::TAU * (self.step % period_steps) as f64 / period_steps as f64;
                (base + amplitude * phase.sin() + sigma * self.rng.standard_normal())
                    .clamp(0.0, 1.0)
            }
            LoadModel::Trace(ref samples) => samples[(self.step as usize - 1) % samples.len()],
        };
        self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(42)
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn constant_stays_constant() {
        let mut p = LoadProcess::constant(0.25);
        for _ in 0..10 {
            assert_eq!(p.advance(), 0.25);
        }
        assert_eq!(p.idle(), 0.75);
    }

    #[test]
    fn ar1_stays_in_bounds_and_reverts() {
        let model = LoadModel::Ar1 {
            mean: 0.4,
            phi: 0.8,
            sigma: 0.1,
        };
        let mut p = LoadProcess::new(model, secs(10), rng());
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let u = p.advance();
            assert!((0.0..=1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.4).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn markov_alternates_between_levels() {
        let model = LoadModel::MarkovOnOff {
            busy_level: 0.9,
            idle_level: 0.1,
            p_busy_to_idle: 0.3,
            p_idle_to_busy: 0.3,
        };
        let mut p = LoadProcess::new(model, secs(10), rng());
        let mut saw_busy = false;
        let mut saw_idle = false;
        for _ in 0..500 {
            let level = p.advance();
            if level == 0.9 {
                saw_busy = true;
            } else if level == 0.1 {
                saw_idle = true;
            } else {
                panic!("unexpected level {level}");
            }
        }
        assert!(saw_busy && saw_idle);
    }

    #[test]
    fn diurnal_cycles() {
        let model = LoadModel::Diurnal {
            base: 0.5,
            amplitude: 0.3,
            period_steps: 24,
            sigma: 0.0,
        };
        let mut p = LoadProcess::new(model, secs(3600), rng());
        // Peak a quarter of the way through the cycle.
        let mut values = Vec::new();
        for _ in 0..24 {
            values.push(p.advance());
        }
        let peak = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let trough = values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((peak - 0.8).abs() < 1e-9, "peak {peak}");
        assert!((trough - 0.2).abs() < 1e-9, "trough {trough}");
    }

    #[test]
    fn deterministic_given_seed() {
        let model = LoadModel::Ar1 {
            mean: 0.5,
            phi: 0.9,
            sigma: 0.2,
        };
        let mut a = LoadProcess::new(model.clone(), secs(1), SimRng::seed_from_u64(5));
        let mut b = LoadProcess::new(model, secs(1), SimRng::seed_from_u64(5));
        for _ in 0..100 {
            assert_eq!(a.advance(), b.advance());
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn invalid_constant_rejected() {
        let _ = LoadProcess::constant(1.5);
    }

    #[test]
    #[should_panic(expected = "update interval")]
    fn zero_interval_rejected() {
        let _ = LoadProcess::new(LoadModel::Constant(0.1), SimDuration::ZERO, rng());
    }
}

#[cfg(test)]
mod trace_model_tests {
    use super::*;

    #[test]
    fn trace_replays_and_cycles() {
        let model = LoadModel::Trace(vec![0.1, 0.5, 0.9]);
        let mut p = LoadProcess::new(model, SimDuration::from_secs(1), SimRng::seed_from_u64(1));
        assert_eq!(p.utilization(), 0.1); // initial = first sample
        let seen: Vec<f64> = (0..7).map(|_| p.advance()).collect();
        assert_eq!(seen, vec![0.1, 0.5, 0.9, 0.1, 0.5, 0.9, 0.1]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_rejected() {
        let _ = LoadProcess::new(
            LoadModel::Trace(Vec::new()),
            SimDuration::from_secs(1),
            SimRng::seed_from_u64(1),
        );
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn out_of_range_trace_rejected() {
        let _ = LoadProcess::new(
            LoadModel::Trace(vec![0.5, 1.4]),
            SimDuration::from_secs(1),
            SimRng::seed_from_u64(1),
        );
    }
}
