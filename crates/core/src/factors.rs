//! The three system factors of the paper's §3.2.
//!
//! For every candidate replica the information service reports:
//!
//! * `BW_P` — the current (forecast) bandwidth from the replica host to
//!   the client, divided by the path's highest theoretical bandwidth
//!   (measured and predicted by NWS),
//! * `CPU_P` — the replica host's CPU idle percentage (from MDS),
//! * `IO_P` — the replica host's I/O idle percentage (from sysstat).

#![cfg_attr(
    not(test),
    expect(
        clippy::expect_used,
        reason = "candidate scores are finite by construction of the cost model"
    )
)]

use datagrid_sysmon::host::HostId;

use datagrid_catalog::PhysicalFileName;

/// The three measured fractions for one candidate, all in `[0, 1]`.
///
/// ```
/// use datagrid_core::factors::SystemFactors;
///
/// let f = SystemFactors::new(0.8, 0.9, 0.95);
/// assert_eq!(f.bandwidth_fraction, 0.8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemFactors {
    /// `BW_P`: current bandwidth over highest theoretical bandwidth.
    pub bandwidth_fraction: f64,
    /// `CPU_P`: CPU idle fraction of the replica host.
    pub cpu_idle: f64,
    /// `IO_P`: I/O idle fraction of the replica host.
    pub io_idle: f64,
}

impl SystemFactors {
    /// Creates factors, clamping each into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if any input is NaN.
    pub fn new(bandwidth_fraction: f64, cpu_idle: f64, io_idle: f64) -> Self {
        assert!(
            !bandwidth_fraction.is_nan() && !cpu_idle.is_nan() && !io_idle.is_nan(),
            "system factors must not be NaN"
        );
        SystemFactors {
            bandwidth_fraction: bandwidth_fraction.clamp(0.0, 1.0),
            cpu_idle: cpu_idle.clamp(0.0, 1.0),
            io_idle: io_idle.clamp(0.0, 1.0),
        }
    }

    /// The ideal factors (unloaded local replica).
    pub fn perfect() -> Self {
        SystemFactors::new(1.0, 1.0, 1.0)
    }
}

/// One scored candidate replica, as returned by the selection server.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// Registry id of the replica host.
    pub host: HostId,
    /// Host name (matches the PFN host).
    pub host_name: String,
    /// The replica's physical location.
    pub location: PhysicalFileName,
    /// The measured factors.
    pub factors: SystemFactors,
    /// The cost-model score (higher is better).
    pub score: f64,
    /// `true` when the replica lives on the requesting client itself.
    pub is_local: bool,
}

/// Sorts candidates by descending score (ties by name for determinism).
pub fn rank_by_score(candidates: &mut [CandidateScore]) {
    candidates.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then_with(|| a.host_name.cmp(&b.host_name))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(name: &str, score: f64) -> CandidateScore {
        CandidateScore {
            host: HostId(0),
            host_name: name.to_string(),
            location: format!("gsiftp://{name}/d/f").parse().unwrap(),
            factors: SystemFactors::perfect(),
            score,
            is_local: false,
        }
    }

    #[test]
    fn factors_clamp() {
        let f = SystemFactors::new(1.5, -0.2, 0.5);
        assert_eq!(f.bandwidth_fraction, 1.0);
        assert_eq!(f.cpu_idle, 0.0);
        assert_eq!(f.io_idle, 0.5);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = SystemFactors::new(f64::NAN, 0.0, 0.0);
    }

    #[test]
    fn ranking_descending_with_stable_ties() {
        let mut v = vec![
            candidate("b", 0.5),
            candidate("a", 0.9),
            candidate("c", 0.5),
        ];
        rank_by_score(&mut v);
        let names: Vec<&str> = v.iter().map(|c| c.host_name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
