//! Replica selection policies.
//!
//! The paper's contribution is the cost-model policy; the others are the
//! baselines a fair evaluation needs (and what the `ablation_policies`
//! bench compares): random and round-robin selection (what a catalog
//! without monitoring can do), bandwidth-only selection (the prior Globus
//! replica selection work), and least-loaded selection (host metrics
//! without network awareness).

use crate::cost::CostModel;
use crate::factors::CandidateScore;

use datagrid_simnet::rng::SimRng;

/// A replica selection policy.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SelectionPolicy {
    /// The paper's weighted cost model: pick the highest score.
    #[default]
    CostModel,
    /// Uniform random choice (monitoring-free baseline).
    Random,
    /// Rotate through candidates in name order (monitoring-free baseline).
    RoundRobin,
    /// Pick the highest bandwidth fraction, ignoring host state.
    BandwidthOnly,
    /// Pick the most idle host (CPU + I/O), ignoring the network.
    LeastLoaded,
}

impl SelectionPolicy {
    /// A short stable name for tables.
    pub fn name(&self) -> &'static str {
        match self {
            SelectionPolicy::CostModel => "cost-model",
            SelectionPolicy::Random => "random",
            SelectionPolicy::RoundRobin => "round-robin",
            SelectionPolicy::BandwidthOnly => "bandwidth-only",
            SelectionPolicy::LeastLoaded => "least-loaded",
        }
    }

    /// All implemented policies (for comparison sweeps).
    pub fn all() -> [SelectionPolicy; 5] {
        [
            SelectionPolicy::CostModel,
            SelectionPolicy::Random,
            SelectionPolicy::RoundRobin,
            SelectionPolicy::BandwidthOnly,
            SelectionPolicy::LeastLoaded,
        ]
    }
}

/// The replica selection server: applies a policy over scored candidates.
///
/// Holds the policy's running state (round-robin position, random stream)
/// so repeated queries behave like a long-lived server process.
///
/// ```
/// use datagrid_core::cost::CostModel;
/// use datagrid_core::policy::{ReplicaSelector, SelectionPolicy};
/// use datagrid_simnet::rng::SimRng;
///
/// let selector = ReplicaSelector::new(
///     SelectionPolicy::CostModel,
///     CostModel::paper(),
///     SimRng::seed_from_u64(1),
/// );
/// assert_eq!(selector.policy().name(), "cost-model");
/// ```
#[derive(Debug, Clone)]
pub struct ReplicaSelector {
    policy: SelectionPolicy,
    model: CostModel,
    rng: SimRng,
    round_robin: u64,
}

impl ReplicaSelector {
    /// Creates a selector.
    pub fn new(policy: SelectionPolicy, model: CostModel, rng: SimRng) -> Self {
        ReplicaSelector {
            policy,
            model,
            rng,
            round_robin: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &SelectionPolicy {
        &self.policy
    }

    /// Replaces the active policy (state such as the round-robin position
    /// is kept).
    pub fn set_policy(&mut self, policy: SelectionPolicy) {
        self.policy = policy;
    }

    /// The cost model used by [`SelectionPolicy::CostModel`].
    pub fn cost_model(&self) -> CostModel {
        self.model
    }

    /// Replaces the cost model.
    pub fn set_cost_model(&mut self, model: CostModel) {
        self.model = model;
    }

    /// Scores one candidate with the active cost model.
    pub fn score(&self, factors: &crate::factors::SystemFactors) -> f64 {
        self.model.score(factors)
    }

    /// Chooses among candidates, returning an index into the slice.
    ///
    /// A local replica (on the client itself) is always preferred — the
    /// paper's scenario checks the local site before consulting the
    /// selection server at all.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "below(len) is below len; the round-robin counter only matters modulo the candidate count"
    )]
    pub fn choose(&mut self, candidates: &[CandidateScore]) -> usize {
        assert!(
            !candidates.is_empty(),
            "cannot choose among zero candidates"
        );
        if let Some(local) = candidates.iter().position(|c| c.is_local) {
            return local;
        }
        match self.policy {
            SelectionPolicy::CostModel => argmax(candidates, |c| c.score),
            SelectionPolicy::Random => self.rng.below(candidates.len() as u64) as usize,
            SelectionPolicy::RoundRobin => {
                // Rotate deterministically through name order.
                let mut order: Vec<usize> = (0..candidates.len()).collect();
                order.sort_by(|&a, &b| candidates[a].host_name.cmp(&candidates[b].host_name));
                let pick = order[(self.round_robin as usize) % order.len()];
                self.round_robin += 1;
                pick
            }
            SelectionPolicy::BandwidthOnly => argmax(candidates, |c| c.factors.bandwidth_fraction),
            SelectionPolicy::LeastLoaded => {
                argmax(candidates, |c| c.factors.cpu_idle + c.factors.io_idle)
            }
        }
    }
}

fn argmax(candidates: &[CandidateScore], key: impl Fn(&CandidateScore) -> f64) -> usize {
    let mut best = 0;
    for i in 1..candidates.len() {
        let (ki, kb) = (key(&candidates[i]), key(&candidates[best]));
        // Ties break toward the lexicographically smaller host name so
        // selection is deterministic.
        if ki > kb || (ki == kb && candidates[i].host_name < candidates[best].host_name) {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::SystemFactors;
    use datagrid_sysmon::host::HostId;

    fn candidate(name: &str, bw: f64, cpu: f64, io: f64) -> CandidateScore {
        let factors = SystemFactors::new(bw, cpu, io);
        CandidateScore {
            host: HostId(0),
            host_name: name.to_string(),
            location: format!("gsiftp://{name}/d/f").parse().unwrap(),
            factors,
            score: CostModel::paper().score(&factors),
            is_local: false,
        }
    }

    fn selector(policy: SelectionPolicy) -> ReplicaSelector {
        ReplicaSelector::new(policy, CostModel::paper(), SimRng::seed_from_u64(7))
    }

    fn fixture() -> Vec<CandidateScore> {
        vec![
            candidate("alpha4", 0.9, 0.6, 0.7), // best bandwidth & score
            candidate("hit0", 0.6, 0.9, 0.9),   // most idle host
            candidate("lz02", 0.1, 1.0, 1.0),
        ]
    }

    #[test]
    fn cost_model_picks_highest_score() {
        let mut s = selector(SelectionPolicy::CostModel);
        assert_eq!(s.choose(&fixture()), 0);
    }

    #[test]
    fn bandwidth_only_ignores_host_state() {
        let mut s = selector(SelectionPolicy::BandwidthOnly);
        assert_eq!(s.choose(&fixture()), 0);
        // Make hit0 the bandwidth winner.
        let mut v = fixture();
        v[1].factors.bandwidth_fraction = 0.95;
        assert_eq!(s.choose(&v), 1);
    }

    #[test]
    fn least_loaded_ignores_network() {
        let mut s = selector(SelectionPolicy::LeastLoaded);
        assert_eq!(s.choose(&fixture()), 2); // lz02 fully idle
    }

    #[test]
    fn round_robin_cycles_in_name_order() {
        let mut s = selector(SelectionPolicy::RoundRobin);
        let v = fixture();
        let picks: Vec<usize> = (0..6).map(|_| s.choose(&v)).collect();
        // Name order: alpha4(0), hit0(1), lz02(2).
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn random_is_deterministic_per_seed_and_in_range() {
        let v = fixture();
        let picks = |seed| {
            let mut s = ReplicaSelector::new(
                SelectionPolicy::Random,
                CostModel::paper(),
                SimRng::seed_from_u64(seed),
            );
            (0..20).map(|_| s.choose(&v)).collect::<Vec<_>>()
        };
        let a = picks(1);
        assert_eq!(a, picks(1));
        assert!(a.iter().all(|&i| i < 3));
        // With 20 draws over 3 options, at least 2 distinct picks.
        let distinct: std::collections::HashSet<usize> = a.into_iter().collect();
        assert!(distinct.len() >= 2);
    }

    #[test]
    fn local_replica_short_circuits_every_policy() {
        for policy in SelectionPolicy::all() {
            let mut s = selector(policy);
            let mut v = fixture();
            v[2].is_local = true;
            assert_eq!(s.choose(&v), 2, "policy {:?}", s.policy().name());
        }
    }

    #[test]
    #[should_panic(expected = "zero candidates")]
    fn empty_candidates_panics() {
        let mut s = selector(SelectionPolicy::CostModel);
        let _ = s.choose(&[]);
    }

    #[test]
    fn policy_names_are_stable() {
        let names: Vec<&str> = SelectionPolicy::all().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "cost-model",
                "random",
                "round-robin",
                "bandwidth-only",
                "least-loaded"
            ]
        );
    }
}
