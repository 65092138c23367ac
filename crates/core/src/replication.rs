//! Dynamic replica creation strategies.
//!
//! The paper's scenario *selects* among existing replicas; its companion
//! problem — deciding when to *create* a replica closer to demand — is
//! what the replica management service exists for. This module provides
//! advisory strategies that watch [`FetchReport`]s and recommend new
//! replicas; the caller applies advice with
//! [`DataGrid::replicate`](crate::grid::DataGrid::replicate), keeping the
//! decision loop explicit and testable.

#![expect(
    clippy::disallowed_types,
    reason = "keyed counters only: the per-(file, site) fetch and advice maps are never iterated"
)]

use std::collections::HashMap;

use crate::grid::FetchReport;

/// When to recommend creating a replica at the requesting client's host.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ReplicationStrategy {
    /// Never replicate (selection only, as in the paper).
    #[default]
    Never,
    /// Replicate once a host has fetched the same file remotely
    /// `threshold` times (classic count-based caching).
    FetchCount {
        /// Remote fetches of one file by one host before replicating.
        threshold: u32,
    },
    /// Replicate when a remote fetch took longer than `threshold_s`
    /// seconds (latency-triggered placement).
    SlowFetch {
        /// Transfer-duration trigger in seconds.
        threshold_s: f64,
    },
}

/// A recommendation to create a replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationAdvice {
    /// The logical file to replicate.
    pub lfn: String,
    /// The host that should receive the new replica.
    pub to_host: String,
}

/// Watches fetch outcomes and emits replication advice per the strategy.
///
/// ```
/// use datagrid_core::replication::{ReplicationManager, ReplicationStrategy};
///
/// let mgr = ReplicationManager::new(ReplicationStrategy::FetchCount { threshold: 3 });
/// assert_eq!(mgr.strategy(), ReplicationStrategy::FetchCount { threshold: 3 });
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplicationManager {
    strategy: ReplicationStrategy,
    remote_fetches: HashMap<(String, String), u32>,
    advised: HashMap<(String, String), bool>,
}

impl ReplicationManager {
    /// Creates a manager with the given strategy.
    pub fn new(strategy: ReplicationStrategy) -> Self {
        ReplicationManager {
            strategy,
            remote_fetches: HashMap::new(),
            advised: HashMap::new(),
        }
    }

    /// The active strategy.
    pub fn strategy(&self) -> ReplicationStrategy {
        self.strategy
    }

    /// Remote fetch count observed for `(host, lfn)`.
    pub fn remote_fetch_count(&self, host: &str, lfn: &str) -> u32 {
        self.remote_fetches
            .get(&(host.to_string(), lfn.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Feeds one fetch outcome; returns advice at most once per
    /// `(host, file)` pair (the caller is expected to act on it).
    pub fn observe(&mut self, report: &FetchReport) -> Option<ReplicationAdvice> {
        if report.local_hit {
            return None; // already local: nothing to improve
        }
        let key = (report.client.clone(), report.lfn.to_string());
        if self.advised.get(&key).copied().unwrap_or(false) {
            return None;
        }
        let count = self.remote_fetches.entry(key.clone()).or_insert(0);
        *count += 1;
        let trigger = match self.strategy {
            ReplicationStrategy::Never => false,
            ReplicationStrategy::FetchCount { threshold } => *count >= threshold,
            ReplicationStrategy::SlowFetch { threshold_s } => {
                report.transfer.duration().as_secs_f64() > threshold_s
            }
        };
        if trigger {
            self.advised.insert(key, true);
            Some(ReplicationAdvice {
                lfn: report.lfn.to_string(),
                to_host: report.client.clone(),
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::{CandidateScore, SystemFactors};
    use datagrid_gridftp::transfer::{PhaseRecord, TransferOutcome};
    use datagrid_simnet::time::SimTime;
    use datagrid_sysmon::host::HostId;

    fn report(client: &str, lfn: &str, secs: f64, local: bool) -> FetchReport {
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_secs_f64(secs);
        let factors = SystemFactors::perfect();
        FetchReport {
            lfn: lfn.parse().unwrap(),
            client: client.to_string(),
            local_hit: local,
            candidates: vec![CandidateScore {
                host: HostId(0),
                host_name: "remote".into(),
                location: "gsiftp://remote/d/f".parse().unwrap(),
                factors,
                score: 1.0,
                is_local: local,
            }],
            chosen: 0,
            transfer: TransferOutcome {
                payload_bytes: 1,
                wire_bytes: 1,
                streams: 1,
                stripes: 1,
                started: t0,
                finished: t1,
                phases: vec![PhaseRecord {
                    name: "data",
                    start: t0,
                    end: t1,
                }],
            },
            decision_latency: datagrid_simnet::time::SimDuration::ZERO,
        }
    }

    #[test]
    fn never_strategy_stays_quiet() {
        let mut mgr = ReplicationManager::new(ReplicationStrategy::Never);
        for _ in 0..10 {
            assert_eq!(mgr.observe(&report("alpha1", "f", 100.0, false)), None);
        }
        assert_eq!(mgr.remote_fetch_count("alpha1", "f"), 10);
    }

    #[test]
    fn fetch_count_triggers_at_threshold_once() {
        let mut mgr = ReplicationManager::new(ReplicationStrategy::FetchCount { threshold: 3 });
        assert_eq!(mgr.observe(&report("alpha1", "f", 10.0, false)), None);
        assert_eq!(mgr.observe(&report("alpha1", "f", 10.0, false)), None);
        let advice = mgr.observe(&report("alpha1", "f", 10.0, false)).unwrap();
        assert_eq!(advice.lfn, "f");
        assert_eq!(advice.to_host, "alpha1");
        // Once advised, stays quiet for that pair.
        assert_eq!(mgr.observe(&report("alpha1", "f", 10.0, false)), None);
        // Other pairs count independently.
        assert_eq!(mgr.observe(&report("gridhit0", "f", 10.0, false)), None);
        assert_eq!(mgr.remote_fetch_count("gridhit0", "f"), 1);
    }

    #[test]
    fn slow_fetch_triggers_on_duration() {
        let mut mgr = ReplicationManager::new(ReplicationStrategy::SlowFetch { threshold_s: 60.0 });
        assert_eq!(mgr.observe(&report("alpha1", "f", 30.0, false)), None);
        assert!(mgr.observe(&report("alpha1", "f", 120.0, false)).is_some());
    }

    #[test]
    fn local_hits_never_count_or_trigger() {
        let mut mgr = ReplicationManager::new(ReplicationStrategy::FetchCount { threshold: 1 });
        assert_eq!(mgr.observe(&report("alpha1", "f", 300.0, true)), None);
        assert_eq!(mgr.remote_fetch_count("alpha1", "f"), 0);
    }
}
