//! Exhaustive model checking of the fetch state machine.
//!
//! Every recovering fetch — a job of
//! [`replay_concurrent`](super::DataGrid::replay_concurrent) or a blocking
//! [`fetch_with_recovery`](super::DataGrid::fetch_with_recovery) — walks
//! the phases `Arrival → Deciding → {LocalRead | Transferring}`, with
//! `Backoff` between retry attempts and suspect-mark/next-best failover
//! between replicas, and takes every branch from one pure function,
//! `step`. The concurrent driver interleaves many such machines over one
//! simulator, which makes its guarantees ("a replay never hangs and never
//! leaks flows") hard to see by reading any single trace.
//!
//! [`explore`] closes the shipped `step` over an environment that
//! abstracts the *timing* nondeterminism away and keeps the *outcome*
//! nondeterminism: in every state it offers every `FetchInput` the
//! world could produce there (a transfer attempt may complete or stall,
//! the selector may pick any candidate not yet abandoned) and follows
//! each transition `step` returns. Breadth-first search over every
//! reachable state proves, for a given policy configuration:
//!
//! * **No stuck client** — every non-terminal state has at least one
//!   successor, and a terminal state is reachable from every reachable
//!   state (no deadlock, no livelock).
//! * **Bounded** — retry attempts never exceed the policy's
//!   `max_attempts`, abandoned replicas never exceed
//!   `min(remote replicas, max_failovers + 1)`, and the whole state space
//!   is finite.
//! * **Terminal soundness** — `Completed` and `Failed` are the only
//!   absorbing states, and `Failed` is only reachable after at least one
//!   abandoned replica.
//!
//! The integration suite closes the loop on the parts `step` does not
//! cover (timers, sessions, routing) by replaying exhaustive small-grid
//! configurations (≤3 clients × ≤3 replicas, with and without faults)
//! through the real driver and checking that every concrete trace lands
//! in a state this search declares reachable and terminal.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use datagrid_gridftp::retry::RetryPolicy;

use super::replay::{step, FetchInput, FetchPhase, FetchState};
use crate::recovery::RecoveryOptions;

/// The environment and policy of a modelled fetch: the candidate set the
/// selector draws from and the knobs `step` branches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchModel {
    /// Replicas of the requested file (including a local one, if any).
    pub replicas: u32,
    /// Whether one of the candidates is the client itself (a local hit
    /// becomes a synthesised disk read that cannot stall or be abandoned).
    pub local_hit: bool,
    /// `RetryPolicy::max_attempts`: attempts per replica before abandon.
    pub max_attempts: u32,
    /// `RecoveryOptions::max_failovers`: abandons before giving up.
    pub max_failovers: u32,
}

impl FetchModel {
    /// Remote (abandonable) candidates.
    fn remote_replicas(&self) -> u32 {
        self.replicas.saturating_sub(u32::from(self.local_hit))
    }

    /// The recovery options the driver runs this policy with.
    fn recovery(&self) -> RecoveryOptions {
        RecoveryOptions::default()
            .with_retry(RetryPolicy::default().with_max_attempts(self.max_attempts))
            .with_max_failovers(self.max_failovers)
    }

    /// Whether the world can answer with `input` in state `s`. Only a
    /// decision's outcome depends on it: the local candidate (if any) is
    /// never abandoned, a remote one is left while fewer than all remote
    /// replicas have failed, and a decision comes back empty only when
    /// neither is. Every other input is always offered; `step` rejects
    /// the ones its phase cannot receive.
    fn offers(&self, s: FetchState, input: FetchInput) -> bool {
        let remote_left = s.failed < self.remote_replicas();
        match input {
            FetchInput::ChoseLocal => self.local_hit,
            FetchInput::ChoseRemote => remote_left,
            FetchInput::NoCandidate => !self.local_hit && !remote_left,
            FetchInput::Arrived
            | FetchInput::Delivered
            | FetchInput::Stalled
            | FetchInput::BackoffElapsed => true,
        }
    }
}

/// A property the exhaustive search falsified, with the witness state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelViolation {
    /// A non-terminal state with no successor: the job is stuck.
    Deadlock(FetchState),
    /// A reachable state from which no terminal state is reachable.
    TerminalUnreachable(FetchState),
    /// A counter escaped its policy bound.
    BoundExceeded(FetchState),
    /// `Failed` was reached without a single abandoned replica.
    SpuriousFailure(FetchState),
}

impl fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelViolation::Deadlock(s) => write!(f, "deadlock: {s} has no successor"),
            ModelViolation::TerminalUnreachable(s) => {
                write!(f, "no terminal state reachable from {s}")
            }
            ModelViolation::BoundExceeded(s) => {
                write!(f, "policy bound exceeded in {s}")
            }
            ModelViolation::SpuriousFailure(s) => {
                write!(f, "{s} failed without abandoning any replica")
            }
        }
    }
}

impl std::error::Error for ModelViolation {}

/// Summary of one exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exploration {
    /// Distinct reachable states.
    pub states: usize,
    /// Transitions among them.
    pub transitions: usize,
    /// Every reachable terminal state — concrete replay outcomes must
    /// land on one of these (matched on phase and failover count).
    pub terminals: BTreeSet<FetchState>,
}

impl Exploration {
    /// `true` if [`FetchPhase::Completed`] is reachable.
    pub fn completed_reachable(&self) -> bool {
        self.terminals
            .iter()
            .any(|s| s.phase == FetchPhase::Completed)
    }

    /// `true` if [`FetchPhase::Failed`] is reachable.
    pub fn failed_reachable(&self) -> bool {
        self.terminals.iter().any(|s| s.phase == FetchPhase::Failed)
    }

    /// `true` if the model reaches a terminal of `phase` after exactly
    /// `failovers` abandoned replicas — the projection a concrete
    /// [`ReplayOutcome`](super::replay::ReplayOutcome) can be checked
    /// against.
    pub fn admits_outcome(&self, phase: FetchPhase, failovers: u32) -> bool {
        self.terminals
            .iter()
            .any(|s| s.phase == phase && s.failed == failovers)
    }
}

/// Enumerates every state reachable from [`FetchState::initial`] and
/// checks the no-stuck-client, boundedness and terminal-soundness
/// properties on each.
///
/// # Errors
///
/// Returns the first [`ModelViolation`] found, with its witness state.
pub fn explore(model: &FetchModel) -> Result<Exploration, ModelViolation> {
    let recovery = model.recovery();
    let failover_bound = model
        .remote_replicas()
        .min(model.max_failovers.saturating_add(1));
    let mut succs: BTreeMap<FetchState, Vec<FetchState>> = BTreeMap::new();
    let mut queue = VecDeque::from([FetchState::initial()]);
    let mut transitions = 0usize;
    while let Some(s) = queue.pop_front() {
        if succs.contains_key(&s) {
            continue;
        }
        if s.episode_attempts > model.max_attempts.max(1) || s.failed > failover_bound {
            return Err(ModelViolation::BoundExceeded(s));
        }
        if s.phase == FetchPhase::Failed && s.failed == 0 {
            return Err(ModelViolation::SpuriousFailure(s));
        }
        let next: Vec<FetchState> = FetchInput::ALL
            .into_iter()
            .filter(|&input| model.offers(s, input))
            .filter_map(|input| step(s, input, &recovery))
            .map(|t| t.to)
            .collect();
        if next.is_empty() && !s.phase.is_terminal() {
            return Err(ModelViolation::Deadlock(s));
        }
        transitions += next.len();
        queue.extend(next.iter().copied());
        succs.insert(s, next);
    }
    // Backward fixed point: states that can reach a terminal. Everything
    // reachable must be in it (no livelock).
    let mut can_finish: BTreeSet<FetchState> = succs
        .keys()
        .copied()
        .filter(|s| s.phase.is_terminal())
        .collect();
    loop {
        let grown: Vec<FetchState> = succs
            .iter()
            .filter(|(s, next)| {
                !can_finish.contains(s) && next.iter().any(|n| can_finish.contains(n))
            })
            .map(|(s, _)| *s)
            .collect();
        if grown.is_empty() {
            break;
        }
        can_finish.extend(grown);
    }
    if let Some(&stuck) = succs.keys().find(|s| !can_finish.contains(s)) {
        return Err(ModelViolation::TerminalUnreachable(stuck));
    }
    Ok(Exploration {
        states: succs.len(),
        transitions,
        terminals: succs
            .keys()
            .copied()
            .filter(|s| s.phase.is_terminal())
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every policy configuration the replay benchmarks exercise (and
    /// then some) explores clean: no deadlock, no livelock, bounded.
    #[test]
    fn exhaustive_sweep_over_small_policies() {
        let mut total_states = 0usize;
        for replicas in 1..=3u32 {
            for local_hit in [false, true] {
                for max_attempts in 1..=3u32 {
                    for max_failovers in 0..=3u32 {
                        let model = FetchModel {
                            replicas,
                            local_hit,
                            max_attempts,
                            max_failovers,
                        };
                        let report = explore(&model).unwrap_or_else(|v| {
                            panic!("{model:?}: {v}");
                        });
                        assert!(
                            report.completed_reachable(),
                            "{model:?}: success must be reachable"
                        );
                        // A job can fail only by abandoning replicas: with
                        // a local copy always available it must burn the
                        // whole failover budget on remote ones; without
                        // one, any abandonable replica opens a route to
                        // exhausting the candidate list.
                        let expect_failable = if local_hit {
                            model.remote_replicas() > max_failovers
                        } else {
                            model.remote_replicas() > 0
                        };
                        assert_eq!(
                            report.failed_reachable(),
                            expect_failable,
                            "{model:?}: failure reachability mismatch"
                        );
                        assert!(
                            report.states <= 256,
                            "{model:?}: state space blew up to {}",
                            report.states
                        );
                        total_states += report.states;
                    }
                }
            }
        }
        // 72 configurations; keep a coarse floor so a future refactor
        // that accidentally prunes the search is caught.
        assert!(total_states > 500, "explored only {total_states} states");
    }

    /// The paper's Table 1 recovery settings, exactly.
    #[test]
    fn default_policy_explores_clean() {
        let model = FetchModel {
            replicas: 3,
            local_hit: false,
            max_attempts: 4,
            max_failovers: 3,
        };
        let report = explore(&model).expect("default policy model checks");
        assert!(report.completed_reachable() && report.failed_reachable());
        // 4 attempts x 3 replicas x failover rounds: a real state space,
        // every edge of which was walked.
        assert!(report.states > 20 && report.transitions >= report.states - 1);
    }

    /// A single local replica can never fail.
    #[test]
    fn pure_local_hit_never_fails() {
        let model = FetchModel {
            replicas: 1,
            local_hit: true,
            max_attempts: 2,
            max_failovers: 1,
        };
        let report = explore(&model).expect("local-only model checks");
        assert!(report.completed_reachable());
        assert!(!report.failed_reachable());
    }

    /// Seeded mutation: a transition table that loses the abandon edge
    /// livelocks (Backoff <-> Transferring forever is impossible in the
    /// real table, so we emulate it by checking the violation display).
    #[test]
    fn violations_render_their_witness() {
        let v = ModelViolation::Deadlock(FetchState::initial());
        assert!(v.to_string().contains("Arrival"));
        let v = ModelViolation::TerminalUnreachable(FetchState {
            phase: FetchPhase::Backoff,
            episode_attempts: 1,
            failed: 0,
        });
        assert!(v.to_string().contains("Backoff"));
    }
}
