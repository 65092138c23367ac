//! The fetch state machine: concurrent multi-client replay, and every
//! blocking fetch as a replay of one job.
//!
//! [`DataGrid::replay_concurrent`] replays a whole workload — N clients
//! with seeded arrival times — against **one shared simulator**. Each job
//! runs the full Fig. 1 scenario as an event-driven state machine
//! (arrival → catalog/selection latency → decision → GridFTP transfer
//! with stall detection, seeded backoff retries, suspect marking and
//! next-best failover), and all in-flight transfers contend for bandwidth
//! in the same max-min allocation. Everything a fetch records —
//! `selection.decision` audit entries, `transfer.*` spans and metrics,
//! `selection.failover` events — is recorded here, interleaved in
//! simulated-time order.
//!
//! The blocking fetches — [`DataGrid::fetch`], [`DataGrid::fetch_with`],
//! [`DataGrid::fetch_from`] and [`DataGrid::fetch_with_recovery`] — are
//! the paper's Table 1 setting: the caller's event loop owns the simulator
//! until its one fetch resolves. All four run the same driver with a
//! single job, so a blocking fetch and a replayed one share every line of
//! selection, transfer and recovery code. The plain ones recover with
//! [`RecoveryOptions::default`]; `fetch_from` forces the host of the
//! first decision only, and a failover after it is an ordinary one.
//!
//! The machine's branch points — what a decision yielded, whether an
//! attempt completed or stalled, whether the replica's retries are
//! exhausted, whether the failover cap is reached — are taken in one pure
//! function, `step`. The driver carries out the transitions it returns,
//! and [`explore`](super::modelcheck::explore) enumerates the same
//! function exhaustively.
//!
//! The driver takes its events from the grid's one event loop, which runs
//! the monitoring, probe and fault plumbing and returns only events that
//! name an owner by token. Each job waits on one token block at a time (a
//! control timer's, or its GridFTP session's), so one map from block to
//! job routes every event.
//!
//! Determinism: the replay consumes randomness only through the grid's
//! own seeded sources (selector, backoff jitter, background traffic), and
//! every routing decision is by value, never by map-iteration order — two
//! runs from the same seed produce byte-identical event logs.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, DefaultHasher};

use datagrid_catalog::name::LogicalFileName;
use datagrid_gridftp::executor::{SessionStatus, TransferSession};
use datagrid_gridftp::transfer::{protocol_label, PhaseRecord, TransferOutcome};
use datagrid_obs::{Event, PhaseProfiler};
use datagrid_simnet::engine::{EventKind, FlowCompletion, SimEvent};
use datagrid_simnet::time::{SimDuration, SimTime};
use datagrid_sysmon::host::HostId;

use super::{endpoint_of, DataGrid, FetchOptions, FetchReport, SESSION_TOKEN_BASE};
use crate::error::GridError;
use crate::factors::CandidateScore;
use crate::recovery::{RecoveredFetch, RecoveryOptions};

/// A local disk read of `bytes` between `start` and `end`, synthesised as
/// a one-phase transfer outcome.
fn local_outcome(bytes: u64, start: SimTime, end: SimTime) -> TransferOutcome {
    TransferOutcome {
        payload_bytes: bytes,
        wire_bytes: 0,
        streams: 0,
        stripes: 0,
        started: start,
        finished: end,
        phases: vec![PhaseRecord {
            name: "data",
            start,
            end,
        }],
    }
}

/// One scheduled fetch in a replay workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayJob {
    /// Simulated arrival time (clamped to "now" if already past).
    pub at: SimTime,
    /// The requesting host.
    pub client: HostId,
    /// The logical file to fetch.
    pub lfn: String,
}

/// Terminal state of one replayed fetch.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayStatus {
    /// The fetch delivered the full file.
    Completed {
        /// Host that served the winning replica.
        winner: String,
        /// Payload bytes delivered across all attempts (equals the file
        /// size).
        bytes: u64,
        /// `true` when the file was already present at the client.
        local_hit: bool,
    },
    /// Every candidate the failover policy was willing to try was
    /// abandoned (the per-job analogue of
    /// [`GridError::AllReplicasFailed`]).
    Failed {
        /// Hosts tried and abandoned, in order.
        failed: Vec<String>,
    },
}

impl ReplayStatus {
    /// `true` for [`ReplayStatus::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, ReplayStatus::Completed { .. })
    }
}

/// The full record of one replayed fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Requesting host name.
    pub client: String,
    /// The logical file requested.
    pub lfn: String,
    /// When the job entered the system.
    pub submitted: SimTime,
    /// When the job reached a terminal state.
    pub finished: SimTime,
    /// Transfer attempts across all replicas tried.
    pub attempts: u32,
    /// Replicas abandoned before the terminal state.
    pub failovers: u32,
    /// Payload bytes moved, including work lost to stalled attempts.
    pub payload_moved: u64,
    /// How the job ended.
    pub status: ReplayStatus,
}

impl ReplayOutcome {
    /// Submission-to-terminal latency (queueing + decision + transfer).
    pub fn latency(&self) -> SimDuration {
        self.finished - self.submitted
    }
}

/// The result of one [`DataGrid::replay_concurrent`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Per-job outcomes, in submission (input) order.
    pub outcomes: Vec<ReplayOutcome>,
    /// Simulated time when the replay started.
    pub started: SimTime,
    /// Simulated time when the last job reached a terminal state.
    pub finished: SimTime,
}

impl ReplayReport {
    /// Wall time of the whole replay in simulated seconds.
    pub fn makespan(&self) -> SimDuration {
        self.finished - self.started
    }

    /// Jobs that delivered their full file.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status.is_completed())
            .count()
    }

    /// Jobs that exhausted every candidate.
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.completed()
    }
}

/// Phase of one fetch, without the data the driver keeps for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FetchPhase {
    /// Waiting for the arrival timer.
    Arrival,
    /// Waiting for the catalog + selection round trip.
    Deciding,
    /// Waiting out a retry backoff pause.
    Backoff,
    /// A synthesised local disk read (cannot stall).
    LocalRead,
    /// A GridFTP attempt that may complete or stall.
    Transferring,
    /// Terminal: full file delivered.
    Completed,
    /// Terminal: every candidate the policy allowed was abandoned.
    Failed,
}

impl FetchPhase {
    /// `true` for the two absorbing outcomes.
    pub fn is_terminal(self) -> bool {
        matches!(self, FetchPhase::Completed | FetchPhase::Failed)
    }
}

/// The part of a fetch's state the recovery policy branches on: its phase
/// and two counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FetchState {
    /// Current phase.
    pub phase: FetchPhase,
    /// Attempts against the current replica (reset on failover).
    pub episode_attempts: u32,
    /// Replicas abandoned so far.
    pub failed: u32,
}

impl FetchState {
    /// The initial state: waiting for the arrival timer.
    pub fn initial() -> Self {
        FetchState {
            phase: FetchPhase::Arrival,
            episode_attempts: 0,
            failed: 0,
        }
    }
}

impl fmt::Display for FetchState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}(attempt {}, {} failed over)",
            self.phase, self.episode_attempts, self.failed
        )
    }
}

/// What ends a fetch's wait: the answer the world gives to its phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FetchInput {
    /// The arrival timer fired.
    Arrived,
    /// The decision picked the client's own copy.
    ChoseLocal,
    /// The decision picked a remote replica.
    ChoseRemote,
    /// The decision found every candidate abandoned.
    NoCandidate,
    /// The local read or GridFTP attempt delivered the rest of the file.
    Delivered,
    /// The stall watchdog ended the GridFTP attempt.
    Stalled,
    /// The backoff pause ended.
    BackoffElapsed,
}

impl FetchInput {
    /// Every input, for exhaustive enumeration.
    pub(crate) const ALL: [FetchInput; 7] = [
        FetchInput::Arrived,
        FetchInput::ChoseLocal,
        FetchInput::ChoseRemote,
        FetchInput::NoCandidate,
        FetchInput::Delivered,
        FetchInput::Stalled,
        FetchInput::BackoffElapsed,
    ];
}

/// One move of the fetch state machine (see [`step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Transition {
    /// The state the fetch moves to.
    pub(crate) to: FetchState,
    /// `true` when the move gives up on the current replica: it is marked
    /// suspect and counted as a failover before `to` is entered.
    pub(crate) abandons: bool,
}

/// The fetch state machine's transition function: where `input` takes a
/// fetch in `state` under `recovery`, or `None` when the input cannot
/// occur in that phase (a local read never stalls; a terminal state takes
/// no input).
///
/// Entering `Transferring` counts one attempt against the current
/// replica. A stall backs off for another attempt until
/// [`RetryPolicy::exhausted`](datagrid_gridftp::retry::RetryPolicy::exhausted);
/// then the replica is abandoned, and the fetch decides again unless
/// abandoning it exceeds [`RecoveryOptions::max_failovers`].
pub(crate) fn step(
    state: FetchState,
    input: FetchInput,
    recovery: &RecoveryOptions,
) -> Option<Transition> {
    let FetchState {
        phase,
        episode_attempts: attempts,
        failed,
    } = state;
    let to = |phase, episode_attempts, failed| FetchState {
        phase,
        episode_attempts,
        failed,
    };
    let next = match phase {
        FetchPhase::Arrival if input == FetchInput::Arrived => to(FetchPhase::Deciding, 0, failed),
        FetchPhase::Deciding if input == FetchInput::ChoseLocal => {
            to(FetchPhase::LocalRead, 0, failed)
        }
        FetchPhase::Deciding if input == FetchInput::ChoseRemote => {
            to(FetchPhase::Transferring, 1, failed)
        }
        FetchPhase::Deciding if input == FetchInput::NoCandidate => {
            to(FetchPhase::Failed, attempts, failed)
        }
        FetchPhase::LocalRead | FetchPhase::Transferring if input == FetchInput::Delivered => {
            to(FetchPhase::Completed, attempts, failed)
        }
        FetchPhase::Transferring if input == FetchInput::Stalled => {
            if !recovery.retry.exhausted(attempts) {
                to(FetchPhase::Backoff, attempts, failed)
            } else if failed.saturating_add(1) > recovery.max_failovers {
                to(FetchPhase::Failed, attempts, failed.saturating_add(1))
            } else {
                to(FetchPhase::Deciding, 0, failed.saturating_add(1))
            }
        }
        FetchPhase::Backoff if input == FetchInput::BackoffElapsed => {
            to(FetchPhase::Transferring, attempts.saturating_add(1), failed)
        }
        FetchPhase::Arrival
        | FetchPhase::Deciding
        | FetchPhase::LocalRead
        | FetchPhase::Transferring
        | FetchPhase::Backoff
        | FetchPhase::Completed
        | FetchPhase::Failed => return None,
    };
    Some(Transition {
        to: next,
        abandons: next.failed > failed,
    })
}

/// What a job is waiting for, with the data the driver needs when the
/// wait ends.
enum Phase {
    /// Its arrival timer.
    Arrival,
    /// The catalog + selection-server round trip.
    Deciding,
    /// A retry backoff pause.
    Backoff { pause: SimDuration },
    /// A synthesised local disk read.
    LocalRead { started: SimTime },
    /// A GridFTP session it owns.
    Transferring(Box<TransferSession>),
    /// Nothing: terminal.
    Done,
}

struct JobState {
    client: HostId,
    client_name: String,
    lfn: String,
    submitted: SimTime,
    /// Size of the requested file (set at the first decision).
    total_bytes: u64,
    /// Bytes committed by MODE E restart markers in the current episode.
    committed: u64,
    /// Attempts against the current replica.
    episode_attempts: u32,
    /// Attempts across all replicas.
    attempts: u32,
    failed_over: Vec<String>,
    payload_moved: u64,
    decision_started: SimTime,
    /// Catalog + selection latency summed over every decision round.
    decision_latency: SimDuration,
    /// Time spent in backoff pauses.
    backoff_total: SimDuration,
    /// Audit sequence number of this job's latest decision, for attaching
    /// the measured time to the *right* entry under interleaving.
    audit_seq: Option<u64>,
    /// The replica currently being fetched.
    choice: Option<CandidateScore>,
    phase: Phase,
}

impl JobState {
    /// The state [`step`] sees. Terminal jobs take no input.
    fn fetch_state(&self) -> FetchState {
        let phase = match self.phase {
            Phase::Arrival => FetchPhase::Arrival,
            Phase::Deciding => FetchPhase::Deciding,
            Phase::Backoff { .. } => FetchPhase::Backoff,
            Phase::LocalRead { .. } => FetchPhase::LocalRead,
            Phase::Transferring(_) => FetchPhase::Transferring,
            Phase::Done => unreachable!("terminal jobs take no input"),
        };
        FetchState {
            phase,
            episode_attempts: self.episode_attempts,
            failed: u32::try_from(self.failed_over.len()).unwrap_or(u32::MAX),
        }
    }
}

/// The block of [`TransferSession::TOKENS_PER_SESSION`] tokens `token`
/// falls in: the key of [`Driver::owners`].
fn token_block(token: u64) -> u64 {
    (token - SESSION_TOKEN_BASE) / TransferSession::TOKENS_PER_SESSION
}

/// The replay driver: grid + per-job state machines. `grid` and the
/// driver's own fields are disjoint, so job state can be borrowed while
/// grid methods run.
struct Driver<'a> {
    grid: &'a mut DataGrid,
    options: FetchOptions,
    recovery: &'a RecoveryOptions,
    /// Host whose replica the first decision must pick
    /// ([`DataGrid::fetch_from`]); failover decisions ignore it.
    forced: Option<&'a str>,
    states: Vec<JobState>,
    /// Token block -> job index, for the one wait each live job has: a
    /// control timer (arrival, decision, backoff, local read), removed when
    /// it fires, or a GridFTP session, whose timers and data flows all carry
    /// its block, removed when the session ends. Never iterated, so fixed
    /// hash keys lose nothing and keep the moment the table resizes, and
    /// with it the replay's allocation count, the same in every process.
    owners: HashMap<u64, usize, BuildHasherDefault<DefaultHasher>>,
    /// Jobs in [`Phase::Transferring`], ascending: the monitor-tick re-cap
    /// walks only these. Ascending by job index because the order of the
    /// re-caps' `set_flow_cap` calls seeds the batched solve's component
    /// order, and that order breaks FIFO ties between completions.
    transferring: Vec<usize>,
    /// Reusable ranked-candidate buffer for [`Driver::decide`]. After a
    /// decision it holds that ranking minus the chosen candidate, which
    /// `swap_remove` took from index [`Driver::last_chosen`].
    cand_buf: Vec<CandidateScore>,
    /// Ranking index of the latest decision's choice.
    last_chosen: usize,
    /// The latest delivering transfer (local read or final attempt).
    last_transfer: Option<TransferOutcome>,
    outcomes: Vec<Option<ReplayOutcome>>,
    remaining: usize,
    /// The grid's phase profiler, held here while the driver lives so
    /// span guards can borrow it while `grid` methods take `&mut`.
    prof: PhaseProfiler,
}

impl Drop for Driver<'_> {
    fn drop(&mut self) {
        self.grid.prof = std::mem::take(&mut self.prof);
    }
}

impl DataGrid {
    /// Replays `jobs` — each a client/file/arrival-time triple — against
    /// this grid **concurrently**: every job runs the paper's Fig. 1
    /// scenario with the recovery semantics of
    /// [`DataGrid::fetch_with_recovery`], but all jobs share the event
    /// loop, so their transfers contend for bandwidth and their selection
    /// decisions observe each other's traffic (especially under
    /// [`SelectionMode::ContentionAware`](super::SelectionMode)).
    ///
    /// Per job, the terminal state is either `Completed` with the full
    /// file delivered or `Failed` after suspect-marking and next-best
    /// failover ran out of candidates — a replay never hangs and never
    /// leaks flows.
    ///
    /// # Errors
    ///
    /// Configuration errors surface as `Err` (unknown files/hosts,
    /// invalid requests); per-job transfer failures do not — they end in
    /// [`ReplayStatus::Failed`].
    pub fn replay_concurrent(
        &mut self,
        jobs: &[ReplayJob],
        options: FetchOptions,
        recovery: &RecoveryOptions,
    ) -> Result<ReplayReport, GridError> {
        let started = self.sim.now();
        self.obs.metrics_mut().add("replay.jobs", jobs.len() as u64);
        self.obs.emit(
            Event::new(started, "replay", "replay.start")
                .with("jobs", jobs.len())
                .with("mode", self.selection_mode.label()),
        );
        // Open the first timeline window at the replay boundary even if no
        // monitor tick has fired yet.
        self.sample_timeline();
        let mut driver = Driver::new(self, options, recovery, jobs.len());
        for job in jobs {
            let at = job.at.max(started);
            let idx = driver.admit(job.client, &job.lfn, at);
            driver.schedule_control(idx, at - started);
        }
        let run_result = driver.run();
        let raw = std::mem::take(&mut driver.outcomes);
        drop(driver);
        run_result?;
        // Close the timeline on the drained state of the network.
        self.sample_timeline();
        let finished = self.sim.now();
        let outcomes: Vec<ReplayOutcome> = raw
            .into_iter()
            .map(|o| o.expect("every replay job reached a terminal state"))
            .collect();
        let completed = outcomes.iter().filter(|o| o.status.is_completed()).count();
        self.obs.emit(
            Event::new(finished, "replay", "replay.end")
                .with("completed", completed)
                .with("failed", outcomes.len() - completed)
                .with("makespan_secs", (finished - started).as_secs_f64()),
        );
        Ok(ReplayReport {
            outcomes,
            started,
            finished,
        })
    }

    /// The paper's Fig. 1 scenario hardened for faulty grids: catalog
    /// query, factor gathering, policy choice, then a GridFTP transfer
    /// with stall detection and retries — and when the chosen replica's
    /// retries are exhausted, the site is marked suspect in the catalog,
    /// candidates are re-ranked (suspects are penalised) and the fetch
    /// fails over to the next-best replica. The whole episode — faults,
    /// stalls, backoff pauses, failovers and the final winner — is
    /// recorded through the observability layer.
    ///
    /// This is a replay of one job that arrives now: the fetch runs on
    /// the state machine of [`DataGrid::replay_concurrent`], with the
    /// caller's event loop owning the simulator until it resolves.
    ///
    /// # Errors
    ///
    /// Catalog errors, [`GridError::NoReplicas`],
    /// [`GridError::ReplicaOffGrid`], transfer errors, or
    /// [`GridError::AllReplicasFailed`] when every candidate was tried
    /// and abandoned.
    pub fn fetch_with_recovery(
        &mut self,
        client: HostId,
        lfn: &str,
        options: FetchOptions,
        recovery: &RecoveryOptions,
    ) -> Result<RecoveredFetch, GridError> {
        self.fetch_one(client, lfn, None, options, recovery)
    }

    /// The paper's full Fig. 1 scenario with default transfer options.
    ///
    /// # Errors
    ///
    /// See [`DataGrid::fetch_with`].
    pub fn fetch(&mut self, client: HostId, lfn: &str) -> Result<FetchReport, GridError> {
        self.fetch_with(client, lfn, FetchOptions::default())
    }

    /// The paper's full Fig. 1 scenario: catalog query, factor gathering,
    /// policy choice, GridFTP transfer. Time advances through every step;
    /// monitoring keeps running.
    ///
    /// This is [`DataGrid::fetch_with_recovery`] with
    /// [`RecoveryOptions::default`], keeping only the report: a stalled
    /// transfer is retried and a dead replica failed over like in any
    /// replayed fetch.
    ///
    /// # Errors
    ///
    /// Catalog errors, [`GridError::NoReplicas`],
    /// [`GridError::ReplicaOffGrid`], transfer errors, or
    /// [`GridError::AllReplicasFailed`] when every candidate the default
    /// recovery allows was tried and abandoned.
    pub fn fetch_with(
        &mut self,
        client: HostId,
        lfn: &str,
        options: FetchOptions,
    ) -> Result<FetchReport, GridError> {
        self.fetch_one(client, lfn, None, options, &RecoveryOptions::default())
            .map(|fetched| fetched.report)
    }

    /// Like [`DataGrid::fetch_with`] but forcing the replica on
    /// `from_host` — the counterfactual probe used for oracle evaluation
    /// and for regenerating the paper's Table 1 (which measures the
    /// transfer time of *every* candidate). The first decision is audited
    /// with `policy = "forced"`. Only that decision is forced: if the
    /// host's retries run out, the fetch fails over to the best other
    /// candidate like any other.
    ///
    /// # Errors
    ///
    /// As [`DataGrid::fetch_with`], plus [`GridError::UnknownHost`] if the
    /// forced host holds no replica.
    pub fn fetch_from(
        &mut self,
        client: HostId,
        lfn: &str,
        from_host: &str,
        options: FetchOptions,
    ) -> Result<FetchReport, GridError> {
        let forced = Some(from_host);
        self.fetch_one(client, lfn, forced, options, &RecoveryOptions::default())
            .map(|fetched| fetched.report)
    }

    /// The one blocking-fetch entry point: a replay of one job that
    /// arrives now, whose first decision picks `forced`'s replica when
    /// set.
    fn fetch_one(
        &mut self,
        client: HostId,
        lfn: &str,
        forced: Option<&str>,
        options: FetchOptions,
        recovery: &RecoveryOptions,
    ) -> Result<RecoveredFetch, GridError> {
        let now = self.sim.now();
        let mut driver = Driver::new(self, options, recovery, 1);
        driver.forced = forced;
        let idx = driver.admit(client, lfn, now);
        // The job arrives now: take its arrival transition directly. A
        // timer at `now` would fire only after the events already queued
        // for this instant.
        driver.on_control(idx)?;
        driver.run()?;
        let outcome = driver.outcomes[idx]
            .take()
            .expect("the run ends with the job terminal");
        let local_hit = match outcome.status {
            ReplayStatus::Completed { local_hit, .. } => local_hit,
            ReplayStatus::Failed { failed } => {
                return Err(GridError::AllReplicasFailed {
                    lfn: lfn.to_string(),
                    failed,
                });
            }
        };
        // Undo the final decision's `swap_remove` to restore its ranking.
        let st = &mut driver.states[idx];
        let mut candidates = std::mem::take(&mut driver.cand_buf);
        candidates.push(st.choice.take().expect("a completed job has a choice"));
        let last = candidates.len() - 1;
        candidates.swap(driver.last_chosen, last);
        Ok(RecoveredFetch {
            report: FetchReport {
                lfn: LogicalFileName::new(lfn)?,
                client: outcome.client,
                local_hit,
                candidates,
                chosen: driver.last_chosen,
                transfer: driver
                    .last_transfer
                    .take()
                    .expect("a completed job delivered a transfer"),
                decision_latency: st.decision_latency,
            },
            failed_over: std::mem::take(&mut st.failed_over),
            attempts: outcome.attempts,
            payload_moved: outcome.payload_moved,
            backoff_total: st.backoff_total,
        })
    }
}

impl<'a> Driver<'a> {
    /// Takes the grid's profiler for the driver's lifetime (returned on
    /// drop).
    fn new(
        grid: &'a mut DataGrid,
        options: FetchOptions,
        recovery: &'a RecoveryOptions,
        jobs: usize,
    ) -> Self {
        let prof = std::mem::take(&mut grid.prof);
        Driver {
            grid,
            options,
            recovery,
            forced: None,
            states: Vec::with_capacity(jobs),
            owners: HashMap::default(),
            transferring: Vec::new(),
            cand_buf: Vec::new(),
            last_chosen: 0,
            last_transfer: None,
            outcomes: Vec::with_capacity(jobs),
            remaining: 0,
            prof,
        }
    }

    /// Adds a job waiting for its arrival at `at`; returns its index.
    fn admit(&mut self, client: HostId, lfn: &str, at: SimTime) -> usize {
        self.states.push(JobState {
            client,
            client_name: self.grid.hosts[client.index()].name().to_string(),
            lfn: lfn.to_string(),
            submitted: at,
            total_bytes: 0,
            committed: 0,
            episode_attempts: 0,
            attempts: 0,
            failed_over: Vec::new(),
            payload_moved: 0,
            decision_started: SimTime::ZERO,
            decision_latency: SimDuration::ZERO,
            backoff_total: SimDuration::ZERO,
            audit_seq: None,
            choice: None,
            phase: Phase::Arrival,
        });
        self.outcomes.push(None);
        self.remaining += 1;
        self.states.len() - 1
    }

    fn run(&mut self) -> Result<(), GridError> {
        while self.remaining > 0 {
            // A monitor tick pushes the fresh host loads into the running
            // transfers, walking only those; all re-caps share one solve.
            let (states, transferring) = (&mut self.states, &self.transferring);
            let ev = self.grid.next_owned(Some(&self.prof), |sim, hosts, nodes| {
                for &idx in transferring {
                    let st = &mut states[idx];
                    let Phase::Transferring(session) = &mut st.phase else {
                        unreachable!("the transferring list holds transferring jobs");
                    };
                    let choice = st.choice.as_ref().expect("transferring jobs have a choice");
                    let fresh = [endpoint_of(hosts, nodes, choice.host)];
                    let dst_fresh = endpoint_of(hosts, nodes, st.client);
                    session.refresh_endpoints(sim, &fresh, dst_fresh);
                }
            });
            // A fault notice needs nothing here: the stall watchdog notices
            // what it did to a transfer.
            let (EventKind::TimerFired(token)
            | EventKind::FlowCompleted(FlowCompletion { token, .. })) = &ev.kind
            else {
                continue;
            };
            let block = token_block(*token);
            // A block with no live owner is a stale watchdog of a finished
            // attempt.
            let Some(&idx) = self.owners.get(&block) else {
                continue;
            };
            if matches!(self.states[idx].phase, Phase::Transferring(_)) {
                self.on_session_event(idx, block, &ev)?;
            } else {
                self.owners.remove(&block);
                self.on_control(idx)?;
            }
        }
        Ok(())
    }

    /// Allocates a control token for `idx` firing after `pause`.
    fn schedule_control(&mut self, idx: usize, pause: SimDuration) {
        let token = self.grid.alloc_session_tokens();
        self.grid.sim.schedule_timer_after(pause, token);
        self.owners.insert(token_block(token), idx);
    }

    /// A control timer of job `idx` fired: the wait its phase names is
    /// over.
    fn on_control(&mut self, idx: usize) -> Result<(), GridError> {
        let state = self.states[idx].fetch_state();
        let input = match std::mem::replace(&mut self.states[idx].phase, Phase::Done) {
            Phase::Arrival => FetchInput::Arrived,
            Phase::Deciding => return self.decide(idx, state),
            Phase::Backoff { pause } => {
                let _retry = self.prof.span("retry");
                let now = self.grid.sim.now();
                if let Some(tl) = self.grid.timeline.as_mut() {
                    tl.record_retry(now);
                }
                self.grid.obs.metrics_mut().inc("transfer.retries");
                if self.grid.obs.is_enabled() {
                    let st = &self.states[idx];
                    let choice = st.choice.as_ref().expect("backoff implies a choice");
                    self.grid.obs.emit(
                        Event::new(now, "gridftp", "transfer.retry")
                            .with("src", choice.host_name.as_str())
                            .with("dst", st.client_name.as_str())
                            .with("attempt", st.episode_attempts + 1)
                            .with("backoff_secs", pause.as_secs_f64())
                            .with("resume_offset", st.committed),
                    );
                }
                FetchInput::BackoffElapsed
            }
            Phase::LocalRead { started } => {
                let st = &mut self.states[idx];
                st.attempts += 1;
                let outcome = local_outcome(st.total_bytes, started, self.grid.sim.now());
                self.grid.record_transfer(
                    &st.client_name,
                    &st.client_name,
                    "local",
                    &outcome,
                    Some(&st.lfn),
                );
                self.last_transfer = Some(outcome);
                FetchInput::Delivered
            }
            Phase::Transferring(_) | Phase::Done => {
                unreachable!("control timers only target waiting jobs")
            }
        };
        self.advance(idx, state, input)
    }

    /// Feeds `input` to [`step`] and carries out the transition: the
    /// abandon bookkeeping if it gives up on the replica, then whatever
    /// the target phase waits on.
    fn advance(
        &mut self,
        idx: usize,
        state: FetchState,
        input: FetchInput,
    ) -> Result<(), GridError> {
        let t =
            step(state, input, self.recovery).expect("the driver feeds inputs its phase accepts");
        if t.abandons {
            self.abandon_replica(idx);
        }
        self.states[idx].episode_attempts = t.to.episode_attempts;
        match t.to.phase {
            FetchPhase::Deciding => {
                let st = &mut self.states[idx];
                st.decision_started = self.grid.sim.now();
                st.phase = Phase::Deciding;
                let latency = self.grid.service_latency(st.client);
                self.schedule_control(idx, latency);
            }
            FetchPhase::LocalRead => self.start_local_read(idx),
            FetchPhase::Transferring => self.start_attempt(idx)?,
            FetchPhase::Backoff => {
                let pause = self
                    .recovery
                    .retry
                    .backoff(t.to.episode_attempts - 1, &mut self.grid.recovery_rng);
                let st = &mut self.states[idx];
                st.backoff_total += pause;
                st.phase = Phase::Backoff { pause };
                self.schedule_control(idx, pause);
            }
            FetchPhase::Completed => self.finish_transfer(idx),
            FetchPhase::Failed => self.fail_job(idx),
            FetchPhase::Arrival => unreachable!("no transition re-enters arrival"),
        }
        Ok(())
    }

    /// Scores candidates, records the decision and hands what it yielded
    /// to [`step`]. Re-entered after an abandon with the failed hosts
    /// excluded (the `"failover"` policy label). A first decision with a
    /// forced host takes that host's replica (the `"forced"` label).
    fn decide(&mut self, idx: usize, state: FetchState) -> Result<(), GridError> {
        let guard = self.prof.span("decide");
        let client = self.states[idx].client;
        // The ranking lands in the driver's reusable buffer; the chosen
        // candidate is moved out of it below, so a decision allocates no
        // candidate list of its own.
        self.grid
            .score_candidates_into(client, &self.states[idx].lfn, &mut self.cand_buf)?;
        self.prof.add_items(self.cand_buf.len() as u64);
        let failover = state.failed > 0;
        let (chosen, policy_override) = if failover {
            let open = self
                .cand_buf
                .iter()
                .position(|c| !self.states[idx].failed_over.contains(&c.host_name));
            (open, Some("failover"))
        } else if let Some(host) = self.forced {
            let Some(at) = self.cand_buf.iter().position(|c| c.host_name == host) else {
                return Err(GridError::UnknownHost {
                    name: host.to_string(),
                });
            };
            (Some(at), Some("forced"))
        } else {
            (Some(self.grid.selector.choose(&self.cand_buf)), None)
        };
        let Some(chosen) = chosen else {
            drop(guard);
            return self.advance(idx, state, FetchInput::NoCandidate);
        };
        let decision_latency = self.grid.sim.now() - self.states[idx].decision_started;
        let seq = self.grid.obs.audit().next_seq();
        self.grid.record_selection(
            &self.states[idx].lfn,
            client,
            &self.cand_buf,
            chosen,
            decision_latency,
            policy_override,
        );
        let choice = self.cand_buf.swap_remove(chosen);
        self.last_chosen = chosen;
        let input = if choice.is_local {
            FetchInput::ChoseLocal
        } else {
            FetchInput::ChoseRemote
        };
        let st = &mut self.states[idx];
        st.decision_latency += decision_latency;
        st.audit_seq = Some(seq);
        st.choice = Some(choice);
        st.committed = 0;
        if !failover {
            let name = LogicalFileName::new(&st.lfn)?;
            st.total_bytes = self
                .grid
                .catalog
                .lookup(&name)
                .expect("scored candidates imply a registered file")
                .entry()
                .size_bytes();
        }
        drop(guard);
        self.advance(idx, state, input)
    }

    /// Starts a synthesised read of the client's own copy.
    fn start_local_read(&mut self, idx: usize) {
        let guard = self.prof.span("dispatch");
        let total = self.states[idx].total_bytes;
        self.prof.add_items(total);
        let rate = self.grid.hosts[self.states[idx].client.index()].available_disk_read();
        let pause = rate.time_for_bytes(total);
        self.states[idx].phase = Phase::LocalRead {
            started: self.grid.sim.now(),
        };
        drop(guard);
        self.schedule_control(idx, pause);
    }

    /// Starts one GridFTP attempt against the current choice, resuming
    /// from the committed offset on retries.
    fn start_attempt(&mut self, idx: usize) -> Result<(), GridError> {
        let guard = self.prof.span("dispatch");
        let choice_host = self.states[idx]
            .choice
            .as_ref()
            .expect("attempts follow a decision")
            .host;
        let client = self.states[idx].client;
        let total = self.states[idx].total_bytes;
        let committed = self.states[idx].committed;
        let req = self.options.request(total);
        let attempt_req = if committed == 0 {
            req
        } else {
            req.with_range(committed, total - committed)
        };
        let cache_key = (self.grid.node_of(client), self.grid.node_of(choice_host));
        let cached = self.grid.control_cached(cache_key);
        let tcp = self
            .grid
            .tcp_for(self.grid.node_of(choice_host), self.grid.node_of(client));
        let base = self.grid.alloc_session_tokens();
        let mut session = TransferSession::new(
            attempt_req,
            self.grid.endpoint_for(choice_host),
            self.grid.endpoint_for(client),
            tcp,
            base,
        )?
        .with_costs(self.grid.costs)
        .with_cached_control(cached)
        .with_stall_timeout(self.recovery.stall_timeout);
        self.prof.add_items(total - committed);
        let st = &mut self.states[idx];
        st.attempts += 1;
        session.start(&mut self.grid.sim);
        st.phase = Phase::Transferring(Box::new(session));
        self.owners.insert(token_block(base), idx);
        let at = self.transferring.partition_point(|&j| j < idx);
        self.transferring.insert(at, idx);
        drop(guard);
        Ok(())
    }

    /// Feeds `ev` to the session of job `idx`, which owns token `block`;
    /// the block is released, and the job leaves the transferring list,
    /// when the session ends.
    fn on_session_event(&mut self, idx: usize, block: u64, ev: &SimEvent) -> Result<(), GridError> {
        let state = self.states[idx].fetch_state();
        let status = {
            let Phase::Transferring(session) = &mut self.states[idx].phase else {
                unreachable!("session events only reach transferring jobs");
            };
            // One solve for a burst: the ramp starts every stream, a
            // stall aborts them all.
            self.grid.sim.batched(|sim| session.handle(sim, ev))
        };
        if !matches!(status, SessionStatus::InProgress) {
            self.owners.remove(&block);
            let at = self
                .transferring
                .binary_search(&idx)
                .expect("a job with a live session is on the transferring list");
            self.transferring.remove(at);
        }
        match status {
            SessionStatus::InProgress => Ok(()),
            SessionStatus::Complete(outcome) => {
                self.states[idx].payload_moved += outcome.payload_bytes;
                let st = &self.states[idx];
                let choice = st.choice.as_ref().expect("transferring jobs have a choice");
                let cache_key = (self.grid.node_of(st.client), self.grid.node_of(choice.host));
                self.grid.remember_control(cache_key);
                self.grid.record_transfer(
                    &choice.host_name,
                    &st.client_name,
                    protocol_label(self.options.protocol),
                    &outcome,
                    Some(&st.lfn),
                );
                self.last_transfer = Some(outcome);
                self.advance(idx, state, FetchInput::Delivered)
            }
            SessionStatus::Failed(failure) => {
                let st = &mut self.states[idx];
                st.committed += failure.restart_offset();
                st.payload_moved += failure.delivered_payload;
                st.phase = Phase::Done; // placeholder until the transition
                let (attempts, committed) = (st.episode_attempts, st.committed);
                self.grid.obs.metrics_mut().inc("transfer.stalls");
                if self.grid.obs.is_enabled() {
                    let st = &self.states[idx];
                    let choice = st.choice.as_ref().expect("stalled jobs have a choice");
                    self.grid.obs.emit(
                        Event::new(failure.at, "gridftp", "transfer.stall")
                            .with("src", choice.host_name.as_str())
                            .with("dst", st.client_name.as_str())
                            .with("attempt", attempts)
                            .with("delivered", failure.delivered_payload)
                            .with("committed", committed)
                            .with("resumable", failure.resumable),
                    );
                }
                self.advance(idx, state, FetchInput::Stalled)
            }
        }
    }

    /// The current replica's retries are exhausted: mark it suspect and
    /// record the failover. [`step`] decides whether the job tries again.
    fn abandon_replica(&mut self, idx: usize) {
        let _failover = self.prof.span("failover");
        let st = &mut self.states[idx];
        let choice = st.choice.take().expect("abandon follows attempts");
        let now = self.grid.sim.now();
        if let Some(tl) = self.grid.timeline.as_mut() {
            tl.record_failover(now);
        }
        self.grid.obs.metrics_mut().inc("transfer.abandoned");
        if self.grid.obs.is_enabled() {
            self.grid.obs.emit(
                Event::new(now, "gridftp", "transfer.abandoned")
                    .with("src", choice.host_name.as_str())
                    .with("dst", st.client_name.as_str())
                    .with("attempts", st.episode_attempts)
                    .with("delivered", st.committed),
            );
        }
        self.grid.catalog.mark_suspect(&choice.location);
        self.grid.invalidate_scores();
        self.grid.obs.metrics_mut().inc("selection.failovers");
        if self.grid.obs.is_enabled() {
            self.grid.obs.emit(
                Event::new(now, "select", "selection.failover")
                    .with("lfn", st.lfn.as_str())
                    .with("abandoned", choice.host_name.as_str())
                    .with("attempts", st.episode_attempts)
                    .with("delivered", st.committed),
            );
        }
        st.failed_over.push(choice.host_name);
    }

    /// Terminal success: attach the measured time of the delivering
    /// transfer to this job's decision and record the outcome.
    fn finish_transfer(&mut self, idx: usize) {
        let outcome = self
            .last_transfer
            .as_ref()
            .expect("delivery records its transfer");
        let st = &mut self.states[idx];
        let choice = st.choice.as_ref().expect("finishing jobs have a choice");
        let local_hit = choice.is_local;
        let winner = choice.host_name.clone();
        if local_hit {
            st.payload_moved += outcome.payload_bytes;
        }
        let delivered = st.committed + outcome.payload_bytes;
        if let Some(seq) = st.audit_seq {
            let secs = outcome.duration().as_secs_f64();
            if let Some(decision) = self.grid.obs.audit_mut().decision_mut_by_seq(seq) {
                decision.attach_measured(&winner, secs);
            }
        }
        let st = &self.states[idx];
        let now = self.grid.sim.now();
        let latency_secs = (now - st.submitted).as_secs_f64();
        if let Some(tl) = self.grid.timeline.as_mut() {
            tl.observe_latency(now, latency_secs);
            tl.record_completion(now, true);
        }
        self.grid.obs.metrics_mut().inc("replay.completed");
        if self.grid.obs.is_enabled() {
            self.grid.obs.emit(
                Event::new(now, "replay", "replay.job.done")
                    .with("client", st.client_name.as_str())
                    .with("lfn", st.lfn.as_str())
                    .with("winner", winner.as_str())
                    .with("bytes", delivered)
                    .with("secs", latency_secs),
            );
        }
        self.conclude(
            idx,
            ReplayStatus::Completed {
                winner,
                bytes: delivered,
                local_hit,
            },
        );
    }

    /// Terminal failure: every candidate the policy allowed was tried and
    /// abandoned.
    fn fail_job(&mut self, idx: usize) {
        let st = &self.states[idx];
        if let Some(tl) = self.grid.timeline.as_mut() {
            tl.record_completion(self.grid.sim.now(), false);
        }
        self.grid.obs.metrics_mut().inc("replay.failed");
        if self.grid.obs.is_enabled() {
            self.grid.obs.emit(
                Event::new(self.grid.sim.now(), "replay", "replay.job.failed")
                    .with("client", st.client_name.as_str())
                    .with("lfn", st.lfn.as_str())
                    .with("failed_over", st.failed_over.len()),
            );
        }
        let status = ReplayStatus::Failed {
            failed: st.failed_over.clone(),
        };
        self.conclude(idx, status);
    }

    /// Records job `idx`'s terminal outcome; the job leaves the run and
    /// hands its names over to the outcome.
    fn conclude(&mut self, idx: usize, status: ReplayStatus) {
        let st = &mut self.states[idx];
        st.phase = Phase::Done;
        self.outcomes[idx] = Some(ReplayOutcome {
            client: std::mem::take(&mut st.client_name),
            lfn: std::mem::take(&mut st.lfn),
            submitted: st.submitted,
            finished: self.grid.sim.now(),
            attempts: st.attempts,
            failovers: u32::try_from(st.failed_over.len()).unwrap_or(u32::MAX),
            payload_moved: st.payload_moved,
            status,
        });
        self.remaining -= 1;
    }
}

#[cfg(test)]
mod step_tests {
    use super::*;

    /// A stall backs off until the policy's attempts are spent, then
    /// abandons the replica; the failover cap turns the last abandon into
    /// `Failed`. Inputs foreign to a phase have no transition.
    #[test]
    fn stalls_walk_the_retry_then_failover_ladder() {
        let recovery = RecoveryOptions::default().with_max_failovers(1);
        let max = recovery.retry.max_attempts;
        let stall = |phase, episode_attempts, failed| {
            let state = FetchState {
                phase,
                episode_attempts,
                failed,
            };
            step(state, FetchInput::Stalled, &recovery)
                .map(|t| (t.to.phase, t.to.failed, t.abandons))
        };
        let transferring = FetchPhase::Transferring;
        assert_eq!(
            stall(transferring, 1, 0),
            Some((FetchPhase::Backoff, 0, false))
        );
        assert_eq!(
            stall(transferring, max, 0),
            Some((FetchPhase::Deciding, 1, true))
        );
        assert_eq!(
            stall(transferring, max, 1),
            Some((FetchPhase::Failed, 2, true))
        );
        assert_eq!(
            stall(FetchPhase::LocalRead, 1, 0),
            None,
            "local reads never stall"
        );
        assert_eq!(
            stall(FetchPhase::Completed, 1, 0),
            None,
            "terminals take no input"
        );
    }
}
