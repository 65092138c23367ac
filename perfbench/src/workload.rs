//! The four benchmark workloads and one timed repetition of each.
//!
//! Every repetition builds its own grid from the seed, so repetitions are
//! independent and a repeated seed must reproduce the same fetch results
//! bit for bit. Host time is taken from outside the program: around the
//! benchmark's own calls into each crate's public functions.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use datagrid_core::prelude::{
    DataGrid, FaultPlan, FetchOptions, GridError, RecoveryOptions, ReplayJob, ReplayOutcome,
    ReplayStatus, SelectionMode,
};
use datagrid_simnet::fault::ScheduledFault;
use datagrid_simnet::rng::SimRng;
use datagrid_simnet::time::{SimDuration, SimTime};
use datagrid_sysmon::host::HostId;
use datagrid_testbed::calibration::Calibration;
use datagrid_testbed::experiment::obs_dump;
use datagrid_testbed::gridscale::all_paper_hosts;
use datagrid_testbed::sites::{paper_testbed_with, PaperSites};
use datagrid_testbed::workload::{grid_workload, GridWorkload, GridWorkloadSpec};

use crate::trace::{Span, Tracer};

/// Seed used when none is given: the paper's conference date.
pub const DEFAULT_SEED: u64 = 20_050_905;

/// Seed of the simulated world every run shares: the testbed's host load,
/// background traffic and sensor noise, and the file catalog (sizes and
/// replica placement). `--seed` draws what is offered to that world: the
/// request stream, the fault plan and the sequential fetch order. With a
/// seeded world, the placement of the few Zipf-hot files and the cross
/// traffic on their paths would decide each run (see README.md).
const WORLD_SEED: u64 = DEFAULT_SEED;

/// Sensor warm-up before any fetch, as in the grid-scale sweeps.
const WARM: SimDuration = SimDuration::from_secs(60);

/// The client of the paper's Fig. 1 scenario.
const SCENARIO_CLIENT: &str = "alpha1";

/// Stream counts swept by `paper-sequential` (0 = stream mode), the
/// Fig. 4 axis.
const STREAMS: [u32; 6] = [0, 1, 2, 4, 8, 16];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2,048 one-shot clients arriving in a burst; one shared WAN
    /// component, so the max-min solver dominates.
    BurstContended,
    /// 96 clients spread thin over ~5 simulated hours; per-fetch work
    /// dominates and the solver is nearly idle.
    SteadySparse,
    /// Like `steady-sparse` with larger files, seeded uplink flaps and a
    /// host blackout: the retry and failover paths.
    FaultedFailover,
    /// The paper's Fig. 1 scenario: one client, sequential
    /// `fetch_with_recovery` calls over every stream count.
    PaperSequential,
}

/// Workload size: the benchmark's own, or a tiny one for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes documented in the README.
    Full,
    /// A few fetches per workload, same shape otherwise.
    Tiny,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::BurstContended,
        Workload::SteadySparse,
        Workload::FaultedFailover,
        Workload::PaperSequential,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BurstContended => "burst-contended",
            Workload::SteadySparse => "steady-sparse",
            Workload::FaultedFailover => "faulted-failover",
            Workload::PaperSequential => "paper-sequential",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload injects faults (and so may fail fetches).
    pub fn faulted(self) -> bool {
        self == Workload::FaultedFailover
    }

    fn mode(self) -> SelectionMode {
        match self {
            Workload::BurstContended => SelectionMode::ContentionAware,
            _ => SelectionMode::Static,
        }
    }

    /// The generated catalog and arrival shape. `paper-sequential` uses
    /// only the catalog; its fetch order is fixed (see [`Jobs`]).
    fn spec(self, size: Size) -> GridWorkloadSpec {
        let tiny = size == Size::Tiny;
        let (clients, requests, replicas, median_mib, inter_arrival_s) = match self {
            Workload::BurstContended => (if tiny { 24 } else { 2048 }, 1, 2, 4, 2),
            Workload::SteadySparse => (
                if tiny { 4 } else { 96 },
                if tiny { 6 } else { 128 },
                3,
                4,
                120,
            ),
            Workload::FaultedFailover => (
                if tiny { 6 } else { 96 },
                if tiny { 8 } else { 16 },
                3,
                16,
                2,
            ),
            Workload::PaperSequential => (1, 1, 3, 64, 120),
        };
        GridWorkloadSpec {
            clients,
            files: 48,
            replicas_per_file: replicas,
            median_bytes: median_mib << 20,
            requests_per_client: requests,
            mean_inter_arrival: SimDuration::from_secs(inter_arrival_s),
        }
    }

    /// Independently seeded instances a run replays. Makespan and tail
    /// latency of one instance swing with its seed by tens of percent;
    /// the median over this many instances is steady from seed to seed.
    pub fn instances(self, size: Size) -> usize {
        match (size, self) {
            (Size::Tiny, _) => 2,
            (Size::Full, Workload::BurstContended) => 12,
            (Size::Full, _) => 24,
        }
    }

    /// Sequential fetches made by `paper-sequential`.
    fn sequential_fetches(size: Size) -> usize {
        match size {
            Size::Full => 8000,
            Size::Tiny => 24,
        }
    }

    /// Fetches one repetition submits.
    pub fn fetches(self, size: Size) -> usize {
        match self {
            Workload::PaperSequential => Workload::sequential_fetches(size),
            _ => {
                let spec = self.spec(size);
                spec.clients * spec.requests_per_client
            }
        }
    }
}

/// Terminal state of one fetch, as the digest records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The full file arrived.
    Completed,
    /// Every candidate was abandoned (`ReplayStatus::Failed` or
    /// `GridError::AllReplicasFailed`).
    Failed,
    /// The call returned another error.
    Error,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Completed => "ok",
            Status::Failed => "failed",
            Status::Error => "error",
        }
    }
}

/// One fetch result: everything the digest covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fetch {
    /// Requested logical file.
    pub lfn: String,
    /// How it ended.
    pub status: Status,
    /// Host that served the file (empty unless completed).
    pub winner: String,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Transfer attempts across every replica tried.
    pub attempts: u32,
    /// Replicas abandoned.
    pub failovers: u32,
    /// Payload bytes moved, including work lost to stalled attempts.
    pub payload_moved: u64,
    /// Simulated nanoseconds at submission.
    pub submitted_ns: u64,
    /// Simulated nanoseconds at the terminal state.
    pub finished_ns: u64,
}

impl Fetch {
    fn from_outcome(o: ReplayOutcome) -> Fetch {
        let (status, winner, bytes) = match o.status {
            ReplayStatus::Completed { winner, bytes, .. } => (Status::Completed, winner, bytes),
            ReplayStatus::Failed { .. } => (Status::Failed, String::new(), 0),
        };
        Fetch {
            lfn: o.lfn,
            status,
            winner,
            bytes,
            attempts: o.attempts,
            failovers: o.failovers,
            payload_moved: o.payload_moved,
            submitted_ns: o.submitted.as_nanos(),
            finished_ns: o.finished.as_nanos(),
        }
    }

    /// Simulated submission-to-terminal latency in seconds.
    pub fn latency_s(&self) -> f64 {
        (self.finished_ns - self.submitted_ns) as f64 * 1e-9
    }
}

/// Deterministic engine, selection, profiler and recorder counters of one
/// repetition. Engine and scratch counters are deltas over the replay or
/// fetch loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub events: u64,
    pub solves: u64,
    pub flows_touched: u64,
    pub solves_avoided: u64,
    pub fault_transitions: u64,
    pub scratch_high_water: u64,
    pub scratch_hits: u64,
    pub scratch_misses: u64,
    pub decide_calls: u64,
    pub settle_calls: u64,
    pub retry_calls: u64,
    pub export_bytes: u64,
    pub events_dropped: u64,
    pub decisions_dropped: u64,
}

/// One timed repetition of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host nanoseconds: build, generation, install, warm-up, job
    /// resolution (and fault plan).
    pub setup_ns: u64,
    /// Host nanoseconds in the replay or fetch loop.
    pub loop_ns: u64,
    /// Host nanoseconds for setup, loop and the observability export.
    pub wall_ns: u64,
    /// Simulated seconds the loop advanced.
    pub sim_span_s: f64,
    /// Every fetch result, in submission order.
    pub fetches: Vec<Fetch>,
    /// Invariant violations and call errors; empty when correct.
    pub violations: Vec<String>,
    /// Counters explaining the host time.
    pub counters: Counters,
    /// Spans, when traced.
    pub spans: Vec<Span>,
}

impl Rep {
    /// Fetches that did not complete.
    pub fn failed(&self) -> usize {
        self.fetches
            .iter()
            .filter(|f| f.status != Status::Completed)
            .count()
    }

    /// FNV-1a 64 hash of [`Rep::digest_lines`].
    pub fn digest(&self) -> u64 {
        fnv1a64(self.digest_lines().as_bytes())
    }

    /// One line per fetch: index, status, winner, bytes, attempts,
    /// failovers, payload moved and the bits of the finish time.
    pub fn digest_lines(&self) -> String {
        let mut out = String::with_capacity(self.fetches.len() * 48);
        for (i, f) in self.fetches.iter().enumerate() {
            let winner = if f.winner.is_empty() { "-" } else { &f.winner };
            let _ = writeln!(
                out,
                "{i} {} {winner} {} {} {} {} {}",
                f.status.label(),
                f.bytes,
                f.attempts,
                f.failovers,
                f.payload_moved,
                f.finished_ns
            );
        }
        out
    }
}

/// Seed of instance `i` of a run seeded with `seed`. Instance 0 replays
/// `seed` itself; the others are SplitMix64 mixes of it.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the loop runs.
enum Jobs {
    Replay(Vec<ReplayJob>),
    Sequential {
        client: HostId,
        fetches: Vec<(String, u32)>,
    },
}

/// A warmed grid with its workload installed, ready for the loop.
struct Prepared {
    grid: DataGrid,
    sites: PaperSites,
    workload: GridWorkload,
    jobs: Jobs,
}

/// Setup of one repetition: [`prepare`], then the fault plan of
/// `faulted-failover`.
fn setup(w: Workload, size: Size, seed: u64, tracer: &mut Tracer) -> Result<Prepared, String> {
    let mut p = prepare(w, size, seed, tracer)?;
    if w.faulted() {
        tracer.span("simnet.install_faults", || {
            let plan = fault_plan(&p.grid, &p.sites, seed);
            p.grid.install_fault_plan(plan);
        });
    }
    Ok(p)
}

/// Host nanoseconds of one [`setup`], with nothing run after it.
pub fn time_setup(w: Workload, size: Size, seed: u64) -> Result<u64, String> {
    let t0 = Instant::now();
    let p = setup(w, size, seed, &mut Tracer::new(false))?;
    let ns = nanos(t0, Instant::now());
    drop(p);
    Ok(ns)
}

/// Grid build, workload generation, catalog install, warm-up and job
/// resolution. Each call is its own span.
fn prepare(w: Workload, size: Size, seed: u64, tracer: &mut Tracer) -> Result<Prepared, String> {
    let spec = w.spec(size);
    let (mut grid, sites) = tracer.span("testbed.build", || {
        let (mut builder, sites) = paper_testbed_with(WORLD_SEED, &Calibration::default());
        builder.selection_mode(w.mode());
        (builder.build(), sites)
    });
    let hosts = all_paper_hosts();
    let workload = tracer.span("testbed.workload_gen", || {
        let catalog = grid_workload(&spec, &hosts, WORLD_SEED);
        let requests = grid_workload(&spec, &hosts, seed);
        GridWorkload {
            trace: requests.trace,
            ..catalog
        }
    });
    tracer
        .span("catalog.install", || workload.install(&mut grid))
        .map_err(|e| format!("catalog install: {e}"))?;
    tracer.span("sysmon.warm_up", || grid.warm_up(WARM));
    let jobs = tracer.span("core.resolve_jobs", || {
        resolve_jobs(w, size, seed, &grid, &workload)
    })?;
    Ok(Prepared {
        grid,
        sites,
        workload,
        jobs,
    })
}

fn resolve_jobs(
    w: Workload,
    size: Size,
    seed: u64,
    grid: &DataGrid,
    workload: &GridWorkload,
) -> Result<Jobs, String> {
    if w != Workload::PaperSequential {
        return Ok(Jobs::Replay(workload.jobs(grid)));
    }
    let client = grid
        .host_id(SCENARIO_CLIENT)
        .ok_or_else(|| format!("{SCENARIO_CLIENT} is not a grid host"))?;
    // Each pass visits every file once, in a seeded order, with the next
    // stream count, so every (file, streams) pair is fetched.
    let files = &workload.files;
    let mut rng = SimRng::seed_from_u64(seed).fork("perfbench:order");
    let mut order: Vec<usize> = (0..files.len()).collect();
    let fetches = (0..Workload::sequential_fetches(size))
        .map(|i| {
            let (pass, slot) = (i / files.len(), i % files.len());
            if slot == 0 {
                for j in (1..order.len()).rev() {
                    order.swap(j, rng.below(j as u64 + 1) as usize);
                }
            }
            (files[order[slot]].0.clone(), STREAMS[pass % STREAMS.len()])
        })
        .collect();
    Ok(Jobs::Sequential { client, fetches })
}

/// Seeded flaps on both directions of the HIT, Li-Zen and THU uplinks,
/// at 1/120 Hz per link with a mean outage of 8 s over 3,000 s, plus a
/// 60 s blackout of `gridhit0` 30 s into the arrival burst. A seeded
/// blackout time would swing an instance's failures with it.
///
/// `FaultPlan::random_link_flaps` draws from time zero and
/// `DataGrid::install_fault_plan` panics on a fault before the current
/// time, so every fault is shifted to start after warm-up.
fn fault_plan(grid: &DataGrid, sites: &PaperSites, seed: u64) -> FaultPlan {
    const HORIZON_S: u64 = 3000;
    const BLACKOUT_AT_S: u64 = 30;
    const BLACKOUT_S: u64 = 60;
    let now = grid.now();
    let mut rng = SimRng::seed_from_u64(seed).fork("perfbench:faults");
    let links = [
        sites.hit_uplink.0,
        sites.hit_uplink.1,
        sites.lizen_uplink.0,
        sites.lizen_uplink.1,
        sites.thu_uplink.0,
        sites.thu_uplink.1,
    ];
    let flaps = FaultPlan::random_link_flaps(
        &mut rng,
        &links,
        SimDuration::from_secs(HORIZON_S),
        1.0 / 120.0,
        SimDuration::from_secs(8),
    );
    let mut plan = FaultPlan::new();
    for f in flaps.iter() {
        plan.push(ScheduledFault {
            at: now + (f.at - SimTime::ZERO),
            ..*f
        });
    }
    plan.host_blackout(
        now + SimDuration::from_secs(BLACKOUT_AT_S),
        SimDuration::from_secs(BLACKOUT_S),
        sites.hit[0],
    )
}

/// Runs the replay or the sequential fetch loop. Errors that end the
/// whole call are returned; per-fetch errors become [`Status::Error`].
fn run_loop(p: &mut Prepared, tracer: &mut Tracer) -> Result<(Vec<Fetch>, f64), String> {
    let recovery = RecoveryOptions::default();
    let grid = &mut p.grid;
    match &p.jobs {
        Jobs::Replay(jobs) => {
            let report = tracer
                .span("core.replay_concurrent", || {
                    grid.replay_concurrent(jobs, FetchOptions::default(), &recovery)
                })
                .map_err(|e| format!("replay_concurrent: {e}"))?;
            let span = report.makespan().as_secs_f64();
            Ok((
                report
                    .outcomes
                    .into_iter()
                    .map(Fetch::from_outcome)
                    .collect(),
                span,
            ))
        }
        Jobs::Sequential { client, fetches } => {
            let start = grid.now();
            let mut out = Vec::with_capacity(fetches.len());
            for (lfn, streams) in fetches {
                let submitted = grid.now();
                let options = FetchOptions::default().with_parallelism(*streams);
                let result = tracer.span("gridftp.fetch_with_recovery", || {
                    grid.fetch_with_recovery(*client, lfn, options, &recovery)
                });
                let finished = grid.now();
                let mut f = Fetch {
                    lfn: lfn.clone(),
                    status: Status::Error,
                    winner: String::new(),
                    bytes: 0,
                    attempts: 0,
                    failovers: 0,
                    payload_moved: 0,
                    submitted_ns: submitted.as_nanos(),
                    finished_ns: finished.as_nanos(),
                };
                match result {
                    Ok(r) => {
                        f.status = Status::Completed;
                        f.winner = r.report.chosen_candidate().host_name.clone();
                        f.bytes = r.report.transfer.payload_bytes;
                        f.attempts = r.attempts;
                        f.failovers = u32::try_from(r.failovers()).unwrap_or(u32::MAX);
                        f.payload_moved = r.payload_moved;
                    }
                    Err(GridError::AllReplicasFailed { failed, .. }) => {
                        f.status = Status::Failed;
                        f.failovers = u32::try_from(failed.len()).unwrap_or(u32::MAX);
                    }
                    Err(_) => {}
                }
                out.push(f);
            }
            Ok((out, (grid.now() - start).as_secs_f64()))
        }
    }
}

/// One full repetition: setup, loop, export. `tracer` decides whether
/// spans are kept; the calls made are the same either way.
pub fn run_rep(w: Workload, size: Size, seed: u64, mut tracer: Tracer) -> Rep {
    let t0 = Instant::now();
    tracer.enter("bench.rep");
    tracer.enter("bench.setup");
    let prepared = setup(w, size, seed, &mut tracer);
    tracer.exit();
    let t1 = Instant::now();
    let mut violations = Vec::new();
    let Ok(mut p) = prepared.map_err(|e| violations.push(e)) else {
        tracer.exit();
        return Rep {
            setup_ns: nanos(t0, t1),
            loop_ns: 0,
            wall_ns: nanos(t0, t1),
            sim_span_s: 0.0,
            fetches: Vec::new(),
            violations,
            counters: Counters::default(),
            spans: tracer.finish(),
        };
    };
    let before = p.grid.network().stats();
    let (hits0, misses0) = p.grid.score_scratch_stats();
    tracer.enter("bench.loop");
    let looped = run_loop(&mut p, &mut tracer);
    tracer.exit();
    let t2 = Instant::now();
    let dump = tracer.span("obs.export", || obs_dump(&p.grid));
    tracer.exit();
    let t3 = Instant::now();

    let (fetches, sim_span_s) = looped.unwrap_or_else(|e| {
        violations.push(e);
        (Vec::new(), 0.0)
    });
    let grid = &p.grid;
    let after = grid.network().stats();
    let (hits1, misses1) = grid.score_scratch_stats();
    let prof = grid.profiler().snapshot();
    let calls = |path: &str| {
        prof.phases
            .iter()
            .filter(|ph| ph.path == path)
            .map(|ph| ph.calls)
            .sum::<u64>()
    };
    let metrics = grid.metrics_snapshot();
    let counters = Counters {
        events: after.events_processed - before.events_processed,
        solves: (after.incremental_solves + after.full_solves)
            - (before.incremental_solves + before.full_solves),
        flows_touched: after.solver_flows_touched - before.solver_flows_touched,
        solves_avoided: after.solves_avoided - before.solves_avoided,
        fault_transitions: after.fault_transitions - before.fault_transitions,
        scratch_high_water: grid.network().scratch_footprint() as u64,
        scratch_hits: hits1 - hits0,
        scratch_misses: misses1 - misses0,
        decide_calls: calls("decide"),
        settle_calls: calls("settle"),
        retry_calls: calls("retry"),
        export_bytes: [
            &dump.metrics_text,
            &dump.metrics_json,
            &dump.events_jsonl,
            &dump.audit_text,
            &dump.audit_jsonl,
        ]
        .iter()
        .map(|s| s.len() as u64)
        .sum(),
        events_dropped: metrics.counter("obs.events_dropped"),
        decisions_dropped: metrics.counter("obs.decisions_dropped"),
    };
    let submitted = match &p.jobs {
        Jobs::Replay(jobs) => jobs.len(),
        Jobs::Sequential { fetches, .. } => fetches.len(),
    };
    let sizes: BTreeMap<&str, u64> = p
        .workload
        .files
        .iter()
        .map(|(lfn, bytes)| (lfn.as_str(), *bytes))
        .collect();
    check(w, submitted, &fetches, &sizes, &mut violations);
    Rep {
        setup_ns: nanos(t0, t1),
        loop_ns: nanos(t1, t2),
        wall_ns: nanos(t0, t3),
        sim_span_s,
        fetches,
        violations,
        counters,
        spans: tracer.finish(),
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from((to - from).as_nanos()).unwrap_or(u64::MAX)
}

/// The output invariants: one result per submitted fetch, completed
/// fetches carry exactly their file's size, no fetch moved fewer bytes
/// than it delivered, and nothing fails on a fault-free workload.
fn check(
    w: Workload,
    submitted: usize,
    fetches: &[Fetch],
    sizes: &BTreeMap<&str, u64>,
    violations: &mut Vec<String>,
) {
    let completed = fetches
        .iter()
        .filter(|f| f.status == Status::Completed)
        .count();
    let failed = fetches.len() - completed;
    if completed + failed != submitted {
        violations.push(format!(
            "completed {completed} + failed {failed} != fetches {submitted}"
        ));
    }
    for (i, f) in fetches.iter().enumerate() {
        if f.status == Status::Completed && sizes.get(f.lfn.as_str()) != Some(&f.bytes) {
            violations.push(format!(
                "fetch {i}: {} delivered {} bytes, file has {:?}",
                f.lfn,
                f.bytes,
                sizes.get(f.lfn.as_str())
            ));
        }
        if f.payload_moved < f.bytes {
            violations.push(format!(
                "fetch {i}: payload moved {} < bytes {}",
                f.payload_moved, f.bytes
            ));
        }
        if f.status == Status::Error || (f.status == Status::Failed && !w.faulted()) {
            violations.push(format!("fetch {i}: {} on {}", f.status.label(), w.name()));
        }
    }
}

/// Calls per score probe: every miss call and every hit call.
pub const SCORE_PROBE_CALLS: usize = 1024;

/// Layer probes on a freshly prepared, warmed grid of the workload, before
/// any fault plan. They run outside any timed repetition.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Engine events processed in the idle simulated hour.
    pub idle_hour_events: u64,
    /// Spans: `sysmon.idle_hour`, `core.score_miss` and `core.score_hit`.
    pub spans: Vec<Span>,
    /// Probe calls that did not behave as the probe requires.
    pub violations: Vec<String>,
}

/// Probes one workload's layers from outside:
///
/// * `advance_to` one idle simulated hour on a `Clone` of the warmed grid;
/// * [`SCORE_PROBE_CALLS`] `score_candidates_into` calls from `alpha1`
///   that each ask for another file than the call before, so every one
///   misses the score scratch, then as many that repeat the previous
///   query and so hit it (both checked against `score_scratch_stats`).
pub fn run_probe(w: Workload, size: Size, seed: u64, mut tracer: Tracer) -> Probe {
    let mut violations = Vec::new();
    let mut idle_hour_events = 0;
    tracer.enter("bench.probe");
    match prepare(w, size, seed, &mut tracer) {
        Err(e) => violations.push(e),
        Ok(p) => {
            let mut idle = p.grid.clone();
            let until = idle.now() + SimDuration::from_secs(3600);
            let ev0 = idle.network().stats().events_processed;
            tracer.span("sysmon.idle_hour", || idle.advance_to(until));
            idle_hour_events = idle.network().stats().events_processed - ev0;
            drop(idle);
            score_probe(&p, &mut tracer, &mut violations);
        }
    }
    tracer.exit();
    Probe {
        idle_hour_events,
        spans: tracer.finish(),
        violations,
    }
}

fn score_probe(p: &Prepared, tracer: &mut Tracer, violations: &mut Vec<String>) {
    let grid = &p.grid;
    let Some(client) = grid.host_id(SCENARIO_CLIENT) else {
        violations.push(format!("{SCENARIO_CLIENT} is not a grid host"));
        return;
    };
    let files = &p.workload.files;
    let lfn = |i: usize| files[i % files.len()].0.as_str();
    let mut out = Vec::new();
    let mut errors = 0usize;
    let (h0, m0) = grid.score_scratch_stats();
    for i in 0..SCORE_PROBE_CALLS {
        let r = tracer.span("core.score_miss", || {
            grid.score_candidates_into(client, lfn(i), &mut out)
        });
        errors += usize::from(r.is_err());
    }
    let (h1, m1) = grid.score_scratch_stats();
    for i in 0..SCORE_PROBE_CALLS {
        // Prime the scratch with this file, then time the repeat.
        errors += usize::from(
            grid.score_candidates_into(client, lfn(i + 1), &mut out)
                .is_err(),
        );
        let r = tracer.span("core.score_hit", || {
            grid.score_candidates_into(client, lfn(i + 1), &mut out)
        });
        errors += usize::from(r.is_err());
    }
    let (h2, m2) = grid.score_scratch_stats();
    let n = SCORE_PROBE_CALLS as u64;
    if errors > 0 || h1 != h0 || m1 - m0 != n || h2 - h1 != n || m2 - m1 != n {
        violations.push(format!(
            "score probe: {errors} errors, misses phase {}h/{}m, hits phase {}h/{}m, expected 0h/{n}m then {n}h/{n}m",
            h1 - h0,
            m1 - m0,
            h2 - h1,
            m2 - m1
        ));
    }
}
